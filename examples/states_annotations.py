"""The 50-states before/after annotation contrast of §6.1 (Figures 7 & 8).

The raw CSV import shows opaque identifiers, yet Magnet still surfaces
the 'cardinal' observation; adding labels and the integer annotation on
area yields friendly facets and a range control exposing Alaska.

Run:  python examples/states_annotations.py
"""

from repro import Session, Workspace
from repro.browser import FacetSummary, render_navigation_pane, render_overview
from repro.datasets import states


def show(annotated: bool) -> None:
    corpus = states.build_corpus(annotated=annotated)
    workspace = Workspace(corpus.graph, schema=corpus.schema, items=corpus.items)
    session = Session(workspace)
    banner = "ANNOTATED (Figure 8)" if annotated else "AS GIVEN (Figure 7)"
    print("#" * 72)
    print(f"# {banner}")
    print("#" * 72)
    print(render_navigation_pane(session))
    print()
    print(render_overview(FacetSummary.of_collection(workspace, corpus.items)))


def main() -> None:
    show(annotated=False)
    show(annotated=True)

    # The Alaska observation: the annotated area range is dominated by
    # one outlier state.
    corpus = states.build_corpus(annotated=True)
    workspace = Workspace(corpus.graph, schema=corpus.schema, items=corpus.items)
    area = corpus.extras["properties"]["area"]
    from repro.query import Range

    values = workspace.facet_profile(corpus.items).sorted_readings(area)
    outliers = Range(area, low=400000).candidates(
        workspace.query_context
    )
    print(
        f"area spans {min(values):,.0f}..{max(values):,.0f} sq mi; "
        f"states above 400,000: "
        f"{sorted(workspace.label(s) for s in outliers)}"
    )


if __name__ == "__main__":
    main()
