"""fig5 — Figure 5: the date-range sliders with hatch-mark preview.

Regenerates the two-slider sent-date control over the inbox, checks the
query-preview semantics (hatch marks reflect the document distribution;
the slider selection previews the surviving count), and times preview
construction.
"""

import datetime as dt

from repro.browser import Session, render_range_widget
from repro.core.analysts.common import collection_profile
from repro.core.suggestions import OpenRangeWidget
from repro.query import RangePreview


def test_fig5_range_preview(benchmark, record, inbox_corpus_full, inbox_workspace_full):
    corpus = inbox_corpus_full
    sent = corpus.extras["properties"]["sentDate"]

    values = collection_profile(
        corpus.graph, corpus.schema, corpus.items
    ).sorted_readings(sent)
    assert len(values) == len(corpus.items)

    preview = benchmark(RangePreview, values)

    # Hatch marks account for every document.
    assert sum(preview.histogram()) == len(corpus.items)
    # Slider selection previews counts without running the query.
    july_low = float(dt.date(2003, 7, 1).toordinal())
    july_high = float(dt.date(2003, 7, 31).toordinal() + 1)
    kept = preview.count_between(july_low, july_high)
    assert 0 < kept < len(corpus.items)

    widget_text = render_range_widget(
        preview, "sent date", low=july_low, high=july_high
    )
    record("fig5_range_widget", widget_text + "\n")


def test_fig5_widget_offered_and_applies(benchmark, inbox_workspace_full):
    """Selecting the widget and committing sliders filters the view."""
    session = Session(inbox_workspace_full)
    widgets = [
        s
        for s in session.suggestions().all_suggestions()
        if isinstance(s.action, OpenRangeWidget)
        and "sent date" in s.title
    ]
    assert widgets, "the sent-date range control must be offered"
    widget = session.select(widgets[0])
    july_low = float(dt.date(2003, 7, 1).toordinal())
    july_high = float(dt.date(2003, 7, 31).toordinal() + 1)
    expected = widget.preview.count_between(july_low, july_high)
    view = benchmark(session.apply_range, widget.prop, july_low, july_high)
    assert len(view.items) == expected
