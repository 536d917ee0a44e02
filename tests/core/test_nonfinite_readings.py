"""Non-finite readings on the scaled corpus reach the range widget.

The 2,048-item scaled corpus carries "nan", "inf" and "n/a" literals on
``year``.  NaN has no place in a sorted order: kept, it broke the
bisection behind ``count_between`` and made ``histogram`` raise.  The
profile now drops NaN (both the graph sweep and the facet entries) and
keeps ±inf, as ``Range`` does; the histogram spans finite readings.
"""

import math

import pytest

from repro.browser.session import Session
from repro.core.analysts.common import collection_profile
from repro.core.suggestions import OpenRangeWidget
from repro.core.workspace import Workspace
from repro.datasets import scaled
from repro.query import RangePreview
from repro.rdf.terms import Literal


@pytest.fixture(scope="module")
def corpus():
    return scaled.build_corpus(2_048)


def _naive_count(corpus, low, high):
    count = 0
    for item in corpus.items:
        for value in corpus.graph.objects(item, corpus.extras["p_year"]):
            if isinstance(value, Literal):
                number = value.as_number()
                if number is not None and low <= number <= high:
                    count += 1
    return count


def _year_widget(corpus):
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    result = Session(workspace).suggestions()
    for suggestion in result.all_suggestions():
        action = suggestion.action
        if (
            isinstance(action, OpenRangeWidget)
            and action.prop == corpus.extras["p_year"]
        ):
            return workspace, action.preview
    raise AssertionError("no year range widget on the landing pane")


def test_year_widget_counts_like_the_naive_scan(corpus):
    _workspace, preview = _year_widget(corpus)
    assert _naive_count(corpus, 1950, 1960) == 166
    assert preview.count_between(1950, 1960) == 166
    counts = preview.histogram()  # used to raise on int(nan)
    assert sum(counts) == sum(1 for v in preview.values if math.isfinite(v))
    assert (preview.low, preview.high) == (1900.0, 2025.0)
    assert preview.count_between(None, None) == len(preview.values)
    assert math.inf in preview.values  # ±inf is kept and counted


def test_sweep_and_postings_drop_nan_together(corpus):
    workspace, _preview = _year_widget(corpus)
    prop = corpus.extras["p_year"]
    swept = collection_profile(corpus.graph, corpus.schema, corpus.items)
    replayed = workspace.facet_profile(corpus.items)
    readings = swept.sorted_readings(prop)
    assert readings == replayed.sorted_readings(prop)
    assert not any(math.isnan(v) for v in readings)
    assert readings == sorted(readings)


def test_range_preview_drops_nan_and_spans_finite_readings():
    preview = RangePreview([3.0, math.nan, -math.inf, 1.0, math.inf, 2.0])
    assert preview.values == [-math.inf, 1.0, 2.0, 3.0, math.inf]
    assert (preview.low, preview.high) == (1.0, 3.0)
    assert sum(preview.histogram()) == 3
    assert preview.count_between(2.0, None) == 3
    assert RangePreview([math.inf]).histogram() == [0] * 20
