"""Tests for the range-preview (Figure 5) machinery."""

import pytest

from repro.query import RangePreview


class TestRangePreview:
    def test_bounds(self):
        p = RangePreview([5.0, 1.0, 3.0])
        assert p.low == 1.0 and p.high == 5.0

    def test_empty(self):
        p = RangePreview([])
        assert p.is_empty
        assert p.histogram() == [0] * p.buckets

    def test_histogram_counts_everything(self):
        p = RangePreview(list(range(100)), buckets=10)
        assert sum(p.histogram()) == 100

    def test_histogram_uniform(self):
        p = RangePreview([float(v) for v in range(100)], buckets=10)
        assert p.histogram() == [10] * 10

    def test_max_value_in_last_bucket(self):
        p = RangePreview([0.0, 10.0], buckets=5)
        hist = p.histogram()
        assert hist[0] == 1 and hist[-1] == 1

    def test_degenerate_single_value(self):
        p = RangePreview([7.0, 7.0], buckets=4)
        assert p.histogram()[0] == 2

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            RangePreview([1.0], buckets=0)

    def test_count_between_inclusive(self):
        p = RangePreview([1.0, 2.0, 3.0, 4.0])
        assert p.count_between(2.0, 3.0) == 2

    def test_count_between_open_ends(self):
        p = RangePreview([1.0, 2.0, 3.0])
        assert p.count_between(None, 2.0) == 2
        assert p.count_between(2.0, None) == 2
        assert p.count_between(None, None) == 3

    def test_hatch_marks_width(self):
        p = RangePreview(list(range(50)))
        assert len(p.hatch_marks(32)) == 32

    def test_hatch_marks_empty(self):
        assert RangePreview([]).hatch_marks(10) == " " * 10

    def test_hatch_marks_show_density(self):
        # all mass in one spot → one dense column, rest blank
        p = RangePreview([5.0] * 9 + [0.0, 10.0])
        marks = p.hatch_marks(11)
        assert marks.count(" ") > 5
        assert "|" in marks


class TestRangePreviewEdgeCases:
    """Zero-width ranges, inverted selections, degenerate histograms."""

    def test_zero_width_selection_counts_exact_hits(self):
        p = RangePreview([1.0, 2.0, 2.0, 3.0])
        assert p.count_between(2.0, 2.0) == 2
        assert p.count_between(1.5, 1.5) == 0

    def test_inverted_selection_keeps_nothing(self):
        # A slider crossing (low > high) previews as zero, not a
        # negative count and not an exception.
        p = RangePreview([1.0, 2.0, 3.0])
        assert p.count_between(3.0, 1.0) == 0
        assert p.count_between(10.0, -10.0) == 0

    def test_selection_outside_span(self):
        p = RangePreview([1.0, 2.0, 3.0])
        assert p.count_between(4.0, 9.0) == 0
        assert p.count_between(-9.0, 0.5) == 0

    def test_single_value_histogram_lands_in_first_bucket(self):
        # width == 0: every reading maps to bucket 0 instead of
        # dividing by zero.
        p = RangePreview([7.0] * 5, buckets=8)
        assert p.histogram() == [5, 0, 0, 0, 0, 0, 0, 0]
        assert p.low == p.high == 7.0
        assert p.count_between(7.0, 7.0) == 5

    def test_single_value_hatch_marks(self):
        p = RangePreview([7.0] * 5, buckets=8)
        marks = p.hatch_marks(8)
        assert len(marks) == 8
        assert marks[0] != " "
        assert set(marks[1:]) == {" "}

    def test_hatch_marks_rebucket_preserves_total(self):
        p = RangePreview([float(v) for v in range(100)], buckets=20)
        assert sum(p._rebucket(40)) == 100
        assert sum(p._rebucket(7)) == 100

    def test_hatch_marks_same_width_skips_rebucket(self):
        p = RangePreview([float(v) for v in range(40)], buckets=40)
        assert len(p.hatch_marks(40)) == 40

    def test_count_between_one_open_end_on_degenerate_data(self):
        p = RangePreview([5.0, 5.0])
        assert p.count_between(None, 5.0) == 2
        assert p.count_between(5.0, None) == 2
        assert p.count_between(None, 4.9) == 0
