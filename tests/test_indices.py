"""Windowed h-index kernel and the named presets."""

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citewindow import (
    ALL,
    AifValue,
    IndexValue,
    InvalidRangeError,
    NoPapersInWindowError,
    PaperRecord,
    RankedCitations,
    YearWindow,
    author_impact_factor,
    contemporary_h,
    evolution_table,
    h5_index,
    h_from_ranked,
    interpolate_h,
    parse_corpus_json,
    rank_citations,
    timed_h,
    validate_corpus,
    windowed_h,
)
from citewindow import indices, model
from citewindow.rational import format_fixed
from citewindow.tables import evolution_output
from helpers import Oracle, random_corpus, random_window, ranked_vectors, small_corpora


def brute_force_h(values) -> int:
    """Largest k such that at least k entries reach k; no ranking involved."""
    best = 0
    for k in range(len(values) + 1):
        if sum(1 for v in values if v >= k) >= k:
            best = k
    return best


class TestHFromRanked:
    def test_examples(self):
        assert h_from_ranked(RankedCitations((6, 3, 2))) == 2
        assert h_from_ranked(RankedCitations(())) == 0
        assert h_from_ranked(RankedCitations((4, 2))) == 2

    def test_accepts_plain_sequences(self):
        assert h_from_ranked([5, 5, 5]) == 3
        assert h_from_ranked([0, 0]) == 0

    @given(ranked_vectors(max_len=12, max_value=15))
    @settings(max_examples=200)
    def test_matches_brute_force(self, values):
        assert h_from_ranked(values) == brute_force_h(values)

    @given(ranked_vectors())
    @settings(max_examples=100)
    def test_bounds(self, values):
        h = h_from_ranked(values)
        assert h <= len(values)
        if values:
            assert h <= values[0]


@st.composite
def boundary_fractions(draw, max_len=24, max_value=14):
    """Non-increasing non-negative Fractions, each just below, at or just
    above an integer, so that many sit on either side of their rank."""
    terms = st.tuples(st.integers(0, max_value), st.sampled_from([-1, 0, 1]), st.integers(2, 250))
    drawn = draw(st.lists(terms, max_size=max_len))
    values = [max(Fraction(k) + Fraction(sign, den), Fraction(0)) for k, sign, den in drawn]
    return tuple(sorted(values, reverse=True))


class TestHIndex:
    """``indices._h_index``, the one h routine, on every kind of input its
    callers hand it: ranked tuples of ints or Fractions, and descending
    views of sorted numpy rows of every cache dtype or of Python objects."""

    DTYPES = [np.int16, np.int32, np.int64, object]

    @staticmethod
    def descending(values, dtype):
        """A descending view of ``values`` sorted into a numpy array, as
        the cache's ``_cell_counts`` and ``contemporary_h`` hand them over."""
        row = np.array(values, dtype=dtype)
        row.sort()
        return row[::-1]

    @pytest.mark.parametrize("dtype", DTYPES, ids=["int16", "int32", "int64", "object"])
    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_empty_and_all_zero_rows(self, size, dtype):
        assert indices._h_index(self.descending([0] * size, dtype)) == 0

    @pytest.mark.parametrize("values", [(), (0,), (0, 0, 0), (Fraction(0),) * 3])
    def test_empty_and_all_zero_sequences(self, values):
        assert indices._h_index(values) == h_from_ranked(values) == 0

    def test_fraction_just_below_its_rank(self):
        # 2204/201 at rank 11 exceeds 10 but not 11: it does not reach its rank.
        values = (Fraction(12),) * 10 + (Fraction(2204, 201),)
        assert indices._h_index(values) == h_from_ranked(values) == 10
        assert interpolate_h(values, 10) < 11

    @given(ranked_vectors(max_len=40, max_value=45))
    @settings(max_examples=200)
    def test_int_tuples(self, values):
        assert indices._h_index(values) == h_from_ranked(values) == brute_force_h(values)

    @given(boundary_fractions())
    @settings(max_examples=300)
    def test_fraction_tuples_at_the_rank_boundary(self, values):
        h = brute_force_h(values)
        assert indices._h_index(values) == h_from_ranked(values) == h
        assert math.floor(interpolate_h(values, h)) == h

    @given(ranked_vectors(max_len=40, max_value=45), st.sampled_from(DTYPES))
    @settings(max_examples=200)
    def test_descending_views_of_sorted_rows(self, values, dtype):
        assert indices._h_index(self.descending(values, dtype)) == brute_force_h(values)

    @given(boundary_fractions())
    @settings(max_examples=100)
    def test_descending_views_of_fraction_rows(self, values):
        assert indices._h_index(self.descending(values, object)) == brute_force_h(values)


class TestInterpolateH:
    def test_strict_descent(self):
        assert interpolate_h([5, 4, 2], 2) == Fraction(8, 3)

    def test_plateau_at_h(self):
        assert interpolate_h([3, 3, 3], 3) == 3

    def test_frequency_equal_to_rank_is_fixed_point(self):
        # The line through (2, c(2)=2) and (3, c(3)=0) meets the diagonal
        # at rank 2 itself.
        assert interpolate_h([4, 2], 2) == 2

    def test_zero_index(self):
        assert interpolate_h([], 0) == 0
        assert interpolate_h([0, 0], 0) == 0

    def test_rejects_wrong_h(self):
        with pytest.raises(ValueError):
            interpolate_h([5, 4, 2], 3)

    @given(ranked_vectors(max_len=10, max_value=12))
    @settings(max_examples=300)
    def test_sandwich(self, values):
        h = h_from_ranked(values)
        interp = interpolate_h(values, h)
        assert isinstance(interp, Fraction)
        assert h <= interp < h + 1
        assert math.floor(interp) == h


class TestRankCitations:
    def test_bounded_windows(self, toy_corpus):
        c = rank_citations(toy_corpus, YearWindow(2000, 2001), YearWindow(2000, 2001))
        assert c.values == (4, 2)

    def test_empty_selection(self, toy_corpus):
        c = rank_citations(toy_corpus, YearWindow(2010, 2012), YearWindow(2010, 2012))
        assert c.values == ()

    def test_unbounded_totals(self, toy_corpus):
        c = rank_citations(toy_corpus, YearWindow.through(2005), YearWindow.through(2005))
        assert c.values == (6, 3, 2)

    def test_citation_window_misses_everything(self, toy_corpus):
        c = rank_citations(toy_corpus, YearWindow.through(2005), YearWindow(1980, 1990))
        assert c.values == (0, 0, 0)


class TestWindowedH:
    def test_example(self, toy_corpus):
        value = windowed_h(toy_corpus, YearWindow(2000, 2001), YearWindow(2000, 2001))
        assert value == IndexValue(2)

    def test_window_after_activity(self, toy_corpus):
        value = windowed_h(toy_corpus, YearWindow(2010, 2011), YearWindow(2010, 2011))
        assert value.h == 0

    def test_interpolated(self, toy_corpus):
        value = windowed_h(
            toy_corpus, YearWindow.through(2005), YearWindow.through(2005), True
        )
        assert value.h == 2
        assert value.h_interp == Fraction(5, 2)

    def test_empty_corpus_yields_zero(self):
        for corpus in (validate_corpus([]), parse_corpus_json(b"[]")):
            for interpolated in (False, True):
                zero = IndexValue(0, Fraction(0)) if interpolated else IndexValue(0)
                through = YearWindow.through(2000)
                assert windowed_h(corpus, through, through, interpolated) == zero
                assert windowed_h(corpus, YearWindow(1990, 2000), YearWindow(1995, 2005), interpolated) == zero
                assert timed_h(corpus, 2000, 5, interpolated) == zero
                assert h5_index(corpus, 2000, interpolated=interpolated) == zero
                table = evolution_table(corpus, [0, 2, 5], 1998, 2001, interpolated)
                assert table.values == ((zero,) * 4,) * 3
            assert rank_citations(corpus, YearWindow.through(2000), YearWindow(1995, 2000)) == RankedCitations(())
            plain = evolution_output(corpus, [0, 2, 5], 1998, 2001)
            assert [row[1:] for row in plain.rows] == [("0", "0", "0")] * 4
            interp = evolution_output(corpus, [0, 2, 5], 1998, 2001, interpolated=True)
            assert [row[1:] for row in interp.rows] == [("0.0000",) * 3] * 4
            assert corpus._dense.prefix.shape == (1, 0)

    @given(small_corpora(), st.data())
    @settings(max_examples=80)
    def test_equals_composition_of_parts(self, corpus, data):
        lo = corpus.y0 - 2
        hi = corpus.y_end + 2
        def window():
            a = data.draw(st.one_of(st.none(), st.integers(lo, hi)))
            b = data.draw(st.integers(a if a is not None else lo, hi))
            return YearWindow(a, b)
        pub, cite = window(), window()
        ranked = rank_citations(corpus, pub, cite)
        h = h_from_ranked(ranked)
        expected = IndexValue(h, interpolate_h(ranked, h))
        assert windowed_h(corpus, pub, cite, interpolated=True) == expected

    def test_cache_rows_run_over_the_distinct_years_in_order(self):
        corpus = validate_corpus(
            [PaperRecord("a", 1000, {9999: 2, 1000: 1, 2005: 4}), PaperRecord("b", 2000, {2005: 3, 9999: 5})]
        )
        dense = corpus._dense
        assert dense.years == [1000, 2005, 9999]
        # Columns in publication order: a (1000), then b (2000).
        assert dense.prefix.tolist() == [[0, 0], [1, 0], [5, 3], [7, 8]]

    def test_outlier_year_cache_matches_brute_force(self):
        corpus = validate_corpus(
            [PaperRecord("old", 1000, {2020: 3}), PaperRecord("new", 2018, {2019: 1, 2020: 2})]
        )
        assert corpus._dense.prefix.shape[0] <= 3
        windows = [
            (YearWindow(1000, 2020), YearWindow(2019, 2020)),
            (YearWindow(2018, 2018), YearWindow(2020, 2020)),
            (YearWindow.through(2020), YearWindow.through(2020)),
            (YearWindow.through(1000), YearWindow.through(2019)),
            (YearWindow.through(2020), YearWindow(1001, 2018)),
            (YearWindow(1001, 2017), YearWindow.through(2020)),
            (YearWindow.through(2020), YearWindow(900, 950)),
            (YearWindow.through(2020), YearWindow(2021, 2030)),
        ]
        expected = [
            brute_force_h(
                [
                    sum(count for year, count in p.citations if year in cite)
                    for p in corpus.papers
                    if p.pub_year in pub
                ]
            )
            for pub, cite in windows
        ]
        for (pub, cite), h in zip(windows, expected):
            assert windowed_h(corpus, pub, cite).h == h


class TestTimedH:
    def test_examples(self, toy_corpus):
        assert timed_h(toy_corpus, 2001, 1).h == 2
        assert timed_h(toy_corpus, 2001, 0).h == 1

    def test_equals_windowed_with_identical_windows(self, toy_corpus):
        # Window length 2 spans three calendar years (the current index).
        for y in range(1999, 2008):
            window = YearWindow(y - 2, y)
            assert timed_h(toy_corpus, y, 2) == windowed_h(toy_corpus, window, window)

    def test_citation_restriction_is_implicit(self, toy_corpus):
        # Papers inside the window cannot be cited before it, so widening
        # only the citation window to the unbounded past changes nothing.
        for y in range(2000, 2006):
            for t in range(0, 7):
                implicit = windowed_h(
                    toy_corpus, YearWindow(y - t, y), YearWindow.through(y)
                )
                assert timed_h(toy_corpus, y, t) == implicit

    def test_negative_length_rejected(self, toy_corpus):
        with pytest.raises(InvalidRangeError):
            timed_h(toy_corpus, 2003, -1)

    @given(small_corpora(), st.integers(0, 12), st.integers(0, 14))
    @settings(max_examples=120)
    def test_monotone_in_window_length(self, corpus, y_off, t):
        y = corpus.y0 + y_off
        shorter = timed_h(corpus, y, t, interpolated=True)
        longer = timed_h(corpus, y, t + 1, interpolated=True)
        assert longer.h >= shorter.h
        assert longer.h_interp >= shorter.h_interp

    @given(small_corpora(), st.integers(0, 12), st.integers(0, 6))
    @settings(max_examples=120)
    def test_coincidence_beyond_career_start(self, corpus, y_off, extra):
        y = corpus.y0 + y_off
        career = y - corpus.y0
        assert timed_h(corpus, y, career + extra, interpolated=True) == timed_h(
            corpus, y, career, interpolated=True
        )

    @given(small_corpora())
    @settings(max_examples=60)
    def test_terminal_identity(self, corpus):
        y_end = corpus.y_end
        full = windowed_h(corpus, YearWindow.through(y_end), YearWindow.through(y_end))
        assert timed_h(corpus, y_end, y_end - corpus.y0) == full

    @given(small_corpora(), st.permutations(range(10)))
    @settings(max_examples=40)
    def test_relabeling_ids_never_changes_values(self, corpus, perm):
        relabeled = validate_corpus(
            [
                PaperRecord(f"q{perm[i % 10]}{i}", p.pub_year, p.citations)
                for i, p in enumerate(corpus.papers)
            ]
        )
        for y in (corpus.y0, corpus.y_end):
            for t in (0, 2, 40):
                assert timed_h(corpus, y, t, True) == timed_h(relabeled, y, t, True)


class TestEvolutionTable:
    def test_toy_grid(self, toy_corpus):
        table = evolution_table(toy_corpus, [0, 1], 2000, 2001)
        assert table.value(0, 2000).h == 1
        assert table.value(1, 2000).h == 1
        assert table.value(0, 2001).h == 1
        assert table.value(1, 2001).h == 2

    def test_all_column_ends_at_classic_h(self, toy_corpus):
        table = evolution_table(toy_corpus, [ALL])
        classic = windowed_h(
            toy_corpus, YearWindow.through(2005), YearWindow.through(2005)
        )
        assert table.value(ALL, 2005) == classic

    def test_t_values_sorted_all_last(self, toy_corpus):
        table = evolution_table(toy_corpus, [5, ALL, 2, 5])
        assert table.t_values == (2, 5, ALL)
        assert repr(table.t_values) == "(2, 5, ALL)"

    def test_years_default_to_corpus_span(self, toy_corpus):
        table = evolution_table(toy_corpus, [2])
        assert table.years == range(2000, 2006)

    def test_invalid_ranges(self, toy_corpus):
        with pytest.raises(InvalidRangeError):
            evolution_table(toy_corpus, [], 2000, 2001)
        with pytest.raises(InvalidRangeError):
            evolution_table(toy_corpus, [2], 2002, 2001)
        with pytest.raises(InvalidRangeError):
            evolution_table(toy_corpus, [-1], 2000, 2001)

    @pytest.mark.parametrize("y_from, y_to", [(999, 2001), (2000, 10000)])
    def test_years_outside_bounds_rejected(self, toy_corpus, y_from, y_to):
        with pytest.raises(InvalidRangeError):
            evolution_table(toy_corpus, [2], y_from, y_to)
        with pytest.raises(InvalidRangeError):
            evolution_output(toy_corpus, [2], y_from, y_to)

    @given(small_corpora())
    @settings(max_examples=40)
    def test_rows_never_cross(self, corpus):
        table = evolution_table(corpus, [0, 1, 3, 7, ALL], interpolated=True)
        for j in range(len(table.years)):
            column = [row[j] for row in table.values]
            for a, b in zip(column, column[1:]):
                assert a.h <= b.h
                assert a.h_interp <= b.h_interp


class TestDistinctCells:
    """A grid reads each distinct cell once: windows that map to the same
    (first, last, lo, hi) of the count cache share one evaluation."""

    @staticmethod
    @contextmanager
    def rows_read():
        """A tally of the rows the kernel reads: one per cell read alone and
        one per row of a multi-cell chunk."""
        tally = Counter()
        cell_values, chunk_counts = indices._cell_values, model._DenseCounts._chunk_counts

        def one_cell(dense, cell):
            tally["rows"] += 1
            return cell_values(dense, cell)

        def chunk(dense, cells, first, last):
            block = chunk_counts(dense, cells, first, last)
            tally["rows"] += block.shape[0]
            return block

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(indices, "_cell_values", one_cell)
            patch.setattr(model._DenseCounts, "_chunk_counts", chunk)
            yield tally

    @staticmethod
    def grid_cells(corpus, t_values, y_from=None, y_to=None) -> list:
        windows = indices._evolution_windows(corpus, t_values, y_from, y_to)[2]
        return [corpus._dense.slices(*window) for window in windows]

    @classmethod
    def assert_reads_distinct_cells(cls, corpus, t_values, y_from=None, y_to=None):
        """Both grid entry points read each distinct cell exactly once; the
        number of distinct cells is returned."""
        distinct = len(set(cls.grid_cells(corpus, t_values, y_from, y_to)))
        for interpolated in (False, True):
            for grid in (evolution_table, evolution_output):
                with cls.rows_read() as tally:
                    grid(corpus, t_values, y_from, y_to, interpolated)
                assert tally["rows"] == distinct
        return distinct

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 50]))
    @settings(max_examples=20, deadline=None)
    def test_random_grids_read_each_distinct_cell_once(self, seed, max_count):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, max_papers=80, max_career=15, max_count=max_count)
        span = corpus.y_end - corpus.y0
        self.assert_reads_distinct_cells(corpus, [0, 1, 3, span, 2 * span + 1, ALL])
        self.assert_reads_distinct_cells(corpus, [0, 2, 7, ALL], corpus.y0 - 3, corpus.y_end + 3)

    def test_saturated_lengths_cost_nothing(self):
        # Papers, and citations to them, in every year of 1980..2019.
        corpus = validate_corpus(
            [
                PaperRecord(f"p{pub}-{k}", pub, {year: (year + k) % 4 + 1 for year in range(pub, 2020)})
                for pub in range(1980, 2020)
                for k in range(3)
            ]
        )
        t_values = list(range(40)) + [ALL]
        assert (corpus.y0, corpus.y_end) == (1980, 2019)
        assert len(self.grid_cells(corpus, t_values)) == 1640
        # Year y has y - y0 unsaturated lengths and one cell for all the rest.
        assert self.assert_reads_distinct_cells(corpus, t_values) == 820


def brute_force_value(counts) -> IndexValue:
    """h and its interpolation (c(h) + h·d) / (1 + d), d = c(h) - c(h + 1),
    read from the sorted counts."""
    ordered = sorted(counts, reverse=True) + [0]
    h = brute_force_h(counts)
    if h == 0:
        return IndexValue(0, Fraction(0))
    d = ordered[h - 1] - ordered[h]
    return IndexValue(h, Fraction(ordered[h - 1] + h * d, 1 + d))


class TestCountCacheDtype:
    """The count cache takes the narrowest of int16, int32 and int64 that
    holds every paper's total."""

    @staticmethod
    def corpus(top: int):
        # ``near`` totals the largest value of the dtype below the one ``top`` needs.
        half = 2**14 if top <= 2**15 else 2**30
        return validate_corpus(
            [
                PaperRecord("big", 2000, {2000: half, 2001: top - half}),
                PaperRecord("near", 2001, {2001: half, 2003: half - 1}),
                PaperRecord("b", 2000, {2001: 3, 2003: 2}),
                PaperRecord("c", 2001, {2002: 4}),
                PaperRecord("d", 2002, {2002: 1, 2004: 2}),
            ]
        )

    @staticmethod
    def window_counts(corpus, pub, cite):
        return [
            sum(count for year, count in p.citations if year in cite)
            for p in corpus.papers
            if p.pub_year in pub
        ]

    @pytest.mark.parametrize(
        "top, dtype",
        [(2**15 - 1, np.int16), (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)],
        ids=["int16", "int32-above-int16", "int32", "int64"],
    )
    def test_matches_brute_force_on_both_sides(self, top, dtype):
        corpus = self.corpus(top)
        pubs = [YearWindow.through(2004), YearWindow(2000, 2000), YearWindow(2001, 2003)]
        cites = pubs + [YearWindow(2001, 2001), YearWindow(2002, 2004), YearWindow.through(2000)]
        for pub in pubs:
            for cite in cites:
                counts = self.window_counts(corpus, pub, cite)
                expected = brute_force_value(counts)
                assert windowed_h(corpus, pub, cite) == IndexValue(expected.h)
                assert windowed_h(corpus, pub, cite, interpolated=True) == expected
                ranked = rank_citations(corpus, pub, cite).values
                assert ranked == tuple(sorted(counts, reverse=True))
                assert all(type(value) is int for value in ranked)
        for y in range(2000, 2005):
            for t in range(5):
                window = YearWindow(y - t, y)
                expected = brute_force_value(self.window_counts(corpus, window, window))
                assert timed_h(corpus, y, t, interpolated=True) == expected
        table = evolution_table(corpus, [0, 1, 2, ALL], interpolated=True)
        for t, row in zip(table.t_values, table.values):
            for y, value in zip(table.years, row):
                window = YearWindow(corpus.y0 if t is ALL else y - t, y)
                assert value == brute_force_value(self.window_counts(corpus, window, window))
        assert corpus._dense.prefix.dtype == dtype


class TestYearIndex:
    """The count cache finds a publication window's columns through the
    first column of each distinct publication year."""

    @staticmethod
    def reference_slices(corpus, pub_start, pub_end, cite_start, cite_end):
        """(first, last, lo, hi) by bisection over the sorted per-paper
        publication years and the sorted distinct citation years."""
        pub = sorted(corpus._pub_year.tolist())
        years = sorted(set(corpus._years.tolist()))
        return (
            0 if pub_start is None else bisect_left(pub, pub_start),
            bisect_right(pub, pub_end),
            0 if cite_start is None else bisect_left(years, cite_start),
            bisect_right(years, cite_end),
        )

    @given(
        st.one_of(st.just(None), small_corpora(max_papers=12)),
        st.lists(st.tuples(st.integers(-3, 14), st.integers(-3, 14)), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_slices_match_reference_bisection(self, corpus, offsets):
        # Offsets from y0 - 3 to past y_end: windows before, after and
        # between publication years, and of one year.
        corpus = corpus or validate_corpus([])
        base = 2000 if corpus.is_empty else corpus.y0
        dense = corpus._dense
        assert len(dense.starts) == len(dense.pub_years) + 1 and dense.starts[-1] == len(corpus)
        for a, b in offsets:
            start, end = base + min(a, b), base + max(a, b)
            for pub_start, cite_start in ((start, start), (None, start), (start, None), (None, None)):
                window = (pub_start, end, cite_start, end + b % 3)
                assert dense.slices(*window) == self.reference_slices(corpus, *window)

    def test_empty_corpus_has_one_start(self):
        dense = validate_corpus([])._dense
        assert (dense.pub_years, dense.starts) == ([], [0])
        assert dense.slices(None, 2000, None, 2000) == dense.slices(1990, 2010, 1990, 2010) == (0, 0, 0, 0)


class TestTopBlock:
    """Wide one-cell windows try the cache's top block before the whole slice.

    The block's size is shrunk to a few papers, so that small corpora of
    more than four times as many papers build it.  Every value is checked
    against the brute-force oracle and against the block-free path:
    :func:`rank_citations` sorts the whole slice, and its ranked counts
    give h and the interpolation.
    """

    @staticmethod
    @contextmanager
    def shrunk(size):
        """The top block at ``size`` papers, and one-cell chunks for every
        grid cell; yields a tally of the cells that the block settled and
        of those it handed to the whole slice.

        A cell read on a corpus with a block counts as "whole" when
        ``_cell_row`` sorts its whole slice (``_DenseCounts._cell_counts``),
        and as "settled" otherwise, whatever its width.  A single query's
        cells count as "settled" and "whole", and the cells of
        ``_window_rows`` (the grid's path) as "grid settled" and "grid
        whole", so neither path can hide that the other stopped reaching
        the block.
        """
        tally = Counter()
        cell_row, window_rows = indices._cell_row, indices._window_rows
        cell_counts = model._DenseCounts._cell_counts
        in_grid = whole = False

        def sorted_whole(dense, *cell):
            nonlocal whole
            whole = True
            return cell_counts(dense, *cell)

        def counted(dense, cell):
            nonlocal whole
            whole = False
            row, h = cell_row(dense, cell)
            if dense._top is not None:
                kind = "whole" if whole else "settled"
                tally["grid " + kind if in_grid else kind] += 1
            return row, h

        def grid_rows(corpus, windows):
            nonlocal in_grid
            in_grid = True
            try:
                return window_rows(corpus, windows)
            finally:
                in_grid = False

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_TOP_COLUMNS", size)
            patch.setattr(indices, "_CHUNK_ELEMENTS", 0)
            patch.setattr(indices, "_cell_row", counted)
            patch.setattr(model._DenseCounts, "_cell_counts", sorted_whole)
            patch.setattr(indices, "_window_rows", grid_rows)
            yield tally

    @staticmethod
    def expect(corpus, oracle, pub, cite, value, interpolated):
        """``value`` equals the block-free path's, and its h the oracle's."""
        ranked = rank_citations(corpus, pub, cite)
        h = h_from_ranked(ranked)
        assert value == IndexValue(h, interpolate_h(ranked, h) if interpolated else None)
        assert h == oracle.h(pub, cite)

    @classmethod
    def check(cls, corpus, rng, windows=20):
        """Every query kind on ``corpus`` equals the oracle and the block-free path."""
        expect = partial(cls.expect, corpus, Oracle(corpus))
        for _ in range(windows):
            pub, cite = random_window(rng, corpus), random_window(rng, corpus)
            for interpolated in (False, True):
                expect(pub, cite, windowed_h(corpus, pub, cite, interpolated), interpolated)
        for y in range(corpus.y0 - 1, corpus.y_end + 2):
            for t in (0, 3, 50):
                window = YearWindow(y - t, y)
                expect(window, window, timed_h(corpus, y, t, interpolated=True), True)
            value = h5_index(corpus, y, interpolated=True)
            expect(YearWindow.through(y), YearWindow(y - 5, y), value, True)
        for interpolated in (False, True):
            table = evolution_table(corpus, [0, 2, 7, ALL], interpolated=interpolated)
            for t, row in zip(table.t_values, table.values):
                for y, value in zip(table.years, row):
                    window = YearWindow(corpus.y0 if t is ALL else y - t, y)
                    expect(window, window, value, interpolated)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.sampled_from([1, 3, 50]))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle_and_block_free_path(self, seed, size, max_count):
        rng = np.random.default_rng(seed)
        with self.shrunk(size):
            corpus = random_corpus(rng, max_papers=80, max_career=15, max_count=max_count)
            self.check(corpus, rng)

    def test_settles_some_cells_and_hands_on_others(self):
        rng = np.random.default_rng(1620)
        with self.shrunk(4) as tally:
            for max_count in (1, 2, 3, 50):
                for _ in range(3):
                    corpus = random_corpus(rng, max_papers=80, max_career=15, max_count=max_count)
                    self.check(corpus, rng)
        # Single queries and the grid each reach the block on their own.
        assert tally["settled"] > 0 and tally["grid settled"] > 0
        assert tally["whole"] > 0 and tally["grid whole"] > 0

    @staticmethod
    def check_agreement(corpus, rng, windows=30):
        """A single query equals the grid's path on the same window, and
        every evolution cell equals :func:`timed_h` at its (y, t)."""
        y0, y_end = corpus.y0, corpus.y_end
        fixed = [
            (YearWindow.through(y_end), YearWindow.through(y_end)),  # the whole slice
            (YearWindow(y0 - 5, y0 - 1), YearWindow.through(y_end)),  # no paper
            (YearWindow.through(y_end), YearWindow(y0 - 5, y0 - 1)),  # no citation year
            (YearWindow(y_end, y_end), YearWindow(y_end, y_end)),  # one year
        ]
        randoms = [(random_window(rng, corpus), random_window(rng, corpus)) for _ in range(windows)]
        for pub, cite in fixed + randoms:
            window = (pub.start, pub.end, cite.start, cite.end)
            for interpolated in (False, True):
                grid = indices._index_values(indices._window_rows(corpus, [window])[0], interpolated)[0]
                assert windowed_h(corpus, pub, cite, interpolated) == grid
        for interpolated in (False, True):
            table = evolution_table(corpus, [0, 1, 3, 8, ALL], y0 - 2, y_end + 2, interpolated)
            for t, row in zip(table.t_values, table.values):
                for y, value in zip(table.years, row):
                    length = max(y - y0, 0) if t is ALL else t
                    assert value == timed_h(corpus, y, length, interpolated)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 50]))
    @settings(max_examples=15, deadline=None)
    def test_single_queries_agree_with_the_grid(self, seed, max_count):
        # Without the shrunk block, small corpora build none, and the grid
        # runs its cells in multi-cell chunks.
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, max_papers=80, max_career=15, max_count=max_count)
        self.check_agreement(corpus, rng)

    def test_single_queries_agree_with_the_grid_through_the_block(self):
        rng = np.random.default_rng(1621)
        with self.shrunk(4) as tally:
            for max_count in (1, 3, 50):
                for _ in range(3):
                    corpus = random_corpus(rng, max_papers=80, max_career=15, max_count=max_count)
                    self.check_agreement(corpus, rng)
        assert tally["settled"] > 0 and tally["grid settled"] > 0
        assert tally["whole"] > 0 and tally["grid whole"] > 0

    @staticmethod
    def check_saturation(corpus):
        """Every length t >= y - y0 repeats year y's ``ALL`` cell (the
        paper's inertia: nothing is published or cited before y0), and
        every cell, in the table and rendered, equals :func:`timed_h`."""
        y0, y_end = corpus.y0, corpus.y_end
        lengths = list(range(2 * (y_end - y0 + 1) + 1))
        for interpolated in (False, True):
            table = evolution_table(corpus, lengths + [ALL], y0 - 2, y_end + 2, interpolated)
            rows = evolution_output(corpus, lengths + [ALL], y0 - 2, y_end + 2, interpolated).rows
            for y, row in zip(table.years, rows):
                saturated = table.value(ALL, y)
                for t, rendered in zip(lengths, row[1:]):
                    value = table.value(t, y)
                    if t >= y - y0:
                        assert value == saturated
                    assert value == timed_h(corpus, y, t, interpolated)
                    assert rendered == (format_fixed(value.h_interp, 4) if interpolated else str(value.h))

    @given(small_corpora(max_papers=30), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_saturated_lengths_repeat_the_all_cell(self, corpus, size):
        self.check_saturation(corpus)
        with self.shrunk(size):
            self.check_saturation(corpus)

    def test_saturated_lengths_repeat_the_all_cell_through_the_block(self):
        rng = np.random.default_rng(1622)
        with self.shrunk(4) as tally:
            for max_count in (1, 3, 50):
                corpus = random_corpus(rng, max_papers=80, max_career=15, max_count=max_count)
                self.check_saturation(corpus)
        assert tally["grid settled"] > 0 and tally["grid whole"] > 0

    @pytest.mark.parametrize("papers, has_block", [(16, False), (17, True)])
    def test_built_only_above_four_times_its_size(self, papers, has_block):
        corpus = validate_corpus(
            [PaperRecord(f"p{i:02d}", 2000 + i % 5, {2010: i + 1}) for i in range(papers)]
        )
        with self.shrunk(4):
            top = corpus._dense._top
        assert (top is not None) == has_block
        if has_block:
            # The four largest totals, 14..17, in publication-year order; 13 is the next.
            block, block_starts, upto, within, year_upto, year_within = top
            assert block[-1].tolist() == [16, 17, 14, 15]
            columns = np.flatnonzero(corpus._dense.prefix[-1] >= 14)
            assert block.tolist() == corpus._dense.prefix[:, columns].tolist()
            # Row-major, so a cell reads two contiguous rows of it.
            assert block.flags.c_contiguous
            assert block.dtype == corpus._dense.prefix.dtype == year_upto.dtype == np.int16
            # Years 2000..2004 hold 4, 4, 3, 3 and 3 papers, and every year
            # but 2002 one block paper.
            assert corpus._dense.starts == [0, 4, 8, 11, 14, 17]
            assert block_starts == [0, 1, 2, 2, 3, 4]
            assert upto == within == [0, 13]
            # Outside the block: 1, 6, 11 in 2000; 2, 7, 12; 3, 8, 13; 4, 9; 5, 10.
            assert year_upto.tolist() == year_within.tolist() == [[0] * 5, [11, 12, 13, 9, 10]]
            assert year_within.dtype == np.int64

    def test_bounds_per_prefix_row(self):
        # Outside the block of h1 and h2: a has 2 and then 7 citations, b 3
        # and then 4, c one a year, and d 8 in the last year.
        corpus = validate_corpus(
            [
                PaperRecord("a", 2000, {2001: 2, 2003: 7}),
                PaperRecord("b", 2001, {2002: 3, 2003: 4}),
                PaperRecord("c", 2000, {2001: 1, 2002: 1, 2003: 1}),
                PaperRecord("d", 2002, {2003: 8}),
                PaperRecord("h1", 2000, {2001: 50, 2002: 50, 2003: 50}),
                PaperRecord("h2", 2001, {2003: 120}),
            ]
            + [PaperRecord(paper_id, 2001) for paper_id in "efg"]
        )
        with self.shrunk(2):
            dense = corpus._dense
            block, block_starts, upto, within, year_upto, year_within = dense._top
            # Columns: a, c, h1 (2000), b, e, f, g, h2 (2001), d (2002); the
            # block holds columns 2 and 7.
            assert dense.pub_years == [2000, 2001, 2002]
            assert dense.starts == [0, 3, 8, 9]
            assert block_starts == [0, 1, 2, 2]
            assert block.tolist() == [[0, 0], [50, 0], [100, 0], [150, 120]]
            assert upto == [0, 2, 3, 9]
            assert within == [0, 2, 5, 13]
            # Per publication year (2000: a and c; 2001: b, e, f and g; 2002:
            # d), the most in each prefix row and the running sum of the
            # largest rise: a and c rise by 2, 1, 7; b by 0, 3, 4; d by 0, 0, 8.
            assert year_upto.tolist() == [[0, 0, 0], [2, 0, 0], [2, 3, 0], [9, 7, 8]]
            assert year_within.tolist() == [[0, 0, 0], [2, 0, 0], [3, 3, 0], [10, 7, 8]]
            # 2001..2002: upto is the tighter bound; 2003 alone: within is.
            row, bound = dense._top_counts(*dense.slices(None, 2003, 2001, 2002))
            assert (row.tolist(), bound) == ([100, 0], 3)
            row, bound = dense._top_counts(*dense.slices(None, 2003, 2003, 2003))
            assert (row.tolist(), bound) == ([120, 50], 8)
            # Per year: papers of 2001 add at most 4 in 2003, those of 2000 at
            # most 2 by 2002, and no paper of 2001 or later has a citation by 2001.
            assert dense._year_bound(*dense.slices(None, 2003, 2003, 2003)) == 8
            assert dense._year_bound(*dense.slices(2001, 2001, 2003, 2003)) == 4
            assert dense._year_bound(*dense.slices(2000, 2000, 2001, 2002)) == 2
            assert dense._year_bound(*dense.slices(2001, 2003, None, 2001)) == 0
            # No publication year in the window: the bound is 0.
            assert dense._year_bound(*dense.slices(2003, 2005, 2001, 2003)) == 0
            self.check(corpus, np.random.default_rng(5))

    @staticmethod
    def old_and_light(light, big):
        """Four block papers with 5, 5, 3 and 2 citations in 2011; outside
        the block, an old paper with nearly their lifetime totals, all
        before 2011, and thirteen papers with ``light`` citations in 2011."""
        top = [
            PaperRecord(f"top{k}", 1999, {1999: big, 2000: big, 2011: count})
            for k, count in enumerate((5, 5, 3, 2))
        ]
        old = PaperRecord("old", 1999, {1999: big, 2000: big - 1})
        lights = [PaperRecord(f"light{i:02d}", 2000 + i % 5, {2011: light}) for i in range(13)]
        return validate_corpus(top + [old] + lights)

    @pytest.mark.parametrize(
        "big, dtype",
        [(90, np.int16), (2**14, np.int32), (2**31 - 1, np.int64)],
        ids=["int16", "int32", "int64"],
    )
    @pytest.mark.parametrize("light, settles", [(1, True), (2, True), (3, False)])
    def test_window_bound_settles_what_the_lifetime_bound_hands_on(self, light, settles, big, dtype):
        # light == 2: the block's 4th entry equals the window bound exactly.
        corpus = self.old_and_light(light, big)
        pub, cite = YearWindow.through(2011), YearWindow(2011, 2011)
        with self.shrunk(4) as tally:
            value = windowed_h(corpus, pub, cite, interpolated=True)
            dense = corpus._dense
            row, bound = dense._top_counts(*dense.slices(None, 2011, 2011, 2011))
            upto = dense._top[2]
        assert dense.prefix.dtype == dtype
        assert dense._top[0].dtype == dtype and dense._top[0].flags.c_contiguous
        assert (row.tolist(), bound) == ([5, 5, 3, 2], light)
        # The old paper's lifetime total would hand the cell on.
        assert row.item(3) < upto[-1] == 2 * big - 1
        assert tally == (Counter(settled=1) if settles else Counter(whole=1))
        self.expect(corpus, Oracle(corpus), pub, cite, value, True)
        assert value.h == 3

    def test_year_bound_settles_what_the_window_bound_hands_on(self):
        # Outside the block of four 2005 papers: an old paper of 1999 with 50
        # citations in 2011, below every block paper's total, and thirteen
        # papers of 2005..2009 with one citation each in 2011.
        top = [PaperRecord(f"top{k}", 2005, {2005: 100, 2011: count}) for k, count in enumerate((5, 5, 3, 2))]
        old = PaperRecord("old", 1999, {2011: 50})
        lights = [PaperRecord(f"light{i:02d}", 2005 + i % 5, {2011: 1}) for i in range(13)]
        corpus = validate_corpus(top + [old] + lights)
        oracle, cite = Oracle(corpus), YearWindow(2011, 2011)
        for pub, bounds, kind, interp in (
            (YearWindow(2005, 2011), (50, 1), "settled", Fraction(3)),  # the old paper's year lies outside
            (YearWindow.through(2011), (50, 50), "whole", Fraction(11, 3)),  # c(3) = 5, c(4) = 3
        ):
            with self.shrunk(4) as tally:
                value = windowed_h(corpus, pub, cite, interpolated=True)
                dense = corpus._dense
                cell = dense.slices(pub.start, pub.end, cite.start, cite.end)
                row, bound = dense._top_counts(*cell)
                assert (bound, dense._year_bound(*cell)) == bounds
            assert row.tolist() == [5, 5, 3, 2]
            assert tally == Counter({kind: 1})
            self.expect(corpus, oracle, pub, cite, value, True)
            assert value == IndexValue(3, interp)

    @staticmethod
    def largest_outside(dense, cell) -> int:
        """The largest window count in ``cell`` of a paper outside the
        block: the largest of the slice's counts less the block's, as
        multisets."""
        first, last, lo, hi = cell
        whole = Counter((dense.prefix[hi, first:last] - dense.prefix[lo, first:last]).tolist())
        return max(whole - Counter(dense._top_counts(*cell)[0].tolist()), default=0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([1, 3, 50]))
    @settings(max_examples=30, deadline=None)
    def test_year_bound_lies_between_the_outside_counts_and_the_window_bound(self, seed, size, max_count):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, max_papers=80, max_career=15, max_count=max_count)
        oracle = Oracle(corpus)
        windows = [(random_window(rng, corpus), random_window(rng, corpus)) for _ in range(20)]
        # Inside ``shrunk`` the corpus may build a block; outside it, a fresh
        # copy of it builds none.
        for shrink, copy in ((self.shrunk(size), corpus), (nullcontext(), validate_corpus(corpus.papers))):
            with shrink:
                dense = copy._dense
                for pub, cite in windows:
                    if dense._top is not None:
                        cell = dense.slices(pub.start, pub.end, cite.start, cite.end)
                        bound = dense._top_counts(*cell)[1]
                        assert self.largest_outside(dense, cell) <= dense._year_bound(*cell) <= bound
                    assert windowed_h(copy, pub, cite).h == oracle.h(pub, cite)

    @pytest.mark.parametrize(
        "cite, rows",
        [(YearWindow(2005, 2008), 2), (YearWindow(1990, 1995), 0)],
        ids=["between-citation-years", "before-every-citation-year"],
    )
    def test_window_without_citation_years_settles_at_zero(self, cite, rows):
        corpus = self.old_and_light(1, 90)
        pub = YearWindow.through(2011)
        with self.shrunk(4) as tally:
            value = windowed_h(corpus, pub, cite, interpolated=True)
            dense = corpus._dense
            first, last, lo, hi = dense.slices(None, 2011, cite.start, cite.end)
            assert lo == hi == rows
            row, bound = dense._top_counts(first, last, lo, hi)
        assert (row.tolist(), bound) == ([0, 0, 0, 0], 0)
        assert tally == Counter(settled=1)
        assert value == IndexValue(0, Fraction(0))
        self.expect(corpus, Oracle(corpus), pub, cite, value, True)

    def test_bound_zero_settles_every_wide_cell(self):
        # Three cited papers among twenty: every paper outside the block has 0.
        cited = {"a": {2001: 5, 2004: 2}, "b": {2002: 1}, "c": {2003: 4, 2005: 4}}
        corpus = validate_corpus(
            [PaperRecord(f"u{i:02d}", 2000 + i % 3) for i in range(17)]
            + [PaperRecord(paper_id, 2001, citations) for paper_id, citations in cited.items()]
        )
        with self.shrunk(4) as tally:
            assert corpus._dense._top[2:4] == ([0] * 6, [0] * 6)
            assert not corpus._dense._top[4].any() and not corpus._dense._top[5].any()
            self.check(corpus, np.random.default_rng(7))
            # Six uncited papers each, so the block part is empty; the first
            # window ends just before the block's first column.
            for pub in (YearWindow(1999, 2000), YearWindow(2002, 2005)):
                value = windowed_h(corpus, pub, YearWindow.through(2005), interpolated=True)
                assert value == IndexValue(0, Fraction(0))
        assert tally["settled"] > 0 and tally["grid settled"] > 0
        assert tally["whole"] == tally["grid whole"] == 0

    def test_window_without_block_columns_sorts_the_whole_slice(self):
        # The two heavy papers of 2010 form the block; 2000..2004 holds none of it.
        corpus = validate_corpus(
            [PaperRecord(f"light{i}", 2000 + i % 5, {2005: i % 4 + 1, 2006: 1}) for i in range(10)]
            + [PaperRecord(f"heavy{i}", 2010, {2010: 100 + i}) for i in range(2)]
        )
        with self.shrunk(2) as tally:
            window = YearWindow(2000, 2004)
            value = windowed_h(corpus, window, YearWindow.through(2010), interpolated=True)
            assert corpus._dense._top[2][-1] == 5
        assert tally == Counter(whole=1)
        assert value == IndexValue(4, Fraction(4))

    def test_int64_cache(self):
        big = 2**31 - 1
        papers = [
            PaperRecord("huge", 2000, {2000: big, 2003: big}),
            PaperRecord("a", 2001, {2002: 6, 2004: 4}),
            PaperRecord("b", 2002, {2003: 10}),
            PaperRecord("c", 2003, {2005: 2}),
        ]
        papers += [PaperRecord(f"p{i:02d}", 2000 + i % 4, {2004 + i % 2: 1}) for i in range(18)]
        corpus = validate_corpus(papers)
        with self.shrunk(4) as tally:
            self.check(corpus, np.random.default_rng(11))
            block = corpus._dense._top[0]
        assert block.dtype == np.int64 and block.flags.c_contiguous
        assert block[-1].max() == 2 * big
        assert tally["settled"] > 0 and tally["whole"] > 0
        assert tally["grid settled"] > 0 and tally["grid whole"] > 0


class TestH5Index:
    def test_default_span(self, toy_corpus):
        assert h5_index(toy_corpus, 2005).h == 2

    def test_zero_span(self, toy_corpus):
        assert h5_index(toy_corpus, 2005, span=0).h == 1
        with pytest.raises(InvalidRangeError, match="span must be non-negative"):
            h5_index(toy_corpus, 2005, span=-1)

    def test_no_papers_yet(self, toy_corpus):
        assert h5_index(toy_corpus, 1995).h == 0

    def test_counts_old_papers_recent_citations(self, toy_corpus):
        # Publication window is unbounded: P1 (2000) is eligible at 2005
        # even though the citation window is [2000, 2005].
        expected = windowed_h(
            toy_corpus, YearWindow.through(2005), YearWindow(2000, 2005)
        )
        assert h5_index(toy_corpus, 2005, 5) == expected


class TestAuthorImpactFactor:
    def test_example(self, toy_corpus):
        aif = author_impact_factor(toy_corpus, 2002)
        assert (aif.numerator, aif.denominator) == (1, 2)
        assert aif.value == Fraction(1, 2)

    def test_example_whole_value(self, toy_corpus):
        assert author_impact_factor(toy_corpus, 2003).value == 1

    def test_no_papers_in_window(self, toy_corpus):
        with pytest.raises(NoPapersInWindowError):
            author_impact_factor(toy_corpus, 1999)
        with pytest.raises(ValueError):
            AifValue(1, 0)

    def test_focal_year_paper_not_counted(self, toy_corpus):
        # Window is [y - delta_t, y - 1]: P3 (2004) is outside at y=2004.
        aif = author_impact_factor(toy_corpus, 2004, delta_t=3)
        assert aif.denominator == 1  # P2 only
        assert aif.numerator == 0
        with pytest.raises(InvalidRangeError, match="must span >= 1 year"):
            author_impact_factor(toy_corpus, 2004, delta_t=0)


class TestContemporaryH:
    def test_example(self, toy_corpus):
        assert contemporary_h(toy_corpus, 2005, gamma=4, delta=1).h == 2

    def test_disabled_power_law_reduces_to_classic(self, toy_corpus):
        classic = windowed_h(
            toy_corpus, YearWindow.through(2005), YearWindow.through(2005)
        )
        assert contemporary_h(toy_corpus, 2005, gamma=1, delta=0).h == classic.h

    def test_all_zero_citations(self):
        corpus = validate_corpus([PaperRecord("A", 2000), PaperRecord("B", 2001)])
        assert contemporary_h(corpus, 2005).h == 0

    def test_future_papers_ignored(self, toy_corpus):
        assert contemporary_h(toy_corpus, 2003).h == contemporary_h(
            validate_corpus([p for p in toy_corpus.papers if p.pub_year <= 2003]), 2003
        ).h

    def test_scores_exact_for_integer_delta(self, toy_corpus):
        # gamma 4, delta 1 at 2005: scores 4, 12/5, 4 -> ranked (4, 4, 12/5).
        value = contemporary_h(toy_corpus, 2005, interpolated=True)
        assert value.h == 2
        # Line through (2, 4) and (3, 12/5): crossing at 14/5... checked exactly.
        assert value.h_interp == (Fraction(4) + 2 * (4 - Fraction(12, 5))) / (
            1 + 4 - Fraction(12, 5)
        )

    def test_non_exact_inputs_rejected(self, toy_corpus):
        for gamma, delta in ((4, Fraction(1, 2)), (4, 0.5), (-1, 1), (Fraction(-1, 2), 0)):
            with pytest.raises(InvalidRangeError):
                contemporary_h(toy_corpus, 2005, gamma=gamma, delta=delta)

    @pytest.mark.parametrize("delta, h", [(100, 0), (-100, 3)])
    def test_delta_bound_is_accepted(self, toy_corpus, delta, h):
        # Ages 6, 5 and 2 in 2005: every score is below 1 or above 3.
        assert contemporary_h(toy_corpus, 2005, delta=delta, interpolated=True).h == h

    @pytest.mark.parametrize("delta", [101, -101, 10**20])
    def test_delta_past_the_bound_rejected(self, toy_corpus, delta):
        with pytest.raises(InvalidRangeError, match="-100..100"):
            contemporary_h(toy_corpus, 2005, delta=delta, interpolated=True)

    @pytest.mark.parametrize("y", [999, 10000, 10**20, -(10**20)])
    def test_year_outside_bounds_rejected(self, toy_corpus, y):
        # Years beyond int64 used to escape as numpy's OverflowError.
        with pytest.raises(InvalidRangeError, match="1000..9999"):
            contemporary_h(toy_corpus, y, interpolated=True)

    @given(small_corpora(), st.integers(-2, 12))
    @settings(max_examples=80)
    def test_undiscounted_equals_career_window(self, corpus, y_offset):
        y = corpus.y0 + y_offset
        career = YearWindow.through(y)
        assert contemporary_h(
            corpus, y, gamma=1, delta=0, interpolated=True
        ) == windowed_h(corpus, career, career, interpolated=True)


class TestIndexValue:
    def test_interpolated_must_truncate_to_h(self):
        with pytest.raises(ValueError):
            IndexValue(2, Fraction(7, 2))
        with pytest.raises(ValueError):
            IndexValue(3, Fraction(5, 2))
        with pytest.raises(ValueError):
            IndexValue(2, 3.5)

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            IndexValue(-1)

    def test_integer_boundary_allowed(self):
        assert IndexValue(2, Fraction(2)).h_interp == 2

    def test_interpolation_becomes_a_fraction(self):
        value = IndexValue(2, 2.5).h_interp
        assert value == Fraction(5, 2)
        assert isinstance(value, Fraction)
