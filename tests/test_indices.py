"""Windowed h-index kernel and the named presets."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citewindow import (
    ALL,
    IndexValue,
    InvalidRangeError,
    NoPapersInWindowError,
    PaperRecord,
    RankedCitations,
    YearWindow,
    author_impact_factor,
    citations_in_window,
    contemporary_h,
    evolution_table,
    h5_index,
    h_from_ranked,
    interpolate_h,
    rank_citations,
    timed_h,
    validate_corpus,
    windowed_h,
)
from helpers import ranked_vectors, small_corpora


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
        corpus = validate_corpus([])
        assert windowed_h(corpus, YearWindow.through(2000), YearWindow.through(2000)).h == 0

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
        for pub, cite in windows:
            counts = [
                citations_in_window(p, cite) for p in corpus.papers if p.pub_year in pub
            ]
            assert windowed_h(corpus, pub, cite).h == brute_force_h(counts)


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

    @given(small_corpora())
    @settings(max_examples=40)
    def test_rows_never_cross(self, corpus):
        table = evolution_table(corpus, [0, 1, 3, 7, ALL], interpolated=True)
        for j in range(len(table.years)):
            column = [row[j] for row in table.values]
            for a, b in zip(column, column[1:]):
                assert a.h <= b.h
                assert a.h_interp <= b.h_interp


class TestH5Index:
    def test_default_span(self, toy_corpus):
        assert h5_index(toy_corpus, 2005).h == 2

    def test_zero_span(self, toy_corpus):
        assert h5_index(toy_corpus, 2005, span=0).h == 1

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

    def test_focal_year_paper_not_counted(self, toy_corpus):
        # Window is [y - delta_t, y - 1]: P3 (2004) is outside at y=2004.
        aif = author_impact_factor(toy_corpus, 2004, delta_t=3)
        assert aif.denominator == 1  # P2 only
        assert aif.numerator == 0


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

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            IndexValue(-1)

    def test_integer_boundary_allowed(self):
        assert IndexValue(2, Fraction(2)).h_interp == 2
