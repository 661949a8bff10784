"""Aging analytics: quantile windows, mass groups, group curves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citewindow import (
    EmptyCorpusError,
    PaperRecord,
    ZeroCitationsError,
    group_cumulative_curves,
    group_yearly_counts,
    partition_by_mass,
    quantile_windows,
    rank_papers_by_total,
    recently_cited_count,
    validate_corpus,
)
from helpers import small_corpora

QUARTILES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


class TestQuantileWindows:
    def test_example(self, toy_corpus):
        qw = quantile_windows(toy_corpus.by_id["P1"], QUARTILES, 2003)
        assert [qw.t_q[q] for q in QUARTILES] == [1, 1, 3, 3]
        assert qw.age == 3
        assert qw.total == 6

    def test_instant_saturation(self):
        paper = PaperRecord("P", 2000, {2000: 9})
        qw = quantile_windows(paper, QUARTILES, 2010)
        assert set(qw.t_q.values()) == {0}

    def test_zero_citations(self):
        with pytest.raises(ZeroCitationsError):
            quantile_windows(PaperRecord("P", 2000), QUARTILES, 2004)

    def test_quantile_out_of_range(self, toy_corpus):
        paper = toy_corpus.by_id["P1"]
        with pytest.raises(ValueError):
            quantile_windows(paper, [Fraction(0)], 2003)
        with pytest.raises(ValueError):
            quantile_windows(paper, [Fraction(11, 10)], 2003)

    def test_full_fraction_needs_whole_history(self, toy_corpus):
        qw = quantile_windows(toy_corpus.by_id["P1"], [Fraction(1)], 2003)
        assert qw.t_q[Fraction(1)] == 3

    def test_decimal_thresholds_are_exact(self):
        # 9 of 10 citations in year 0: t for 90% must be 0, which a binary
        # float 0.9 threshold would get wrong.
        paper = PaperRecord("P", 2000, {2000: 9, 2005: 1})
        qw = quantile_windows(paper, [0.9], 2005)
        assert qw.t_q[Fraction(9, 10)] == 0

    @given(small_corpora(), st.integers(0, 5))
    @settings(max_examples=80)
    def test_monotone_in_quantile(self, corpus, extra):
        ref_year = corpus.y_end + extra
        for paper in corpus.papers:
            if paper.total_citations(ref_year) == 0:
                continue
            qw = quantile_windows(paper, QUARTILES, ref_year)
            ts = [qw.t_q[q] for q in QUARTILES]
            assert ts == sorted(ts)
            assert all(0 <= t <= qw.age for t in ts)


class TestRecentlyCited:
    def test_example(self, toy_corpus):
        assert recently_cited_count(toy_corpus, k=2, min_citations=0) == (1, 3)

    def test_window_covering_career(self, toy_corpus):
        count, eligible = recently_cited_count(toy_corpus, k=10, min_citations=0)
        assert eligible == 3
        assert count == 3  # every toy paper has at least one citation

    def test_threshold_above_everything(self, toy_corpus):
        assert recently_cited_count(toy_corpus, k=2, min_citations=100) == (0, 0)

    def test_k_must_be_positive(self, toy_corpus):
        with pytest.raises(ValueError):
            recently_cited_count(toy_corpus, k=0, min_citations=0)


class TestPartitionByMass:
    def test_example(self, toy_corpus):
        partition = partition_by_mass(toy_corpus, Fraction(1, 2))
        assert [g.paper_ids for g in partition] == [("P1",), ("P2", "P3")]
        assert [g.mass for g in partition] == [6, 5]
        assert [(g.rank_from, g.rank_to) for g in partition] == [(1, 1), (2, 3)]

    def test_single_group(self, toy_corpus):
        partition = partition_by_mass(toy_corpus, 1)
        assert len(partition) == 1
        assert partition.groups[0].mass == 11

    def test_single_paper(self):
        corpus = validate_corpus([PaperRecord("P", 2000, {2001: 4})])
        partition = partition_by_mass(corpus, Fraction(15, 100))
        assert len(partition) == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            partition_by_mass(validate_corpus([]), Fraction(1, 2))

    def test_no_citations(self):
        corpus = validate_corpus([PaperRecord("P", 2000)])
        with pytest.raises(ZeroCitationsError):
            partition_by_mass(corpus, Fraction(1, 2))

    def test_fraction_bounds(self, toy_corpus):
        with pytest.raises(ValueError):
            partition_by_mass(toy_corpus, 0)
        with pytest.raises(ValueError):
            partition_by_mass(toy_corpus, Fraction(3, 2))

    def test_ties_break_by_id(self):
        corpus = validate_corpus(
            [
                PaperRecord("B", 2000, {2000: 3}),
                PaperRecord("A", 2000, {2000: 3}),
                PaperRecord("C", 2000, {2000: 2}),
            ]
        )
        ranked = rank_papers_by_total(corpus)
        assert [p.id for p, _ in ranked] == ["A", "B", "C"]
        partition = partition_by_mass(corpus, Fraction(3, 8))
        assert partition.groups[0].paper_ids == ("A",)

    def test_zero_cited_papers_end_up_in_last_group(self):
        corpus = validate_corpus(
            [PaperRecord("A", 2000, {2000: 8}), PaperRecord("B", 2001)]
        )
        partition = partition_by_mass(corpus, Fraction(1, 2))
        assert partition.groups[-1].paper_ids == ("B",)
        assert partition.groups[-1].mass == 0

    @given(small_corpora(), st.sampled_from([Fraction(1, 10), Fraction(15, 100), Fraction(1, 2)]))
    @settings(max_examples=100)
    def test_partition_invariants(self, corpus, fraction):
        if corpus.total_citations() == 0:
            return
        partition = partition_by_mass(corpus, fraction)
        ids = [pid for g in partition for pid in g.paper_ids]
        assert sorted(ids) == sorted(p.id for p in corpus.papers)
        assert sum(g.mass for g in partition) == corpus.total_citations()
        # Contiguous 1-based rank ranges.
        expected_start = 1
        for g in partition:
            assert g.rank_from == expected_start
            assert g.rank_to - g.rank_from + 1 == len(g.paper_ids)
            expected_start = g.rank_to + 1
        # Every group but the last reaches the target mass.
        threshold = fraction * corpus.total_citations()
        for g in partition.groups[:-1]:
            assert g.mass >= threshold
        # Concatenated ranking is non-increasing in totals.
        totals = [corpus.by_id[pid].total_citations(partition.ref_year) for pid in ids]
        assert totals == sorted(totals, reverse=True)


class TestGroupCurves:
    def test_cumulative_example(self, toy_corpus):
        partition = partition_by_mass(toy_corpus, Fraction(1, 2))
        curves = group_cumulative_curves(toy_corpus, partition)
        assert curves[1] == [Fraction(60), Fraction(100)]

    def test_cumulative_single_paper_group(self, toy_corpus):
        partition = partition_by_mass(toy_corpus, Fraction(1, 2), ref_year=2003)
        curves = group_cumulative_curves(toy_corpus, partition)
        assert curves[0] == [
            Fraction(100, 6),
            Fraction(400, 6),
            Fraction(400, 6),
            Fraction(100),
        ]

    def test_yearly_examples(self, toy_corpus):
        partition = partition_by_mass(toy_corpus, Fraction(1, 2))
        counts = group_yearly_counts(toy_corpus, partition)
        assert counts[1] == [3, 2]
        partition_2003 = partition_by_mass(toy_corpus, Fraction(1, 2), ref_year=2003)
        assert group_yearly_counts(toy_corpus, partition_2003)[0] == [1, 3, 0, 2]

    def test_interior_zero_year_kept(self):
        corpus = validate_corpus([PaperRecord("P", 2000, {2000: 1, 2003: 2})])
        partition = partition_by_mass(corpus, 1)
        assert group_yearly_counts(corpus, partition) == [[1, 0, 0, 2]]

    def test_trailing_quiet_years_not_reported(self):
        # Citations stop in 2001 but the reference year is 2010: the curve
        # ends at the last citation, already at 100%.
        corpus = validate_corpus([PaperRecord("P", 2000, {2001: 5})])
        partition = partition_by_mass(corpus, 1, ref_year=2010)
        assert group_cumulative_curves(corpus, partition) == [[Fraction(0), Fraction(100)]]
        assert group_yearly_counts(corpus, partition) == [[0, 5]]

    def test_zero_mass_group_has_empty_curves(self):
        corpus = validate_corpus(
            [PaperRecord("A", 2000, {2000: 8}), PaperRecord("B", 2001)]
        )
        partition = partition_by_mass(corpus, Fraction(1, 2))
        assert group_cumulative_curves(corpus, partition)[-1] == []
        assert group_yearly_counts(corpus, partition)[-1] == []

    @given(small_corpora(), st.sampled_from([Fraction(1, 10), Fraction(15, 100), Fraction(1, 2)]))
    @settings(max_examples=100)
    def test_conservation_and_saturation(self, corpus, fraction):
        if corpus.total_citations() == 0:
            return
        partition = partition_by_mass(corpus, fraction)
        yearly = group_yearly_counts(corpus, partition)
        cumulative = group_cumulative_curves(corpus, partition)
        for group, counts, curve in zip(partition, yearly, cumulative):
            assert sum(counts) == group.mass
            if group.mass:
                assert curve[-1] == Fraction(100)
                assert all(a <= b for a, b in zip(curve, curve[1:]))
                assert len(curve) == len(counts)

    @given(
        small_corpora(),
        st.sampled_from([Fraction(1, 10), Fraction(15, 100), Fraction(1, 2)]),
        st.integers(0, 12),
    )
    @settings(max_examples=100)
    def test_cumulative_matches_brute_force(self, corpus, fraction, ref_offset):
        ref_year = corpus.y0 + ref_offset
        if corpus.total_citations(ref_year) == 0:
            return
        partition = partition_by_mass(corpus, fraction, ref_year=ref_year)
        curves = group_cumulative_curves(corpus, partition)
        for group, curve in zip(partition, curves):
            members = [corpus.by_id[pid] for pid in group.paper_ids]
            cited = [
                (year - p.pub_year, count)
                for p in members
                for year, count in p.citations
                if year <= ref_year
            ]
            span = max((age for age, _ in cited), default=-1)
            expected = [
                Fraction(100 * sum(c for age, c in cited if age <= t), group.mass)
                for t in range(span + 1)
            ]
            assert curve == expected
