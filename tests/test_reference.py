"""Array passes against per-record brute force.

The aging table, the mass partition, the yearly group counts, the author
impact factor, the contemporary index and the evolution table run as
passes over the corpus store.  Each reference below is the plain
per-paper loop over ``PaperRecord`` views that those passes replace,
kept here so that every property compares the two on the same corpus.
The evolution and cumulative curve tables render from integers; they are
compared with ``format_fixed`` over the library's own Fraction values.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citewindow import (
    ALL,
    NoPapersInWindowError,
    PaperRecord,
    author_impact_factor,
    contemporary_h,
    evolution_table,
    group_cumulative_curves,
    group_yearly_counts,
    partition_by_mass,
    quantile_windows,
    validate_corpus,
)
from citewindow.indices import _CHUNK_ELEMENTS, _chunk_rows
from citewindow.rational import format_fixed
from citewindow.tables import aging_output, evolution_output, groups_output
from helpers import random_corpus, small_corpora

MAX_COUNT = 2**31 - 1
TOKEN_SETS = (
    ("25", "50", "75", "90"),
    ("33.3333333333", "100"),
    ("0.0000001", "66.6666666667", "99.9999999999"),
)
# Small counts, and counts near the bound, where q * total needs more than int64.
CORPORA = st.one_of(small_corpora(), small_corpora(max_count=MAX_COUNT))


def total(paper: PaperRecord, ref_year: int) -> int:
    return sum(count for year, count in paper.citations if year <= ref_year)


def ranked(corpus, ref_year):
    pairs = [(p, total(p, ref_year)) for p in corpus.papers]
    pairs.sort(key=lambda pair: (-pair[1], pair[0].id))
    return pairs


def first_window(paper: PaperRecord, q: Fraction, ref_year: int) -> int:
    paper_total = total(paper, ref_year)
    running = 0
    for t in range(ref_year - paper.pub_year + 1):
        running += sum(c for year, c in paper.citations if year == paper.pub_year + t)
        if running >= q * paper_total:
            return t
    raise AssertionError("q <= 1 is always reached")


def reference_aging_rows(corpus, min_citations, tokens, ref_year):
    quantiles = [Fraction(token) / 100 for token in tokens]
    rows = []
    for paper, paper_total in ranked(corpus, ref_year):
        if paper_total < min_citations or paper.pub_year > ref_year:
            continue
        if paper_total:
            t_cells = [str(first_window(paper, q, ref_year)) for q in quantiles]
        else:
            t_cells = [""] * len(quantiles)
        recent = any(ref_year - 1 <= year <= ref_year for year, _ in paper.citations)
        rows.append(
            (
                str(len(rows) + 1),
                paper.id,
                str(paper.pub_year),
                str(ref_year - paper.pub_year),
                str(paper_total),
                *t_cells,
                "1" if recent else "0",
            )
        )
    return tuple(rows)


def reference_partition(corpus, target, ref_year):
    pairs = ranked(corpus, ref_year)
    threshold = target * sum(t for _, t in pairs)
    groups, ids, mass, rank_from = [], [], 0, 1
    for rank, (paper, paper_total) in enumerate(pairs, start=1):
        ids.append(paper.id)
        mass += paper_total
        if mass >= threshold or rank == len(pairs):
            groups.append((len(groups) + 1, rank_from, rank, tuple(ids), mass))
            ids, mass, rank_from = [], 0, rank + 1
    return groups


def reference_yearly_counts(corpus, partition):
    result = []
    for group in partition.groups:
        counts = []
        for pid in group.paper_ids:
            paper = corpus.by_id[pid]
            for year, count in paper.citations:
                if year > partition.ref_year:
                    continue
                age = year - paper.pub_year
                counts += [0] * (age + 1 - len(counts))
                counts[age] += count
        result.append(counts)
    return result


def reference_h(scores):
    """h and its interpolation, from the scores in any order."""
    scores = sorted(scores, reverse=True)
    h = 0
    while h < len(scores) and scores[h] >= h + 1:
        h += 1
    if h == 0:
        return 0, Fraction(0)
    c_h = Fraction(scores[h - 1])
    c_h1 = Fraction(scores[h]) if h < len(scores) else Fraction(0)
    return h, (c_h + h * (c_h - c_h1)) / (1 + c_h - c_h1)


def reference_contemporary(corpus, y, gamma, delta):
    return reference_h(
        Fraction(gamma) * Fraction(y - p.pub_year + 1) ** -delta * total(p, y)
        for p in corpus.papers
        if p.pub_year <= y
    )


def reference_evolution_cell(corpus, t, y):
    """Papers published in [y - t, y] with their citations in that span; the
    ALL column takes every paper published by y with its citations up to y."""
    start = None if t is ALL else y - t
    return reference_h(
        sum(c for year, c in p.citations if (start is None or start <= year) and year <= y)
        for p in corpus.papers
        if (start is None or start <= p.pub_year) and p.pub_year <= y
    )


class TestAgingOutput:
    @given(CORPORA, st.sampled_from(TOKEN_SETS), st.integers(0, 30), st.integers(-3, 12))
    @example(
        validate_corpus(
            [PaperRecord("big", 2000, {2000 + t: MAX_COUNT for t in range(6)})]
        ),
        ("33.3333333333",),
        0,
        5,
    )
    @settings(max_examples=120)
    def test_rows_match_per_record_loop(self, corpus, tokens, min_citations, ref_offset):
        ref_year = corpus.y0 + ref_offset
        table = aging_output(corpus, min_citations, tokens, ref_year)
        assert table.rows == reference_aging_rows(corpus, min_citations, tokens, ref_year)

    @given(CORPORA, st.sampled_from(TOKEN_SETS), st.integers(0, 12))
    @settings(max_examples=60)
    def test_per_record_windows_match_per_record_loop(self, corpus, tokens, ref_offset):
        ref_year = corpus.y_end + ref_offset
        quantiles = [Fraction(token) / 100 for token in tokens]
        for paper in corpus.papers:
            if total(paper, ref_year):
                windows = quantile_windows(paper, quantiles, ref_year)
                assert windows.t_q == {q: first_window(paper, q, ref_year) for q in quantiles}


class TestGroups:
    @given(
        CORPORA,
        st.sampled_from([Fraction(1, 100), Fraction(1, 10), Fraction(15, 100), Fraction(1, 3), 1]),
        st.integers(0, 12),
    )
    @settings(max_examples=120)
    def test_partition_and_yearly_counts_match_per_record_loop(self, corpus, target, ref_offset):
        ref_year = corpus.y0 + ref_offset
        if not any(total(p, ref_year) for p in corpus.papers):
            return
        partition = partition_by_mass(corpus, target, ref_year)
        got = [(g.index, g.rank_from, g.rank_to, g.paper_ids, g.mass) for g in partition]
        assert got == reference_partition(corpus, Fraction(target), ref_year)
        assert group_yearly_counts(corpus, partition) == reference_yearly_counts(corpus, partition)

    @given(
        CORPORA,
        st.sampled_from([Fraction(1, 100), Fraction(15, 100), Fraction(1, 3), 1]),
        st.integers(0, 12),
    )
    @settings(max_examples=80)
    def test_cumulative_cells_render_the_curves(self, corpus, target, ref_offset):
        ref_year = corpus.y0 + ref_offset
        if not any(total(p, ref_year) for p in corpus.papers):
            return
        partition = partition_by_mass(corpus, target, ref_year)
        expected = tuple(
            (str(group.index), str(t), format_fixed(value, 2))
            for group, curve in zip(partition, group_cumulative_curves(corpus, partition))
            for t, value in enumerate(curve)
        )
        _, curve_table = groups_output(corpus, target, "cumulative", ref_year)
        assert curve_table.rows == expected


class TestAuthorImpactFactor:
    @given(small_corpora(), st.integers(-2, 12), st.integers(1, 6))
    @settings(max_examples=120)
    def test_matches_per_record_loop(self, corpus, y_offset, delta_t):
        y = corpus.y0 + y_offset
        selected = [p for p in corpus.papers if y - delta_t <= p.pub_year <= y - 1]
        if not selected:
            with pytest.raises(NoPapersInWindowError):
                author_impact_factor(corpus, y, delta_t)
            return
        aif = author_impact_factor(corpus, y, delta_t)
        numerator = sum(c for p in selected for year, c in p.citations if year == y)
        assert (aif.numerator, aif.denominator) == (numerator, len(selected))


@st.composite
def near_tie_corpora(draw, gamma=3):
    """Papers whose score gamma * total / age sits at or next to a small integer k."""
    y = 2020
    k = draw(st.integers(1, 6))
    papers = []
    for i in range(draw(st.integers(1, 14))):
        age = draw(st.integers(1, 30))
        cited = max((k * age) // gamma + draw(st.integers(-1, 1)), 0)
        citations = {y: cited} if cited else {}
        papers.append(PaperRecord(f"p{i}", y - age + 1, citations))
    return validate_corpus(papers)


@st.composite
def ancient_corpora(draw):
    """(y, corpus): papers up to 9 000 years old in year y, the oldest
    possible, some published after y, with small or bound-sized counts."""
    y = draw(st.sampled_from([9999, 5000]) | st.integers(1000, 9999))
    papers = []
    for i in range(draw(st.integers(1, 8))):
        pub = draw(st.sampled_from([1000, y]) | st.integers(1000, 9999))
        years = draw(st.lists(st.integers(pub, 9999), max_size=3, unique=True))
        counts = st.integers(1, 9) | st.just(2**31 - 1)
        papers.append(PaperRecord(f"p{i}", pub, {year: draw(counts) for year in years}))
    return y, validate_corpus(papers)


class TestContemporaryH:
    # ages**|delta| has 396 digits at age 9 000 and |delta| = 100, and at
    # |delta| = 4 it still fits int64 but not int32: a narrow age would wrap.
    @given(ancient_corpora(), st.sampled_from([1, 4, Fraction(7, 3)]), st.sampled_from([-100, -4, 4, 100]))
    @settings(max_examples=150)
    def test_old_papers_at_the_delta_bound(self, drawn, gamma, delta):
        y, corpus = drawn
        value = contemporary_h(corpus, y, gamma, delta, interpolated=True)
        assert (value.h, value.h_interp) == reference_contemporary(corpus, y, gamma, delta)

    @given(near_tie_corpora())
    @settings(max_examples=200)
    def test_near_ties_match_exact_scores(self, corpus):
        value = contemporary_h(corpus, 2020, gamma=3, delta=1, interpolated=True)
        assert (value.h, value.h_interp) == reference_contemporary(corpus, 2020, 3, 1)

    @given(
        CORPORA,
        st.sampled_from([0, 1, 3, 4, Fraction(7, 3)]),
        st.sampled_from([-20, -2, -1, 0, 1, 2, 20]),
        st.integers(-2, 12),
    )
    @settings(max_examples=150)
    def test_matches_exact_scores(self, corpus, gamma, delta, y_offset):
        # |delta| = 20 takes the scores past int64: age 9 already gives 9**20.
        y = corpus.y0 + y_offset
        value = contemporary_h(corpus, y, gamma, delta, interpolated=True)
        assert (value.h, value.h_interp) == reference_contemporary(corpus, y, gamma, delta)
        assert contemporary_h(corpus, y, gamma, delta).h == value.h


def assert_evolution_matches(corpus, t_values, y_from, y_to):
    plain = evolution_table(corpus, t_values, y_from, y_to)
    interp = evolution_table(corpus, t_values, y_from, y_to, interpolated=True)
    assert plain.t_values == interp.t_values
    for t in plain.t_values:
        for y in plain.years:
            h, h_interp = reference_evolution_cell(corpus, t, y)
            assert (plain.value(t, y).h, plain.value(t, y).h_interp) == (h, None), (t, y)
            assert (interp.value(t, y).h, interp.value(t, y).h_interp) == (h, h_interp), (t, y)


T_LISTS = st.lists(st.one_of(st.integers(0, 12), st.just(ALL)), min_size=1, max_size=5)


class TestEvolutionTable:
    @given(small_corpora(), T_LISTS, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=150)
    def test_small_corpora_match_per_cell_loop(self, corpus, t_values, before, after):
        # Years from before y0 to after y_end: cells with empty windows.
        assert_evolution_matches(corpus, t_values, corpus.y0 - before, corpus.y_end + after)

    @given(small_corpora(max_count=MAX_COUNT), T_LISTS, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=80)
    def test_counts_at_the_bound_match_per_cell_loop(self, corpus, t_values, before, after):
        assert_evolution_matches(corpus, t_values, corpus.y0 - before, corpus.y_end + after)

    @given(st.integers(0, 2**32 - 1), T_LISTS)
    @settings(max_examples=20, deadline=None)
    def test_corpora_spanning_several_chunks_match_per_cell_loop(self, seed, t_values):
        corpus = random_corpus(np.random.default_rng(seed), max_papers=400, max_career=25)
        assert_evolution_matches(corpus, t_values, corpus.y0 - 2, corpus.y_end + 2)

    def test_cells_wider_than_a_chunk_match_per_cell_loop(self):
        rng = np.random.default_rng(3)
        papers = []
        for i in range(_CHUNK_ELEMENTS + 500):
            pub = 2000 + i % 4
            cited = [year for year in range(pub, 2006) if rng.random() < 0.6]
            papers.append(PaperRecord(f"p{i}", pub, {y: int(rng.integers(1, 9)) for y in cited}))
        corpus = validate_corpus(papers)
        # Windows that cover 2000-2003 (t = 3 and ALL from 2003 on) hold
        # more papers than a chunk may; the narrower ones share chunks.
        assert_evolution_matches(corpus, [0, 1, 3, ALL], 1999, 2006)

    @given(CORPORA, T_LISTS, st.integers(0, 3), st.integers(0, 3), st.booleans())
    @settings(max_examples=100)
    def test_output_cells_render_the_table(self, corpus, t_values, before, after, interpolated):
        y_from, y_to = corpus.y0 - before, corpus.y_end + after
        table = evolution_table(corpus, t_values, y_from, y_to, interpolated)
        output = evolution_output(corpus, t_values, y_from, y_to, interpolated)

        def cell(value):
            return format_fixed(value.h_interp, 4) if interpolated else str(value.h)

        assert output.rows == tuple(
            (str(y), *(cell(table.value(t, y)) for t in table.t_values)) for y in table.years
        )


@pytest.mark.parametrize(
    "rows",
    [
        # An all-zero row, a row whose h is the bound K = 3 and one below it.
        [[0, 0, 0, 0, 0], [3, 3, 3, 1, 0], [4, 2, 2, 2, 0], [9, 1, 0, 0, 0]],
        # A row whose h is the chunk width, so c(h + 1) lies past its end.
        [[2, 2, 0], [5, 4, 3], [0, 0, 0]],
        # Every row zero, and a chunk of width zero.
        [[0, 0], [0, 0]],
        [[], []],
    ],
)
def test_chunk_rows_match_reference_per_row(rows):
    desc = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    hs, c_hs, c_h1s = _chunk_rows(desc)
    for row, h, c_h, c_h1 in zip(rows, hs, c_hs, c_h1s):
        padded = [0, *row, 0]
        assert (h, c_h, c_h1) == (reference_h(row)[0], padded[h], padded[h + 1])
