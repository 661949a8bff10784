"""Citation-aging analytics: quantile windows, mass groups, group curves.

These operations describe how quickly papers accumulate their citations:
how many years a paper needed to reach a fraction of its final count,
and how whole groups of similarly cited papers age.  Percentages are
exact rationals; any decimal rendering happens at the output layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import EmptyCorpusError, RefYearBeforePublicationError, ZeroCitationsError
from .model import Corpus, PaperRecord
from .rational import as_fraction

__all__ = [
    "QuantileWindows",
    "CitationGroup",
    "GroupPartition",
    "rank_papers_by_total",
    "quantile_windows",
    "recently_cited_count",
    "partition_by_mass",
    "group_cumulative_curves",
    "group_yearly_counts",
]


@dataclass(frozen=True)
class QuantileWindows:
    """Smallest windows in which a paper reached given citation fractions.

    ``t_q`` maps each requested quantile to the smallest t such that the
    citations received in the publication year and the subsequent t years
    make up at least that fraction of the total up to ``ref_year``.
    """

    paper_id: str
    age: int
    total: int
    t_q: dict[Fraction, int]


@dataclass(frozen=True)
class CitationGroup:
    """A contiguous block of citation-ranked papers of one partition."""

    index: int
    rank_from: int
    rank_to: int
    paper_ids: tuple[str, ...]
    mass: int


@dataclass(frozen=True)
class GroupPartition:
    """Ordered partition of ranked papers into citation-mass groups."""

    groups: tuple[CitationGroup, ...]
    target_fraction: Fraction
    total_citations: int
    ref_year: int

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)


def _ranking(corpus: Corpus, ref_year: int) -> tuple[np.ndarray, np.ndarray]:
    """Paper indices, most cited up to ``ref_year`` first, and their totals.

    The store is in id order and the sort is stable, so equal totals keep
    ascending id order.
    """
    totals = corpus._totals(ref_year)
    order = np.argsort(-totals, kind="stable")
    return order, totals[order]


def rank_papers_by_total(
    corpus: Corpus, ref_year: int | None = None
) -> list[tuple[PaperRecord, int]]:
    """Papers with their totals up to ref_year, most cited first.

    Equal totals are ordered by ascending paper id so the ranking is
    deterministic; index values never depend on this tie-breaking.
    """
    if ref_year is None:
        ref_year = corpus.y_end
    order, totals = _ranking(corpus, ref_year)
    papers = corpus.papers
    return [(papers[i], total) for i, total in zip(order.tolist(), totals.tolist())]


def _checked_quantiles(quantiles) -> list[Fraction]:
    checked = []
    for raw_q in quantiles:
        q = as_fraction(raw_q)
        if not 0 < q <= 1:
            raise ValueError(f"quantiles must lie in (0, 1], got {raw_q!r}")
        checked.append(q)
    return checked


def _ceil_share(totals: np.ndarray, q: Fraction) -> np.ndarray:
    """ceil(q * total) for every total, exactly.

    The result never exceeds the total, but ``numerator * total`` or the
    denominator may pass int64 (a long decimal quantile, a large total or
    a tiny q); then the division is taken in Python integers, once per
    distinct total, so its cost follows the distinct totals, not the papers.
    """
    largest = int(totals.max(initial=0))
    if max(q.numerator * largest, q.denominator) <= np.iinfo(np.int64).max:
        return -(-totals * q.numerator // q.denominator)
    distinct, where = np.unique(totals, return_inverse=True)
    shares = [-(-total * q.numerator // q.denominator) for total in distinct.tolist()]
    return np.array(shares, dtype=np.int64)[where]


def _quantile_windows(corpus: Corpus, ref_year: int, quantiles) -> np.ndarray:
    """Per paper and quantile, the smallest window reaching that share.

    Column k holds each paper's t for ``quantiles[k]``: the age of its
    first citation row whose running count reaches q times its total up
    to ``ref_year``, which is where its cumulative series first reaches
    that share.  The running count over all rows never decreases, so one
    binary search per quantile finds that row for every paper.  Rows of
    papers without citations up to ``ref_year`` are meaningless.
    """
    years, offsets = corpus._years, corpus._offsets
    # Running count over all rows; past ref_year a paper adds nothing.
    running = np.zeros(years.size + 1, dtype=np.int64)
    np.cumsum(np.where(years <= ref_year, corpus._counts, 0), out=running[1:])
    base = running[offsets[:-1]]
    totals = running[offsets[1:]] - base
    windows = np.zeros((len(corpus), len(quantiles)), dtype=np.int64)
    if not years.size:
        return windows
    for k, q in enumerate(quantiles):
        first = np.searchsorted(running[1:], base + _ceil_share(totals, q))
        windows[:, k] = years.take(first, mode="clip") - corpus._pub_year
    return windows


def quantile_windows(
    paper: PaperRecord, quantiles, ref_year: int
) -> QuantileWindows:
    """Per-quantile smallest citation windows for one paper.

    Each quantile q in (0, 1] maps to the smallest t >= 0 whose
    cumulative citation count reaches at least q of the paper's total up
    to ``ref_year``.  The threshold comparison uses >=, so q = 1 is
    always attainable.  Papers without citations have no quantiles and
    raise :class:`ZeroCitationsError`.
    """
    if ref_year < paper.pub_year:
        raise RefYearBeforePublicationError(paper.id, ref_year, paper.pub_year)
    total = paper.total_citations(ref_year)
    if total == 0:
        raise ZeroCitationsError(f"paper {paper.id!r} has no citations up to {ref_year}")
    checked = _checked_quantiles(quantiles)
    windows = _quantile_windows(Corpus([paper]), ref_year, checked)
    return QuantileWindows(
        paper_id=paper.id,
        age=ref_year - paper.pub_year,
        total=total,
        t_q=dict(zip(checked, windows[0].tolist())),
    )


def recently_cited_count(
    corpus: Corpus, k: int, min_citations: int
) -> tuple[int, int]:
    """How many of the at-least-``min_citations`` papers were cited in the
    last k calendar years of the corpus.

    Returns (recently cited, eligible).  With k covering the whole career
    every paper with a citation counts as recent.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    corpus._require_papers()
    eligible = corpus._totals() >= min_citations
    recent = corpus._totals(since=corpus.y_end - k + 1) > 0
    return int(np.count_nonzero(eligible & recent)), int(np.count_nonzero(eligible))


def partition_by_mass(
    corpus: Corpus, target_fraction=Fraction(15, 100), ref_year: int | None = None
) -> GroupPartition:
    """Greedy partition of ranked papers into near-equal citation masses.

    Papers are ranked by decreasing total up to ``ref_year``; each group
    collects consecutive ranks until its citation mass first reaches
    ``target_fraction`` of the corpus total, and the final group takes
    whatever remains (it is usually lighter).  Every group except the
    last therefore carries at least the target mass.
    """
    if corpus.is_empty:
        raise EmptyCorpusError("cannot partition an empty corpus")
    target = as_fraction(target_fraction)
    if not 0 < target <= 1:
        raise ValueError(f"target_fraction must lie in (0, 1], got {target_fraction!r}")
    if ref_year is None:
        ref_year = corpus.y_end
    order, totals = _ranking(corpus, ref_year)
    running = np.cumsum(totals)
    total = int(running[-1])
    if total == 0:
        raise ZeroCitationsError("cannot partition a corpus without citations")
    # Integer masses reach target * total exactly when they reach its ceiling.
    need = math.ceil(target * total)

    groups: list[CitationGroup] = []
    ids = corpus._ids
    start, before = 0, 0
    while start < order.size:
        end = min(int(np.searchsorted(running, before + need)) + 1, order.size)
        reached = int(running[end - 1])
        groups.append(
            CitationGroup(
                index=len(groups) + 1,
                rank_from=start + 1,
                rank_to=end,
                paper_ids=tuple(ids[i] for i in order[start:end].tolist()),
                mass=reached - before,
            )
        )
        start, before = end, reached
    return GroupPartition(
        groups=tuple(groups),
        target_fraction=target,
        total_citations=total,
        ref_year=ref_year,
    )


def group_cumulative_curves(corpus: Corpus, partition: GroupPartition) -> list[list[Fraction]]:
    """Per-group percentage of the group's citations received by year t.

    Element t of a curve is 100 * (citations received by all group
    members within t years of their own publication) / (group mass), the
    running sum of :func:`group_yearly_counts`; papers older than t
    contribute their saturated total.  Curves run until the group's last
    citation, where they reach exactly 100.  Groups without citations
    yield empty curves.
    """
    return [
        [Fraction(100 * got, group.mass) for got in accumulate(counts)]
        for group, counts in zip(partition.groups, group_yearly_counts(corpus, partition))
    ]


def group_yearly_counts(corpus: Corpus, partition: GroupPartition) -> list[list[int]]:
    """Per-group citations received exactly t years after publication.

    Counts are aligned by each paper's own age, not by calendar year, and
    run until the group's last citation up to the partition's
    ``ref_year``; interior years without citations contribute 0.  The
    counts of a group sum to its mass.  Year 0 covers only the months
    after publication, so it is usually not a full year.
    """
    index = {paper_id: i for i, paper_id in enumerate(corpus._ids)}
    group_of = np.full(len(corpus), -1, dtype=np.int64)
    for g, group in enumerate(partition.groups):
        group_of[[index[paper_id] for paper_id in group.paper_ids]] = g
    row_paper = corpus._row_paper
    rows = (corpus._years <= partition.ref_year) & (group_of[row_paper] >= 0)
    ages = corpus._years[rows] - corpus._pub_year[row_paper[rows]]
    groups = group_of[row_paper[rows]]
    # Every row holds a positive count, so a group's counts run to its
    # oldest row's age.  The groups' runs lie end to end, group g's from
    # starts[g], so the table grows with the output, not groups x ages.
    last = np.full(len(partition.groups), -1, dtype=np.int64)
    np.maximum.at(last, groups, ages)
    starts = np.zeros(last.size + 1, dtype=np.int64)
    np.cumsum(last + 1, out=starts[1:])
    ages += starts[groups]  # each row's place in the table
    table = np.zeros(int(starts[-1]), dtype=np.int64)
    np.add.at(table, ages, corpus._counts[rows])
    counts, bounds = table.tolist(), starts.tolist()
    return [counts[a:b] for a, b in zip(bounds, bounds[1:])]
