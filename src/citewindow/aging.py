"""Citation-aging analytics: quantile windows, mass groups, group curves.

These operations describe how quickly papers accumulate their citations:
how many years a paper needed to reach a fraction of its final count,
and how whole groups of similarly cited papers age.  Percentages are
exact rationals; any decimal rendering happens at the output layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import EmptyCorpusError, ZeroCitationsError
from .model import Corpus, PaperRecord, YearWindow, citations_in_window, cumulative_series
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


def rank_papers_by_total(
    corpus: Corpus, ref_year: int | None = None
) -> list[tuple[PaperRecord, int]]:
    """Papers with their totals up to ref_year, most cited first.

    Equal totals are ordered by ascending paper id so the ranking is
    deterministic; index values never depend on this tie-breaking.
    """
    if ref_year is None:
        ref_year = corpus.y_end
    pairs = [(p, p.total_citations(ref_year)) for p in corpus.papers]
    pairs.sort(key=lambda pair: (-pair[1], pair[0].id))
    return pairs


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
    series = cumulative_series(paper, ref_year)
    total = series[-1]
    if total == 0:
        raise ZeroCitationsError(f"paper {paper.id!r} has no citations up to {ref_year}")
    t_q: dict[Fraction, int] = {}
    for raw_q in quantiles:
        q = as_fraction(raw_q)
        if not 0 < q <= 1:
            raise ValueError(f"quantiles must lie in (0, 1], got {raw_q!r}")
        threshold = q * total
        t_q[q] = next(t for t, value in enumerate(series) if value >= threshold)
    return QuantileWindows(
        paper_id=paper.id,
        age=ref_year - paper.pub_year,
        total=total,
        t_q=t_q,
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
    recent = YearWindow(corpus.y_end - k + 1, corpus.y_end)
    eligible = [p for p in corpus.papers if p.total_citations() >= min_citations]
    count = sum(1 for p in eligible if citations_in_window(p, recent) > 0)
    return count, len(eligible)


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
    ranked = rank_papers_by_total(corpus, ref_year)
    total = sum(t for _, t in ranked)
    if total == 0:
        raise ZeroCitationsError("cannot partition a corpus without citations")
    threshold = target * total

    groups: list[CitationGroup] = []
    ids: list[str] = []
    mass = 0
    rank_from = 1
    for rank, (paper, paper_total) in enumerate(ranked, start=1):
        ids.append(paper.id)
        mass += paper_total
        last = rank == len(ranked)
        if mass >= threshold or last:
            groups.append(
                CitationGroup(
                    index=len(groups) + 1,
                    rank_from=rank_from,
                    rank_to=rank,
                    paper_ids=tuple(ids),
                    mass=mass,
                )
            )
            ids, mass, rank_from = [], 0, rank + 1
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
    result: list[list[int]] = []
    for group in partition.groups:
        counts: list[int] = []
        for pid in group.paper_ids:
            paper = corpus.by_id[pid]
            for year, count in paper.citations:  # sorted by year
                if year > partition.ref_year:
                    break
                age = year - paper.pub_year
                if age >= len(counts):
                    counts += [0] * (age + 1 - len(counts))
                counts[age] += count
        result.append(counts)
    return result
