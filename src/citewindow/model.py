"""Core domain types: papers, corpora, year windows, ranked citation vectors.

Citation data is stored sparsely: a paper keeps a (year, count) pair only
for years in which it was actually cited, and an absent year means zero.
All types are immutable after construction; a validated :class:`Corpus`
can be shared freely between threads or workers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CitationBeforePublicationError,
    DuplicateIdError,
    EmptyCorpusError,
    InvalidRangeError,
    NegativeCountError,
    RefYearBeforePublicationError,
)

__all__ = [
    "PaperRecord",
    "Corpus",
    "YearWindow",
    "RankedCitations",
    "validate_corpus",
    "citations_in_window",
    "cumulative_series",
]


@dataclass(frozen=True)
class YearWindow:
    """Inclusive year interval; ``start=None`` leaves the past unbounded.

    A window of length t (``end - start == t``) spans t + 1 calendar
    years.  Sub-year timing is not modeled, so the factual length of a
    window lies between t and t + 1 years depending on publication month.
    """

    start: int | None
    end: int

    def __post_init__(self):
        if self.start is not None and self.start > self.end:
            raise InvalidRangeError(
                f"window start {self.start} is after window end {self.end}"
            )

    @classmethod
    def through(cls, end: int) -> "YearWindow":
        """All years up to and including ``end``."""
        return cls(None, end)

    def __contains__(self, year: int) -> bool:
        return (self.start is None or year >= self.start) and year <= self.end


def _canonical_citations(entries) -> tuple[tuple[int, int], ...]:
    """Sorted (year, count) pairs with zero counts dropped.

    Negative counts are kept so that validation can report them.
    """
    if isinstance(entries, Mapping):
        pairs = entries.items()
    else:
        pairs = entries
    out = []
    for year, count in pairs:
        year = int(year)
        count = int(count)
        if count != 0:
            out.append((year, count))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class PaperRecord:
    """One publication: identity, publication year and per-year citations.

    ``citations`` accepts any mapping or iterable of (year, count) pairs
    and is canonicalized to a year-sorted tuple.
    """

    id: str
    pub_year: int
    citations: tuple[tuple[int, int], ...] = ()
    title: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("paper id must be a non-empty string")
        object.__setattr__(self, "citations", _canonical_citations(self.citations))
        if self.title == "":
            object.__setattr__(self, "title", None)

    @property
    def citations_by_year(self) -> dict[int, int]:
        return dict(self.citations)

    def total_citations(self, ref_year: int | None = None) -> int:
        """Citations received in all years up to ``ref_year`` (all years if None)."""
        if ref_year is None:
            return sum(count for _, count in self.citations)
        return sum(count for year, count in self.citations if year <= ref_year)

    def last_citation_year(self, ref_year: int | None = None) -> int | None:
        """Most recent year with a citation (clipped at ref_year), or None."""
        last = None
        for year, _ in self.citations:
            if ref_year is None or year <= ref_year:
                last = year
        return last


@dataclass(frozen=True)
class RankedCitations:
    """Citation frequencies sorted into non-increasing rank order.

    Ranks are 1-based and :meth:`at` returns 0 beyond the vector length,
    which keeps interpolation at the last rank well defined.  Entries are
    integers, or rationals when an age-discounted score was ranked.
    """

    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        for i, v in enumerate(values):
            if v < 0:
                raise ValueError("ranked citation values must be non-negative")
            if i and values[i - 1] < v:
                raise ValueError("ranked citation values must be non-increasing")

    @classmethod
    def from_counts(cls, counts: Iterable) -> "RankedCitations":
        return cls(tuple(sorted(counts, reverse=True)))

    def at(self, rank: int):
        """Value at 1-based ``rank``; 0 for ranks past the end."""
        if rank < 1:
            raise IndexError("ranks are 1-based")
        if rank > len(self.values):
            return 0
        return self.values[rank - 1]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator:
        return iter(self.values)


class _DenseCounts:
    """Per-corpus numpy cache backing the windowed-count kernel.

    Rows run over the distinct citation years ``years`` only, so an
    outlier year adds one row rather than a span of empty ones.
    ``prefix[j]`` holds, per paper, the citations in ``years[:j]``, so any
    inclusive year window reduces to one row subtraction.  Built lazily,
    once per corpus.
    """

    def __init__(self, corpus: "Corpus"):
        papers = corpus.papers
        # One (year, count) row per citation entry, paper after paper.
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(p.citations for p in papers)), dtype=np.int64
        ).reshape(-1, 2)
        years, rows = np.unique(pairs[:, 0], return_inverse=True)
        columns = np.repeat(np.arange(len(papers)), [len(p.citations) for p in papers])
        self.prefix = np.zeros((years.size + 1, len(papers)), dtype=np.int64)
        self.prefix[rows + 1, columns] = pairs[:, 1]
        np.cumsum(self.prefix, axis=0, out=self.prefix)
        # A list, because bisect on it is much cheaper per query than np.searchsorted.
        self.years = years.tolist()
        self.pub_years = np.array([p.pub_year for p in papers], dtype=np.int64)

    def window_counts(self, pub_window: YearWindow, cite_window: YearWindow) -> np.ndarray:
        """In-window citation counts of the papers published in ``pub_window``."""
        mask = self.pub_years <= pub_window.end
        if pub_window.start is not None:
            mask &= self.pub_years >= pub_window.start
        lo = 0 if cite_window.start is None else bisect_left(self.years, cite_window.start)
        hi = bisect_right(self.years, cite_window.end)
        return (self.prefix[hi] - self.prefix[lo])[mask]


@dataclass(frozen=True)
class Corpus:
    """A validated, immutable collection of papers keyed by id.

    Use :func:`validate_corpus` to build one; the constructor trusts its
    input.  ``y0`` is the first publication year and ``y_end`` the last
    year with any activity (publication or citation).
    """

    papers: tuple[PaperRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.papers)

    def __iter__(self) -> Iterator[PaperRecord]:
        return iter(self.papers)

    @property
    def is_empty(self) -> bool:
        return not self.papers

    def _require_papers(self):
        if not self.papers:
            raise EmptyCorpusError("operation needs a non-empty corpus")

    @cached_property
    def by_id(self) -> dict[str, PaperRecord]:
        return {p.id: p for p in self.papers}

    @cached_property
    def y0(self) -> int:
        """First publication year."""
        self._require_papers()
        return min(p.pub_year for p in self.papers)

    @cached_property
    def y_end(self) -> int:
        """Last activity year: max over publication and citation years."""
        self._require_papers()
        return max(
            max(p.pub_year, p.last_citation_year() or p.pub_year) for p in self.papers
        )

    def total_citations(self, ref_year: int | None = None) -> int:
        return sum(p.total_citations(ref_year) for p in self.papers)

    @cached_property
    def _dense(self) -> _DenseCounts:
        self._require_papers()
        return _DenseCounts(self)


def validate_corpus(papers: Iterable[PaperRecord]) -> Corpus:
    """Check invariants and assemble a :class:`Corpus`.

    Raises :class:`DuplicateIdError`, :class:`NegativeCountError` or
    :class:`CitationBeforePublicationError` on the first violation.
    An empty input yields an empty corpus, which parsers and exporters
    accept but analysis operations reject.
    """
    seen: set[str] = set()
    checked = []
    for paper in papers:
        if paper.id in seen:
            raise DuplicateIdError(paper.id)
        seen.add(paper.id)
        for year, count in paper.citations:
            if count < 0:
                raise NegativeCountError(paper.id, year)
            if year < paper.pub_year:
                raise CitationBeforePublicationError(paper.id, year)
        checked.append(paper)
    checked.sort(key=lambda p: p.id)
    return Corpus(tuple(checked))


def citations_in_window(paper: PaperRecord, window: YearWindow) -> int:
    """Citations the paper received in the given inclusive year window."""
    return sum(count for year, count in paper.citations if year in window)


def cumulative_series(paper: PaperRecord, ref_year: int) -> list[int]:
    """Running citation totals by years since publication.

    Element t is the number of citations received in the publication year
    and the subsequent t years, clipped at ``ref_year``; the final element
    therefore equals ``paper.total_citations(ref_year)``.
    """
    if ref_year < paper.pub_year:
        raise RefYearBeforePublicationError(paper.id, ref_year, paper.pub_year)
    series = [0] * (ref_year - paper.pub_year + 1)
    for year, count in paper.citations:
        if year <= ref_year:
            series[year - paper.pub_year] += count
    running = 0
    for t, value in enumerate(series):
        running += value
        series[t] = running
    return series
