"""Core domain types: papers, corpora, year windows, ranked citation vectors.

A :class:`Corpus` is a columnar store.  Papers sit in id order: one id,
publication year and title each, and paper i's citations are the rows
``offsets[i]:offsets[i + 1]`` of two flat arrays, ``years`` (int16) and
``counts`` (int32), sorted by year.  Citation data is sparse: a row
exists only for a year with a positive count, and an absent year means
zero.  The analyses in :mod:`indices` and :mod:`aging` are passes over
these arrays.

:class:`PaperRecord` is the one-object-per-paper view.  ``Corpus(records)``
and :func:`validate_corpus` check records and turn them into columns;
``Corpus.papers`` is a view that builds records from the store on demand
(and keeps them) for callers that want them.  All types are immutable
after construction; a :class:`Corpus` can be shared freely between
threads or workers.

In a validated corpus, years lie in 1000..9999 and counts in
1..2**31 - 1, so no per-paper or per-window sum can overflow int64, and
every sum over rows accumulates in int64.  Counts are int32 in every
corpus, however it was built.  Publication years and offsets stay
int64, as do the ages computed from them, which
:func:`~citewindow.indices.contemporary_h` raises to powers up to 100.
The count cache holds int16 or int32 sums whenever every paper's total
fits (see :class:`_DenseCounts`).

Each rule is checked once, where the data enters: :func:`validate_corpus`
checks records and the parsers in :mod:`citewindow.ingest` check files.
The store build they share (``_corpus_from_rows``) checks only repeated
(paper, year) rows and citations before publication, which the parsers
leave to it.  It alone decides two rules of what a corpus holds, so every
way in stores the same corpus:

- a count is at most 2**31 - 1 even after a lenient merge: a merge past
  it raises :class:`InvalidRangeError`;
- an empty title is stored as None, as :class:`PaperRecord` stores it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CitationBeforePublicationError,
    DuplicateIdError,
    EmptyCorpusError,
    InvalidRangeError,
    NegativeCountError,
)

__all__ = [
    "PaperRecord",
    "Corpus",
    "YearWindow",
    "RankedCitations",
    "validate_corpus",
]

_YEAR_MIN, _YEAR_MAX = 1000, 9999
_MAX_COUNT = 2**31 - 1
# Papers in the count cache's top block; read when a block is built.
_TOP_COLUMNS = 4096

# NumPy's thread-local state, a 46 KB block that is never freed, is
# allocated when first used: by default, in the middle of a parse, at the
# first arithmetic on a temporary array of 256 KB or more.  There it split
# the free heap that the count cache would reuse, and the JSON
# ``evolution`` CLI run on a 5e4-paper corpus peaked at 94.4 MB instead of
# 85.7 MB (glibc malloc, numpy 2.4, Python 3.11).  Formatting one float
# uses that state too, so it is allocated here, at import (about 25 us).
np.format_float_positional(0.0)


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

    Negative counts are kept so that validation can report them.  A year
    listed twice raises ``ValueError``.
    """
    if isinstance(entries, Mapping):
        pairs = entries.items()
    else:
        pairs = entries
    counts: dict[int, int] = {}
    for year, count in pairs:
        year = int(year)
        if year in counts:
            raise ValueError(f"citation year {year} is listed twice")
        counts[year] = int(count)
    return tuple(sorted([pair for pair in counts.items() if pair[1] != 0]))


@dataclass(frozen=True)
class PaperRecord:
    """One publication: identity, publication year and per-year citations.

    ``citations`` accepts any mapping or iterable of (year, count) pairs
    and is canonicalized to a year-sorted tuple; a year may appear once.
    ``title`` is a string or None; an empty title becomes None.
    """

    id: str
    pub_year: int
    citations: tuple[tuple[int, int], ...] = ()
    title: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("paper id must be a non-empty string")
        object.__setattr__(self, "citations", _canonical_citations(self.citations))
        if self.title is not None and not isinstance(self.title, str):
            raise TypeError("paper title must be a string or None")
        if self.title == "":
            object.__setattr__(self, "title", None)

    def total_citations(self, ref_year: int | None = None) -> int:
        """Citations received in all years up to ``ref_year`` (all years if None)."""
        if ref_year is None:
            return sum(count for _, count in self.citations)
        return sum(count for year, count in self.citations if year <= ref_year)


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


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of ``values[offsets[i]:offsets[i + 1]]`` for every i, exact in int64."""
    running = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=running[1:])
    return running[offsets[1:]] - running[offsets[:-1]]


def _frozen(values, dtype=np.int64) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


class _DenseCounts:
    """Per-corpus numpy cache backing the windowed-count kernel.

    Rows run over the distinct citation years ``years`` only, so an
    outlier year adds one row rather than a span of empty ones.  Columns
    run over the papers in publication-year order, so a publication
    window is a column slice.  ``prefix[j]`` holds, per paper, the
    citations in ``years[:j]``, so any inclusive year window reduces to
    one row subtraction.  The columns are indexed by publication year:
    ``pub_years`` lists the distinct publication years, and ``starts[k]``
    is the first column of ``pub_years[k]``, with the column count last.
    Built lazily, once per corpus; an empty corpus has a 1 x 0 cache and
    ``starts == [0]``, so every window over it counts nothing.

    Only this class reads ``prefix``: a window's counts come out of
    :meth:`_cell_counts` (one :meth:`slices` cell), :meth:`_top_counts`
    (the top block's part of one cell) and :meth:`_chunk_counts` (a run of
    cells), all in descending order.

    ``prefix`` takes the narrowest of int16, int32 and int64 that holds
    every paper's total.  The bound is exact: every prefix entry, and so
    every window count, is a partial sum of one paper's citations.  Readers
    take Python ints out of it, so the dtype changes no result.

    A corpus of more than 4 x :data:`_TOP_COLUMNS` papers also gets, on
    first use, a top block: the prefix columns of the ``_TOP_COLUMNS``
    papers with the largest lifetime totals (``prefix[-1]``), in the same
    column order and dtype, copied row-major, with ``block_starts[k]``, the
    first block column of ``pub_years[k]``.  Beside it come bounds over the
    papers outside it, per prefix row j: ``upto[j]``, the most citations
    any of them has in ``years[:j]``, and ``within[j]``, the sum over rows
    1..j of the largest single-year count ``prefix[i] - prefix[i - 1]`` of
    any of them.  A paper's count in the rows lo..hi is
    ``prefix[hi] - prefix[lo]``, which is at most ``prefix[hi]`` and at
    most the sum of its own counts in the years ``years[lo:hi]``, so no
    paper outside the block counts more than
    ``min(upto[hi], within[hi] - within[lo])`` in that window.  The same
    two bounds are kept per publication year too, as (rows x publication
    years) tables over the outside papers of year k alone: ``year_upto``
    in the cache's dtype and ``year_within`` in int64.  So no outside
    paper of year k counts more than
    ``min(year_upto[hi, k], year_within[hi, k] - year_within[lo, k])``,
    which is never above the bound over all of them.  :meth:`_top_counts`
    hands out the block's part of a cell with the bound over all years,
    :meth:`_year_bound` gives the largest per-year bound over the cell's
    years, and ``indices`` decides from them whether the block alone
    settles the cell's h.  ``upto[-1]`` is the largest lifetime total
    outside the block, so neither bound is looser than that.
    """

    def __init__(self, corpus: "Corpus"):
        largest = corpus._totals().max(initial=0)
        dtype = next(t for t in (np.int16, np.int32, np.int64) if largest <= np.iinfo(t).max)
        # Stored years lie in 1000..9999, so a presence table orders them
        # without a sort: year y adds its counts to prefix row rank[y].
        present = np.zeros(_YEAR_MAX + 1, dtype=bool)
        present[corpus._years] = True
        # The cache is allocated before the temporaries below, so that they
        # cannot split the free heap it would otherwise reuse.
        self.prefix = np.zeros((np.count_nonzero(present) + 1, len(corpus)), dtype=dtype)
        order = np.argsort(corpus._pub_year, kind="stable")
        column = np.empty(order.size, dtype=np.int32)
        column[order] = np.arange(order.size)
        years, rank = np.flatnonzero(present), np.cumsum(present, dtype=np.int16)
        self.prefix[rank[corpus._years], column[corpus._row_paper]] = corpus._counts
        np.cumsum(self.prefix, axis=0, dtype=dtype, out=self.prefix)
        # Lists, because bisect on them is much cheaper per query than np.searchsorted.
        self.years = years.tolist()
        # Years lie in 1000..9999, so a prepended -1 marks the first column as a change.
        pub = corpus._pub_year[order]
        change = np.flatnonzero(np.diff(pub, prepend=-1))
        self.pub_years, self.starts = pub[change].tolist(), change.tolist() + [pub.size]

    def slices(self, pub_start, pub_end, cite_start, cite_end) -> tuple[int, int, int, int]:
        """(first, last, lo, hi) for inclusive publication and citation windows.

        The papers published in [pub_start, pub_end] are the columns
        ``first:last``; their citations in [cite_start, cite_end] are
        ``prefix[hi] - prefix[lo]``.  A start of None leaves the window
        unbounded in the past.  The publication bounds bisect the distinct
        publication years, a list of one entry per year, and read the
        columns from ``starts``, so ``first`` and ``last`` are always
        entries of ``starts``.
        """
        first = 0 if pub_start is None else self.starts[bisect_left(self.pub_years, pub_start)]
        last = self.starts[bisect_right(self.pub_years, pub_end)]
        lo = 0 if cite_start is None else bisect_left(self.years, cite_start)
        hi = bisect_right(self.years, cite_end)
        return first, last, lo, hi

    def _cell_counts(self, first, last, lo, hi) -> np.ndarray:
        """The window counts of one :meth:`slices` cell, in descending order."""
        row = self.prefix[hi, first:last] - self.prefix[lo, first:last]
        row.sort()
        return row[::-1]

    @cached_property
    def _top(self) -> tuple | None:
        """(block, block_starts, upto, within, year_upto, year_within) of the
        top block, or None for a corpus of at most 4 x :data:`_TOP_COLUMNS`
        papers."""
        size, totals = _TOP_COLUMNS, self.prefix[-1]
        if totals.size <= 4 * size:
            return None
        rest = totals.size - size
        columns = np.sort(np.argpartition(totals, rest - 1)[rest:])
        # One pass over the rows in two buffers.  ``row`` takes prefix row j
        # with the block's columns zeroed; ``rise`` holds row j - 1 and then
        # becomes row j's rise over it, and the two swap for row j + 1.
        # Each is reduced to its maximum per publication year.
        starts = self.starts[:-1]
        year_upto = np.zeros((self.prefix.shape[0], len(starts)), dtype=totals.dtype)
        year_within = np.zeros(year_upto.shape, dtype=np.int64)
        row, rise = np.empty_like(totals), np.zeros_like(totals)
        for j in range(1, self.prefix.shape[0]):
            np.copyto(row, self.prefix[j])
            row[columns] = 0
            np.maximum.reduceat(row, starts, out=year_upto[j])
            np.subtract(row, rise, out=rise)
            year_within[j] = np.maximum.reduceat(rise, starts)
            row, rise = rise, row
        upto, within = year_upto.max(axis=1).tolist(), np.cumsum(year_within.max(axis=1)).tolist()
        np.cumsum(year_within, axis=0, out=year_within)
        block_starts = np.searchsorted(columns, self.starts).tolist()
        # ``take`` copies the block row-major, so a cell reads two contiguous rows.
        block = self.prefix.take(columns, axis=1)
        return block, block_starts, upto, within, year_upto, year_within

    def _top_counts(self, first, last, lo, hi) -> tuple[np.ndarray, int] | None:
        """The top block's window counts inside one :meth:`slices` cell, in
        descending order, and the most any paper outside the block counts
        in the cell's citation rows; None when the corpus has no block.

        Every cell of a corpus with a block is served, however narrow.  The
        cell's column bounds are entries of ``starts``, as :meth:`slices`
        gives them, so each maps to its publication year by a bisection of
        ``starts`` (one entry per year) and from there to the block's
        columns through ``block_starts``.
        """
        top = self._top
        if top is None:
            return None
        block, block_starts, upto, within = top[:4]
        a, b = block_starts[bisect_left(self.starts, first)], block_starts[bisect_left(self.starts, last)]
        row = block[hi, a:b] - block[lo, a:b]
        row.sort()
        return row[::-1], min(upto[hi], within[hi] - within[lo])

    def _year_bound(self, first, last, lo, hi) -> int:
        """The most any paper outside the top block and published in the
        years of one :meth:`slices` cell counts in the cell's citation rows;
        only for a corpus with a block."""
        year_upto, year_within = self._top[4:]
        a, b = bisect_left(self.starts, first), bisect_left(self.starts, last)
        bounds = np.minimum(year_upto[hi, a:b], year_within[hi, a:b] - year_within[lo, a:b])
        return int(bounds.max(initial=0))

    def _chunk_counts(self, cells, first, last) -> np.ndarray:
        """One row per cell of ``cells``, each in descending order, over the
        columns ``first:last`` that hold all their slices.

        A cell's columns outside its own slice read 0 and sort last, so they
        change neither h nor the interpolation.
        """
        firsts, lasts, los, his = np.array(cells).T
        block = self.prefix[his, first:last] - self.prefix[los, first:last]
        columns = np.arange(first, last)
        block[(columns < firsts[:, None]) | (columns >= lasts[:, None])] = 0
        block.sort(axis=1)
        return block[:, ::-1]


class Corpus:
    """A validated, immutable collection of papers keyed by id.

    ``Corpus(records)`` validates its records as :func:`validate_corpus`
    does and raises on the first violation; the parsers build one from
    their columns.  ``y0`` is the first publication year and ``y_end`` the
    last year with any activity (publication or citation).  Iterating a
    corpus, ``papers`` and ``by_id`` give :class:`PaperRecord` views of the
    store in id order, built on first use.
    """

    def __init__(self, papers: Iterable[PaperRecord] = ()):
        self._set_columns(*validate_corpus(papers)._columns())

    @classmethod
    def _from_columns(cls, ids, pub_year, offsets, years, counts, titles) -> "Corpus":
        """A corpus over columns already in id order, rows sorted by (paper, year)."""
        corpus = cls.__new__(cls)
        corpus._set_columns(ids, pub_year, offsets, years, counts, titles)
        return corpus

    def _set_columns(self, ids, pub_year, offsets, years, counts, titles) -> None:
        self._ids = tuple(ids)
        self._pub_year = _frozen(pub_year)
        self._offsets = _frozen(offsets)
        self._years = _frozen(years, np.int16)
        self._counts = _frozen(counts, np.int32)
        self._titles = tuple(titles)

    def _columns(self) -> tuple:
        return (self._ids, self._pub_year, self._offsets, self._years, self._counts, self._titles)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._columns(), other._columns())
        )

    def __hash__(self) -> int:
        return hash((self._ids, self._counts.tobytes()))

    def __repr__(self) -> str:
        return f"Corpus({len(self)} papers, {self._counts.size} citation rows)"

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[PaperRecord]:
        return iter(self.papers)

    @property
    def is_empty(self) -> bool:
        return not self._ids

    def _require_papers(self):
        if not self._ids:
            raise EmptyCorpusError("operation needs a non-empty corpus")

    @cached_property
    def papers(self) -> tuple[PaperRecord, ...]:
        """One :class:`PaperRecord` per paper, in id order."""
        years, counts = self._years.tolist(), self._counts.tolist()
        bounds = self._offsets.tolist()
        return tuple(
            PaperRecord(pid, pub, tuple(zip(years[a:b], counts[a:b])), title)
            for pid, pub, a, b, title in zip(
                self._ids, self._pub_year.tolist(), bounds, bounds[1:], self._titles
            )
        )

    @cached_property
    def by_id(self) -> dict[str, PaperRecord]:
        return {p.id: p for p in self.papers}

    @cached_property
    def _row_paper(self) -> np.ndarray:
        """Paper index of every citation row."""
        return np.repeat(np.arange(len(self._ids), dtype=np.int32), np.diff(self._offsets))

    def _totals(self, ref_year: int | None = None, since: int | None = None) -> np.ndarray:
        """Per-paper citations in the years ``since..ref_year``, in id order.

        A bound of None leaves that side open and costs no pass over the rows.
        """
        counts = self._counts
        if ref_year is not None:
            counts = np.where(self._years <= ref_year, counts, 0)
        if since is not None:
            counts = np.where(self._years >= since, counts, 0)
        return _segment_sums(counts, self._offsets)

    @cached_property
    def y0(self) -> int:
        """First publication year."""
        self._require_papers()
        return int(self._pub_year.min())

    @cached_property
    def y_end(self) -> int:
        """Last activity year: max over publication and citation years."""
        self._require_papers()
        return int(max(self._pub_year.max(), self._years.max(initial=self._pub_year.max())))

    def total_citations(self, ref_year: int | None = None) -> int:
        return int(self._totals(ref_year).sum())

    _dense = cached_property(_DenseCounts)


class _Rejected(Exception):
    """Raised where a parser's column path meets a row that breaks a rule;
    the parser then reads its input again row by row to locate it."""


def _corpus_from_rows(ids, pub_year, titles, row_paper, years, counts, lenient=False) -> Corpus:
    """Store the columns of parsed or given papers as a :class:`Corpus`.

    ``ids``, ``pub_year`` and ``titles`` are sequences in input (file)
    order; citation rows come in any order, ``row_paper`` giving each row's
    input position.  Ids are sorted once as positions, so the build needs
    no dict of them: a JSON parse hands over copies of its ids and titles
    after freeing the document, and a dict would only hold them again.
    Every year and count is already in range: :func:`validate_corpus`
    checks records and the parsers check files.  So publication and
    citation years are read as int16, and counts and row positions as
    int32, the types the parsers hand over (a CSV pair's publication years
    aside).  To keep the build's peak low, the ids and titles are put in
    id order before any column per row is built, and the sort keys, the
    one int64 column per row beside their stable order, are sorted in
    place.  This build checks only two rules, which the parsers leave to
    it.  A repeated (paper, year) row raises :class:`_Rejected`, and the
    CSV parser then reads its files again row by row to locate the first
    repeat.  A citation before publication raises
    :class:`CitationBeforePublicationError` for the first such paper in
    input order, at its earliest early year; with ``lenient`` those
    citations move to the publication year instead and merge with the
    rows already there.  A merged count above 2**31 - 1 raises
    :class:`InvalidRangeError` for the first such paper in input order,
    naming its publication year, so every stored count fits int32.  An
    empty title is stored as None.
    """
    pub_year = np.asarray(pub_year, dtype=np.int16)
    row_paper = np.asarray(row_paper, dtype=np.int32)
    years = np.asarray(years, dtype=np.int16)
    counts = np.asarray(counts, dtype=np.int32)
    positions = sorted(range(len(ids)), key=ids.__getitem__)
    id_order = np.array(positions, dtype=np.int64)
    # Gathered first, so that the positions' int objects are freed early.
    sorted_ids, sorted_titles = (tuple(map(column.__getitem__, positions)) for column in (ids, titles))
    del positions
    sorted_titles = tuple(title or None for title in sorted_titles) if "" in sorted_titles else sorted_titles
    rank = np.empty(len(ids), dtype=np.int64)
    rank[id_order] = np.arange(len(ids))
    # Years lie in 1000..9999, below 2**14, so rank and year share one key,
    # and each sorted row's paper and year are read back from it.
    keys = rank[row_paper]
    keys <<= 14
    keys |= years
    order = np.argsort(keys, kind="stable")
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise _Rejected

    if lenient:
        # A clamped year becomes the paper's publication year, which no other
        # row of that paper precedes, so the clamped keys stay sorted.
        np.maximum(keys, keys >> 14 << 14 | pub_year[row_paper[order]], out=keys)
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        # Summed in int64, so that a sum past the bound shows; the store
        # narrows the checked sums to int32.
        counts = np.add.reduceat(counts[order], starts, dtype=np.int64) if starts.size else counts[order]
        if (counts > _MAX_COUNT).any():
            first = int(id_order[keys[starts[counts > _MAX_COUNT]] >> 14].min())
            raise InvalidRangeError(f"paper {ids[first]!r} merges over {_MAX_COUNT} citations into {pub_year[first]}")
        keys = keys[starts]
    else:
        early = years < pub_year[row_paper]
        if early.any():
            first = int(row_paper[early].min())
            year = int(years[early & (row_paper == first)].min())
            raise CitationBeforePublicationError(ids[first], year)
        counts = counts[order]
    del order
    # Paper r's rows are the keys in [r << 14, (r + 1) << 14).
    offsets = np.searchsorted(keys, np.arange(len(ids) + 1) << 14)
    keys &= (1 << 14) - 1
    return Corpus._from_columns(sorted_ids, pub_year[id_order], offsets, keys, counts, sorted_titles)


def validate_corpus(papers: Iterable[PaperRecord]) -> Corpus:
    """Check invariants and assemble a :class:`Corpus`.

    Each record is checked in input order: first a repeated id
    (:class:`DuplicateIdError`), then a publication year outside 1000..9999
    (:class:`InvalidRangeError`), then a paper's citations in year order: a
    negative count (:class:`NegativeCountError`), a year outside 1000..9999
    or a count above 2**31 - 1 (:class:`InvalidRangeError`), a citation
    before publication (:class:`CitationBeforePublicationError`).  The
    first violation raises.  The parsers check files themselves and share
    only the store build with this function.  An empty input yields an
    empty corpus: its windows count nothing, and the operations that need
    a paper (its year span, the aging and group analyses) reject it.
    """
    records = list(papers)
    index: dict[str, int] = {}
    rows = []
    for i, paper in enumerate(records):
        paper_id, pub_year = paper.id, paper.pub_year
        if index.setdefault(paper_id, i) != i:
            raise DuplicateIdError(paper_id)
        if not _YEAR_MIN <= pub_year <= _YEAR_MAX:
            raise InvalidRangeError(
                f"paper {paper_id!r} has a publication year outside {_YEAR_MIN}..{_YEAR_MAX}"
            )
        for year, count in paper.citations:
            if count < 0:
                raise NegativeCountError(paper_id, year)
            if not (_YEAR_MIN <= year <= _YEAR_MAX and count <= _MAX_COUNT):
                raise InvalidRangeError(
                    f"paper {paper_id!r} has a citation year outside {_YEAR_MIN}..{_YEAR_MAX} "
                    f"or a count above {_MAX_COUNT}"
                )
            if year < pub_year:
                raise CitationBeforePublicationError(paper_id, year)
            rows.append((i, year, count))
    # Not zip(*rows): on 10^5 records (4.9 * 10^5 rows, 2-core Xeon) it
    # took 0.8 s, two thirds of the whole check.
    row_paper, years, counts = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    pub_years, titles = [p.pub_year for p in records], [p.title for p in records]
    return _corpus_from_rows(list(index), pub_years, titles, row_paper, years, counts)
