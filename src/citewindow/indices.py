"""Windowed h-index kernel and the named index presets.

Everything here reduces to one kernel: select the papers published in a
publication window, count each paper's citations inside a citation
window, rank the counts, and take the largest rank h whose count still
reaches h.  The timed index, the 5-year index, the age-discounted index
and the evolution table are thin variations on that kernel.

Window queries run in chunks.  Each window (a cell) maps, by binary
search, to a column slice of the count cache (the papers published in
the window) and two prefix rows (its citation years).  Consecutive cells
form a chunk while the chunk's cells times its combined column width
stays within a few thousand entries; a wider cell is a chunk of its own.
A chunk costs one prefix-row subtraction over its combined slice, a mask
that zeroes each cell's columns outside its own slice, and one row-wise
sort.  The zeros sort last, so they change neither h nor the
interpolation.  A whole evolution table for an author-sized corpus is a
handful of chunks.  A single query skips the chunk plan: it maps its
window to its cell and reads h, c(h) and c(h + 1) through
``_cell_values``, the routine that also serves the grid's one-cell chunks.

A grid reads each distinct cell once and hands its values to every
window that maps to it.  That is exact: windows with equal (first, last,
lo, hi) read the same columns and the same two prefix rows, so they have
the same counts, h and interpolation.  In an evolution grid every length
t >= y - y0 maps year y to its ``ALL`` cell, since nothing is published
or cited before y0; that saturated part costs one dict lookup a window.

A cell read alone (a single query or a one-cell chunk) that is wider
than the cache's top block (the papers with the largest lifetime totals,
on corpora of more than 4 x 4096 papers) first sorts only the block's
columns inside its slice.  The cache also bounds what any paper outside
the block can count in the cell's citation years: no more than the
largest total any of them has up to the last of those years, and no more
than the sum, over those years, of the largest single-year count among
them.  Each holds for every such paper, since its window count is its
total up to the window's end less its total before the window, and also
the sum of its own counts in the window's years; so ``bound``, the
smaller of the two, holds as well.  It is never looser than the largest
lifetime total outside the block, and for a short or early window it is
usually much tighter.  The block's h, c(h) and c(h + 1) are then the
slice's own when ``bound`` is 0 (every other count is 0 and sorts last),
or when the block's sorted counts have an (h + 1)-th entry of at least
``bound``: its first h + 1 entries then lead the whole slice, and
c(h + 1) < h + 1.  Otherwise the cell sorts its whole slice.  Wide cells
on large corpora usually have an h in the hundreds and tens of thousands
of columns, so nearly all settle.

Only the cache, ``model._DenseCounts``, reads its prefix rows: this
module plans the chunks and asks it for one cell's sorted counts
(``_cell_counts``), their top-block part (``_top_counts``) or a chunk's
masked, row-sorted block (``_chunk_counts``).  An empty corpus has a
1 x 0 cache, so every window over it selects no paper and gives h = 0.

Every h in this module, of a cell, a chunk's bound, a ranked vector or
the age-discounted scores, comes from one routine, ``_h_index``: c(k) >= k
holds on a prefix of the ranks, so a plain bisection loop over the ranks
finds h in about log2(n) reads.  A multi-cell chunk's h is read by bound
and count.  The column-wise maximum of the descending rows is itself
non-increasing and lies above every row, so its h is a bound K on every
row's h.  Within a row, c(i) >= i holds on a prefix of the ranks, so one
count of c(i) >= i over the first K ranks gives the h of every row at
once, and one fancy index reads c(h) and c(h + 1).  A cell read alone
needs no bound: its h comes straight from its row.  The kernel hands back
plain integers; callers build ``IndexValue``s from them, or render the
interpolation (c(h) + h·d) / (1 + d), d = c(h) - c(h + 1), without a
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidRangeError, NoPapersInWindowError
from .model import _YEAR_MAX, _YEAR_MIN, Corpus, RankedCitations, YearWindow
from .rational import as_fraction

__all__ = [
    "ALL",
    "IndexValue",
    "EvolutionTable",
    "AifValue",
    "rank_citations",
    "h_from_ranked",
    "interpolate_h",
    "windowed_h",
    "timed_h",
    "evolution_table",
    "h5_index",
    "author_impact_factor",
    "contemporary_h",
]


class _AllYears:
    """Pseudo window length: the whole career up to each evaluation year."""

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "ALL"


ALL = _AllYears()


@dataclass(frozen=True)
class IndexValue:
    """An integer index plus, optionally, its interpolated refinement.

    The interpolated value is the crossing point of the rank/frequency
    interpolation line with the diagonal; truncating it to its integer
    part recovers ``h``, which the constructor enforces.
    """

    h: int
    h_interp: Fraction | None = None

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("index value must be non-negative")
        interp = self.h_interp
        if interp is not None:
            if not isinstance(interp, Fraction):
                interp = Fraction(interp)
                object.__setattr__(self, "h_interp", interp)
            # Floor division: the same test as h <= interp < h + 1.
            if interp.numerator // interp.denominator != self.h:
                raise ValueError(
                    f"interpolated value {interp} does not truncate to h={self.h}"
                )


@dataclass(frozen=True)
class AifValue:
    """Mean citations in a focal year to papers from a publication window."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("impact factor needs at least one paper in the window")

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class EvolutionTable:
    """Index values on a (window length) x (year) grid.

    ``t_values`` holds integer window lengths in ascending order, with
    the :data:`ALL` marker last when present; ``values[i][j]`` is the
    index for ``t_values[i]`` at year ``y_from + j``.  For fixed year the
    values never decrease with growing window length.  Equal cells may
    share one ``IndexValue`` object.
    """

    t_values: tuple
    y_from: int
    y_to: int
    values: tuple[tuple[IndexValue, ...], ...]

    @property
    def years(self) -> range:
        return range(self.y_from, self.y_to + 1)

    def value(self, t, y: int) -> IndexValue:
        return self.values[self.t_values.index(t)][y - self.y_from]


def rank_citations(
    corpus: Corpus, pub_window: YearWindow, cite_window: YearWindow
) -> RankedCitations:
    """In-window citation counts of the in-window papers, rank ordered.

    One entry per paper published inside ``pub_window``, counting only
    its citations inside ``cite_window``.  Ranking ties are broken by
    ascending paper id, which cannot influence the value vector.
    """
    dense = corpus._dense
    cell = dense.slices(pub_window.start, pub_window.end, cite_window.start, cite_window.end)
    return RankedCitations(tuple(dense._cell_counts(*cell).tolist()))


def _as_ranked(c) -> RankedCitations:
    if isinstance(c, RankedCitations):
        return c
    return RankedCitations(tuple(c))


def _h_index(ordered) -> int:
    """h of a non-increasing sequence: the number of ranks k with c(k) >= k.

    ``ordered`` is a numpy array (a descending view too) or a sequence of
    ints or Fractions.  c(k) >= k holds on a prefix of the ranks, so a
    bisection over the ranks finds where it stops.  The test is c(k) >= k
    and not c(k) > k - 1, which differ for a Fraction between k - 1 and k.
    """
    # Numpy scalar comparisons are slow, so read Python ints from an array.
    at = ordered.item if isinstance(ordered, np.ndarray) else ordered.__getitem__
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if at(mid) >= mid + 1:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _crossing_terms(h: int, c_h, c_h1) -> tuple:
    """Numerator and denominator of the fixed point of the line through
    (h, c(h)) and (h + 1, c(h + 1)); the denominator is at least 1."""
    d = c_h - c_h1
    return c_h + h * d, 1 + d


def _crossing(h: int, c_h, c_h1) -> Fraction:
    """:func:`_crossing_terms` as one Fraction, so integer counts cost a
    single normalisation; ``c_h`` and ``c_h1`` are ints or Fractions."""
    return Fraction(*_crossing_terms(h, c_h, c_h1))


def h_from_ranked(c: RankedCitations | Sequence) -> int:
    """Largest rank whose citation frequency still reaches the rank.

    Zero for an empty vector or when even the top paper has less than
    one citation.
    """
    return _h_index(_as_ranked(c).values)


def interpolate_h(c: RankedCitations | Sequence, h: int) -> Fraction:
    """Rational refinement of h from the rank/frequency interpolation line.

    Solves x = c(h) + (x - h) * (c(h+1) - c(h)) exactly; returns h itself
    when c(h) == h and 0 when h == 0 (the line through rank zero is not
    defined).  ``h`` must be the value :func:`h_from_ranked` yields for
    ``c``; c(h+1) is 0 past the end of the vector.
    """
    ranked = _as_ranked(c)
    if h != _h_index(ranked.values):
        raise ValueError(f"h={h} is not the index of the given ranked vector")
    return _crossing(h, ranked.at(h), ranked.at(h + 1)) if h else Fraction(0)


def windowed_h(
    corpus: Corpus,
    pub_window: YearWindow,
    cite_window: YearWindow,
    interpolated: bool = False,
) -> IndexValue:
    """The h-index restricted to a publication and a citation window.

    Equivalent to ranking :func:`rank_citations` and applying
    :func:`h_from_ranked` (plus :func:`interpolate_h` when flagged);
    windows selecting nothing yield h = 0.
    """
    cell = corpus._dense.slices(pub_window.start, pub_window.end, cite_window.start, cite_window.end)
    h, c_h, c_h1 = _cell_values(corpus._dense, cell)
    return IndexValue(h, _crossing(h, c_h, c_h1)) if interpolated else IndexValue(h)


def timed_h(corpus: Corpus, y: int, t: int, interpolated: bool = False) -> IndexValue:
    """h-index over papers published in [y - t, y], citations in the same span.

    Because all selected papers are published inside the window, this
    equals counting all their citations up to year y.  With t = 2 this is
    the 3-calendar-year current index; with t covering the entire career
    it reproduces the ordinary h-index at year y.
    """
    if t < 0:
        raise InvalidRangeError(f"window length must be non-negative, got {t}")
    window = YearWindow(y - t, y)
    return windowed_h(corpus, window, window, interpolated)


# Most entries (cells x combined column width) one chunk may hold, so
# that a chunk's temporaries (two gathered prefix blocks and their
# difference) stay near 50 KB with an int32 cache: half that at int16,
# twice that at int64.
_CHUNK_ELEMENTS = 4096


def _chunks(cells):
    """(start, stop, first, last) for runs of consecutive ``cells``.

    A run's combined column slice ``first:last`` times its number of
    cells stays within :data:`_CHUNK_ELEMENTS`, except for a run of one
    cell wider than that.
    """
    start = 0
    while start < len(cells):
        first, last = cells[start][:2]
        stop = start + 1
        while stop < len(cells):
            lo, hi = min(first, cells[stop][0]), max(last, cells[stop][1])
            if (stop + 1 - start) * (hi - lo) > _CHUNK_ELEMENTS:
                break
            first, last = lo, hi
            stop += 1
        yield start, stop, first, last
        start = stop


def _chunk_rows(desc: np.ndarray) -> tuple[list, list, list]:
    """h, c(h) and c(h + 1) of every row of ``desc``, rows non-increasing.

    c(0) and the counts past a row's end read as 0.  See the module
    docstring for the bound K and the count.
    """
    rows, width = desc.shape
    bound = _h_index(desc.max(axis=0))
    h = np.count_nonzero(desc[:, :bound] >= np.arange(1, bound + 1), axis=1)
    padded = np.zeros((rows, bound + 2), dtype=desc.dtype)
    reach = min(bound + 1, width)
    padded[:, 1 : reach + 1] = desc[:, :reach]
    picked = np.arange(rows)
    return h.tolist(), padded[picked, h].tolist(), padded[picked, h + 1].tolist()


def _cell_row(dense, cell) -> tuple[np.ndarray, int]:
    """One cell's counts in descending order and their h.

    The counts are the top block's part of the cell when that settles h,
    c(h) and c(h + 1), and the whole slice otherwise; see the module
    docstring.
    """
    top = dense._top_counts(*cell)
    if top is not None:
        row, bound = top
        h = _h_index(row)
        if bound == 0 or (h < row.size and row.item(h) >= bound):
            return row, h
    row = dense._cell_counts(*cell)
    return row, _h_index(row)


def _cell_values(dense, cell) -> tuple[int, int, int]:
    """h, c(h) and c(h + 1) of one cell, as Python ints; c(0) and the
    counts past the row's end read as 0."""
    row, h = _cell_row(dense, cell)
    return h, row.item(h - 1) if h else 0, row.item(h) if h < row.size else 0


def _window_rows(corpus: Corpus, windows) -> tuple[tuple[list, list, list], list]:
    """h, c(h) and c(h + 1) of every distinct cell of the (pub_start,
    pub_end, cite_start, cite_end) ``windows``, as three lists of Python
    ints, and ``at``: the index of each window's cell in those lists.

    Starts may be None (unbounded).  The cells are numbered in first-seen
    order and worked through in chunks; see the module docstring.
    """
    dense = corpus._dense
    place = {}
    at = [place.setdefault(dense.slices(*window), len(place)) for window in windows]
    cells = list(place)
    hs, c_hs, c_h1s = [], [], []
    for start, stop, first, last in _chunks(cells):
        if stop - start == 1:
            # One cell: its own slice, so no mask, and its bound is its h.
            h, c_h, c_h1 = _cell_values(dense, cells[start])
            hs.append(h)
            c_hs.append(c_h)
            c_h1s.append(c_h1)
        else:
            h, c_h, c_h1 = _chunk_rows(dense._chunk_counts(cells[start:stop], first, last))
            hs += h
            c_hs += c_h
            c_h1s += c_h1
    return (hs, c_hs, c_h1s), at


def _index_values(rows, interpolated: bool) -> list[IndexValue]:
    """``IndexValue``s from the (h, c(h), c(h + 1)) lists of :func:`_window_rows`."""
    hs, c_hs, c_h1s = rows
    if not interpolated:
        return [IndexValue(h) for h in hs]
    return [IndexValue(h, _crossing(h, c_h, c_h1)) for h, c_h, c_h1 in zip(hs, c_hs, c_h1s)]


def _evolution_windows(corpus: Corpus, t_values: Iterable, y_from, y_to):
    """(ordered window lengths, years, windows) of an evolution grid.

    The windows run length by length, each across all years, and the
    years must lie in 1000..9999.
    """
    ints = []
    has_all = False
    for t in t_values:
        if t is ALL:
            has_all = True
        elif not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise InvalidRangeError(f"window lengths must be integers >= 0, got {t!r}")
        elif t not in ints:
            ints.append(t)
    ints.sort()
    if not ints and not has_all:
        raise InvalidRangeError("t_values must not be empty")
    if y_from is None:
        y_from = corpus.y0
    if y_to is None:
        y_to = corpus.y_end
    if y_from > y_to:
        raise InvalidRangeError(f"year range [{y_from}, {y_to}] is empty")
    if y_from < _YEAR_MIN or y_to > _YEAR_MAX:
        raise InvalidRangeError(f"year range [{y_from}, {y_to}] must lie in {_YEAR_MIN}..{_YEAR_MAX}")
    ordered_ts = tuple(ints) + ((ALL,) if has_all else ())
    years = range(y_from, y_to + 1)
    windows = []
    for t in ordered_ts:
        for y in years:
            start = y - (max(y - corpus.y0, 0) if t is ALL else t)
            windows.append((start, y, start, y))
    return ordered_ts, years, windows


def evolution_table(
    corpus: Corpus,
    t_values: Iterable,
    y_from: int | None = None,
    y_to: int | None = None,
    interpolated: bool = False,
) -> EvolutionTable:
    """Timed index values for several window lengths across a year range.

    ``t_values`` mixes non-negative integers with the :data:`ALL` marker;
    the marker column uses t = y - y0 per year and therefore traces the
    evolution of the ordinary h-index.  Years default to the corpus span.
    Windows that select the same papers and citation years (such as every
    t >= y - y0 at year y) are evaluated once and share one ``IndexValue``.
    """
    ordered_ts, years, windows = _evolution_windows(corpus, t_values, y_from, y_to)
    rows, at = _window_rows(corpus, windows)
    distinct = _index_values(rows, interpolated)
    cells = [distinct[i] for i in at]
    values = tuple(
        tuple(cells[i : i + len(years)]) for i in range(0, len(cells), len(years))
    )
    return EvolutionTable(ordered_ts, years.start, years.stop - 1, values)


def h5_index(
    corpus: Corpus, y: int, span: int = 5, interpolated: bool = False
) -> IndexValue:
    """h-index of all publications, counting citations from the last ``span``
    years and the year ``y`` itself only."""
    if span < 0:
        raise InvalidRangeError(f"span must be non-negative, got {span}")
    return windowed_h(
        corpus, YearWindow.through(y), YearWindow(y - span, y), interpolated
    )


def author_impact_factor(corpus: Corpus, y: int, delta_t: int = 5) -> AifValue:
    """Citations in year y to the papers published in the preceding
    ``delta_t`` years, divided by the number of those papers."""
    if delta_t < 1:
        raise InvalidRangeError(f"publication window must span >= 1 year, got {delta_t}")
    pub_year = corpus._pub_year
    selected = (pub_year >= y - delta_t) & (pub_year <= y - 1)
    papers = int(np.count_nonzero(selected))
    if not papers:
        raise NoPapersInWindowError(
            f"no papers published in [{y - delta_t}, {y - 1}]"
        )
    return AifValue(int(corpus._totals(y, since=y)[selected].sum()), papers)


# Largest |delta| of contemporary_h: its scores hold ages**|delta|.
_MAX_DELTA = 100


def _score_terms(totals: np.ndarray, ages: np.ndarray, gamma: Fraction, delta: int):
    """Numerators and denominators of the scores gamma * ages**-delta * totals.

    They are int64 when every term fits, and Python integers otherwise
    (a large |delta| on old papers), so each score stays exact.
    """
    power = abs(delta)
    largest_power = int(ages.max()) ** power if ages.size else 1
    largest_total = int(totals.max()) if totals.size else 0
    if delta >= 0:
        largest = max(gamma.numerator * largest_total, gamma.denominator * largest_power)
    else:
        largest = max(gamma.numerator * largest_total * largest_power, gamma.denominator)
    if largest > np.iinfo(np.int64).max:
        totals, ages = totals.astype(object), ages.astype(object)
    powers = ages**power
    if delta >= 0:
        return totals * gamma.numerator, powers * gamma.denominator
    return totals * powers * gamma.numerator, np.full_like(totals, gamma.denominator)


def _kth_largest(num: np.ndarray, den: np.ndarray, whole: np.ndarray, k: int) -> Fraction:
    """Exactly the k-th largest of the scores num / den; 0 past the end.

    The integer parts ``whole`` order the scores up to ties, so Fractions
    are built only for the positive scores that share the k-th one's.
    """
    if k > num.size:
        return Fraction(0)
    part = np.partition(whole, whole.size - k)[whole.size - k]
    above = int(np.count_nonzero(whole > part))
    tied = np.flatnonzero((whole == part) & (num > 0))
    if k - above > tied.size:
        return Fraction(0)
    scores = sorted((Fraction(int(num[i]), int(den[i])) for i in tied), reverse=True)
    return scores[k - above - 1]


def contemporary_h(
    corpus: Corpus,
    y: int,
    gamma=4,
    delta=1,
    interpolated: bool = False,
) -> IndexValue:
    """h-index over age-discounted scores gamma * (age)^(-delta) * citations.

    Age counts the publication year itself, so a paper published in year
    y has age 1; papers published after y are ignored.  ``gamma`` must be
    a non-negative rational and ``delta`` an integer, so that every score
    is an exact rational; ``|delta|`` must be at most 100, because the
    scores' size and cost grow with it; and ``y`` must lie in 1000..9999.
    Other values raise :class:`InvalidRangeError`.
    """
    if not _YEAR_MIN <= y <= _YEAR_MAX:
        raise InvalidRangeError(f"year {y} must lie in {_YEAR_MIN}..{_YEAR_MAX}")
    gamma = as_fraction(gamma)
    delta = as_fraction(delta)
    if gamma < 0:
        raise InvalidRangeError(f"gamma must be non-negative, got {gamma}")
    if delta.denominator != 1 or abs(delta) > _MAX_DELTA:
        raise InvalidRangeError(
            f"delta must be an integer in -{_MAX_DELTA}..{_MAX_DELTA}, got {delta}"
        )
    published = corpus._pub_year <= y
    num, den = _score_terms(
        corpus._totals(y)[published], y + 1 - corpus._pub_year[published], gamma, int(delta)
    )
    whole = num // den
    # A score reaches an integer k exactly when its integer part does.
    h = _h_index(np.sort(whole)[::-1])
    if not interpolated:
        return IndexValue(h)
    if h == 0:
        return IndexValue(0, Fraction(0))
    c_h, c_h1 = (_kth_largest(num, den, whole, k) for k in (h, h + 1))
    return IndexValue(h, _crossing(h, c_h, c_h1))
