"""Windowed h-index kernel and the named index presets.

Everything here reduces to one kernel: select the papers published in a
publication window, count each paper's citations inside a citation
window, rank the counts, and take the largest rank h whose count still
reaches h.  The timed index, the 5-year index, the age-discounted index
and the evolution table are thin variations on that kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidRangeError, NoPapersInWindowError
from .model import Corpus, RankedCitations, YearWindow, citations_in_window
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
        if self.h_interp is not None:
            interp = Fraction(self.h_interp)
            object.__setattr__(self, "h_interp", interp)
            if not self.h <= interp < self.h + 1:
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
    values never decrease with growing window length.
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
    if corpus.is_empty:
        return RankedCitations(())
    counts = corpus._dense.window_counts(pub_window, cite_window)
    ordered = np.sort(counts)[::-1]
    return RankedCitations(tuple(int(c) for c in ordered))


def _as_ranked(c) -> RankedCitations:
    if isinstance(c, RankedCitations):
        return c
    return RankedCitations(tuple(c))


def _h_index(ordered, interpolated: bool) -> tuple[int, Fraction | None]:
    """h of a non-increasing sequence and, when asked, its interpolation.

    ``ordered`` is a numpy int64 array or a sequence of ints or Fractions.
    The predicate c(i) >= i holds for a prefix of the ranks, so a bisection
    finds h; see :func:`interpolate_h` for the interpolated value.
    """
    # Python ints from numpy: Fraction(np.int64) would keep a numpy
    # numerator, and numpy scalar comparisons are slow.
    at = ordered.item if isinstance(ordered, np.ndarray) else ordered.__getitem__
    h = bisect_left(range(len(ordered)), True, key=lambda k: at(k) < k + 1)
    if not interpolated:
        return h, None
    if h == 0:
        return 0, Fraction(0)
    c_h = Fraction(at(h - 1))
    c_h1 = Fraction(at(h)) if h < len(ordered) else Fraction(0)
    # Fixed point of the line through (h, c(h)) and (h + 1, c(h + 1)).
    return h, (c_h + h * (c_h - c_h1)) / (1 + c_h - c_h1)


def h_from_ranked(c: RankedCitations | Sequence) -> int:
    """Largest rank whose citation frequency still reaches the rank.

    Zero for an empty vector or when even the top paper has less than
    one citation.
    """
    return _h_index(_as_ranked(c).values, False)[0]


def interpolate_h(c: RankedCitations | Sequence, h: int) -> Fraction:
    """Rational refinement of h from the rank/frequency interpolation line.

    Solves x = c(h) + (x - h) * (c(h+1) - c(h)) exactly; returns h itself
    when c(h) == h and 0 when h == 0 (the line through rank zero is not
    defined).  ``h`` must be the value :func:`h_from_ranked` yields for
    ``c``; c(h+1) is 0 past the end of the vector.
    """
    index, interp = _h_index(_as_ranked(c).values, True)
    if h != index:
        raise ValueError(f"h={h} is not the index of the given ranked vector")
    return interp


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
    if corpus.is_empty:
        return IndexValue(0, Fraction(0) if interpolated else None)
    counts = corpus._dense.window_counts(pub_window, cite_window)
    return IndexValue(*_h_index(np.sort(counts)[::-1], interpolated))


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


def _year_index_grid(corpus, t_values, y_from, y_to, interpolated):
    for t in t_values:
        row = []
        for y in range(y_from, y_to + 1):
            eff_t = max(y - corpus.y0, 0) if t is ALL else t
            row.append(timed_h(corpus, y, eff_t, interpolated))
        yield tuple(row)


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
    ordered_ts = tuple(ints) + ((ALL,) if has_all else ())
    values = tuple(_year_index_grid(corpus, ordered_ts, y_from, y_to, interpolated))
    return EvolutionTable(ordered_ts, y_from, y_to, values)


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
    pub_window = YearWindow(y - delta_t, y - 1)
    focal = YearWindow(y, y)
    selected = [p for p in corpus.papers if p.pub_year in pub_window]
    if not selected:
        raise NoPapersInWindowError(
            f"no papers published in [{y - delta_t}, {y - 1}]"
        )
    numerator = sum(citations_in_window(p, focal) for p in selected)
    return AifValue(numerator, len(selected))


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
    is an exact rational; other values raise :class:`InvalidRangeError`.
    """
    gamma = as_fraction(gamma)
    delta = as_fraction(delta)
    if gamma < 0:
        raise InvalidRangeError(f"gamma must be non-negative, got {gamma}")
    if delta.denominator != 1:
        raise InvalidRangeError(f"delta must be an integer, got {delta}")
    scores = []
    for paper in corpus.papers:
        if paper.pub_year > y:
            continue
        age = y - paper.pub_year + 1
        total = paper.total_citations(y)
        scores.append(gamma * Fraction(age) ** -int(delta) * total)
    scores.sort(reverse=True)
    return IndexValue(*_h_index(scores, interpolated))
