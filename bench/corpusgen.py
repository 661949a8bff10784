"""Seeded synthetic corpora for the benchmark, with their ground truth.

The generator never calls the library.  It draws per-paper, per-year
citation counts with numpy, keeps them as flat arrays (the ground truth
the checks read) and writes the CSV pair and the JSON array itself.

Sizes are fixed per workload; the seed only decides the draws.  Yearly
counts are Poisson around a heavy-tailed (Lomax) lifetime rate spread
over an aging profile that peaks a few years after publication, and
about a third of the papers are never cited.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FIRST_YEAR = 1985
LAST_YEAR = 2024  # the main span's last year; also every query's reference year

DATABASE_PAPERS = 50_000
# Fixed so that the dense year span, and with it the cache size, is the
# same for every seed.  1687 is the Principia.
OLD_PUB_YEARS = (1687, 1736, 1798, 1859, 1905)

SWEEP_PAPERS = 100_000
SWEEP_QUERIES = 2_000

AUTHORS = 300
AUTHOR_MIN_PAPERS = 10
AUTHOR_MAX_PAPERS = 1_000

_SALT = {"database_cli": 1, "window_sweep": 2, "author_batch": 3}
_TITLES = (None, "Paper {i}", "Windows, part {i}", 'The "{i}" effect', "Über {i}")


@dataclass(frozen=True)
class Truth:
    """Ground truth of one corpus: papers in id order, rows by (paper, year)."""

    ids: tuple
    titles: tuple
    pub: np.ndarray  # publication year per paper
    offsets: np.ndarray  # rows of paper i are offsets[i]:offsets[i + 1]
    years: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def row_paper(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.ids)), np.diff(self.offsets))

    @cached_property
    def totals(self) -> np.ndarray:
        return np.bincount(self.row_paper, weights=self.counts, minlength=len(self.ids)).astype(np.int64)

    @property
    def y0(self) -> int:
        return int(self.pub.min())

    @property
    def y_end(self) -> int:
        last = int(self.pub.max())
        return max(last, int(self.years.max())) if self.years.size else last

    @property
    def citations(self) -> int:
        return int(self.counts.sum())

    def rows_of(self, i: int) -> list[tuple[int, int]]:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return list(zip(self.years[lo:hi].tolist(), self.counts[lo:hi].tolist()))


def _aging_profile(n_ages: int) -> np.ndarray:
    ages = np.arange(n_ages, dtype=float)
    w = (ages + 1.0) * np.exp(-ages / 3.5)
    return w / w[:12].sum()


def _draw_counts(rng, pub: np.ndarray, last: int) -> np.ndarray:
    """(paper, age) matrix of yearly counts, zero past ``last``."""
    n = pub.size
    n_ages = int(last - pub.min() + 1)
    lifetime = np.minimum(30.0 * rng.pareto(1.7, n), 20_000.0)
    lifetime[rng.random(n) < 0.3] = 0.0
    lam = lifetime[:, None] * _aging_profile(n_ages)[None, :]
    lam[np.arange(n_ages)[None, :] > (last - pub)[:, None]] = 0.0
    return rng.poisson(lam)


def _assemble(rng, pub: np.ndarray, by_age: np.ndarray, extra_rows=()) -> Truth:
    """Truth from per-age counts plus explicit (paper, year, count) rows."""
    n = pub.size
    paper, age = np.nonzero(by_age)
    rows_p = [paper]
    rows_y = [pub[paper] + age]
    rows_c = [by_age[paper, age]]
    for p, y, c in extra_rows:
        rows_p.append(np.array([p]))
        rows_y.append(np.array([y]))
        rows_c.append(np.array([c]))
    row_p = np.concatenate(rows_p).astype(np.int64)
    row_y = np.concatenate(rows_y).astype(np.int64)
    row_c = np.concatenate(rows_c).astype(np.int64)
    order = np.lexsort((row_y, row_p))
    row_p, row_y, row_c = row_p[order], row_y[order], row_c[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_p, minlength=n), out=offsets[1:])
    width = len(str(n))
    ids = tuple(f"P{i:0{width}d}" for i in range(n))
    picks = rng.integers(0, len(_TITLES), n)
    titles = tuple(
        None if _TITLES[k] is None else _TITLES[k].format(i=i) for i, k in enumerate(picks.tolist())
    )
    return Truth(ids, titles, pub.astype(np.int64), offsets, row_y, row_c)


def _main_span_pub(rng, n: int, first: int, last: int, growth: float) -> np.ndarray:
    years = np.arange(first, last + 1)
    weights = np.exp(growth * (years - first))
    return rng.choice(years, size=n, p=weights / weights.sum())


def database_corpus(seed: int) -> Truth:
    """About 5e4 papers over 40 years plus a handful of centuries-old classics
    that are still cited every year of the main span."""
    rng = np.random.default_rng([seed, _SALT["database_cli"]])
    main = _main_span_pub(rng, DATABASE_PAPERS, FIRST_YEAR, LAST_YEAR, 0.04)
    pub = np.concatenate([main, np.array(OLD_PUB_YEARS)])
    by_age = np.zeros((pub.size, LAST_YEAR - FIRST_YEAR + 1), dtype=np.int64)
    by_age[:DATABASE_PAPERS] = _draw_counts(rng, main, LAST_YEAR)
    extra = []
    for k, year in enumerate(OLD_PUB_YEARS):
        paper = DATABASE_PAPERS + k
        extra.append((paper, year + 1, 3))
        for y, c in zip(range(FIRST_YEAR, LAST_YEAR + 1), rng.poisson(25, LAST_YEAR - FIRST_YEAR + 1)):
            if c:
                extra.append((paper, y, int(c)))
    return _assemble(rng, pub, by_age, extra)


def sweep_corpus(seed: int) -> Truth:
    """About 1e5 papers over 40 years, no outlier years."""
    rng = np.random.default_rng([seed, _SALT["window_sweep"]])
    pub = _main_span_pub(rng, SWEEP_PAPERS, FIRST_YEAR, LAST_YEAR, 0.04)
    return _assemble(rng, pub, _draw_counts(rng, pub, LAST_YEAR))


def author_sizes() -> list[int]:
    """Fixed heavy-tailed paper counts: quantiles of a truncated Pareto(1)."""
    u = (np.arange(AUTHORS) + 0.5) / AUTHORS
    ratio = AUTHOR_MIN_PAPERS / AUTHOR_MAX_PAPERS
    sizes = AUTHOR_MIN_PAPERS / (1.0 - u * (1.0 - ratio))
    return [int(s) for s in np.rint(sizes)]


def author_corpora(seed: int) -> list[Truth]:
    """One corpus per author, sizes from :func:`author_sizes` in seeded order.

    Every author has a paper in the five years before the reference year
    (so the impact factor is defined) and at least one citation (so the
    mass partition is defined).
    """
    rng = np.random.default_rng([seed, _SALT["author_batch"]])
    sizes = author_sizes()
    rng.shuffle(sizes)
    out = []
    for n in sizes:
        start = LAST_YEAR - int(rng.integers(12, 46))
        pub = _main_span_pub(rng, n, start, LAST_YEAR, 0.03)
        pub[-1] = int(rng.integers(LAST_YEAR - 5, LAST_YEAR))
        by_age = _draw_counts(rng, pub, LAST_YEAR)
        extra = [] if by_age.any() else [(0, int(pub[0]), 1)]
        out.append(_assemble(rng, pub, by_age, extra))
    return out


def sweep_queries(seed: int) -> list[list]:
    """Seeded window queries; even positions plain, odd ones interpolated.

    Kinds: ``["w", pub_start, pub_end, cite_start, cite_end, interp]``
    (a start of None is unbounded), ``["t", y, t, interp]`` and
    ``["h5", y, span, interp]``.  About one windowed query in ten selects
    no papers or no citations.
    """
    rng = np.random.default_rng([seed, _SALT["window_sweep"], 1])
    lo, hi = FIRST_YEAR - 3, LAST_YEAR + 3

    def window():
        a, b = sorted(int(v) for v in rng.integers(lo, hi + 1, 2))
        return (None if rng.random() < 0.25 else a), b

    queries = []
    for i in range(SWEEP_QUERIES):
        interp = bool(i % 2)
        kind = rng.random()
        if kind < 0.4:
            pub, cite = window(), window()
            if rng.random() < 0.1:
                if rng.random() < 0.5:
                    pub = (FIRST_YEAR - 30, FIRST_YEAR - 10)
                else:
                    cite = (FIRST_YEAR - 20, FIRST_YEAR - 1)
            queries.append(["w", pub[0], pub[1], cite[0], cite[1], interp])
        elif kind < 0.7:
            queries.append(["t", int(rng.integers(FIRST_YEAR, hi + 1)), int(rng.integers(0, 46)), interp])
        else:
            queries.append(["h5", int(rng.integers(FIRST_YEAR, hi + 1)), int(rng.integers(0, 11)), interp])
    return queries


def file_order(seed: int, truth: Truth) -> np.ndarray:
    """Seeded order in which papers appear in the files (parsers sort by id)."""
    return np.random.default_rng([seed, 99]).permutation(len(truth))


def csv_pair_bytes(truth: Truth, order) -> tuple[bytes, bytes]:
    papers = io.StringIO()
    writer = csv.writer(papers, lineterminator="\n")
    writer.writerow(("paper_id", "pub_year", "title"))
    pub = truth.pub.tolist()
    for i in order.tolist():
        writer.writerow((truth.ids[i], pub[i], truth.titles[i] or ""))
    years, counts, offsets = truth.years.tolist(), truth.counts.tolist(), truth.offsets.tolist()
    lines = ["paper_id,year,count\n"]
    for i in order.tolist():
        pid = truth.ids[i]
        lines.extend(f"{pid},{years[k]},{counts[k]}\n" for k in range(offsets[i], offsets[i + 1]))
    return papers.getvalue().encode(), "".join(lines).encode()


def json_bytes(truth: Truth, order) -> bytes:
    years, counts, offsets = truth.years.tolist(), truth.counts.tolist(), truth.offsets.tolist()
    pub = truth.pub.tolist()
    entries = []
    for i in order.tolist():
        cites = ", ".join(f'"{years[k]}": {counts[k]}' for k in range(offsets[i], offsets[i + 1]))
        title = json.dumps(truth.titles[i], ensure_ascii=False)
        entries.append(
            f'{{"id": "{truth.ids[i]}", "pub_year": {pub[i]}, "title": {title}, "citations": {{{cites}}}}}'
        )
    return ("[\n" + ",\n".join(entries) + "\n]\n").encode()
