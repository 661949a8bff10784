"""Shared corpus generators and the brute-force h oracle for the test suite.

The seeded numpy generators produce corpora at the scale the acceptance
gate demands; the hypothesis strategies build smaller corpora for
shrinkable property tests.
"""

import numpy as np
from hypothesis import strategies as st

from citewindow import Corpus, PaperRecord, YearWindow, validate_corpus


TITLE_POOL = (None, "On windows", 'a "quoted" title', "commas, everywhere", "über study")


def random_corpus(rng, max_papers=200, max_career=40, max_count=50, with_titles=False) -> Corpus:
    """Seeded random corpus: sparse per-year counts over a bounded career."""
    n_papers = int(rng.integers(1, max_papers + 1))
    y0 = int(rng.integers(1950, 2011))
    career = int(rng.integers(1, max_career + 1))
    last_year = y0 + career - 1
    papers = []
    for i in range(n_papers):
        pub = int(rng.integers(y0, last_year + 1))
        n_years = last_year - pub + 1
        counts = rng.integers(0, max_count + 1, size=n_years)
        counts[rng.random(n_years) < 0.35] = 0
        citations = {pub + j: int(c) for j, c in enumerate(counts) if c > 0}
        title = TITLE_POOL[int(rng.integers(len(TITLE_POOL)))] if with_titles else None
        papers.append(PaperRecord(f"p{i:04d}", pub, citations, title=title))
    # Anchor one paper at y0 so corpus.y0 matches the drawn value.
    papers[0] = PaperRecord(papers[0].id, y0, papers[0].citations, papers[0].title)
    return validate_corpus(papers)


def workload_corpus(seed, papers, classics=0) -> Corpus:
    """Seeded corpus shaped like the benchmark's: ``papers`` published over
    1985..2024, a few more each year, each cited around a heavy-tailed
    lifetime rate spread over an aging profile that peaks a few years after
    publication, and about a third never cited; plus up to five
    ``classics``, centuries-old papers cited in every year of that span."""
    rng = np.random.default_rng(seed)
    years = np.arange(1985, 2025)
    growth = np.exp(0.04 * (years - 1985))
    pub = rng.choice(years, size=papers, p=growth / growth.sum())
    ages = np.arange(years.size)
    profile = (ages + 1) * np.exp(-ages / 3.5)
    rate = np.minimum(30 * rng.pareto(1.7, papers), 20_000)
    rate[rng.random(papers) < 0.3] = 0
    counts = rng.poisson(rate[:, None] * profile / profile[:12].sum())
    counts[ages > (2024 - pub)[:, None]] = 0
    records = [
        PaperRecord(f"P{i:06d}", p, {p + age: c for age, c in enumerate(row) if c}, TITLE_POOL[i % len(TITLE_POOL)])
        for i, (p, row) in enumerate(zip(pub.tolist(), counts.tolist()))
    ]
    for k, year in enumerate((1687, 1736, 1798, 1859, 1905)[:classics]):
        records.append(PaperRecord(f"C{k}", year, {year + 1: 3, **dict.fromkeys(years.tolist(), 25)}))
    return validate_corpus(records)


def random_window(rng, corpus: Corpus, unbounded_p=0.25) -> YearWindow:
    """Random window overlapping (or slightly missing) the corpus span."""
    lo = corpus.y0 - 3
    hi = corpus.y_end + 3
    end = int(rng.integers(lo, hi + 1))
    if rng.random() < unbounded_p:
        return YearWindow(None, end)
    start = int(rng.integers(lo, hi + 1))
    if start > end:
        start, end = end, start
    return YearWindow(start, end)


class Oracle:
    """Brute-force reference: try every k and count the papers that reach it.

    Works from the raw per-paper, per-year count matrix built directly
    off the records; shares no code with the library kernel.
    """

    def __init__(self, corpus):
        self.base = corpus.y0
        self.n_years = corpus.y_end - self.base + 1
        self.raw = np.zeros((len(corpus.papers), self.n_years), dtype=np.int64)
        for row, paper in enumerate(corpus.papers):
            for year, count in paper.citations:
                self.raw[row, year - self.base] = count
        self.pub_years = np.array([p.pub_year for p in corpus.papers], dtype=np.int64)

    def h(self, pub_window: YearWindow, cite_window: YearWindow) -> int:
        included = self.pub_years <= pub_window.end
        if pub_window.start is not None:
            included &= self.pub_years >= pub_window.start
        n = int(included.sum())
        if n == 0:
            return 0
        lo = 0
        if cite_window.start is not None:
            lo = min(max(cite_window.start - self.base, 0), self.n_years)
        hi = min(max(cite_window.end - self.base + 1, 0), self.n_years)
        sums = self.raw[:, lo:hi].sum(axis=1) if hi > lo else np.zeros(len(included), dtype=np.int64)
        counts = np.where(included, sums, -1)
        # For every threshold k in [0, n]: how many papers reach k?
        # (histogram of counts clipped into [-1, n], suffix-summed)
        hist = np.bincount(np.clip(counts, -1, n) + 1, minlength=n + 2)
        reach_k = hist[::-1].cumsum()[::-1][1:]
        ks = np.arange(0, n + 1)
        return int(ks[reach_k >= ks].max())


@st.composite
def small_corpora(draw, max_papers=10, max_span=10, max_count=25):
    """Hypothesis corpora small enough to shrink usefully."""
    y0 = draw(st.integers(1960, 2015))
    n_papers = draw(st.integers(1, max_papers))
    papers = []
    for i in range(n_papers):
        pub = y0 + draw(st.integers(0, max_span - 1))
        offsets = draw(st.lists(st.integers(0, max_span), max_size=6, unique=True))
        citations = {pub + off: draw(st.integers(1, max_count)) for off in offsets}
        papers.append(PaperRecord(f"p{i}", pub, citations))
    return validate_corpus(papers)


@st.composite
def ranked_vectors(draw, max_len=8, max_value=12):
    """Non-increasing vectors of non-negative integers."""
    values = draw(st.lists(st.integers(0, max_value), max_size=max_len))
    return tuple(sorted(values, reverse=True))
