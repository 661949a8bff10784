"""Independent correctness checks for every output the benchmark reads.

Nothing here imports the library.  Expected values come from the
generator's ground truth (:class:`corpusgen.Truth`): h by trying every
k, interpolation by solving the rank/frequency line exactly, quantile
windows and mass groups by direct counting.  Each ``check_*`` function
raises :class:`CheckFailed` naming the first wrong value.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np

QUANTILES = (25, 50, 75, 90)  # the CLI's default aging quantiles, in percent
MIN_CITATIONS = 20  # the CLI's default aging threshold
MASS_PERCENT = 15  # the CLI's default mass fraction, in percent
GAMMA = 4  # contemporary-h defaults (Sidiropoulos et al. 2007)


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fixed(value: Fraction, places: int) -> str:
    """Exact decimal rendering, ties to even, as the output contract states."""
    scale = 10**places
    n = round(Fraction(value) * scale)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // scale}.{n % scale:0{places}d}"


def h_of(counts: np.ndarray) -> int:
    """Largest k such that at least k entries reach k, trying every k."""
    n = counts.size
    if n == 0:
        return 0
    at_least = np.cumsum(np.bincount(np.minimum(counts, n), minlength=n + 1)[::-1])[::-1]
    ks = np.arange(n + 1)
    return int(ks[at_least >= ks].max())


def line_point(h: int, c_h, c_h1) -> Fraction:
    """The x with x = c(h) + (x - h)(c(h+1) - c(h)); 0 when h is 0."""
    if h == 0:
        return Fraction(0)
    c_h, c_h1 = Fraction(c_h), Fraction(c_h1)
    return (c_h + h * (c_h - c_h1)) / (1 + c_h - c_h1)


def kth_largest(values: np.ndarray, k: int) -> int:
    """Value at 1-based rank k in non-increasing order; 0 past the end."""
    if k > values.size:
        return 0
    return int(np.partition(values, values.size - k)[values.size - k])


class Oracle:
    """Window counts straight from the ground-truth rows of one corpus."""

    def __init__(self, truth):
        self.truth = truth
        self.pub = truth.pub
        self.cite_years = np.unique(truth.years)
        raw = np.zeros((self.cite_years.size, len(truth)), dtype=np.int64)
        raw[np.searchsorted(self.cite_years, truth.years), truth.row_paper] = truth.counts
        self.through = np.zeros((self.cite_years.size + 1, len(truth)), dtype=np.int64)
        np.cumsum(raw, axis=0, out=self.through[1:])

    def counts(self, pub_start, pub_end, cite_start, cite_end) -> np.ndarray:
        """Citations in [cite_start, cite_end] of papers published in
        [pub_start, pub_end]; a start of None is unbounded."""
        mask = self.pub <= pub_end
        if pub_start is not None:
            mask &= self.pub >= pub_start
        hi = np.searchsorted(self.cite_years, cite_end, side="right")
        lo = 0 if cite_start is None else np.searchsorted(self.cite_years, cite_start, side="left")
        if hi <= lo:
            return np.zeros(int(mask.sum()), dtype=np.int64)
        return (self.through[hi] - self.through[lo])[mask]

    def expected(self, counts: np.ndarray) -> tuple[int, Fraction]:
        h = h_of(counts)
        if h == 0:
            return 0, Fraction(0)
        return h, line_point(h, kth_largest(counts, h), kth_largest(counts, h + 1))

    def windowed(self, pub_start, pub_end, cite_start, cite_end):
        return self.expected(self.counts(pub_start, pub_end, cite_start, cite_end))

    def timed(self, y: int, t: int):
        return self.windowed(y - t, y, y - t, y)

    def h5(self, y: int, span: int):
        return self.windowed(None, y, y - span, y)

    def query(self, q: list):
        if q[0] == "w":
            return self.windowed(q[1], q[2], q[3], q[4])
        if q[0] == "t":
            return self.timed(q[1], q[2])
        return self.h5(q[1], q[2])


def check_value(expected, got_h: int, got_x, what: str) -> None:
    """An exact (h, interpolated-or-None) answer against the oracle."""
    h, x = expected
    require(got_h == h, f"{what}: h={got_h}, expected {h}")
    if got_x is None:
        return
    got_x = Fraction(got_x)
    require(h <= got_x < h + 1, f"{what}: interpolated {got_x} outside [{h}, {h + 1})")
    require(got_x == x, f"{what}: interpolated {got_x} is not on the line, expected {x}")


def check_queries(oracle: Oracle, queries: list, answers: list) -> None:
    """Answers are [h, numerator, denominator] with None parts when plain."""
    require(len(answers) == len(queries), f"{len(answers)} answers for {len(queries)} queries")
    for q, (h, num, den) in zip(queries, answers):
        check_value(oracle.query(q), h, None if num is None else Fraction(num, den), f"query {q}")


def _years_of_evolution(oracle: Oracle, y_from, y_to):
    truth = oracle.truth
    return range(truth.y0 if y_from is None else y_from, (truth.y_end if y_to is None else y_to) + 1)


def expected_evolution(oracle: Oracle, t_values: list, y_from=None, y_to=None) -> list[list]:
    """Cells[i][j] for t_values[i] (an int, or "all") at the j-th year."""
    y0 = oracle.truth.y0
    years = _years_of_evolution(oracle, y_from, y_to)
    return [[oracle.timed(y, max(y - y0, 0) if t == "all" else t) for y in years] for t in t_values]


def check_evolution_values(oracle: Oracle, t_values: list, cells: list, y_from=None, y_to=None) -> None:
    """Exact cells, [h, num, den] per cell, with windows ascending and "all" last."""
    expected = expected_evolution(oracle, t_values, y_from, y_to)
    require(len(cells) == len(expected), f"{len(cells)} evolution columns, expected {len(expected)}")
    years = list(_years_of_evolution(oracle, y_from, y_to))
    for t, column, want in zip(t_values, cells, expected):
        require(len(column) == len(want), f"evolution t={t}: {len(column)} years, expected {len(want)}")
        for y, (h, num, den), exp in zip(years, column, want):
            check_value(exp, h, None if num is None else Fraction(num, den), f"evolution t={t} y={y}")
    _check_monotone(years, [[Fraction(n, d) if n is not None else h for h, n, d in col] for col in cells])


def _check_monotone(years, columns) -> None:
    for j, y in enumerate(years):
        for i in range(1, len(columns)):
            require(
                columns[i][j] >= columns[i - 1][j],
                f"evolution y={y}: value drops from {columns[i - 1][j]} to {columns[i][j]} as t grows",
            )


def read_csv_tables(text: str) -> list[list[list[str]]]:
    """Tables separated by a blank line, each a list of rows with its header first."""
    out = []
    for block in text.split("\n\n"):
        if block.strip():
            out.append(list(csv.reader(io.StringIO(block))))
    return out


def check_evolution_csv(oracle: Oracle, text: str, t_values: list, interpolated: bool, y_from=None) -> None:
    """Rendered evolution table: header, one row per year, 4-place cells."""
    (table,) = read_csv_tables(text)
    header = ["year"] + [f"t={t}" for t in t_values]
    require(table[0] == header, f"evolution header {table[0]}, expected {header}")
    years = list(_years_of_evolution(oracle, y_from, None))
    rows = table[1:]
    require([r[0] for r in rows] == [str(y) for y in years], "evolution rows do not cover the year range")
    expected = expected_evolution(oracle, t_values, y_from)
    for i, t in enumerate(t_values):
        for j, y in enumerate(years):
            h, x = expected[i][j]
            want = fixed(x, 4) if interpolated else str(h)
            require(rows[j][i + 1] == want, f"evolution t={t} y={y}: {rows[j][i + 1]}, expected {want}")
    _check_monotone(years, [[Fraction(r[i + 1]) for r in rows] for i in range(len(t_values))])


def check_validate(truth, text: str) -> None:
    want = f"{len(truth)} papers, {truth.y0}-{truth.y_end}, {truth.citations} citations\n"
    require(text == want, f"validate printed {text!r}, expected {want!r}")


def contemporary(truth, y: int, gamma: int = GAMMA) -> tuple[int, Fraction]:
    """Age-discounted h (delta = 1): score gamma * c / age, age = y - pub + 1.

    h is found by integer cross-multiplication, gamma * c >= k * age; only
    the two scores that fix the interpolation line become Fractions.
    """
    keep = truth.pub <= y
    through_y = np.bincount(
        truth.row_paper[truth.years <= y], weights=truth.counts[truth.years <= y], minlength=len(truth)
    ).astype(np.int64)
    c = through_y[keep]
    age = (y - truth.pub + 1)[keep]
    h = 0
    while np.count_nonzero(gamma * c >= (h + 1) * age) >= h + 1:
        h += 1
    if h == 0:
        return 0, Fraction(0)
    order = np.argsort(-(gamma * c) / age, kind="stable")  # float order, refined exactly below
    head = sorted((Fraction(gamma * int(c[i]), int(age[i])) for i in order[: h + 50]), reverse=True)
    c_h1 = head[h] if h < len(head) else Fraction(0)
    return h, line_point(h, head[h - 1], c_h1)


def check_index_line(truth, text: str, y: int) -> None:
    """``index --preset contemporary --interpolated`` prints "h / x.xxxx"."""
    h, x = contemporary(truth, y)
    want = f"{h} / {fixed(x, 4)}\n"
    require(text == want, f"contemporary index printed {text!r}, expected {want!r}")


def check_contemporary(truth, y: int, got_h: int, num, den) -> None:
    h, x = contemporary(truth, y)
    check_value((h, x), got_h, None if num is None else Fraction(num, den), f"contemporary_h at {y}")


def check_aif(truth, y: int, numerator: int, denominator: int, delta_t: int = 5) -> None:
    selected = (truth.pub >= y - delta_t) & (truth.pub <= y - 1)
    in_focal = truth.years == y
    want_num = int(truth.counts[in_focal & selected[truth.row_paper]].sum())
    want = (want_num, int(selected.sum()))
    require((numerator, denominator) == want, f"impact factor {numerator}/{denominator}, expected {want[0]}/{want[1]}")


def _ranked(truth, ref_year: int) -> tuple[list[int], np.ndarray]:
    """Paper indices published by ref_year, most cited (up to ref_year) first,
    ties by id; and every paper's total up to ref_year."""
    upto = truth.years <= ref_year
    totals = np.bincount(truth.row_paper[upto], weights=truth.counts[upto], minlength=len(truth)).astype(np.int64)
    papers = [i for i in range(len(truth)) if truth.pub[i] <= ref_year]
    papers.sort(key=lambda i: (-int(totals[i]), truth.ids[i]))
    return papers, totals


def check_aging_csv(truth, text: str, min_citations: int = MIN_CITATIONS, ref_year=None) -> None:
    """Every row's rank, totals and t_q recomputed from the ground truth."""
    ref_year = truth.y_end if ref_year is None else ref_year
    (table,) = read_csv_tables(text)
    header = ["rank", "paper_id", "pub_year", "age", "total"] + [f"t{q}" for q in QUANTILES] + ["recently_cited"]
    require(table[0] == header, f"aging header {table[0]}, expected {header}")
    ranked, totals = _ranked(truth, ref_year)
    eligible = [i for i in ranked if totals[i] >= min_citations]
    rows = table[1:]
    require(len(rows) == len(eligible), f"aging has {len(rows)} rows, expected {len(eligible)}")
    for rank, (row, i) in enumerate(zip(rows, eligible), start=1):
        total = int(totals[i])
        pairs = [(y, c) for y, c in truth.rows_of(i) if y <= ref_year]
        recent = any(y >= ref_year - 1 for y, _ in pairs)
        want = [str(rank), truth.ids[i], str(truth.pub[i]), str(ref_year - truth.pub[i]), str(total)]
        want += [str(_t_q(pairs, int(truth.pub[i]), total, q)) if total else "" for q in QUANTILES]
        want += ["1" if recent else "0"]
        require(row == want, f"aging rank {rank}: {row}, expected {want}")


def _t_q(pairs, pub_year: int, total: int, q: int) -> int:
    """Smallest t with 100 * (citations in pub_year..pub_year + t) >= q * total."""
    running = 0
    for year, count in pairs:
        running += count
        if 100 * running >= q * total:
            return year - pub_year
    raise CheckFailed("quantile never reached")


def expected_groups(truth, ref_year=None, percent: int = MASS_PERCENT):
    """Greedy mass groups: [(rank_from, rank_to, mass, yearly counts by age)]."""
    ref_year = truth.y_end if ref_year is None else ref_year
    ranked, totals = _ranked(truth, ref_year)
    grand = int(sum(int(totals[i]) for i in ranked))
    groups, members, mass, first = [], [], 0, 1
    for rank, i in enumerate(ranked, start=1):
        members.append(i)
        mass += int(totals[i])
        if 100 * mass >= percent * grand or rank == len(ranked):
            yearly: dict[int, int] = {}
            for p in members:
                for y, c in truth.rows_of(p):
                    if y <= ref_year:
                        age = y - int(truth.pub[p])
                        yearly[age] = yearly.get(age, 0) + c
            curve = [yearly.get(a, 0) for a in range(max(yearly) + 1)] if yearly else []
            groups.append((first, rank, mass, curve))
            members, mass, first = [], 0, rank + 1
    return groups, grand


def check_groups_csv(truth, text: str, mode: str, ref_year=None, percent: int = MASS_PERCENT) -> None:
    """Manifest and curve table of ``groups`` in either mode."""
    manifest, curve = read_csv_tables(text)
    require(manifest[0] == ["group", "rank_from", "rank_to", "mass"], f"groups header {manifest[0]}")
    require(curve[0] == ["group", "t", "value"], f"curve header {curve[0]}")
    groups, grand = expected_groups(truth, ref_year, percent)
    rows = [[int(v) for v in r] for r in manifest[1:]]
    masses = [r[3] for r in rows]
    require(sum(masses) == grand, f"group masses sum to {sum(masses)}, expected {grand}")
    for r in rows[:-1]:
        require(100 * r[3] >= percent * grand, f"group {r[0]} mass {r[3]} misses the {percent}% target")
    require(len(rows) == len(groups), f"{len(rows)} groups, expected {len(groups)}")
    curves: dict[int, list[str]] = {}
    for g, t, value in curve[1:]:
        points = curves.setdefault(int(g), [])
        require(int(t) == len(points), f"group {g} curve skips to t={t}")
        points.append(value)
    for k, (row, (first, last, mass, yearly)) in enumerate(zip(rows, groups), start=1):
        require(row == [k, first, last, mass], f"group row {row}, expected {[k, first, last, mass]}")
        got = curves.get(k, [])
        if mode == "yearly":
            values = [int(v) for v in got]
            require(sum(values) == mass, f"group {k} yearly curve sums to {sum(values)}, not its mass {mass}")
            require(values == yearly, f"group {k} yearly curve differs from the ground truth")
            continue
        percents = [Fraction(v) for v in got]
        require(all(b >= a for a, b in zip(percents, percents[1:])), f"group {k} cumulative curve decreases")
        if mass:
            require(got and got[-1] == "100.00", f"group {k} cumulative curve ends at {got[-1:]}, not 100.00")
        running, want = 0, []
        for count in yearly:
            running += count
            want.append(fixed(Fraction(100 * running, mass), 2))
        require(got == want, f"group {k} cumulative curve differs from the ground truth")


def parse_csv_pair(papers: bytes, citations: bytes):
    """(id -> (pub_year, title), id -> {year: count}) read with the csv module."""
    rows = list(csv.reader(io.StringIO(papers.decode())))
    require(rows[0] == ["paper_id", "pub_year", "title"], f"papers header {rows[0]}")
    meta = {r[0]: (int(r[1]), r[2] or None) for r in rows[1:]}
    cites: dict[str, dict[int, int]] = {pid: {} for pid in meta}
    rows = list(csv.reader(io.StringIO(citations.decode())))
    require(rows[0] == ["paper_id", "year", "count"], f"citations header {rows[0]}")
    for pid, year, count in rows[1:]:
        cites[pid][int(year)] = int(count)
    return meta, cites


def parse_json_doc(data: bytes):
    meta, cites = {}, {}
    for obj in json.loads(data):
        meta[obj["id"]] = (obj["pub_year"], obj.get("title"))
        cites[obj["id"]] = {int(y): c for y, c in obj["citations"].items()}
    return meta, cites


def check_same_corpus(truth, meta: dict, cites: dict, what: str) -> None:
    """A parsed export (``parse_csv_pair``/``parse_json_doc``) equals the ground truth."""
    require(len(meta) == len(truth), f"{what}: {len(meta)} papers, expected {len(truth)}")
    for i, pid in enumerate(truth.ids):
        require(meta.get(pid) == (int(truth.pub[i]), truth.titles[i]), f"{what}: paper {pid} differs")
        require(cites[pid] == dict(truth.rows_of(i)), f"{what}: citations of {pid} differ")


def check_table_json(csv_text: str, json_text: str) -> None:
    """A table's JSON rendering holds the same cells as its CSV rendering."""
    (table,) = read_csv_tables(csv_text)
    doc = json.loads(json_text)
    require(doc == {"columns": table[0], "rows": table[1:]}, "JSON rendering differs from the CSV rendering")
