"""Tests of the benchmark itself: a deterministic generator and checks
that accept the library's answers and reject wrong ones.

Run from the repository root: ``python -m pytest -q bench``.
"""

import contextlib
import io
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import citewindow  # noqa: E402
import citewindow.cli  # noqa: E402

import corpusgen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402

REF = corpusgen.LAST_YEAR


@pytest.fixture(scope="module")
def author():
    """A mid-sized author corpus, its JSON bytes and the library's analysis."""
    truth = next(t for t in corpusgen.author_corpora(7) if 40 <= len(t) <= 120)
    blob = corpusgen.json_bytes(truth, corpusgen.file_order(7, truth))
    return truth, blob, worker.analyse_author(citewindow, blob, REF)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert citewindow.cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def author_files(author, tmp_path_factory):
    truth, blob, _ = author
    root = tmp_path_factory.mktemp("author")
    papers, citations = corpusgen.csv_pair_bytes(truth, corpusgen.file_order(3, truth))
    paths = []
    for name, data in (("papers.csv", papers), ("citations.csv", citations), ("corpus.json", blob)):
        (root / name).write_bytes(data)
        paths.append(str(root / name))
    return paths


def test_generator_is_deterministic_per_seed():
    a, b, c = (corpusgen.database_corpus(s) for s in (5, 5, 6))
    order = corpusgen.file_order(5, a)
    assert corpusgen.csv_pair_bytes(a, order) == corpusgen.csv_pair_bytes(b, corpusgen.file_order(5, b))
    assert corpusgen.json_bytes(a, order) == corpusgen.json_bytes(b, order)
    assert not (a.counts.size == c.counts.size and (a.counts == c.counts).all())
    assert corpusgen.sweep_queries(5) == corpusgen.sweep_queries(5) != corpusgen.sweep_queries(6)
    first = [corpusgen.json_bytes(t, corpusgen.file_order(0, t)) for t in corpusgen.author_corpora(5)[:20]]
    again = [corpusgen.json_bytes(t, corpusgen.file_order(0, t)) for t in corpusgen.author_corpora(5)[:20]]
    assert first == again


def test_sizes_are_fixed_and_database_keeps_its_classics():
    for seed in (1, 2):
        truth = corpusgen.database_corpus(seed)
        assert len(truth) == corpusgen.DATABASE_PAPERS + len(corpusgen.OLD_PUB_YEARS)
        assert truth.y0 == min(corpusgen.OLD_PUB_YEARS) and truth.y_end == REF
        old = truth.pub < corpusgen.FIRST_YEAR
        assert (truth.totals[old] > 0).all()
        assert sorted(len(t) for t in corpusgen.author_corpora(seed)) == sorted(corpusgen.author_sizes())
    sizes = corpusgen.author_sizes()
    assert min(sizes) == corpusgen.AUTHOR_MIN_PAPERS and max(sizes) > 500


def test_h_oracle_tries_every_k():
    import numpy as np

    assert oracle.h_of(np.array([], dtype=np.int64)) == 0
    assert oracle.h_of(np.array([0, 0])) == 0
    assert oracle.h_of(np.array([10, 8, 5, 4, 3])) == 4
    assert oracle.h_of(np.array([25, 8, 5, 3, 3])) == 3
    assert oracle.line_point(3, 5, 3) == Fraction(3 * 2 + 5, 3)  # x = 5 + (x - 3)(3 - 5)


def test_checks_accept_the_library(author, author_files):
    import plan

    truth, _, analysis = author
    checks = plan.Checks()
    plan.check_author(checks, truth, analysis)
    assert checks.failures == []
    papers, citations, doc = author_files
    orc = oracle.Oracle(truth)
    oracle.check_validate(truth, _run_cli(["validate", papers, citations]))
    oracle.check_aging_csv(truth, _run_cli(["aging", papers, citations]))
    oracle.check_groups_csv(truth, _run_cli(["groups", papers, citations]), "cumulative")
    oracle.check_groups_csv(truth, _run_cli(["groups", papers, citations, "--mode", "yearly"]), "yearly")
    evolution = _run_cli(["evolution", doc, "--interpolated", "--from", str(truth.y0 + 2)])
    oracle.check_evolution_csv(orc, evolution, [2, 3, 5, 10, "all"], True, truth.y0 + 2)
    index = _run_cli(["index", doc, "--preset", "contemporary", "--interpolated", "--year", str(REF)])
    oracle.check_index_line(truth, index, REF)


def _sweep(truth, blob):
    corpus = citewindow.parse_corpus_json(blob)
    job = {"queries": corpusgen.sweep_queries(3)[:300], "evolution_t": "0,1,2,5,9,all"}
    (answers, table), _ = worker.sweep_round(citewindow, corpus, job)
    return job, worker._sweep_output(answers, table)


def test_window_checks_reject_wrong_answers(author):
    truth, blob, _ = author
    orc = oracle.Oracle(truth)
    job, out = _sweep(truth, blob)
    t_list = [0, 1, 2, 5, 9, "all"]
    oracle.check_queries(orc, job["queries"], out["answers"])
    oracle.check_evolution_values(orc, t_list, out["evolution"])

    k = next(i for i, (h, num, _) in enumerate(out["answers"]) if h > 0 and num is None)
    wrong = [list(a) for a in out["answers"]]
    wrong[k][0] += 1  # h + 1
    with pytest.raises(oracle.CheckFailed, match="h="):
        oracle.check_queries(orc, job["queries"], wrong)

    k = next(i for i, (h, num, den) in enumerate(out["answers"]) if num is not None and Fraction(num, den) > h)
    h, num, den = out["answers"][k]
    wrong = [list(a) for a in out["answers"]]
    off = next(x for x in (h + Fraction(1, 2), h + Fraction(1, 3)) if x != Fraction(num, den))
    wrong[k] = [h, off.numerator, off.denominator]  # inside [h, h + 1) but off the line
    with pytest.raises(oracle.CheckFailed, match="not on the line"):
        oracle.check_queries(orc, job["queries"], wrong)

    wrong = [[list(cell) for cell in col] for col in out["evolution"]]
    j = max(range(len(wrong[-1])), key=lambda j: wrong[-1][j][0])
    wrong[-1][j] = [0, 0, 1]  # the ALL column collapses to 0 in its best year
    with pytest.raises(oracle.CheckFailed, match="t=all"):
        oracle.check_evolution_values(orc, t_list, wrong)


def test_evolution_monotonicity_is_checked_on_its_own(author):
    truth, blob, _ = author
    _, out = _sweep(truth, blob)
    years = list(range(truth.y0, truth.y_end + 1))
    columns = [[Fraction(n, d) for _, n, d in col] for col in out["evolution"]]
    oracle._check_monotone(years, columns)
    j = max(range(len(years)), key=lambda j: columns[-1][j])
    columns[-2][j] = columns[-1][j] + 1
    with pytest.raises(oracle.CheckFailed, match="drops"):
        oracle._check_monotone(years, columns)


def _replace_cell(text: str, row: int, col: int, value: str, table: int = 0) -> str:
    tables = oracle.read_csv_tables(text)
    tables[table][row][col] = value
    return "\n".join("".join(",".join(r) + "\n" for r in t) for t in tables)


def test_aging_check_rejects_a_shifted_quantile(author):
    truth, _, analysis = author
    aging = analysis["csv"][1]
    oracle.check_aging_csv(truth, aging, 0)
    rows = oracle.read_csv_tables(aging)[0]
    k = next(i for i, r in enumerate(rows[1:], start=1) if r[6])
    with pytest.raises(oracle.CheckFailed, match="aging rank"):
        oracle.check_aging_csv(truth, _replace_cell(aging, k, 6, str(int(rows[k][6]) + 1)), 0)
    with pytest.raises(oracle.CheckFailed, match="rows"):
        oracle.check_aging_csv(truth, aging, 1)  # zero-citation papers must not be listed


def test_group_checks_reject_dropped_or_moved_mass(author):
    truth, _, analysis = author
    _, _, manifest, cumulative, yearly_manifest, yearly = analysis["csv"]
    cum_text = manifest + "\n" + cumulative
    yr_text = yearly_manifest + "\n" + yearly
    oracle.check_groups_csv(truth, cum_text, "cumulative")
    oracle.check_groups_csv(truth, yr_text, "yearly")

    rows = manifest.splitlines()
    assert len(rows) > 2
    dropped = "\n".join(rows[:-1]) + "\n\n" + cumulative
    with pytest.raises(oracle.CheckFailed, match="sum"):
        oracle.check_groups_csv(truth, dropped, "cumulative")

    curve = oracle.read_csv_tables(yr_text)[1]
    k = next(i for i in range(1, len(curve) - 1) if curve[i][0] == curve[i + 1][0] and int(curve[i][2]) > 0)
    moved = _replace_cell(yr_text, k, 2, str(int(curve[k][2]) - 1), table=1)
    moved = _replace_cell(moved, k + 1, 2, str(int(curve[k + 1][2]) + 1), table=1)
    with pytest.raises(oracle.CheckFailed, match="differs"):
        oracle.check_groups_csv(truth, moved, "yearly")
    short = _replace_cell(yr_text, k, 2, str(int(curve[k][2]) - 1), table=1)
    with pytest.raises(oracle.CheckFailed, match="sums to"):
        oracle.check_groups_csv(truth, short, "yearly")

    curve = oracle.read_csv_tables(cum_text)[1]
    last = max(i for i in range(1, len(curve)) if curve[i][0] == "1")
    with pytest.raises(oracle.CheckFailed, match="100.00"):
        oracle.check_groups_csv(truth, _replace_cell(cum_text, last, 2, "99.99", table=1), "cumulative")


def test_summary_index_and_export_checks_reject_wrong_values(author, author_files):
    truth, _, analysis = author
    summary = f"{len(truth)} papers, {truth.y0}-{truth.y_end}, {truth.citations} citations\n"
    oracle.check_validate(truth, summary)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_validate(truth, summary.replace(f"{len(truth)} papers", f"{len(truth) + 1} papers"))

    h, num, den = analysis["contemporary"]
    oracle.check_contemporary(truth, REF, h, num, den)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_contemporary(truth, REF, h + 1, None, None)
    index = _run_cli(["index", author_files[2], "--preset", "contemporary", "--interpolated", "--year", str(REF)])
    with pytest.raises(oracle.CheckFailed):
        oracle.check_index_line(truth, index.replace(f"{h} /", f"{h + 1} /"), REF)

    numerator, denominator = analysis["aif"]
    oracle.check_aif(truth, REF, numerator, denominator)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_aif(truth, REF, numerator + 1, denominator)

    papers, citations, doc = (text.encode() for text in analysis["exports"])
    meta, cites = oracle.parse_csv_pair(papers, citations)
    oracle.check_same_corpus(truth, meta, cites, "CSV export")
    pid = next(p for p in cites if cites[p])
    year = next(iter(cites[pid]))
    cites[pid][year] += 1
    with pytest.raises(oracle.CheckFailed, match="citations of"):
        oracle.check_same_corpus(truth, meta, cites, "CSV export")
    meta, cites = oracle.parse_json_doc(doc)
    del meta[pid]
    with pytest.raises(oracle.CheckFailed, match="papers"):
        oracle.check_same_corpus(truth, meta, cites, "JSON export")

    csv_text, json_text = analysis["csv"][0], analysis["json"][0]
    oracle.check_table_json(csv_text, json_text)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_table_json(csv_text, json_text.replace('"year"', '"yr"'))


def test_evolution_csv_check_rejects_a_wrong_cell(author):
    truth, _, analysis = author
    evolution = analysis["csv"][0]
    orc = oracle.Oracle(truth)
    oracle.check_evolution_csv(orc, evolution, [2, 3, 5, 10, "all"], True)
    rows = oracle.read_csv_tables(evolution)[0]
    cell = Fraction(rows[-1][5]) + 1
    with pytest.raises(oracle.CheckFailed, match="t=all"):
        oracle.check_evolution_csv(orc, _replace_cell(evolution, len(rows) - 1, 5, oracle.fixed(cell, 4)),
                                   [2, 3, 5, 10, "all"], True)
