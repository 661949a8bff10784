"""Acceptance gate: package-level guarantees checked end to end.

Every test prints one PASS line for its criterion (run with ``-s`` or
``-rA`` to see them); a failure anywhere means the gate is red.  All
comparisons are exact; the only tolerance in this module is the wall
clock budget of the oracle-equivalence sweep.
"""

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from citewindow import (
    ALL,
    PaperRecord,
    YearWindow,
    author_impact_factor,
    contemporary_h,
    evolution_table,
    export_corpus_csv,
    export_corpus_json,
    group_cumulative_curves,
    group_yearly_counts,
    h_from_ranked,
    interpolate_h,
    parse_corpus_csv,
    parse_corpus_json,
    partition_by_mass,
    quantile_windows,
    timed_h,
    validate_corpus,
    windowed_h,
)
from citewindow.cli import main
from citewindow.rational import format_fixed
from helpers import Oracle, random_corpus, random_window

MASTER_SEED = 20250809
QUARTILES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))

TOY_JSON = (
    '[{"id": "P1", "pub_year": 2000, "citations": {"2000": 1, "2001": 3, "2003": 2}},'
    ' {"id": "P2", "pub_year": 2001, "citations": {"2001": 2, "2002": 1}},'
    ' {"id": "P3", "pub_year": 2004, "citations": {"2004": 1, "2005": 1}}]'
)


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def _corpus_family(count: int, seed_salt: int, **kwargs):
    master = np.random.default_rng(MASTER_SEED + seed_salt)
    for _ in range(count):
        rng = np.random.default_rng(int(master.integers(2**63)))
        yield random_corpus(rng, **kwargs), rng


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for corpus, rng in _corpus_family(100, seed_salt=1):
        oracle = Oracle(corpus)
        for _ in range(1000):
            pub = random_window(rng, corpus)
            cite = random_window(rng, corpus)
            assert windowed_h(corpus, pub, cite).h == oracle.h(pub, cite)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100_000
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s, budget is 10s"
    _report(1, f"windowed_h equals brute-force oracle on 100k window pairs ({elapsed:.2f}s)")


def test_criterion_2_monotonicity_and_coincidence():
    checked = 0
    for corpus, _ in _corpus_family(30, seed_salt=2, max_papers=60, max_career=25):
        y0 = corpus.y0
        for y in range(y0, corpus.y_end + 1):
            career = y - y0
            values = [timed_h(corpus, y, t, interpolated=True) for t in range(career + 4)]
            for shorter, longer in zip(values, values[1:]):
                assert longer.h >= shorter.h
                assert longer.h_interp >= shorter.h_interp
            for t in range(career, career + 4):
                assert values[t] == values[career]
            checked += 1
    _report(2, f"curves never cross and coincide beyond career start ({checked} years)")


def test_criterion_3_terminal_identity():
    corpora = [c for c, _ in _corpus_family(30, seed_salt=3, max_papers=60, max_career=25)]
    corpora.append(parse_corpus_json(TOY_JSON.encode()))
    for corpus in corpora:
        table = evolution_table(corpus, [ALL])
        everything = YearWindow.through(corpus.y_end)
        assert table.value(ALL, corpus.y_end) == windowed_h(corpus, everything, everything)
    _report(3, "ALL column at y_end equals the classic unbounded h-index")


def test_criterion_4_interpolation_sandwich():
    def check(vector):
        h = h_from_ranked(vector)
        interp = interpolate_h(vector, h)
        assert isinstance(interp, Fraction)
        assert h <= interp < h + 1
        assert math.floor(interp) == h

    exhaustive = 0
    for length in range(5):
        for combo in itertools.combinations_with_replacement(range(6), length):
            check(tuple(reversed(combo)))
            exhaustive += 1

    rng = np.random.default_rng(MASTER_SEED + 4)
    for i in range(10_000):
        length = int(rng.integers(0, 41))
        if i % 2 == 0:
            values = sorted((int(v) for v in rng.integers(0, 201, size=length)), reverse=True)
        else:
            values = sorted(
                (
                    Fraction(int(num), int(den))
                    for num, den in zip(
                        rng.integers(0, 401, size=length), rng.integers(1, 9, size=length)
                    )
                ),
                reverse=True,
            )
        check(tuple(values))
    _report(4, f"h <= h_interp < h+1 on {exhaustive} enumerated and 10000 random vectors")


def test_criterion_5_aging_properties():
    papers_checked = 0
    curves_checked = 0
    for corpus, _ in _corpus_family(30, seed_salt=5, max_papers=60, max_career=25):
        for paper in corpus.papers:
            if paper.total_citations() == 0:
                continue
            windows = quantile_windows(paper, QUARTILES, corpus.y_end)
            ts = [windows.t_q[q] for q in QUARTILES]
            assert ts == sorted(ts)
            papers_checked += 1
        if corpus.total_citations() == 0:
            continue
        partition = partition_by_mass(corpus)
        for curve in group_cumulative_curves(corpus, partition):
            if curve:
                assert curve[-1] == Fraction(100)
                curves_checked += 1
    assert papers_checked > 0 and curves_checked > 0
    _report(
        5,
        f"quantile windows are monotone ({papers_checked} papers) and "
        f"{curves_checked} cumulative curves saturate at exactly 100%",
    )


def test_criterion_6_conservation():
    fractions = (Fraction(1, 10), Fraction(15, 100), Fraction(1, 2))
    partitions = 0
    for corpus, _ in _corpus_family(30, seed_salt=6, max_papers=60, max_career=25):
        total = corpus.total_citations()
        if total == 0:
            continue
        for fraction in fractions:
            partition = partition_by_mass(corpus, fraction)
            assert sum(g.mass for g in partition) == total
            ids = [pid for g in partition for pid in g.paper_ids]
            assert sorted(ids) == sorted(p.id for p in corpus.papers)
            assert len(set(ids)) == len(ids)
            for group, counts in zip(partition, group_yearly_counts(corpus, partition)):
                assert sum(counts) == group.mass
            partitions += 1
    assert partitions > 0
    _report(6, f"masses and yearly counts conserve citations on {partitions} partitions")


def test_criterion_7_fixture_exactness(toy_corpus):
    assert timed_h(toy_corpus, 2001, 1).h == 2
    assert timed_h(toy_corpus, 2001, 0).h == 1
    everything = YearWindow.through(2005)
    assert windowed_h(toy_corpus, everything, everything, True).h_interp == Fraction(5, 2)
    assert author_impact_factor(toy_corpus, 2002).value == Fraction(1, 2)
    assert contemporary_h(toy_corpus, 2005, gamma=4, delta=1).h == 2

    windows = quantile_windows(toy_corpus.by_id["P1"], QUARTILES, 2003)
    assert [windows.t_q[q] for q in QUARTILES] == [1, 1, 3, 3]

    partition = partition_by_mass(toy_corpus, Fraction(1, 2))
    second_cumulative = group_cumulative_curves(toy_corpus, partition)[1]
    assert second_cumulative == [Fraction(60), Fraction(100)]
    assert [format_fixed(v, 2) for v in second_cumulative] == ["60.00", "100.00"]
    assert group_yearly_counts(toy_corpus, partition)[1] == [3, 2]
    _report(7, "toy corpus reproduces every derived fixture value exactly")


def test_criterion_8_round_trip():
    stable = 0
    for corpus, _ in _corpus_family(100, seed_salt=8, max_papers=60, max_career=25, with_titles=True):
        papers_csv, citations_csv = export_corpus_csv(corpus)
        assert parse_corpus_csv(papers_csv, citations_csv) == corpus
        json_doc = export_corpus_json(corpus)
        assert parse_corpus_json(json_doc) == corpus
        assert export_corpus_csv(corpus) == (papers_csv, citations_csv)
        assert export_corpus_json(corpus) == json_doc
        stable += 1
    assert stable == 100
    _report(8, "parse(export(c)) == c for CSV and JSON on 100 corpora, byte-stable")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    corpus_path = tmp_path / "toy.json"
    corpus_path.write_text(TOY_JSON)
    argv = [
        "evolution", str(corpus_path),
        "--t-list", "0,1", "--from", "2000", "--to", "2001",
    ]
    expected = "year,t=0,t=1\n2000,1,1\n2001,1,2\n"

    runs = []
    for _ in range(2):
        assert main(list(argv)) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == expected
    assert runs[0] == runs[1]

    result = subprocess.run(
        [sys.executable, "-m", "citewindow", *argv],
        capture_output=True,
        check=True,
    )
    assert result.stdout == expected.encode()
    _report(9, "evolution table is byte-identical across runs and matches the fixture")
