"""``tools/loc.py``: which lines of a source file count as code;
``tools/cli_peaks.py``: trees at paths of a given length, and the commands
run per workload; ``tools/bench_pairs.py``: the detail figures it reads
from a benchmark summary."""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import details, summarize_details  # noqa: E402
from cli_peaks import path_of_length, plan_commands  # noqa: E402
from loc import code_lines  # noqa: E402


def count(*lines: str) -> int:
    return code_lines("\n".join(lines).encode() + b"\n")


def test_blank_lines_comments_and_docstrings_are_not_code():
    source = (
        '"""Module docstring,',
        'on two lines."""',
        "",
        "# a comment",
        "import os  # a comment after code",
        "",
        "",
        "class A:",
        '    """Class docstring."""',
        "",
        "    def f(self):",
        '        """Function',
        '        docstring."""',
        "        return os.sep",
        "",
        "    async def g(self):",
        "        '''Coroutine docstring.'''",
        "        # only a comment",
        "        return 1",
    )
    # import, class, def f, return, async def g, return
    assert count(*source) == 6


def test_multi_line_strings_that_are_not_docstrings_count_every_line():
    source = (
        "def f():",
        "    x = 1",
        '    """A string after the first statement',
        '    is no docstring."""',
        '    return """one',
        "two",
        'three"""',
    )
    assert count(*source) == 7


def test_a_file_of_comments_and_a_docstring_has_no_code():
    assert count('"""Only a docstring."""', "", "# and a comment") == 0


@pytest.mark.parametrize("length", [12, 13, 40])
def test_path_of_length_pads_the_tag_to_the_length(length):
    path = path_of_length("/tmp/x", "b", length)
    assert len(path) == length
    assert path.startswith(os.path.join("/tmp/x", "b"))
    assert set(path[len("/tmp/x/b"):]) <= {"_"}


def test_path_of_length_rejects_a_length_below_the_tag():
    with pytest.raises(ValueError):
        path_of_length("/tmp/x", "b", 7)


def test_database_cli_runs_the_plans_commands():
    plan = {"corpus": ["/in/papers.csv", "/in/citations.csv"], "commands": [["validate", ["validate", "/in/x"]]]}
    assert plan_commands("database_cli", plan) == [["validate", ["-m", "citewindow", "validate", "/in/x"]]]


def test_window_sweep_validates_and_tabulates_the_plans_document(tmp_path):
    doc = str(tmp_path / "corpus.json")
    queries = [["w", None, 2000, None, 2000, False]]
    plan = {"corpus": [doc], "queries": queries, "evolution_t": "0,all", "ref_year": 2024}
    assert plan_commands("window_sweep", plan) == [
        ["validate", ["-m", "citewindow", "validate", doc]],
        ["evolution", ["-m", "citewindow", "evolution", doc, "--interpolated"]],
        *(
            [name, ["bench/worker.py", str(tmp_path / f"{name}_job.json"), str(tmp_path / f"{name}_result.json")]]
            for name in ("setup", "sweep")
        ),
    ]
    # The worker runs from a tree's root, on that tree's sources; the sweep
    # job runs three rounds however long they take.
    common = {"src": "src", "corpus": [doc], "ref_year": 2024}
    assert json.loads((tmp_path / "setup_job.json").read_text()) == {"mode": "setup", **common}
    assert json.loads((tmp_path / "sweep_job.json").read_text()) == {
        "mode": "sweep",
        **common,
        "queries": queries,
        "evolution_t": "0,all",
        "min_rounds": 3,
        "seconds": 0,
        "outputs": str(tmp_path / "sweep_outputs.json"),
    }


# Summaries as ``bench/run.py`` prints them, one per workload.
SWEEP_SUMMARY = """\
== window_sweep: attempted 294840, failed 0
   setup_s                                0.490451 s
   ops_per_s                               72180.9 1/s
   peak_rss_mb                             81.3359 MB
   (rounds: 81)
   (queries_s: 0.02947)
   (evolution_table_s: 0.0209589)
{"correct": true, "attempted": 294840, "failed": 0, "metrics": {"ops_per_s": {"value": 72180.9, "unit": "1/s"}}}
"""

DATABASE_SUMMARY = """\
== database_cli: attempted 84, failed 0
   setup_s                                 2.01234 s
   ops_per_s                              0.512345 1/s
   peak_rss_mb                             90.1234 MB
   (validate_s: 1.23456)
   (aging_s: 1.5)
   (groups_s: 1.61)
   (groups_yearly_s: 1.7)
   (evolution_s: 2.1e-05)
   (index_s: 1.9)
{"correct": true, "attempted": 84, "failed": 0, "metrics": {}}
"""


def test_details_reads_every_detail_line_of_a_summary():
    assert details(SWEEP_SUMMARY) == {"rounds": 81, "queries_s": 0.02947, "evolution_table_s": 0.0209589}
    assert isinstance(details(SWEEP_SUMMARY)["rounds"], int)
    assert details(DATABASE_SUMMARY) == {
        "validate_s": 1.23456,
        "aging_s": 1.5,
        "groups_s": 1.61,
        "groups_yearly_s": 1.7,
        "evolution_s": 2.1e-05,
        "index_s": 1.9,
    }


def test_details_skips_metrics_headers_and_values_that_are_not_numbers():
    summary = "== author_batch: attempted 900, failed 0\n   ops_per_s  1.5 1/s\n   (spans: /x/spans.jsonl)\n   (rounds: 3)\n"
    assert details(summary) == {"rounds": 3}


def test_summarize_details_prints_each_sides_median():
    runs = {
        "base": {"window_sweep": [{"detail": {"rounds": r}} for r in (70, 80, 90)]},
        "change": {"window_sweep": [{"detail": {"rounds": r}} for r in (81, 85)] + [{"error": "exit 1: x"}]},
    }
    header, line = summarize_details(runs, ["window_sweep"])
    assert "not judged" in header
    assert line.split() == ["window_sweep", "rounds", "80", "83"]
