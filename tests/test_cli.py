"""Command line surface: tables, exit codes, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citewindow import PaperRecord, export_corpus_csv, export_corpus_json, parse_corpus_json
from citewindow.cli import main

TOY_JSON = """\
[
  {"id": "P1", "pub_year": 2000, "citations": {"2000": 1, "2001": 3, "2003": 2}},
  {"id": "P2", "pub_year": 2001, "citations": {"2001": 2, "2002": 1}},
  {"id": "P3", "pub_year": 2004, "citations": {"2004": 1, "2005": 1}}
]
"""


@pytest.fixture
def toy_json(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(TOY_JSON)
    return str(path)


@pytest.fixture
def toy_csv(tmp_path, toy_corpus):
    papers, citations = export_corpus_csv(toy_corpus)
    papers_path = tmp_path / "papers.csv"
    citations_path = tmp_path / "citations.csv"
    papers_path.write_bytes(papers)
    citations_path.write_bytes(citations)
    return str(papers_path), str(citations_path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_summary_json_input(self, capsys, tmp_path, toy_json):
        code, out, err = run(capsys, "validate", toy_json)
        assert code == 0
        assert out == "3 papers, 2000-2005, 11 citations\n"
        assert err == ""
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert run(capsys, "validate", str(empty)) == (0, "0 papers, 0 citations\n", "")

    def test_summary_csv_input(self, capsys, toy_csv):
        code, out, _ = run(capsys, "validate", *toy_csv)
        assert code == 0
        assert out == "3 papers, 2000-2005, 11 citations\n"

    def test_missing_header(self, capsys, tmp_path, toy_csv):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,year\nP1,2000\n")
        code, out, err = run(capsys, "validate", str(bad), toy_csv[1])
        assert code == 1
        assert out == ""
        assert "line 1" in err

    def test_pre_publication_citation_needs_lenient(self, capsys, tmp_path):
        doc = tmp_path / "c.json"
        doc.write_text('[{"id":"P","pub_year":2000,"citations":{"1999":1}}]')
        code, _, err = run(capsys, "validate", str(doc))
        assert code == 1
        assert "1999" in err
        code, out, _ = run(capsys, "validate", str(doc), "--lenient")
        assert code == 0
        assert out == "1 papers, 2000-2000, 1 citations\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolution", "--interpolated", "--t-list", "0,1,all"],
            ["aging", "--min-citations", "0"],
            ["groups", "--mode", "yearly"],
            ["index", "--preset", "contemporary", "--year", "2004", "--interpolated"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_subcommand_takes_lenient(self, capsys, tmp_path, argv):
        early = tmp_path / "early.json"
        early.write_text(
            '[{"id":"P","pub_year":2000,"citations":{"1997":2,"1998":1,"2000":1,"2003":4}},'
            '{"id":"Q","pub_year":2001,"citations":{"2001":3,"2002":1}}]'
        )
        clamped = tmp_path / "clamped.json"
        clamped.write_text(
            '[{"id":"P","pub_year":2000,"citations":{"2000":4,"2003":4}},'
            '{"id":"Q","pub_year":2001,"citations":{"2001":3,"2002":1}}]'
        )
        command, *flags = argv
        assert run(capsys, command, str(early), *flags)[0] == 1
        code, out, err = run(capsys, command, str(early), *flags, "--lenient")
        assert (code, out, err) == run(capsys, command, str(clamped), *flags)
        assert (code, err) == (0, "")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 1
        assert err != ""

    def test_three_paths_is_usage_error(self, capsys, toy_json):
        with pytest.raises(SystemExit) as exc:
            main(["validate", toy_json, toy_json, toy_json])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            (b"[" * 100_000, "nested too deeply"),
            (b'[{"id":"P","pub_year":2000,"citations":{"2001":' + b"1" * 5001 + b"}}]", "digits"),
        ],
        ids=["deep", "long-number"],
    )
    def test_unreadable_json_is_one_line(self, capsys, tmp_path, doc, message):
        path = tmp_path / "c.json"
        path.write_bytes(doc)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and message in err


class TestEvolution:
    def test_exact_table(self, capsys, toy_json):
        code, out, _ = run(
            capsys, "evolution", toy_json, "--t-list", "0,1", "--from", "2000", "--to", "2001"
        )
        assert code == 0
        assert out == "year,t=0,t=1\n2000,1,1\n2001,1,2\n"

    def test_default_flags(self, capsys, toy_json):
        code, out, _ = run(capsys, "evolution", toy_json)
        lines = out.splitlines()
        assert lines[0] == "year,t=2,t=3,t=5,t=10,t=all"
        assert len(lines) == 1 + 6  # 2000..2005

    def test_all_column_matches_classic_h(self, capsys, toy_json):
        _, out, _ = run(capsys, "evolution", toy_json, "--t-list", "all")
        assert out.splitlines()[-1] == "2005,2"

    def test_interpolated_cells_truncate_to_plain(self, capsys, toy_json):
        _, plain, _ = run(capsys, "evolution", toy_json)
        _, interp, _ = run(capsys, "evolution", toy_json, "--interpolated")
        for row_p, row_i in zip(plain.splitlines()[1:], interp.splitlines()[1:]):
            for cell_p, cell_i in zip(row_p.split(",")[1:], row_i.split(",")[1:]):
                assert len(cell_i.split(".")[1]) == 4
                assert int(cell_i.split(".")[0]) == int(cell_p)

    def test_columns_nondecreasing_when_t_ascending(self, capsys, toy_json):
        _, out, _ = run(capsys, "evolution", toy_json, "--t-list", "0,1,2,3,4,10,all")
        for line in out.splitlines()[1:]:
            values = [int(c) for c in line.split(",")[1:]]
            assert values == sorted(values)

    def test_json_format(self, capsys, toy_json):
        code, out, _ = run(
            capsys, "evolution", toy_json, "--t-list", "0,1",
            "--from", "2000", "--to", "2001", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["year", "t=0", "t=1"]
        assert doc["rows"] == [["2000", "1", "1"], ["2001", "1", "2"]]

    def test_bad_t_list(self, capsys, toy_json):
        with pytest.raises(SystemExit) as exc:
            main(["evolution", toy_json, "--t-list", "2,x"])
        assert exc.value.code == 2

    def test_inverted_year_range(self, capsys):
        # Both flags given: a flag error, reported before the corpus is read.
        argv = ["evolution", "missing.json", "--from", "2002", "--to", "2001"]
        assert_bad_flag_exits_2(capsys, argv, "--from 2002 is after --to 2001")

    def test_year_range_past_the_corpus_is_a_data_error(self, capsys, toy_json):
        code, _, err = run(capsys, "evolution", toy_json, "--from", "2030")
        assert code == 1
        assert "range" in err


class TestAging:
    def test_example_row(self, capsys, toy_json):
        code, out, _ = run(
            capsys, "aging", toy_json, "--min-citations", "0", "--ref-year", "2003"
        )
        lines = out.splitlines()
        assert lines[0] == "rank,paper_id,pub_year,age,total,t25,t50,t75,t90,recently_cited"
        assert lines[1] == "1,P1,2000,3,6,1,1,3,3,1"
        # P3 is not yet published in 2003 and must not appear.
        assert all("P3" not in line for line in lines)

    def test_rank_order_by_total(self, capsys, toy_json):
        _, out, _ = run(capsys, "aging", toy_json, "--min-citations", "0")
        ids = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert ids == ["P1", "P2", "P3"]

    def test_high_threshold_gives_header_only(self, capsys, toy_json):
        code, out, _ = run(capsys, "aging", toy_json, "--min-citations", "100")
        assert code == 0
        assert out == "rank,paper_id,pub_year,age,total,t25,t50,t75,t90,recently_cited\n"

    def test_custom_quantiles_label_columns(self, capsys, toy_json):
        _, out, _ = run(
            capsys, "aging", toy_json, "--quantiles", "10,99", "--min-citations", "0"
        )
        assert out.splitlines()[0] == "rank,paper_id,pub_year,age,total,t10,t99,recently_cited"

    def test_tiny_quantile_is_the_first_citation_age(self, capsys, tmp_path):
        doc = tmp_path / "c.json"
        doc.write_text(
            '[{"id":"P","pub_year":2000,"citations":{"2003":2147483647,"2006":1}},'
            '{"id":"Q","pub_year":2001,"citations":{"2001":2,"2004":3}}]'
        )
        code, out, err = run(capsys, "aging", str(doc), "--quantiles", "1e-17", "--min-citations", "0")
        assert (code, err) == (0, "")
        assert out == (
            "rank,paper_id,pub_year,age,total,t1e-17,recently_cited\n"
            "1,P,2000,6,2147483648,3,1\n"
            "2,Q,2001,5,5,0,0\n"
        )

    def test_recency_flag(self, capsys, toy_json):
        _, out, _ = run(capsys, "aging", toy_json, "--min-citations", "0")
        by_id = {line.split(",")[1]: line.split(",")[-1] for line in out.splitlines()[1:]}
        # Last two corpus years are 2004-2005: only P3 was cited then.
        assert by_id == {"P1": "0", "P2": "0", "P3": "1"}


class TestGroups:
    def test_yearly_example(self, capsys, toy_json):
        code, out, _ = run(
            capsys, "groups", toy_json, "--mass-fraction", "0.5", "--mode", "yearly"
        )
        assert code == 0
        manifest, curve = out.split("\n\n")
        assert manifest.splitlines() == [
            "group,rank_from,rank_to,mass",
            "1,1,1,6",
            "2,2,3,5",
        ]
        assert curve.splitlines()[0] == "group,t,value"
        assert curve.splitlines()[-2:] == ["2,0,3", "2,1,2"]

    def test_cumulative_example(self, capsys, toy_json):
        _, out, _ = run(
            capsys, "groups", toy_json, "--mass-fraction", "0.5", "--mode", "cumulative"
        )
        lines = out.splitlines()
        assert "2,0,60.00" in lines
        assert "2,1,100.00" in lines

    def test_full_fraction_single_group_saturates(self, capsys, toy_json):
        _, out, _ = run(capsys, "groups", toy_json, "--mass-fraction", "1.0")
        lines = [l for l in out.splitlines() if l]
        assert "1,1,3,11" in lines
        assert lines[-1].endswith(",100.00")

    def test_json_format(self, capsys, toy_json):
        _, out, _ = run(
            capsys, "groups", toy_json, "--mass-fraction", "0.5",
            "--mode", "yearly", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["groups"]["columns"] == ["group", "rank_from", "rank_to", "mass"]
        assert doc["curve"]["rows"][-1] == ["2", "1", "2"]

    def test_empty_corpus_fails(self, capsys, tmp_path):
        doc = tmp_path / "empty.json"
        doc.write_text("[]")
        code, _, err = run(capsys, "groups", str(doc))
        assert code == 1
        assert err != ""


class TestIndex:
    def test_timed(self, capsys, toy_json):
        assert run(capsys, "index", toy_json, "--year", "2001", "--t", "1") == (0, "2\n", "")

    def test_windowed_interpolated(self, capsys, toy_json):
        code, out, _ = run(
            capsys, "index", toy_json,
            "--pub-window", "*:2005", "--cite-window", "*:2005", "--interpolated",
        )
        assert code == 0
        assert out == "2 / 2.5000\n"

    def test_preset_aif(self, capsys, toy_json):
        assert run(capsys, "index", toy_json, "--preset", "aif", "--year", "2002") == (
            0,
            "0.5000\n",
            "",
        )

    def test_preset_aif_outside_window(self, capsys, toy_json):
        code, _, err = run(capsys, "index", toy_json, "--preset", "aif", "--year", "1999")
        assert code == 1
        assert "no papers" in err

    def test_preset_h5(self, capsys, toy_json):
        assert run(capsys, "index", toy_json, "--preset", "h5", "--year", "2005")[1] == "2\n"
        out = run(capsys, "index", toy_json, "--preset", "h5", "--year", "2005", "--span", "0")
        assert out[1] == "1\n"

    def test_preset_contemporary(self, capsys, toy_json):
        code, out, _ = run(
            capsys, "index", toy_json, "--preset", "contemporary", "--year", "2005",
            "--gamma", "4", "--delta", "1",
        )
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize("delta, out", [("100", "0\n"), ("-100", "3\n")])
    def test_preset_contemporary_delta_bound(self, capsys, toy_json, delta, out):
        argv = ["--preset", "contemporary", "--year", "2005", "--delta", delta]
        assert run(capsys, "index", toy_json, *argv) == (0, out, "")

    def test_bounded_window_selector(self, capsys, toy_json):
        code, out, _ = run(
            capsys, "index", toy_json, "--pub-window", "2000:2001", "--cite-window", "2000:2001"
        )
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize("flag", ["--pub-window", "--cite-window"])
    @pytest.mark.parametrize("value", ["x", "2005:2000", "1:2:3", "*:x"])
    def test_bad_window_exits_2_before_the_corpus_is_read(self, capsys, flag, value):
        windows = {"--pub-window": "1:2", "--cite-window": "1:2", flag: value}
        argv = ["index", "missing.json", *(word for pair in windows.items() for word in pair)]
        assert_bad_flag_exits_2(capsys, argv, flag)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--year", "2001", "--t", "1", "--preset", "h5"],
            ["--year", "2001"],
            ["--t", "1"],
            ["--pub-window", "*:2005"],
            ["--year", "2001", "--pub-window", "*:2005", "--cite-window", "*:2005"],
            ["--preset", "aif", "--year", "2002", "--interpolated"],
            ["--preset", "h5", "--year", "2005", "--delta-t", "3"],
            ["--pub-window", "oops:2005", "--cite-window", "*:2005"],
            ["--year", "2001", "--t", "-1"],
            ["--preset", "h5", "--year", "2005", "--span", "-1"],
            ["--preset", "aif", "--year", "2002", "--delta-t", "0"],
            ["--preset", "contemporary", "--year", "2005", "--gamma", "abc"],
            ["--preset", "contemporary", "--year", "2005", "--gamma", "-1"],
            ["--preset", "contemporary", "--year", "2005", "--delta", "0.5"],
            ["--preset", "contemporary", "--year", "2005", "--delta", "101"],
            ["--preset", "contemporary", "--year", "2005", "--delta", "-101"],
            ["--preset", "contemporary", "--year", "2005", "--delta", "99999999999999999999"],
        ],
    )
    def test_usage_errors_exit_2(self, capsys, toy_json, argv):
        with pytest.raises(SystemExit) as exc:
            main(["index", toy_json, *argv])
        assert exc.value.code == 2


def assert_bad_flag_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    assert flag in err.splitlines()[-1]


@pytest.mark.parametrize("value", ["abc", "0", "2"])
def test_groups_bad_mass_fraction_exits_2(capsys, toy_json, value):
    argv = ["groups", toy_json, "--mass-fraction", value]
    assert_bad_flag_exits_2(capsys, argv, "--mass-fraction")


@pytest.mark.parametrize("value", ["abc", "0", "150", ","])
def test_aging_bad_quantiles_exit_2(capsys, toy_json, value):
    assert_bad_flag_exits_2(capsys, ["aging", toy_json, "--quantiles", value], "--quantiles")


@pytest.mark.parametrize("value", ["-1", "2,-1,all"])
def test_evolution_negative_t_list_exits_2(capsys, toy_json, value):
    assert_bad_flag_exits_2(capsys, ["evolution", toy_json, "--t-list", value], "--t-list")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["evolution"], "--from", "999"),
        (["evolution"], "--to", "10000"),
        (["aging"], "--ref-year", "999"),
        (["groups"], "--ref-year", "10000"),
        (["index", "--t", "1"], "--year", "999"),
        (["index", "--preset", "contemporary"], "--year", "100000000000000000000"),
    ],
)
def test_year_flag_outside_bounds_exits_2(capsys, toy_json, command, flag, value):
    argv = [command[0], toy_json, *command[1:], flag, value]
    assert_bad_flag_exits_2(capsys, argv, flag)


@pytest.mark.parametrize("year", ["1000", "9999"])
def test_year_flag_bounds_are_inclusive(capsys, toy_json, year):
    code, out, _ = run(capsys, "evolution", toy_json, "--t-list", "0", "--from", year, "--to", year)
    assert (code, out) == (0, f"year,t=0\n{year},0\n")


class TestOutputHandling:
    def test_output_flag_writes_file(self, tmp_path, capsys, toy_json):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "evolution", toy_json, "--t-list", "0,1",
            "--from", "2000", "--to", "2001", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_bytes() == b"year,t=0,t=1\n2000,1,1\n2001,1,2\n"

    def test_repeated_runs_are_byte_identical(self, capsys, toy_json):
        first = run(capsys, "aging", toy_json, "--min-citations", "0")
        second = run(capsys, "aging", toy_json, "--min-citations", "0")
        assert first == second

    def test_csv_and_json_inputs_agree(self, capsys, toy_json, toy_csv):
        from_json = run(capsys, "evolution", toy_json)
        from_csv = run(capsys, "evolution", *toy_csv)
        assert from_json == from_csv


def test_subcommands_build_no_paper_records(capsys, monkeypatch, toy_json, toy_csv):
    """The command line works on the corpus store alone; records are views for the API."""
    built = []
    post_init = PaperRecord.__post_init__
    monkeypatch.setattr(PaperRecord, "__post_init__", lambda self: built.append(post_init(self)))
    for data in ([toy_json], list(toy_csv)):
        for argv in (
            ["validate", *data, "--lenient"],
            ["aging", *data, "--min-citations", "0"],
            ["groups", *data, "--mass-fraction", "0.3"],
            ["groups", *data, "--mode", "yearly"],
            ["evolution", *data, "--interpolated"],
            ["index", *data, "--year", "2005", "--t", "2", "--interpolated"],
            ["index", *data, "--pub-window", "*:2004", "--cite-window", "2001:2005"],
            ["index", *data, "--preset", "h5", "--year", "2005"],
            ["index", *data, "--preset", "aif", "--year", "2005"],
            ["index", *data, "--preset", "contemporary", "--year", "2005", "--interpolated"],
        ):
            assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert built == []
    parse_corpus_json(TOY_JSON.encode()).papers
    assert len(built) == 3


# Values every flag may draw, then each flag's own valid values, so that
# drawn calls also get past argparse to the corpus and the analyses.
FLAG_VALUES = ("0", "-1", str(10**20), str(-(10**20)), "1e-400", "1e400", "nan", "", "x", "5:1", "*:x")
COMMAND_FLAGS = {
    "validate": {},
    "evolution": {
        "--t-list": ("2,all", "0,1"),
        "--from": ("2001",),
        "--to": ("2004",),
        "--format": ("json",),
    },
    "aging": {
        "--min-citations": ("1",),
        "--quantiles": ("50", "25,100"),
        "--ref-year": ("2004",),
        "--format": ("json",),
    },
    "groups": {
        "--mass-fraction": ("0.5",),
        "--mode": ("yearly",),
        "--ref-year": ("2003",),
        "--format": ("json",),
    },
    "index": {
        "--year": ("2004",),
        "--t": ("2",),
        "--pub-window": ("2000:2004", "*:2005"),
        "--cite-window": ("2001:2005",),
        "--preset": ("h5", "aif", "contemporary"),
        "--span": ("3",),
        "--delta-t": ("2",),
        "--gamma": ("2.5",),
        "--delta": ("1", "100"),
    },
}
SWITCHES = {"evolution": ("--interpolated",), "index": ("--interpolated",)}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Corpus arguments by kind: toy JSON, toy CSV pair, empty, missing, malformed."""
    root = tmp_path_factory.mktemp("corpora")
    toy = parse_corpus_json(TOY_JSON.encode())
    files = {"toy.json": TOY_JSON.encode(), "empty.json": b"[]", "malformed.json": b'[{"id": "P1",'}
    files["papers.csv"], files["citations.csv"] = export_corpus_csv(toy)
    for name, data in files.items():
        (root / name).write_bytes(data)
    return {
        "json": [str(root / "toy.json")],
        "csv": [str(root / "papers.csv"), str(root / "citations.csv")],
        "empty": [str(root / "empty.json")],
        "missing": [str(root / "missing.json")],
        "malformed": [str(root / "malformed.json")],
    }


@st.composite
def cli_calls(draw):
    """(subcommand, corpus kind, flag arguments)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    args = []
    for flag in draw(st.permutations(sorted(flags)))[: draw(st.integers(0, 4))]:
        args += [flag, draw(st.sampled_from(FLAG_VALUES + flags[flag]))]
    args += draw(st.lists(st.sampled_from(("--lenient", *SWITCHES.get(command, ()))), unique=True))
    kind = draw(st.sampled_from(("json", "csv", "empty", "missing", "malformed")))
    return command, kind, args


@given(call=cli_calls())
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_cli_contract(corpora, call):
    """Every call exits 0 or 1, or 2 through argparse; exit 1 writes one
    stderr line; nothing else escapes."""
    command, kind, args = call
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([command, *corpora[kind], *args])
        except SystemExit as exc:
            code = exc.code
            assert code == 2
            assert err.getvalue().startswith("usage:")
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    elif code == 0:
        assert err.getvalue() == ""
