"""Golden CLI outputs: each subcommand shape reproduces committed bytes.

The corpus is a seeded ``helpers.random_corpus`` of about 2 000 titled
papers plus one paper published centuries before the rest, written in
both layouts.  Every command runs on both layouts and must print exactly
the bytes stored under ``tests/data/golden/``; the exports must hash to
the digests stored there.  ``ingest_errors.json`` holds the exception
class, message and locator, or the export of a lenient parse, that each
input of :func:`ingest_faults` gives.  Regenerate the files only when an
output change is intended, all of them or only the named shapes
(``errors`` names the ingest file)::

    PYTHONPATH=src:tests python tests/test_golden.py [NAME ...]

A new shape's bytes come from the code before the change it guards.
"""

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from citewindow import (
    IngestOptions,
    PaperRecord,
    export_corpus_csv,
    export_corpus_json,
    parse_corpus_csv,
    parse_corpus_json,
    validate_corpus,
)
from citewindow.cli import main
from helpers import random_corpus

GOLDEN = Path(__file__).parent / "data" / "golden"
SEED = 7


def golden_corpus():
    corpus = random_corpus(np.random.default_rng(SEED), max_papers=2200, with_titles=True)
    cited = range(corpus.y_end - 20, corpus.y_end + 1)
    classic = PaperRecord("classic", 1687, {year: 3 for year in cited}, title="Principia")
    return validate_corpus([*corpus.papers, classic])


def _commands(corpus) -> dict:
    """Name -> argv, with the corpus given as "DATA" (one layout or the other)."""
    first, ref, after = str(corpus.y_end - 30), str(corpus.y_end), str(corpus.y_end + 1)
    return {
        "validate": ["validate", "DATA"],
        "aging": ["aging", "DATA"],
        "groups": ["groups", "DATA"],
        "groups_yearly": ["groups", "DATA", "--mode", "yearly"],
        "groups_json": ["groups", "DATA", "--format", "json"],
        "evolution": ["evolution", "DATA", "--interpolated", "--from", first],
        "evolution_json": ["evolution", "DATA", "--interpolated", "--from", first, "--format", "json"],
        "evolution_plain": ["evolution", "DATA", "--t-list", "0,1,4,all", "--from", first, "--to", after],
        "contemporary": ["index", "DATA", "--preset", "contemporary", "--interpolated", "--year", ref],
        "aif": ["index", "DATA", "--preset", "aif", "--year", ref],
        "h5": ["index", "DATA", "--preset", "h5", "--interpolated", "--year", ref],
    }


def _exports(corpus) -> dict:
    papers, citations = export_corpus_csv(corpus)
    return {"papers.csv": papers, "citations.csv": citations, "corpus.json": export_corpus_json(corpus)}


def _layouts(directory: Path, exports: dict) -> dict:
    for name, data in exports.items():
        (directory / name).write_bytes(data)
    return {
        "csv": [str(directory / "papers.csv"), str(directory / "citations.csv")],
        "json": [str(directory / "corpus.json")],
    }


def _run(argv, data) -> str:
    i = argv.index("DATA")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[:i] + data + argv[i + 1 :]) == 0
    return out.getvalue()


def _digests(exports: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in exports.items()}


PAPERS = "paper_id,pub_year,title\n"
CITATIONS = "paper_id,year,count\n"
GOOD_PAPERS = PAPERS + "A,2000,\nB,2001,x\nC,2002,\n"


def _csv(papers, citations=CITATIONS, lenient=False):
    return "csv", (papers, citations), lenient


def _cites(body, lenient=False):
    return _csv(GOOD_PAPERS, CITATIONS + body, lenient)


def _json(doc, lenient=False):
    return "json", (doc,), lenient


_MISSING = object()


def _paper(**fields):
    """A good JSON paper with ``fields`` replaced, or removed when ``_MISSING``."""
    entry = {"id": "P", "pub_year": 2000, "citations": {"2001": 1}}
    entry.update(fields)
    return {key: value for key, value in entry.items() if value is not _MISSING}


def _papers(*entries):
    return json.dumps([{"id": "A", "pub_year": 2000, "citations": {"2000": 2}}, *entries])


def ingest_faults() -> dict:
    """Name -> (layout, file texts or bytes, lenient) of every faulty input the
    parsers must reject, and a few lenient ones they must accept."""
    long_title = "t" * (csv.field_size_limit() + 1)
    many = "".join(f"A,{1000 + k},1\n" for k in range(9000))
    return {
        # CSV papers file: decoding, header, field counts, ids, publication years.
        "papers_not_utf8": _csv(b"\xff\xfe1234"),
        "citations_not_utf8": _csv(GOOD_PAPERS, b"paper_id,year,count\n\xff\n"),
        "papers_empty": _csv(""),
        "papers_blank_header": _csv("\n" + GOOD_PAPERS),
        "papers_bad_header": _csv("id,year\nP1,2000\n"),
        "papers_header_extra_field": _csv("paper_id,pub_year,title,x\n"),
        "papers_bom_header": _csv("\ufeff" + GOOD_PAPERS),
        "papers_quoted_bad_header": _csv('"paper_id,pub_year",title\n'),
        "citations_empty": _csv(GOOD_PAPERS, ""),
        "citations_bad_header": _csv(GOOD_PAPERS, "paper_id,year\n"),
        "citations_header_crlf_only": _csv(GOOD_PAPERS, "paper_id,year,count\r\n"),
        "papers_one_field_first_line": _csv(PAPERS + "P1\n"),
        "papers_four_fields_middle": _csv(PAPERS + "A,2000,\nB,2001,x,y\nC,2002,\n"),
        "papers_spaces_line": _csv(PAPERS + "A,2000,\n \n"),
        "papers_no_title_extra_field": _csv("paper_id,pub_year\nA,2000\nB,2001,x\n"),
        "papers_no_title_last_line": _csv("paper_id,pub_year\nA,2000\nB", CITATIONS),
        "papers_empty_id": _csv(PAPERS + "A,2000,\n,2001,\n"),
        "papers_empty_id_twice": _csv(PAPERS + ",2000,\n,2001,\n"),
        "papers_duplicate_id": _csv(GOOD_PAPERS + "B,2003,\n"),
        "papers_duplicate_id_bad_year": _csv(GOOD_PAPERS + "A,x,\n"),
        "papers_bad_year_first_line": _csv(PAPERS + "A,20x0,\nB,2001,\n"),
        "papers_bad_year_middle": _csv(PAPERS + "A,2000,\nB,999,\nC,2002,\n"),
        "papers_bad_year_last_line": _csv(PAPERS + "A,2000,\nB,10000,"),
        "papers_year_space": _csv(PAPERS + "A, 2000,\n"),
        "papers_year_empty": _csv(PAPERS + "A,,\n"),
        "papers_year_negative": _csv(PAPERS + "A,-2000,\n"),
        "papers_year_arabic_digits": _csv(PAPERS + "A,٢٠٠٠,\n"),
        "papers_year_huge": _csv(PAPERS + "A," + "9" * 40 + ",\n"),
        "papers_year_before_field_count": _csv(PAPERS + "A,2000,\nB,x,\nC,2002,,\n"),
        "papers_field_count_before_year": _csv(PAPERS + "A,2000,\nB,2001\nC,x,\n"),
        "papers_blank_lines": _csv(PAPERS + "\nA,2000,\n\n\nB,x,\n"),
        "papers_crlf": _csv(GOOD_PAPERS.replace("\n", "\r\n") + "D,x,\r\n"),
        "papers_bare_cr": _csv(PAPERS + "A,2000,ok\nB,2001,a\rb\n"),
        "papers_bare_cr_at_end": _csv(PAPERS + "A,2000,ok\r", CITATIONS + "A,1999,1\r"),
        "papers_quoted_bad_year": _csv(PAPERS + 'A,2000,"a, b"\nB,20x1,\n'),
        "papers_quoted_newline_title": _csv(PAPERS + 'A,2000,"a\nb"\nB,20x1,\n'),
        "papers_quoted_field_count": _csv(PAPERS + 'A,2000,"x"\n"B",2001\n'),
        "papers_field_limit": _csv(PAPERS + "A,2000,\nB,2001," + long_title + "\n"),
        "papers_field_limit_quoted": _csv(PAPERS + 'A,2000,"q"\nB,2001,' + long_title + "\n"),
        "papers_field_limit_and_count": _csv(PAPERS + "A,2000,\nB,2001," + long_title + ",x\n"),
        # CSV citations file: field counts, ids, years, counts, repeats.
        "citations_unknown_id_first_line": _cites("Z,2001,1\nA,2001,1\n"),
        "citations_bad_year_first_line": _cites("A,20x1,1\n"),
        "citations_bad_year_middle": _cites("A,2001,1\nB,2002,1\nC,999,1\nA,2003,1\n"),
        "citations_bad_year_last_line": _cites("A,2001,1\nB,2002,1\nC,10000,1"),
        "citations_year_plus": _cites("A,+2001,1\n"),
        "citations_year_underscore": _cites("A,2_001,1\n"),
        "citations_year_fullwidth": _cites("A,２００１,1\n"),
        "citations_count_zero": _cites("A,2001,0\n"),
        "citations_count_negative": _cites("A,2001,1\nA,2002,-3\n"),
        "citations_count_too_big": _cites("A,2001,2147483648\n"),
        "citations_count_huge": _cites("A,2001," + "9" * 40 + "\n"),
        "citations_count_float": _cites("A,2001,3.0\n"),
        "citations_count_exponent": _cites("A,2001,1e3\n"),
        "citations_count_empty": _cites("A,2001,\n"),
        "citations_two_fields": _cites("A,2001,1\nA,2002\n"),
        "citations_four_fields_last_line": _cites("A,2001,1\nA,2002,1,1"),
        "citations_realigned_fields": _csv("paper_id,pub_year\nP1,2000\nP2,2000\n", CITATIONS + "P1,2000\n1,P2,2001,3\n"),
        "citations_unknown_id_before_bad_year": _cites("A,2001,1\nZ,20x1,1\n"),
        "citations_bad_year_before_bad_count": _cites("A,20x1,0\n"),
        "citations_field_count_before_unknown_id": _cites("Z,2001\n"),
        "citations_blank_lines": _cites("\nA,2001,1\n\n\nA,x,1\n"),
        "citations_crlf": _cites("A,2001,1\r\nB,2002,1\r\n\r\nB,2003,x\r\n"),
        "citations_crlf_last_line": _cites("A,2001,1\r\nB,2002,1\r\nB,2003,x"),
        "citations_quoted": _cites('"A",2001,1\n"B",2002,1\n"B",20x2,1\n'),
        "citations_quoted_newline_id": _csv(PAPERS + '"A\nB",2000,\n', CITATIONS + '"A\nB",2001,1\n"A\nB",2001,2\n'),
        "citations_bare_cr": _cites("A,2001,1\nA,2002,1\rB,2003,1\n"),
        "citations_field_limit": _cites("A,2001,1\nA,2002," + "1" * 131073 + "\n"),
        "citations_duplicate_row": _cites("A,2001,1\nB,2002,1\nA,2001,2\n"),
        "citations_duplicate_before_bad_row": _cites("A,2006,1\nA,2006,2\nB,2007,x\nZ,2007,1\n"),
        "citations_duplicate_after_bad_row": _cites("A,2006,1\nB,2007,x\nA,2006,2\n"),
        "citations_duplicate_before_unknown_id": _cites("A,2006,1\nA,2006,2\nZ,2007,1\n"),
        "citations_duplicate_before_field_count": _cites("A,2006,1\nA,2006,2\nB,2007\n"),
        "citations_duplicate_before_malformed": _cites('A,2006,1\nA,2006,2\nB,"2007"x,1\rq\n'),
        "citations_duplicate_before_range": _cites("A,2006,1\nC,2001,1\nA,2006,2\n"),
        "citations_duplicate_lenient": _cites("A,2006,1\nA,2006,2\nB,1990,1\n", lenient=True),
        "citations_duplicate_many_rows": _cites(many + "A,1005,2\n" + "B,x,1\n"),
        "citations_bad_row_many_rows": _cites(many + "B,x,1\n" + "A,1005,2\n"),
        "citations_many_rows": _cites(many),
        "citations_before_publication": _csv(
            PAPERS + "Z,2005,\nA,2005,\n", CITATIONS + "A,2001,1\nZ,2003,1\nZ,2002,4\nZ,2005,2\n"
        ),
        "citations_before_publication_lenient": _csv(
            PAPERS + "Z,2005,\nA,2005,\n", CITATIONS + "A,2001,1\nZ,2003,1\nZ,2002,4\nZ,2005,2\n", True
        ),
        "citations_lenient_bad_row": _cites("A,1990,1\nB,x,1\n", lenient=True),
        "citations_lenient_quoted": _csv(PAPERS + '"x,y",2000,"t"\n', CITATIONS + '"x,y",1999,2\n"x,y",2000,1\n', True),
        # JSON document.
        "json_not_utf8": _json(b'[{"id": "\xff"}]'),
        "json_invalid": _json("[\n{]"),
        "json_empty": _json(""),
        "json_top_level_object": _json('{"id": "P"}'),
        "json_entry_not_object_first": _json("[42]"),
        "json_entry_not_object_middle": _json(_papers([1], _paper())),
        "json_entry_not_object_last": _json(_papers(_paper(), None)),
        "json_unknown_key": _json(_papers(_paper(extra=1))),
        "json_unknown_and_missing_keys": _json(_papers(_paper(extra=1, id=_MISSING))),
        "json_missing_id": _json(_papers(_paper(id=_MISSING))),
        "json_missing_pub_year": _json(_papers(_paper(pub_year=_MISSING))),
        "json_missing_citations": _json(_papers(_paper(citations=_MISSING))),
        "json_missing_pub_year_and_citations": _json(_papers(_paper(pub_year=_MISSING, citations=_MISSING))),
        "json_missing_all": _json("[{}]"),
        "json_id_empty": _json(_papers(_paper(id=""))),
        "json_id_number": _json(_papers(_paper(id=5))),
        "json_id_null": _json(_papers(_paper(id=None))),
        "json_duplicate_id": _json(_papers(_paper(id="A"))),
        "json_duplicate_id_bad_pub_year": _json(_papers(_paper(id="A", pub_year="x"))),
        "json_pub_year_string": _json(_papers(_paper(pub_year="2000"))),
        "json_pub_year_float": _json(_papers(_paper(pub_year=2000.0))),
        "json_pub_year_bool": _json(_papers(_paper(pub_year=True))),
        "json_pub_year_low": _json(_papers(_paper(pub_year=999))),
        "json_pub_year_high": _json(_papers(_paper(pub_year=10000))),
        "json_pub_year_huge": _json(_papers(_paper(pub_year=10**23))),
        "json_pub_year_before_title": _json(_papers(_paper(pub_year=1, title=7))),
        "json_title_number": _json(_papers(_paper(title=7))),
        "json_title_before_citations": _json(_papers(_paper(title=[], citations=[]))),
        "json_citations_list": _json(_papers(_paper(citations=[]))),
        "json_citations_null": _json(_papers(_paper(citations=None))),
        "json_year_key_word": _json(_papers(_paper(citations={"x": 1}))),
        "json_year_key_low": _json(_papers(_paper(citations={"2001": 1, "999": 1}))),
        "json_year_key_high": _json(_papers(_paper(citations={"10000": 1}))),
        "json_year_key_space": _json(_papers(_paper(citations={" 2001": 1}))),
        "json_year_key_empty": _json(_papers(_paper(citations={"": 1}))),
        "json_year_key_negative": _json(_papers(_paper(citations={"-2001": 1}))),
        "json_year_key_before_count": _json(_papers(_paper(citations={"x": 0}))),
        "json_count_zero": _json(_papers(_paper(citations={"2001": 0}))),
        "json_count_negative": _json(_papers(_paper(citations={"2001": 1, "2002": -1}))),
        "json_count_too_big": _json(_papers(_paper(citations={"2001": 2**31}))),
        "json_count_huge": _json(_papers(_paper(citations={"2001": 10**23}))),
        "json_count_float": _json(_papers(_paper(citations={"2001": 1.0}))),
        "json_count_bool": _json(_papers(_paper(citations={"2001": True}))),
        "json_count_string": _json(_papers(_paper(citations={"2001": "3"}))),
        "json_count_null": _json(_papers(_paper(citations={"2001": None}))),
        "json_count_object": _json(_papers(_paper(citations={"2001": {}}))),
        "json_count_before_next_key": _json(_papers(_paper(citations={"2001": 0, "x": 1}))),
        "json_duplicate_year": _json(_papers(_paper(citations={"2001": 1, "02001": 2}))),
        "json_duplicate_year_before_bad_paper": _json(
            _papers(_paper(citations={"2001": 1, "02001": 2}), _paper(id="Q", citations={"x": 1}))
        ),
        "json_duplicate_year_before_missing_key": _json(
            _papers(_paper(citations={"2001": 1, "02001": 2}), {"id": "Q"})
        ),
        "json_duplicate_year_before_duplicate_id": _json(
            _papers(_paper(citations={"2001": 1, "02001": 2}), _paper())
        ),
        "json_duplicate_year_before_bad_key": _json(_papers(_paper(citations={"2001": 1, "02001": 2, "x": 1}))),
        "json_duplicate_year_with_bad_count": _json(_papers(_paper(citations={"2001": 1, "02001": 0}))),
        "json_duplicate_year_later_paper": _json(
            _papers(_paper(citations={"2001": 1}), _paper(id="Q", citations={"2002": 1, "002002": 1}))
        ),
        "json_before_publication": _json(
            json.dumps(
                [
                    {"id": "Z", "pub_year": 2005, "citations": {"2003": 1, "2002": 4, "2005": 2}},
                    {"id": "A", "pub_year": 2005, "citations": {"2001": 1}},
                ]
            )
        ),
        "json_before_publication_lenient": _json(
            json.dumps(
                [
                    {"id": "Z", "pub_year": 2005, "citations": {"2003": 1, "2002": 4, "2005": 2}},
                    {"id": "A", "pub_year": 2005, "citations": {"2001": 1}},
                ]
            ),
            True,
        ),
        "json_lenient_bad_paper": _json(_papers(_paper(citations={"1990": 1}), 3), True),
        "json_lenient_duplicate_year": _json(_papers(_paper(citations={"1990": 1, "01990": 1})), True),
    }


def _outcome(layout, files, lenient) -> dict:
    opts = IngestOptions(lenient_clamp=lenient)
    files = [f.encode() if isinstance(f, str) else f for f in files]
    try:
        corpus = parse_corpus_csv(*files, opts) if layout == "csv" else parse_corpus_json(*files, opts)
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc), "locator": getattr(exc, "locator", None)}
    return {"export": export_corpus_json(corpus).decode()}


def ingest_errors() -> dict:
    return {name: _outcome(*case) for name, case in ingest_faults().items()}


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    corpus = golden_corpus()
    exports = _exports(corpus)
    return corpus, exports, _layouts(tmp_path_factory.mktemp("golden"), exports)


def test_exports_match_digests(setup):
    _, exports, _ = setup
    expected = json.loads((GOLDEN / "exports.json").read_text())
    assert _digests(exports) == expected


@pytest.mark.parametrize("layout", ["csv", "json"])
@pytest.mark.parametrize(
    "name",
    [
        "validate",
        "aging",
        "groups",
        "groups_yearly",
        "groups_json",
        "evolution",
        "evolution_json",
        "evolution_plain",
        "contemporary",
        "aif",
        "h5",
    ],
)
def test_cli_reproduces_golden_output(setup, name, layout):
    corpus, _, layouts = setup
    expected = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert _run(_commands(corpus)[name], layouts[layout]) == expected


def test_ingest_errors_match_golden():
    expected = json.loads((GOLDEN / "ingest_errors.json").read_text(encoding="utf-8"))
    assert ingest_errors() == expected


if __name__ == "__main__":
    import sys
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    corpus = golden_corpus()
    exports = _exports(corpus)
    commands = _commands(corpus)
    names = sys.argv[1:] or ["exports", "errors", *commands]
    unknown = sorted(set(names) - {"exports", "errors", *commands})
    if unknown:
        sys.exit(f"unknown golden shapes: {', '.join(unknown)}")
    if "exports" in names:
        (GOLDEN / "exports.json").write_text(json.dumps(_digests(exports), indent=2, sort_keys=True) + "\n")
    if "errors" in names:
        text = json.dumps(ingest_errors(), indent=2, sort_keys=True, ensure_ascii=False)
        (GOLDEN / "ingest_errors.json").write_text(text + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        layouts = _layouts(Path(tmp), exports)
        for name in names:
            if name in ("exports", "errors"):
                continue
            argv = commands[name]
            text = _run(argv, layouts["json"])
            assert text == _run(argv, layouts["csv"])
            (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8", newline="")
    print(f"{len(corpus)} papers; wrote {', '.join(names)} to {GOLDEN}")
