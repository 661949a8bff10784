"""Wire formats: CSV pair and JSON array, with round-trip guarantees."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citewindow import (
    CitationBeforePublicationError,
    Corpus,
    DuplicateIdError,
    DuplicateYearRowError,
    IngestError,
    IngestOptions,
    InvalidRangeError,
    MalformedHeaderError,
    PaperRecord,
    ParseError,
    SchemaError,
    UnknownPaperIdError,
    YearWindow,
    export_corpus,
    export_corpus_csv,
    export_corpus_json,
    parse_corpus_csv,
    parse_corpus_json,
    validate_corpus,
    windowed_h,
)
import citewindow
from citewindow import ingest
from citewindow.model import _Rejected
from citewindow.tables import OutputTable
import ingest_reference
from helpers import random_corpus, workload_corpus
from test_golden import GOLDEN, ingest_errors

PAPERS_CSV = b"paper_id,pub_year,title\nP1,2000,\nP2,2001,\n"
CITATIONS_CSV = (
    b"paper_id,year,count\n"
    b"P1,2000,1\nP1,2001,3\nP1,2003,2\nP2,2001,2\nP2,2002,1\n"
)

TRICKY_TITLES = st.one_of(st.none(), st.text(max_size=20))
TRICKY_IDS = st.text(
    alphabet=st.sampled_from(list("abzXY90,;'\"\n é中")), min_size=1, max_size=8
)
PAPER_ENTRIES = st.tuples(
    TRICKY_IDS,
    st.integers(1900, 2020),
    st.dictionaries(st.integers(0, 10), st.integers(1, 99), max_size=4),
    TRICKY_TITLES,
)


@st.composite
def wire_corpora(draw):
    """Corpora exercising quoting: ids and titles with commas, quotes, newlines."""
    papers = {}
    for paper_id, pub, offsets, title in draw(st.lists(PAPER_ENTRIES, max_size=6)):
        if paper_id in papers:
            continue
        citations = {pub + off: count for off, count in offsets.items()}
        papers[paper_id] = PaperRecord(paper_id, pub, citations, title=title)
    return validate_corpus(papers.values())


class TestParseCsv:
    def test_toy_pair(self):
        corpus = parse_corpus_csv(PAPERS_CSV, CITATIONS_CSV)
        assert [p.id for p in corpus.papers] == ["P1", "P2"]
        assert corpus.by_id["P1"].citations == ((2000, 1), (2001, 3), (2003, 2))
        assert corpus.by_id["P2"].total_citations() == 3

    def test_accepts_binary_streams_and_crlf(self, tmp_path):
        papers = tmp_path / "papers.csv"
        papers.write_bytes(PAPERS_CSV.replace(b"\n", b"\r\n"))
        citations = tmp_path / "citations.csv"
        citations.write_bytes(CITATIONS_CSV.replace(b"\n", b"\r\n"))
        with open(papers, "rb") as fp, open(citations, "rb") as fc:
            corpus = parse_corpus_csv(fp, fc)
        assert len(corpus) == 2

    def test_accepts_text_with_or_without_utf8_bytes(self):
        assert parse_corpus_csv(PAPERS_CSV.decode(), CITATIONS_CSV.decode()) == parse_corpus_csv(
            PAPERS_CSV, CITATIONS_CSV
        )
        # A lone surrogate has no UTF-8 encoding; text holding one still parses.
        corpus = parse_corpus_csv("paper_id,pub_year\n\ud800,2000\nP,2001\n", "paper_id,year,count\n\ud800,2001,1\n")
        assert corpus.by_id["\ud800"].citations == ((2001, 1),)
        doc = '[{"id": "\ud800", "pub_year": 2000, "citations": {"2001": 1}}, {"id": "P", "pub_year": 2001, "citations": {}}]'
        assert parse_corpus_json(doc) == corpus

    def test_title_column_may_be_missing(self):
        corpus = parse_corpus_csv(
            b"paper_id,pub_year\nP1,2000\n", b"paper_id,year,count\n"
        )
        assert corpus.by_id["P1"].title is None

    def test_unknown_paper_id(self):
        with pytest.raises(UnknownPaperIdError) as exc:
            parse_corpus_csv(PAPERS_CSV, b"paper_id,year,count\nP9,2001,1\n")
        assert "line 2" in str(exc.value)

    def test_duplicate_year_row(self):
        bad = b"paper_id,year,count\nP1,2000,1\nP1,2000,2\n"
        with pytest.raises(DuplicateYearRowError) as exc:
            parse_corpus_csv(PAPERS_CSV, bad)
        assert "line 3" in str(exc.value)

    def test_malformed_headers(self):
        with pytest.raises(MalformedHeaderError) as exc:
            parse_corpus_csv(b"id,year\nP1,2000\n", CITATIONS_CSV)
        assert "line 1" in str(exc.value)
        with pytest.raises(MalformedHeaderError):
            parse_corpus_csv(PAPERS_CSV, b"paper_id,year\n")
        with pytest.raises(MalformedHeaderError):
            parse_corpus_csv(b"", CITATIONS_CSV)

    def test_zero_and_negative_counts_rejected(self):
        with pytest.raises(ParseError):
            parse_corpus_csv(PAPERS_CSV, b"paper_id,year,count\nP1,2001,0\n")
        with pytest.raises(ParseError):
            parse_corpus_csv(PAPERS_CSV, b"paper_id,year,count\nP1,2001,-3\n")

    def test_non_integer_year_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_corpus_csv(PAPERS_CSV, b"paper_id,year,count\nP1,two,1\n")
        assert "line 2" in str(exc.value)

    def test_duplicate_paper_row(self):
        with pytest.raises(DuplicateIdError) as exc:
            parse_corpus_csv(
                b"paper_id,pub_year,title\nP1,2000,\nP1,2001,\n",
                b"paper_id,year,count\n",
            )
        assert "line 3" in str(exc.value)

    def test_pre_publication_citation_strict_vs_lenient(self):
        papers = b"paper_id,pub_year,title\nP,2000,\n"
        citations = b"paper_id,year,count\nP,1999,1\nP,2000,1\n"
        with pytest.raises(CitationBeforePublicationError):
            parse_corpus_csv(papers, citations)
        corpus = parse_corpus_csv(papers, citations, IngestOptions(lenient_clamp=True))
        assert corpus.by_id["P"].citations == ((2000, 2),)

    def test_not_utf8(self):
        with pytest.raises(ParseError):
            parse_corpus_csv(b"\xff\xfe1234", CITATIONS_CSV)

    def test_malformed_csv_is_located(self):
        papers = b"paper_id,pub_year,title\nP1,2000,ok\nP2,2001,a\rb\n"
        with pytest.raises(ParseError) as exc:
            parse_corpus_csv(papers, b"paper_id,year,count\n")
        assert exc.value.locator == "papers line 3"


class TestParseJson:
    def test_single_paper(self):
        corpus = parse_corpus_json(
            b'[{"id":"P3","pub_year":2004,"citations":{"2004":1,"2005":1}}]'
        )
        assert len(corpus) == 1
        assert corpus.by_id["P3"].citations == ((2004, 1), (2005, 1))
        # A year key of five characters takes the row reader, which reads it as its year.
        with mock.patch.object(ingest, "_located_json", wraps=ingest._located_json) as located:
            padded = parse_corpus_json(b'[{"id":"P","pub_year":2000,"citations":{"02001":1}}]')
        assert located.called
        assert padded == parse_corpus_json(b'[{"id":"P","pub_year":2000,"citations":{"2001":1}}]')

    def test_empty_array(self):
        assert parse_corpus_json(b"[]").is_empty

    def test_zero_count_is_schema_error(self):
        doc = b'[{"id":"P","pub_year":2004,"citations":{"2004":0}}]'
        with pytest.raises(SchemaError) as exc:
            parse_corpus_json(doc)
        assert "$[0].citations.2004" in str(exc.value)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            (b'{"id": "P"}', "$"),
            (b"[42]", "$[0]"),
            (b'[{"pub_year":2000,"citations":{}}]', "$[0]"),
            (b'[{"id":"","pub_year":2000,"citations":{}}]', "$[0].id"),
            (b'[{"id":"P","pub_year":"2000","citations":{}}]', "$[0].pub_year"),
            (b'[{"id":"P","pub_year":2000,"citations":[]}]', "$[0].citations"),
            (b'[{"id":"P","pub_year":2000,"citations":{"x":1}}]', "$[0].citations.x"),
            (b'[{"id":"P","pub_year":2000,"citations":{"2001":true}}]', "$[0].citations.2001"),
            (b'[{"id":"P","pub_year":2000,"citations":{"2001":-1}}]', "$[0].citations.2001"),
            (b'[{"id":"P","pub_year":2000,"citations":{},"extra":1}]', "$[0]"),
            (b'[{"id":"P","pub_year":2000,"citations":{},"title":7}]', "$[0].title"),
        ],
    )
    def test_schema_violations_carry_paths(self, doc, fragment):
        with pytest.raises(SchemaError) as exc:
            parse_corpus_json(doc)
        assert fragment in str(exc.value)

    def test_invalid_json_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_corpus_json(b"[\n{]")
        assert "line" in str(exc.value)

    def test_too_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_corpus_json(b"[" * 100_000)

    def test_overlong_number_is_a_parse_error(self):
        doc = b'[{"id":"P","pub_year":2000,"citations":{"2001":' + b"1" * 5001 + b"}}]"
        with pytest.raises(ParseError, match="too many digits"):
            parse_corpus_json(doc)

    def test_duplicate_id(self):
        doc = (
            b'[{"id":"P","pub_year":2000,"citations":{}},'
            b'{"id":"P","pub_year":2001,"citations":{}}]'
        )
        with pytest.raises(DuplicateIdError) as exc:
            parse_corpus_json(doc)
        assert "$[1].id" in str(exc.value)

    def test_lenient_clamp(self):
        doc = b'[{"id":"P","pub_year":2000,"citations":{"1998":2,"2000":1}}]'
        corpus = parse_corpus_json(doc, IngestOptions(lenient_clamp=True))
        assert corpus.by_id["P"].citations == ((2000, 3),)
        # Papers out of id order, each clamped to its own publication year.
        doc = (
            b'[{"id":"B","pub_year":2005,"citations":{"2001":1,"2006":2}},'
            b'{"id":"A","pub_year":2000,"citations":{"1999":4,"2001":3}}]'
        )
        corpus = parse_corpus_json(doc, IngestOptions(lenient_clamp=True))
        assert corpus.by_id["A"].citations == ((2000, 4), (2001, 3))
        assert corpus.by_id["B"].citations == ((2005, 1), (2006, 2))

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "doc, error",
        [
            (b'[{"id":"P","pub_year":2000,"citations":{"2001":2}}]', None),
            (b"[\n{]", ParseError),
            (b"[" * 100_000, ParseError),
            (b'{"id":"P"}', SchemaError),
            # The column path rejects it, and the row reader raises.
            (b'[{"id":"P","pub_year":2000,"citations":{"2001":0}}]', SchemaError),
        ],
        ids=["valid", "invalid", "too_deep", "not_an_array", "row_reader"],
    )
    def test_garbage_collector_left_as_found(self, doc, error, enabled):
        # json.loads runs with the collector paused, and every exit resumes it
        # only if it was on.
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                parse_corpus_json(doc)
            else:
                with pytest.raises(error):
                    parse_corpus_json(doc)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestExport:
    def test_toy_citation_row_count(self, toy_corpus):
        _, citations = export_corpus_csv(toy_corpus)
        lines = citations.decode().splitlines()
        assert lines[0] == "paper_id,year,count"
        assert len(lines) == 1 + 7

    def test_empty_corpus(self):
        empty = validate_corpus([])
        papers, citations = export_corpus_csv(empty)
        assert papers == b"paper_id,pub_year,title\n"
        assert citations == b"paper_id,year,count\n"
        assert export_corpus_json(empty) == b"[]\n"

    def test_dispatcher(self, toy_corpus):
        assert export_corpus(toy_corpus, "csv") == export_corpus_csv(toy_corpus)
        assert export_corpus(toy_corpus, "json") == export_corpus_json(toy_corpus)
        with pytest.raises(ValueError):
            export_corpus(toy_corpus, "parquet")

    def test_csv_round_trip_toy(self, toy_corpus):
        papers, citations = export_corpus_csv(toy_corpus)
        assert parse_corpus_csv(papers, citations) == toy_corpus

    def test_json_round_trip_toy(self, toy_corpus):
        assert parse_corpus_json(export_corpus_json(toy_corpus)) == toy_corpus

    def test_json_keys_sorted(self, toy_corpus):
        doc = export_corpus_json(toy_corpus).decode()
        assert doc.index('"citations"') < doc.index('"id"') < doc.index('"pub_year"')

    @given(wire_corpora())
    @example(validate_corpus([PaperRecord("P", 2000, title="\r")]))
    @example(validate_corpus([PaperRecord("P", 2000, title="a\rb")]))
    @example(validate_corpus([PaperRecord("a", 2000, {2001: 2}, title="5"), PaperRecord("b", 2001)]))
    @settings(max_examples=120)
    def test_round_trip_both_formats(self, corpus):
        papers, citations = export_corpus_csv(corpus)
        assert parse_corpus_csv(papers, citations) == corpus
        assert parse_corpus_json(export_corpus_json(corpus)) == corpus

    @given(wire_corpora())
    @settings(max_examples=60)
    def test_export_is_deterministic(self, corpus):
        # Same corpus, fresh object: identical bytes.
        clone = validate_corpus(list(corpus.papers))
        assert export_corpus_csv(corpus) == export_corpus_csv(clone)
        assert export_corpus_json(corpus) == export_corpus_json(clone)

    def test_carriage_return_fields_are_quoted(self):
        corpus = validate_corpus([PaperRecord("P", 2000, title="a\rb")])
        assert export_corpus_csv(corpus)[0] == b'paper_id,pub_year,title\nP,2000,"a\rb"\n'
        table = OutputTable(("x", "y"), (("\r", "plain"),))
        assert table.to_csv() == 'x,y\n"\r",plain\n'

    def test_canonicalizes_parsed_input(self):
        # Unsorted rows parse fine; export re-emits them canonically.
        papers = b"paper_id,pub_year,title\nB,2001,\nA,2000,\n"
        citations = b"paper_id,year,count\nB,2002,1\nA,2003,2\nA,2000,1\n"
        corpus = parse_corpus_csv(papers, citations)
        papers_out, citations_out = export_corpus_csv(corpus)
        assert papers_out == b"paper_id,pub_year,title\nA,2000,\nB,2001,\n"
        assert citations_out == b"paper_id,year,count\nA,2000,1\nA,2003,2\nB,2002,1\n"


MAX_COUNT = 2**31 - 1


def json_doc(pub_year=2000, citations='{"2001": 1}') -> bytes:
    return f'[{{"id": "P", "pub_year": {pub_year}, "citations": {citations}}}]'.encode()


class TestStrictIntegers:
    """Years are ASCII digits in 1000..9999, counts ASCII digits in 1..2**31 - 1."""

    BAD_YEARS = [" 2001", "2001 ", "2_001", "٢٠٠١", "２００１", "+2001", "2001.0", "", "999", "0999", "10000", "-2001", "9" * 5000]
    BAD_COUNTS = ["0", "-3", "2147483648", "100000000000000000000000", " 3", "1_0", "３", "1e3", "9" * 5000]

    @pytest.mark.parametrize("cell", BAD_YEARS)
    def test_citation_year_cells(self, cell):
        with pytest.raises(ParseError) as exc:
            parse_corpus_csv(PAPERS_CSV, f"paper_id,year,count\nP1,{cell},1\n".encode())
        assert exc.value.locator == "citations line 2"

    @pytest.mark.parametrize("cell", BAD_YEARS)
    def test_pub_year_cells(self, cell):
        with pytest.raises(ParseError) as exc:
            parse_corpus_csv(f"paper_id,pub_year,title\nP1,{cell},\n".encode(), b"paper_id,year,count\n")
        assert exc.value.locator == "papers line 2"

    @pytest.mark.parametrize("cell", BAD_COUNTS)
    def test_count_cells(self, cell):
        with pytest.raises(ParseError) as exc:
            parse_corpus_csv(PAPERS_CSV, f"paper_id,year,count\nP1,2001,1\nP1,2002,{cell}\n".encode())
        assert exc.value.locator == "citations line 3"

    @pytest.mark.parametrize("key", BAD_YEARS)
    def test_json_year_keys(self, key):
        with pytest.raises(SchemaError) as exc:
            parse_corpus_json(json_doc(citations=json.dumps({key: 1})))
        assert exc.value.locator == f"$[0].citations.{key}"

    @pytest.mark.parametrize("pub_year", [999, 10000, -2000, 10**23])
    def test_json_pub_year(self, pub_year):
        with pytest.raises(SchemaError) as exc:
            parse_corpus_json(json_doc(pub_year=pub_year))
        assert exc.value.locator == "$[0].pub_year"

    # 2**32 + 1 and 1 - 2**32 would read 1 if narrowed to int32 unchecked.
    @pytest.mark.parametrize("count", [2**31, 2**32 + 1, 1 - 2**32, 10**23, 1.0, True])
    def test_json_counts(self, count):
        with pytest.raises(SchemaError) as exc:
            parse_corpus_json(json_doc(citations=json.dumps({"2001": count})))
        assert exc.value.locator == "$[0].citations.2001"

    @pytest.mark.parametrize(
        "count", [True, False, 0, -1, 2**31, 2**32 + 1, 1 - 2**32, 2**63, -(2**63) - 1, 10**23, 1.0, None]
    )
    def test_json_count_checks_report_the_reference_message(self, count):
        papers = [{"id": f"P{i}", "pub_year": 2000, "citations": {"2001": 1, "2002": 2}} for i in range(3)]
        papers[1]["citations"]["2003"] = count
        doc = json.dumps(papers).encode()
        assert outcome(parse_corpus_json, doc) == outcome(ingest_reference.parse_json, doc)
        assert outcome(parse_corpus_json, doc)[2] == "$[1].citations.2003"

    def test_bounds_themselves_are_accepted(self):
        papers = b"paper_id,pub_year,title\nA,1000,\nB,9999,\n"
        citations = f"paper_id,year,count\nA,1000,{MAX_COUNT}\nA,9999,{MAX_COUNT}\n".encode()
        corpus = parse_corpus_csv(papers, citations)
        assert corpus.by_id["A"].citations == ((1000, MAX_COUNT), (9999, MAX_COUNT))
        assert parse_corpus_json(export_corpus_json(corpus)) == corpus

    def test_largest_counts_sum_without_wrapping(self):
        # Two rows at the bound: int64 sums stay exact, and the one paper has h = 1.
        corpus = parse_corpus_json(json_doc(citations=f'{{"2000": {MAX_COUNT}, "2001": {MAX_COUNT}}}'))
        window = YearWindow.through(2001)
        assert corpus.total_citations() == 2 * MAX_COUNT
        assert windowed_h(corpus, window, window).h == 1
        # Clamped rows would merge into one count above the bound: refused.
        doc = json_doc(citations=f'{{"1998": {MAX_COUNT}, "1999": {MAX_COUNT}}}')
        with pytest.raises(InvalidRangeError, match=f"paper 'P' merges over {MAX_COUNT} citations into 2000"):
            parse_corpus_json(doc, IngestOptions(lenient_clamp=True))


# Titles and ids with every character the CSV and JSON writers treat specially.
WAY_IN_TEXTS = "a,;'\"\n\r\0 é中"


@st.composite
def clamped_papers(draw):
    """(records, entries) of up to five papers, in file order.  ``entries``
    are (id, pub_year, title, {year: count}) with rows at or before the
    publication year that a lenient parse merges there, to a count of at
    most 2**31 - 1 (sometimes exactly that); ``records`` hold the merged
    citations.  Titles are None, empty or text."""
    ids = st.text(alphabet=st.sampled_from(WAY_IN_TEXTS), min_size=1, max_size=3)
    titles = st.none() | st.just("") | st.text(alphabet=st.sampled_from(WAY_IN_TEXTS), max_size=4)
    papers = draw(st.lists(st.tuples(ids, st.integers(1998, 2002), titles), max_size=5, unique_by=lambda p: p[0]))
    records, entries = [], []
    for paper_id, pub_year, title in papers:
        merged = draw(st.integers(0, 3))
        parts = draw(st.lists(st.integers(1, MAX_COUNT // 3), min_size=merged, max_size=merged))
        if parts and draw(st.booleans()):
            parts[-1] = MAX_COUNT - sum(parts[:-1])
        early = draw(st.lists(st.integers(1995, pub_year), min_size=merged, max_size=merged, unique=True))
        later = draw(st.dictionaries(st.integers(pub_year + 1, 2006), st.integers(1, MAX_COUNT), max_size=3))
        entries.append((paper_id, pub_year, title, {**dict(zip(early, parts)), **later}))
        records.append(PaperRecord(paper_id, pub_year, {**later, pub_year: sum(parts)}, title))
    return records, entries


class TestNarrowColumns:
    """Every way in stores the same columns: int16 years, int32 row papers
    and int32 counts, and None for an empty title.  The store build refuses
    a lenient merge past 2**31 - 1, so equal corpora compare and hash equal
    and every corpus reads back from its own exports."""

    RECORDS = [PaperRecord("B", 1999, {1999: 3, 2001: MAX_COUNT}, "t"), PaperRecord("A", 1000, {1000: 1, 9999: 2})]
    # B's rows before 1999 move to 1999 under --lenient and merge with its own.
    EARLY = {"B": {"1997": 1, "1999": 2, "2001": MAX_COUNT}, "A": {"1000": 1, "9999": 2}}

    @staticmethod
    def json_doc(citations: dict) -> bytes:
        papers = {"B": {"pub_year": 1999, "title": "t"}, "A": {"pub_year": 1000}}
        return json.dumps([{"id": pid, **papers[pid], "citations": cites} for pid, cites in citations.items()]).encode()

    @staticmethod
    def csv_pair(citations: dict) -> tuple[bytes, bytes]:
        rows = "".join(f"{pid},{year},{count}\n" for pid, cites in citations.items() for year, count in cites.items())
        return csv_pair("B,1999,t\nA,1000,\n", rows)

    @staticmethod
    def assert_dtypes(corpus):
        assert corpus._years.dtype == np.int16
        assert corpus._row_paper.dtype == np.int32
        assert corpus._counts.dtype == np.int32
        assert corpus._pub_year.dtype == corpus._offsets.dtype == np.int64

    def test_five_ways_in(self):
        corpus = validate_corpus(self.RECORDS)
        lenient = IngestOptions(lenient_clamp=True)
        early = self.json_doc(self.EARLY)
        assert parse_corpus_json(early, lenient).by_id["B"].citations == ((1999, 3), (2001, MAX_COUNT))
        built = [
            Corpus(self.RECORDS),
            parse_corpus_csv(*export_corpus_csv(corpus)),
            parse_corpus_json(export_corpus_json(corpus)),
            parse_corpus_json(early, lenient),
            parse_corpus_csv(*self.csv_pair(self.EARLY), lenient),
        ]
        for other in [corpus, *built]:
            assert other == corpus and hash(other) == hash(corpus)
            self.assert_dtypes(other)

    @pytest.mark.parametrize("order", ["BA", "AB"])
    def test_a_lenient_merge_past_the_bound_is_refused(self, order):
        # Both papers merge past the bound, B to 2 * (2**31 - 1).  The error
        # names the first in the files, whether or not it is first in id order.
        papers = {
            "B": (1999, "t", {"1997": MAX_COUNT, "1998": MAX_COUNT}),
            "A": (1003, "", {"1000": 1, "1001": MAX_COUNT, "1003": 5}),
        }
        doc = json.dumps(
            [{"id": pid, "pub_year": papers[pid][0], "title": papers[pid][1], "citations": papers[pid][2]} for pid in order]
        ).encode()
        pair = csv_pair(
            "".join(f"{pid},{papers[pid][0]},{papers[pid][1]}\n" for pid in order),
            "".join(f"{pid},{year},{count}\n" for pid in order for year, count in papers[pid][2].items()),
        )
        lenient = IngestOptions(lenient_clamp=True)
        ways = {
            "json column path": lambda: parse_corpus_json(doc, lenient),
            "json text": lambda: parse_corpus_json(doc.decode(), lenient),
            "csv column path": lambda: parse_corpus_csv(*pair, lenient),
            "json row reader": lambda: ingest._located_json(json.loads(doc), lenient),
            "csv row reader": lambda: ingest._located_csv(*pair, lenient),
            "json reference": lambda: ingest_reference.parse_json(doc, lenient),
            "csv reference": lambda: ingest_reference.parse_csv(*pair, lenient),
        }
        first = order[0]
        for way, parse in ways.items():
            with pytest.raises(InvalidRangeError) as exc:
                parse()
            assert str(exc.value) == f"paper {first!r} merges over {MAX_COUNT} citations into {papers[first][0]}", way

    def test_a_lenient_merge_to_the_bound_round_trips(self):
        lenient = IngestOptions(lenient_clamp=True)
        to_bound = {"B": {"1997": MAX_COUNT - 2, "1998": 1, "1999": 1}, "A": {"1000": 1}}
        merged = parse_corpus_json(self.json_doc(to_bound), lenient)
        assert merged.by_id["B"].citations == ((1999, MAX_COUNT),)
        assert parse_corpus_csv(*self.csv_pair(to_bound), lenient) == merged
        self.assert_dtypes(merged)
        assert parse_corpus_json(export_corpus_json(merged)) == merged
        assert parse_corpus_csv(*export_corpus_csv(merged)) == merged
        assert Corpus(merged.papers) == merged

    @given(clamped_papers())
    @example(([PaperRecord("P", 2000, title="")], [("P", 2000, "", {})]))
    @settings(max_examples=100, deadline=None)
    def test_every_way_in_stores_one_corpus(self, papers):
        records, entries = papers
        corpus = validate_corpus(records)
        lenient = IngestOptions(lenient_clamp=True)
        csv_text = [io.StringIO(), io.StringIO()]
        paper_rows, citation_rows = (csv.writer(out, lineterminator="\r\n") for out in csv_text)
        paper_rows.writerow(ingest.PAPERS_HEADER)
        citation_rows.writerow(ingest.CITATIONS_HEADER)
        for paper_id, pub_year, title, citations in entries:
            paper_rows.writerow((paper_id, pub_year, title or ""))
            citation_rows.writerows((paper_id, year, count) for year, count in citations.items())
        pair = tuple(out.getvalue().encode() for out in csv_text)
        doc = json.dumps(
            [{"id": pid, "pub_year": pub, "title": title, "citations": cites} for pid, pub, title, cites in entries],
            ensure_ascii=False,
        )
        for chars, rows, pieces in ((ingest._BLOCK_CHARS, ingest._BLOCK_ROWS, ingest._PIECE_CHARS), (16, 2, SMALL_PIECES)):
            with mock.patch.multiple(ingest, _BLOCK_CHARS=chars, _BLOCK_ROWS=rows, _PIECE_CHARS=pieces):
                built = [
                    Corpus(records),
                    parse_corpus_csv(*pair, lenient),
                    parse_corpus_json(doc.encode(), lenient),
                    parse_corpus_json(doc, lenient),
                ]
            for other in built:
                assert other == corpus and hash(other) == hash(corpus)
                assert other._counts.dtype == np.int32
                assert export_corpus_csv(other) == export_corpus_csv(corpus)
                assert export_corpus_json(other) == export_corpus_json(corpus)
                assert parse_corpus_csv(*export_corpus_csv(other)) == corpus
                assert parse_corpus_json(export_corpus_json(other)) == corpus
                assert Corpus(other.papers) == corpus


def csv_pair(papers: str, citations: str) -> tuple[bytes, bytes]:
    return ("paper_id,pub_year,title\n" + papers).encode(), ("paper_id,year,count\n" + citations).encode()


class TestFirstViolationInFileOrder:
    """Validation runs on whole columns, yet reports what a row-by-row pass would."""

    # Z precedes A in both files but follows it in id order; both cite before publication.
    PAPERS = "Z,2005,\nA,2005,\n"
    CITATIONS = "A,2001,1\nZ,2003,1\nZ,2002,4\nZ,2005,2\n"
    DOC = (
        b'[{"id": "Z", "pub_year": 2005, "citations": {"2003": 1, "2002": 4, "2005": 2}},'
        b' {"id": "A", "pub_year": 2005, "citations": {"2001": 1}}]'
    )

    def test_citation_before_publication_names_first_paper_in_file(self):
        for parse in (lambda: parse_corpus_csv(*csv_pair(self.PAPERS, self.CITATIONS)),
                      lambda: parse_corpus_json(self.DOC)):
            with pytest.raises(CitationBeforePublicationError) as exc:
                parse()
            assert (exc.value.paper_id, exc.value.year) == ("Z", 2002)

    def test_lenient_clamp_merges_into_publication_year(self):
        lenient = IngestOptions(lenient_clamp=True)
        from_csv = parse_corpus_csv(*csv_pair(self.PAPERS, self.CITATIONS), lenient)
        assert from_csv == parse_corpus_json(self.DOC, lenient)
        assert from_csv.by_id["Z"].citations == ((2005, 7),)
        assert from_csv.by_id["A"].citations == ((2005, 1),)

    def test_duplicate_row_names_the_second_line(self):
        citations = "A,2006,1\nZ,2007,1\nA,2006,2\nZ,2007,3\n"
        with pytest.raises(DuplicateYearRowError) as exc:
            parse_corpus_csv(*csv_pair(self.PAPERS, citations))
        assert (exc.value.paper_id, exc.value.year, exc.value.locator) == ("A", 2006, "citations line 4")

    def test_duplicate_row_before_a_bad_row_comes_first(self):
        citations = "A,2006,1\nA,2006,2\nZ,2007,x\nQ,2007,1\n"
        with pytest.raises(DuplicateYearRowError) as exc:
            parse_corpus_csv(*csv_pair(self.PAPERS, citations), IngestOptions(lenient_clamp=True))
        assert exc.value.locator == "citations line 3"

    def test_bad_row_before_a_duplicate_row_comes_first(self):
        citations = "A,2006,1\nZ,2007,x\nA,2006,2\n"
        with pytest.raises(ParseError) as exc:
            parse_corpus_csv(*csv_pair(self.PAPERS, citations))
        assert exc.value.locator == "citations line 3"

    def test_json_duplicate_year_keys(self):
        doc = b'[{"id": "P", "pub_year": 2000, "citations": {"2001": 1, "02001": 2}}, {"id": 5}]'
        with pytest.raises(SchemaError) as exc:
            parse_corpus_json(doc)
        assert exc.value.locator == "$[0].citations.02001"


def reference_json(corpus) -> bytes:
    entries = []
    for paper in corpus.papers:
        entry = {
            "id": paper.id,
            "pub_year": paper.pub_year,
            "citations": {str(year): count for year, count in paper.citations},
        }
        if paper.title is not None:
            entry["title"] = paper.title
        entries.append(entry)
    return (json.dumps(entries, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode()


class TestJsonExportBytes:
    @given(wire_corpora())
    @example(validate_corpus([]))
    @example(validate_corpus([PaperRecord("uncited", 2000), PaperRecord("cited", 1000, {9999: 3})]))
    @example(validate_corpus([PaperRecord('q"\\\x00 é', 2000, {2001: 5}, title='\x7f"\n\t ퟿中')]))
    @settings(max_examples=150)
    def test_matches_reference_encoder(self, corpus):
        assert export_corpus_json(corpus) == reference_json(corpus)


def reference_csv_rows(text: str, what: str, headers) -> tuple:
    """(line, row) of every data row, read row by row through ``csv.reader``
    with the checks the parsers make of the CSV structure, then the error
    (class name and message) that ends the reading, or None."""
    reader = csv.reader(io.StringIO(text))
    out = []
    try:
        header = next(reader, None)
        if header is None or tuple(header) not in headers:
            raise MalformedHeaderError(f"{what} header must be {','.join(headers[0])}", f"{what} line 1")
        for row in reader:
            if row and len(row) != len(header):
                message = f"expected {len(header)} fields, got {len(row)}"
                raise ParseError(message, f"{what} line {reader.line_num}")
            if row:
                out.append((reader.line_num, tuple(row)))
    except csv.Error as exc:
        return out, ("ParseError", f"malformed CSV: {exc} ({what} line {reader.line_num})")
    except IngestError as exc:
        return out, (type(exc).__name__, str(exc))
    return out, None


def tokenized_rows(text: str, what: str, headers) -> tuple:
    """The rows :func:`ingest._csv_blocks` yields, its blocks flattened and
    each row built from field 0's runs and the other columns, then whether
    it rejected the text."""
    out = []
    try:
        for (texts, lengths), columns in ingest._csv_blocks(text.encode(), what, headers):
            assert len(texts) == len(lengths) and min(lengths) >= 1
            ids = [text for text, length in zip(texts, lengths) for _ in range(length)]
            assert {len(ids), *map(len, columns)} == {len(ids)}
            out += zip(ids, *columns)
    except (_Rejected, csv.Error):
        return out, True
    return out, False


def reads_as(tokenized, reference) -> bool:
    """Whether ``tokenized`` (rows, rejected) agrees with ``reference``
    (entries, error), each entry ending in its row: a reference that ends
    in an error is rejected after a prefix of its rows, any other is read
    whole."""
    (rows, rejected), (entries, error) = tokenized, reference
    expected = [entry[-1] for entry in entries]
    return rejected and rows == expected[: len(rows)] if error else not rejected and rows == expected


CELLS = st.text(alphabet=st.sampled_from(list("ab1 é\t;")), max_size=3)
QUOTE_FREE_LINES = st.lists(
    st.one_of(st.just(""), st.lists(CELLS, min_size=1, max_size=4).map(",".join)), max_size=12
)


class TestCsvTokenizer:
    """The column tokenizer reads what ``csv.reader`` reads, row by row."""

    @given(
        st.lists(CELLS, min_size=2, max_size=4),
        QUOTE_FREE_LINES,
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.integers(1, 24),
        st.integers(1, 4),
    )
    @example(["a", "b", "c"], ["x,1,2", "", "y,3", "z,4,5"], "\r\n", False, 1, 1)
    @example(["a", "b"], ["x,1", "x,2,3", "w,4"], "\n", True, 3, 2)
    @example(["a", "b", "c"], ["P1,2000", "1,P2,2001,3"], "\n", True, 24, 4)
    @settings(max_examples=300)
    def test_quote_free_text_splits_as_csv_reader_reads(self, header, lines, newline, end, chars, rows):
        text = newline.join([",".join(header), *lines]) + (newline if end else "")
        headers = (tuple(header),)
        with mock.patch.object(ingest, "_BLOCK_CHARS", chars), mock.patch.object(ingest, "_BLOCK_ROWS", rows):
            assert reads_as(tokenized_rows(text, "t", headers), reference_csv_rows(text, "t", headers))

    @given(QUOTE_FREE_LINES, st.integers(1, 24))
    @settings(max_examples=100)
    def test_bare_carriage_return_takes_the_reader(self, lines, chars):
        text = "a,b,c\n" + "\n".join(lines) + "\rx,y,z\n"
        headers = (("a", "b", "c"),)
        # Split at LFs, the CR would stay inside a cell instead of failing.
        with mock.patch.object(ingest, "_BLOCK_CHARS", chars):
            assert reads_as(tokenized_rows(text, "t", headers), reference_csv_rows(text, "t", headers))

    def test_a_short_line_does_not_borrow_the_next_lines_fields(self):
        # Split as one text, these two lines would realign into two valid rows.
        papers = b"paper_id,pub_year\nP1,2000\nP2,2000\n"
        with pytest.raises(ParseError) as exc:
            parse_corpus_csv(papers, b"paper_id,year,count\nP1,2000\n1,P2,2001,3\n")
        assert str(exc.value) == "expected 3 fields, got 2 (citations line 2)"

    def test_long_fields_fail_where_csv_reader_fails(self):
        limit = csv.field_size_limit()
        for cell, fails in (("x" * limit, False), ("x" * (limit + 1), True)):
            text = f"a,b\n1,2\n3,{cell}\n"
            expected = reference_csv_rows(text, "t", (("a", "b"),))
            assert (expected[1] is not None) == fails
            assert reads_as(tokenized_rows(text, "t", (("a", "b"),)), expected)

    def test_round_trip_through_the_quoted_path(self):
        ids = ("a,b", 'q"x', "c\r\nd")
        corpus = validate_corpus([PaperRecord(paper_id, 2000, {2001: 2}, title="t") for paper_id in ids])
        papers, citations = export_corpus_csv(corpus)
        assert b'"' in citations
        assert parse_corpus_csv(papers, citations) == corpus


def outcome(parse, *args, lenient=False):
    """(error class, message, locator) of a parse, or the export of its corpus."""
    try:
        corpus = parse(*args, IngestOptions(lenient_clamp=lenient))
    except Exception as exc:  # every failure is compared, whatever its class
        return type(exc).__name__, str(exc), getattr(exc, "locator", None)
    return export_corpus_json(corpus)


def cells_line(pools):
    """A CSV line: blank, one cell from each pool, or a few cells from any pool."""
    any_cell = st.one_of(*pools)
    return st.one_of(
        st.just(""),
        *[st.tuples(*pools).map(",".join)] * 4,
        st.lists(any_cell, min_size=1, max_size=4).map(",".join),
    )


# Few distinct good values, so that ids and (paper, year) rows repeat often.
IDS = st.sampled_from(["A", "A", "A", "B", "B", "B", "C", "", '"A"', '"B,C"', "Z", "a\rb"])
PUB_YEARS = st.sampled_from(["2000", "2001", "1999", "x", "", "999", "10000", " 2001"])
TITLES = st.sampled_from(["", "t", '"a,b"', '"q""x"', '"l\nm"'])
YEARS = st.sampled_from(["2001", "2001", "2002", "2002", "2000", "1999", "02001", "x", "", "999"])
COUNTS = st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "-1", "x", "2147483648"])


@st.composite
def faulty_csv_pairs(draw):
    """A papers and a citations file, each good or with faults, ended by LF or CRLF."""
    titled = draw(st.booleans())
    header = "paper_id,pub_year,title" if titled else "paper_id,pub_year"
    good = ["A,2000,", "B,2001,t", "C,1999,"] if titled else ["A,2000", "B,2001", "C,1999"]
    faulty = st.lists(cells_line([IDS, PUB_YEARS, TITLES][: 2 + titled]), max_size=6)
    papers = draw(st.one_of(st.just(good), faulty))
    citations = draw(st.lists(cells_line([IDS, YEARS, COUNTS]), max_size=10))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline]))
    files = ((header, papers), ("paper_id,year,count", citations))
    return tuple((newline.join([first, *lines]) + end).encode() for first, lines in files)


DROP = object()
# Replacements that break one check each, as (key, value); key None
# replaces the whole entry and DROP removes the key.
JSON_FAULTS = st.sampled_from(
    [(None, 42), (None, None), ("extra", 1), ("id", DROP), ("pub_year", DROP), ("citations", DROP)]
    + [("id", value) for value in ("", 5, None, "A")]
    + [("pub_year", value) for value in ("2000", 999, 10000, True, 2000.0, 10**23)]
    + [("title", value) for value in (7, [])]
    + [("citations", value) for value in ([], None, {"x": 1}, {"999": 1}, {" 2001": 1})]
    + [("citations", {"2001": value}) for value in (0, -1, True, 1.0, 2**31, 10**23, "3", None)]
)


YEAR_KEYS = st.sampled_from(["2001", "02001", "2002", "2003"])


@st.composite
def faulty_json_docs(draw):
    """Good papers, whose year keys often repeat a year ("2001", "02001"), then a few faults."""
    entries = [
        {
            "id": paper_id,
            "pub_year": draw(st.sampled_from([2000, 2001, 2002])),
            "title": draw(st.sampled_from([None, "t"])),
            "citations": draw(st.dictionaries(YEAR_KEYS, st.integers(1, 3), max_size=3)),
        }
        for paper_id in draw(st.lists(st.sampled_from("ABCDE"), unique=True, max_size=5))
    ]
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        i = draw(st.integers(0, len(entries) - 1))
        key, value = draw(JSON_FAULTS)
        if not isinstance(entries[i], dict):
            continue
        if key is None:
            entries[i] = value
        elif value is DROP:
            entries[i].pop(key, None)
        else:
            entries[i][key] = value
    return json.dumps(entries).encode()


class TestAgainstRowByRowReference:
    """The parsers, column path and row readers together, report what the
    reference loops report."""

    @given(faulty_csv_pairs(), st.booleans(), st.integers(1, 40), st.integers(1, 3))
    @settings(max_examples=400)
    def test_csv(self, files, lenient, chars, rows):
        with mock.patch.object(ingest, "_BLOCK_CHARS", chars), mock.patch.object(ingest, "_BLOCK_ROWS", rows):
            assert outcome(parse_corpus_csv, *files, lenient=lenient) == outcome(
                ingest_reference.parse_csv, *files, lenient=lenient
            )

    @given(faulty_json_docs(), st.booleans(), st.just(ingest._PIECE_CHARS) | st.integers(1, 60))
    @settings(max_examples=400)
    def test_json(self, doc, lenient, chars):
        with mock.patch.object(ingest, "_PIECE_CHARS", chars):
            assert outcome(parse_corpus_json, doc, lenient=lenient) == outcome(
                ingest_reference.parse_json, doc, lenient=lenient
            )


def reference_int(cell: str) -> int:
    """What the byte reader reads from an integer cell: its value when it
    is 1 to 10 ASCII digits, -1 otherwise."""
    return int(cell) if 0 < len(cell) <= 10 and cell.isascii() and cell.isdigit() else -1


def block_rows(data: bytes, headers, ints) -> tuple:
    """The values of every row :func:`ingest._csv_blocks` yields, with
    field 0 expanded from its runs and the integer fields as ints, then
    whether it rejected the data."""
    out = []
    try:
        for (texts, lengths), columns in ingest._csv_blocks(data, "t", headers, ints):
            assert len(texts) == len(lengths) and min(lengths) >= 1
            ids = [text for text, length in zip(texts, lengths) for _ in range(length)]
            fields = [ids, *([int(v) for v in column] if j + 1 in ints else list(column) for j, column in enumerate(columns))]
            assert set(map(len, fields)) == {len(ids)}
            out += zip(*fields)
    except (_Rejected, csv.Error):
        return out, True
    return out, False


def reference_block_rows(text: str, headers, ints) -> tuple:
    rows, error = reference_csv_rows(text, "t", headers)
    values = [
        (line, row, tuple(reference_int(cell) if j in ints else cell for j, cell in enumerate(row)))
        for line, row in rows
    ]
    return values, error


# Integer cells: good ones, signs, spaces, underscores, digits of other
# scripts, empty and overlong texts.
INT_CELLS = st.one_of(
    st.integers(0, 10**10 - 1).map(str),
    st.integers(10**10, 10**11 - 1).map(str),
    st.text(alphabet=st.sampled_from(list("0123456789-+ _٣３")), max_size=11),
    st.sampled_from(["2001", "02001", "0000000001", "00000000001", "9999999999", "-1", "+1", "1 ", "1_0", "٢٠٠١"]),
)
# Ids that share 8-byte words, differ past them or hold NUL and non-ASCII
# characters, drawn from few values so that runs of equal ids are common.
BYTE_IDS = st.sampled_from(
    ["A", "A", "A", "B", "B", "é", "中文", "A\x00", "\x00A", "A\x00\x00", "", "AAAAAAAA", "AAAAAAAAA", "AAAAAAAAB", "AAAAAAAAAAAAAAAAé"]
)


class TestByteReader:
    """Quote-free blocks read from bytes give what ``csv.reader`` and the
    row-by-row reference parsers give."""

    @given(
        st.lists(st.tuples(BYTE_IDS, INT_CELLS, INT_CELLS), max_size=14),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.integers(1, 40),
    )
    @example([("A", "2001", "1"), ("A", "2002", "2"), ("A\x00", "2003", "3")], "\n", True, 1)
    @settings(max_examples=400)
    def test_rows_and_integer_columns(self, rows, newline, end, chars):
        text = newline.join(["id,year,count", *map(",".join, rows)]) + (newline if end else "")
        headers = (("id", "year", "count"),)
        with mock.patch.object(ingest, "_BLOCK_CHARS", chars):
            assert reads_as(block_rows(text.encode(), headers, (1, 2)), reference_block_rows(text, headers, (1, 2)))

    @given(st.data(), st.integers(2, 5), st.sampled_from(["\n", "\r\n"]), st.booleans(), st.integers(1, 40))
    @settings(max_examples=300)
    def test_text_columns_at_every_width(self, data, width, newline, end, chars):
        # Mostly lines of the header's width, so that whole blocks take the byte path.
        line = st.lists(CELLS, min_size=width, max_size=width).map(",".join)
        other = st.one_of(st.just(""), st.lists(CELLS, min_size=1, max_size=width + 1).map(",".join))
        lines = data.draw(st.lists(st.one_of(line, line, line, other), max_size=14))
        text = newline.join([",".join(f"f{j}" for j in range(width)), *lines]) + (newline if end else "")
        headers = (tuple(f"f{j}" for j in range(width)),)
        with mock.patch.object(ingest, "_BLOCK_CHARS", chars):
            assert reads_as(tokenized_rows(text, "t", headers), reference_csv_rows(text, "t", headers))

    @given(
        st.lists(st.tuples(BYTE_IDS, st.sampled_from(["2000", "2001", "1999"])), max_size=5),
        st.lists(st.tuples(BYTE_IDS, INT_CELLS, INT_CELLS), max_size=14),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.integers(1, 40),
    )
    @settings(max_examples=400)
    def test_parse_matches_reference(self, papers, citations, newline, lenient, chars):
        files = [
            newline.join([header, *map(",".join, rows)]).encode() + newline.encode()
            for header, rows in (("paper_id,pub_year", papers), ("paper_id,year,count", citations))
        ]
        with mock.patch.object(ingest, "_BLOCK_CHARS", chars):
            assert outcome(parse_corpus_csv, *files, lenient=lenient) == outcome(
                ingest_reference.parse_csv, *files, lenient=lenient
            )

    def test_row_order_does_not_change_the_corpus(self):
        corpus = random_corpus(np.random.default_rng(11), max_papers=400, with_titles=True)
        papers, citations = export_corpus_csv(corpus)
        header, *lines = citations.splitlines(keepends=True)
        np.random.default_rng(3).shuffle(lines)
        shuffled = header + b"".join(lines)
        assert shuffled != citations
        for chars in (1 << 16, 300):
            with mock.patch.object(ingest, "_BLOCK_CHARS", chars):
                assert parse_corpus_csv(papers, shuffled) == corpus


class TestColumnPathAcceptsValidInput:
    """Valid input is read by the column path alone: a row reader taken
    by mistake only costs speed, which no other test would see."""

    @pytest.mark.parametrize("chars, rows", [(ingest._BLOCK_CHARS, ingest._BLOCK_ROWS), (300, 3)])
    def test_no_row_reader(self, chars, rows):
        quoted = validate_corpus([PaperRecord(pid, 2000, {2001: 2}, title="t") for pid in ("a,b", 'q"x', "c\r\nd")])
        # The extreme years and counts, which the JSON path holds as int16 and int32.
        bounds = validate_corpus(
            [PaperRecord("lo", 1000, {1000: 2**31 - 1, 9999: 1}), PaperRecord("hi", 9999, {9999: 2**31 - 1})]
        )
        corpora = [random_corpus(np.random.default_rng(seed), max_papers=400, with_titles=True) for seed in (5, 6, 7)]
        refuse = mock.Mock(side_effect=AssertionError("valid input took a row reader"))
        with mock.patch.multiple(
            ingest, _located_csv=refuse, _located_json=refuse, _BLOCK_CHARS=chars, _BLOCK_ROWS=rows
        ):
            for corpus in [quoted, bounds, *corpora]:
                assert parse_corpus_csv(*export_corpus_csv(corpus)) == corpus
                assert parse_corpus_json(export_corpus_json(corpus)) == corpus


# tracemalloc peak over input bytes, on a seeded corpus of 18 899 papers and
# 174 859 citation rows with titles.  The bounds are the measured peaks (2.90
# for the CSV pair, 1.69 for JSON) plus 10 %, as the row-by-row parsers' were
# (11.5 and 7.0).  With int64 columns in the corpus and the store build they
# measured 4.48 and 2.45.  Parsing the JSON document as one tree measured
# 3.51, a store build that widened its columns first 5.72 for the CSV pair,
# and splitting a whole CSV file at once instead of in blocks 22.6.
CSV_PEAK_PER_INPUT_BYTE = 3.2
JSON_PEAK_PER_INPUT_BYTE = 1.9
# tracemalloc peak of the JSON column stage over one piece already parsed,
# per character of that piece: 1.37 measured, with flat lists of the
# piece's year keys and counts.  It follows the piece, not the document.
JSON_COLUMNS_PEAK_PER_PIECE_CHAR = 1.5


class TestIngestMemory:
    @pytest.fixture(scope="class")
    def exports(self):
        corpus = random_corpus(np.random.default_rng(7), max_papers=20000, with_titles=True)
        assert (len(corpus), len(corpus._counts)) == (18899, 174859)
        return export_corpus_csv(corpus), export_corpus_json(corpus)

    @staticmethod
    def peak(parse) -> int:
        tracemalloc.start()
        try:
            parse()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_csv_peak(self, exports):
        (papers, citations), _ = exports
        peak = self.peak(lambda: parse_corpus_csv(papers, citations))
        assert peak < CSV_PEAK_PER_INPUT_BYTE * (len(papers) + len(citations))

    def test_json_peak(self, exports):
        _, doc = exports
        assert self.peak(lambda: parse_corpus_json(doc)) < JSON_PEAK_PER_INPUT_BYTE * len(doc)

    def test_json_columns_peak_over_one_piece(self, exports):
        _, doc = exports
        text = doc.decode()
        cut = ingest._PIECE_CUT.search(text, ingest._PIECE_CHARS)
        assert cut is not None  # the document has more than one piece
        piece = text[: cut.start() + 1] + "]"
        data = ingest._json_document(piece)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert ingest._json_columns(data) is not None
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < JSON_COLUMNS_PEAK_PER_PIECE_CHAR * len(piece)

    # Run in a fresh interpreter: the resident growth in MB from before the
    # input is read to after the parse, the corpus kept and the input freed.
    RESIDENT_GROWTH = """
import os
import sys
from citewindow import parse_corpus_csv, parse_corpus_json

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

before = resident()
blobs = [open(path, "rb").read() for path in sys.argv[1:]]
corpus = parse_corpus_json(*blobs) if len(blobs) == 1 else parse_corpus_csv(*blobs)
del blobs
print(resident() - before)
"""

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    def test_json_parse_leaves_no_more_resident_memory_than_csv(self, exports, tmp_path):
        # The JSON parse frees its document before the store build.  Were
        # the corpus to keep the document's own id and title strings, their
        # memory arenas would stay resident: 27.7 MB against 20.5 MB for
        # the CSV pair (17.8 MB without them).
        (papers, citations), doc = exports
        paths = {}
        for name, data in (("papers.csv", papers), ("citations.csv", citations), ("corpus.json", doc)):
            paths[name] = tmp_path / name
            paths[name].write_bytes(data)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(citewindow.__file__)))

        def growth(*names) -> float:
            argv = [sys.executable, "-c", self.RESIDENT_GROWTH, *(str(paths[name]) for name in names)]
            return float(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)

        assert growth("corpus.json") <= growth("papers.csv", "citations.csv")


# tracemalloc peak of a parse plus the first window query, which builds the
# count cache, on corpora shaped like the benchmark's (helpers.workload_corpus).
# From 2 x 10^4 papers up it measured 58 to 60 bytes per citation row or
# paper, in both formats and at 10^5 papers too.  Smaller inputs add what
# does not grow with them: the tree of one JSON piece of about 1 Mi
# characters, up to 3 MiB over the rows' share for a document of about one
# piece (8 000 papers), and each CSV block's cells.
FIRST_QUERY_PEAK_PER_ROW_OR_PAPER = 64
FIRST_QUERY_PEAK_FIXED = 4 << 20


class TestFirstQueryMemory:
    """Memory follows the input: a parse plus the first window query peaks
    within a constant per citation row or paper, plus a fixed allowance."""

    @pytest.mark.parametrize(
        "papers, classics, layout",
        [
            (24_000, 0, "json"),  # window_sweep: 10^5 papers in JSON
            (8_000, 0, "json"),  # a JSON document of about one piece
            (16_000, 5, "csv"),  # database_cli: 5 x 10^4 papers and five classics
            (16_000, 5, "json"),
            (1_000, 0, "json"),  # author_batch: 10 to 1 000 papers in JSON
            (10, 0, "json"),
        ],
    )
    def test_peak_follows_rows_and_papers(self, papers, classics, layout):
        self.assert_peak_within_bound(workload_corpus(11, papers, classics), layout)

    @pytest.mark.parametrize("layout", ["csv", "json"])
    def test_peak_with_publication_years_spread(self, layout):
        # 17 000 papers, 17 in each year of 1000..1999, each cited in up to
        # five years of 2000..2039: the first query builds the top block and
        # its per-publication-year bounds, 41 x 1 000 entries each.
        rng = np.random.default_rng(12)
        records = [
            PaperRecord(f"S{i:05d}", 1000 + i // 17, dict(zip(rng.integers(2000, 2040, 5).tolist(), rng.integers(1, 50, 5).tolist())))
            for i in range(17_000)
        ]
        corpus = validate_corpus(records)
        assert len(set(corpus._pub_year.tolist())) == 1_000 and len(corpus) > 4 * 4096
        self.assert_peak_within_bound(corpus, layout)

    @staticmethod
    def assert_peak_within_bound(corpus, layout):
        if layout == "csv":
            files, parse = export_corpus_csv(corpus), parse_corpus_csv
        else:
            files, parse = (compact_json(corpus.papers),), parse_corpus_json
        window = YearWindow.through(2024)
        tracemalloc.start()
        try:
            windowed_h(parse(*files), window, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows_and_papers = corpus._counts.size + len(corpus)
        assert peak < FIRST_QUERY_PEAK_PER_ROW_OR_PAPER * rows_and_papers + FIRST_QUERY_PEAK_FIXED


# A piece size below any paper's length, so that each paper is its own piece.
SMALL_PIECES = 30


def compact_json(papers) -> bytes:
    """The records ``papers`` in the layout the benchmark writes: one paper per line."""
    entries = [
        {"id": p.id, "pub_year": p.pub_year, "title": p.title, "citations": {str(y): c for y, c in p.citations}}
        for p in papers
    ]
    return ("[\n" + ",\n".join(json.dumps(entry, ensure_ascii=False) for entry in entries) + "\n]\n").encode()


class TestJsonPieces:
    """A JSON document read in pieces of ``SMALL_PIECES`` characters gives
    the corpus or the located error it gives read as one piece."""

    @staticmethod
    def in_pieces(doc) -> tuple:
        """The outcome of parsing ``doc`` in small pieces, and whether the row reader ran."""
        with mock.patch.object(ingest, "_PIECE_CHARS", SMALL_PIECES), mock.patch.object(
            ingest, "_located_json", wraps=ingest._located_json
        ) as located:
            return outcome(parse_corpus_json, doc), located.called

    def test_golden_ingest_errors(self):
        expected = json.loads((GOLDEN / "ingest_errors.json").read_text(encoding="utf-8"))
        with mock.patch.object(ingest, "_PIECE_CHARS", SMALL_PIECES):
            assert ingest_errors() == expected

    def test_benchmark_and_export_layouts(self):
        corpus = random_corpus(np.random.default_rng(8), max_papers=60, with_titles=True)
        for doc in (compact_json(corpus), export_corpus_json(corpus)):
            columns = mock.Mock(wraps=ingest._json_columns)
            refuse = mock.Mock(side_effect=AssertionError("valid input took the row reader"))
            with mock.patch.multiple(ingest, _PIECE_CHARS=SMALL_PIECES, _json_columns=columns, _located_json=refuse):
                assert parse_corpus_json(doc) == corpus
            assert columns.call_count == len(corpus)

    @pytest.mark.parametrize("chars", [1, 2, 3, SMALL_PIECES])
    def test_pieces_are_cut_from_the_bytes_and_decoded_alone(self, chars):
        # A search that starts inside a multi-byte character still cuts only
        # at ASCII; bytes that are not UTF-8 send the document to the row
        # reader, which reports them as it reports a document of one piece.
        papers = [PaperRecord(pid, 2000, {2001: 1}, title="é\U0001f600") for pid in ("é", "中", "z")]
        doc = compact_json(papers)
        refuse = mock.Mock(side_effect=AssertionError("valid input took the row reader"))
        with mock.patch.multiple(ingest, _PIECE_CHARS=chars, _located_json=refuse):
            assert parse_corpus_json(doc) == validate_corpus(papers)
        bad = doc.replace("中".encode(), b"\xff\xfe")
        with mock.patch.object(ingest, "_PIECE_CHARS", chars):
            result = outcome(parse_corpus_json, bad)
        assert result == outcome(parse_corpus_json, bad) == outcome(ingest_reference.parse_json, bad)
        assert result[0] == "ParseError" and "not valid UTF-8" in result[1]

    @pytest.mark.parametrize("title", ["}, {", "},{", '"}, {"'])
    def test_a_cut_inside_a_string_takes_the_row_reader(self, title):
        papers = [PaperRecord("B", 2000, {2001: 1}), PaperRecord("A", 2000, {2001: 2}, title=title)]
        doc = compact_json(papers)
        assert json.dumps(title)[1:-1] in doc.decode()
        result, located = self.in_pieces(doc)
        assert located
        assert result == outcome(parse_corpus_json, doc) == export_corpus_json(validate_corpus(papers))

    @pytest.mark.parametrize(
        "doc",
        [
            b'[{"id": "A", "pub_year": 2000, "citations": {}}, {"id": "B", "pub_year": 2000, "citations": {}},]',
            b'[{"id": "A", "pub_year": 2000, "citations": {}} {"id": "B", "pub_year": 2000, "citations": {}}]',
        ],
        ids=["trailing_comma", "missing_comma"],
    )
    def test_invalid_json_between_papers(self, doc):
        whole = outcome(parse_corpus_json, doc)
        assert whole[0] == "ParseError"
        assert self.in_pieces(doc)[0] == whole

    def test_an_id_repeated_across_pieces(self):
        doc = json.dumps([{"id": paper_id, "pub_year": 2000, "citations": {}} for paper_id in "ABA"]).encode()
        columns = mock.Mock(wraps=ingest._json_columns)
        with mock.patch.object(ingest, "_json_columns", columns):
            pieces = self.in_pieces(doc)
        assert columns.call_count == 3
        assert pieces == (outcome(parse_corpus_json, doc), True)
        assert pieces[0][0::2] == ("DuplicateIdError", "$[2].id")


class TestJsonStringCopies:
    """The JSON column path hands over its ids and titles as copies joined by
    NUL; each document reads as the row reader reads it, ids and titles
    alike."""

    DOCS = {
        "nul_in_id_and_title": [
            {"id": "a\0b", "pub_year": 2000, "citations": {"2001": 1}, "title": "x\0y"},
            {"id": "a", "pub_year": 2001, "citations": {}, "title": "\0"},
            {"id": "\0", "pub_year": 2002, "citations": {}},
        ],
        "nul_in_title_only": [
            {"id": "B", "pub_year": 2000, "citations": {}, "title": "\0\0"},
            {"id": "A", "pub_year": 2000, "citations": {}, "title": "plain"},
        ],
        "empty_and_null_titles": [
            {"id": "C", "pub_year": 2000, "citations": {"2000": 2}, "title": ""},
            {"id": "B", "pub_year": 2000, "citations": {}, "title": None},
            {"id": "A", "pub_year": 2001, "citations": {}},
            {"id": "D", "pub_year": 2001, "citations": {}, "title": ""},
        ],
        "all_titles_null": [
            {"id": "B", "pub_year": 2000, "citations": {}, "title": None},
            {"id": "A", "pub_year": 2000, "citations": {}},
        ],
        "non_ascii_ids": [
            {"id": "中文", "pub_year": 2000, "citations": {"2002": 3}, "title": "é"},
            {"id": "é", "pub_year": 2001, "citations": {"2001": 1}},
            {"id": "e\u0301", "pub_year": 2001, "citations": {}},
            {"id": "\U0001f600", "pub_year": 2002, "citations": {}, "title": "\ud800"},
            {"id": "z", "pub_year": 2003, "citations": {}},
        ],
        "one_paper": [{"id": "P", "pub_year": 2000, "citations": {"2000": 1}, "title": "t"}],
        "one_paper_no_title": [{"id": "P", "pub_year": 2000, "citations": {}}],
        "empty": [],
    }

    @pytest.mark.parametrize("name", DOCS)
    def test_ids_and_titles_survive_the_copy(self, name):
        papers = self.DOCS[name]
        doc = json.dumps(papers).encode()
        refuse = mock.Mock(side_effect=AssertionError("valid input took the row reader"))
        for chars in (ingest._PIECE_CHARS, SMALL_PIECES):
            with mock.patch.multiple(ingest, _located_json=refuse, _PIECE_CHARS=chars):
                corpus = parse_corpus_json(doc)
            order = sorted(range(len(papers)), key=lambda i: papers[i]["id"])
            assert corpus._ids == tuple(papers[i]["id"] for i in order)
            # An empty title is stored as None, as records and CSV store it.
            assert corpus._titles == tuple(papers[i].get("title") or None for i in order)
            assert [type(title) for title in corpus._titles] == [type(papers[i].get("title") or None) for i in order]
            assert corpus == ingest_reference.parse_json(doc, IngestOptions())

    @given(st.lists(st.text(alphabet=st.sampled_from("a\0é") | st.characters(), max_size=4), max_size=6))
    def test_split_undoes_joined(self, texts):
        joined = ingest._joined(texts)
        assert ingest._split(joined) == texts
        assert isinstance(joined, str) == (bool(texts) and not any("\0" in text for text in texts))
