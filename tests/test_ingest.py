"""Wire formats: CSV pair and JSON array, with round-trip guarantees."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citewindow import (
    CitationBeforePublicationError,
    DuplicateIdError,
    DuplicateYearRowError,
    IngestOptions,
    MalformedHeaderError,
    PaperRecord,
    ParseError,
    SchemaError,
    UnknownPaperIdError,
    export_corpus,
    export_corpus_csv,
    export_corpus_json,
    parse_corpus_csv,
    parse_corpus_json,
    validate_corpus,
)
from citewindow.tables import OutputTable

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
