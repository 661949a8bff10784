"""Corpus file formats: long-format CSV pair and a JSON array.

Both formats are sparse: a (paper, year) citation row or key exists only
for positive counts, so equal corpora always serialize to identical
bytes.  Exports use UTF-8 with LF line endings; parsers accept CRLF too.

CSV corpus = two companion files:

    papers.csv     paper_id,pub_year,title      (title may be empty)
    citations.csv  paper_id,year,count          (count >= 1)

JSON corpus = one array::

    [{"id": "P1", "pub_year": 2000, "citations": {"2000": 1}}, ...]

Raw exports from bibliographic databases are not parsed here; convert
them to one of these two layouts first (see the README recipe).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import (
    DuplicateIdError,
    DuplicateYearRowError,
    MalformedHeaderError,
    ParseError,
    SchemaError,
    UnknownPaperIdError,
)
from .model import Corpus, PaperRecord, validate_corpus

__all__ = [
    "IngestOptions",
    "parse_corpus_csv",
    "parse_corpus_json",
    "export_corpus",
    "export_corpus_csv",
    "export_corpus_json",
]

PAPERS_HEADER = ("paper_id", "pub_year", "title")
CITATIONS_HEADER = ("paper_id", "year", "count")


@dataclass(frozen=True)
class IngestOptions:
    """Parser behavior switches.

    ``lenient_clamp`` moves citations recorded before the publication
    year up to the publication year instead of failing validation; real
    databases contain such artifacts.
    """

    lenient_clamp: bool = False


def _decode(stream, what: str) -> str:
    if hasattr(stream, "read"):
        data = stream.read()
    else:
        data = stream
    if isinstance(data, str):
        return data
    try:
        return bytes(data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} data is not valid UTF-8: {exc}", f"{what} stream") from None


def _parse_int(cell: str, what: str, locator: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {cell!r}", locator) from None


def _csv_rows(text: str, what: str):
    """(locator, row) pairs of a CSV text; malformed CSV becomes a located ParseError."""
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield f"{what} line {reader.line_num}", row
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", f"{what} line {reader.line_num}") from None


def _csv_text(header, rows) -> str:
    """Minimally quoted CSV with LF row ends, quoting every field that holds CR or LF.

    The writer quotes fields containing a character of its line
    terminator, and with an LF terminator a bare CR stays unquoted, which
    readers take for a row end.  So rows are written with CRLF ends, and
    the ends outside quoted fields are turned back into LF.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    parts = out.getvalue().split('"')
    parts[::2] = [part.replace("\r\n", "\n") for part in parts[::2]]
    return '"'.join(parts)


def _clamp_years(pub_year: int, yearly: dict[int, int]) -> dict[int, int]:
    clamped: dict[int, int] = {}
    for year, count in yearly.items():
        year = max(year, pub_year)
        clamped[year] = clamped.get(year, 0) + count
    return clamped


def parse_corpus_csv(papers_file, citations_file, opts: IngestOptions | None = None) -> Corpus:
    """Parse the papers/citations CSV pair into a validated corpus.

    Accepts bytes or binary streams.  Every failure names the offending
    line.  The title column may be omitted entirely; exports always
    write it.
    """
    opts = opts or IngestOptions()

    papers_rows = _csv_rows(_decode(papers_file, "papers"), "papers")
    _, header = next(papers_rows, (None, None))
    if header is None or tuple(header) not in (PAPERS_HEADER, PAPERS_HEADER[:2]):
        raise MalformedHeaderError(
            f"papers header must be {','.join(PAPERS_HEADER)}", "papers line 1"
        )
    width = len(header)
    order: list[str] = []
    pub_years: dict[str, int] = {}
    titles: dict[str, str | None] = {}
    for locator, row in papers_rows:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", locator)
        paper_id = row[0]
        if not paper_id:
            raise ParseError("paper_id must be non-empty", locator)
        if paper_id in pub_years:
            raise DuplicateIdError(paper_id, locator)
        pub_years[paper_id] = _parse_int(row[1], "pub_year", locator)
        titles[paper_id] = row[2] if width == 3 and row[2] else None
        order.append(paper_id)

    citations_rows = _csv_rows(_decode(citations_file, "citations"), "citations")
    _, header = next(citations_rows, (None, None))
    if header is None or tuple(header) != CITATIONS_HEADER:
        raise MalformedHeaderError(
            f"citations header must be {','.join(CITATIONS_HEADER)}", "citations line 1"
        )
    yearly: dict[str, dict[int, int]] = {paper_id: {} for paper_id in order}
    for locator, row in citations_rows:
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", locator)
        paper_id = row[0]
        if paper_id not in yearly:
            raise UnknownPaperIdError(paper_id, locator)
        year = _parse_int(row[1], "year", locator)
        count = _parse_int(row[2], "count", locator)
        if count < 1:
            raise ParseError(f"count must be >= 1, got {count}", locator)
        if year in yearly[paper_id]:
            raise DuplicateYearRowError(paper_id, year, locator)
        yearly[paper_id][year] = count

    return _assemble(order, pub_years, titles, yearly, opts)


def parse_corpus_json(stream, opts: IngestOptions | None = None) -> Corpus:
    """Parse the JSON array format into a validated corpus.

    Schema violations raise :class:`SchemaError` with a JSON-path
    locator; zero citation counts are violations (absent means zero).
    """
    opts = opts or IngestOptions()
    text = _decode(stream, "corpus")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of paper objects", "$")

    order: list[str] = []
    pub_years: dict[str, int] = {}
    titles: dict[str, str | None] = {}
    yearly: dict[str, dict[int, int]] = {}
    for i, obj in enumerate(data):
        path = f"$[{i}]"
        if not isinstance(obj, dict):
            raise SchemaError("paper entry must be an object", path)
        unknown = set(obj) - {"id", "pub_year", "title", "citations"}
        if unknown:
            raise SchemaError(f"unknown keys {sorted(unknown)}", path)
        for key in ("id", "pub_year", "citations"):
            if key not in obj:
                raise SchemaError(f"missing required key {key!r}", path)
        paper_id = obj["id"]
        if not isinstance(paper_id, str) or not paper_id:
            raise SchemaError("id must be a non-empty string", f"{path}.id")
        if paper_id in pub_years:
            raise DuplicateIdError(paper_id, f"{path}.id")
        if type(obj["pub_year"]) is not int:
            raise SchemaError("pub_year must be an integer", f"{path}.pub_year")
        title = obj.get("title")
        if title is not None and not isinstance(title, str):
            raise SchemaError("title must be a string or null", f"{path}.title")
        citations = obj["citations"]
        if not isinstance(citations, dict):
            raise SchemaError("citations must be an object", f"{path}.citations")
        counts: dict[int, int] = {}
        for key, value in citations.items():
            cite_path = f"{path}.citations.{key}"
            try:
                year = int(key)
            except ValueError:
                raise SchemaError("citation keys must be year strings", cite_path) from None
            if type(value) is not int:
                raise SchemaError("citation counts must be integers", cite_path)
            if value == 0:
                raise SchemaError("zero counts must be omitted", cite_path)
            if value < 0:
                raise SchemaError("citation counts must be positive", cite_path)
            if year in counts:
                raise SchemaError("duplicate citation year", cite_path)
            counts[year] = value
        order.append(paper_id)
        pub_years[paper_id] = obj["pub_year"]
        titles[paper_id] = title
        yearly[paper_id] = counts

    return _assemble(order, pub_years, titles, yearly, opts)


def _assemble(order, pub_years, titles, yearly, opts: IngestOptions) -> Corpus:
    papers = []
    for paper_id in order:
        counts = yearly[paper_id]
        if opts.lenient_clamp:
            counts = _clamp_years(pub_years[paper_id], counts)
        papers.append(
            PaperRecord(
                id=paper_id,
                pub_year=pub_years[paper_id],
                citations=counts,
                title=titles[paper_id],
            )
        )
    return validate_corpus(papers)


def export_corpus_csv(corpus: Corpus) -> tuple[bytes, bytes]:
    """Serialize to the (papers.csv, citations.csv) byte pair.

    Rows are sorted by (paper_id, year) and line endings are LF, so equal
    corpora produce identical bytes on every platform.
    """
    papers = _csv_text(
        PAPERS_HEADER, ([p.id, p.pub_year, p.title or ""] for p in corpus.papers)
    )
    citations = _csv_text(
        CITATIONS_HEADER,
        ([p.id, year, count] for p in corpus.papers for year, count in p.citations),
    )
    return papers.encode(), citations.encode()


def export_corpus_json(corpus: Corpus) -> bytes:
    """Serialize to the JSON array format, keys sorted, trailing newline."""
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
    text = json.dumps(entries, indent=2, sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode()


def export_corpus(corpus: Corpus, format: str):
    """Dispatch to the CSV pair or the JSON document by format name."""
    if format == "csv":
        return export_corpus_csv(corpus)
    if format == "json":
        return export_corpus_json(corpus)
    raise ValueError(f"unknown corpus format {format!r}")
