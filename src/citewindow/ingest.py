"""Corpus file formats: long-format CSV pair and a JSON array.

Both formats are sparse: a (paper, year) citation row or key exists only
for positive counts, so equal corpora always serialize to identical
bytes.  Exports use UTF-8 with LF line endings; parsers accept CRLF too.

CSV corpus = two companion files:

    papers.csv     paper_id,pub_year,title      (title may be empty)
    citations.csv  paper_id,year,count          (count >= 1)

JSON corpus = one array::

    [{"id": "P1", "pub_year": 2000, "citations": {"2000": 1}}, ...]

Years, publication and citation alike, must lie in 1000..9999 and counts
in 1..2**31 - 1 (2 147 483 647), written as plain ASCII digits: no
spaces, underscores or digits of other scripts.  Anything else fails
with a located error.  The bounds keep every citation sum inside int64,
and four-digit year keys sort as their numbers do.

Raw exports from bibliographic databases are not parsed here; convert
them to one of these two layouts first (see the README recipe).
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    DuplicateIdError,
    DuplicateYearRowError,
    IngestError,
    MalformedHeaderError,
    ParseError,
    SchemaError,
    UnknownPaperIdError,
)
from .model import _MAX_COUNT, _YEAR_MAX, _YEAR_MIN, Corpus, _corpus_from_rows, _first_duplicate

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


def _bounded_int(text: str, lo: int, hi: int) -> int:
    """``text`` as an integer in lo..hi: an optional '-', then ASCII digits only.

    ``int`` alone would also take surrounding spaces, underscores and
    non-ASCII digits.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("must be an integer")
    if len(digits) > 10 or not lo <= int(text) <= hi:
        raise ValueError(f"must lie in {lo}..{hi}")
    return int(text)


class _IntCells(dict):
    """Cell text -> value, for a column whose texts repeat (years, counts).

    A repeated text costs one lookup, and every row refers to one shared
    int instead of holding its own cell string or int.
    """

    def __init__(self, what: str, lo: int, hi: int, error=ParseError):
        super().__init__()
        self.what, self.lo, self.hi, self.error = what, lo, hi, error

    def parse(self, cell: str, locate) -> int:
        """The value of a text not seen before; a bad one raises ``error`` at ``locate()``."""
        try:
            value = self[cell] = _bounded_int(cell, self.lo, self.hi)
        except ValueError as exc:
            raise self.error(f"{self.what} {exc}, got {cell!r}", locate()) from None
        return value


class _CsvRows:
    """Rows of a CSV text; :meth:`locator` names the line of the last row read.

    Malformed CSV becomes a located ParseError.
    """

    def __init__(self, text: str, what: str):
        self._reader = csv.reader(io.StringIO(text))
        self._what = what

    def __iter__(self):
        try:
            yield from self._reader
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", self.locator()) from None

    def locator(self) -> str:
        return f"{self._what} line {self._reader.line_num}"


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


@contextmanager
def _repeats_first(row_paper: list[int], years: list[int], duplicate_error):
    """Repeated (paper, year) rows are found once all rows are read, so a
    parse error below such a repeat yields to it: the repeat comes first."""
    try:
        yield
    except IngestError:
        keys = np.array(row_paper, dtype=np.int64) << 14 | np.array(years, dtype=np.int64)
        row = _first_duplicate(keys, np.argsort(keys, kind="stable"))
        if row is None:
            raise
        raise duplicate_error(row) from None


def parse_corpus_csv(papers_file, citations_file, opts: IngestOptions | None = None) -> Corpus:
    """Parse the papers/citations CSV pair into a validated corpus.

    Accepts bytes or binary streams.  Every failure names the offending
    line, the first one in the files.  The title column may be omitted
    entirely; exports always write it.  Years must lie in 1000..9999 and
    counts in 1..2**31 - 1, written as plain ASCII digits.
    """
    opts = opts or IngestOptions()

    papers = _CsvRows(_decode(papers_file, "papers"), "papers")
    rows = iter(papers)
    header = next(rows, None)
    if header is None or tuple(header) not in (PAPERS_HEADER, PAPERS_HEADER[:2]):
        raise MalformedHeaderError(
            f"papers header must be {','.join(PAPERS_HEADER)}", "papers line 1"
        )
    width = len(header)
    index: dict[str, int] = {}
    pub_years: list[int] = []
    titles: list[str | None] = []
    pub_cells = _IntCells("pub_year", _YEAR_MIN, _YEAR_MAX)
    for row in rows:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", papers.locator())
        paper_id = row[0]
        if not paper_id:
            raise ParseError("paper_id must be non-empty", papers.locator())
        if paper_id in index:
            raise DuplicateIdError(paper_id, papers.locator())
        pub_years.append(pub_cells.get(row[1]) or pub_cells.parse(row[1], papers.locator))
        titles.append(row[2] if width == 3 and row[2] else None)
        index[paper_id] = len(index)
    ids = list(index)

    citations_text = _decode(citations_file, "citations")
    citations = _CsvRows(citations_text, "citations")
    rows = iter(citations)
    header = next(rows, None)
    if header is None or tuple(header) != CITATIONS_HEADER:
        raise MalformedHeaderError(
            f"citations header must be {','.join(CITATIONS_HEADER)}", "citations line 1"
        )
    row_paper: list[int] = []
    years: list[int] = []
    counts: list[int] = []
    year_cells = _IntCells("year", _YEAR_MIN, _YEAR_MAX)
    count_cells = _IntCells("count", 1, _MAX_COUNT)

    def duplicate_error(row: int) -> DuplicateYearRowError:
        again = _CsvRows(citations_text, "citations")
        lines = (again.locator() for fields in again if fields)
        locator = next(islice(lines, row + 1, None))  # the header is row 0
        return DuplicateYearRowError(ids[row_paper[row]], years[row], locator)

    with _repeats_first(row_paper, years, duplicate_error):
        for row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", citations.locator())
            paper = index.get(row[0])
            if paper is None:
                raise UnknownPaperIdError(row[0], citations.locator())
            year = year_cells.get(row[1]) or year_cells.parse(row[1], citations.locator)
            count = count_cells.get(row[2]) or count_cells.parse(row[2], citations.locator)
            row_paper.append(paper)
            years.append(year)
            counts.append(count)

    return _corpus_from_rows(
        ids, pub_years, titles, row_paper, years, counts, opts.lenient_clamp, duplicate_error
    )


def parse_corpus_json(stream, opts: IngestOptions | None = None) -> Corpus:
    """Parse the JSON array format into a validated corpus.

    Schema violations raise :class:`SchemaError` with a JSON-path
    locator, the first one in the document; zero citation counts are
    violations (absent means zero).  Years must lie in 1000..9999, with
    year keys written as plain ASCII digits, and counts in 1..2**31 - 1.
    """
    opts = opts or IngestOptions()
    text = _decode(stream, "corpus")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of paper objects", "$")

    index: dict[str, int] = {}
    pub_years: list[int] = []
    titles: list[str | None] = []
    row_paper: list[int] = []
    years: list[int] = []
    counts: list[int] = []
    year_keys = _IntCells("citation year keys", _YEAR_MIN, _YEAR_MAX, SchemaError)

    def duplicate_error(row: int) -> SchemaError:
        paper = row_paper[row]
        key = list(data[paper]["citations"])[row - row_paper.index(paper)]
        return SchemaError("duplicate citation year", f"$[{paper}].citations.{key}")

    with _repeats_first(row_paper, years, duplicate_error):
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
            if paper_id in index:
                raise DuplicateIdError(paper_id, f"{path}.id")
            pub_year = obj["pub_year"]
            if type(pub_year) is not int:
                raise SchemaError("pub_year must be an integer", f"{path}.pub_year")
            if not _YEAR_MIN <= pub_year <= _YEAR_MAX:
                raise SchemaError(f"pub_year must lie in {_YEAR_MIN}..{_YEAR_MAX}", f"{path}.pub_year")
            title = obj.get("title")
            if title is not None and not isinstance(title, str):
                raise SchemaError("title must be a string or null", f"{path}.title")
            citations = obj["citations"]
            if not isinstance(citations, dict):
                raise SchemaError("citations must be an object", f"{path}.citations")
            for key, value in citations.items():
                year = year_keys.get(key) or year_keys.parse(key, lambda: f"{path}.citations.{key}")
                if type(value) is not int or not 0 < value <= _MAX_COUNT:
                    raise SchemaError(_count_error(value), f"{path}.citations.{key}")
                row_paper.append(i)
                years.append(year)
                counts.append(value)
            index[paper_id] = i
            pub_years.append(pub_year)
            titles.append(title)

    return _corpus_from_rows(
        list(index), pub_years, titles, row_paper, years, counts, opts.lenient_clamp, duplicate_error
    )


def _count_error(value) -> str:
    if type(value) is not int:
        return "citation counts must be integers"
    if value == 0:
        return "zero counts must be omitted"
    if value < 0:
        return "citation counts must be positive"
    return f"citation counts must be <= {_MAX_COUNT}"


def export_corpus_csv(corpus: Corpus) -> tuple[bytes, bytes]:
    """Serialize to the (papers.csv, citations.csv) byte pair.

    Rows are sorted by (paper_id, year) and line endings are LF, so equal
    corpora produce identical bytes on every platform.
    """
    ids = corpus._ids
    papers = _csv_text(
        PAPERS_HEADER,
        zip(ids, corpus._pub_year.tolist(), [title or "" for title in corpus._titles]),
    )
    citations = _csv_text(
        CITATIONS_HEADER,
        zip(
            [ids[i] for i in corpus._row_paper.tolist()],
            corpus._years.tolist(),
            corpus._counts.tolist(),
        ),
    )
    return papers.encode(), citations.encode()


def export_corpus_json(corpus: Corpus) -> bytes:
    """Serialize to the JSON array format, keys sorted, trailing newline.

    The bytes are those of ``json.dumps(entries, indent=2, sort_keys=True,
    ensure_ascii=False)``, written from the store without that call's
    pure-Python indenting encoder: the layout is fixed, strings go through
    the same C string encoder, and four-digit year keys sort as their
    numbers do.
    """
    if corpus.is_empty:
        return b"[]\n"
    encode = json.encoder.encode_basestring
    rows = [
        f'\n      "{year}": {count}'
        for year, count in zip(corpus._years.tolist(), corpus._counts.tolist())
    ]
    bounds = corpus._offsets.tolist()
    entries = []
    for paper_id, pub_year, a, b, title in zip(
        corpus._ids, corpus._pub_year.tolist(), bounds, bounds[1:], corpus._titles
    ):
        citations = "{" + ",".join(rows[a:b]) + "\n    }" if b > a else "{}"
        entry = f'  {{\n    "citations": {citations},\n    "id": {encode(paper_id)},\n    "pub_year": {pub_year}'
        if title is not None:
            entry += f',\n    "title": {encode(title)}'
        entries.append(entry + "\n  }")
    return ("[\n" + ",\n".join(entries) + "\n]\n").encode()


def export_corpus(corpus: Corpus, format: str):
    """Dispatch to the CSV pair or the JSON document by format name."""
    if format == "csv":
        return export_corpus_csv(corpus)
    if format == "json":
        return export_corpus_json(corpus)
    raise ValueError(f"unknown corpus format {format!r}")
