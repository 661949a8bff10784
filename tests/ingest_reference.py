"""Row-by-row reference parsers, kept apart from the library's code.

They read the files one row or paper at a time and stop at the first
failure, so they define which error, message and locator the parsers in
``citewindow.ingest`` must report.  The library's row readers
(``_located_csv``, ``_located_json``) restate these loops; its column
path reports nothing itself, so it must never accept what they reject.
Only the final store build (``model._corpus_from_rows``) is shared with
the library.
"""

import csv
import io
import json

import numpy as np

from citewindow.errors import (
    DuplicateIdError,
    DuplicateYearRowError,
    IngestError,
    MalformedHeaderError,
    ParseError,
    SchemaError,
    UnknownPaperIdError,
)
from citewindow.model import _MAX_COUNT, _YEAR_MAX, _YEAR_MIN, _corpus_from_rows

PAPERS_HEADER = ("paper_id", "pub_year", "title")
CITATIONS_HEADER = ("paper_id", "year", "count")


def decode(data, what):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} data is not valid UTF-8: {exc}", f"{what} stream") from None


def bounded_int(text, lo, hi, what, locator, error=ParseError):
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise error(f"{what} must be an integer, got {text!r}", locator)
    if len(digits) > 10 or not lo <= int(text) <= hi:
        raise error(f"{what} must lie in {lo}..{hi}, got {text!r}", locator)
    return int(text)


def csv_rows(text, what):
    """(locator, row) of every row, the locator naming the row's last line."""
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield f"{what} line {reader.line_num}", row
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", f"{what} line {reader.line_num}") from None


def first_repeat(row_paper, years):
    """Row index of the first (paper, year) an earlier row already has, or None."""
    seen = set()
    for row, key in enumerate(zip(row_paper, years)):
        if key in seen:
            return row
        seen.add(key)
    return None


def parse_csv(papers, citations, opts):
    rows = csv_rows(decode(papers, "papers"), "papers")
    locator, header = next(rows, (None, None))
    if header is None or tuple(header) not in (PAPERS_HEADER, PAPERS_HEADER[:2]):
        raise MalformedHeaderError(f"papers header must be {','.join(PAPERS_HEADER)}", "papers line 1")
    index, pub_years, titles = {}, [], []
    for locator, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", locator)
        if not row[0]:
            raise ParseError("paper_id must be non-empty", locator)
        if row[0] in index:
            raise DuplicateIdError(row[0], locator)
        pub_years.append(bounded_int(row[1], _YEAR_MIN, _YEAR_MAX, "pub_year", locator))
        titles.append(row[2] if len(header) == 3 and row[2] else None)
        index[row[0]] = len(index)

    text = decode(citations, "citations")
    rows = csv_rows(text, "citations")
    locator, header = next(rows, (None, None))
    if header is None or tuple(header) != CITATIONS_HEADER:
        raise MalformedHeaderError(f"citations header must be {','.join(CITATIONS_HEADER)}", "citations line 1")
    row_paper, years, counts, locators = [], [], [], []
    try:
        for locator, row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", locator)
            if row[0] not in index:
                raise UnknownPaperIdError(row[0], locator)
            year = bounded_int(row[1], _YEAR_MIN, _YEAR_MAX, "year", locator)
            count = bounded_int(row[2], 1, _MAX_COUNT, "count", locator)
            row_paper.append(index[row[0]])
            years.append(year)
            counts.append(count)
            locators.append(locator)
    except IngestError as exc:
        failure = exc
    else:
        failure = None
    repeat = first_repeat(row_paper, years)
    if repeat is not None:
        paper_id = list(index)[row_paper[repeat]]
        raise DuplicateYearRowError(paper_id, years[repeat], locators[repeat])
    if failure is not None:
        raise failure
    return _corpus_from_rows(list(index), pub_years, titles, row_paper, years, counts, opts.lenient_clamp)


def parse_json(doc, opts):
    text = decode(doc, "corpus")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of paper objects", "$")
    index, pub_years, titles, row_paper, years, counts, paths = {}, [], [], [], [], [], []
    try:
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
            if not isinstance(obj["id"], str) or not obj["id"]:
                raise SchemaError("id must be a non-empty string", f"{path}.id")
            if obj["id"] in index:
                raise DuplicateIdError(obj["id"], f"{path}.id")
            if type(obj["pub_year"]) is not int:
                raise SchemaError("pub_year must be an integer", f"{path}.pub_year")
            if not _YEAR_MIN <= obj["pub_year"] <= _YEAR_MAX:
                raise SchemaError(f"pub_year must lie in {_YEAR_MIN}..{_YEAR_MAX}", f"{path}.pub_year")
            if obj.get("title") is not None and not isinstance(obj["title"], str):
                raise SchemaError("title must be a string or null", f"{path}.title")
            if not isinstance(obj["citations"], dict):
                raise SchemaError("citations must be an object", f"{path}.citations")
            for key, value in obj["citations"].items():
                locator = f"{path}.citations.{key}"
                year = bounded_int(key, _YEAR_MIN, _YEAR_MAX, "citation year keys", locator, SchemaError)
                if type(value) is not int:
                    raise SchemaError("citation counts must be integers", locator)
                if value == 0:
                    raise SchemaError("zero counts must be omitted", locator)
                if value < 0:
                    raise SchemaError("citation counts must be positive", locator)
                if value > _MAX_COUNT:
                    raise SchemaError(f"citation counts must be <= {_MAX_COUNT}", locator)
                row_paper.append(i)
                years.append(year)
                counts.append(value)
                paths.append(locator)
            index[obj["id"]] = i
            pub_years.append(obj["pub_year"])
            titles.append(obj.get("title"))
    except (IngestError, DuplicateIdError) as exc:
        failure = exc
    else:
        failure = None
    repeat = first_repeat(row_paper, years)
    if repeat is not None:
        raise SchemaError("duplicate citation year", paths[repeat])
    if failure is not None:
        raise failure
    return _corpus_from_rows(list(index), pub_years, titles, row_paper, years, np.array(counts, dtype=np.int64), opts.lenient_clamp)
