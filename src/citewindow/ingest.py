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

Both parsers work a column at a time.  A file becomes int64 columns of
paper index, year and count, which are checked in bulk, ranges included.
Only the first failing row is read again on its own, and JSON papers are
checked one at a time only once a column check of them has failed.  So
each parser reports exactly what a row-by-row reader would: the first
break in the files (papers before citations), with a repeated (paper,
year) row winning over a parse error below it.  Repeated rows and
citations before publication are left to the store build the parsers
share with :func:`citewindow.model.validate_corpus`.

CSV files are read from their bytes.  A file without '"' and without a
CR outside CRLF has no quoting, so it is cut at line ends into blocks of
about ``_BLOCK_CHARS`` (64 Ki) bytes.  A block whose every line has the
header's field count is read with numpy, without a Python string per
cell: year, count and pub_year cells go through one digit kernel
(``_digits``), and runs of equal paper ids, found by comparing each id
with the one above it, are decoded and looked up once per run.  Other
blocks (blank lines, a bad field count, an overlong field), and every
quoted file, go through ``csv.reader``, quoted files in blocks of
``_BLOCK_ROWS`` rows; there integer cells are read through one dict of
their distinct texts.  Either way, only one block is alive at a time.
Text input is read from its UTF-8 encoding, or by ``csv.reader`` when
it holds a lone surrogate, which has none.

Raw exports from bibliographic databases are not parsed here; convert
them to one of these two layouts first (see the README recipe).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat

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

# Block sizes of the CSV readers (see the module docstring); _BLOCK_CHARS
# counts bytes.  Splitting a whole file at once nearly tripled the traced
# peak memory of a CSV parse.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class IngestOptions:
    """Parser behavior switches.

    ``lenient_clamp`` moves citations recorded before the publication
    year up to the publication year instead of failing validation; real
    databases contain such artifacts.
    """

    lenient_clamp: bool = False


def _content(stream) -> bytes | str:
    """The content of ``stream``: bytes, text, or a stream of either."""
    data = stream.read() if hasattr(stream, "read") else stream
    return data if isinstance(data, str) else bytes(data)


def _decode(data: bytes | str, what: str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} data is not valid UTF-8: {exc}", f"{what} stream") from None


def _cell_ints(cells, known: dict) -> np.ndarray:
    """int64 values of integer cell texts, through ``known``: text -> value.

    Years and counts repeat, so each distinct text is read once.  A text
    that is not 1 to 10 ASCII digits reads -1, which fails every range the
    parsers check; the error path reads it again.
    """
    for text in set(cells).difference(known):
        known[text] = int(text) if len(text) <= 10 and text.isascii() and text.isdigit() else -1
    return np.fromiter(map(known.__getitem__, cells), np.int64, len(cells))


def _cell_error(what: str, text: str, lo: int, hi: int, locator: str, error=ParseError):
    """The located error of a cell that is no integer in lo..hi, or None.

    An integer is an optional '-', then ASCII digits only: ``int`` alone
    would also take surrounding spaces, underscores and non-ASCII digits.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        return error(f"{what} must be an integer, got {text!r}", locator)
    if len(digits) > 10 or not lo <= int(text) <= hi:
        return error(f"{what} must lie in {lo}..{hi}, got {text!r}", locator)


# Place values of a right-aligned window of up to 10 digits.
_POWERS = 10 ** np.arange(9, -1, -1, dtype=np.int64)


def _digits(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """int64 value of every field ``codes[start:end]`` of 1 to 10 ASCII
    digits, and -1 of any other field.

    Each field is read through a right-aligned window as wide as the
    longest field (at most 10 bytes), whose bytes before the field's start
    count as 0.  That field and its separator lie in ``codes``, so every
    index stays in range (a negative one wraps).
    """
    sizes = ends - starts
    back = np.arange(min(int(sizes.max(initial=0)), 10), 0, -1)[:, None]
    window = codes[ends - back] - np.uint8(48)  # bytes below '0' wrap past 9
    window *= back <= sizes
    value = _POWERS[len(_POWERS) - len(back) :] @ window
    return np.where((window.max(axis=0, initial=0) <= 9) & (sizes > 0) & (sizes <= 10), value, -1)


def _texts(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The fields ``codes[start:end]``, decoded, where every field ends at a ',' or LF."""
    sizes = ends - starts + 1  # each field with its separator
    cut = codes[np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)]
    return cut.tobytes().replace(b"\n", b",").decode().split(",")[:-1]


# Masks of the first 0..8 bytes of a little-endian 8-byte word.
_WORD_MASKS = np.array([(1 << 8 * size) - 1 for size in range(9)], np.uint64)


def _runs(block: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first field and the length of each run of equal fields ``block[start:end]``.

    Two fields are equal when their sizes are and so is each 8-byte word
    of them, masked to the field: exact for any bytes, NUL included.
    """
    sizes = ends - starts
    same = sizes[1:] == sizes[:-1]
    longest = int(sizes.max(initial=0))
    # Every word read starts before len(block) + longest; the padding holds it.
    words = np.ndarray((len(block) + longest + 1,), "<u8", block + bytes(longest + 8), strides=(1,))
    for at in range(0, longest, 8):
        word = words[starts + at]
        mask = _WORD_MASKS[np.minimum(np.maximum(sizes[1:] - at, 0), 8)]
        same &= (word[1:] ^ word[:-1]) & mask == 0
    bounds = np.concatenate(([True], ~same, [True])).nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _csv_blocks(data: bytes | str, what: str, headers: tuple, ints=()):
    """The data rows of a CSV file with one of ``headers``, as blocks of columns.

    ``data`` is the file's bytes, which must be UTF-8, or its text.
    Yields per block a tuple (numbers, (texts, lengths), columns, row):

    - ``numbers``: the line numbers of its non-blank rows;
    - field 0 as runs: the block's rows are ``lengths[i]`` copies of
      ``texts[i]`` in turn;
    - ``columns``: the other fields, those at the positions in ``ints``
      as int64 values (-1 for a cell that is not 1 to 10 ASCII digits),
      the others as lists of texts;
    - ``row(k)``: the texts of row k.

    A bad header, the first row with another field count, or malformed
    CSV raises a located error once the rows before it have been yielded.
    The rows are those ``csv.reader`` gives.  A text without '"' and
    without a CR outside CRLF has no quoting: its blocks of about
    ``_BLOCK_CHARS`` bytes are read from the bytes when every line has the
    header's field count, and by ``csv.reader`` when not.  Other text
    streams through ``csv.reader`` in blocks of ``_BLOCK_ROWS`` rows, as
    does a text holding a lone surrogate, which has no UTF-8 bytes.
    """
    text = _decode(data, what)
    if isinstance(data, str):
        try:
            data = text.encode()
        except UnicodeEncodeError:
            data = None
    quoted = data is None or b'"' in data or data.count(b"\r") != data.count(b"\r\n")
    end = 0 if quoted else data.find(b"\n") + 1 or len(data)
    reader = csv.reader(io.StringIO(text if quoted else data[:end].decode()))
    del text
    rows, _, error = _read(reader, 1, what)
    if error or not rows or tuple(rows[0]) not in headers:
        raise error or MalformedHeaderError(f"{what} header must be {','.join(headers[0])}", f"{what} line 1")
    width, line, limit, known = len(rows[0]), 1, csv.field_size_limit(), {}
    # Which separators of a line of ``width`` fields are its LF.
    line_ends = np.arange(width) == width - 1
    while quoted or end < len(data):
        if quoted:
            rows, numbers, error = _read(reader, _BLOCK_ROWS, what)
            if not rows and not error:
                return
        else:
            start, end, first = end, data.find(b"\n", end + _BLOCK_CHARS) + 1 or len(data), line
            block = data[start:end].replace(b"\r\n", b"\n")
            block += b"" if block.endswith(b"\n") else b"\n"
            line += block.count(b"\n")
            # Rows align into columns when the separators run as width - 1
            # commas and an LF, line after line, so no line is blank.  LF
            # and ',' are single bytes in UTF-8, found in no other character.
            codes = np.frombuffer(block, np.uint8)
            seps = ((codes == 44) | (codes == 10)).nonzero()[0]
            lf = codes[seps] == 10
            if len(block) <= limit and lf.size % width == 0 and (lf.reshape(-1, width) == line_ends).all():
                yield range(first + 1, line + 1), *_byte_columns(block, codes, seps, width, ints)
                continue
            rows, numbers, error = _read(csv.reader(io.StringIO(block.decode())), None, what, first)
        # Blank rows are skipped; the first row of another width ends the reading.
        bad = [0 < len(row) != width for row in rows]
        k = bad.index(True) if True in bad else len(rows)
        if k < len(rows):
            error = ParseError(f"expected {width} fields, got {len(rows[k])}", f"{what} line {numbers[k]}")
        kept = list(filter(None, rows[:k]))
        if kept:
            columns = [_cell_ints(cells, known) if j in ints else cells for j, cells in enumerate(zip(*kept))]
            runs = (columns.pop(0), np.ones(len(kept), np.int64))
            yield list(compress(numbers[:k], rows[:k])), runs, columns, kept.__getitem__
        if error:
            raise error


def _byte_columns(block: bytes, codes: np.ndarray, seps: np.ndarray, width: int, ints) -> tuple:
    """The (texts, lengths), columns and row of a block of aligned rows:
    see :func:`_csv_blocks`.  ``seps`` are the offsets of its separators."""
    starts = np.concatenate(([0], seps[:-1] + 1))
    first, lengths = _runs(block, starts[::width], seps[::width])
    texts = _texts(codes, starts[::width][first], seps[::width][first])
    values = {}
    if ints:
        fields = [np.concatenate([bounds[j::width] for j in ints]) for bounds in (starts, seps)]
        values = dict(zip(ints, _digits(codes, *fields).reshape(len(ints), -1)))
    columns = [values[j] if j in values else _texts(codes, starts[j::width], seps[j::width]) for j in range(1, width)]

    def row(k: int) -> list[str]:
        return block[starts[k * width] : seps[k * width + width - 1]].decode().split(",")

    return (texts, lengths), columns, row


def _read(reader, size: int | None, what: str, line: int = 0):
    """Up to ``size`` rows of ``reader``, the line number of each, and the
    located error of a malformed row after them or None.  ``line`` counts
    the lines before the reader's text."""
    before, rows, error = line + reader.line_num, [], None
    try:
        rows.extend(islice(reader, size))  # extend keeps the rows read before an error
    except csv.Error as exc:
        error = ParseError(f"malformed CSV: {exc}", f"{what} line {line + reader.line_num}")
    if line + reader.line_num - before == len(rows):
        return rows, range(before + 1, before + 1 + len(rows)), error
    # A quoted field spans a line per LF it holds.
    return rows, list(accumulate((1 + "".join(row).count("\n") for row in rows), initial=before))[1:], error


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


def _repeat_first(error, row_paper: np.ndarray, years: np.ndarray, duplicate_error):
    """``error``, unless the rows read before it repeat a (paper, year): repeats
    are found once all rows are read, so a parse error below one yields to it."""
    keys = row_paper << 14 | years
    row = _first_duplicate(keys, np.argsort(keys, kind="stable"))
    return error if row is None else duplicate_error(row)


def parse_corpus_csv(papers_file, citations_file, opts: IngestOptions | None = None) -> Corpus:
    """Parse the papers/citations CSV pair into a validated corpus.

    Accepts bytes, text, or a stream of either.  Every failure names the
    offending line, the first one in the files.  The title column may be
    omitted entirely; exports always write it.  Years must lie in
    1000..9999 and counts in 1..2**31 - 1, written as plain ASCII digits.
    """
    opts = opts or IngestOptions()
    index: dict[str, int] = {}
    pub_years, titles = [np.empty(0, np.int64)], []
    papers = _csv_blocks(_content(papers_file), "papers", (PAPERS_HEADER, PAPERS_HEADER[:2]), (1,))
    for numbers, (texts, lengths), (pub_year, *title_cells), row in papers:
        bad_year = ((pub_year < _YEAR_MIN) | (pub_year > _YEAR_MAX)).tolist()
        before = len(index)
        index.update(zip(texts, range(before, before + len(texts))))
        if len(index) < before + len(numbers) or "" in index or True in bad_year:
            # The first row with an empty id, an id seen before (a run of two
            # rows repeats one) or a bad year.
            ids = np.repeat(np.array(texts, dtype=object), lengths).tolist()
            seen = set(islice(index, before))
            k = next(k for k, pid in enumerate(ids) if not pid or pid in seen or bad_year[k] or seen.add(pid))
            locator = f"papers line {numbers[k]}"
            if not ids[k]:
                raise ParseError("paper_id must be non-empty", locator)
            if ids[k] in seen:
                raise DuplicateIdError(ids[k], locator)
            raise _cell_error("pub_year", row(k)[1], _YEAR_MIN, _YEAR_MAX, locator)
        pub_years.append(pub_year)
        titles += [title or None for title in title_cells[0]] if title_cells else [None] * len(texts)

    blocks = partial(_csv_blocks, _content(citations_file), "citations", (CITATIONS_HEADER,), (1, 2))

    def duplicate_error(row: int) -> DuplicateYearRowError:
        line = next(islice((line for numbers, *_ in blocks() for line in numbers), row, None))
        paper_id = next(islice(index, int(row_paper[row]), None))
        return DuplicateYearRowError(paper_id, int(years[row]), f"citations line {line}")

    parts, error = [], None
    try:
        for numbers, (texts, lengths), (year, count_), row in blocks():
            paper = np.repeat(np.fromiter(map(index.get, texts, repeat(-1)), np.int64, len(texts)), lengths)
            bad = (paper < 0) | (year < _YEAR_MIN) | (year > _YEAR_MAX) | (count_ < 1) | (count_ > _MAX_COUNT)
            k = int(bad.argmax()) if bad.any() else len(bad)
            parts.append((paper[:k], year[:k], count_[:k]))
            if k < len(bad):
                locator = f"citations line {numbers[k]}"
                paper_id, year_cell, count_cell = row(k)
                if paper[k] < 0:
                    raise UnknownPaperIdError(paper_id, locator)
                year_error = _cell_error("year", year_cell, _YEAR_MIN, _YEAR_MAX, locator)
                raise year_error or _cell_error("count", count_cell, 1, _MAX_COUNT, locator)
    except IngestError as exc:
        error = exc
    row_paper, years, counts = (np.concatenate(column) for column in zip(*parts, [np.empty(0, np.int64)] * 3))
    if error:
        raise _repeat_first(error, row_paper, years, duplicate_error)
    return _corpus_from_rows(
        index, np.concatenate(pub_years), titles, row_paper, years, counts, opts.lenient_clamp, duplicate_error
    )


_JSON_KEYS = frozenset(("id", "pub_year", "title", "citations"))


def _paper_error(obj, i: int, earlier_ids) -> Exception | None:
    """The first failure of JSON paper ``i`` on its own, its citation entries
    aside, checked in document order."""
    if not isinstance(obj, dict):
        return SchemaError("paper entry must be an object", f"$[{i}]")
    if not obj.keys() <= _JSON_KEYS:
        return SchemaError(f"unknown keys {sorted(obj.keys() - _JSON_KEYS)}", f"$[{i}]")
    for key in ("id", "pub_year", "citations"):
        if key not in obj:
            return SchemaError(f"missing required key {key!r}", f"$[{i}]")
    paper_id = obj["id"]
    if not isinstance(paper_id, str) or not paper_id:
        return SchemaError("id must be a non-empty string", f"$[{i}].id")
    if paper_id in earlier_ids:
        return DuplicateIdError(paper_id, f"$[{i}].id")
    pub_year = obj["pub_year"]
    if type(pub_year) is not int:
        return SchemaError("pub_year must be an integer", f"$[{i}].pub_year")
    if not _YEAR_MIN <= pub_year <= _YEAR_MAX:
        return SchemaError(f"pub_year must lie in {_YEAR_MIN}..{_YEAR_MAX}", f"$[{i}].pub_year")
    title = obj.get("title")
    if title is not None and not isinstance(title, str):
        return SchemaError("title must be a string or null", f"$[{i}].title")
    if not isinstance(obj["citations"], dict):
        return SchemaError("citations must be an object", f"$[{i}].citations")


def _citation_error(paper: int, key: str, value) -> SchemaError:
    """The failure of the citation entry ``key: value`` of JSON paper
    ``paper``, which breaks a rule: its year key first, then its count."""
    locator = f"$[{paper}].citations.{key}"
    year_error = _cell_error("citation year keys", key, _YEAR_MIN, _YEAR_MAX, locator, SchemaError)
    return year_error or SchemaError(_count_error(value), locator)


def _paper_columns(data):
    """(id -> position, pub_year, title, citations) columns of the JSON
    papers ``data``, or None when some paper fails a check of its own or
    repeats an id.  Each check covers a whole column at once."""
    if set(map(type, data)) - {dict} or set().union(*data) - _JSON_KEYS:
        return None
    ids, pub_years, titles, citations = (
        [obj.get(key) for obj in data] for key in ("id", "pub_year", "title", "citations")
    )
    if set(map(type, ids)) - {str} or not all(ids):
        return None
    index = dict(zip(ids, range(len(ids))))
    if (
        len(index) < len(ids)
        or set(map(type, pub_years)) - {int}
        or min(pub_years, default=_YEAR_MIN) < _YEAR_MIN
        or max(pub_years, default=_YEAR_MAX) > _YEAR_MAX
        or set(map(type, titles)) - {str, type(None)}
        or set(map(type, citations)) - {dict}
    ):
        return None
    return index, pub_years, titles, citations


def parse_corpus_json(stream, opts: IngestOptions | None = None) -> Corpus:
    """Parse the JSON array format into a validated corpus.

    Schema violations raise :class:`SchemaError` with a JSON-path
    locator, the first one in the document; zero citation counts are
    violations (absent means zero).  Years must lie in 1000..9999, with
    year keys written as plain ASCII digits, and counts in 1..2**31 - 1.
    """
    opts = opts or IngestOptions()
    text = _decode(_content(stream), "corpus")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", "corpus stream") from None
    except ValueError:  # an integer literal longer than sys.get_int_max_str_digits()
        raise ParseError("invalid JSON: a number has too many digits", "corpus stream") from None
    del text
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of paper objects", "$")

    # The papers before ``end`` pass the checks of each paper on its own.
    # Only once a column check has failed are papers checked one at a
    # time, to find the first that fails; its error yields to a bad
    # citation entry of an earlier paper.
    columns, error = _paper_columns(data), None
    if columns is None:
        index: dict[str, int] = {}
        for end, obj in enumerate(data):
            error = _paper_error(obj, end, index)
            if error:
                break
            index[obj["id"]] = end
        citations = [obj["citations"] for obj in data[:end]]
    else:
        index, pub_years, titles, citations = columns
        end = len(data)
    row_paper = np.repeat(np.arange(end), np.fromiter(map(len, citations), np.int64, end))
    keys = list(chain.from_iterable(citations))
    values = list(chain.from_iterable(map(dict.values, citations)))
    years = _cell_ints(keys, {})
    bad = (years < _YEAR_MIN) | (years > _YEAR_MAX)
    try:
        counts = np.fromiter(values, np.int64, len(values)) if set(map(type, values)) <= {int} else None
    except OverflowError:  # an int beyond int64
        counts = None
    if counts is None or counts.min(initial=1) < 1 or counts.max(initial=1) > _MAX_COUNT:
        # Some count is no int (bool included) or out of range: find which.
        bad |= np.array([type(value) is not int or not 0 < value <= _MAX_COUNT for value in values], dtype=bool)
    rows = int(np.argmax(bad)) if bad.any() else len(keys)

    def duplicate_error(row: int) -> SchemaError:
        return SchemaError("duplicate citation year", f"$[{row_paper[row]}].citations.{keys[row]}")

    if rows < len(keys):
        error = _citation_error(int(row_paper[rows]), keys[rows], values[rows])
    if isinstance(error, IngestError):
        error = _repeat_first(error, row_paper[:rows], years[:rows], duplicate_error)
    if error:
        raise error
    pub_year = np.array(pub_years, dtype=np.int64)
    del data, columns, pub_years, citations, values  # the store build reuses their memory
    return _corpus_from_rows(
        index, pub_year, titles, row_paper, years, counts, opts.lenient_clamp, duplicate_error
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
