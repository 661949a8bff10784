"""Corpus file formats: long-format CSV pair and a JSON array.

Both formats are sparse: a (paper, year) citation row or key exists only
for positive counts, so equal corpora always serialize to identical
bytes.  Exports use UTF-8 with LF line endings; parsers accept CRLF too.

CSV corpus = two companion files:

    papers.csv     paper_id,pub_year,title      (title may be empty)
    citations.csv  paper_id,year,count          (count >= 1)

JSON corpus = one array::

    [{"id": "P1", "pub_year": 2000, "citations": {"2000": 1}}, ...]

An empty title reads as no title in both formats, as the store build
stores it (see :func:`citewindow.model._corpus_from_rows`).

Years, publication and citation alike, must lie in 1000..9999 and counts
in 1..2**31 - 1 (2 147 483 647), written as plain ASCII digits: no
spaces, underscores or digits of other scripts.  Anything else fails
with a located error.  The bounds keep every citation sum inside int64,
and four-digit year keys sort as their numbers do.

Both parsers work a column at a time.  A file becomes numpy columns of
paper index, year and count, which are checked in bulk, ranges included,
and then handed to the store build narrow: int32 paper indices, int16
years and int32 counts.  A JSON document is read in pieces of about
``_PIECE_CHARS`` (1 Mi) bytes, cut between papers, and only one piece is
alive at a time, decoded and as a tree of Python objects.
This column path only accepts or rejects.  On a reject the parser reads
its input again row by row (``_located_csv``, ``_located_json``), and
that reader alone reports the first failure in file order, papers before
citations.  So valid input is read once, and a column check
stricter than its reader costs speed, not a result.  Citations before
publication are left to the store build the parsers share with
:func:`citewindow.model.validate_corpus`; so are a CSV pair's repeated
rows, on which that build rejects.

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
import gc
import io
import json
import re
from dataclasses import dataclass
from itertools import chain, islice, repeat

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
from .model import _MAX_COUNT, _YEAR_MAX, _YEAR_MIN, Corpus, _corpus_from_rows, _Rejected

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
# The headers a papers file may have: the title column may be omitted.
_PAPERS_HEADERS = (PAPERS_HEADER, PAPERS_HEADER[:2])

# Block sizes of the CSV readers (see the module docstring); _BLOCK_CHARS
# counts bytes.  Splitting a whole file at once nearly tripled the traced
# peak memory of a CSV parse.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 4096
# The JSON parser reads its array in pieces of about _PIECE_CHARS bytes
# (characters of text input), cut at a _PIECE_CUT match (see
# parse_corpus_json); bytes are searched with the pattern's bytes form.
_PIECE_CHARS = 1 << 20
_PIECE_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


@dataclass(frozen=True)
class IngestOptions:
    """Parser behavior switches.

    ``lenient_clamp`` moves citations recorded before the publication
    year up to the publication year instead of failing validation; real
    databases contain such artifacts.  Moved counts add up with that
    year's own; a sum above 2**31 - 1 raises
    :class:`~citewindow.errors.InvalidRangeError`.
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
    parsers check.
    """
    for text in set(cells).difference(known):
        known[text] = int(text) if len(text) <= 10 and text.isascii() and text.isdigit() else -1
    return np.fromiter(map(known.__getitem__, cells), np.int64, len(cells))


def _cell_int(what: str, text: str, lo: int, hi: int, locator: str, error=ParseError) -> int:
    """The value of an integer cell in lo..hi; any other cell raises its located error.

    An integer is an optional '-', then ASCII digits only: ``int`` alone
    would also take surrounding spaces, underscores and non-ASCII digits.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise error(f"{what} must be an integer, got {text!r}", locator)
    if len(digits) > 10 or not lo <= int(text) <= hi:
        raise error(f"{what} must lie in {lo}..{hi}, got {text!r}", locator)
    return int(text)


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
    Yields per block a pair ((texts, lengths), columns):

    - field 0 as runs: the block's rows are ``lengths[i]`` copies of
      ``texts[i]`` in turn;
    - ``columns``: the other fields, those at the positions in ``ints``
      as int64 values (-1 for a cell that is not 1 to 10 ASCII digits),
      the others as lists of texts.

    A bad header or a row with another field count raises
    :class:`~citewindow.model._Rejected`, and malformed CSV raises
    ``csv.Error``, maybe after some blocks.  The rows are those
    ``csv.reader`` gives, blank ones skipped.  A text without '"' and
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
    header = next(reader, None)
    if header is None or tuple(header) not in headers:
        raise _Rejected
    width, limit, known = len(header), csv.field_size_limit(), {}
    # Which separators of a line of ``width`` fields are its LF.
    line_ends = np.arange(width) == width - 1
    while quoted or end < len(data):
        if quoted:
            rows = list(islice(reader, _BLOCK_ROWS))
            if not rows:
                return
        else:
            start, end = end, data.find(b"\n", end + _BLOCK_CHARS) + 1 or len(data)
            block = data[start:end].replace(b"\r\n", b"\n")
            block += b"" if block.endswith(b"\n") else b"\n"
            # Rows align into columns when the separators run as width - 1
            # commas and an LF, line after line, so no line is blank.  LF
            # and ',' are single bytes in UTF-8, found in no other character.
            codes = np.frombuffer(block, np.uint8)
            seps = ((codes == 44) | (codes == 10)).nonzero()[0]
            lf = codes[seps] == 10
            if len(block) <= limit and lf.size % width == 0 and (lf.reshape(-1, width) == line_ends).all():
                yield _byte_columns(block, codes, seps, width, ints)
                continue
            rows = list(csv.reader(io.StringIO(block.decode())))
        rows = list(filter(None, rows))
        if set(map(len, rows)) - {width}:
            raise _Rejected
        if rows:
            columns = [_cell_ints(cells, known) if j in ints else cells for j, cells in enumerate(zip(*rows))]
            yield (columns.pop(0), np.ones(len(rows), np.int64)), columns


def _byte_columns(block: bytes, codes: np.ndarray, seps: np.ndarray, width: int, ints) -> tuple:
    """The (texts, lengths) and columns of a block of aligned rows: see
    :func:`_csv_blocks`.  ``seps`` are the offsets of its separators."""
    starts = np.concatenate(([0], seps[:-1] + 1))
    first, lengths = _runs(block, starts[::width], seps[::width])
    texts = _texts(codes, starts[::width][first], seps[::width][first])
    values = {}
    if ints:
        fields = [np.concatenate([bounds[j::width] for j in ints]) for bounds in (starts, seps)]
        values = dict(zip(ints, _digits(codes, *fields).reshape(len(ints), -1)))
    columns = [values[j] if j in values else _texts(codes, starts[j::width], seps[j::width]) for j in range(1, width)]
    return (texts, lengths), columns


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


def parse_corpus_csv(papers_file, citations_file, opts: IngestOptions | None = None) -> Corpus:
    """Parse the papers/citations CSV pair into a validated corpus.

    Accepts bytes, text, or a stream of either.  Every failure names the
    offending line, the first one in the files.  The title column may be
    omitted entirely; exports always write it.  Years must lie in
    1000..9999 and counts in 1..2**31 - 1, written as plain ASCII digits.
    """
    opts = opts or IngestOptions()
    papers, citations = _content(papers_file), _content(citations_file)
    try:
        return _corpus_from_rows(*_csv_columns(papers, citations), opts.lenient_clamp)
    except (_Rejected, csv.Error):
        return _located_csv(papers, citations, opts)


def _csv_columns(papers: bytes | str, citations: bytes | str) -> tuple:
    """The store build's arguments from a CSV pair, its lenient flag aside.
    Any row that breaks a rule raises :class:`~citewindow.model._Rejected`
    or ``csv.Error``."""
    index: dict[str, int] = {}
    pub_years, titles = [np.empty(0, np.int64)], []
    for (texts, lengths), (pub_year, *title_cells) in _csv_blocks(papers, "papers", _PAPERS_HEADERS, (1,)):
        before = len(index)
        index.update(zip(texts, range(before, before + len(texts))))
        # A run of two rows repeats an id, and so does a text seen before.
        if len(index) < before + len(pub_year) or "" in index or not _in_range(pub_year, _YEAR_MIN, _YEAR_MAX):
            raise _Rejected
        pub_years.append(pub_year)
        titles += title_cells[0] if title_cells else [None] * len(texts)

    parts = [(np.empty(0, np.int32), np.empty(0, np.int16), np.empty(0, np.int32))]
    for (texts, lengths), (year, count) in _csv_blocks(citations, "citations", (CITATIONS_HEADER,), (1, 2)):
        paper = np.repeat(np.fromiter(map(index.get, texts, repeat(-1)), np.int32, len(texts)), lengths)
        if paper.min() < 0 or not (_in_range(year, _YEAR_MIN, _YEAR_MAX) and _in_range(count, 1, _MAX_COUNT)):
            raise _Rejected
        parts.append((paper, year.astype(np.int16), count.astype(np.int32)))
    return list(index), np.concatenate(pub_years), titles, *map(np.concatenate, zip(*parts))


def _in_range(values: np.ndarray, lo: int, hi: int) -> bool:
    return lo <= values.min(initial=lo) and values.max(initial=hi) <= hi


def _located_rows(data: bytes | str, what: str, headers: tuple):
    """(locator, row) of every non-blank data row of a CSV file with one of
    ``headers``, the locator naming the row's last line.  A bad header, a
    row with another field count or malformed CSV raises its located error."""
    reader = csv.reader(io.StringIO(_decode(data, what)))
    try:
        header = next(reader, None)
        if header is None or tuple(header) not in headers:
            raise MalformedHeaderError(f"{what} header must be {','.join(headers[0])}", f"{what} line 1")
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", f"{what} line {reader.line_num}")
            yield f"{what} line {reader.line_num}", row
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", f"{what} line {reader.line_num}") from None


def _located_csv(papers: bytes | str, citations: bytes | str, opts: IngestOptions) -> Corpus:
    """:func:`parse_corpus_csv` row by row: the first failure in the files
    raises its located error."""
    index, pub_years, titles = {}, [], []
    for locator, row in _located_rows(papers, "papers", _PAPERS_HEADERS):
        if not row[0]:
            raise ParseError("paper_id must be non-empty", locator)
        if row[0] in index:
            raise DuplicateIdError(row[0], locator)
        pub_years.append(_cell_int("pub_year", row[1], _YEAR_MIN, _YEAR_MAX, locator))
        titles.append(row[2] if len(row) == 3 else None)
        index[row[0]] = len(index)

    seen, row_paper, years, counts = set(), [], [], []
    for locator, row in _located_rows(citations, "citations", (CITATIONS_HEADER,)):
        if row[0] not in index:
            raise UnknownPaperIdError(row[0], locator)
        key = index[row[0]], _cell_int("year", row[1], _YEAR_MIN, _YEAR_MAX, locator)
        counts.append(_cell_int("count", row[2], 1, _MAX_COUNT, locator))
        if key in seen:
            raise DuplicateYearRowError(row[0], key[1], locator)
        seen.add(key)
        row_paper.append(key[0])
        years.append(key[1])
    return _corpus_from_rows(list(index), pub_years, titles, row_paper, years, counts, opts.lenient_clamp)


_JSON_KEYS = frozenset(("id", "pub_year", "title", "citations"))


def parse_corpus_json(stream, opts: IngestOptions | None = None) -> Corpus:
    """Parse the JSON array format into a validated corpus.

    Schema violations raise :class:`SchemaError` with a JSON-path
    locator, the first one in the document; zero citation counts are
    violations (absent means zero).  Years must lie in 1000..9999, with
    year keys written as plain ASCII digits, and counts in 1..2**31 - 1.

    The array is read in pieces of about ``_PIECE_CHARS`` bytes (or
    characters, of text input), each cut where the input has '}', ',' and
    '{' with only whitespace between them, then decoded and parsed as an
    array of its own.  The cut is ASCII, so it never splits a UTF-8
    sequence.  Pieces that each parse join at those commas into the
    document, so together they hold its papers.  Each piece's tree,
    several times the size of its text, is checked a column at a time and
    freed before the next piece is read.  Only its ids and titles are
    copied out, as one joined text each (see :func:`_json_columns`): were
    a tree's own strings kept, they would pin its memory arenas, and the
    next trees and the store build would be allocated around them.  So
    neither a decoded copy of the whole document nor a tree of it is ever
    built, and the parse peaks in the store build, beside the input and
    the columns.

    Anything a piece cannot settle sends the whole document to the row
    reader, which decodes it whole: a piece that is not UTF-8 or not
    valid JSON, a top level that is not an array, a rule broken, or an id
    repeated across pieces.  So is a document whose cut lands inside a
    string, such as a title holding "}, {": that piece does not parse.
    It is read slower, with the same result.
    """
    opts = opts or IngestOptions()
    data = _content(stream)
    columns = _json_pieces(data)
    if columns is None:
        return _located_json(_json_document(_decode(data, "corpus")), opts)
    # The checks leave no repeated row, so the store build cannot reject.
    return _corpus_from_rows(*columns, opts.lenient_clamp)


def _json_pieces(data: bytes | str) -> tuple | None:
    """The store build's arguments from the JSON document ``data``, its
    lenient flag aside, or None when a piece of it is not UTF-8, or not an
    array that passes :func:`_json_columns`, or an id repeats across pieces."""
    pattern = _PIECE_CUT.pattern
    search = re.compile(pattern.encode() if isinstance(data, bytes) else pattern).search
    parts, start = [], 0
    while start is not None:
        cut = search(data, start + _PIECE_CHARS)
        end = cut.start() + 1 if cut else None
        # The first piece holds the document's '[', the last its ']'.
        try:
            piece = _decode(data[start:end], "corpus")
            piece = _json_document(("[" if start else "") + piece + ("]" if cut else ""))
        except IngestError:
            return None
        parts.append(_json_columns(piece))
        del piece  # so that no two trees are alive at once
        if parts[-1] is None:
            return None
        start = cut and cut.end() - 1
    ids, pub_years, present, nulls, lengths, years, counts = zip(*parts)
    ids = [paper_id for part in ids for paper_id in _split(part)]
    if len(set(ids)) < len(ids):
        return None
    present = iter([title for part in present for title in _split(part)])
    titles = [None if null else next(present) for part in nulls for null in part]
    pub_years, lengths, years, counts = map(np.concatenate, (pub_years, lengths, years, counts))
    return ids, pub_years, titles, np.repeat(np.arange(len(lengths), dtype=np.int32), lengths), years, counts


def _json_document(text: str) -> list:
    """The array of papers of a JSON corpus, or of a piece of one; anything
    else raises its located error.

    The cyclic garbage collector is paused while ``json.loads`` builds
    the tree, and resumed only if it was on.  The tree holds no cycles, so
    the collections its new containers would trigger free nothing.  The
    switch is process-wide: other threads run without collection meanwhile.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", "corpus stream") from None
    except ValueError:  # an integer literal longer than sys.get_int_max_str_digits()
        raise ParseError("invalid JSON: a number has too many digits", "corpus stream") from None
    finally:
        if enabled:
            gc.enable()
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of paper objects", "$")
    return data


def _json_columns(data: list) -> tuple | None:
    """(ids, pub_years, titles, nulls, lengths, years, counts) of the JSON
    papers ``data``, or None when some paper or citation entry breaks a
    rule or a year key is not exactly four characters.  Each check covers a
    whole column at once.  Repeated ids are left to the caller, which
    sees those of every piece.

    Nothing returned refers to an object of ``data``, so freeing it frees
    the whole tree.  The ids and the non-null titles come as copies made
    by :func:`_joined`, ``nulls`` tells for each paper whether its title
    is null, and the other columns are numpy arrays: ``pub_years``
    (int16), ``lengths``, each paper's number of citation rows, and
    ``years`` (int16) and ``counts`` (int32), the rows in document order.
    No dict of the ids is built, since it would hold the tree's strings.
    """
    if set(map(type, data)) - {dict} or set().union(*data) - _JSON_KEYS:
        return None
    ids, pub_years, titles, citations = (
        [obj.get(key) for obj in data] for key in ("id", "pub_year", "title", "citations")
    )
    if (
        set(map(type, ids)) - {str}
        or not all(ids)
        or set(map(type, pub_years)) - {int}
        or min(pub_years, default=_YEAR_MIN) < _YEAR_MIN
        or max(pub_years, default=_YEAR_MAX) > _YEAR_MAX
        or set(map(type, titles)) - {str, type(None)}
        or set(map(type, citations)) - {dict}
    ):
        return None
    keys = list(chain.from_iterable(citations))
    values = list(chain.from_iterable(map(dict.values, citations)))
    # A longer key ("02001") could repeat a year of its paper; four ASCII
    # digits are at most 9999, which fits int16.  Any other key reads -1.
    known = {key: int(key) if len(key) == 4 and key.isascii() and key.isdigit() else -1 for key in set(keys)}
    if min(known.values(), default=_YEAR_MIN) < _YEAR_MIN or set(map(type, values)) - {int}:
        return None
    try:
        counts = np.array(values, np.int64)
    except OverflowError:  # an int beyond int64
        return None
    # Every valid count fits int32; it is narrowed only once it is checked.
    if not _in_range(counts, 1, _MAX_COUNT):
        return None
    years = np.fromiter(map(known.__getitem__, keys), np.int16, len(keys))
    lengths = np.fromiter(map(len, citations), np.int64, len(data))
    nulls = [title is None for title in titles]
    present = _joined([title for title in titles if title is not None])
    return _joined(ids), np.array(pub_years, dtype=np.int16), present, nulls, lengths, years, counts.astype(np.int32)


def _joined(texts: list[str]) -> str | list[str]:
    """``texts`` as one new string, joined by NUL, or ``texts`` itself when
    there is none or one holds a NUL.  :func:`_split` undoes it."""
    joined = "\0".join(texts)
    return joined if texts and joined.count("\0") == len(texts) - 1 else texts


def _split(texts: str | list[str]) -> list[str]:
    return texts.split("\0") if isinstance(texts, str) else texts


def _located_json(data: list, opts: IngestOptions) -> Corpus:
    """:func:`parse_corpus_json` paper by paper: the first failure in the
    document raises its located error."""
    index, pub_years, titles, row_paper, years, counts = {}, [], [], [], [], []
    repeated = None  # the locator of the first repeated citation year
    try:
        for i, obj in enumerate(data):
            _located_paper(obj, f"$[{i}]", index)
            seen = set()
            for key, value in obj["citations"].items():
                locator = f"$[{i}].citations.{key}"
                year = _cell_int("citation year keys", key, _YEAR_MIN, _YEAR_MAX, locator, SchemaError)
                if type(value) is not int:
                    raise SchemaError("citation counts must be integers", locator)
                if value == 0:
                    raise SchemaError("zero counts must be omitted", locator)
                if value < 0:
                    raise SchemaError("citation counts must be positive", locator)
                if value > _MAX_COUNT:
                    raise SchemaError(f"citation counts must be <= {_MAX_COUNT}", locator)
                if year in seen and repeated is None:
                    repeated = locator
                seen.add(year)
                row_paper.append(i)
                years.append(year)
                counts.append(value)
            index[obj["id"]] = i
            pub_years.append(obj["pub_year"])
            titles.append(obj.get("title"))
    except (IngestError, DuplicateIdError):
        if repeated is None:
            raise
    # A repeated year wins over every later failure.
    if repeated is not None:
        raise SchemaError("duplicate citation year", repeated)
    return _corpus_from_rows(list(index), pub_years, titles, row_paper, years, counts, opts.lenient_clamp)


def _located_paper(obj, path: str, index: dict) -> None:
    """Raise the located error of JSON paper ``obj`` at ``path`` when it
    breaks a rule of its own, its citation entries aside, or repeats an id
    of ``index``."""
    if not isinstance(obj, dict):
        raise SchemaError("paper entry must be an object", path)
    if not obj.keys() <= _JSON_KEYS:
        raise SchemaError(f"unknown keys {sorted(obj.keys() - _JSON_KEYS)}", path)
    for key in ("id", "pub_year", "citations"):
        if key not in obj:
            raise SchemaError(f"missing required key {key!r}", path)
    paper_id, pub_year, title = obj["id"], obj["pub_year"], obj.get("title")
    if not isinstance(paper_id, str) or not paper_id:
        raise SchemaError("id must be a non-empty string", f"{path}.id")
    if paper_id in index:
        raise DuplicateIdError(paper_id, f"{path}.id")
    if type(pub_year) is not int:
        raise SchemaError("pub_year must be an integer", f"{path}.pub_year")
    if not _YEAR_MIN <= pub_year <= _YEAR_MAX:
        raise SchemaError(f"pub_year must lie in {_YEAR_MIN}..{_YEAR_MAX}", f"{path}.pub_year")
    if title is not None and not isinstance(title, str):
        raise SchemaError("title must be a string or null", f"{path}.title")
    if not isinstance(obj["citations"], dict):
        raise SchemaError("citations must be an object", f"{path}.citations")


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
