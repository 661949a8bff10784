"""Plot-ready output tables for the command line front end.

Tables are plain header + string-cell rows.  Index values render with 4
decimal places, percentages with 2; whatever is undefined stays an empty
cell.  Serialization follows the same CSV conventions the ingest parser
reads (UTF-8, LF, minimal quoting), so every emitted table can be read
back with standard CSV tooling.  JSON output has the bytes of
``json.dumps(..., indent=2, ensure_ascii=False)``, written by a fixed-layout
writer instead of that call's pure-Python indenting encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate

from . import aging as _aging
from . import indices as _indices
from .ingest import _csv_text
from .model import Corpus
from .rational import _fixed, as_fraction

__all__ = [
    "OutputTable",
    "corpus_summary",
    "evolution_output",
    "aging_output",
    "groups_output",
    "json_document",
]


@dataclass(frozen=True)
class OutputTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row arity {len(row)} does not match header arity {len(self.columns)}"
                )

    def to_csv(self) -> str:
        return _csv_text(self.columns, self.rows)

    def to_json_obj(self) -> dict:
        return {"columns": list(self.columns), "rows": [list(r) for r in self.rows]}

    def to_json(self) -> str:
        return _json_table(self, "") + "\n"


def _json_block(brackets: str, items: list[str], indent: str) -> str:
    """A JSON list (``"[]"``) or object (``"{}"``) of already encoded ``items``,
    laid out as ``json.dumps(indent=2)`` lays it out with its opening bracket
    at nesting ``indent``."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    # One f-string, so the text is copied once more after the join, not
    # once per concatenation.
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{indent}{brackets[1]}"


def _json_table(table: OutputTable, indent: str) -> str:
    """``table.to_json_obj()`` in the layout of ``json.dumps(indent=2, ensure_ascii=False)``."""
    encode = json.encoder.encode_basestring
    inner = indent + "  "
    columns = _json_block("[]", list(map(encode, table.columns)), inner)
    rows = _json_block(
        "[]", [_json_block("[]", list(map(encode, row)), inner + "  ") for row in table.rows], inner
    )
    return f'{{\n{inner}"columns": {columns},\n{inner}"rows": {rows}\n{indent}}}'


def json_document(named_tables) -> str:
    """The JSON text of (name, table) pairs: a single table is the document
    itself, several become one object keyed by name, in the given order."""
    if len(named_tables) == 1:
        return named_tables[0][1].to_json()
    encode = json.encoder.encode_basestring
    fields = [f"{encode(name)}: {_json_table(table, '  ')}" for name, table in named_tables]
    return _json_block("{}", fields, "") + "\n"


def corpus_summary(corpus: Corpus) -> str:
    """One-line corpus overview used by the validate command."""
    if corpus.is_empty:
        return "0 papers, 0 citations"
    return (
        f"{len(corpus)} papers, {corpus.y0}-{corpus.y_end}, "
        f"{corpus.total_citations()} citations"
    )


def evolution_output(
    corpus: Corpus,
    t_values,
    y_from: int | None = None,
    y_to: int | None = None,
    interpolated: bool = False,
) -> OutputTable:
    """Year-by-year table of the timed index, one column per window length.

    Cells render from the kernel's integers: the interpolated value is
    (c(h) + h·d) / (1 + d) with d = c(h) - c(h + 1), rounded exactly.
    """
    lengths, years, windows = _indices._evolution_windows(corpus, t_values, y_from, y_to)
    (hs, c_hs, c_h1s), at = _indices._window_rows(corpus, windows)
    if interpolated:
        terms = map(_indices._crossing_terms, hs, c_hs, c_h1s)
        distinct = [_fixed(num, den, 4) for num, den in terms]
    else:
        distinct = list(map(str, hs))
    cells = [distinct[i] for i in at]
    columns = ["year"] + ["t=all" if t is _indices.ALL else f"t={t}" for t in lengths]
    n = len(years)
    rows = tuple((str(year), *cells[j::n]) for j, year in enumerate(years))
    return OutputTable(tuple(columns), rows)


def aging_output(
    corpus: Corpus,
    min_citations: int = 20,
    quantile_tokens: tuple[str, ...] = ("25", "50", "75", "90"),
    ref_year: int | None = None,
) -> OutputTable:
    """Per-paper quantile windows plus a recency flag, most cited first.

    Quantile tokens are percentages; each becomes a ``t<token>`` column.
    Papers without citations (reachable with ``min_citations=0``) keep
    their row but leave the quantile cells empty.  The recency flag marks
    a citation within the last two years up to ``ref_year``.
    """
    corpus._require_papers()
    if ref_year is None:
        ref_year = corpus.y_end
    quantiles = [as_fraction(token) / 100 for token in quantile_tokens]
    columns = ["rank", "paper_id", "pub_year", "age", "total"]
    columns += [f"t{token}" for token in quantile_tokens]
    columns += ["recently_cited"]

    order, totals = _aging._ranking(corpus, ref_year)
    pub_year = corpus._pub_year[order]
    kept = (totals >= min_citations) & (pub_year <= ref_year)
    order, totals, pub_year = order[kept], totals[kept], pub_year[kept]
    windows = _aging._quantile_windows(corpus, ref_year, _aging._checked_quantiles(quantiles))
    recent = corpus._totals(ref_year, since=ref_year - 1) > 0
    ids = corpus._ids
    no_windows = ["" for _ in quantiles]
    # One string per distinct year, age, total and window; only the rank is new per row.
    text = cache(str)
    rows = []
    for rank, (i, total, year, t_q, cited) in enumerate(
        zip(
            order.tolist(),
            totals.tolist(),
            pub_year.tolist(),
            windows[order].tolist(),
            recent[order].tolist(),
        ),
        start=1,
    ):
        rows.append(
            (
                str(rank),
                ids[i],
                text(year),
                text(ref_year - year),
                text(total),
                *(map(text, t_q) if total > 0 else no_windows),
                "1" if cited else "0",
            )
        )
    return OutputTable(tuple(columns), tuple(rows))


def groups_output(
    corpus: Corpus,
    mass_fraction=Fraction(15, 100),
    mode: str = "cumulative",
    ref_year: int | None = None,
) -> tuple[OutputTable, OutputTable]:
    """Group manifest plus one curve table, for the groups command.

    The manifest lists each group's rank range and citation mass; the
    curve table holds (group, t, value) rows where the value is the
    cumulative percentage (2 decimals) or the yearly count, depending on
    ``mode``.
    """
    if mode not in ("cumulative", "yearly"):
        raise ValueError(f"mode must be 'cumulative' or 'yearly', got {mode!r}")
    partition = _aging.partition_by_mass(corpus, mass_fraction, ref_year)
    manifest_rows = tuple(
        (str(g.index), str(g.rank_from), str(g.rank_to), str(g.mass))
        for g in partition
    )
    manifest = OutputTable(("group", "rank_from", "rank_to", "mass"), manifest_rows)

    counts = _aging.group_yearly_counts(corpus, partition)
    curve_rows = []
    for group, yearly in zip(partition, counts):
        if mode == "cumulative":
            # The percentage 100 * running / mass, rendered from integers.
            cells = [_fixed(100 * got, group.mass, 2) for got in accumulate(yearly)]
        else:
            cells = list(map(str, yearly))
        label = str(group.index)
        curve_rows += [(label, str(t), cell) for t, cell in enumerate(cells)]
    curve_table = OutputTable(("group", "t", "value"), tuple(curve_rows))
    return manifest, curve_table
