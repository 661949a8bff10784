"""Plot-ready output tables for the command line front end.

Tables are plain header + string-cell rows.  Index values render with 4
decimal places, percentages with 2; whatever is undefined stays an empty
cell.  Serialization follows the same CSV conventions the ingest parser
reads (UTF-8, LF, minimal quoting), so every emitted table can be read
back with standard CSV tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import aging as _aging
from . import indices as _indices
from .ingest import _csv_text
from .model import Corpus, YearWindow, citations_in_window
from .rational import as_fraction, format_fixed

__all__ = [
    "OutputTable",
    "corpus_summary",
    "evolution_output",
    "aging_output",
    "groups_output",
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
        return json.dumps(self.to_json_obj(), indent=2, ensure_ascii=False) + "\n"


def _render_index(value: _indices.IndexValue, interpolated: bool) -> str:
    if interpolated:
        return format_fixed(value.h_interp, 4)
    return str(value.h)


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
    """Year-by-year table of the timed index, one column per window length."""
    table = _indices.evolution_table(corpus, t_values, y_from, y_to, interpolated)
    columns = ["year"] + [
        "t=all" if t is _indices.ALL else f"t={t}" for t in table.t_values
    ]
    rows = []
    for j, year in enumerate(table.years):
        cells = [str(year)]
        cells += [_render_index(col[j], interpolated) for col in table.values]
        rows.append(tuple(cells))
    return OutputTable(tuple(columns), tuple(rows))


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

    recent_window = YearWindow(ref_year - 1, ref_year)
    rows = []
    rank = 0
    for paper, total in _aging.rank_papers_by_total(corpus, ref_year):
        if total < min_citations or paper.pub_year > ref_year:
            continue
        rank += 1
        if total > 0:
            windows = _aging.quantile_windows(paper, quantiles, ref_year)
            t_cells = [str(windows.t_q[q]) for q in quantiles]
        else:
            t_cells = ["" for _ in quantiles]
        recent = citations_in_window(paper, recent_window) > 0
        rows.append(
            (
                str(rank),
                paper.id,
                str(paper.pub_year),
                str(ref_year - paper.pub_year),
                str(total),
                *t_cells,
                "1" if recent else "0",
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

    if mode == "cumulative":
        curves = _aging.group_cumulative_curves(corpus, partition)
        render = lambda v: format_fixed(v, 2)
    else:
        curves = _aging.group_yearly_counts(corpus, partition)
        render = str
    curve_rows = []
    for group, curve in zip(partition, curves):
        for t, value in enumerate(curve):
            curve_rows.append((str(group.index), str(t), render(value)))
    curve_table = OutputTable(("group", "t", "value"), tuple(curve_rows))
    return manifest, curve_table
