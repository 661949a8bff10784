"""Command line front end.

Subcommands mirror the library: ``validate`` checks and summarizes a
corpus, ``evolution``/``aging``/``groups`` emit plot-ready tables, and
``index`` prints a single index value.  A corpus argument is either one
JSON file or a papers CSV followed by a citations CSV.

Exit codes: 0 success, 1 corpus validation or parse failure (or an
output with no UTF-8 form), 2 usage error.  Data goes to stdout (or
``--output``); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import indices, tables
from .errors import CorpusError, InvalidRangeError
from .indices import _MAX_DELTA
from .ingest import IngestOptions, parse_corpus_csv, parse_corpus_json
from .model import _YEAR_MAX, _YEAR_MIN, Corpus, YearWindow
from .rational import as_fraction, format_fixed

DEFAULT_T_LIST = "2,3,5,10,all"


def _load(parser, args) -> Corpus:
    """Read one JSON corpus file or a (papers.csv, citations.csv) pair."""
    paths = args.corpus
    if len(paths) not in (1, 2):
        parser.error("expected 1 JSON corpus path or 2 CSV paths (papers, citations)")
    opts = IngestOptions(lenient_clamp=args.lenient)
    if len(paths) == 1:
        with open(paths[0], "rb") as fh:
            return parse_corpus_json(fh, opts)
    with open(paths[0], "rb") as papers_fh, open(paths[1], "rb") as citations_fh:
        return parse_corpus_csv(papers_fh, citations_fh, opts)


def _write(text: str, output: str | None) -> None:
    """Write ``text`` to stdout or to the file ``output`` as UTF-8.

    The whole text is encoded before anything is written, so a text that
    has no UTF-8 form (a lone surrogate read from a corpus) raises
    ``UnicodeEncodeError`` with nothing written and no file truncated.
    """
    data = text.encode("utf-8")
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_bytes(data)


def _checked(convert, ok, wanted: str):
    """argparse type: ``convert`` the text and accept the value when ``ok`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError, InvalidRangeError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_YEAR = _checked(int, lambda v: _YEAR_MIN <= v <= _YEAR_MAX, f"a year in {_YEAR_MIN}..{_YEAR_MAX}")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NON_NEGATIVE_RATIONAL = _checked(as_fraction, lambda v: v >= 0, "a number >= 0")
_DELTA = _checked(int, lambda v: abs(v) <= _MAX_DELTA, f"an integer in -{_MAX_DELTA}..{_MAX_DELTA}")
_SHARE = _checked(as_fraction, lambda v: 0 < v <= 1, "a fraction in (0, 1]")
_PERCENTAGE = _checked(as_fraction, lambda v: 0 < v <= 100, "a percentage in (0, 100]")
_WINDOW_LENGTH = _checked(
    lambda t: indices.ALL if t.lower() == "all" else int(t),
    lambda v: v is indices.ALL or v >= 0,
    "an integer >= 0 or 'all'",
)


def _year_window(text: str) -> YearWindow:
    start, end = text.split(":")
    return YearWindow(None if start == "*" else int(start), int(end))


_WINDOW = _checked(_year_window, lambda w: True, "a:b with a <= b, where a may be '*'")


def _t_list(text: str) -> list:
    """--t-list: comma-separated window lengths."""
    return [_WINDOW_LENGTH(token.strip()) for token in text.split(",")]


def _quantile_tokens(text: str) -> tuple[str, ...]:
    """--quantiles: comma-separated percentages, kept as typed for the column labels."""
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    if not tokens:
        raise argparse.ArgumentTypeError("must not be empty")
    for token in tokens:
        _PERCENTAGE(token)
    return tokens


def _emit_tables(args, *named_tables: tuple[str, tables.OutputTable]) -> None:
    if args.format == "json":
        _write(tables.json_document(named_tables), args.output)
    else:
        text = "\n".join(table.to_csv() for _, table in named_tables)
        _write(text, args.output)


def cmd_validate(parser, args) -> int:
    corpus = _load(parser, args)
    _write(tables.corpus_summary(corpus) + "\n", args.output)
    return 0


def cmd_evolution(parser, args) -> int:
    # Only both flags together are a flag error; one flag may leave the
    # corpus span empty, which is a data error.
    if args.y_from is not None and args.y_to is not None and args.y_from > args.y_to:
        parser.error(f"--from {args.y_from} is after --to {args.y_to}")
    corpus = _load(parser, args)
    table = tables.evolution_output(
        corpus, args.t_list, args.y_from, args.y_to, args.interpolated
    )
    _emit_tables(args, ("evolution", table))
    return 0


def cmd_aging(parser, args) -> int:
    corpus = _load(parser, args)
    table = tables.aging_output(corpus, args.min_citations, args.quantiles, args.ref_year)
    _emit_tables(args, ("aging", table))
    return 0


def cmd_groups(parser, args) -> int:
    corpus = _load(parser, args)
    manifest, curve = tables.groups_output(
        corpus, args.mass_fraction, args.mode, args.ref_year
    )
    _emit_tables(args, ("groups", manifest), ("curve", curve))
    return 0


def _index_selection(parser, args) -> str:
    timed = args.t is not None
    windowed = args.pub_window is not None or args.cite_window is not None
    preset = args.preset is not None
    if timed + windowed + preset != 1:
        parser.error(
            "conflicting selectors: use exactly one of --year/--t, "
            "--pub-window/--cite-window, or --preset"
        )
    if timed:
        if args.year is None:
            parser.error("--t requires --year")
        return "timed"
    if windowed:
        if args.pub_window is None or args.cite_window is None:
            parser.error("--pub-window and --cite-window must be given together")
        if args.year is not None:
            parser.error("conflicting selectors: --year does not combine with windows")
        return "windowed"
    if args.year is None:
        parser.error(f"--preset {args.preset} requires --year")
    return "preset"


def cmd_index(parser, args) -> int:
    style = _index_selection(parser, args)
    for flag, value, wanted in (
        ("--span", args.span, "h5"),
        ("--delta-t", args.delta_t, "aif"),
        ("--gamma", args.gamma, "contemporary"),
        ("--delta", args.delta, "contemporary"),
    ):
        if value is not None and args.preset != wanted:
            parser.error(f"{flag} only applies to --preset {wanted}")
    if args.interpolated and args.preset == "aif":
        parser.error("--interpolated does not apply to --preset aif")

    corpus = _load(parser, args)
    if style == "timed":
        value = indices.timed_h(corpus, args.year, args.t, args.interpolated)
    elif style == "windowed":
        value = indices.windowed_h(corpus, args.pub_window, args.cite_window, args.interpolated)
    elif args.preset == "h5":
        span = 5 if args.span is None else args.span
        value = indices.h5_index(corpus, args.year, span, args.interpolated)
    elif args.preset == "aif":
        delta_t = 5 if args.delta_t is None else args.delta_t
        aif = indices.author_impact_factor(corpus, args.year, delta_t)
        _write(format_fixed(aif.value, 4) + "\n", args.output)
        return 0
    else:
        gamma = 4 if args.gamma is None else args.gamma
        delta = 1 if args.delta is None else args.delta
        value = indices.contemporary_h(corpus, args.year, gamma, delta, args.interpolated)

    if args.interpolated:
        _write(f"{value.h} / {format_fixed(value.h_interp, 4)}\n", args.output)
    else:
        _write(f"{value.h}\n", args.output)
    return 0


def _add_corpus_argument(sub) -> None:
    sub.add_argument(
        "corpus",
        nargs="+",
        metavar="PATH",
        help="corpus JSON file, or papers CSV followed by citations CSV",
    )
    sub.add_argument(
        "--lenient",
        action="store_true",
        help="clamp citations recorded before the publication year",
    )


def _add_output_arguments(sub, formats: bool = True) -> None:
    if formats:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", metavar="PATH", help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citewindow",
        description="Windowed h-index variants and citation-aging tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a corpus and print a summary")
    _add_corpus_argument(p)
    _add_output_arguments(p, formats=False)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("evolution", help="timed index values per year and window length")
    _add_corpus_argument(p)
    p.add_argument(
        "--t-list",
        type=_t_list,
        default=DEFAULT_T_LIST,
        help="comma list of lengths, 'all' allowed",
    )
    p.add_argument("--from", dest="y_from", type=_YEAR, help="first year (default: y0)")
    p.add_argument("--to", dest="y_to", type=_YEAR, help="last year (default: y_end)")
    p.add_argument("--interpolated", action="store_true")
    _add_output_arguments(p)
    p.set_defaults(handler=cmd_evolution)

    p = sub.add_parser("aging", help="per-paper quantile citation windows")
    _add_corpus_argument(p)
    p.add_argument("--min-citations", type=int, default=20)
    p.add_argument(
        "--quantiles",
        type=_quantile_tokens,
        default="25,50,75,90",
        help="comma list of percentages",
    )
    p.add_argument("--ref-year", type=_YEAR)
    _add_output_arguments(p)
    p.set_defaults(handler=cmd_aging)

    p = sub.add_parser("groups", help="citation-mass groups and their aging curves")
    _add_corpus_argument(p)
    p.add_argument("--mass-fraction", type=_SHARE, default="0.15", help="target share per group")
    p.add_argument("--mode", choices=("cumulative", "yearly"), default="cumulative")
    p.add_argument("--ref-year", type=_YEAR)
    _add_output_arguments(p)
    p.set_defaults(handler=cmd_groups)

    p = sub.add_parser("index", help="print a single index value")
    _add_corpus_argument(p)
    p.add_argument("--year", type=_YEAR)
    p.add_argument("--t", type=_NON_NEGATIVE_INT, help="window length for the timed index")
    for flag, what in (("--pub-window", "publication"), ("--cite-window", "citation")):
        p.add_argument(flag, type=_WINDOW, metavar="A:B", help=f"{what} window, '*' = unbounded")
    p.add_argument("--preset", choices=("h5", "aif", "contemporary"))
    p.add_argument("--interpolated", action="store_true")
    p.add_argument("--span", type=_NON_NEGATIVE_INT, help="citation span for h5 (default 5)")
    p.add_argument("--delta-t", type=_POSITIVE_INT, help="publication window for aif (default 5)")
    p.add_argument(
        "--gamma", type=_NON_NEGATIVE_RATIONAL, help="scale factor for contemporary (default 4)"
    )
    p.add_argument("--delta", type=_DELTA, help="integer age exponent for contemporary (default 1)")
    _add_output_arguments(p, formats=False)
    p.set_defaults(handler=cmd_index)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except (CorpusError, OSError, UnicodeEncodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
