"""The package's public surface: ``citewindow.__all__`` and what it binds."""

import sys
import types

import citewindow

PUBLIC = [
    "ALL",
    "AifValue",
    "CitationBeforePublicationError",
    "CitationGroup",
    "Corpus",
    "CorpusError",
    "DuplicateIdError",
    "DuplicateYearRowError",
    "EmptyCorpusError",
    "EvolutionTable",
    "GroupPartition",
    "IndexValue",
    "IngestError",
    "IngestOptions",
    "InvalidRangeError",
    "MalformedHeaderError",
    "NegativeCountError",
    "NoPapersInWindowError",
    "PaperRecord",
    "ParseError",
    "QuantileWindows",
    "RankedCitations",
    "RefYearBeforePublicationError",
    "SchemaError",
    "UnknownPaperIdError",
    "YearWindow",
    "ZeroCitationsError",
    "author_impact_factor",
    "contemporary_h",
    "evolution_table",
    "export_corpus",
    "export_corpus_csv",
    "export_corpus_json",
    "group_cumulative_curves",
    "group_yearly_counts",
    "h5_index",
    "h_from_ranked",
    "interpolate_h",
    "parse_corpus_csv",
    "parse_corpus_json",
    "partition_by_mass",
    "quantile_windows",
    "rank_citations",
    "rank_papers_by_total",
    "recently_cited_count",
    "timed_h",
    "validate_corpus",
    "windowed_h",
]


def _star_names(module: types.ModuleType) -> list[str]:
    """The names ``from module import *`` binds."""
    return getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])


def test_all_is_pinned():
    assert citewindow.__all__ == PUBLIC


def test_each_name_is_its_defining_modules_export():
    for name in citewindow.__all__:
        value = getattr(citewindow, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("citewindow."), name
        assert getattr(module, name) is value, name
        assert name in _star_names(module), name


def test_only_submodules_lie_outside_all():
    for name in set(dir(citewindow)) - set(citewindow.__all__):
        if not name.startswith("_"):
            value = getattr(citewindow, name)
            assert isinstance(value, types.ModuleType), name
            assert value.__name__ == f"citewindow.{name}", name
