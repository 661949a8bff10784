"""Golden CLI outputs: each subcommand shape reproduces committed bytes.

The corpus is a seeded ``helpers.random_corpus`` of about 2 000 titled
papers plus one paper published centuries before the rest, written in
both layouts.  Every command runs on both layouts and must print exactly
the bytes stored under ``tests/data/golden/``; the exports must hash to
the digests stored there.  Regenerate the files only when an output
change is intended, all of them or only the named shapes::

    PYTHONPATH=src:tests python tests/test_golden.py [NAME ...]

A new shape's bytes come from the code before the change it guards.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from citewindow import PaperRecord, export_corpus_csv, export_corpus_json, validate_corpus
from citewindow.cli import main
from helpers import random_corpus

GOLDEN = Path(__file__).parent / "data" / "golden"
SEED = 7


def golden_corpus():
    corpus = random_corpus(np.random.default_rng(SEED), max_papers=2200, with_titles=True)
    cited = range(corpus.y_end - 20, corpus.y_end + 1)
    classic = PaperRecord("classic", 1687, {year: 3 for year in cited}, title="Principia")
    return validate_corpus([*corpus.papers, classic])


def _commands(corpus) -> dict:
    """Name -> argv, with the corpus given as "DATA" (one layout or the other)."""
    first, ref, after = str(corpus.y_end - 30), str(corpus.y_end), str(corpus.y_end + 1)
    return {
        "validate": ["validate", "DATA"],
        "aging": ["aging", "DATA"],
        "groups": ["groups", "DATA"],
        "groups_yearly": ["groups", "DATA", "--mode", "yearly"],
        "groups_json": ["groups", "DATA", "--format", "json"],
        "evolution": ["evolution", "DATA", "--interpolated", "--from", first],
        "evolution_json": ["evolution", "DATA", "--interpolated", "--from", first, "--format", "json"],
        "evolution_plain": ["evolution", "DATA", "--t-list", "0,1,4,all", "--from", first, "--to", after],
        "contemporary": ["index", "DATA", "--preset", "contemporary", "--interpolated", "--year", ref],
        "aif": ["index", "DATA", "--preset", "aif", "--year", ref],
        "h5": ["index", "DATA", "--preset", "h5", "--interpolated", "--year", ref],
    }


def _exports(corpus) -> dict:
    papers, citations = export_corpus_csv(corpus)
    return {"papers.csv": papers, "citations.csv": citations, "corpus.json": export_corpus_json(corpus)}


def _layouts(directory: Path, exports: dict) -> dict:
    for name, data in exports.items():
        (directory / name).write_bytes(data)
    return {
        "csv": [str(directory / "papers.csv"), str(directory / "citations.csv")],
        "json": [str(directory / "corpus.json")],
    }


def _run(argv, data) -> str:
    i = argv.index("DATA")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[:i] + data + argv[i + 1 :]) == 0
    return out.getvalue()


def _digests(exports: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in exports.items()}


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    corpus = golden_corpus()
    exports = _exports(corpus)
    return corpus, exports, _layouts(tmp_path_factory.mktemp("golden"), exports)


def test_exports_match_digests(setup):
    _, exports, _ = setup
    expected = json.loads((GOLDEN / "exports.json").read_text())
    assert _digests(exports) == expected


@pytest.mark.parametrize("layout", ["csv", "json"])
@pytest.mark.parametrize(
    "name",
    [
        "validate",
        "aging",
        "groups",
        "groups_yearly",
        "groups_json",
        "evolution",
        "evolution_json",
        "evolution_plain",
        "contemporary",
        "aif",
        "h5",
    ],
)
def test_cli_reproduces_golden_output(setup, name, layout):
    corpus, _, layouts = setup
    expected = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert _run(_commands(corpus)[name], layouts[layout]) == expected


if __name__ == "__main__":
    import sys
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    corpus = golden_corpus()
    exports = _exports(corpus)
    commands = _commands(corpus)
    names = sys.argv[1:] or ["exports", *commands]
    unknown = sorted(set(names) - {"exports", *commands})
    if unknown:
        sys.exit(f"unknown golden shapes: {', '.join(unknown)}")
    if "exports" in names:
        (GOLDEN / "exports.json").write_text(json.dumps(_digests(exports), indent=2, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        layouts = _layouts(Path(tmp), exports)
        for name in names:
            if name == "exports":
                continue
            argv = commands[name]
            text = _run(argv, layouts["json"])
            assert text == _run(argv, layouts["csv"])
            (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8", newline="")
    print(f"{len(corpus)} papers; wrote {', '.join(names)} to {GOLDEN}")
