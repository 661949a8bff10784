"""Inputs and verdicts of one benchmark run, each made in a process of its own.

``python bench/plan.py prepare WORKLOAD SEED DIR`` generates the
workload's inputs from the seed and writes them under DIR, with
``plan.json`` telling the runner what to start.

``python bench/plan.py check WORKLOAD SEED DIR`` generates the same
ground truth again and checks every output the run left in DIR with
oracle.py: ``outputs.json`` from the worker, ``run.json`` and the CLI
outputs from the runner.  It writes ``verdict.json``.

Both stay out of the runner so that the runner remains small: a child's
peak RSS as wait4 reports it is never below the runner's own peak, since
the child starts as a copy of the runner.
"""

from __future__ import annotations

import json
import os
import sys

import corpusgen
import oracle

REF = corpusgen.LAST_YEAR
CLI_T_LIST = [2, 3, 5, 10, "all"]  # the CLI's default window lengths
SWEEP_T_LIST = list(range(corpusgen.LAST_YEAR - corpusgen.FIRST_YEAR + 1)) + ["all"]


class Checks:
    """Runs oracle checks, collecting their failures instead of raising."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, check, *args) -> None:
        try:
            check(*args)
        except Exception as exc:  # a check that cannot even run is a failed check
            self.failures.append(f"{getattr(check, '__name__', check)}: {exc!r}")


def failed(output) -> bool:
    """The worker reports a failing operation as {"error": message}."""
    if isinstance(output, dict) and "error" in output:
        print(f"   operation failed: {output['error']}", file=sys.stderr)
        return True
    return False


def _write(path: str, data: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _truth(workload: str, seed: int):
    return {
        "database_cli": corpusgen.database_corpus,
        "window_sweep": corpusgen.sweep_corpus,
        "author_batch": corpusgen.author_corpora,
    }[workload](seed)


def prepare(workload: str, seed: int, out_dir: str) -> dict:
    truth = _truth(workload, seed)
    if workload == "database_cli":
        order = corpusgen.file_order(seed, truth)
        papers, citations = corpusgen.csv_pair_bytes(truth, order)
        pair = [_write(os.path.join(out_dir, "papers.csv"), papers), _write(os.path.join(out_dir, "citations.csv"), citations)]
        doc = _write(os.path.join(out_dir, "corpus.json"), corpusgen.json_bytes(truth, order))
        commands = [
            ["validate", ["validate", *pair]],
            ["aging", ["aging", *pair]],
            ["groups", ["groups", *pair]],
            ["groups_yearly", ["groups", *pair, "--mode", "yearly"]],
            ["evolution", ["evolution", doc, "--interpolated", "--from", str(corpusgen.FIRST_YEAR)]],
            ["index", ["index", doc, "--preset", "contemporary", "--interpolated", "--year", str(REF)]],
        ]
        return {"ref_year": REF, "corpus": pair, "commands": commands, "ops_per_round": len(commands)}
    if workload == "window_sweep":
        order = corpusgen.file_order(seed, truth)
        doc = _write(os.path.join(out_dir, "corpus.json"), corpusgen.json_bytes(truth, order))
        queries = corpusgen.sweep_queries(seed)
        cells = len(SWEEP_T_LIST) * (truth.y_end - truth.y0 + 1)
        return {
            "ref_year": REF,
            "corpus": [doc],
            "queries": queries,
            "evolution_t": ",".join(str(t) for t in SWEEP_T_LIST),
            "ops_per_round": len(queries) + cells,
        }
    paths = []
    for k, author in enumerate(truth):
        doc = corpusgen.json_bytes(author, corpusgen.file_order(seed + k, author))
        paths.append(_write(os.path.join(out_dir, f"author_{k:03d}.json"), doc))
    return {"ref_year": REF, "authors": paths, "ops_per_round": len(paths)}


def check_database_outputs(checks: Checks, truth, texts: dict) -> oracle.Oracle:
    """Checks every subcommand's output; a subcommand that failed has no entry."""
    orc = oracle.Oracle(truth)
    checkers = {
        "validate": lambda text: oracle.check_validate(truth, text),
        "aging": lambda text: oracle.check_aging_csv(truth, text),
        "groups": lambda text: oracle.check_groups_csv(truth, text, "cumulative"),
        "groups_yearly": lambda text: oracle.check_groups_csv(truth, text, "yearly"),
        "evolution": lambda text: oracle.check_evolution_csv(orc, text, CLI_T_LIST, True, corpusgen.FIRST_YEAR),
        "index": lambda text: oracle.check_index_line(truth, text, REF),
    }
    for name, text in texts.items():
        checks(checkers[name], text)
    return orc


def check_sweep_outputs(checks: Checks, orc, queries: list, out: dict) -> int:
    """Checks the operations that did not fail; returns how many failed in a round."""
    kept = [(q, a) for q, a in zip(queries, out["answers"]) if not failed(a)]
    checks(oracle.check_queries, orc, [q for q, _ in kept], [a for _, a in kept])
    failures = len(queries) - len(kept)
    if failed(out["evolution"]):
        return failures + len(SWEEP_T_LIST) * (orc.truth.y_end - orc.truth.y0 + 1)
    checks(oracle.check_evolution_values, orc, SWEEP_T_LIST, out["evolution"])
    return failures


def check_author(checks: Checks, truth, out: dict) -> None:
    orc = oracle.Oracle(truth)
    evolution, aging, cum_manifest, cum_curve, yr_manifest, yr_curve = out["csv"]
    checks(oracle.check_evolution_csv, orc, evolution, CLI_T_LIST, True)
    checks(oracle.check_value, orc.h5(REF, 5), out["h5"], None, "h5_index")
    checks(oracle.check_aif, truth, REF, *out["aif"])
    checks(oracle.check_contemporary, truth, REF, *out["contemporary"])
    checks(oracle.check_aging_csv, truth, aging, 0)
    checks(oracle.check_groups_csv, truth, cum_manifest + "\n" + cum_curve, "cumulative")
    checks(oracle.check_groups_csv, truth, yr_manifest + "\n" + yr_curve, "yearly")
    for csv_text, json_text in zip(out["csv"], out["json"]):
        checks(oracle.check_table_json, csv_text, json_text)
    papers, citations, doc = (text.encode() for text in out["exports"])
    checks(oracle.check_same_corpus, truth, *oracle.parse_csv_pair(papers, citations), "CSV export")
    checks(oracle.check_same_corpus, truth, *oracle.parse_json_doc(doc), "JSON export")
    checks(oracle.require, all(out["round_trip_equal"]), "a parsed-back export differs from the parsed corpus")


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, seed: int, out_dir: str) -> dict:
    """Checks one run's outputs; (failure messages, failed operations per round)."""
    truth = _truth(workload, seed)
    plan = _load(os.path.join(out_dir, "plan.json"))
    run = _load(os.path.join(out_dir, "run.json"))
    path = os.path.join(out_dir, "outputs.json")
    outputs = _load(path) if os.path.exists(path) else {}
    checks = Checks()
    failures = 0
    if workload == "database_cli":
        if "cli" in outputs:  # the traced replay returns the texts itself
            texts = {name: text for (name, _), text in zip(plan["commands"], outputs["cli"]) if not failed(text)}
            failures = len(plan["commands"]) - len(texts)
        else:  # the runner keeps the first round's output of each subcommand that exited 0
            texts = {}
            for name, out_path in run["cli_outputs"].items():
                with open(out_path, encoding="utf-8") as fh:
                    texts[name] = fh.read()
        orc = check_database_outputs(checks, truth, texts)
    elif workload == "window_sweep":
        orc = oracle.Oracle(truth)
        failures = check_sweep_outputs(checks, orc, plan["queries"], outputs)
    else:
        for author, result in zip(truth, outputs["authors"]):
            if failed(result):
                failures += 1
            else:
                check_author(checks, author, result)
    if workload != "author_batch":
        answers = run["setup_answers"] + ([outputs["setup_answer"]] if "setup_answer" in outputs else [])
        for h, _, _ in answers:
            checks(oracle.check_value, orc.windowed(None, REF, None, REF), h, None, "setup query")
    checks(oracle.require, run["repeated"] and outputs.get("repeated", True), "a repeated pass gave other outputs")
    return {"failures": checks.failures, "failed_per_round": failures}


def main(argv: list[str]) -> int:
    action, workload, seed, out_dir = argv[1], argv[2], int(argv[3]), argv[4]
    if action == "prepare":
        name, result = "plan.json", prepare(workload, seed, out_dir)
    else:
        name, result = "verdict.json", check(workload, seed, out_dir)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
