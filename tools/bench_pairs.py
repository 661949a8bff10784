"""Alternated benchmark pairs: a base commit against the current checkout.

Usage, from anywhere inside the repository::

    python3 tools/bench_pairs.py --base REV --first-seed N            # REV against the checkout, 10 pairs
    python3 tools/bench_pairs.py --base HEAD --first-seed N           # uncommitted edits against the last commit
    python3 tools/bench_pairs.py --base REV --first-seed N --pairs 12 --workload database_cli

Both ``--base`` and ``--first-seed`` are required.  After a merge the
last commit may touch only documents, so name the parent of the code
change explicitly, and pick seeds that no earlier measurement used.

The base commit's files are exported with ``git archive`` into a
temporary directory, and the checkout's tracked files, with its
untracked files that are not ignored, are copied into another, so
uncommitted edits come along and the repository itself (its index, its
worktree list, its checkout) is left as it was.  Both directories'
paths have the same length: the checkout's path alone moved
``database_cli``'s ``peak_rss_mb`` between about 86 and 94 MB, because
the JSON ``evolution`` subcommand's count cache either reuses heap that
the parse left free or maps fresh memory.  Pair i runs ``bench/run.py
--seed (first_seed + i)`` once in each tree, for ``BENCHMARK.json``'s
``run_seconds`` per workload; even pairs run the base first and odd
pairs the checkout first.  Each side uses its own ``bench/``, so
compare only commits whose benchmark is the same.

For every end-to-end metric that ``BENCHMARK.json`` declares, on every
workload, it prints the median of each side, the base's quartiles, and
how many pairs the checkout won (ties count for neither).  A gain
counts as shown when the checkout wins at least nine tenths of the pairs
and the medians differ by more than the base's quartile distance.  Runs
that report ``correct: false`` or failed operations, or that exit
non-zero, are flagged.  Below that table, as information only and not
judged, it prints each side's median of every detail figure that
``bench/run.py`` prints as a ``(key: value)`` line: ``window_sweep``'s
``rounds``, ``queries_s`` and ``evolution_table_s``, ``database_cli``'s
time of each subcommand, and ``author_batch``'s ``rounds``.  A workload's
``peak_rss_mb`` can grow with the rounds that fit into its time, so the
round count belongs beside it.  The last stdout line is a JSON object
with every run's metrics and detail figures.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(root: str, *args: str) -> str:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True, text=True).stdout.strip()


def export_tree(root: str, rev: str, into: str) -> None:
    """Write the files of ``rev`` under ``into`` (``git archive`` piped into ``tar``)."""
    archive = subprocess.Popen(["git", "-C", root, "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"git archive {rev} failed")


def copy_checkout(root: str, into: str) -> None:
    """Copy the checkout's tracked files, and its untracked files that are
    not ignored, from ``root`` to ``into``, with their uncommitted edits."""
    for name in git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = os.path.join(root, name)
        if name and os.path.lexists(source):  # a tracked file deleted in the checkout is still listed
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target, follow_symlinks=False)


# A detail line as ``bench/run.py`` prints it: an int, or a float in
# ``.6g`` form; other values, such as a traced run's path, do not match.
_DETAIL = re.compile(r"\s*\((\w+): ([-+.0-9e]+|nan|inf)\)\s*")


def details(stdout: str) -> dict:
    """The numeric ``(key: value)`` detail lines of a ``bench/run.py``
    summary: ints where the value is written as one, floats otherwise."""
    out = {}
    for line in stdout.splitlines():
        match = _DETAIL.fullmatch(line)
        if match:
            key, value = match.groups()
            out[key] = int(value) if value.isdigit() else float(value)
    return out


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line with its detail
    figures under ``detail``, or a failure record."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {done.returncode}: {tail[0]}"}
    return dict(json.loads(lines[-1]), detail=details(done.stdout))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: dict, metrics: list, workloads: list) -> list[str]:
    """Table lines: per workload and metric, medians, base quartiles and wins."""
    lines, shown = [], []
    header = f"{'workload':14s} {'metric':12s} {'base median':>12s} {'base q1..q3':>21s} {'change median':>14s} {'change':>8s} {'wins':>7s}"
    lines.append(header)
    for workload in workloads:
        pairs = [
            (base, change) for base, change in zip(runs["base"][workload], runs["change"][workload])
            if "metrics" in base and "metrics" in change
        ]
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            base = [b["metrics"][name]["value"] for b, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            if not pairs:
                lines.append(f"{workload:14s} {name:12s} no complete pairs")
                continue
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            b_med, c_med = statistics.median(base), statistics.median(change)
            q1, q3 = quartiles(base)
            rel = (c_med - b_med) / b_med * 100 if b_med else float("nan")
            lines.append(
                f"{workload:14s} {name:12s} {b_med:12.4g} {q1:10.4g}..{q3:<10.4g} {c_med:14.4g} {rel:+7.1f}% {wins:3d}/{len(pairs)}"
            )
            better = (b_med - c_med) if lower else (c_med - b_med)
            if wins * 10 >= 9 * len(pairs) and better > q3 - q1:
                shown.append(f"{workload}.{name}")
    lines.append("gain shown (>= 9/10 wins, median gain above base quartile distance): " + (", ".join(shown) or "none"))
    return lines


def summarize_details(runs: dict, workloads: list) -> list[str]:
    """Table lines: per workload and detail figure, each side's median.
    Information only; no gain or loss is judged from them."""
    lines = [f"{'workload':14s} {'detail':20s} {'base median':>12s} {'change median':>14s}   (information only, not judged)"]
    for workload in workloads:
        sides = [[run["detail"] for run in runs[side][workload] if "detail" in run] for side in ("base", "change")]
        keys = dict.fromkeys(key for side in sides for detail in side for key in detail)
        for key in keys:
            medians = [statistics.median(values) if values else float("nan")
                       for values in ([d[key] for d in side if key in d] for side in sides)]
            lines.append(f"{workload:14s} {key:20s} {medians[0]:12.4g} {medians[1]:14.4g}")
    return lines


def flags(runs: dict) -> list[str]:
    out = []
    for side, by_workload in runs.items():
        for workload, results in by_workload.items():
            for i, result in enumerate(results):
                if "error" in result:
                    out.append(f"{side} {workload} pair {i}: run failed ({result['error']})")
                elif not result.get("correct", False) or result.get("failed", 0):
                    out.append(f"{side} {workload} pair {i}: correct={result.get('correct')} failed={result.get('failed')}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--workload", action="append", help="workload to run; repeat for several (default: all)")
    args = parser.parse_args(argv)

    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    base_rev = git(root, "rev-parse", "--short", args.base)

    runs = {"base": {w: [] for w in workloads}, "change": {w: [] for w in workloads}}
    # Prefixes of equal length give paths of equal length.
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree, \
            tempfile.TemporaryDirectory(prefix="bench-chng-") as change_tree:
        export_tree(root, base_rev, base_tree)
        copy_checkout(root, change_tree)
        trees = {"base": base_tree, "change": change_tree}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    runs[side][workload].append(run_bench(trees[side], workload, seed, seconds))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)

    print(f"base {base_rev} against the checkout at {root}: {args.pairs} pairs, seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}, {seconds:g} s per workload")
    for line in summarize(runs, spec["end_to_end"], workloads) + summarize_details(runs, workloads):
        print(line)
    problems = flags(runs)
    for line in problems:
        print("FLAG", line)
    print(json.dumps({"base": base_rev, "seeds": [args.first_seed, args.pairs], "runs": runs}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
