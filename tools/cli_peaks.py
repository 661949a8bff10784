"""Peak RSS of a benchmark workload's CLI subcommands: a base commit against
the checkout, each run from directories of several path lengths.

Usage, from anywhere inside the repository::

    python3 tools/cli_peaks.py --base REV --seeds 1340,1341,1342
    python3 tools/cli_peaks.py --base REV --seeds 1340,1341,1342 --lengths 40,80,120
    python3 tools/cli_peaks.py --base REV --seeds 1340 --workload window_sweep

``--workload database_cli`` (the default) runs that plan's six commands.
``--workload window_sweep`` runs ``validate`` and ``evolution
--interpolated`` on that plan's ``corpus.json``, 10^5 papers, so the peak
of the largest JSON parse is read as a subprocess too.  The benchmark
itself runs that workload in process, and parses the bytes it has read,
which it holds throughout, while the CLI parses from a file handle.  So
two more entries run ``bench/worker.py`` from each tree: ``setup`` (the
parse and the first query) and ``sweep`` (the setup, then three rounds
of the plan's window queries and evolution table, with no time budget).
The benchmark's ``peak_rss_mb`` for that workload is its sweep worker's.
The JSON parse holds one piece's tree at a time, so the sweep rounds,
not the setup, set that peak, and the ``sweep`` entry reads it.  The
benchmark runs rounds for its whole time budget and keeps every round's
per-operation timings, so it reads a few MB above this entry.

The benchmark's ``database_cli`` workload reports as ``peak_rss_mb`` the
largest peak RSS of its six CLI subprocesses.  The JSON ``evolution``
subcommand's peak can read at one of two levels, about 86 or 94 MB, as
its count cache either reuses heap that the JSON parse left free or maps
fresh memory.  Which one it gets has moved with the checkout's path, the
seed and the size of the source files (until ``citewindow.model`` took
numpy's thread-local block at import), so one benchmark run cannot tell a
change's effect on the peak from a change of path.  This tool runs both
sides from paths of every given length.

For each length N, the base commit's files (``git archive``) and a copy
of the checkout (its tracked files and its untracked files that are not
ignored) go to two directories whose absolute paths are N characters
long.  Each seed's inputs are generated once with ``bench/plan.py
prepare WORKLOAD`` and copied into every tree's ``.bench_work/run/``,
where ``bench/run.py`` keeps them.  For each seed and length, the sides
take turns going first; each side runs the commands once to
write its bytecode caches, then once more, reading each peak from
``os.wait4`` with the environment ``bench/run.py`` gives its children.

It prints every command's peak for each configuration and side, and the
largest, which is what ``peak_rss_mb`` takes; then, per command, each
side's range and the largest difference within one configuration.  The
last stdout line is a JSON object with every peak.  Standard library
only, so the runner stays small: a child starts as a copy of its parent,
and wait4 reports the larger of the two peaks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import copy_checkout, export_tree, git

SIDES = ("base", "change")


def path_of_length(parent: str, tag: str, length: int) -> str:
    """``parent/tag`` padded with ``_`` to exactly ``length`` characters."""
    path = os.path.join(parent, tag)
    if len(path) > length:
        raise ValueError(f"{path} is longer than {length} characters")
    return path + "_" * (length - len(path))


def child_env(tree: str) -> dict:
    """The environment ``bench/run.py`` gives a child, for the sources of ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def peak_mb(tree: str, args: list, out_path: str) -> float:
    """Run ``python ARGS`` in ``tree``; its peak RSS in MB."""
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=out, stderr=subprocess.DEVNULL, cwd=tree, env=child_env(tree),
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode} in {tree}")
    return usage.ru_maxrss / 1024.0


def prepare(root: str, workload: str, seed: int, into: str) -> dict:
    """The ``workload`` plan of ``seed``, with its inputs written under ``into``."""
    os.makedirs(into)
    plan = os.path.join(root, "bench", "plan.py")
    subprocess.run([sys.executable, plan, "prepare", workload, str(seed), into], check=True)
    with open(os.path.join(into, "plan.json"), encoding="utf-8") as fh:
        return json.load(fh)


def plan_commands(workload: str, plan: dict) -> list:
    """The (name, interpreter arguments) pairs to run for ``workload``'s
    ``plan``, each from a tree's root.  For ``window_sweep`` it also writes
    the worker's ``setup`` and ``sweep`` jobs next to the plan's corpus,
    which the jobs name where it was generated; their ``src`` is the
    running tree's."""
    if workload == "database_cli":
        return [[name, ["-m", "citewindow", *args]] for name, args in plan["commands"]]
    (doc,) = plan["corpus"]
    here = os.path.dirname(doc)
    sweep = {key: plan[key] for key in ("queries", "evolution_t")}
    sweep.update(min_rounds=3, seconds=0, outputs=os.path.join(here, "sweep_outputs.json"))
    commands = [
        ["validate", ["-m", "citewindow", "validate", doc]],
        ["evolution", ["-m", "citewindow", "evolution", doc, "--interpolated"]],
    ]
    for name, extra in (("setup", {}), ("sweep", sweep)):
        job, result = (os.path.join(here, f"{name}_{kind}.json") for kind in ("job", "result"))
        with open(job, "w", encoding="utf-8") as fh:
            json.dump({"mode": name, "src": "src", "corpus": [doc], "ref_year": plan["ref_year"], **extra}, fh)
        commands.append([name, [os.path.join("bench", "worker.py"), job, result]])
    return commands


def place_inputs(inputs: str, commands: list, tree: str) -> tuple[str, list]:
    """Copy ``inputs`` to ``tree/.bench_work/run``; (that directory, the
    ``commands`` with their paths there)."""
    run_dir = os.path.join(tree, ".bench_work", "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.copytree(inputs, run_dir)
    commands = [
        (name, [os.path.join(run_dir, os.path.relpath(arg, inputs)) if arg.startswith(inputs + os.sep) else arg
                for arg in args])
        for name, args in commands
    ]
    return run_dir, commands


def summarize(configs: list, names: list) -> list[str]:
    """Per command: each side's lowest and highest peak, and the largest
    change-minus-base difference within one configuration."""
    lines = [f"{'command':14s} {'base min..max':>16s} {'change min..max':>16s} {'largest change - base':>22s}"]
    for name in names + ["max"]:
        ranges = []
        for side in SIDES:
            values = [config[side][name] for config in configs]
            ranges.append(f"{min(values):.1f}..{max(values):.1f}")
        diffs = [config["change"][name] - config["base"][name] for config in configs]
        largest = max(diffs, key=abs)
        lines.append(f"{name:14s} {ranges[0]:>16s} {ranges[1]:>16s} {largest:+22.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    parser.add_argument("--lengths", default="40,80,120", help="comma-separated path lengths of the trees")
    parser.add_argument("--workload", default="database_cli", choices=("database_cli", "window_sweep"))
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    lengths = [int(length) for length in args.lengths.split(",")]

    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    base_rev = git(root, "rev-parse", "--short", args.base)
    configs, names = [], []
    with tempfile.TemporaryDirectory(prefix="cli-peaks-") as scratch:
        trees = {}
        for length in lengths:
            for side, tag in zip(SIDES, "bc"):
                tree = trees[side, length] = path_of_length(scratch, tag, length)
                os.makedirs(tree)
                if side == "base":
                    export_tree(root, base_rev, tree)
                else:
                    copy_checkout(root, tree)
        for seed in seeds:
            inputs = os.path.join(scratch, f"inputs-{seed}")
            planned = plan_commands(args.workload, prepare(root, args.workload, seed, inputs))
            names = [name for name, _ in planned]
            for length in lengths:
                order = SIDES if len(configs) % 2 == 0 else SIDES[::-1]
                config = {"seed": seed, "length": length}
                for side in order:
                    tree = trees[side, length]
                    run_dir, commands = place_inputs(inputs, planned, tree)
                    for _ in range(2):  # the first pass writes the bytecode caches
                        peaks = {name: peak_mb(tree, cmd, os.path.join(run_dir, f"{name}.out")) for name, cmd in commands}
                    peaks["max"] = max(peaks.values())
                    config[side] = peaks
                configs.append(config)
                print(f"seed {seed} length {length} done", file=sys.stderr, flush=True)
            shutil.rmtree(inputs)

    print(f"base {base_rev} against the checkout at {root}: {args.workload} peak RSS in MB, "
          f"seeds {args.seeds}, path lengths {args.lengths}")
    print(f"{'seed':>5s} {'length':>6s} {'side':6s} " + " ".join(f"{name:>13s}" for name in names + ["max"]))
    for config in configs:
        for side in SIDES:
            cells = " ".join(f"{config[side][name]:13.1f}" for name in names + ["max"])
            print(f"{config['seed']:5d} {config['length']:6d} {side:6s} {cells}")
    for line in summarize(configs, names):
        print(line)
    print(json.dumps({"base": base_rev, "configs": configs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
