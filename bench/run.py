"""Seeded benchmark of citewindow: three workloads, timed end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload database_cli --seed 1 --seconds 15 --trace 0

``--workload all`` (the default) runs the three workloads one after
another.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced in-process replay instead.  See bench/README.md.

This runner starts one child at a time and reads each child's peak RSS
when it reaps it.  The children are: bench/plan.py, which writes the
inputs and later checks the outputs; the CLI; and bench/worker.py,
which imports the library from ``src``.  The runner itself loads neither
numpy nor the library nor any output, so it stays small: a child starts
as a copy of its parent, and wait4 reports the larger of the two peaks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RUN_DIR = os.path.join(WORK, "run")  # one run's inputs and outputs, removed afterwards
WORKLOADS = ("database_cli", "window_sweep", "author_batch")
IMPORT_REPS = 5
# This machine's speed drifts with its neighbours' load: a fixed loop's
# median over 5 s windows varied by 50 %, its fastest time by far less.
# So, as the timeit documentation advises, a run repeats every operation
# at least three times and keeps each operation's fastest time.
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # no extra threads
    return env


def run_child(argv: list[str], stdout_path: str | None = None) -> tuple[float, float, int]:
    """Run one child to its end; (wall seconds, peak RSS in MB, exit code)."""
    err_path = os.path.join(RUN_DIR, "child.stderr")
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise ChildFailed(f"{' '.join(argv)} ran longer than {CHILD_TIMEOUT_S} s") from None
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
    finally:
        if stdout_path:
            out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    if stderr.strip():
        sys.stderr.write(stderr)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_worker(job: dict) -> tuple[dict, float]:
    """Run bench/worker.py on a job; (its result, its peak RSS in MB)."""
    job = dict(job, src=SRC, outputs=os.path.join(RUN_DIR, "outputs.json"))
    job_path = os.path.join(RUN_DIR, "job.json")
    result_path = os.path.join(RUN_DIR, "result.json")
    _dump(job_path, job)
    _, rss, code = run_child([sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path])
    if code != 0:
        raise ChildFailed(f"worker ({job['mode']}) exited {code}")
    return _load(result_path), rss


def run_plan(action: str, workload: str, seed: int) -> dict:
    """``plan.py prepare`` (inputs) or ``plan.py check`` (verdict) in a child."""
    _, _, code = run_child([sys.executable, os.path.join(HERE, "plan.py"), action, workload, str(seed), RUN_DIR])
    if code != 0:
        raise ChildFailed(f"plan.py {action} exited {code}")
    return _load(os.path.join(RUN_DIR, "plan.json" if action == "prepare" else "verdict.json"))


def import_seconds(reps: int) -> float:
    """Fastest time of ``import citewindow`` over fresh interpreters."""
    return min(run_worker({"mode": "import"})[0]["import_s"] for _ in range(reps))


def seconds_per_round(op_seconds: list[list[float]]) -> float:
    """Sum over operations of each operation's fastest time across rounds."""
    return sum(min(samples) for samples in zip(*op_seconds))


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            sha.update(block)
    return sha.hexdigest()


def run_database_cli(plan: dict, seconds: float) -> dict:
    """Rounds of one in-process setup, then each subcommand as a subprocess.

    The first round's output of each subcommand is kept for the check;
    later rounds must print the same bytes.
    """
    setup_job = {"mode": "setup", "corpus": plan["corpus"], "ref_year": plan["ref_year"]}
    rounds, setups, failures, peak, spent = [], [], 0, 0.0, 0.0
    kept: dict[str, str] = {}
    digests: dict[str, str] = {}
    repeated = True
    while len(rounds) < MIN_ROUNDS or spent < seconds:
        setups.append(run_worker(setup_job)[0])
        walls = []
        for name, args in plan["commands"]:
            out_path = os.path.join(RUN_DIR, f"{name}.{len(rounds)}.out")
            wall, rss, code = run_child([sys.executable, "-m", "citewindow", *args], out_path)
            walls.append(wall)
            peak = max(peak, rss)
            if code != 0:
                failures += 1
                continue
            digest = _digest(out_path)
            repeated = repeated and digests.setdefault(name, digest) == digest
            if name in kept:
                os.remove(out_path)
            else:
                kept[name] = out_path
        rounds.append(walls)
        spent += sum(walls)
    return {
        "run": {"cli_outputs": kept, "setup_answers": [s["setup_answer"] for s in setups], "repeated": repeated},
        "attempted": len(rounds) * len(plan["commands"]),
        "failed": failures,
        "metrics": {
            "setup_s": min(setup["setup_s"] for setup in setups),
            "ops_per_s": len(plan["commands"]) / seconds_per_round(rounds),
            "peak_rss_mb": peak,
        },
        "detail": {f"{name}_s": min(w) for (name, _), w in zip(plan["commands"], zip(*rounds))},
    }


def run_window_sweep(plan: dict, seconds: float) -> dict:
    job = {key: plan[key] for key in ("corpus", "ref_year", "queries", "evolution_t")}
    # Set-up is also sampled in separate processes before and after the
    # sweep, so that its samples spread over the run.
    setups = [run_worker(dict(job, mode="setup"))[0] for _ in range(2)]
    out, rss = run_worker(dict(job, mode="sweep", seconds=seconds, min_rounds=MIN_ROUNDS))
    setups += [run_worker(dict(job, mode="setup"))[0] for _ in range(2)]
    rounds = len(out["op_seconds"])
    return {
        "run": {"setup_answers": [s["setup_answer"] for s in setups], "repeated": True},
        "rounds": rounds,
        "attempted": plan["ops_per_round"] * rounds,
        "metrics": {
            "setup_s": min([out["setup_s"]] + [s["setup_s"] for s in setups]),
            "ops_per_s": plan["ops_per_round"] / seconds_per_round(out["op_seconds"]),
            "peak_rss_mb": rss,
        },
        "detail": {
            "rounds": rounds,
            "queries_s": seconds_per_round([r[:-1] for r in out["op_seconds"]]),
            "evolution_table_s": min(r[-1] for r in out["op_seconds"]),
        },
    }


def run_author_batch(plan: dict, seconds: float) -> dict:
    imports = [import_seconds(IMPORT_REPS // 2)]
    job = {"mode": "authors", "authors": plan["authors"], "ref_year": plan["ref_year"]}
    out, rss = run_worker(dict(job, seconds=seconds, min_rounds=MIN_ROUNDS))
    imports.append(import_seconds(IMPORT_REPS - IMPORT_REPS // 2))  # spread over the run
    rounds = len(out["op_seconds"])
    return {
        "run": {"setup_answers": [], "repeated": True},
        "rounds": rounds,
        "attempted": plan["ops_per_round"] * rounds,
        "metrics": {
            "setup_s": min(imports),
            "ops_per_s": plan["ops_per_round"] / seconds_per_round(out["op_seconds"]),
            "peak_rss_mb": rss,
        },
        "detail": {"rounds": rounds},
    }


def run_traced(workload: str, plan: dict) -> dict:
    spans = os.path.join(WORK, f"spans-{workload}.jsonl")
    import_s = import_seconds(IMPORT_REPS)
    out, _ = run_worker(dict(plan, mode="replay", workload=workload, spans=spans))
    return {
        "run": {"setup_answers": [], "repeated": True},
        "rounds": out["passes"],
        "attempted": plan["ops_per_round"] * out["passes"],
        "metrics": dict(out["metrics"], **{"cli.import_s": import_s}),
        "detail": {"untraced_s": out["untraced_s"], "traced_s": out["traced_s"], "spans": spans},
    }


RUNNERS = {"database_cli": run_database_cli, "window_sweep": run_window_sweep, "author_batch": run_author_batch}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit as BENCHMARK.json lists them for this kind of run."""
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    try:
        # Compiles the package's bytecode once, and fails early without it.
        run_worker({"mode": "import"})
        plan = run_plan("prepare", workload, seed)
        result = run_traced(workload, plan) if trace else RUNNERS[workload](plan, seconds)
        _dump(os.path.join(RUN_DIR, "run.json"), result["run"])
        verdict = run_plan("check", workload, seed)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    # The check finds the in-process operations that failed; every round repeats them.
    result.setdefault("failed", verdict["failed_per_round"] * result.get("rounds", 0))
    result["failures"] = verdict["failures"]
    units = declared_units(trace)
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {sorted(units)}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return result


def report(workload: str, result: dict) -> dict:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"   {name:32s} {m['value']:14.6g} {m['unit']}")
    for key, value in result["detail"].items():
        print(f"   ({key}: {value:.6g})" if isinstance(value, float) else f"   ({key}: {value})")
    if "untraced_s" in result["detail"]:
        d = result["detail"]
        print(f"   tracing overhead: {d['traced_s'] - d['untraced_s']:.3f} s on {d['untraced_s']:.3f} s untraced (faster passes)")
    for failure in result["failures"][:20]:
        print(f"   CHECK FAILED {failure}", file=sys.stderr)
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "citewindow", "__init__.py")):
        print(f"no citewindow sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in workloads:
            lines[workload] = report(workload, run_workload(workload, args.seed, args.seconds, bool(args.trace)))
    except ChildFailed as exc:
        traceback.print_exc()
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        print(json.dumps(lines[workloads[0]]))
    else:
        for workload, line in lines.items():
            print(f"{workload}: {json.dumps(line)}")
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{k}": v for w, line in lines.items() for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
