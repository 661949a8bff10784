"""Child process that runs the library in-process for one benchmark job.

Usage: ``python bench/worker.py JOB.json RESULT.json`` with the library's
``src`` directory on PYTHONPATH.  The job names a mode:

- ``import``: time ``import citewindow`` in this fresh interpreter;
- ``setup``: parse the corpus file(s), then run the first query, which
  builds the count cache;
- ``sweep``: setup, then rounds of window queries and one evolution table;
- ``authors``: rounds of complete analyses of every author corpus;
- ``replay``: one workload's operations untraced and traced, twice each,
  then cache probes; returns the outputs and the per-layer figures.

Only this process imports the library, so its peak RSS, read by the
parent when it reaps the process, is the program's.  The worker keeps
the first round's outputs and reports whether later rounds repeated them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from tracer import Tracer

EVOLUTION_T_LIST = "2,3,5,10,all"  # the CLI default, used for author tables


def _import_time() -> float:
    start = time.perf_counter()
    import citewindow  # noqa: F401

    return time.perf_counter() - start


def _load(cw, paths: list[str]):
    if len(paths) == 1:
        with open(paths[0], "rb") as fh:
            return cw.ingest.parse_corpus_json(fh.read())
    with open(paths[0], "rb") as papers, open(paths[1], "rb") as cites:
        return cw.ingest.parse_corpus_csv(papers.read(), cites.read())


def _attempt(fn, *args):
    """Run one operation; a failing one becomes {"error": ...} and is counted, not fatal."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  (any failure of the program under test)
        return {"error": f"{type(exc).__name__}: {exc}"}


def _value(v) -> list:
    if isinstance(v, dict):
        return v
    if v.h_interp is None:
        return [v.h, None, None]
    return [v.h, v.h_interp.numerator, v.h_interp.denominator]


def _career_query(cw, corpus, ref_year: int):
    window = cw.model.YearWindow(None, ref_year)
    return cw.indices.windowed_h(corpus, window, window)


def _setup(cw, job, span=None):
    """Parse plus validation plus the first query; returns (seconds, corpus, answer).

    ``span`` marks the first query for the tracer: it builds the count
    cache, so it is kept out of the per-query figures.
    """
    start = time.perf_counter()
    corpus = _load(cw, job["corpus"])
    with span("bench.first_query") if span else contextlib.nullcontext():
        answer = _career_query(cw, corpus, job["ref_year"])
    return time.perf_counter() - start, corpus, _value(answer)


def run_setup(cw, job) -> dict:
    seconds, _, answer = _setup(cw, job)
    return {"setup_s": seconds, "setup_answer": answer}


def _query(cw, corpus, q):
    ix, window = cw.indices, cw.model.YearWindow
    if q[0] == "w":
        return ix.windowed_h(corpus, window(q[1], q[2]), window(q[3], q[4]), q[5])
    if q[0] == "t":
        return ix.timed_h(corpus, q[1], q[2], q[3])
    return ix.h5_index(corpus, q[1], q[2], q[3])


def _t_values(cw, spec: str) -> list:
    return [cw.indices.ALL if t == "all" else int(t) for t in spec.split(",")]


def sweep_round(cw, corpus, job):
    """All queries, then the evolution table; ((answers, table), seconds per operation)."""
    clock, seconds, answers = time.perf_counter, [], []
    for q in job["queries"]:
        start = clock()
        answers.append(_attempt(_query, cw, corpus, q))
        seconds.append(clock() - start)
    start = clock()
    t_values = _t_values(cw, job["evolution_t"])
    table = _attempt(lambda: cw.indices.evolution_table(corpus, t_values, interpolated=True))
    seconds.append(clock() - start)
    return (answers, table), seconds


def _sweep_output(answers, table) -> dict:
    evolution = table if isinstance(table, dict) else [[_value(v) for v in col] for col in table.values]
    return {"answers": [_value(v) for v in answers], "evolution": evolution}


def analyse_author(cw, blob: bytes, ref_year: int) -> dict:
    """Everything a study computes for one researcher, rendered as a user sees it."""
    ing, ix, tb = cw.ingest, cw.indices, cw.tables
    corpus = ing.parse_corpus_json(blob)
    evolution = tb.evolution_output(corpus, _t_values(cw, EVOLUTION_T_LIST), interpolated=True)
    h5 = ix.h5_index(corpus, ref_year)
    aif = ix.author_impact_factor(corpus, ref_year)
    contemporary = ix.contemporary_h(corpus, ref_year, interpolated=True)
    aging = tb.aging_output(corpus, min_citations=0)
    cumulative = tb.groups_output(corpus)
    yearly = tb.groups_output(corpus, mode="yearly")
    tables = [evolution, aging, *cumulative, *yearly]
    csv_texts = [t.to_csv() for t in tables]
    json_texts = [t.to_json() for t in tables]
    papers_csv, citations_csv = ing.export_corpus_csv(corpus)
    json_doc = ing.export_corpus_json(corpus)
    from_csv = ing.parse_corpus_csv(papers_csv, citations_csv)
    from_json = ing.parse_corpus_json(json_doc)
    return {
        "csv": csv_texts,
        "json": json_texts,
        "h5": h5.h,
        "aif": [aif.numerator, aif.denominator],
        "contemporary": _value(contemporary),
        "exports": [papers_csv.decode(), citations_csv.decode(), json_doc.decode()],
        "round_trip_equal": [from_csv == corpus, from_json == corpus],
    }


def author_round(cw, blobs, ref_year):
    """Every author once; (analyses, seconds per author)."""
    clock, seconds, outputs = time.perf_counter, [], []
    for blob in blobs:
        start = clock()
        outputs.append(_attempt(analyse_author, cw, blob, ref_year))
        seconds.append(clock() - start)
    return outputs, seconds


def _read_blobs(paths):
    blobs = []
    for path in paths:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return blobs


def _rounds(body, job):
    """Whole rounds until both ``min_rounds`` rounds and ``seconds`` seconds
    are done; (seconds per operation per round, first output, all repeated)."""
    times, first, repeated, spent = [], None, True, 0.0
    while len(times) < job["min_rounds"] or spent < job["seconds"]:
        output, seconds = body()
        times.append(seconds)
        spent += sum(seconds)
        if first is None:
            first = output
        else:
            repeated = repeated and output == first
    return times, first, repeated


def _save(job, outputs: dict) -> None:
    """Outputs go to their own file, which only the checking process reads."""
    with open(job["outputs"], "w", encoding="utf-8") as fh:
        json.dump(outputs, fh)


def run_sweep(cw, job) -> dict:
    setup_s, corpus, setup_answer = _setup(cw, job)
    times, (answers, table), repeated = _rounds(lambda: sweep_round(cw, corpus, job), job)
    _save(job, {"setup_answer": setup_answer, "repeated": repeated, **_sweep_output(answers, table)})
    return {"setup_s": setup_s, "op_seconds": times}


def run_authors(cw, job) -> dict:
    blobs = _read_blobs(job["authors"])
    times, outputs, repeated = _rounds(lambda: author_round(cw, blobs, job["ref_year"]), job)
    _save(job, {"authors": outputs, "repeated": repeated})
    return {"op_seconds": times}


def run_cli(cw, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cw.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"citewindow {' '.join(argv)} exited {code}")
    return out.getvalue()


def _replay_body(cw, job, span=None):
    """One pass over the workload's operations; returns (outputs, corpora for the probes)."""
    workload = job["workload"]
    if workload == "author_batch":
        blobs = _read_blobs(job["authors"])
        return {"authors": author_round(cw, blobs, job["ref_year"])[0]}, None
    seconds, corpus, answer = _setup(cw, job, span)
    _career_query(cw, corpus, job["ref_year"])  # warm repeat of the first query
    if workload == "window_sweep":
        return {"setup_answer": answer, **_sweep_output(*sweep_round(cw, corpus, job)[0])}, [corpus]
    cli = [_attempt(run_cli, cw, argv) for _, argv in job["commands"]]
    return {"setup_answer": answer, "cli": cli}, [corpus]


def _cache_probes(cw, corpora, ref_year) -> tuple[float, float]:
    """Cache build (first query minus a warm one) summed over corpora, and
    the largest tracemalloc peak during a first query, in MB."""
    import tracemalloc

    build = 0.0
    peak = 0
    for corpus in corpora:
        fresh = cw.model.Corpus(corpus.papers)
        start = time.perf_counter()
        _career_query(cw, fresh, ref_year)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        _career_query(cw, fresh, ref_year)
        build += cold - (time.perf_counter() - start)
        fresh = cw.model.Corpus(corpus.papers)
        tracemalloc.start()
        _career_query(cw, fresh, ref_year)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return build, peak / 2**20


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.by_name()

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    queries = ("indices.windowed_h", "indices.timed_h", "indices.h5_index")
    metrics = {
        "cli.main_s": self_s("cli.main"),
        "indices.windowed_h_us": tracer.per_call_us(queries, "bench.first_query"),
        "indices.windowed_h_interp_us": tracer.per_call_us([q + ".interp" for q in queries], "bench.first_query"),
        "rational.format_fixed_us": tracer.per_call_us(["rational.format_fixed"]),
    }
    for name in (
        "ingest.parse_csv",
        "ingest.parse_json",
        "ingest.export_csv",
        "ingest.export_json",
        "model.validate_corpus",
        "model.total_citations",
        "indices.evolution_table",
        "indices.contemporary_h",
        "indices.author_impact_factor",
        "aging.quantile_windows",
        "aging.rank_papers_by_total",
        "aging.partition_by_mass",
        "aging.group_cumulative_curves",
        "aging.group_yearly_counts",
        "tables.evolution_output",
        "tables.aging_output",
        "tables.groups_output",
        "tables.to_csv",
        "tables.to_json",
    ):
        metrics[name + "_s"] = self_s(name)
    for name in (
        "ingest.papers",
        "ingest.citation_rows",
        "indices.queries",
        "indices.evolution_cells",
        "aging.groups",
        "tables.output_bytes",
    ):
        metrics[name] = tracer.counters.get(name, 0)
    return metrics


def run_replay(cw, job) -> dict:
    """Untraced and traced passes, alternated twice: the first pass also warms
    the process up, so the overhead compares each kind's faster pass and the
    spans come from the last traced pass."""
    untraced, traced = [], []
    for _ in range(2):
        start = time.perf_counter()
        outputs, corpora = _replay_body(cw, job)
        untraced.append(time.perf_counter() - start)
        tracer = Tracer()
        tracer.install(cw)
        try:
            start = time.perf_counter()
            traced_outputs, _ = _replay_body(cw, job, tracer.span)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    if corpora is None:
        parsed = (_attempt(cw.ingest.parse_corpus_json, blob) for blob in _read_blobs(job["authors"]))
        corpora = [corpus for corpus in parsed if not isinstance(corpus, dict)]
    build_s, peak_mb = _cache_probes(cw, corpora, job["ref_year"])
    metrics = _layer_metrics(tracer)
    metrics["model.cache_build_s"] = build_s
    metrics["model.cache_peak_mb"] = peak_mb
    metrics["trace.overhead_pct"] = 100.0 * (min(traced) - min(untraced)) / min(untraced)
    tracer.dump(job["spans"])
    _save(job, dict(outputs, repeated=traced_outputs == outputs))
    return {
        "passes": len(untraced) + len(traced),
        "untraced_s": min(untraced),
        "traced_s": min(traced),
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    if job["mode"] == "import":
        result = {"import_s": _import_time()}
    else:
        import citewindow as cw
        import citewindow.cli  # noqa: F401  (not imported by the package itself)

        expected = os.path.realpath(os.path.join(job["src"], "citewindow"))
        if os.path.dirname(os.path.realpath(cw.__file__)) != expected:
            print(f"citewindow imported from {cw.__file__}, not from {expected}", file=sys.stderr)
            return 3
        runner = {"setup": run_setup, "sweep": run_sweep, "authors": run_authors, "replay": run_replay}[job["mode"]]
        result = runner(cw, job)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
