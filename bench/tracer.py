"""In-memory spans around calls into the library's layers.

The benchmark replaces public functions of the library's modules with
wrappers that record a span: name, start, end and the enclosing span.
A span is opened only where a call crosses from one layer into another
(the layer is the module name, the first part of the span name), so a
function's figure includes the calls it makes inside its own layer.
Self time is a span's duration minus the time its child spans cover.
Spans stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, counter hook) for module-level functions
# and (module, class, method, span name, counter hook) for methods.
FUNCTIONS = (
    ("ingest", "parse_corpus_csv", "ingest.parse_csv", "corpus"),
    ("ingest", "parse_corpus_json", "ingest.parse_json", "corpus"),
    ("ingest", "export_corpus_csv", "ingest.export_csv", None),
    ("ingest", "export_corpus_json", "ingest.export_json", None),
    ("model", "validate_corpus", "model.validate_corpus", None),
    ("indices", "windowed_h", "indices.windowed_h", "query"),
    ("indices", "timed_h", "indices.timed_h", "query"),
    ("indices", "h5_index", "indices.h5_index", "query"),
    ("indices", "evolution_table", "indices.evolution_table", "cells"),
    ("indices", "contemporary_h", "indices.contemporary_h", None),
    ("indices", "author_impact_factor", "indices.author_impact_factor", None),
    ("aging", "quantile_windows", "aging.quantile_windows", None),
    ("aging", "rank_papers_by_total", "aging.rank_papers_by_total", None),
    ("aging", "partition_by_mass", "aging.partition_by_mass", "groups"),
    ("aging", "group_cumulative_curves", "aging.group_cumulative_curves", None),
    ("aging", "group_yearly_counts", "aging.group_yearly_counts", None),
    ("tables", "evolution_output", "tables.evolution_output", None),
    ("tables", "aging_output", "tables.aging_output", None),
    ("tables", "groups_output", "tables.groups_output", None),
    ("rational", "format_fixed", "rational.format_fixed", None),
    ("cli", "main", "cli.main", None),
)
METHODS = (
    ("model", "Corpus", "total_citations", "model.total_citations", None),
    ("tables", "OutputTable", "to_csv", "tables.to_csv", "bytes"),
    ("tables", "OutputTable", "to_json", "tables.to_json", "bytes"),
)


def _count(kind: str, result, counters) -> None:
    if kind == "corpus":
        counters["ingest.papers"] += len(result.papers)
        counters["ingest.citation_rows"] += sum(len(p.citations) for p in result.papers)
    elif kind == "query":
        counters["indices.queries"] += 1
    elif kind == "cells":
        counters["indices.evolution_cells"] += sum(len(row) for row in result.values)
    elif kind == "groups":
        counters["aging.groups"] += len(result.groups)
    elif kind == "bytes":
        counters["tables.output_bytes"] += len(result.encode())


def _interpolated(args, kwargs) -> bool:
    # windowed_h, timed_h and h5_index all take the flag fourth.
    return bool(kwargs.get("interpolated", args[3] if len(args) > 3 else False))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, hook: str | None):
        layer = name.split(".", 1)[0]
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            span_name = name + ".interp" if hook == "query" and _interpolated(args, kwargs) else name
            parent = stack[-1] if stack else None
            index = len(spans)
            record = [span_name, layer, 0.0, 0.0, parent]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                # The counting is the tracer's own work: give it a span so
                # that it is not charged to the caller's self time.
                start = clock()
                _count(hook, result, counters)
                spans.append(["trace.count", "trace", start, clock(), parent])
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark's own code (layer "bench")."""
        parent = self._stack[-1] if self._stack else None
        record = [name, "bench", 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def per_call_us(self, names, skip_parent: str | None = None) -> float:
        """Mean duration in µs of the spans called ``names``, leaving out
        those opened directly inside a span called ``skip_parent``."""
        total, calls = 0.0, 0
        for name, layer, start, end, parent in self.spans:
            if name in names and (parent is None or self.spans[parent][0] != skip_parent):
                total += end - start
                calls += 1
        return 1e6 * total / calls if calls else 0.0

    def install(self, package) -> None:
        """Wrap every listed function wherever a library module holds it."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module_name, attr, name, hook in FUNCTIONS:
            original = getattr(getattr(package, module_name), attr)
            wrapper = self.wrap(original, name, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, attr, name, hook in METHODS:
            cls = getattr(getattr(package, module_name), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, layer, start, end, parent), covered in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
