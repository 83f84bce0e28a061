"""Span tracing for the benchmark's traced run, with no edit to the package.

The tracer wraps a fixed list of lingmat's public functions by rebinding
module attributes for the duration of one iteration.  Every lingmat module
that holds a reference to a traced function (``pipeline`` imports the
corpus functions by name, ``gauss`` imports ``ensemble_averages``, the
package re-exports the API) is rebound, so a call is traced whichever
module it comes from.  Spans stay in memory; ``write_spans`` writes them
out when the run ends, and ``layer_metrics`` derives the per-layer
metrics (total times, self times, call counts, work counts) from them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import sys
from time import perf_counter


def _path_size(position):
    """Counter: size in bytes of the file named by argument `position`."""
    def count(args, kwargs, _result):
        path = kwargs["path"] if "path" in kwargs else args[position]
        return os.path.getsize(path)
    return count


def _calls(_args, _kwargs, _result):
    return 1


#: (module, public function, counter).  A counter maps (args, kwargs,
#: result) to the amount of work the call did; it runs after the span
#: has ended.
TRACED = (
    ("pipeline", "run_pipeline", _calls),
    ("pipeline", "stage_build_vectors", _calls),
    ("pipeline", "stage_select_dataset", _calls),
    ("pipeline", "stage_learn_matrices", _calls),
    ("pipeline", "stage_observables", _calls),
    ("pipeline", "stage_fit", _calls),
    ("pipeline", "stage_report", _calls),
    ("corpus", "read_corpus", lambda a, k, r: r.n_total),
    ("corpus", "build_vocab", _calls),
    ("corpus", "select_basis", _calls),
    ("corpus", "count_cooccurrence", _calls),
    ("corpus", "pos_class_of", _calls),
    ("corpus", "build_compound_vectors", _calls),
    ("corpus", "select_dataset", _calls),
    ("corpus", "write_vectors_dir", _calls),
    ("_kernels", "window_pair_counts", lambda a, k, r: int(r.sum())),
    ("_kernels", "catalog_values", _calls),
    ("regression", "fit_closed_form", lambda a, k, r: a[0].rows),
    ("matrix_core", "write_ensemble", _calls),
    ("matrix_core", "read_ensemble", _calls),
    ("matrix_core", "write_matrix", _path_size(1)),
    ("matrix_core", "write_vector", _path_size(2)),
    ("matrix_core", "read_matrix", _path_size(0)),
    ("matrix_core", "read_vector", _path_size(0)),
    ("invariants", "ensemble_averages", lambda a, k, r: len(a[0])),
    ("gauss", "fit", _calls),
    ("gauss", "moment_report", _calls),
    ("gauss", "predict_moment", _calls),
    ("sampler", "sample", _calls),
    ("sampler", "sample_matrix", _calls),
    ("sampler", "monte_carlo_check", _calls),
)

#: Per-layer metric -> (unit, reduction, spans).  Metric names start with
#: a letter, so the ``_kernels`` module's metrics are named ``kernels.*``.
#: Reductions: "total" sums span durations, "self" sums durations minus the
#: time of traced child spans, "calls" counts spans, "work" sums the
#: counters.  Times and counts are per iteration.
LAYER_METRICS = {
    "pipeline.build_vectors_s": ("s", "total", ("pipeline.stage_build_vectors",)),
    "pipeline.select_dataset_s": ("s", "total", ("pipeline.stage_select_dataset",)),
    "pipeline.learn_matrices_s": ("s", "total", ("pipeline.stage_learn_matrices",)),
    "pipeline.observables_s": ("s", "total", ("pipeline.stage_observables",)),
    "pipeline.fit_s": ("s", "total", ("pipeline.stage_fit",)),
    "pipeline.report_s": ("s", "total", ("pipeline.stage_report",)),
    "corpus.read_s": ("s", "total", ("corpus.read_corpus",)),
    "corpus.read_calls": ("count", "calls", ("corpus.read_corpus",)),
    "corpus.tokens_read": ("count", "work", ("corpus.read_corpus",)),
    "corpus.vocab_s": ("s", "total", ("corpus.build_vocab",)),
    "corpus.vocab_calls": ("count", "calls", ("corpus.build_vocab",)),
    "corpus.basis_s": ("s", "total", ("corpus.select_basis",)),
    "corpus.cooc_s": ("s", "self", ("corpus.count_cooccurrence",)),
    "corpus.pos_s": ("s", "total", ("corpus.pos_class_of",)),
    "corpus.pos_calls": ("count", "calls", ("corpus.pos_class_of",)),
    "corpus.compound_s": ("s", "total", ("corpus.build_compound_vectors",)),
    "corpus.compound_calls": ("count", "calls", ("corpus.build_compound_vectors",)),
    "corpus.select_s": ("s", "self", ("corpus.select_dataset",)),
    "corpus.vectors_write_s": ("s", "total", ("corpus.write_vectors_dir",)),
    "kernels.window_counts_s": ("s", "total", ("_kernels.window_pair_counts",)),
    "kernels.window_pairs": ("count", "work", ("_kernels.window_pair_counts",)),
    "kernels.catalog_s": ("s", "total", ("_kernels.catalog_values",)),
    "kernels.catalog_calls": ("count", "calls", ("_kernels.catalog_values",)),
    "sampler.draw_s": ("s", "total", ("sampler.sample_matrix",)),
    "sampler.draws": ("count", "calls", ("sampler.sample_matrix",)),
    "sampler.mc_s": ("s", "self", ("sampler.monte_carlo_check",)),
    "invariants.averages_s": ("s", "self", ("invariants.ensemble_averages",)),
    "invariants.matrices": ("count", "work", ("invariants.ensemble_averages",)),
    "matrix_core.write_s": ("s", "total", ("matrix_core.write_matrix", "matrix_core.write_vector")),
    "matrix_core.files_written": ("count", "calls", ("matrix_core.write_matrix", "matrix_core.write_vector")),
    "matrix_core.bytes_written": ("B", "work", ("matrix_core.write_matrix", "matrix_core.write_vector")),
    "matrix_core.read_s": ("s", "total", ("matrix_core.read_matrix", "matrix_core.read_vector")),
    "matrix_core.files_read": ("count", "calls", ("matrix_core.read_matrix", "matrix_core.read_vector")),
    "matrix_core.bytes_read": ("B", "work", ("matrix_core.read_matrix", "matrix_core.read_vector")),
    "regression.solve_s": ("s", "total", ("regression.fit_closed_form",)),
    "regression.solves": ("count", "calls", ("regression.fit_closed_form",)),
    "regression.rows": ("count", "work", ("regression.fit_closed_form",)),
    "gauss.fit_s": ("s", "total", ("gauss.fit",)),
    "gauss.report_s": ("s", "self", ("gauss.moment_report",)),
    "gauss.predict_calls": ("count", "calls", ("gauss.predict_moment",)),
}


class Tracer:
    """Records spans (name, start, end, parent, iteration, work) in memory.

    ``parent`` is the index of the enclosing traced span, or -1.  Times are
    ``perf_counter`` readings.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter, iteration):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, iteration, 0)
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, iteration,
                            counter(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, iteration: int):
        """Trace every TRACED function while the block runs."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "lingmat" or key.startswith("lingmat.")]
        saved = []
        try:
            for modname, attr, counter in TRACED:
                original = getattr(importlib.import_module(f"lingmat.{modname}"), attr)
                wrapper = self._wrap(f"{modname}.{attr}", original, counter, iteration)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)

    def write_spans(self, path: str) -> None:
        """Spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, iteration, work in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "workload": self.workload,
                    "iteration": iteration, "work": work}) + "\n")

    def layer_metrics(self) -> dict[int, dict[str, float]]:
        """Every LAYER_METRICS value, per traced iteration."""
        child_time: dict[int, float] = {}
        for name, start, end, parent, _it, _work in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        tables: dict[int, dict[str, dict]] = {}
        for index, (name, start, end, _parent, it, amount) in enumerate(self.spans):
            table = tables.setdefault(it, {"total": {}, "self": {}, "calls": {}, "work": {}})
            table["total"][name] = table["total"].get(name, 0.0) + (end - start)
            table["self"][name] = (table["self"].get(name, 0.0) + (end - start)
                                   - child_time.get(index, 0.0))
            table["calls"][name] = table["calls"].get(name, 0) + 1
            table["work"][name] = table["work"].get(name, 0) + amount
        return {it: {metric: sum((table[how].get(name, 0) for name in names),
                                 0.0 if unit == "s" else 0)
                     for metric, (unit, how, names) in LAYER_METRICS.items()}
                for it, table in tables.items()}
