"""Spans around calls into mteval's public functions, kept in memory.

`Tracer.install` replaces each traced function wherever an mteval module
binds its name (the defining module and every module that imported it), so
callers pick the wrapper up at call time without any change to the
program.  A span is (name, start, end, parent index, detail); the detail
is a count read from the call's arguments or result.  Spans are written
out once, when the run ends.  The benchmark runs mteval single-threaded,
so one stack of open spans gives each span its parent.

`summarize` turns one run's spans into per-layer figures, with self time
derived as a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

#: Traced public functions, by the module of mteval that defines them.
TRACED = {
    "cli": ("main",),
    "corpus": ("load_dataset", "split_by_source"),
    "tokenization": ("wordpiece_tokenize",),
    "embeddings": ("load_static", "load_contextual", "decontextualize"),
    "vsm": ("build_vocabulary", "bow_nnx", "bow_nfx", "build_similarity_matrix"),
    "flow": ("solve_transport",),
    "metrics": ("score_segment", "scm", "wmd", "wmd_contextual", "sentence_bleu", "compositionality", "reg_base_features"),
    "pipeline": ("build_resources", "score_dataset"),
    "ensemble": ("select_model", "fit_mlp", "fit_linear"),
    "stats": ("spearman",),
    "evaluation": ("ablation", "correlation_report"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._space_of_store: dict[int, str] = {}

    def wrap(self, name: str, fn, detail=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index] = (name, start, end, parent, None)
            if detail is not None:
                spans[index] = (name, start, end, parent, detail(args, kwargs, result))
            return result

        return traced

    def _details(self, function: str, original):
        """The count each traced call records, read outside its span."""
        if function in ("load_static", "load_contextual", "decontextualize"):
            space = "words" if function == "load_static" else "pieces"

            def records(args, kwargs, result):
                self._space_of_store[id(result)] = space
                return len(result)

            return records
        if function == "solve_transport":
            return lambda args, kwargs, result: result.n_sources * result.n_sinks
        if function == "build_similarity_matrix":
            signature = inspect.signature(original)

            def matrix(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                space = self._space_of_store.get(id(bound.arguments["store"]), "other")
                return [space, bound.arguments["order"], result.nnz_off_diagonal()]

            return matrix
        return None

    def install(self) -> None:
        """Patch every mteval module's binding of each traced function."""
        modules = [m for n, m in sys.modules.items() if n == "mteval" or n.startswith("mteval.")]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"mteval.{module_name}"]
            for function in functions:
                original = getattr(module, function)
                wrapped = self.wrap(f"{module_name}.{function}", original, self._details(function, original))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def percentile_stats(samples: list[float]) -> tuple[float, float]:
    """(p50, p99) of ``samples``.

    With fewer than 1,000 samples the second figure is the highest
    percentile that still has at least ten samples beyond it, and with
    fewer than 20 samples it is the median.
    """
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    tail = max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / len(ordered))))
    return _quantile(ordered, 50.0), _quantile(ordered, tail)


def _quantile(ordered: list[float], q: float) -> float:
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(spans: list, n_segments: int) -> dict[str, float]:
    """Per-layer figures of one traced run, named ``<module>.<function>.<stat>``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    details: dict[str, list] = {}
    for (name, start, end, _, detail), covered in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
        durations.setdefault(name, []).append(end - start)
        if detail is not None:
            details.setdefault(name, []).append(detail)

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    out: dict[str, float] = {}
    for module, functions in TRACED.items():
        for function in functions:
            name = f"{module}.{function}"
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
            out[f"{name}.calls"] = calls(name)
            p50, tail = percentile_stats([d * 1000.0 for d in durations.get(name, ())])
            out[f"{name}.p50_ms"] = p50
            out[f"{name}.p99_ms"] = tail
    for name in ("embeddings.load_static", "embeddings.load_contextual", "embeddings.decontextualize"):
        out[f"{name}.records"] = sum(details.get(name, ()))
    cells = details.get("flow.solve_transport", [])
    out["flow.problem_cells_mean"] = sum(cells) / len(cells) if cells else 0.0
    for space in ("words", "pieces"):
        for order in ("vocabulary", "idf_descending"):
            out[f"vsm.build_similarity_matrix.{space}.{order}.s"] = 0.0
    out["vsm.similarity_nnz"] = 0
    for name, start, end, _, detail in spans:
        if name == "vsm.build_similarity_matrix":
            space, order, nnz = detail
            key = f"vsm.build_similarity_matrix.{space}.{order}.s"
            out[key] = out.get(key, 0.0) + (end - start)
            out["vsm.similarity_nnz"] += nnz
    out["tokenization.wordpiece_tokenize.calls_per_segment"] = calls("tokenization.wordpiece_tokenize") / n_segments
    return out
