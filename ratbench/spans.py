"""Span recording around ratkit's public functions, installed from outside the package.

Each layer is wrapped at the module attribute its caller looks up (for
example ``ratkit.augmentation.query_top_n``, which ``augment_corpus`` calls),
so nothing under ``src/`` changes. Spans are kept in memory and handed back
at the end of the run; every span records its name, start, end, parent and
the trace id of the grid cell it belongs to.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pool_of: dict[int, str] = {}  # id(index) -> retrieval pool label
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Grid cells run on worker threads whose own stacks start empty; they
        # hang off the open run_experiment span instead.
        self._root: tuple[int, str] | None = None

    @contextmanager
    def span(self, name: str, trace_id: str | None = None, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        with self._lock:
            span_id = next(self._ids)
        if trace_id is None:
            trace_id = parent[1] if parent else "run"
        attrs: dict = {}
        stack.append((span_id, trace_id))
        if root:
            self._root = (span_id, trace_id)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if root:
                self._root = None
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent[0] if parent else None,
                    "trace": trace_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "attrs": attrs,
                }
            )

    def wrap(self, module, attr: str, name: str, *, materialise=False, root=False, trace_id=None, attrs=None):
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``materialise`` turns a returned iterator into a list inside the span,
        so lazy work is timed where it happens. ``trace_id`` and ``attrs`` are
        callables over the call's arguments (``attrs`` gets the result first).
        """
        fn = getattr(module, attr)  # AttributeError when a call site moved

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, trace_id(*args) if trace_id else None, root) as span_attrs:
                result = fn(*args, **kwargs)
                if materialise:
                    result = list(result)
                if attrs:
                    span_attrs.update(attrs(result, *args, **kwargs))
            return result

        setattr(module, attr, wrapper)


def install(tracer: Tracer, kind: str) -> None:
    """Wrap every layer the workload kind calls, at its caller's lookup site."""
    from ratkit import augmentation, corpus, pipeline, retrieval, scenarios

    def query_attrs(result, index, query_text, *args, **kwargs):
        return {"pool": tracer.pool_of.get(id(index)), "query": query_text, "returned": len(result)}

    def augment_attrs(result, tm, index, cfg):
        return {"examples": len(result), "short": sum(len(e.suggestions) < cfg.k for e in result)}

    def save_attrs(result, index, path):
        return {"bytes": os.path.getsize(path)}

    def scenario_attrs(result, test_domain, tms, relevance, *args):
        index = result[1]
        tracer.pool_of[id(index)] = f"{test_domain}/{relevance}"
        return {"docs": index.doc_count}

    def load_attrs(result, path):
        tracer.pool_of[id(result)] = "tm"
        return {}

    def cell_trace(manifest, domain, k, scenario, *args):
        return f"{domain}/k{k}/{scenario}"

    wrap = tracer.wrap
    wrap(augmentation, "query_top_n", "retrieval.query_top_n", attrs=query_attrs)
    if kind == "grid":
        wrap(pipeline, "run_experiment", "pipeline.run_experiment", root=True)
        # _run_cell is private, but it is the only boundary around one grid
        # cell; the per-cell trace id comes from its arguments.
        wrap(pipeline, "_run_cell", "pipeline.cell", trace_id=cell_trace)
        wrap(pipeline, "load_corpus", "corpus.load_corpus")
        wrap(pipeline, "build_scenario", "scenarios.build_scenario", attrs=scenario_attrs)
        wrap(scenarios, "build_index", "retrieval.build_index")
        wrap(pipeline, "save_index", "retrieval.save_index", attrs=save_attrs)
        wrap(pipeline, "augment_corpus", "augmentation.augment_corpus", materialise=True, attrs=augment_attrs)
        wrap(pipeline, "write_augmented", "augmentation.write_augmented")
        wrap(pipeline, "translate", "pipeline.translate")
        wrap(pipeline, "bleu_corpus", "evaluation.bleu_corpus")
        wrap(pipeline, "suggestion_overlap", "evaluation.suggestion_overlap")
        wrap(pipeline, "paired_bootstrap", "evaluation.paired_bootstrap")
    else:
        wrap(corpus, "load_corpus", "corpus.load_corpus")
        wrap(retrieval, "build_index", "retrieval.build_index")
        wrap(retrieval, "save_index", "retrieval.save_index", attrs=save_attrs)
        wrap(retrieval, "load_index", "retrieval.load_index", attrs=load_attrs)
        wrap(augmentation, "augment_corpus", "augmentation.augment_corpus", materialise=True, attrs=augment_attrs)
        wrap(augmentation, "write_augmented", "augmentation.write_augmented")


# --- analysis, run in the benchmark's parent process ---------------------------

REQUIRED = {
    "grid": (
        "pipeline.run_experiment",
        "pipeline.cell",
        "corpus.load_corpus",
        "scenarios.build_scenario",
        "retrieval.build_index",
        "retrieval.save_index",
        "augmentation.augment_corpus",
        "retrieval.query_top_n",
        "augmentation.write_augmented",
        "pipeline.translate",
        "evaluation.bleu_corpus",
        "evaluation.suggestion_overlap",
        "evaluation.paired_bootstrap",
    ),
    "augment": (
        "corpus.load_corpus",
        "retrieval.build_index",
        "retrieval.save_index",
        "retrieval.load_index",
        "augmentation.augment_corpus",
        "retrieval.query_top_n",
        "augmentation.write_augmented",
    ),
}

# name -> unit; reported in this order by a traced run.
PER_LAYER = {
    "retrieval.query_top_n.calls": "count",
    "retrieval.query_top_n.s": "s",
    "retrieval.query_top_n.p50_ms": "ms",
    "retrieval.query_top_n.p99_ms": "ms",
    "retrieval.postings_per_query": "count",
    "retrieval.returned_per_posting": "ratio",
    "retrieval.queries_per_sentence": "ratio",
    "retrieval.load_index.s": "s",
    "retrieval.build_index.s": "s",
    "retrieval.save_index.s": "s",
    "corpus.load_corpus.s": "s",
    "retrieval.index_mb": "MB",
    "scenarios.build_scenario.self_s": "s",
    "scenarios.docs_indexed": "count",
    "augmentation.augment_corpus.self_s": "s",
    "augmentation.write_augmented.s": "s",
    "augmentation.short_frac": "ratio",
    "pipeline.translate.s": "s",
    "pipeline.run_experiment.self_s": "s",
    "evaluation.bleu_corpus.s": "s",
    "evaluation.suggestion_overlap.s": "s",
    "evaluation.paired_bootstrap.calls": "count",
    "evaluation.paired_bootstrap.s": "s",
    "trace.overhead_frac": "ratio",
}


class LayerMissing(Exception):
    """A layer the workload must call recorded no span: a wrapper was bypassed."""


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, in seconds."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered, reach = 0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        result[s["id"]] = (s["end"] - s["start"] - covered) / 1e9
    return result


def layer_metrics(spans: list[dict], kind: str, pool_df: dict, sentence_cells: int):
    """Per-layer metrics of one traced repetition, plus its query latencies in ms."""
    missing = [name for name in REQUIRED[kind] if not any(s["name"] == name for s in spans)]
    if missing:
        raise LayerMissing(f"no spans recorded for {', '.join(missing)}")
    from gen import postings_cost

    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, int] = {}
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + (s["end"] - s["start"]) / 1e9
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key in ("returned", "bytes", "docs", "examples", "short"):
            if key in s["attrs"]:
                attrs[key] = attrs.get(key, 0) + s["attrs"][key]
    queries = [s for s in spans if s["name"] == "retrieval.query_top_n"]
    if any(s["attrs"]["pool"] is None for s in queries):
        raise LayerMissing("a query ran against an index whose build or load was not traced")
    postings = sum(postings_cost(s["attrs"]["query"], pool_df[s["attrs"]["pool"]]) for s in queries)
    metrics = {
        "retrieval.query_top_n.calls": len(queries),
        "retrieval.query_top_n.s": total["retrieval.query_top_n"],
        "retrieval.postings_per_query": postings / len(queries),
        "retrieval.returned_per_posting": attrs.get("returned", 0) / postings,
        "retrieval.queries_per_sentence": len(queries) / sentence_cells,
        "retrieval.load_index.s": total.get("retrieval.load_index", 0.0),
        "retrieval.build_index.s": total.get("retrieval.build_index", 0.0),
        "retrieval.save_index.s": total.get("retrieval.save_index", 0.0),
        "corpus.load_corpus.s": total.get("corpus.load_corpus", 0.0),
        "retrieval.index_mb": attrs.get("bytes", 0) / 1e6,
        "scenarios.build_scenario.self_s": self_s.get("scenarios.build_scenario", 0.0),
        "scenarios.docs_indexed": attrs.get("docs", 0),
        "augmentation.augment_corpus.self_s": self_s["augmentation.augment_corpus"],
        "augmentation.write_augmented.s": total["augmentation.write_augmented"],
        "augmentation.short_frac": attrs.get("short", 0) / attrs["examples"],
        "pipeline.translate.s": total.get("pipeline.translate", 0.0),
        "pipeline.run_experiment.self_s": self_s.get("pipeline.run_experiment", 0.0),
        "evaluation.bleu_corpus.s": total.get("evaluation.bleu_corpus", 0.0),
        "evaluation.suggestion_overlap.s": total.get("evaluation.suggestion_overlap", 0.0),
        "evaluation.paired_bootstrap.calls": calls.get("evaluation.paired_bootstrap", 0),
        "evaluation.paired_bootstrap.s": total.get("evaluation.paired_bootstrap", 0.0),
    }
    latencies = [(s["end"] - s["start"]) / 1e6 for s in queries]
    return metrics, latencies
