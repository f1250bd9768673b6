"""Span tracing of charspan's public functions, from outside the package.

``install`` replaces each traced function by a wrapper under every name
it is bound to: the defining module, every ``charspan`` module that
imported it, and the package namespace.  Methods are replaced on their
class.  Nothing under ``src/`` changes.

Each call records one span (id, parent id, root id, name, start, end) in
memory; ``dump`` writes them out once the workload is over.  A function's
self time is its duration minus the time covered by traced calls made
inside it.  Counters computed from call arguments and results sit next to
the spans, so rates are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced function, grouped by layer.
TRACED = [
    ("treebank", "load_corpus"), ("treebank", "save_corpus"),
    ("chartree", "to_char_tree"), ("chartree", "from_char_tree"),
    ("chartree", "save_char_trees"),
    ("scoring", "span_representation"), ("scoring", "score_spans"),
    ("scoring", "read_score_file"), ("scoring", "write_scores"),
    ("scorers", "LinearScorer.score"), ("scorers", "LinearScorer.score_train"),
    ("scorers", "LinearScorer.backward"), ("scorers", "LinearScorer.sgd_step"),
    ("decoder", "apply_masks"), ("decoder", "fill_chart"),
    ("decoder", "cky_decode"),
    ("losses", "label_loss"), ("losses", "tree_loss"),
    ("trainer", "train"), ("trainer", "Checkpoint.load"),
    ("trainer", "Checkpoint.build_scorer"), ("trainer", "Checkpoint.save"),
    ("metrics", "seg_f1"), ("metrics", "parse_f1"),
    ("cli", "main"),
]

FUNCTIONS = [f"{module}.{name}" for module, name in TRACED]

MB = 1e6


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, root, name, start, end)
        self._stack: list[list] = []     # [span id, root id, child ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.work: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        spans, stack = self.spans, self._stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = before(self.work, *args, **kwargs) if before else None
            span_id = len(spans)
            parent, root = (stack[-1][0], stack[-1][1]) if stack else (-1, span_id)
            spans.append(None)
            frame = [span_id, root, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[span_id] = (span_id, parent, root, name, start, end)
                calls[name] += 1
                total_ns[name] += duration
                self_ns[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after:
                after(self.work, note, result, *args, **kwargs)
            return result

        return traced

    def state(self) -> dict:
        """Raw totals, which ``merge`` adds up across child processes."""
        return {"calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns), "work": dict(self.work)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, root, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent,
                                    "root": root, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")


def merge(states: list[dict]) -> dict:
    out = {"calls": {}, "total_ns": {}, "self_ns": {}, "work": {}}
    for state in states:
        for part, values in state.items():
            for key, value in values.items():
                out[part][key] = out[part].get(key, 0) + value
    return out


def layer_metrics(state: dict) -> dict[str, float]:
    """Every per-layer metric: calls and self time of each traced function,
    then the counters."""
    calls, total_ns, work = state["calls"], state["total_ns"], state["work"]

    def per_s(amount: float, name: str) -> float:
        ns = total_ns.get(name, 0)
        return amount / (ns / 1e9) if ns else 0.0

    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_ms"] = state["self_ns"].get(name, 0) / 1e6
    cells = work.get("cells", 0)
    spans = calls.get("scoring.span_representation", 0)
    out.update({
        "decoder.cells": cells,
        "decoder.cells_per_s": per_s(cells, "decoder.cky_decode"),
        "decoder.score_mb": work.get("score_bytes", 0) / MB,
        "scoring.span_representation.spans_per_s": per_s(
            spans, "scoring.span_representation"),
        "scoring.read_score_file.mb_per_s": per_s(
            work.get("read_bytes", 0) / MB, "scoring.read_score_file"),
        "scoring.write_scores.mb_per_s": per_s(
            work.get("write_bytes", 0) / MB, "scoring.write_scores"),
        "trainer.Checkpoint.load.dense_mb": work.get("dense_bytes", 0) / MB,
    })
    return out


# --- counters, computed from the traced calls' inputs and results -------

def _decode_cells(work, scores, *args, **kwargs):
    n, labels = scores.n, scores.num_labels
    work["cells"] += n * (n + 1) // 2 * labels
    work["score_bytes"] += (n + 1) ** 2 * labels * 8


def _source_size(work, source, *args, **kwargs):
    work["read_bytes"] += os.fstat(source.fileno()).st_size


def _sink_position(work, scores, vocab, sink, *args, **kwargs):
    return sink.tell()


def _sink_written(work, position, result, scores, vocab, sink, *args, **kwargs):
    work["write_bytes"] += sink.tell() - position


def _dense_size(work, note, checkpoint, *args, **kwargs):
    work["dense_bytes"] += checkpoint.feature_dim * len(checkpoint.labels) * 8


_BEFORE = {
    "decoder.cky_decode": _decode_cells,
    "scoring.read_score_file": _source_size,
    "scoring.write_scores": _sink_position,
}
_AFTER = {
    "scoring.write_scores": _sink_written,
    "trainer.Checkpoint.load": _dense_size,
}


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED``; raises if one no longer exists."""
    modules = {module: importlib.import_module(f"charspan.{module}")
               for module in {m for m, _ in TRACED}}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "charspan" or name.startswith("charspan.")]
    for module, qualname in TRACED:
        name = f"{module}.{qualname}"
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(modules[module], owner_name)
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise LookupError(f"traced method {name} no longer exists")
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw))
            continue
        fn = getattr(modules[module], attr, None)
        if fn is None:
            raise LookupError(f"traced function {name} no longer exists")
        wrapped = tracer.wrap(name, fn)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, key, wrapped)
