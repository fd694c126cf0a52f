"""Outside-in span recorder for the traced benchmark run.

The program is not edited.  While a traced op runs, the names the
program calls through (module globals such as ``thintail.cli.parse_csv``
and class attributes such as ``SeverityModel.sample``) are replaced by
wrappers that record one span per call; they are restored after the
op.  Spans are kept in memory and turned into per-layer metrics after
the run.  A target name that no longer exists is reported as absent,
not as a failure, so the benchmark keeps working when a layer is
deleted.

A span is ``[id, name, start, end, parent id, op, thread id, counts]``.
A span opened on a thread with no open span of its own (a worker of the
simulation thread pool) takes the innermost open span of the op's
thread as its parent.  Self time is computed per thread: a span's
duration minus the durations of its children on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from contextlib import contextmanager


def _size(value) -> int:
    size = getattr(value, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(value)
    except TypeError:
        return 1


def _count_parse(args, result, exc):
    source = args[0] if args else None
    counts = {
        "rows": len(result) if result is not None else 0,
        "rows_rejected": len(getattr(exc, "diagnostics", ())),
    }
    if isinstance(source, (str, os.PathLike)):
        counts["bytes"] = os.path.getsize(source)
    return counts


# (span name, module, attribute the program calls through, counter)
# A counter maps (positional args, result, exception) to counts.
TARGETS = [
    ("cli", "thintail.cli", "main", None),
    ("ingest.parse", "thintail.cli", "parse_csv", _count_parse),
    ("ingest.parse", "thintail.cli", "parse_pre_aggregated", _count_parse),
    ("ingest.aggregate", "thintail.cli", "aggregate",
     lambda a, r, e: {"groups": len(r.losses) if r is not None else 0}),
    ("fit", "thintail.cli", "fit_expn", lambda a, r, e: {"evaluations": getattr(r, "evaluations", 0)}),
    ("fit", "thintail.lda", "fit_expn", lambda a, r, e: {"evaluations": getattr(r, "evaluations", 0)}),
    ("tna", "thintail.fit", "tna_test", None),
    ("tna", "thintail.lda", "tna_test", None),
    ("dist.cdf", "thintail.fit", "expn_cdf", lambda a, r, e: {"points": _size(a[0])}),
    ("dist.cdf", "thintail.dist", "expn_cdf", lambda a, r, e: {"points": _size(a[0])}),
    ("dist.quantile", "thintail.dist", "SeverityModel.quantile", None),
    ("dist.sample", "thintail.dist", "SeverityModel.sample", lambda a, r, e: {"draws": int(a[1])}),
    ("specfun.q", "thintail.dist", "regularized_upper_gamma", lambda a, r, e: {"points": _size(a[1])}),
    ("lda", "thintail.cli", "run_lda", lambda a, r, e: {"trials": getattr(r, "trials", 0)}),
    ("lda", "thintail.lda", "run_lda", lambda a, r, e: {"trials": getattr(r, "trials", 0)}),
    ("lda.freq", "thintail.lda", "PoissonFreq.draw", None),
]

# metric name -> (span name, quantity, unit); quantities are per-op sums:
# "calls", "s" (duration, outermost spans of the name only), "self_s",
# "wait_s" (self time during which worker threads ran the span's
# children), or a counter.  "lda.workers" and "trace.overhead_frac" are derived.
PER_LAYER = {
    "ingest.parse_s": ("ingest.parse", "s", "s"),
    "ingest.rows": ("ingest.parse", "rows", "count"),
    "ingest.rows_rejected": ("ingest.parse", "rows_rejected", "count"),
    "ingest.bytes": ("ingest.parse", "bytes", "B"),
    "ingest.aggregate_s": ("ingest.aggregate", "s", "s"),
    "ingest.groups": ("ingest.aggregate", "groups", "count"),
    "specfun.q_calls": ("specfun.q", "calls", "count"),
    "specfun.q_points": ("specfun.q", "points", "count"),
    "specfun.q_s": ("specfun.q", "s", "s"),
    "dist.cdf_calls": ("dist.cdf", "calls", "count"),
    "dist.cdf_points": ("dist.cdf", "points", "count"),
    "dist.cdf_s": ("dist.cdf", "s", "s"),
    "dist.quantile_calls": ("dist.quantile", "calls", "count"),
    "dist.quantile_s": ("dist.quantile", "s", "s"),
    "fit.calls": ("fit", "calls", "count"),
    "fit.evaluations": ("fit", "evaluations", "count"),
    "fit.s": ("fit", "s", "s"),
    "fit.self_s": ("fit", "self_s", "s"),
    "tna.calls": ("tna", "calls", "count"),
    "tna.s": ("tna", "s", "s"),
    "dist.sample_calls": ("dist.sample", "calls", "count"),
    "dist.draws": ("dist.sample", "draws", "count"),
    "dist.sample_s": ("dist.sample", "s", "s"),
    "lda.calls": ("lda", "calls", "count"),
    "lda.trials": ("lda", "trials", "count"),
    "lda.chunks": ("lda.freq", "calls", "count"),
    "lda.workers": ("lda", "workers", "count"),
    "lda.s": ("lda", "s", "s"),
    "lda.freq_s": ("lda.freq", "s", "s"),
    "lda.self_s": ("lda", "self_s", "s"),
    "lda.wait_s": ("lda", "wait_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
    "trace.overhead_frac": ("", "overhead", "ratio"),
}


def _resolve(module_name: str, attribute: str):
    """(owner, leaf name) for 'func' or 'Class.method', or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, leaf) if callable(getattr(owner, leaf, None)) else None


class Recorder:
    """Collects spans while installed; ``spans`` holds every closed span."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.absent = sorted({f"{module}.{attr}" for _, module, attr, _ in targets
                              if _resolve(module, attr) is None})
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(recorder._ids)
            stack = recorder._stack()
            anchor = stack or recorder._op_stack
            parent = anchor[-1] if anchor else None
            stack.append(span_id)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, result, exc) if counter is not None else None
                recorder.spans.append([span_id, name, start, end, parent, recorder._op,
                                       threading.get_ident(), counts])

        return wrapper

    @contextmanager
    def recording(self, op: int):
        """Install the wrappers for one op on the calling thread, then restore."""
        saved = []
        for name, module, attr, counter in self.targets:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, leaf = found
            original = owner.__dict__[leaf] if leaf in owner.__dict__ else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, counter))
        self._op = op
        self._op_stack = self._stack()
        try:
            yield
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)
            self._op = None


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its same-thread children."""
    own = {s[0]: s[3] - s[2] for s in spans}
    thread = {s[0]: s[6] for s in spans}
    for span_id, _, start, end, parent, _, tid, _ in spans:
        if parent is not None and thread.get(parent) == tid:
            own[parent] -= end - start
    return own


def wait_times(spans: list[list]) -> dict[int, float]:
    """Span id -> length of the union of its children's intervals on other threads.

    This is the part of a span's self time its thread spent waiting on
    worker threads, such as ``run_lda`` waiting on the simulation pool.
    """
    by_id = {s[0]: s for s in spans}
    intervals: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, tid, _ in spans:
        owner = by_id.get(parent)
        if owner is not None and owner[6] != tid:
            intervals.setdefault(parent, []).append((max(start, owner[2]), min(end, owner[3])))
    waits = {}
    for span_id, pieces in intervals.items():
        covered, reach = 0.0, -float("inf")
        for start, end in sorted(pieces):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        waits[span_id] = covered
    return waits


def op_totals(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """Per op, per span name: calls, s, self_s, wait_s, workers and summed counts.

    ``s`` counts only spans with no ancestor of the same name, so a name
    wrapped at two call sites is not counted twice when one calls the
    other.  ``workers`` is the largest number of distinct threads that
    ran spans below any one span of the name.
    """
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    waits = wait_times(spans)
    threads_below: dict[int, set] = {}
    totals: dict[int, dict[str, dict[str, float]]] = {}
    for span in spans:
        span_id, name, start, end, parent, op, tid, counts = span
        entry = totals.setdefault(op, {}).setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "wait_s": 0.0, "workers": 0})
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        entry["wait_s"] += waits.get(span_id, 0.0)
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        outermost = True
        ancestor = by_id.get(parent)
        while ancestor is not None:
            outermost = outermost and ancestor[1] != name
            threads_below.setdefault(ancestor[0], set()).add(tid)
            ancestor = by_id.get(ancestor[4])
        if outermost:
            entry["s"] += end - start
    for span_id, tids in threads_below.items():
        span = by_id[span_id]
        entry = totals[span[5]][span[1]]
        entry["workers"] = max(entry["workers"], len(tids))
    return totals


def per_layer_metrics(spans: list[list], overhead: float) -> dict[str, dict]:
    """Median over traced ops of each ``PER_LAYER`` metric."""
    totals = op_totals(spans)
    metrics = {}
    for metric, (name, quantity, unit) in PER_LAYER.items():
        if quantity == "overhead":
            value = overhead
        else:
            per_op = [ops.get(name, {}).get(quantity, 0) for ops in totals.values()]
            value = statistics.median(per_op) if per_op else 0
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def self_time_shares(spans: list[list]) -> dict[str, float]:
    """Share per span name of all busy time: self time less waiting, summed over threads."""
    own = self_times(spans)
    waits = wait_times(spans)
    by_name: dict[str, float] = {}
    for span in spans:
        by_name[span[1]] = by_name.get(span[1], 0.0) + own[span[0]] - waits.get(span[0], 0.0)
    total = sum(by_name.values()) or 1.0
    return {name: round(value / total, 4) for name, value in sorted(by_name.items(), key=lambda kv: -kv[1])}
