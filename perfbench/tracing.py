"""Outside-in instrumentation: rebind the names callers look up, then restore.

Nothing in the program changes.  A wrapper replaces a module attribute such
as ``harness.closed_form_cdf`` for the duration of a ``with`` block, so every
call that looks the name up at run time goes through it.  Spans are kept in
memory as ``(name, start, end, parent, row, counts)`` and written out by the
caller at the end of the run.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

from circletransport import harness, transport


def _pieces(profile) -> dict:
    return {"pieces": profile.piece_count}


def _profile_reads(profile, *_):
    # computed, not measured: the bytes of the three piece arrays one
    # level-function pass reads
    nbytes = profile.bounds.nbytes + profile.coef.nbytes + profile.offset.nbytes
    return {"piece_evals": profile.piece_count, "bytes_computed": nbytes}


def _elements(values) -> dict:
    return {"elements": int(getattr(values, "size", len(values)))}


def _row_key(base, N, *_args, **_kwargs) -> dict:
    return {"base": base, "N": N}


def _sweep_threads(cfg) -> dict:
    return {"threads": cfg.threads}


# (module, attribute, span name, counts from the arguments, counts from the result)
TARGETS = (
    (harness, "verify", "harness.verify", None, None),
    (harness, "run_sweep", "harness.run_sweep", _sweep_threads, None),
    (harness, "compute_metrics", "harness.compute_metrics", _row_key, None),
    (harness, "closed_form_cdf", "logseq.closed_form_cdf", None, None),
    (harness, "cdf_wrapped_exponential", "measures.cdf_wrapped_exponential", None, None),
    (harness, "delta_profile", "measures.delta_profile", None, _pieces),
    (harness, "integral_abs", "transport.integral_abs", None, None),
    (transport, "integral_abs", "transport.integral_abs", None, None),
    (transport, "median_offset", "transport.median_offset", None, None),
    (transport, "level_measure", "transport.level_measure", _profile_reads, None),
    (transport, "compensated_sum", "summation.compensated_sum", _elements, None),
)


@contextlib.contextmanager
def rebound(pairs):
    """Set ``module.attr = value`` for each ``((module, attr), value)``; undo on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for (mod, attr), _ in pairs]
    try:
        for (mod, attr), value in pairs:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class RowRecorder:
    """Captures every ``harness.compute_metrics`` result and its latency.

    Installed in both the timed and the traced run; its cost is two clock
    reads and a list append per row.  ``target`` is the current pass, a
    ``workloads.Pass``.
    """

    def __init__(self):
        self.target = None

    def installed(self):
        inner = harness.compute_metrics

        def compute_metrics(base, N, metrics=("line", "circle")):
            start = time.perf_counter()
            row = inner(base, N, metrics)
            self.target.rows.append((base, N, tuple(metrics), row,
                                     time.perf_counter() - start, None))
            return row

        return rebound([((harness, "compute_metrics"), compute_metrics)])


class Tracer:
    """Span recorder.  Spans of one metrics row share the row's span id.

    A thread's first span takes the innermost open span of the thread that
    installed the tracer as its parent, which links the rows ``run_sweep``
    computes on its pool to the sweep that started them.
    """

    def __init__(self):
        self.spans = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = []

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, from_args, from_result):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, row = stack[-1]
            elif self._owner_stack:
                parent, row = self._owner_stack[-1]
            else:
                parent, row = None, None
            span = next(self._ids)
            if name == "harness.compute_metrics":
                row = span
            counts = from_args(*args, **kwargs) if from_args else {}
            stack.append((span, row))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if from_result:
                counts.update(from_result(result))
            self.spans[span] = (name, start, end, parent, row, counts)
            return result

        return traced

    def installed(self):
        return rebound([((mod, attr), self.wrap(name, getattr(mod, attr), fa, fr))
                        for mod, attr, name, fa, fr in TARGETS])


_KEY_COUNTS = ("base", "N", "threads")  # span labels, not amounts


def summarize(spans: dict) -> dict:
    """Per-layer totals of one pass: ``<span>.s``, ``.self_s``, ``.calls``, counts.

    Self time is a span's duration minus its child spans' durations.  Also
    ``harness.run_sweep.parallel_eff``: row busy time summed over the rows
    of each sweep, over threads times sweep wall.
    """
    child_time = defaultdict(float)
    for _, start, end, parent, _, _ in spans.values():
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    busy = capacity = 0.0
    for sid, (name, start, end, parent, _, counts) in spans.items():
        out[name + ".s"] += end - start
        out[name + ".calls"] += 1
        for key, amount in counts.items():
            if key not in _KEY_COUNTS:
                out[f"{name}.{key}"] += amount
        if name == "harness.run_sweep":
            capacity += counts["threads"] * (end - start)
            busy += child_time[sid]
        else:  # rows of a sweep overlap, so its own self time means nothing
            out[name + ".self_s"] += end - start - child_time[sid]
    if capacity:
        out["harness.run_sweep.parallel_eff"] = busy / capacity
    return dict(out)


def median_summary(summaries: list[dict]) -> dict:
    """Median over passes of each per-layer figure; absent means 0."""
    names = set().union(*summaries)
    return {n: statistics.median(s.get(n, 0.0) for s in summaries) for n in sorted(names)}


TABLE_COLUMNS = (
    ("closed_form", "logseq.closed_form_cdf"),
    ("wrapped_exp", "measures.cdf_wrapped_exponential"),
    ("delta_profile", "measures.delta_profile"),
    ("integral_abs", "transport.integral_abs"),
    ("median_offset", "transport.median_offset"),
)


def row_table(spans: dict, keys) -> list[dict]:
    """Per-row layer seconds for the rows whose ``(base, N)`` is in ``keys``.

    ``self`` is the row's own time outside the listed layers: the cut point
    search and the glue in ``compute_metrics``.
    """
    rows = {}
    for sid, (name, start, end, _, _, counts) in spans.items():
        if name == "harness.compute_metrics" and (counts["base"], counts["N"]) in keys:
            rows[sid] = {"base": counts["base"], "N": counts["N"], "pieces": 0,
                         "row": end - start, "self": end - start,
                         **{col: 0.0 for col, _ in TABLE_COLUMNS}}
    column = {span: col for col, span in TABLE_COLUMNS}
    for name, start, end, parent, _, counts in spans.values():
        if parent in rows and name in column:
            rows[parent][column[name]] += end - start
            rows[parent]["self"] -= end - start
            rows[parent]["pieces"] += counts.get("pieces", 0)
    return sorted(rows.values(), key=lambda r: (-r["base"], r["N"]))
