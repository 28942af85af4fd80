"""Outside-in span tracing of a tubewalk CLI process.

``install`` replaces each traced public function at the module attribute
its caller looks up (``tubewalk.cli.estimate_gamma``,
``tubewalk.rate.survival_dp_lattice`` and so on) with a wrapper that
records a span: name, start, end, parent span and a few counts taken from
the arguments or the result.  The package itself is not modified.

``thread_map`` is recorded as a *pool* span.  A task that runs in a pool
thread inherits the span that called ``thread_map`` as its parent, so work
done in the pool is charged to the layer that asked for it; the pool span
keeps its own task intervals for the utilisation figures.

Spans stay in memory and are written out once, when the process ends.
``summarise`` turns the spans of one process into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time

CALL, POOL = "call", "pool"

# The survival estimators rate.make_estimator dispatches to, by module.
SURVIVAL_LAYER = {
    "survival_dp_lattice": "quench_dp",
    "survival_grid": "quench_dp",
    "survival_brute_force": "quench_dp",
    "survival_splitting": "mc",
    "survival_naive_mc": "mc",
}


class Tracer:
    """In-memory span recorder; the current span is tracked per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def current(self) -> int:
        return getattr(self._local, "span", 0)

    def _enter(self, span_id: int) -> int:
        prev = self.current()
        self._local.span = span_id
        return prev

    def _record(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def wrap(self, fn, name: str, counts=None):
        """Wrapper recording a CALL span around `fn`.

        ``counts(bound_args, result)`` returns a dict of counts stored on
        the span; it runs after the timed region.
        """
        sig = inspect.signature(fn) if counts is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._new_id()
            parent = self._enter(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._local.span = parent
            span = {"id": span_id, "parent": parent, "name": name, "kind": CALL,
                    "start": start, "end": end}
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counts(bound.arguments, result))
            self._record(span)
            return result

        return traced

    def wrap_pool(self, pool_map, max_workers, name: str = "parallel.thread_map"):
        """Wrapper for ``thread_map(fn, items)`` recording a POOL span."""

        @functools.wraps(pool_map)
        def traced(fn, items):
            items = list(items)
            caller = self.current()
            span_id = self._new_id()
            tasks: list[tuple[float, float]] = []

            def task(item):
                prev = self._enter(caller)
                start = time.perf_counter()
                try:
                    return fn(item)
                finally:
                    end = time.perf_counter()
                    self._local.span = prev
                    with self._lock:
                        tasks.append((start, end))

            start = time.perf_counter()
            try:
                return pool_map(task, items)
            finally:
                end = time.perf_counter()
                self._record({"id": span_id, "parent": caller, "name": name, "kind": POOL,
                              "start": start, "end": end, "workers": max_workers(len(items)),
                              "tasks": sorted(tasks)})

        return traced


def _survival_counts(args, est):
    counts = {"n": int(args["tube"].n), "work": int(est.work)}
    if est.refine_delta_log is not None and math.isfinite(est.log_p):
        counts["refine_rel"] = abs(est.refine_delta_log) / max(1.0, abs(est.log_p))
    if "extinction" in est.flags:
        counts["extinctions"] = 1
    return counts


def _gamma_counts(args, result):
    steps = int(round(args["horizon_t"] / args["dt"]))
    return {"work": int(args["env_replicas"]) * steps * int(args["grid_points"])}


def install(tracer: Tracer) -> None:
    """Wrap every traced name in the imported tubewalk modules."""
    from tubewalk import cli, gamma, mc, parallel, rate

    def patch(module, attr, name, counts=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, counts))

    patch(cli, "validate", "config.validate")
    for attr in ("_simulate_rows", "_gamma_rows", "_fit_report"):
        patch(cli, attr, f"cli.{attr}")
    patch(cli, "theorem_check", "rate.theorem_check")
    patch(rate, "decay_fit", "rate.decay_fit")
    for module in (cli, rate):
        patch(module, "sample_environment", "env.sample_environment")
    for attr, layer in SURVIVAL_LAYER.items():
        patch(rate, attr, f"{layer}.{attr}", _survival_counts)
    # cli binds estimate_gamma at import; rate reaches it through gamma_mod
    patch(cli, "estimate_gamma", "gamma.estimate_gamma", _gamma_counts)
    patch(gamma, "estimate_gamma", "gamma.estimate_gamma", _gamma_counts)
    patch(mc, "draw_increments", "walk.draw_increments")
    pool = tracer.wrap_pool(parallel.thread_map, parallel.max_workers)
    for module in (cli, rate, gamma):
        module.thread_map = pool


# ------------------------------------------------------------ arithmetic

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clipped(intervals, start: float, end: float):
    """The parts of `intervals` that lie inside [start, end]."""
    out = []
    for a, b in intervals:
        a, b = max(a, start), min(b, end)
        if b > a:
            out.append((a, b))
    return out


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children.

    The children of a CALL span are the CALL spans whose parent it is,
    wherever they ran, so parallel children that overlap count once.  A
    POOL span's children are its task intervals; its self time is the part
    of the pool's lifetime in which no task ran.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s["kind"] == CALL:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = s["tasks"] if s["kind"] == POOL else children.get(s["id"], [])
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped(kids, s["start"], s["end"]))
    return out


# ------------------------------------------------------------- summarise

def _per_work(seconds: float, work: int) -> float:
    return seconds * 1e9 / work if work else 0.0


def summarise(spans, import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process (values only, no units).

    A layer's ``self_s`` is summed over its calls, so calls that ran at once
    in pool threads add up.  Pool utilisation is task time over pool
    lifetime times workers, summed over every ``thread_map`` call.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def group(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(selfs[s["id"]] for s in group(name))

    def total(name, key):
        return sum(s.get(key, 0) for s in group(name))

    m = {"import.tubewalk_s": import_s, "config.validate_s": self_s("config.validate")}

    g = "gamma.estimate_gamma"
    m[f"{g}.self_s"] = self_s(g)
    m[f"{g}.calls"] = len(group(g))
    m[f"{g}.grid_steps"] = total(g, "work")
    m[f"{g}.ns_per_grid_step"] = _per_work(m[f"{g}.self_s"], m[f"{g}.grid_steps"])

    survival = [s for fn, layer in SURVIVAL_LAYER.items() for s in group(f"{layer}.{fn}")]
    distinct_n = {s["n"] for s in survival}
    m["cli.estimates_per_n"] = len(survival) / len(distinct_n) if distinct_n else 0.0
    for fn in ("_simulate_rows", "_gamma_rows", "_fit_report"):
        m[f"cli.{fn}.self_s"] = self_s(f"cli.{fn}")

    for name in ("quench_dp.survival_dp_lattice", "quench_dp.survival_grid",
                 "mc.survival_splitting"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = len(group(name))
        m[f"{name}.work"] = total(name, "work")
        m[f"{name}.ns_per_work"] = _per_work(m[f"{name}.self_s"], m[f"{name}.work"])
    m["quench_dp.survival_grid.max_refine_rel"] = max(
        (s.get("refine_rel", 0.0) for s in group("quench_dp.survival_grid")), default=0.0)
    m["mc.survival_splitting.extinctions"] = total("mc.survival_splitting", "extinctions")

    split_span = sum(s["end"] - s["start"] for s in group("mc.survival_splitting"))
    m["walk.draw_increments.self_s"] = self_s("walk.draw_increments")
    m["walk.draw_increments.share"] = (
        m["walk.draw_increments.self_s"] / split_span if split_span else 0.0)

    for name in ("env.sample_environment", "rate.decay_fit"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = len(group(name))
    m["rate.theorem_check.self_s"] = self_s("rate.theorem_check")

    pools = group("parallel.thread_map")
    busy = sum(b - a for p in pools for a, b in p["tasks"])
    capacity = sum((p["end"] - p["start"]) * p["workers"] for p in pools)
    m["parallel.thread_map.self_s"] = self_s("parallel.thread_map")
    m["parallel.thread_map.busy_s"] = busy
    m["parallel.thread_map.utilisation"] = busy / capacity if capacity else 0.0
    m["parallel.thread_map.critical_task_s"] = max(
        (b - a for p in pools for a, b in p["tasks"]), default=0.0)
    return m
