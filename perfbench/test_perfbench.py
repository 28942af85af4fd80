"""Tests of the benchmark's own arithmetic and checks.

Run with:  python3 -m pytest -q perfbench
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import run
import tracer

HEADER = ("family,method,n,alpha,f_offset,x0,p,log_p,stderr_log,refine_delta_log,work,"
          "est_seed,flags,master_seed,config_hash")


def call(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "kind": tracer.CALL,
            "start": start, "end": end}


def test_union_length_merges_overlaps():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert tracer.union_length([]) == 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        call(1, 0, 0.0, 10.0),
        call(2, 1, 1.0, 4.0),  # two children running in parallel threads
        call(3, 1, 2.0, 6.0),
        call(4, 1, 8.0, 9.0),
        call(5, 2, 1.5, 2.5),  # grandchild: charged to span 2, not span 1
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0)


def test_pool_self_time_is_time_with_no_task_running():
    pool = {"id": 7, "parent": 1, "name": "parallel.thread_map", "kind": tracer.POOL,
            "start": 0.0, "end": 4.0, "workers": 2, "tasks": [(0.5, 2.0), (1.0, 3.0)]}
    spans = [call(1, 0, 0.0, 5.0), pool]
    selfs = tracer.self_times(spans)
    assert selfs[7] == pytest.approx(1.5)
    assert selfs[1] == pytest.approx(5.0)  # a pool span is not a child call
    m = tracer.summarise(spans, import_s=0.1)
    assert m["parallel.thread_map.busy_s"] == pytest.approx(3.5)
    assert m["parallel.thread_map.utilisation"] == pytest.approx(3.5 / 8.0)
    assert m["parallel.thread_map.critical_task_s"] == pytest.approx(2.0)


def test_pool_tasks_inherit_the_calling_span():
    t = tracer.Tracer()

    def pool_map(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    thread_map = t.wrap_pool(pool_map, lambda n: 2)
    inner = t.wrap(lambda x: x * 2, "inner")
    outer = t.wrap(lambda xs: thread_map(inner, xs), "outer")
    assert outer([1, 2, 3]) == [2, 4, 6]
    (outer_span,) = [s for s in t.spans if s["name"] == "outer"]
    inners = [s for s in t.spans if s["name"] == "inner"]
    (pool_span,) = [s for s in t.spans if s["kind"] == tracer.POOL]
    assert len(inners) == 3
    assert all(s["parent"] == outer_span["id"] for s in inners)
    assert pool_span["parent"] == outer_span["id"] and len(pool_span["tasks"]) == 3


def _csv(rows, method="dp_lattice", seed=5):
    lines = [HEADER]
    for n, log_p, stderr, refine in rows:
        lines.append(",".join([
            "random_shift_bernoulli", method, str(n), "0.3", "1", "0", repr(math.exp(log_p)),
            repr(log_p), "" if stderr is None else repr(stderr),
            "" if refine is None else repr(refine), "1", "0", "", str(seed), "abc"]))
    return ("\n".join(lines) + "\n").encode()


DEEP = [(3200, -35.1979), (6400, -48.3808), (12800, -62.3056), (25600, -82.3453),
        (51200, -114.3377)]


def _recorded(name, seed, values, **extra):
    return {"values": {name: {str(seed): {"log_p": {str(n): v for n, v in values}, **extra}}}}


def test_checker_accepts_recorded_dp_values():
    data = _csv([(n, lp, None, None) for n, lp in DEEP])
    assert checks.check("dp-deep", 5, data, _recorded("dp-deep", 5, DEEP)) == []


def test_checker_rejects_one_log_p_perturbed_by_1e_6():
    rows = [(n, lp, None, None) for n, lp in DEEP]
    rows[2] = (rows[2][0], rows[2][1] + 1e-6, None, None)
    problems = checks.check("dp-deep", 5, _csv(rows), _recorded("dp-deep", 5, DEEP))
    assert len(problems) == 1 and "n=12800" in problems[0]


def test_checker_rejects_perturbed_grid_refine_delta():
    ns = (400, 800, 1600, 3200, 6400)
    lps = [(n, -10.0 - i) for i, n in enumerate(ns)]
    refine = {str(n): 1e-3 for n in ns}
    recorded = _recorded("grid-gauss", 5, lps, refine_delta_log=refine)
    good = _csv([(n, lp, None, 1e-3) for n, lp in lps], method="grid")
    assert checks.check("grid-gauss", 5, good, recorded) == []
    bad = _csv([(n, lp, None, 1e-3 + 1e-6 * (n == 800)) for n, lp in lps], method="grid")
    problems = checks.check("grid-gauss", 5, bad, recorded)
    assert len(problems) == 1 and "n=800: refine_delta_log" in problems[0]


def test_splitting_checked_against_dp_in_its_own_stderr():
    oracle = {n: -10.0 - i for i, n in enumerate(checks.SHIFT_NS)}
    rows = [(n, oracle[n] - 3.0 * 0.05, 0.05, None) for n in checks.SHIFT_NS]
    data = _csv(rows, method="splitting")
    assert checks.check("splitting-shift", 5, data, {}, oracle) == []
    assert checks.max_abs_z(data, oracle) == pytest.approx(3.0)
    rows[1] = (rows[1][0], oracle[rows[1][0]] + (checks.Z_LIMIT + 0.1) * 0.05, 0.05, None)
    problems = checks.check("splitting-shift", 5, _csv(rows, method="splitting"), {}, oracle)
    assert len(problems) == 1 and "n=400" in problems[0]


def test_checker_rejects_wrong_seed_and_rows():
    data = _csv([(n, lp, None, None) for n, lp in DEEP], seed=6)
    assert checks.check("dp-deep", 5, data, {})
    assert checks.check("dp-deep", 6, _csv([(n, lp, None, None) for n, lp in DEEP[:4]], seed=6),
                        {})


def test_host_scale_uses_the_two_reference_runs_around_each_invocation():
    refs = [run.REFERENCE_S, 2 * run.REFERENCE_S, run.REFERENCE_S / 2]
    assert run.host_scale(refs) == pytest.approx([1 / 1.5, 1 / 1.25])


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(checks.WORKLOADS)
    layer = set(tracer.summarise([], 0.0)) | {
        "mc.survival_splitting.max_abs_z", "parallel.speedup", "process.cpu_s",
        "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mib"}
