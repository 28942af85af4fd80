import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubewalk as tw
from tubewalk.results import FrozenInstanceError, Record, SurvivalEstimate, from_log


def test_p_and_log_p_must_agree():
    est = from_log(-2.0, "dp_lattice", work=10)
    assert est.p == pytest.approx(math.exp(-2.0))
    with pytest.raises(ValueError):
        SurvivalEstimate(p=0.5, log_p=-2.0, method="dp_lattice", work=1)
    with pytest.raises(ValueError):
        SurvivalEstimate(p=0.0, log_p=-50.0, method="dp_lattice", work=1)


def test_stderr_present_iff_stochastic():
    from_log(-1.0, "naive_mc", work=100, stderr_log=0.1)
    from_log(-1.0, "splitting", work=100, stderr_log=0.1)
    for method in ("dp_lattice", "grid", "brute_force"):
        from_log(-1.0, method, work=100)
        with pytest.raises(ValueError):
            from_log(-1.0, method, work=100, stderr_log=0.1)
    with pytest.raises(ValueError):
        from_log(-1.0, "naive_mc", work=100)


def test_zero_probability_representation():
    est = from_log(-math.inf, "naive_mc", work=100, stderr_log=math.inf)
    assert est.p == 0.0 and est.log_p == -math.inf


def test_underflowing_probability_keeps_finite_log():
    est = from_log(-2876.8, "dp_lattice", work=1)
    assert est.p == 0.0 and est.log_p == -2876.8
    assert from_log(-740.0, "grid", work=1).p == math.exp(-740.0) > 0.0
    with pytest.raises(ValueError):
        SurvivalEstimate(p=0.0, log_p=-700.0, method="dp_lattice", work=1)


def test_probability_range_checked():
    with pytest.raises(ValueError):
        SurvivalEstimate(p=1.5, log_p=math.log(1.5), method="dp_lattice", work=1)


def test_realization_steps_view():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 7, seed=2)
    assert len(env) == 7
    assert env.step_law(3).atoms == tuple(zip(env.atom_pos[3], env.atom_w))
    law = env.step_law(0)
    assert law.quenched_var == 1.0 and abs(law.quenched_mean) == 0.5
    with pytest.raises(IndexError):
        env.step_law(7)
    genv = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0), 3, seed=2)
    assert genv.step_law(1).kind == "gaussian" and genv.step_law(1).std == 2.0
    assert np.all(genv.quenched_var == 4.0)


def _matches(got, want) -> bool:
    """`got` equals `want` in keys, types and values, floats to 1e-9 relative."""
    if isinstance(want, dict):
        return type(got) is dict and got.keys() == want.keys() and all(_matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return type(got) is list and len(got) == len(want) and all(map(_matches, got, want))
    if isinstance(want, float):
        return type(got) is float and math.isclose(got, want, rel_tol=1e-9)
    return type(got) is type(want) and got == want


def _estimate(p, log_p, work):
    return {"p": p, "log_p": log_p, "method": "dp_lattice", "work": work, "seed": 0, "stderr_log": None,
            "refine_delta_log": None, "flags": []}


def test_jsonable_records_keep_their_keys_and_values():
    """The records behind verify.json, report.json and fit.json serialise field by field."""
    from tubewalk.cli import _jsonable

    spec = tw.EnvironmentSpec.random_shift_bernoulli(0.5)
    assert _matches(_jsonable(tw.verify_assumptions(spec)), {
        "mean_drift_zero": True, "quenched_var_positive": True, "drift_exp_moment": True,
        "fluct_exp_moment": True, "lambda1": 1.0, "lambda2": 1.0, "lambda3": math.e,
        "notes": ["bounded support, |fluctuation| = 1"],
    })
    assert _matches(_jsonable(from_log(-math.inf, "naive_mc", work=100, stderr_log=math.inf)), {
        "p": 0.0, "log_p": "-inf", "method": "naive_mc", "work": 100, "seed": 0, "stderr_log": "inf",
        "refine_delta_log": None, "flags": [],
    })
    est = tw.estimate_gamma(0.5, horizon_t=0.01, dt=1e-3, grid_points=50, seed=3)
    assert _matches(_jsonable(est), {
        "beta": 0.5, "horizon_t": 0.01, "dt": 0.001, "grid_points": 50, "env_replicas": 8,
        "gamma_hat": 0.0036172073752984025, "ci95": [0.0006452157810618061, 0.006589198969534998],
        "per_replica_values": [0.0009584778160754933, 0.0015155225549888201, 0.002506815837488446,
                               0.010088560306772014, 0.0005105563021204134, 0.006547789749722921,
                               0.0006179041221767792, 0.006192032313042336],
    })
    tpl = tw.TubeTemplate(g=-1.0, h=1.0, alpha=0.3, f_coeff=0.0)
    report = tw.theorem_check(spec, tpl, [8, 16, 32], estimator="dp", gamma_source=1.5, seed=5)
    estimates = [_estimate(0.11328124999999999, -2.1778816144930886, 72),
                 _estimate(0.066741943359375, -2.706921687722412, 176),
                 _estimate(0.009018317796289917, -4.708497459385724, 416)]
    assert _matches(_jsonable(report), {
        "env_family": "random_shift_bernoulli", "sigma_a_sq": 0.25, "sigma_q_sq": 1.0, "beta": 0.5,
        "gamma_value": 1.5, "gamma_source": "fixed",
        "points": [{"n": n, "f_offset": 0, "x0": 0.0, "estimate": e} for n, e in zip((8, 16, 32), estimates)],
        "fit": {"points": [[8, -2.1778816144930886], [16, -2.706921687722412], [32, -4.708497459385724]],
                "alpha": 0.3, "slope": -1.516441766974754, "intercept": 1.5177754831156856,
                "r_squared": 0.9412864638660687, "slope_ci95": [-6.3287096874938324, 3.295826153544324]},
        "predicted": -0.375, "discrepancy": 3.0438447119326777, "tolerance": 0.2, "passed": False, "seed": 5,
        "flags": [],
    })


def test_records_refuse_assignment_and_deletion():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=10)
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 5, seed=0)
    for record, name in ((tube, "n"), (from_log(-1.0, "grid", work=1), "p"), (env, "seed"), (tube, "other")):
        with pytest.raises(FrozenInstanceError, match=repr(name)):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tube.n == 10 and env.seed == 0 and issubclass(FrozenInstanceError, AttributeError)


def test_records_take_positional_and_keyword_fields():
    assert SurvivalEstimate(0.5, math.log(0.5), "grid", 3) == from_log(math.log(0.5), "grid", work=3)
    assert SurvivalEstimate(0.5, math.log(0.5), "grid", 3).flags == ()
    for args, kw, match in (((0.5,), {}, "missing"), ((0.5, -0.69, "grid", 1), {"p": 0.5}, "multiple"),
                            ((), {"bogus": 1}, "unexpected"), ((1,) * 9, {}, "positional")):
        with pytest.raises(TypeError, match=match):
            SurvivalEstimate(*args, **kw)


def test_records_compare_and_hash_by_fields_and_class():
    class Pair(Record):
        a: int
        b: int = 2

    class Other(Record):
        a: int
        b: int = 2

    assert Pair._fields == ("a", "b") and Pair(1) == Pair(1, 2) == Pair(a=1, b=2)
    assert hash(Pair(1)) == hash(Pair(1, 2)) and Pair(1) != Pair(1, 3)
    assert Pair(1) != Other(1) and len({Pair(1), Pair(1, 2), Other(1)}) == 2
    assert repr(Pair(1)) == "test_records_compare_and_hash_by_fields_and_class.<locals>.Pair(a=1, b=2)"
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=10)
    assert tube == tw.TubeSpec(g=((0.0, -1.0), (1.0, -1.0)), h=1, alpha=0.3, n=10)  # g and h normalised
    assert hash(tube) == hash(tube.replace()) and tube != tube.replace(n=11)


def test_replace_runs_the_checks_again():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=10)
    assert tube.replace(n=20).n == 20 and tube.replace(g=-2.0).g == ((0.0, -2.0), (1.0, -2.0))
    with pytest.raises(ValueError, match="alpha"):
        tube.replace(alpha=0.7)
    est = from_log(-1.0, "grid", work=10)
    with pytest.raises(ValueError, match="stderr_log"):
        est.replace(method="naive_mc")
    assert est.replace(method="naive_mc", stderr_log=0.1).method == "naive_mc" and est.method == "grid"
    spec = tw.EnvironmentSpec.random_shift_bernoulli(0.5)
    assert spec.lattice_q == 2 and spec.replace(d=0.25, lattice_q=None).lattice_q == 4
    with pytest.raises(tw.InvalidSpecError, match=r"\(1/2\)Z"):
        spec.replace(d=0.25)  # the derived lattice_q is a field like any other
    with pytest.raises(TypeError, match="unexpected"):
        spec.replace(q=4)


def test_array_records_compare_by_identity():
    spec = tw.EnvironmentSpec.random_shift_bernoulli(0.5)
    env = tw.sample_environment(spec, 7, seed=2)
    twin = tw.sample_environment(spec, 7, seed=2)
    assert env == env and env != twin and len({env, twin}) == 2
    assert env.atom_pos is env.atom_pos and not env.atom_pos.flags.writeable
    assert env.replace(seed=3).seed == 3 and "atom_pos" not in vars(env.replace())
    path = tw.sample_path(env, 0, 6, 0.0, seed=1)
    same_draw = tw.sample_path(env, 0, 6, 0.0, seed=1)
    assert path == path and path != same_draw and len({path, same_draw}) == 2


def test_cli_import_leaves_dataclasses_unloaded():
    # the records are built without generated code, so no run imports dataclasses
    env = dict(os.environ)
    src = str(Path(tw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, tubewalk.cli; sys.exit('dataclasses' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
