import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import tubewalk.cli as cli
from tubewalk.config import (
    ConfigError,
    apply_overrides,
    builtin_config_names,
    check_fit_gamma,
    load_builtin,
    load_raw,
    validate,
)
from tubewalk.env import sample_environment
from tubewalk.rng import derive_seed

SMALL = {
    "seed": 777,
    "environment": {"family": "degenerate", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
    "tube": {"alpha": 0.3, "n_list": [64, 128, 256], "g": -1.0, "h": 1.0},
    "estimator": {"method": "dp", "tolerance": 0.5},
    "gamma": {"beta": [0.0], "t": 2.0, "dt": 0.01, "grid_points": 100, "replicas": 8},
    "output": {"dir": "out"},
}


def _write(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_builtin_configs_validate():
    names = builtin_config_names()
    assert set(names) == {
        "degenerate-rademacher",
        "random-shift-bernoulli",
        "random-mean-gaussian",
    }
    for name in names:
        cfg = validate(load_builtin(name))
        assert cfg.n_list and cfg.template.alpha == 0.3


def test_unknown_keys_rejected():
    for raw in (
        {**SMALL, "bogus": 1},
        {**SMALL, "environment": {**SMALL["environment"], "spread": 2}},
        {**SMALL, "tube": {**SMALL["tube"], "beta": 1}},
        {**SMALL, "estimator": {**SMALL["estimator"], "jobs": 4}},
        {**SMALL, "output": {**SMALL["output"], "format": "csv"}},
        {**SMALL, "output": {**SMALL["output"], "formats": ["xml"]}},
    ):
        with pytest.raises(ConfigError, match="unknown"):
            validate(raw)


def test_required_keys_and_values():
    with pytest.raises(ConfigError):
        validate({"tube": SMALL["tube"]})
    with pytest.raises(ConfigError):
        validate({**SMALL, "environment": {"family": "degenerate"}})
    both = {**SMALL, "tube": {**SMALL["tube"], "n": 10}}
    with pytest.raises(ConfigError, match="exactly one"):
        validate(both)
    bad_window = {**SMALL, "tube": {**SMALL["tube"], "start_window": [-2.0, 0.0]}}
    with pytest.raises(ConfigError):
        validate(bad_window)
    bad_method = {**SMALL, "estimator": {"method": "magic"}}
    with pytest.raises(ConfigError):
        validate(bad_method)


@pytest.mark.parametrize("n_list", [[800, 200, 400], [64, 128, 128]])
def test_n_list_must_increase_strictly(tmp_path, capsys, n_list):
    with pytest.raises(ConfigError, match="tube.n_list"):
        validate({**SMALL, "tube": {**SMALL["tube"], "n_list": n_list}})
    out = tmp_path / "x"
    args = ["report", "--config", _write(tmp_path, SMALL), "--set", f"tube.n_list={n_list}"]
    assert cli.main([*args, "--out", str(out)]) == 2
    assert "tube.n_list" in capsys.readouterr().err
    assert not out.exists()


def test_load_raw_applies_overrides_then_seed(tmp_path):
    raw = load_raw("builtin:degenerate-rademacher", ["seed=5", "tube.alpha=0.25"], seed=7)
    assert raw["seed"] == 7 and raw["tube"]["alpha"] == 0.25
    assert load_raw(_write(tmp_path, SMALL)) == SMALL
    (tmp_path / "list.yaml").write_text("- 1\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_raw(str(tmp_path / "list.yaml"))


def test_overrides():
    raw = apply_overrides(SMALL, ["tube.alpha=0.25", "estimator.method=naive", "seed=9"])
    assert raw["tube"]["alpha"] == 0.25
    assert raw["estimator"]["method"] == "naive"
    assert raw["seed"] == 9
    assert SMALL["tube"]["alpha"] == 0.3  # original untouched
    with pytest.raises(ConfigError):
        apply_overrides(SMALL, ["no-equals-sign"])


def test_config_hash_tracks_content():
    a = validate(SMALL)
    b = validate(apply_overrides(SMALL, ["seed=9"]))
    assert a.config_hash != b.config_hash
    assert a.config_hash == validate(json.loads(json.dumps(SMALL))).config_hash


def test_cli_simulate_deterministic(tmp_path, monkeypatch):
    # TUBEWALK_THREADS is not read: any value, a malformed one too, gives the same bytes
    cfg = _write(tmp_path, SMALL)
    outs = []
    for threads, sub in (("1", "a"), ("3", "b"), ("3", "c"), ("two", "d")):
        monkeypatch.setenv("TUBEWALK_THREADS", threads)
        out = tmp_path / sub
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "simulate.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]
    header = outs[0].decode().splitlines()[0]
    assert header.startswith("family,method,n,alpha,f_offset,x0,p,log_p")
    assert header.endswith("master_seed,config_hash")


def test_cli_gamma_csv(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "g"
    assert cli.main(["gamma", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "gamma.csv").read_text().splitlines()
    assert lines[0] == "beta,gamma_hat,ci_lo,ci_hi,t,dt,grid,replicas,master_seed,config_hash"
    assert len(lines) == 2
    rerun = tmp_path / "g2"
    assert cli.main(["gamma", "--config", cfg, "--out", str(rerun)]) == 0
    assert (out / "gamma.csv").read_bytes() == (rerun / "gamma.csv").read_bytes()


def test_cli_fit_outputs(tmp_path):
    raw = {**SMALL, "output": {"dir": "out", "svg": True}}
    cfg = _write(tmp_path, raw)
    out = tmp_path / "f"
    assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["check"]["fit"]["slope"] < 0
    assert payload["check"]["passed"] is True
    pts = (out / "fit_points.csv").read_text().splitlines()
    assert pts[0] == "n,n_pow,log_p,master_seed,config_hash"
    assert len(pts) == 4
    assert (out / "fit.svg").read_text().startswith("<svg")


def test_cli_report_round_trip(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "r"
    assert cli.main(["report", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config_hash"] == validate(SMALL).config_hash
    # the embedded config re-runs to identical results (JSON is a YAML subset)
    embedded = tmp_path / "embedded.json"
    embedded.write_text(json.dumps(payload["config"]))
    out2 = tmp_path / "r2"
    assert cli.main(["report", "--config", str(embedded), "--out", str(out2)]) == 0
    second = json.loads((out2 / "report.json").read_text())
    assert second["simulate"] == payload["simulate"]
    assert second["gamma"] == payload["gamma"]
    assert second["fit"] == payload["fit"]


def test_cli_report_estimates_gamma_once_per_beta(tmp_path, monkeypatch):
    import tubewalk.gamma as gamma_mod

    real = gamma_mod.estimate_gamma
    calls = []

    def counting(beta, **kwargs):
        calls.append(beta)
        return real(beta, **kwargs)

    monkeypatch.setattr(cli, "estimate_gamma", counting)
    monkeypatch.setattr(gamma_mod, "estimate_gamma", counting)
    raw = {
        **SMALL,
        "environment": {"family": "random_shift_bernoulli", "d": 0.5, "lattice_q": 2},
        "estimator": {"method": "dp", "tolerance": 10.0},
        "gamma": {**SMALL["gamma"], "beta": [0.5, 1.0]},
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "once"
    assert cli.main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(calls) == [0.5, 1.0]
    payload = json.loads((out / "report.json").read_text())
    table = {row[0]: row[1] for row in payload["gamma"]["rows"]}
    assert payload["fit"]["beta"] == 0.5
    assert payload["fit"]["gamma_value"] == table[0.5]

    # `fit` alone estimates only its own beta, seeded like the table's row
    calls.clear()
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 0
    assert calls == [0.5]
    assert json.loads((tmp_path / "fit" / "fit.json").read_text())["check"] == payload["fit"]

    # the fit's beta is absent from gamma.beta: it estimates its own gamma
    calls.clear()
    raw["gamma"]["beta"] = [1.0]
    out = tmp_path / "own"
    assert cli.main(["report", "--config", _write(tmp_path, raw, "own.yaml"), "--out", str(out)]) == 0
    assert sorted(calls) == [0.5, 1.0]
    own = real(0.5, horizon_t=2.0, dt=0.01, grid_points=100, env_replicas=8, seed=derive_seed(777, 71))
    assert json.loads((out / "report.json").read_text())["fit"]["gamma_value"] == own.gamma_hat


def test_cli_seed_and_set_overrides(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert (
        cli.main(
            ["simulate", "--config", cfg, "--out", str(out2), "--set", "estimator.method=naive",
             "--set", "estimator.replicas=2000", "--seed", "31"]
        )
        == 0
    )
    a = (out1 / "simulate.csv").read_text()
    b = (out2 / "simulate.csv").read_text()
    assert "naive_mc" in b and "naive_mc" not in a
    assert ",31," in b.splitlines()[1]


def test_cli_bad_config_exit_code(tmp_path):
    cfg = _write(tmp_path, {**SMALL, "bogus": 1})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    missing = str(tmp_path / "missing.yaml")
    assert cli.main(["simulate", "--config", missing, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["estimator.particles=abc"], "estimator.particles"),
        (["estimator.particles=50"], "estimator.particles"),
        (["estimator.checkpoints=0"], "estimator.checkpoints"),
        (["estimator.method=splitting", "estimator.checkpoints=5000"], "estimator.checkpoints"),
        (["estimator.replicas=99.5"], "estimator.replicas"),
        (["estimator.grid_points=10"], "estimator.grid_points"),
        (["estimator.tolerance=0"], "estimator.tolerance"),
    ],
)
def test_cli_rejects_bad_estimator_effort(tmp_path, capsys, overrides, key):
    cfg = _write(tmp_path, SMALL)
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert cli.main(["simulate", "--config", cfg, *sets, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "args, key",
    [
        (["--set", "gamma.replicas=3"], "gamma.replicas"),
        (["--set", "gamma.replicas=8.5"], "gamma.replicas"),
        (["--set", "gamma.grid_points=49"], "gamma.grid_points"),
        (["--set", "gamma.grid_points=abc"], "gamma.grid_points"),
        (["--set", "gamma.t=0"], "gamma.t"),
        (["--set", "gamma.dt=-0.01"], "gamma.dt"),
        (["--set", "gamma.t=0.03"], "gamma.t / gamma.dt"),
        (["--seed", "-1"], "seed"),
        (["--set", "seed=1.5"], "seed"),
        (["--set", "environment.seed=-3"], "environment.seed"),
    ],
)
def test_cli_rejects_bad_gamma_and_seed(tmp_path, capsys, args, key):
    cfg = _write(tmp_path, SMALL)
    assert cli.main(["gamma", "--config", cfg, *args, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


_SPLIT_GAUSS = ["tube.n_list=[8,16,32]", "estimator.method=splitting", "estimator.particles=1000",
                "estimator.checkpoints=2"]


@pytest.mark.parametrize(
    "name, overrides, key",
    [
        # each of these once ran: p=1 from a nan mean, an OverflowError, p=nan, p=0
        ("random-mean-gaussian", [*_SPLIT_GAUSS, "environment.sigma_a=.nan"], "environment: sigma_a"),
        ("random-mean-gaussian", [*_SPLIT_GAUSS, "environment.tau=.inf"], "environment: tau"),
        ("random-shift-bernoulli", ["tube.n_list=[8,16,32]", "environment.d=.inf"], "environment: d "),
        ("random-mean-gaussian", [*_SPLIT_GAUSS, "tube.r_n=1", "environment.xi_scale=.nan"],
         "environment: xi_scale"),
        ("degenerate-rademacher", ["tube.n_list=[8,16,32]", "environment.atoms=[[-1,.nan],[1,0.5]]"],
         "environment: atoms"),
        # these once ran n = 1 or ended in a TypeError
        ("degenerate-rademacher", ["tube.n_list=[1.5,3,4]"], "tube.n_list"),
        ("degenerate-rademacher", ["tube.n_list=5"], "tube.n_list"),
        ("degenerate-rademacher", ["tube.n_list=[]"], "tube.n_list"),
        ("degenerate-rademacher", ["environment.atoms=5"], "environment.atoms"),
        # non-finite tube and gamma numbers
        ("degenerate-rademacher", ["tube.g=.nan"], "g breakpoints must be finite"),
        ("degenerate-rademacher", ["tube.r_n=.nan"], "xi_threshold"),
        ("degenerate-rademacher", ["tube.x0=.inf"], "tube.x0"),
        ("degenerate-rademacher", ["gamma.beta=[0.5,.nan]"], "gamma.beta"),
        # the output table's types: these once ended in a TypeError, or wrote
        # nothing where the flag looked set
        ("degenerate-rademacher", ["output.dir=null"], "output.dir"),
        ("degenerate-rademacher", ['output.dir=""'], "output.dir"),
        ("degenerate-rademacher", ["output.svg=1"], "output.svg"),
        ("degenerate-rademacher", ["output.dump_path=abc"], "output.dump_path"),
        # a sweep sets its own starts; simulate once ignored x0 and fit used it
        ("degenerate-rademacher", ["tube.x0=0.1", "tube.sweep_starts=true"], "tube.x0 and tube.sweep_starts"),
        # these strings once read as true
        ("degenerate-rademacher", ['tube.sweep_starts="false"'], "tube.sweep_starts"),
        ("degenerate-rademacher", ['environment.shared="no"'], "environment.shared"),
        # the xi events enter every estimator as one analytic factor; the mode key is gone
        ("degenerate-rademacher", ["tube.xi_mode=analytic"], "xi_mode"),
        # a grid kernel of 8 sigma_a / dx taps on each side: this one would need gigabytes
        ("random-mean-gaussian", ["tube.n_list=[8,16,32]", "environment.sigma_a=1e5"],
         "environment.sigma_a and environment.tau"),
        # starts outside the tube: dp once failed after sampling, grid and splitting wrote p = 0;
        # 5.0 is outside only at n = 200 (+-4.90), so every n is checked
        ("degenerate-rademacher", ["tube.x0=1000"], "tube.x0"),
        ("degenerate-rademacher", ["tube.x0=5.0"], "at n = 200"),
    ],
)
def test_cli_rejects_bad_values(tmp_path, capsys, name, overrides, key):
    sets = [arg for item in overrides for arg in ("--set", item)]
    out = tmp_path / "x"
    assert cli.main(["simulate", "--config", f"builtin:{name}", *sets, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, overrides, key",
    [
        # env.moments squares these; fit once ended in an OverflowError traceback
        ("random-shift-bernoulli", ["environment.d=1e200"], "environment.d "),
        ("random-mean-gaussian", ["environment.sigma_a=1e200"], "environment.sigma_a "),
        ("random-mean-gaussian", ["environment.tau=1e300"], "environment.tau "),
    ],
)
def test_cli_rejects_environment_scale_beyond_float(tmp_path, capsys, name, overrides, key):
    sets = [arg for item in ["tube.n_list=[8,16,32]", *overrides] for arg in ("--set", item)]
    out = tmp_path / "x"
    assert cli.main(["fit", "--config", f"builtin:{name}", *sets, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["auto", "splitting"])
def test_validate_bounds_the_grid_kernel_only_where_the_grid_runs(method):
    overrides = ["environment.sigma_a=1e5", f"estimator.method={method}"]
    raw = apply_overrides(load_builtin("random-mean-gaussian"), overrides)
    if method == "splitting":
        validate(raw)
    else:
        with pytest.raises(ConfigError, match="environment.sigma_a and environment.tau"):
            validate(raw)


def test_readme_config_block_validates():
    # the documented keys are the schema's: a removed key fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
    validate(yaml.safe_load(block))


@pytest.mark.parametrize("n", [2.0, 2.5, True, 0, "8", None])
def test_tube_n_must_be_a_positive_integer(n):
    tube = {k: v for k, v in SMALL["tube"].items() if k != "n_list"}
    with pytest.raises(ConfigError, match="tube.n must be an integer >= 1"):
        validate({**SMALL, "tube": {**tube, "n": n}})


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"estimator": {"particles": 10**8}}, "estimator.particles"),
        ({"estimator": {"replicas": 2**24 + 1}}, "estimator.replicas"),
        ({"tube": {"f_coeff": 1e9}}, "tube.f_coeff"),
        ({"tube": {"n_list": [64, 128, 10**9]}}, "tube.n_list"),
        ({"tube": {"f_power": 1e300}}, "tube.f_power"),
        ({"tube": {"f_coeff": float("inf")}}, "tube.f_coeff"),
    ],
)
def test_validate_caps_memory(overrides, key):
    # validation alone: nothing is sampled or propagated
    raw = {**SMALL, **{table: {**SMALL[table], **values} for table, values in overrides.items()}}
    with pytest.raises(ConfigError, match="GiB memory budget") as info:
        validate(raw)
    assert key in str(info.value)


def test_validate_accepts_effort_at_the_cap():
    at_cap = {"particles": 2**24, "replicas": 2**24}
    validate({**SMALL, "estimator": {**SMALL["estimator"], **at_cap}})
    # 8388608 steps of 128 bytes: the Rademacher environment at the budget
    validate({**SMALL, "tube": {**SMALL["tube"], "n_list": [64, 128, 2**23], "f_coeff": 0.0}})


# The grid step kernel of sigma_a = 24341 (tau = 1, 400 grid points) at
# SMALL's tube at n = 64 has 22369297 taps, just inside the 2**30 // 48 =
# 22369621 a run may hold; sigma_a = 24342 gives 22370215.
_GAUSS_AT_CAP = {
    **SMALL,
    "environment": {"family": "random_mean_gaussian", "sigma_a": 24341, "tau": 1.0},
    "tube": {**SMALL["tube"], "n_list": [64, 128, 256, 512]},
    "estimator": {"method": "grid", "grid_points": 400},
}


def test_validate_sizes_each_run_against_the_whole_budget(monkeypatch):
    validate(_GAUSS_AT_CAP)
    over = {**_GAUSS_AT_CAP, "environment": {**_GAUSS_AT_CAP["environment"], "sigma_a": 24342}}
    with pytest.raises(ConfigError, match="GiB memory budget") as info:
        validate(over)
    assert "environment.sigma_a" in str(info.value) and "at most 22369621 fit" in str(info.value)
    # the n run one at a time, whatever TUBEWALK_THREADS says
    monkeypatch.setenv("TUBEWALK_THREADS", "4")
    validate(_GAUSS_AT_CAP)


# The exact DP holds 32 bytes a node: at most 2**30 // 32 = 33554432.  On the
# integer lattice (Rademacher steps, n = 1, so the bounds are g and h) a start
# at 0.5 lays floor(h - 0.5) - ceil(g - 0.5) + 3 nodes: 33554432 at
# h = -g = 16777214.75, 33554433 at g = -16777215.25, h = 16777215.75.
def _lattice_raw(g, h, method):
    tube = {"alpha": 0.3, "n": 1, "g": g, "h": h, "x0": 0.5}
    return {**SMALL, "tube": tube, "estimator": {"method": method, "checkpoints": 1}}


@pytest.mark.parametrize("method", ["dp", "auto"])
def test_validate_sizes_the_exact_dp_lattice(method):
    validate(_lattice_raw(-16777214.75, 16777214.75, method))
    with pytest.raises(ConfigError, match="GiB memory budget") as info:
        validate(_lattice_raw(-16777215.25, 16777215.75, method))
    message = str(info.value)
    assert "33554433 nodes" in message and "at most 33554432 fit" in message
    assert "tube.g, tube.h" in message and "environment.atoms" in message
    # the grid and splitting do not lay the law's lattice out at that size
    for other in ("grid", "splitting"):
        validate(_lattice_raw(-16777215.25, 16777215.75, other))


@pytest.mark.parametrize("method", ["dp", "auto"])
def test_validate_sizes_the_dp_lattice_without_laying_it_out(method):
    # 3.9e7 to 4.4e7 nodes of (1/1e6)Z: refused at the first n, naming the keys,
    # by validation that holds under 1 MiB
    raw = load_builtin("random-shift-bernoulli")
    raw["environment"].update(d=0.123457, lattice_q=1000000)
    raw["tube"]["n_list"] = [20000, 25600, 30000]
    raw["estimator"]["method"] = method

    def refused():
        with pytest.raises(ConfigError, match="at n = 20000") as info:
            validate(raw)
        assert "environment.d and environment.lattice_q" in str(info.value)

    assert _peak_bytes(refused) < 2**20
    # a start sweep counts the nodes at every start
    raw["tube"].update(n_list=[1], g=-16777215.25, h=16777215.75, sweep_starts=True)
    raw["environment"].update(d=0.0, lattice_q=1)
    with pytest.raises(ConfigError, match="33554433 nodes"):
        validate(raw)


# Atoms at +-sqrt(1/2) lie on no lattice, so the grid lays span / grid_points
# spaced nodes: from the start 0, 33554429 grid points give at most 33554431
# nodes over the builtin's tubes, 33554430 give 33554433 at n = 400, and
# 40000000 give 40000003 at n = 200 (1.19 GiB at 32 bytes a node).
_OFF_LATTICE = ["environment.atoms=[[-0.7071067811865476,0.5],[0.7071067811865476,0.5]]"]


@pytest.mark.parametrize("method", ["grid", "auto"])
def test_validate_sizes_the_grid_on_atom_laws(method):
    def raw(points):
        sets = [*_OFF_LATTICE, f"estimator.method={method}", f"estimator.grid_points={points}"]
        return apply_overrides(load_builtin("degenerate-rademacher"), sets)

    assert _peak_bytes(lambda: validate(raw(33554429))) < 2**20
    for points, nodes, n in ((33554430, 33554433, 400), (40000000, 40000003, 200)):

        def refused():
            with pytest.raises(ConfigError, match="GiB memory budget") as info:
                validate(raw(points))
            message = str(info.value)
            assert f"{nodes} nodes" in message and f"at n = {n}" in message and "at most 33554432 fit" in message
            assert "estimator.grid_points" in message and "environment.atoms" in message

        assert _peak_bytes(refused) < 2**20


def test_validate_sizes_the_grid_on_a_lattice_law_at_its_own_spacing():
    # the grid lays a lattice law's own (1/q)Z while that holds at most
    # max(5e6, grid_points) nodes (a dozen for Rademacher steps), else span /
    # grid_points spaced nodes (the span of 60 holds 6e7 sites of (1/1e6)Z)
    sets = ["estimator.method=grid", "estimator.grid_points=40000000"]
    validate(apply_overrides(load_builtin("degenerate-rademacher"), sets))
    fine = ["environment.d=0.123457", "environment.lattice_q=1000000", "tube.n_list=[1]", "tube.g=-30", "tube.h=30"]
    with pytest.raises(ConfigError, match="40000003 nodes") as info:
        validate(apply_overrides(load_builtin("random-shift-bernoulli"), [*sets, *fine]))
    assert "environment.d and environment.lattice_q, at estimator.grid_points," in str(info.value)


# The Gaussian builtin's tube widened to [-100, 100] n^0.3 spans 982 at n = 200:
# 21875579 grid points give a padded row of 22143375 nodes (a reach of 267796
# for 8 sigma_a + 8 tau), one point more gives 22394880, past the 2**30 // 48 =
# 22369621 that fit, and 40000000 give 40500000 (1.81 GiB at 48 bytes a node).
@pytest.mark.parametrize("method", ["grid", "auto"])
def test_validate_sizes_the_gaussian_grid_row(method):
    def raw(points):
        sets = ["tube.g=-100", "tube.h=100", f"estimator.method={method}", f"estimator.grid_points={points}"]
        return apply_overrides(load_builtin("random-mean-gaussian"), sets)

    assert _peak_bytes(lambda: validate(raw(21875579))) < 2**20
    for points, nodes in ((21875580, 22394880), (40000000, 40500000)):

        def refused():
            with pytest.raises(ConfigError, match="GiB memory budget") as info:
                validate(raw(points))
            message = str(info.value)
            assert f"give {nodes} nodes in the grid's padded row at the smallest n (200)" in message
            assert message.startswith("estimator.grid_points") and "at most 22369621 fit" in message

        assert _peak_bytes(refused) < 2**20


# SMALL's gamma table holds 8 replicas: at most 2**30 // (8 * 8) = 16777216
# steps of W increments; 1000 replicas run 64 at a time, so 2**30 // (8 * 64).
# The layout's bytes (`gamma._run_bytes`) reach the budget at dt = 1e-3 through
# the padded rows (n = 3317760 for 2627594 grid points, 3359232 one point
# more), and at dt = 1e-8 through the factors of the cut operator (K = 14089
# band modes and 101 padding entries, then 14427 and 3100).
_GAMMA_AT_CAP = [
    {"t": 0.5 * 16777216, "dt": 0.5},
    {"t": 0.5 * 2097152, "dt": 0.5, "replicas": 1000},
    {"t": 0.01, "dt": 1e-3, "grid_points": 2627594},
    {"t": 0.01, "dt": 1e-3, "grid_points": 328448, "replicas": 1000},
    {"t": 1e-6, "dt": 1e-8, "grid_points": 124899},
]
_GAMMA_OVER_CAP = [
    ({"t": 0.5 * 16777217, "dt": 0.5}, "gamma.t / gamma.dt"),
    ({"t": 0.5 * 2097153, "dt": 0.5, "replicas": 1000}, "gamma.t / gamma.dt"),
    ({"t": 0.01, "dt": 1e-3, "grid_points": 2627595}, "gamma.dt and gamma.grid_points"),
    ({"t": 0.01, "dt": 1e-3, "grid_points": 328449, "replicas": 1000}, "gamma.dt and gamma.grid_points"),
    ({"t": 1e-6, "dt": 1e-8, "grid_points": 124900}, "gamma.dt and gamma.grid_points"),
    ({"t": 1e300, "dt": 1e-300}, "gamma.t / gamma.dt"),
    ({"grid_points": 10**400}, "gamma.dt and gamma.grid_points"),
    # the same grid at beta = 20: the drift 20 |dW| pads each row about 5x longer
    ({"t": 0.01, "dt": 1e-3, "grid_points": 2627594, "beta": [20.0]}, "gamma.dt and gamma.grid_points"),
]


def _gamma_raw(values):
    return {**SMALL, "gamma": {**SMALL["gamma"], **values}}


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("values", _GAMMA_AT_CAP)
def test_validate_accepts_gamma_at_the_cap(values):
    # validation sizes the W batch and the band operator without building them
    assert _peak_bytes(lambda: validate(_gamma_raw(values))) < 2**20


@pytest.mark.parametrize("values, key", _GAMMA_OVER_CAP)
def test_validate_caps_gamma_memory(values, key):
    def rejected():
        with pytest.raises(ConfigError, match="GiB memory budget") as info:
            validate(_gamma_raw(values))
        assert key in str(info.value)

    assert _peak_bytes(rejected) < 2**20


@pytest.mark.parametrize("command", ["fit", "report"])
def test_fit_sizes_gamma_at_its_own_beta(tmp_path, capsys, command):
    # the fit estimates gamma at beta = sigma_a/sigma_q = 20, which gamma.beta
    # does not list: 5284 MiB of layout there against 1018 MiB at beta = 0
    sets = ["environment.sigma_a=20", "gamma.beta=[0.0]", "gamma.t=0.01", "gamma.dt=0.001",
            "gamma.grid_points=2627594", "gamma.replicas=8"]
    cfg = validate(apply_overrides(load_builtin("random-mean-gaussian"), sets))  # simulate and gamma run
    with pytest.raises(ConfigError, match="GiB memory budget") as info:
        check_fit_gamma(cfg)
    assert "environment.sigma_a" in str(info.value) and "gamma.grid_points" in str(info.value)
    out = tmp_path / "x"
    args = [command, "--config", "builtin:random-mean-gaussian", "--out", str(out)]
    args += [arg for item in sets for arg in ("--set", item)]
    codes = []
    assert _peak_bytes(lambda: codes.append(cli.main(args))) < 2**20
    assert codes == [2] and "environment.sigma_a" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_gamma_dt_past_the_barrier_shift():
    # 0.5826 sqrt(dt) >= 1/2 from dt = 0.7365 on: no tube is left to propagate in
    validate(_gamma_raw({"t": 8.0, "dt": 0.73}))
    with pytest.raises(ConfigError, match="gamma.dt must be <"):
        validate(_gamma_raw({"t": 8.0, "dt": 0.74}))


_SCIPY_FREE_RUNS = """
import sys
import tracemalloc

import tubewalk
import tubewalk.cli as cli

assert "scipy" not in sys.modules, "import tubewalk"
out = sys.argv[1]
for name in ("degenerate-rademacher", "random-shift-bernoulli", "random-mean-gaussian"):
    for method in ("dp", "grid", "splitting", "naive"):
        if method == "dp" and name == "random-mean-gaussian":
            continue  # no lattice
        sets = ["tube.n_list=[16,24,32]", f"estimator.method={method}", "estimator.particles=200",
                "estimator.replicas=200", "estimator.checkpoints=4", "estimator.grid_points=60"]
        args = ["simulate", "--config", f"builtin:{name}", "--out", out]
        assert cli.main(args + [a for s in sets for a in ("--set", s)]) == 0, (name, method)
        assert "scipy" not in sys.modules, (name, method)
sets = ["tube.n_list=[16,24,32]", "gamma.t=0.5", "gamma.dt=0.01", "gamma.grid_points=60"]
args = ["report", "--config", "builtin:random-shift-bernoulli", "--out", out]
assert cli.main(args + [a for s in sets for a in ("--set", s)]) in (0, 1)
assert "scipy" not in sys.modules, "report"
"""


def test_import_and_simulate_leave_scipy_unloaded(tmp_path):
    # no command imports scipy, report's t quantiles included
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUNS, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    payload = json.loads((tmp_path / "report.json").read_text())
    header, (row,) = payload["gamma"]["header"], payload["gamma"]["rows"]
    ci_lo, gamma_hat, ci_hi = (row[header.index(k)] for k in ("ci_lo", "gamma_hat", "ci_hi"))
    assert ci_lo < gamma_hat < ci_hi
    slope_lo, slope_hi = payload["fit"]["fit"]["slope_ci95"]
    assert slope_lo < payload["fit"]["fit"]["slope"] < slope_hi


_SEQUENTIAL_REPORT = """
import sys
import threading

import tubewalk.cli as cli

sets = ["tube.n_list=[16,24,32]", "gamma.beta=[0.0,0.5]", "gamma.t=0.5", "gamma.dt=0.01",
        "gamma.grid_points=60"]
args = ["report", "--config", "builtin:random-shift-bernoulli", "--out", sys.argv[1]]
assert cli.main(args + [a for s in sets for a in ("--set", s)]) in (0, 1)
assert "concurrent.futures" not in sys.modules
assert threading.active_count() == 1, threading.enumerate()
"""


def test_report_runs_sequentially_without_a_thread_pool(tmp_path):
    env = dict(os.environ, TUBEWALK_THREADS="4")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, "-c", _SEQUENTIAL_REPORT, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", ["degenerate-rademacher", "random-shift-bernoulli", "random-mean-gaussian"])
def test_cli_verify_builtin_configs(tmp_path, name):
    raw = load_builtin(name)
    cfg = _write(tmp_path, raw, name=f"{name}.yaml")
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    payload = json.loads((tmp_path / name / "verify.json").read_text())
    assert all(c["ok"] for c in payload["checks"])


def test_cli_fit_builtin_degenerate_within_tolerance(tmp_path):
    out = tmp_path / "fit"
    assert cli.main(["fit", "--config", "builtin:degenerate-rademacher", "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["check"]["discrepancy"] <= 0.20


def test_cli_builtin_scheme_unknown_name(tmp_path):
    assert cli.main(["simulate", "--config", "builtin:nope", "--out", str(tmp_path / "x")]) == 2


def test_cli_auto_takes_the_grid_for_atoms_off_every_lattice(tmp_path):
    # +-sqrt(1/2) is within 1e-12 of p/941664 but 1e-6 off (1/941664)Z, where
    # the DP would round its moves: no lattice is declared, and auto runs the grid
    out = tmp_path / "sqrt"
    atoms = "environment.atoms=[[-0.7071067811865476,0.5],[0.7071067811865476,0.5]]"
    args = ["--config", "builtin:degenerate-rademacher", "--set", "estimator.method=auto", "--set", atoms]
    assert cli.main(["simulate", *args, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "simulate.csv").open()))
    assert len(rows) == 5 and {row["method"] for row in rows} == {"grid"}


def test_cli_simulate_start_sweep(tmp_path):
    raw = {
        **SMALL,
        "tube": {**SMALL["tube"], "n_list": [64], "start_window": [-0.5, 0.5], "sweep_starts": True},
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "sweep"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert len(lines) == 12  # header + 11 start points


def test_theorem_check_with_mc_estimators(tmp_path):
    import tubewalk as tw

    tpl = tw.TubeTemplate(g=-1.5, h=1.5, alpha=0.3)
    spec = tw.EnvironmentSpec.rademacher()
    naive = tw.theorem_check(
        spec, tpl, [32, 64, 128], estimator="naive",
        estimator_params={"replicas": 20_000}, gamma_source="reference", seed=4, tolerance=2.0,
    )
    split = tw.theorem_check(
        spec, tpl, [32, 64, 128], estimator="splitting",
        estimator_params={"particles": 5_000, "checkpoints": 4},
        gamma_source="reference", seed=4, tolerance=2.0,
    )
    for rep in (naive, split):
        assert rep.fit.slope < 0
        assert all(p.estimate.stderr_log is not None for p in rep.points)


def test_simulate_and_fit_agree_on_points(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "agree"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
    sim = (out / "simulate.csv").read_text().splitlines()[1:]
    fit = (out / "fit_points.csv").read_text().splitlines()[1:]
    sim_logp = [row.split(",")[7] for row in sim]
    fit_logp = [row.split(",")[2] for row in fit]
    assert sim_logp == fit_logp


def test_cli_shared_environment_mode(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "sh"
    assert (
        cli.main(
            ["simulate", "--config", cfg, "--out", str(out), "--set", "environment.shared=true",
             "--set", "environment.family=random_shift_bernoulli", "--set", "environment.d=0.5"]
        )
        == 0
    )
    rows = (out / "simulate.csv").read_text().splitlines()[1:]
    assert len(rows) == 3


def test_cli_dump_path(tmp_path):
    raw = {**SMALL, "output": {"dir": "out", "dump_path": True}}
    cfg = _write(tmp_path, raw)
    out = tmp_path / "dp"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "i,s,m,u,gamma"
    assert len(lines) == 64 + 2


def test_cli_dump_path_in_the_shared_environment(tmp_path):
    # the path is drawn in the realization the estimates used
    raw = {
        **SMALL,
        "environment": {"family": "random_shift_bernoulli", "d": 0.5, "lattice_q": 2, "shared": True},
        "output": {"dir": "out", "dump_path": True},
    }
    out = tmp_path / "sh"
    assert cli.main(["simulate", "--config", _write(tmp_path, raw), "--out", str(out)]) == 0
    cfg = validate(raw)
    n, n_max = cfg.n_list[0], cfg.n_list[-1]
    shared = sample_environment(
        cfg.env_spec, cfg.template.f_offset(n_max) + n_max, derive_seed(cfg.seed, 11)
    )
    start = cfg.template.f_offset(n)
    with open(out / "path.csv", encoding="utf-8") as fh:
        m = [float(row["m"]) for row in csv.DictReader(fh)]
    assert m[0] == 0.0
    assert np.array_equal(m[1:], np.cumsum(shared.quenched_mean[start : start + n]))


@pytest.mark.parametrize("command", ["simulate", "fit", "report"])
def test_cli_estimates_each_n_once(tmp_path, monkeypatch, command):
    import tubewalk.rate as rate

    estimated, sampled = [], []
    real_dp, real_env = rate.survival_dp_lattice, rate.sample_environment

    def dp(env, tube, *args, **kwargs):
        estimated.append(tube.n)
        return real_dp(env, tube, *args, **kwargs)

    def env(*args, **kwargs):
        sampled.append(args)
        return real_env(*args, **kwargs)

    monkeypatch.setattr(rate, "survival_dp_lattice", dp)
    monkeypatch.setattr(rate, "sample_environment", env)
    raw = {
        **SMALL,
        "environment": {"family": "random_shift_bernoulli", "d": 0.5, "lattice_q": 2},
        "estimator": {"method": "dp", "tolerance": 10.0},
        "gamma": {**SMALL["gamma"], "beta": [0.5]},
    }
    assert cli.main([command, "--config", _write(tmp_path, raw), "--out", str(tmp_path / "o")]) == 0
    assert sorted(estimated) == [64, 128, 256]
    assert len(sampled) == 3


def test_report_start_sweep_estimates_each_start_once(tmp_path, monkeypatch):
    # 11 sweep starts per n, the middle one the fit's: report's fit is the
    # fit command's, without a second run of the ladder
    import tubewalk.rate as rate

    estimated = []
    real_dp = rate.survival_dp_lattice

    def dp(env, tube, *args, **kwargs):
        estimated.append(tube.n)
        return real_dp(env, tube, *args, **kwargs)

    monkeypatch.setattr(rate, "survival_dp_lattice", dp)
    raw = {
        **SMALL,
        "environment": {"family": "random_shift_bernoulli", "d": 0.5, "lattice_q": 2},
        "tube": {**SMALL["tube"], "start_window": [-0.31, 0.77], "sweep_starts": True},
        "estimator": {"method": "dp", "tolerance": 10.0},
        "gamma": {**SMALL["gamma"], "beta": [0.5]},
    }
    cfg = _write(tmp_path, raw)
    assert cli.main(["report", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert sorted(estimated) == [64] * 11 + [128] * 11 + [256] * 11
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "f")]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    fit = json.loads((tmp_path / "f" / "fit.json").read_text())
    assert report["fit"] == fit["check"]
    assert len(report["simulate"]["rows"]) == 33
