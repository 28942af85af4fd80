"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green run as well.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import linregress

import tubewalk as tw
import tubewalk.cli as cli

PI2_2 = math.pi**2 / 2
PI2_8 = math.pi**2 / 8


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_gamma_zero_recovery():
    t0 = time.perf_counter()
    est = tw.estimate_gamma(0.0, horizon_t=8.0, dt=1e-3, grid_points=400, env_replicas=8, seed=11)
    elapsed = time.perf_counter() - t0
    rel = abs(est.gamma_hat - PI2_2) / PI2_2
    ok = rel <= 0.05 and elapsed <= 120.0
    _line(
        1,
        "gamma(0) recovery",
        ok,
        f"gamma_hat={est.gamma_hat:.5f}, target {PI2_2:.5f}, rel err {rel:.2%}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_brownian_tube_rate():
    # width-2 tube rescaled onto the unit tube: time shrinks by 4, so the
    # per-unit-time rate is a quarter of the unit-tube slope
    dt = 1e-3
    t_z = [4.0, 6.0, 8.0]
    ps = [tw.quenched_bm_confinement(np.zeros(int(t / 4 / dt)), 0.0, dt, 400) for t in t_z]
    slope_unit = np.polyfit([t / 4 for t in t_z], -np.log(ps), 1)[0]
    rate_width2 = slope_unit / 4.0
    rel = abs(rate_width2 - PI2_8) / PI2_8
    ok = rel <= 0.05
    _line(2, "Brownian width-2 tube rate", ok, f"rate={rate_width2:.5f}, target {PI2_8:.5f}, rel err {rel:.2%}")
    assert ok


def test_criterion_3_gamma_monotone(gamma_estimates):
    g0, g5, g1 = (gamma_estimates[b] for b in (0.0, 0.5, 1.0))
    increasing = g0.gamma_hat < g5.gamma_hat < g1.gamma_hat
    separated = g0.ci95[1] < g5.ci95[0] and g5.ci95[1] < g1.ci95[0]
    half5 = (g5.ci95[1] - g5.ci95[0]) / 2
    half01 = (g0.ci95[1] - g0.ci95[0]) / 2 + (g1.ci95[1] - g1.ci95[0]) / 2
    convex_soft = g5.gamma_hat <= (g0.gamma_hat + g1.gamma_hat) / 2 + half5 + half01 / 2
    ok = increasing and separated
    _line(
        3,
        "gamma monotonicity",
        ok,
        f"gamma=({g0.gamma_hat:.3f}, {g5.gamma_hat:.3f}, {g1.gamma_hat:.3f}), "
        f"CIs disjoint={separated}, convexity soft flag={'ok' if convex_soft else 'VIOLATED'}",
    )
    assert ok


def test_criterion_4_classical_slope():
    t0 = time.perf_counter()
    g, h = -1.0, 1.0
    template = tw.TubeTemplate(g=g, h=h, alpha=0.3)
    rep = tw.theorem_check(
        tw.EnvironmentSpec.rademacher(),
        template,
        [200, 400, 800, 1600, 3200],
        estimator="dp",
        gamma_source="reference",
        seed=44,
        tolerance=0.20,
    )
    elapsed = time.perf_counter() - t0
    slope = rep.fit.slope
    rel = abs(slope - (-PI2_8)) / PI2_8
    slope_ok = rel <= 0.20 and elapsed <= 300.0
    # Linearity is checked on the tube width the +-1 walk actually has.  The
    # tube [g n^a, h n^a] holds N_n whole lattice sites, so at finite n the
    # walk decays like a walk killed outside N_n sites, a tube of lattice
    # width w_n = N_n + 1 (Mogulskii 1974), not (h - g) n^a.  On the abscissa
    # x_n = n (h - g)^2 / w_n^2, which is n^(1-2a) in the continuum, the exact
    # DP values are linear; on n^(1-2a) itself the integer jumps of N_n
    # (9, 13, 15, 19, 23 sites) bend the fit to r2 = 0.9797 for every correct
    # program.  The killed walk on N sites loses ln cos(pi/(N+1)) per step, so
    # log_p - n ln cos(pi/w_n) must be flat in n: that pins w_n to the walk.
    sites, x_lattice, offsets = [], [], []
    for point in rep.points:
        lo, up = template.make(point.n).bounds_arrays()
        n_sites = math.floor(up.min() - point.x0) - math.ceil(lo.max() - point.x0) + 1
        width = n_sites + 1
        sites.append(n_sites)
        x_lattice.append(point.n * (h - g) ** 2 / width**2)
        offsets.append(point.estimate.log_p - point.n * math.log(math.cos(math.pi / width)))
    lattice = linregress(x_lattice, [p.estimate.log_p for p in rep.points])
    r2_lattice = lattice.rvalue**2
    spread = max(offsets) - min(offsets)
    r2_ok = r2_lattice >= 0.999
    spectral_ok = spread < 0.05
    _line(
        4,
        "classical small-deviation slope",
        slope_ok and r2_ok and spectral_ok,
        f"slope={slope:.4f} vs {-PI2_8:.4f} (rel err {rel:.2%}, tol 20%), "
        f"raw r2={rep.fit.r_squared:.5f}; lattice sites N_n={sites}, "
        f"lattice r2={r2_lattice:.6f} (required 0.999), lattice slope={lattice.slope:.4f}, "
        f"spectral offset spread={spread:.3f} (required < 0.05), {elapsed:.1f}s",
    )
    assert slope_ok
    assert r2_ok, f"lattice-width r2={r2_lattice:.6f} < 0.999 (raw r2={rep.fit.r_squared:.5f}, N_n={sites})"
    assert spectral_ok, f"log_p - n ln cos(pi/(N_n+1)) spreads by {spread:.3f} over n (N_n={sites})"


def test_criterion_5_environment_effect(degenerate_report, rsb_report, gamma_estimates):
    harder = abs(rsb_report.fit.slope) > abs(degenerate_report.fit.slope)
    predicted = -0.25 * 1.0 * gamma_estimates[0.5].gamma_hat
    rel = abs(rsb_report.fit.slope - predicted) / abs(predicted)
    ok = harder and rel <= 0.25
    _line(
        5,
        "environment effect sign",
        ok,
        f"|slope|={abs(rsb_report.fit.slope):.4f} > degenerate {abs(degenerate_report.fit.slope):.4f}: "
        f"{harder}; vs C*gamma(0.5)={predicted:.4f} rel err {rel:.2%} (tol 25%)",
    )
    assert ok


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            spec = tw.EnvironmentSpec.rademacher()
        elif kind == 1:
            spec = tw.EnvironmentSpec.random_shift_bernoulli(float(rng.choice([0.25, 0.5, 1.0])))
        else:
            spec = tw.EnvironmentSpec.degenerate([(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
        n = int(rng.integers(1, 13))
        f = int(rng.integers(0, 4))
        tube = tw.TubeSpec(
            g=float(rng.uniform(-2.5, -0.8)),
            h=float(rng.uniform(0.8, 2.5)),
            alpha=float(rng.uniform(0.05, 0.45)),
            n=n,
            f_offset=f,
            end_window=(-0.7, 0.7) if trial % 5 == 0 else None,
            xi_threshold=1.5 if trial % 7 == 0 else None,
        )
        env = tw.sample_environment(spec, f + n, int(rng.integers(0, 2**63)))
        dp = tw.survival_dp_lattice(env, tube, 0.0)
        bf = tw.survival_brute_force(env, tube, 0.0)
        worst = max(worst, abs(dp.p - bf.p))
    ok = worst <= 1e-10
    _line(6, "oracle equivalence", ok, f"100 instances, worst |dp - enumeration| = {worst:.2e}")
    assert ok


def test_criterion_7_estimator_cross_validation():
    # rare event: splitting vs DP
    spec = tw.EnvironmentSpec.rademacher()
    env = tw.sample_environment(spec, 131, seed=5)
    tube = tw.TubeSpec(g=-0.6, h=0.6, alpha=0.3, n=120, f_offset=10)
    dp = tw.survival_dp_lattice(env, tube, 0.0)
    assert 1e-9 <= dp.p <= 1e-6
    sp = tw.survival_splitting(env, tube, 0.0, particles=10_000, checkpoints=20, seed=707)
    rel = abs(sp.log_p - dp.log_p) / abs(dp.log_p)
    split_ok = rel <= 0.10

    # moderate event: naive MC mean over 200 seeds vs DP
    env2 = tw.sample_environment(spec, 3, seed=1)
    bnd = (1 + 1e-9) / 2**0.25
    tube2 = tw.TubeSpec(g=-bnd, h=bnd, alpha=0.25, n=2)
    dp2 = tw.survival_dp_lattice(env2, tube2, 0.0)
    replicas, seeds = 2000, 200
    phats = [tw.survival_naive_mc(env2, tube2, 0.0, replicas, seed=s).p for s in range(seeds)]
    se = math.sqrt(dp2.p * (1 - dp2.p) / (replicas * seeds))
    dev = abs(float(np.mean(phats)) - dp2.p)
    naive_ok = dev <= 4 * se
    ok = split_ok and naive_ok
    _line(
        7,
        "estimator cross-validation",
        ok,
        f"splitting log_p={sp.log_p:.3f} vs DP {dp.log_p:.3f} (rel {rel:.2%}, tol 10%); "
        f"naive mean dev {dev:.2e} <= 4se={4 * se:.2e}",
    )
    assert ok


def test_criterion_8_quadrature():
    exact = True
    for a, b in ((-1.0, 1.0), (-2.0, 1.0), (-0.3, 0.7)):
        tube = tw.TubeSpec(g=a, h=b, alpha=0.3, n=10)
        exact &= abs(tw.c_gh(tube) - 1.0 / (b - a) ** 2) <= 1e-12
    sloped = tw.TubeSpec(g=0.0, h=((0, 1.0), (1, 2.0)), alpha=0.3, n=10)
    val = tw.c_gh(sloped, 1024)
    sloped_ok = abs(val - 0.5) <= 1e-8
    richardson = abs(tw.c_gh(sloped, 1024) - tw.c_gh(sloped, 2048))
    rich_ok = richardson < 1e-8
    ok = exact and sloped_ok and rich_ok
    _line(
        8,
        "quadrature",
        ok,
        f"constant tubes exact={exact}; c(0,1+s)={val:.10f}; Richardson delta={richardson:.2e}",
    )
    assert ok


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# a Gaussian grid and gamma on 400 points both take the band step, whose dense
# cut operator (2K = 116 rows at dt = 1e-3) is large enough that a matrix
# product building it would be split over the BLAS threads
_THREADS_CONFIG = {
    "seed": 909,
    "environment": {"family": "random_mean_gaussian", "sigma_a": 0.5, "tau": 1.0},
    "tube": {"alpha": 0.3, "n_list": [64, 128, 256], "g": -1.0, "h": 1.0},
    "estimator": {"method": "grid", "grid_points": 400, "tolerance": 2.0},
    "gamma": {"beta": [0.0, 0.5], "t": 2.0, "dt": 0.001, "grid_points": 400, "replicas": 8},
    "output": {"dir": "out"},
}


@pytest.mark.skipif(_CPUS < 2, reason="needs 2 CPUs to run a BLAS on 2 threads")
def test_criterion_9_determinism(tmp_path):
    # each command runs in a fresh process, as the BLAS and OpenMP pools read
    # their thread counts once, at load
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_THREADS_CONFIG))
    src = str(Path(cli.__file__).resolve().parents[1])
    blobs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = tmp_path / threads
        for sub in ("simulate", "gamma", "fit"):
            run = subprocess.run(
                [sys.executable, "-m", "tubewalk.cli", sub, "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert run.returncode == 0, run.stderr
        blobs[threads] = tuple(
            (out / name).read_bytes() for name in ("simulate.csv", "gamma.csv", "fit_points.csv", "fit.json")
        )
    ok = blobs["1"] == blobs["2"]
    _line(9, "determinism", ok, "simulate/gamma/fit outputs byte-identical on 1 and 2 BLAS threads")
    assert ok
