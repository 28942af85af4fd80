"""The per-n survival ladder, empirical decay constants and the end-to-end
rate comparison.

``run_points`` is the one per-n runner: for each n it builds the tube,
picks the environment (``task_environment``) and the estimator seed, and
estimates survival from the default start, a given one or a start sweep.
``decay_fit`` regresses log survival probabilities against n^(1-2 alpha);
``theorem_check`` runs the full pipeline for one environment family and
tube shape: per-n quenched probabilities from ``run_points`` (or handed
in), the OLS slope, the predicted rate -C_{g,h} sigma_q^2
gamma(sigma_a/sigma_q), and their relative discrepancy against a
configured tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from . import gamma as gamma_mod
from .env import EnvironmentSpec, moments, sample_environment
from .mc import survival_naive_mc, survival_splitting
from .parallel import thread_map
from .quench_dp import survival_brute_force, survival_dp_lattice, survival_grid
from .results import Record, SurvivalEstimate
from .rng import derive_seed
from .tube import TubeTemplate, predicted_rate

ESTIMATORS = ("auto", "dp", "grid", "naive", "splitting", "brute")


class RateFit(Record):
    """OLS fit of log_p against n^(1-2 alpha)."""

    points: tuple[tuple[int, float], ...]
    alpha: float
    slope: float
    intercept: float
    r_squared: float
    slope_ci95: tuple[float, float]


def decay_fit(points, alpha: float) -> RateFit:
    """Least-squares decay constant from (n, log_p) pairs.

    Needs at least 3 points with distinct n and finite log_p; the slope
    interval comes from the residual variance (t-based, 95%).
    """
    pts = tuple((int(n), float(lp)) for n, lp in points)
    if len(pts) < 3:
        raise ValueError("decay_fit needs at least 3 points")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(ns):
        raise ValueError("decay_fit needs distinct n values")
    if not all(math.isfinite(lp) for _, lp in pts):
        raise ValueError("decay_fit needs finite log_p values")

    x = np.array([float(n) ** (1.0 - 2.0 * alpha) for n in ns])
    y = np.array([lp for _, lp in pts])
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (slope * x + intercept)
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if sst == 0.0 else min(1.0, max(0.0, 1.0 - ssr / sst))
    dof = len(pts) - 2
    se = math.sqrt(ssr / dof / sxx)
    half = gamma_mod.t_quantile(dof, 0.975) * se
    return RateFit(
        points=pts,
        alpha=alpha,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        slope_ci95=(slope - half, slope + half),
    )


class RunPoint(Record):
    """One survival estimate of the n ladder: tube n, its offset and the start."""

    n: int
    f_offset: int
    x0: float
    estimate: SurvivalEstimate


def task_environment(env_spec: EnvironmentSpec, tube_template: TubeTemplate, n_list, idx: int,
                     env_seed: int, shared_env: bool):
    """The environment task ``idx`` of `run_points` runs in: with ``shared_env``
    one realization for the largest n, seeded ``derive_seed(env_seed, 11)``, for
    every task; otherwise the task's own, seeded ``derive_seed(env_seed, 11, idx)``."""
    n = max(n_list) if shared_env else n_list[idx]
    key = (11,) if shared_env else (11, idx)
    return sample_environment(env_spec, tube_template.f_offset(n) + n, derive_seed(env_seed, *key))


def run_points(env_spec: EnvironmentSpec, tube_template: TubeTemplate, n_list, run, *, seed: int = 0,
               env_seed: int | None = None, shared_env: bool = False, x0: float | None = None,
               sweep_starts: bool = False) -> list[RunPoint]:
    """Survival estimates over the n ladder, in n_list order: the one per-n loop.

    Task ``idx`` builds the tube for ``n_list[idx]``, takes its environment
    from `task_environment` (``env_seed`` defaults to ``seed``) and calls
    ``run(env, tube, x0, seed=derive_seed(seed, 13, idx))`` at each start of
    `TubeSpec.run_starts`: ``x0`` (the tube's default start when None) or,
    with ``sweep_starts``, the start sweep's points, which give as many
    points for the n.  The tasks run in order, through the plain map
    `thread_map`.
    """
    n_list = [int(n) for n in n_list]
    env_seed = seed if env_seed is None else env_seed
    shared = task_environment(env_spec, tube_template, n_list, 0, env_seed, True) if shared_env else None

    def one(idx) -> list[RunPoint]:
        n = n_list[idx]
        tube = tube_template.make(n)
        env = shared if shared_env else task_environment(env_spec, tube_template, n_list, idx, env_seed, False)
        est_seed = derive_seed(seed, 13, idx)
        return [RunPoint(n=n, f_offset=tube.f_offset, x0=x, estimate=run(env, tube, x, seed=est_seed))
                for x in tube.run_starts(x0, sweep_starts)]

    return [p for points in thread_map(one, range(len(n_list))) for p in points]


class CheckReport(Record):
    """Comparison of the fitted decay constant with the predicted rate."""

    env_family: str
    sigma_a_sq: float
    sigma_q_sq: float
    beta: float
    gamma_value: float
    gamma_source: str
    points: tuple[RunPoint, ...]
    fit: RateFit
    predicted: float
    discrepancy: float
    tolerance: float
    passed: bool
    seed: int
    flags: tuple[str, ...] = ()


def resolve_method(method: str, law) -> str:
    """The estimator `method` runs on the law of `law` (a realisation or its spec):
    ``auto`` is the exact DP on a lattice law and the grid otherwise."""
    if method != "auto":
        return method
    return "dp" if law.lattice_q is not None else "grid"


def make_estimator(method: str = "auto", *, replicas: int = 100_000, particles: int = 10_000,
                   checkpoints: int = 20, grid_points: int = 400, **unknown):
    """Estimator closure (env, tube, x0, seed) -> SurvivalEstimate.

    ``auto`` picks the exact DP for lattice environments and grid
    propagation otherwise (`resolve_method`).  Monte Carlo methods take their effort from
    ``replicas`` (naive), ``particles`` and ``checkpoints`` (splitting);
    the grid takes ``grid_points``.  These defaults are the config's
    (`config.validate` reads them from this signature).
    """
    if method not in ESTIMATORS:
        raise ValueError(f"unknown estimator {method!r}; expected one of {ESTIMATORS}")
    if unknown:
        raise ValueError(f"unknown estimator parameters: {sorted(unknown)}")
    replicas, particles, checkpoints, grid_points = map(int, (replicas, particles, checkpoints, grid_points))

    def run(env, tube, x0, seed=0):
        kind = resolve_method(method, env)
        if kind == "dp":
            return survival_dp_lattice(env, tube, x0)
        if kind == "grid":
            return survival_grid(env, tube, x0, grid_points=grid_points)
        if kind == "brute":
            return survival_brute_force(env, tube, x0)
        if kind == "naive":
            return survival_naive_mc(env, tube, x0, replicas, seed)
        return survival_splitting(env, tube, x0, particles, checkpoints, seed)

    return run


def _resolve_gamma(gamma_source, beta: float, gamma_params: dict | None, seed: int):
    """Gamma value for the prediction, as (value, description, flags)."""
    flags = []
    if isinstance(gamma_source, gamma_mod.GammaEstimate):
        est = gamma_source
        if abs(est.beta - beta) > 1e-12:
            raise ValueError(
                f"gamma estimate is for beta={est.beta:g}, but the environment has beta={beta:g}"
            )
        return est.gamma_hat, f"estimate(beta={est.beta:g}, replicas={est.env_replicas})", flags
    if isinstance(gamma_source, (int, float)):
        return float(gamma_source), "fixed", flags
    if gamma_source == "auto":
        gamma_source = "reference" if beta == 0.0 else "estimate"
    if gamma_source == "reference":
        if beta > 1e-9:
            flags.append("reference_gamma_with_nonzero_beta")
        return gamma_mod.GAMMA_ZERO, "reference gamma(0)", flags
    if gamma_source == "estimate":
        est = gamma_mod.estimate_gamma(beta, seed=derive_seed(seed, 71), **(gamma_params or {}))
        return est.gamma_hat, f"estimate(beta={beta:g}, replicas={est.env_replicas})", flags
    raise ValueError(f"unknown gamma_source {gamma_source!r}")


def theorem_check(
    env_spec: EnvironmentSpec,
    tube_template: TubeTemplate,
    n_list,
    *,
    estimator="auto",
    estimator_params: dict | None = None,
    gamma_source="auto",
    gamma_params: dict | None = None,
    seed: int = 0,
    tolerance: float = 0.20,
    shared_env: bool = False,
    env_seed: int | None = None,
    x0: float | None = None,
    points=None,
) -> CheckReport:
    """Fit the per-n decay of quenched survival and compare to the prediction.

    The points come from `run_points` over the sorted, distinct n: one fresh
    environment realization per n (the limit statement holds for almost
    every environment sequence; fresh seeds decorrelate the fit residuals),
    or with ``shared_env`` a single long realization for all n.  ``points``
    hands in points already run that way, one per n of ``n_list``; the
    estimator, environment and start arguments are then unused.  The
    predicted rate uses the template's width functional and gamma at
    beta = sigma_a/sigma_q.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if len(n_list) < 3:
        raise ValueError("theorem_check needs at least 3 distinct n values")
    sa2, sq2 = moments(env_spec)
    beta = math.sqrt(sa2 / sq2)
    gamma_value, gamma_desc, flags = _resolve_gamma(gamma_source, beta, gamma_params, seed)
    if points is None:
        run = estimator if callable(estimator) else make_estimator(estimator, **(estimator_params or {}))
        points = run_points(env_spec, tube_template, n_list, run, seed=seed, env_seed=env_seed,
                            shared_env=shared_env, x0=x0)
    fit = decay_fit([(p.n, p.estimate.log_p) for p in points], tube_template.alpha)
    predicted = predicted_rate(tube_template.make(n_list[0]), sa2, sq2, gamma_value)
    discrepancy = abs(fit.slope - predicted) / abs(predicted)
    return CheckReport(
        env_family=env_spec.family,
        sigma_a_sq=sa2,
        sigma_q_sq=sq2,
        beta=beta,
        gamma_value=gamma_value,
        gamma_source=gamma_desc,
        points=tuple(points),
        fit=fit,
        predicted=predicted,
        discrepancy=discrepancy,
        tolerance=tolerance,
        passed=bool(discrepancy <= tolerance),
        seed=seed,
        flags=tuple(flags),
    )
