"""Confinement rate of a Brownian motion in a unit-width tube with a
Brownian-driven centre.

The rate gamma(beta) is the large-time decay rate, per unit time and
conditionally on the centre path W, of the probability that B_s stays
within 1/2 of beta*W_s.  It is estimated by propagating the sub-density
of Y_s = B_s - beta*W_s on a static grid: given W, the Y-steps are
independent Gaussians with mean -beta*dW_k and variance dt, so no 2-D
scheme is needed.

A replica is the Gaussian grid pass of `quench_dp` on the constant tube
[-half, half] with step means -beta*dW: a row of the band pass
`propagate._band_pass`, and all W replicas of a batch are the rows of one
layout (`_layout`).  The band K depends on dt, not on grid_points: about
1.4/sqrt(dt) + 11 (58 of 271 modes at dt = 1e-3 and 400 points).
`estimate_gamma` propagates at most _REPLICA_BATCH replicas per batch, so
memory stays bounded whatever the replica count (`batch_sizes` sizes a
batch, and `config.validate` caps it); at beta = 0 every replica is the
same and one is propagated.  The Student-t quantile of the
confidence intervals is computed here too (`t_quantile`), so no scipy
import remains.

Two systematic errors are handled explicitly:

* time discretisation: monitoring only at grid times misses excursions
  between them, which biases the rate low by O(sqrt(dt)).  The standard
  continuity correction (shift each absorbing barrier inward by
  0.5826 sigma sqrt(dt), the Riemann-zeta overshoot constant) removes the
  leading term and is applied by default;
* the additive entry/exit cost: the limit is a slope in t, so the
  estimator fits -ln P against t over several sub-horizons instead of
  dividing a single -ln P by t.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .propagate import _FLOAT_BYTES, MEMORY_BUDGET, _BandRows, _band_pass, _bin_masses, _kernel_layout, _run_bytes
from .results import Record
from .rng import STREAM_GAMMA_W, substream

GAMMA_ZERO = math.pi**2 / 2

# -zeta(1/2)/sqrt(2*pi): mean overshoot of a Gaussian random walk, the
# barrier-shift constant for discretely monitored diffusions.
BARRIER_SHIFT = 0.5825971579390107

# W replicas per batch: with `propagate._FFT_BLOCK_ENTRIES` they bound the
# memory of a run.
_REPLICA_BATCH = 64


def bm_tube_rate(sigma: float, width: float) -> float:
    """Decay rate of P(|Z_s| <= width/2 for s <= t) for variance-sigma^2 BM."""
    if sigma <= 0 or width <= 0:
        raise ValueError("sigma and width must be > 0")
    return math.pi**2 * sigma**2 / (2.0 * width**2)


def t_quantile(dof: int, prob: float) -> float:
    """Student-t quantile at an integer number of degrees of freedom and
    prob >= 1/2.

    Newton's method, from t = 0, on the closed-form two-sided CDF
    A(t) = P(|T| <= t) (Abramowitz & Stegun 26.7.3 for odd dof, 26.7.4 for
    even), whose derivative is twice the t density.  The CDF is concave for
    t > 0, so the iterates rise monotonically to the root.  The sums run
    over powers of cos^2(theta) = 1/(1 + t^2/dof); each power is taken as
    exp(k * -log1p(t^2/dof)) rather than by repeated products of a rounded
    cos^2, which would shift the quantile by about 1e-16 * dof / t^2
    relative at large dof.  Agrees with scipy's ``stdtrit`` to about 1e-14
    relative for dof up to 20000; scipy is not imported.
    """
    log_scale = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(math.pi * dof)

    def two_sided(t: float) -> float:
        ratio = t * t / dof  # tan^2(theta)
        log_cos2 = -math.log1p(ratio)
        coef, terms = 1.0, []
        for k in range((dof - 1) // 2 if dof % 2 else dof // 2):
            terms.append(coef * math.exp(k * log_cos2))
            coef *= (2 * k + 2) / (2 * k + 3) if dof % 2 else (2 * k + 1) / (2 * k + 2)
        if dof % 2:  # (2/pi) * (theta + sin(theta) cos(theta) * sum)
            theta = math.atan(t / math.sqrt(dof))
            return (2.0 / math.pi) * (theta + math.sqrt(ratio) / (1.0 + ratio) * math.fsum(terms))
        return math.sqrt(ratio / (1.0 + ratio)) * math.fsum(terms)  # sin(theta) * sum

    target, t = 2.0 * prob - 1.0, 0.0
    for _ in range(200):
        density = math.exp(log_scale - 0.5 * (dof + 1) * math.log1p(t * t / dof))
        step = (target - two_sided(t)) / (2.0 * density)
        t += step
        if step <= 1e-12 * t:  # quadratic convergence: the error left is far below round-off
            break
    return t


def _layout(dt: float, grid_points: int, barrier_correction: bool = True, max_drift: float = 0.0):
    """Tube half-width, grid spacing dx, padded row length n and band K of a
    run whose drifts stay within `max_drift` (`_kernel_layout`); ValueError
    for a dt whose barrier correction leaves no tube."""
    sd = math.sqrt(dt)
    half = 0.5 - (BARRIER_SHIFT * sd if barrier_correction else 0.0)
    if half <= 0:
        raise ValueError(f"dt must be < {(0.5 / BARRIER_SHIFT) ** 2:.6g} (the barrier correction 0.5826 sqrt(dt) "
                         f"must stay inside the tube half-width 1/2), got {dt}")
    dx = (2.0 * half / grid_points - half) + half  # the spacing np.linspace(-half, half, .) gives
    _, n, band = _kernel_layout(sd, max_drift, dx, grid_points)
    return half, dx, n, band


def batch_sizes(steps, dt: float, grid_points: int, env_replicas: int, beta: float) -> list:
    """What `estimate_gamma` holds for one batch of replicas at drift `beta`
    over `steps` steps of `dt`, as (count, bytes a unit, unit, where): the
    batch's W increments; its padded rows, at least grid_points entries a
    replica, padded for drifts beta * dW up to the kernel's own reach
    |dW| <= 8 sqrt(dt); and, while the rows fit the budget, what the band
    pass holds besides them (`propagate._run_bytes` of `_layout`, which
    raises its ValueError for a dt past the barrier correction).  Past the
    budget the layout is not sized: it may not fit a float.  Scalar
    arithmetic only.
    """
    batch = min(env_replicas, _REPLICA_BATCH)
    row_bytes, drift = _FLOAT_BYTES * batch, beta * 8.0 * math.sqrt(dt)
    row = grid_points if grid_points > MEMORY_BUDGET // row_bytes else grid_points * (1.0 + drift)
    sizes = [(steps, row_bytes, "step", f" of W increments, {batch} replicas at a time"),
             (row, row_bytes, "column", f" of {batch} padded rows")]
    if row <= MEMORY_BUDGET // row_bytes:
        n, band = _layout(dt, grid_points, max_drift=drift)[2:]
        where = f" for {batch} replicas at once (the band's cut operator, the padded rows, a block of step kernels)"
        sizes.append((_run_bytes(grid_points, n, band, batch) // _FLOAT_BYTES, _FLOAT_BYTES, "float", where))
    return sizes


def _confinement_profiles(
    drifts: np.ndarray,
    dt: float,
    grid_points: int,
    y0: float,
    barrier_correction: bool,
    checkpoints: tuple[int, ...],
) -> np.ndarray:
    """Survival probabilities, shape (replicas, len(checkpoints)), for step
    means `drifts` (-beta * dW) of shape (replicas, steps); checkpoints are
    step indices.

    This is the Gaussian grid pass of `quench_dp` on the constant tube
    [-half, half]: the first step's bin masses, then `propagate._band_pass`
    on every grid node, one row per replica, read at the checkpoints.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if grid_points < 50:
        raise ValueError("grid_points must be >= 50")
    drifts = np.asarray(drifts, dtype=float)
    replicas, steps = drifts.shape
    if steps < 1 or max(checkpoints) > steps:
        raise ValueError("checkpoints must lie within the increment horizon")
    dead = np.zeros((replicas, len(checkpoints)))
    if abs(y0) >= 0.5:
        return dead
    sd = math.sqrt(dt)
    max_drift = max(drifts.max(), -drifts.min())
    half, dx, n, band = _layout(dt, grid_points, barrier_correction, max_drift)
    if abs(y0) >= half:
        return dead
    # first step: the point source at y0 moved by the step kernel
    mass = _bin_masses(y0 + drifts[:, 0] - (0.5 * dx - half), sd, dx, n, band, 0, grid_points)
    every = (0, grid_points)
    rows = _BandRows(mass, drifts.T, dx, n, band, every, itertools.repeat(every), every, 0.0)
    return _band_pass([rows], sd, 1, max(checkpoints), checkpoints)[4][0]


def quenched_bm_confinement(
    w_increments,
    beta: float,
    dt: float,
    grid_points: int,
    y0: float = 0.0,
    barrier_correction: bool = True,
) -> float:
    """Probability that B_s - beta*W_s stays in [-1/2, 1/2] up to the horizon.

    `w_increments` are the increments of the centre path W on the dt-grid;
    the horizon is len(w_increments)*dt.  Deterministic given its inputs.
    With ``barrier_correction`` the discrete scheme targets the
    continuous-time event; switch it off to get the raw grid-time event.
    """
    drifts = -beta * np.asarray(w_increments, dtype=float)[None, :]
    probs = _confinement_profiles(drifts, dt, grid_points, y0, barrier_correction, (drifts.shape[1],))
    return float(probs[0, 0])


class GammaEstimate(Record):
    """Point estimate of the confinement rate at one beta."""

    beta: float
    horizon_t: float
    dt: float
    grid_points: int
    env_replicas: int
    gamma_hat: float
    ci95: tuple[float, float]
    per_replica_values: tuple[float, ...]

    def __post_init__(self):
        if self.gamma_hat <= 0:
            raise ValueError("gamma_hat must be > 0")
        if abs(self.gamma_hat - float(np.mean(self.per_replica_values))) > 1e-9 * max(
            1.0, abs(self.gamma_hat)
        ):
            raise ValueError("gamma_hat must be the mean of the per-replica values")


def estimate_gamma(
    beta: float,
    horizon_t: float = 8.0,
    dt: float = 1e-3,
    grid_points: int = 400,
    env_replicas: int = 8,
    seed: int = 0,
    barrier_correction: bool = True,
) -> GammaEstimate:
    """Estimate gamma(beta) by averaging per-replica slope fits over W paths.

    Each replica samples one W path, propagates the confinement probability
    once, reads it at the sub-horizons {t/2, 3t/4, t}, and fits
    -ln P = gamma*t + const; the additive constant absorbs the entry/exit
    boundary cost.  The 95% interval is the t-interval over replicas.
    """
    if env_replicas < 8:
        raise ValueError("env_replicas must be >= 8")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    steps = int(round(horizon_t / dt))
    if steps < 4:
        raise ValueError("horizon_t/dt must be at least 4 steps")
    cps = (steps // 2, (3 * steps) // 4, steps)
    ts = np.array(cps) * dt

    sd = math.sqrt(dt)
    # at beta = 0 the drift -beta*dW is 0 and every replica is the same
    distinct = env_replicas if beta > 0 else 1
    slopes = []
    for lo in range(0, distinct, _REPLICA_BATCH):
        batch = range(lo, min(lo + _REPLICA_BATCH, distinct))
        drifts = np.empty((len(batch), steps))
        for row, r in enumerate(batch):
            drifts[row] = substream(seed, STREAM_GAMMA_W, r).normal(0.0, sd, steps)
        drifts *= -beta
        probs = _confinement_profiles(drifts, dt, grid_points, 0.0, barrier_correction, cps)
        if probs.min() <= 0.0:
            raise RuntimeError(
                "confinement probability vanished on a replica; "
                "increase grid_points or shorten dt / the horizon"
            )
        slopes.extend(float(v) for v in np.polyfit(ts, -np.log(probs.T), 1)[0])
    slopes *= env_replicas // distinct
    gamma_hat = float(np.mean(slopes))
    spread = float(np.std(slopes, ddof=1))
    half = t_quantile(env_replicas - 1, 0.975) * spread / math.sqrt(env_replicas)
    return GammaEstimate(
        beta=beta,
        horizon_t=horizon_t,
        dt=dt,
        grid_points=grid_points,
        env_replicas=env_replicas,
        gamma_hat=gamma_hat,
        ci95=(gamma_hat - half, gamma_hat + half),
        per_replica_values=tuple(slopes),
    )
