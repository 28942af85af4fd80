"""Monte Carlo estimators of the quenched tube-survival probability.

``survival_splitting`` is fixed-population multilevel splitting along the
time axis: the particle population is advanced block by block, survivors
are resampled back to full size, and the per-block survival fractions
multiply up; it reaches probabilities down to about e^-60 at desk scale.
``survival_naive_mc`` is plain replication, usable when p is not much
smaller than 1/replicas: splitting with one block, whose particles are
the replicas (a particle system without a resampling step).

Particles advance through one row-blocked kernel, `_advance`, and draw
their increments from one counter-derived substream per block, so results
are independent of worker count and batching.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .env import EnvRealization
from .quench_dp import _xi_terms, xi_log_factor
from .results import METHOD_NAIVE_MC, METHOD_SPLITTING, SurvivalEstimate, from_log
from .rng import STREAM_SPLIT, substream
from .tube import TubeSpec
from .walk import draw_increments

XI_MODES = ("analytic", "sampled")

# Bytes of float64 increments per row block in `_advance`: small enough for
# the block and its mask to stay in cache, large enough to amortise the
# per-call overhead.  Blocking does not change results (see `_advance`).
ROW_BYTES = 2**18


def _advance(
    env: EnvRealization,
    start_index: int,
    start: np.ndarray,
    lo: np.ndarray,
    up: np.ndarray,
    rng: np.random.Generator,
    xi_p: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance particles from `start` through len(lo) steps inside [lo, up].

    Returns the per-particle survival mask and the final positions.  Rows
    are processed in blocks of about ROW_BYTES through one workspace,
    allocated once per call, so apart from those two outputs memory does
    not grow with the particle count.  The generator fills arrays in
    row-major order from one stream, so drawing the rows block by block
    consumes the same numbers as one whole-array draw: all increment rows
    first, then (with `xi_p`) all xi rows.
    """
    particles, length = len(start), len(lo)
    rows = max(1, min(particles, ROW_BYTES // (8 * length)))
    ok = np.empty(particles, dtype=bool)
    last = np.empty(particles)
    inc = np.empty((rows, length))
    masks = len(env.atom_w) - 1 if env.kind == "atoms" else 0
    select = np.empty((masks, rows, length), dtype=bool)
    bad = np.empty((rows, length), dtype=bool)
    over = np.empty((rows, length), dtype=bool)
    for r0 in range(0, particles, rows):
        m = min(rows, particles - r0)
        s = draw_increments(env, start_index, length, rng, m, out=inc[:m], select=select[:, :m])
        np.cumsum(s, axis=1, out=s)
        s += start[r0 : r0 + m, None]
        b, o = bad[:m], over[:m]
        np.less(s, lo, out=b)
        np.greater(s, up, out=o)
        b |= o
        np.any(b, axis=1, out=ok[r0 : r0 + m])  # left the tube; negated below
        last[r0 : r0 + m] = s[:, -1]
    np.logical_not(ok, out=ok)
    if xi_p is not None:
        for r0 in range(0, particles, rows):
            m = min(rows, particles - r0)
            b = bad[:m]
            np.less(rng.random(out=inc[:m]), xi_p, out=b)
            ok[r0 : r0 + m] &= b.all(axis=1)
    return ok, last


def _xi_setup(env: EnvRealization, tube: TubeSpec, xi_mode: str) -> tuple[float | None, float]:
    """Per-step sampled-event probability (or None) and the analytic log factor."""
    if xi_mode not in XI_MODES:
        raise ValueError(f"xi_mode must be one of {XI_MODES}")
    steps, _ = _xi_terms(tube)
    if steps and xi_mode == "sampled":
        return env.xi_cdf(tube.xi_threshold), xi_log_factor(env, tube, include_steps=False)
    return None, xi_log_factor(env, tube)


def survival_naive_mc(
    env: EnvRealization,
    tube: TubeSpec,
    x0: float,
    replicas: int,
    seed: int,
    xi_mode: str = "analytic",
) -> SurvivalEstimate:
    """Fraction of independent replica paths surviving the full tube event.

    This is `survival_splitting` with one block and `replicas` particles,
    relabelled: ``method`` is naive_mc and ``work`` counts paths.
    """
    if replicas < 100:
        raise ValueError("replicas must be >= 100")
    est = survival_splitting(env, tube, x0, replicas, 1, seed, xi_mode)
    return dataclasses.replace(est, method=METHOD_NAIVE_MC, work=replicas)


def survival_splitting(
    env: EnvRealization,
    tube: TubeSpec,
    x0: float,
    particles: int,
    checkpoints: int,
    seed: int,
    xi_mode: str = "analytic",
) -> SurvivalEstimate:
    """Fixed-effort multilevel splitting along the time axis.

    The n steps are cut into `checkpoints` blocks (equal length, remainder
    absorbed by the final block).  After each block the surviving fraction
    phi_k is recorded and, before every block but the first, survivors are
    resampled multinomially back to the full population; log_p = sum(ln phi_k) with a delta-method standard
    error over the block fractions.  Population extinction in a block
    returns p = 0 with an ``extinction`` flag.
    """
    if particles < 100:
        raise ValueError("particles must be >= 100")
    n, f = tube.n, tube.f_offset
    if not 1 <= checkpoints <= n:
        raise ValueError("checkpoints must satisfy 1 <= checkpoints <= n")
    if f + n > env.length:
        raise IndexError("environment too short for this tube")
    lo, up = tube.bounds_arrays()
    end = tube.end_bounds()
    xi_p, xi_log = _xi_setup(env, tube, xi_mode)
    work = particles * n

    base = n // checkpoints
    lengths = [base] * (checkpoints - 1) + [n - base * (checkpoints - 1)]

    extinct = from_log(
        -math.inf, METHOD_SPLITTING, work, seed=seed, stderr_log=math.inf, flags=("extinction",)
    )
    if not (lo[0] <= x0 <= up[0]):
        return extinct

    pos = np.full(particles, x0)
    log_acc = 0.0
    var_acc = 0.0
    step = 0
    final = len(lengths) - 1
    for k, blen in enumerate(lengths):
        rng = substream(seed, STREAM_SPLIT, k)
        seg = slice(step + 1, step + blen + 1)
        ok, last = _advance(env, f + step, pos, lo[seg], up[seg], rng, xi_p)
        step += blen
        if k == final and end is not None:
            ok &= (last >= end[0]) & (last <= end[1])
        alive = int(ok.sum())
        if alive == 0:
            return extinct
        phi = alive / particles
        log_acc += math.log(phi)
        var_acc += (1.0 - phi) / (phi * particles)
        if k < final:
            pos = last[ok][rng.integers(0, alive, size=particles)]

    return from_log(
        log_acc + xi_log, METHOD_SPLITTING, work, seed=seed, stderr_log=math.sqrt(var_acc)
    )
