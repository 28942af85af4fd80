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
are independent of batching.  The auxiliary events
xi_i <= r_n are independent of the walk given the environment, so they are
not simulated: both estimators add the one analytic factor
`quench_dp.xi_log_factor`, as the deterministic estimators do.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .env import EnvRealization
from .quench_dp import xi_log_factor
from .results import METHOD_NAIVE_MC, METHOD_SPLITTING, SurvivalEstimate, from_log
from .rng import STREAM_SPLIT, substream
from .tube import TubeSpec
from .walk import draw_increments

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
) -> tuple[np.ndarray, np.ndarray]:
    """Advance particles from `start` through len(lo) steps inside [lo, up].

    Returns the per-particle survival mask and the final positions.  Rows
    are processed in blocks of about ROW_BYTES through one workspace,
    allocated once per call, so apart from those two outputs memory does
    not grow with the particle count.  The generator fills arrays in
    row-major order from one stream, so drawing the rows block by block
    consumes the same numbers as one whole-array draw.
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
    return ok, last


def survival_naive_mc(
    env: EnvRealization,
    tube: TubeSpec,
    x0: float,
    replicas: int,
    seed: int,
) -> SurvivalEstimate:
    """Fraction of independent replica paths surviving the full tube event.

    This is `survival_splitting` with one block and `replicas` particles,
    relabelled: ``method`` is naive_mc and ``work`` counts paths.
    """
    if replicas < 100:
        raise ValueError("replicas must be >= 100")
    est = survival_splitting(env, tube, x0, replicas, 1, seed)
    return dataclasses.replace(est, method=METHOD_NAIVE_MC, work=replicas)


def survival_splitting(
    env: EnvRealization,
    tube: TubeSpec,
    x0: float,
    particles: int,
    checkpoints: int,
    seed: int,
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
        ok, last = _advance(env, f + step, pos, lo[seg], up[seg], rng)
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

    log_acc += xi_log_factor(env, tube)
    return from_log(log_acc, METHOD_SPLITTING, work, seed=seed, stderr_log=math.sqrt(var_acc))
