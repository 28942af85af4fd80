"""Monte Carlo estimators of the quenched tube-survival probability.

``survival_splitting`` is fixed-population multilevel splitting along the
time axis: the particle population is advanced block by block, survivors
are resampled back to full size, and the per-block survival fractions
multiply up; it reaches probabilities down to about e^-60 at desk scale.
``survival_naive_mc`` is plain replication, usable when p is not much
smaller than 1/replicas: splitting with one block, whose particles are
the replicas (a particle system without a resampling step).

Particles advance through `_advance_nodes` (lattice laws with dyadic
weights, on raw random bits) or `_advance`, drawing from one counter-derived
substream per block, so results are independent of batching.  The auxiliary events
xi_i <= r_n are independent of the walk given the environment, so they are
not simulated: both estimators add the one analytic factor
`quench_dp.xi_log_factor`, as the deterministic estimators do.
"""

from __future__ import annotations

import math

import numpy as np

from .env import EnvRealization
from .propagate import _NODE_CAP, _atom_nodes, _check_span, _end_nodes, _kept, _lattice, _require_open_start
from .quench_dp import xi_log_factor
from .results import METHOD_NAIVE_MC, METHOD_SPLITTING, SurvivalEstimate, from_log
from .rng import STREAM_SPLIT, substream
from .tube import TubeSpec
from .walk import draw_increments

# Bytes of a row block in `_advance` or a step chunk in `_advance_nodes`: small enough to stay
# in cache, large enough to amortise the per-call overhead.  Results do not depend on it.
ROW_BYTES = 2**18
# A particle keeps its position, flags, end position and resampling indices:
# measured 39 bytes a particle on the float kernel and 22 on the lattice
# kernel; `config.validate` sizes `estimator.particles` and `replicas` by it.
_PATH_BYTES = 64


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


def _bit_law(env: EnvRealization, tube: TubeSpec, x0: float):
    """(nodes, moves, start, codes, cuts, bits) for `_advance_nodes` (`propagate._lattice`'s four),
    or None for the float kernel.  A particle-step's `bits` <= 8 random bits, read as v, take
    atom j where v >= cuts[j-1] = (w_0 + ... + w_{j-1}) 2^bits.
    A lattice of more than _NODE_CAP nodes is counted, not laid out: the float kernel needs none."""
    q = env.lattice_q
    if env.kind != "atoms" or q is None:
        return None
    bits = next((b for b in range(1, 9) if np.all(np.ldexp(env.atom_w, b) % 1 == 0)), None)
    if bits is None or _atom_nodes(q, 1.0 / q, *tube.extent(), x0)[3] > _NODE_CAP:
        return None
    *lattice, whole = _lattice(env, tube, x0, 1.0 / q)
    if not whole:
        return None
    return *lattice, np.ldexp(np.cumsum(env.atom_w)[:-1], bits).astype(int).tolist(), bits


def _node_workspace(law, particles: int, length: int):
    """(path, hit): `_advance_nodes`' chunk arrays for blocks of up to `length` steps, made once a run.
    Positions are int16 when len(nodes) + length * max |move| fits, else int32 (or int64)."""
    nodes, moves = law[:2]
    reach = len(nodes) + length * int(np.abs(moves).max())
    dtype = next(np.dtype(t) for t in (np.int16, np.int32, np.int64) if reach <= np.iinfo(t).max)
    rows = max(1, min(length, ROW_BYTES // (particles * dtype.itemsize)))
    return np.empty((rows, particles), dtype), np.empty((rows, particles), dtype=bool)


def _advance_nodes(law, start_index: int, start: np.ndarray, lo: np.ndarray, up: np.ndarray, rng, work=None):
    """`_advance` on `_bit_law`'s node indices.  A particle dies at the first node the DP does
    not keep (`propagate._kept`), then keeps moving.  A step draws bits * ceil(P/64) raw words;
    particle i takes bit i mod 64 of word k * ceil(P/64) + i // 64 as its k-th most significant
    bit, in chunks of steps that change no result.  `work` is `_node_workspace`'s pair (made
    for this block when None); positions have its dtype."""
    nodes, moves, _, codes, cuts, bits = law
    particles, length, words = len(start), len(lo), -(-len(start) // 64)
    codes = codes[start_index : start_index + length]
    path, hit = work if work is not None else _node_workspace(law, particles, length)
    rows, dtype = len(path), path.dtype
    # each kind's first move and move differences, gathered by the steps' codes
    first, steps = moves[:, 0].astype(dtype)[codes], np.diff(moves, axis=1).astype(dtype)[codes]
    pos, dead = start.astype(dtype), np.zeros(particles, dtype=bool)
    for t0 in range(0, length, rows):
        m = min(rows, length - t0)
        raw = rng.bit_generator.random_raw(m * bits * words).astype("<u8", copy=False).view(np.uint8)
        u = np.unpackbits(raw.reshape(m, bits, 8 * words), axis=-1, bitorder="little")[..., :particles]
        v = u[:, 0] if bits == 1 else np.packbits(u, axis=1)[:, 0] >> 8 - bits
        s, h, chunk = path[:m], hit[:m], slice(t0, t0 + m)
        # nested masks M_j = [v >= cuts[j-1]], no lookup: m_0 + M_1 (D_1 + M_2 (D_2 + ...))
        np.multiply(np.greater_equal(v, cuts[-1], out=h), steps[chunk, -1:], out=s)
        for j in range(len(cuts) - 1, 0, -1):
            s += steps[chunk, j - 1 : j]
            s *= np.greater_equal(v, cuts[j - 1], out=h)
        s += first[chunk, None]
        s[0] += pos
        for t in range(1, m):
            np.add(s[t - 1], s[t], out=s[t])
        np.copyto(pos, s[m - 1])
        # outside [a, b) where s - a, read unsigned, is >= b - a (|s - a| <= reach)
        a, b = (np.array(x, dtype)[:, None] for x in _kept(nodes, lo[chunk], up[chunk]))
        s -= a
        unsigned = f"u{dtype.itemsize}"
        dead |= np.greater_equal(s.view(unsigned), (b - a).view(unsigned), out=h).any(axis=0)
    return ~dead, pos


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
    return est.replace(method=METHOD_NAIVE_MC, work=replicas)


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
    _check_span(env, tube)
    _require_open_start(tube, x0)
    end = tube.end_bounds()
    work = particles * n

    base = n // checkpoints
    lengths = [base] * (checkpoints - 1) + [n - base * (checkpoints - 1)]

    extinct = from_log(
        -math.inf, METHOD_SPLITTING, work, seed=seed, stderr_log=math.inf, flags=("extinction",)
    )
    law = _bit_law(env, tube, x0)
    if law is None:
        advance, pos = (lambda t, *args: _advance(env, f + t, *args)), np.full(particles, x0)
    else:
        space = _node_workspace(law, particles, lengths[-1])
        advance, pos = (lambda t, *args: _advance_nodes(law, t, *args, space)), np.full(particles, law[2])
        if end is not None:  # the end window's node indices, closed
            a, b = _end_nodes(law[0], tube)
            end = (a, b - 1)
    log_acc = 0.0
    var_acc = 0.0
    step = 0
    final = len(lengths) - 1
    for k, blen in enumerate(lengths):
        rng = substream(seed, STREAM_SPLIT, k)
        ok, last = advance(step, pos, *tube.bounds_arrays(step + 1, step + blen + 1), rng)
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
