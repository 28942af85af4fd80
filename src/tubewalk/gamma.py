"""Confinement rate of a Brownian motion in a unit-width tube with a
Brownian-driven centre.

The rate gamma(beta) is the large-time decay rate, per unit time and
conditionally on the centre path W, of the probability that B_s stays
within 1/2 of beta*W_s.  It is estimated by propagating the sub-density
of Y_s = B_s - beta*W_s on a static grid: given W, the Y-steps are
independent Gaussians with mean -beta*dW_k and variance dt, so no 2-D
scheme is needed.

All W replicas are propagated together as one (replicas, grid_points)
array.  A step is a batched circular convolution through a zero-padded
real FFT of length n = `_fast_len(grid_points + reach)` (the smallest
2**a 3**b 5**c at least that long), where reach covers 8 sd plus the
largest drift in grid cells; the step kernel's transform is written in
closed form by Poisson summation (see `_kernel_transform`), built a block
of steps at a time, and FFT round-off is clipped at zero.  The first
step's bin masses come from the same transform (`_bin_masses`, which the
grid estimator in `quench_dp` shares), so no Gaussian CDF is evaluated.
`estimate_gamma` propagates at most 64 replicas per batch and each block
of transforms holds at most 2**18 complex entries, so memory stays
bounded whatever the replica count; at beta = 0 every replica is the same
and one is propagated.  scipy is imported only by `_t_quantile`, for the
confidence intervals, on its first call.

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

import math
from dataclasses import dataclass

import numpy as np

from .rng import STREAM_GAMMA_W, substream

GAMMA_ZERO = math.pi**2 / 2

# -zeta(1/2)/sqrt(2*pi): mean overshoot of a Gaussian random walk, the
# barrier-shift constant for discretely monitored diffusions.
BARRIER_SHIFT = 0.5825971579390107

# Complex entries per block of kernel transforms and W replicas per batch
# (together they bound the memory), and the amplitude below which an alias
# of the kernel transform is dropped.
_BLOCK_ENTRIES = 2**18
_REPLICA_BATCH = 64
_AMPLITUDE_FLOOR = 1e-17


def bm_tube_rate(sigma: float, width: float) -> float:
    """Decay rate of P(|Z_s| <= width/2 for s <= t) for variance-sigma^2 BM."""
    if sigma <= 0 or width <= 0:
        raise ValueError("sigma and width must be > 0")
    return math.pi**2 * sigma**2 / (2.0 * width**2)


def _t_quantile(dof: int, prob: float) -> float:
    """Student-t quantile; scipy is imported on the first call only."""
    from scipy.special import stdtrit

    return float(stdtrit(dof, prob))


def _fast_len(target: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= target: scipy's next_fast_len(target, real=True)."""
    best = 1 << max(target - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-target // p35)  # ceil(target / p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _kernel_transform(drifts, sd: float, dx: float, n: int) -> np.ndarray:
    """Real DFT of the bin-edge step kernel, one row per drift.

    The kernel puts mass Phi((x + dx/2)/sd) - Phi((x - dx/2)/sd) on offset
    j (x = j*dx - d), the probability that a N(d, sd^2) step lands in the
    bin j cells away.  By Poisson summation the length-n DFT of its
    periodisation is a sum over aliases theta = 2*pi*(m/n + l) of the
    continuous transform sinc * Gaussian * phase, so no kernel is sampled.
    Aliases whose amplitude is below 1e-17 are dropped.  Returns shape
    ``drifts.shape + (n // 2 + 1,)``.
    """
    shift = np.asarray(drifts, dtype=float)[..., None] / dx
    s = sd / dx
    freq = np.arange(n // 2 + 1) / n
    out = np.zeros(shift.shape[:-1] + freq.shape, dtype=complex)
    aliases = math.ceil(1.5 / s)
    for l in range(-aliases, aliases + 1):
        cycles = freq + l
        theta = 2.0 * math.pi * cycles
        amp = np.sinc(cycles) * np.exp(-0.5 * (s * theta) ** 2)
        keep = np.flatnonzero(np.abs(amp) > _AMPLITUDE_FLOOR)
        if keep.size:
            # |amp| is monotone in |theta| away from m = 0, so kept modes are contiguous
            band = slice(keep[0], keep[-1] + 1)
            out[..., band] += amp[band] * np.exp(-1j * theta[band] * shift)
    return out


def _bin_masses(drifts, sds, dx: float, n: int, first: int, count: int) -> np.ndarray:
    """Bin masses of N(d, sd^2) steps on the `count` bins first, first+1, ...
    cells from the origin, one row per drift; `sds` broadcasts against the
    1-D `drifts`.

    Each row is the inverse real FFT of `_kernel_transform` (one transform
    per distinct sd) read at the bins' offsets mod n, with FFT round-off
    clipped at zero.  Mass wraps around unless n covers the bins' span plus
    the kernel's reach on either side.
    """
    drifts = np.asarray(drifts, dtype=float)
    sds = np.broadcast_to(sds, drifts.shape)
    k_hat = np.empty(drifts.shape + (n // 2 + 1,), dtype=complex)
    for sd in np.unique(sds):
        rows = sds == sd
        k_hat[rows] = _kernel_transform(drifts[rows], sd, dx, n)
    offsets = np.arange(first, first + count) % n
    return np.maximum(np.fft.irfft(k_hat, n)[:, offsets], 0.0)


def _confinement_profiles(
    w_increments: np.ndarray,
    beta: float,
    dt: float,
    grid_points: int,
    y0: float,
    barrier_correction: bool,
    checkpoints: tuple[int, ...],
) -> np.ndarray:
    """Survival probabilities, shape (replicas, len(checkpoints)), for W
    increments of shape (replicas, steps); checkpoints are step indices."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if grid_points < 50:
        raise ValueError("grid_points must be >= 50")
    w_increments = np.asarray(w_increments, dtype=float)
    replicas, steps = w_increments.shape
    if steps < 1 or max(checkpoints) > steps:
        raise ValueError("checkpoints must lie within the increment horizon")
    dead = np.zeros((replicas, len(checkpoints)))
    if abs(y0) >= 0.5:
        return dead

    sd = math.sqrt(dt)
    half = 0.5 - (BARRIER_SHIFT * sd if barrier_correction else 0.0)
    if half <= 0:
        raise ValueError("dt too coarse: barrier correction exceeds the tube half-width")
    if abs(y0) >= half:
        return dead
    edges = np.linspace(-half, half, grid_points + 1)
    dx = edges[1] - edges[0]
    drifts = -beta * w_increments
    last = max(checkpoints)

    wanted = set(checkpoints)
    totals = {}
    reach = int(math.ceil((8.0 * sd + np.abs(drifts).max()) / dx)) + 1
    n = _fast_len(grid_points + reach)
    # the grid sits at the head of a zero-padded length-n row, so the
    # circular convolution equals the linear one on the grid; what it
    # pushes past either barrier lands in the padding and is dropped
    padded = np.zeros((replicas, n))
    mass = padded[:, :grid_points]
    # first step: the point source at y0 moved by the step kernel
    node0 = edges[0] + 0.5 * dx
    mass[:] = _bin_masses(y0 + drifts[:, 0] - node0, sd, dx, n, 0, grid_points)
    if 1 in wanted:
        totals[1] = mass.sum(axis=1)
    if last > 1:
        # step k applies drifts[:, k - 1]; transforms are built a block at a time
        block = max(1, _BLOCK_ENTRIES // (replicas * (n // 2 + 1)))
        for lo in range(1, last, block):
            k_hat = _kernel_transform(drifts[:, lo : min(lo + block, last)].T, sd, dx, n)
            for c, k_step in enumerate(k_hat, start=lo + 1):
                stepped = np.fft.irfft(np.fft.rfft(padded) * k_step, n)
                np.maximum(stepped[:, :grid_points], 0.0, out=mass)  # clip FFT round-off
                if c in wanted:
                    totals[c] = mass.sum(axis=1)
    return np.stack([totals[c] for c in checkpoints], axis=1)


def _confinement_profile(
    w_increments: np.ndarray,
    beta: float,
    dt: float,
    grid_points: int,
    y0: float,
    barrier_correction: bool,
    checkpoints: tuple[int, ...],
) -> list[float]:
    """Survival probabilities at the requested step indices (ascending)."""
    w = np.asarray(w_increments, dtype=float)[None, :]
    probs = _confinement_profiles(w, beta, dt, grid_points, y0, barrier_correction, checkpoints)
    return [float(p) for p in probs[0]]


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
    w_increments = np.asarray(w_increments, dtype=float)
    return _confinement_profile(
        w_increments, beta, dt, grid_points, y0, barrier_correction, (len(w_increments),)
    )[0]


@dataclass(frozen=True)
class GammaEstimate:
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
        w_inc = np.stack([substream(seed, STREAM_GAMMA_W, r).normal(0.0, sd, steps) for r in batch])
        probs = _confinement_profiles(w_inc, beta, dt, grid_points, 0.0, barrier_correction, cps)
        if probs.min() <= 0.0:
            raise RuntimeError(
                "confinement probability vanished on a replica; "
                "increase grid_points or shorten dt / the horizon"
            )
        slopes.extend(float(v) for v in np.polyfit(ts, -np.log(probs.T), 1)[0])
    slopes *= env_replicas // distinct
    gamma_hat = float(np.mean(slopes))
    spread = float(np.std(slopes, ddof=1))
    half = _t_quantile(env_replicas - 1, 0.975) * spread / math.sqrt(env_replicas)
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
