"""Confinement rate of a Brownian motion in a unit-width tube with a
Brownian-driven centre.

The rate gamma(beta) is the large-time decay rate, per unit time and
conditionally on the centre path W, of the probability that B_s stays
within 1/2 of beta*W_s.  It is estimated by propagating the sub-density
of Y_s = B_s - beta*W_s on a static grid: given W, the Y-steps are
independent Gaussians with mean -beta*dW_k and variance dt, so no 2-D
scheme is needed.

A replica is the Gaussian grid pass of `quench_dp` on the constant tube
[-half, half] with step means -beta*dW, and it runs through the same
Fourier-band pass, `_band_pass`, which lives here with the other band
primitives; all W replicas of a batch are the rows of one layout.  A pass has one step
sd (sqrt(dt) here, tau on the grid) and is laid out once, by
`_kernel_layout`: the grid sits at the head of a zero-padded row of length
n = `_fast_len(grid_points + reach)` (the smallest 2**a 3**b 5**c at least
that long), where reach covers 8 sd plus the largest drift in grid cells,
so a circular convolution of the row equals the linear one on the grid.
The step kernel's transform is written in closed form by Poisson summation
(see `_kernel_modes`); below an amplitude of 1e-17 it vanishes outside
modes 0..K-1, so those modes are all a step can reach.  K depends on dt, not on grid_points: about
1.4/sqrt(dt) + 11 (58 of 271 modes at dt = 1e-3 and 400 points) until
sd/dx falls below about 2.8, where alias bands reach the top mode and K is
every mode, n // 2 + 1.  The state is an array (replicas, K) of modes; a
step multiplies it by the kernel's transform and cuts the row back to the
grid with one real operator of band DFT rows (`_band_basis`); mass past
either barrier falls in the padding and is dropped.  The operator is the
dense (2K, 2K) L @ R of the kept nodes, written in closed form from
Dirichlet sums (`_cut_operator`), at (2K)^2 multiply-adds per replica,
or, when the r = n - grid_points padding entries are fewer than K (as
when alias bands make K every mode), I - L @ R with the factors of the
padding, at 4Kr.  No real-space mass exists between steps, so none is
clipped, and the survival total is mode 0, read by `_scaled_pass`, so a
deep replica underflows only at a checkpoint.  The first step's bin masses
come from the same transform (`_bin_masses`), so no Gaussian CDF is
evaluated.  `estimate_gamma` propagates at most 64 replicas per batch and
each block of transforms holds at most 2**16 complex entries, so memory
stays bounded whatever the replica count (`_run_bytes` bounds it, and
`config.validate` caps it); at beta = 0 every replica is the same and one
is propagated.  The Student-t quantile of the confidence intervals is
computed here too (`_t_quantile`), so no scipy import remains.

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

import bisect
import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .results import Record
from .rng import STREAM_GAMMA_W, substream

GAMMA_ZERO = math.pi**2 / 2

# -zeta(1/2)/sqrt(2*pi): mean overshoot of a Gaussian random walk, the
# barrier-shift constant for discretely monitored diffusions.
BARRIER_SHIFT = 0.5825971579390107

# Complex entries per block of kernel transforms and W replicas per batch
# (together they bound the memory), and the amplitude below which an alias
# of the kernel transform is dropped.  Transforms are built by batched calls
# with a fixed per-call cost (tens of numpy calls holding the interpreter
# lock), so a block is not made smaller.
_FFT_BLOCK_ENTRIES = 2**16
_REPLICA_BATCH = 64
# Bytes one run may hold (runs are sequential; `config.validate` sizes each
# run against them), and the bytes of a float: a batch of replicas holds its
# W increments and the arrays `_run_bytes` counts.
_MEMORY_BUDGET, _FLOAT_BYTES = 2**30, 8
# Basis entries that `_run_bytes` counts beside the dense cut operator, a
# bound the closed-form operator (`_cut_operator`) stays under; the memory
# caps `config.validate` sets from `_run_bytes` rest on it.
_BASIS_ENTRIES = 2**16
_AMPLITUDE_FLOOR = 1e-17
# The mass total below which `_scaled_pass` rescales a row by a power of two,
# and the steps of a run of a state whose total is a sum over its mass.
_RESCALE_BELOW = 2.0**-500
_CHECK_STEPS = 16
# Modes between the exact phases that re-anchor a kernel transform's
# running product (`_unit_phases`).
_ANCHOR_MODES = 64


def bm_tube_rate(sigma: float, width: float) -> float:
    """Decay rate of P(|Z_s| <= width/2 for s <= t) for variance-sigma^2 BM."""
    if sigma <= 0 or width <= 0:
        raise ValueError("sigma and width must be > 0")
    return math.pi**2 * sigma**2 / (2.0 * width**2)


def _t_quantile(dof: int, prob: float) -> float:
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


def _band_modes(s: float, n: int) -> int:
    """Number K of leading real-DFT modes that hold the step kernel's transform.

    `_kernel_modes` at sd/dx = s and length n drops every term whose
    amplitude is below the floor.  The main band's amplitude falls
    monotonically from mode 0 to the top mode n // 2, so its last kept mode
    is found by bisection; the strongest alias is l = -1 at the top mode, and
    when it clears the floor the band is every mode.  Scalar arithmetic
    only, so `config.validate` can size the band without allocating it.
    """
    top = n // 2

    def amplitude(cycles: float) -> float:
        x = math.pi * cycles
        return abs(math.sin(x) / x) * math.exp(-0.5 * (2.0 * s * x) ** 2)

    if amplitude(top / n - 1.0) > _AMPLITUDE_FLOOR:
        return top + 1
    kept, dropped = 0, top + 1  # amplitude(0) = 1
    while dropped - kept > 1:
        mid = (kept + dropped) // 2
        if amplitude(mid / n) > _AMPLITUDE_FLOOR:
            kept = mid
        else:
            dropped = mid
    return kept + 1


def _kernel_layout(sd: float, max_drift: float, dx: float, points: int) -> tuple[int, int, int]:
    """Reach in nodes, padded row length n and band K = `_band_modes(sd/dx,
    n)` of a Gaussian pass on `points` nodes of spacing dx whose N(d, sd^2)
    steps keep |d| <= `max_drift`.  Scalar arithmetic only, so
    `config.validate` can size a pass without allocating it.
    """
    reach = math.ceil((8.0 * sd + max_drift) / dx) + 1
    n = _fast_len(points + reach)
    return reach, n, _band_modes(sd / dx, n)


def _layout(dt: float, grid_points: int, barrier_correction: bool = True, max_drift: float = 0.0):
    """Tube half-width, grid spacing dx, padded row length n and band K of a
    run whose drifts stay within `max_drift` (`_kernel_layout`)."""
    sd = math.sqrt(dt)
    half = 0.5 - (BARRIER_SHIFT * sd if barrier_correction else 0.0)
    if half <= 0:
        raise ValueError("dt too coarse: barrier correction exceeds the tube half-width")
    dx = (2.0 * half / grid_points - half) + half  # the spacing np.linspace(-half, half, .) gives
    _, n, band = _kernel_layout(sd, max_drift, dx, grid_points)
    return half, dx, n, band


def _run_bytes(grid_points: int, n: int, band: int, batch: int) -> int:
    """Bytes `_confinement_profiles` holds at most for `batch` replicas on a
    layout from `_layout`, besides the drifts passed in.

    The cut of `_band_pass` (`_cut_form`): when the r = n - grid_points padding
    entries are fewer than K, its factors, three (2K, r) factors' worth while
    built, and a (batch, r) product; else the dense (2K)^2 operator and as
    much again, and three factors' worth of basis rows for _BASIS_ENTRIES
    entries, which bound the closed-form operator's O(K) temporaries.  Five
    (batch, n) float rows bound the state with the first step's FFTs, and
    four blocks of complex entries the step kernels: the mode-major block of
    transforms, held for the pass, an alias term and the steps copied out of
    the block (in the first step, the transforms' transposed copy).  Scalar
    arithmetic only.
    """
    rank = n - grid_points
    if rank < band:
        cut = 3 * 2 * band * rank + batch * rank
    else:
        nodes = min(grid_points, max(1, _BASIS_ENTRIES // (2 * band)))
        cut = 2 * (2 * band) ** 2 + 3 * 2 * band * nodes
    block = max(_FFT_BLOCK_ENTRIES, batch * band)
    return 8 * (cut + 5 * batch * n) + 16 * 4 * block


def _block_steps(width: int, entries: int) -> int:
    """Steps whose kernels are built at once: about `entries` entries."""
    return max(1, entries // width)


def _cis(angles: np.ndarray, out=None) -> np.ndarray:
    """exp(-1j * angles), from cos and sin."""
    if out is None:
        out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _unit_phases(angle0: np.ndarray, step: np.ndarray, count: int, out=None) -> np.ndarray:
    """exp(-1j * (angle0 + k * step)) for k < count, mode-major: shape
    (count, rows) for the 1-D angle0 and step of the rows, written to `out`
    when given.

    A running product over modes: mode k is mode k - 1 times exp(-1j * step),
    one complex multiply over all rows a mode, on contiguous rows (numpy's
    complex multiply rounds differently on strided operands, and rows must
    not depend on the block they are built in).  Every _ANCHOR_MODES modes
    the phase is taken afresh from cos and sin of angle0 + k * step, so the
    product's round-off, about an ulp a factor, stays below 1e-14.
    """
    if out is None:
        out = np.empty((count,) + np.shape(angle0), dtype=complex)
    turn = _cis(step)
    for k in range(count):
        if k % _ANCHOR_MODES:
            np.multiply(out[k - 1], turn, out=out[k])
        else:
            _cis(angle0 + k * step, out=out[k])
    return out


def _scale_modes(phases: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Multiply the mode-major `phases` by the real amplitude of each mode, in
    place, as two real products an entry: the bits of a complex multiply by
    amp + 0j, without casting `amp` to complex."""
    parts = phases.view(float)
    parts *= amp[:, None]
    return phases


def _kernel_modes(drifts, sd: float, dx: float, n: int, band: int, out=None) -> np.ndarray:
    """Real DFT of the bin-edge step kernel on its band, mode-major: shape
    (K, drifts.size) for K = `band`, one column per drift of the flattened
    `drifts`, written to `out` when given.

    The kernel puts mass Phi((x + dx/2)/sd) - Phi((x - dx/2)/sd) on offset
    j (x = j*dx - d), the probability that a N(d, sd^2) step lands in the
    bin j cells away.  By Poisson summation the length-n DFT of its
    periodisation is a sum over aliases theta = 2*pi*(m/n + l) of the
    continuous transform sinc * Gaussian * phase, so no kernel is sampled.
    Terms whose amplitude is below 1e-17 are dropped, which leaves the
    K = `_band_modes` leading modes; the rest of the n // 2 + 1 are zero
    and are not stored (``np.fft.irfft(., n)`` zero-pads them).  Each
    term's phases are a running product over its modes, re-anchored on an
    exact cos and sin every _ANCHOR_MODES modes (`_unit_phases`), so a mode
    costs one complex multiply over all drifts.  The transform of a real
    kernel is real at mode 0 and at the Nyquist mode, so the round-off the
    aliases leave in their imaginary parts is zeroed.
    """
    shift = np.asarray(drifts, dtype=float).reshape(-1) / dx
    s = sd / dx
    freq = np.arange(band) / n
    step = (2.0 * math.pi / n) * shift
    theta = 2.0 * math.pi * freq
    # the main term (l = 0) clears the floor on every mode of the band: it
    # sets the band, and no alias is larger at the same mode
    phases = _unit_phases(theta[0] * shift, step, band, out)
    _scale_modes(phases, np.sinc(freq) * np.exp(-0.5 * (s * theta) ** 2))
    aliases = math.ceil(1.5 / s) if band > n // 2 else 0
    for l in range(-aliases, aliases + 1):
        if l == 0:
            continue
        cycles = freq + l
        theta = 2.0 * math.pi * cycles
        amp = np.sinc(cycles) * np.exp(-0.5 * (s * theta) ** 2)
        keep = np.flatnonzero(np.abs(amp) > _AMPLITUDE_FLOOR)
        if keep.size:
            # |amp| is monotone in |theta| away from m = 0, so kept modes are contiguous
            lo, hi = keep[0], keep[-1] + 1
            term = _unit_phases(theta[lo] * shift, step, hi - lo)
            phases[lo:hi] += _scale_modes(term, amp[lo:hi])
    phases[0].imag = 0.0
    if n % 2 == 0 and band > n // 2:
        phases[n // 2].imag = 0.0
    return phases


def _bin_masses(drifts, sd: float, dx: float, n: int, band: int, first: int, count: int) -> np.ndarray:
    """Bin masses of N(d, sd^2) steps on the `count` bins first, first+1, ...
    cells from the origin, one row per drift of the 1-D `drifts`.

    Each row is the inverse real FFT of its `_kernel_modes` column on the
    `band` modes (zero-padded to n) read at the bins' offsets mod n, with
    FFT round-off clipped at zero.
    Mass wraps around unless n covers the bins' span plus the kernel's reach
    on either side.
    """
    k_hat = _kernel_modes(drifts, sd, dx, n, band)
    offsets = np.arange(first, first + count) % n
    return np.maximum(np.fft.irfft(np.ascontiguousarray(k_hat.T), n)[:, offsets], 0.0)


def _band_basis(n: int, band: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and forward rows of the first K = `band` real-DFT modes of a
    length-n row at the entries `positions`, on the interleaved (real,
    imaginary) view of the modes.

    The (len(positions), 2K) forward matrix R holds the forward DFT of each
    entry t, cos(2 pi j t / n) and -sin for mode j; the (2K, len(positions))
    inverse matrix L holds the inverse real DFT of mode j (of 1j * mode j) at
    each entry, (2/n) cos (-(2/n) sin), halved at modes 0 and n/2, where the
    inverse DFT counts a mode once, and zero for their imaginary parts, which
    it ignores.  So ``modes @ L @ R`` keeps the part of the row on
    `positions`.  Angles are reduced exactly as integers j*t mod n.
    """
    turns = np.outer(np.arange(band), positions) % n
    angles = (2.0 * math.pi / n) * turns
    del turns
    right = np.empty((len(positions), 2 * band))
    np.cos(angles.T, out=right[:, 0::2])
    np.sin(angles.T, out=right[:, 1::2])
    np.negative(right[:, 1::2], out=right[:, 1::2])
    del angles
    scale = np.full(band, 2.0 / n)
    scale[0] = 1.0 / n
    if n % 2 == 0 and band > n // 2:
        # the Nyquist mode of a real row is real, but sin(pi) rounds to 1.2e-16
        right[:, 2 * (n // 2) + 1] = 0.0
        scale[n // 2] = 1.0 / n
    left = right.T * np.repeat(scale, 2)[:, None]
    return left, right


def _sin_pi(x: np.ndarray, n: int) -> np.ndarray:
    """sin(pi x / n) for an integer array x, its angle reduced exactly, as
    integers, into [0, pi/2], so each value keeps its relative precision
    (an angle near pi or 2 pi would leave an absolute error of about 1e-16
    * 2 pi in a small sine)."""
    r = x % (2 * n)
    sign = np.where(r < n, 1.0, -1.0)
    r %= n
    return sign * np.sin((math.pi / n) * np.minimum(r, n - r))


def _cut_operator(n: int, band: int, a: int, b: int) -> np.ndarray:
    """The dense (2K, 2K) operator L @ R of `_band_basis` rows on the nodes
    [a, b) of a length-n row, K = `band`, in closed form.

    Entry (j, k) is a sum over the nodes t of products of cos and sin at
    2 pi j t / n and 2 pi k t / n, so it is a combination of the Dirichlet
    sums sum_t exp(2 pi i m t / n) = D(m) exp(i pi m (2a + len - 1) / n) at
    m = j - k, k - j and j + k, where len = b - a and D(m) = sin(pi m len /
    n) / sin(pi m / n), or len where n divides m.  Every angle is reduced
    exactly as an integer (`_sin_pi`), which leaves the entries within about
    2e-16 of the largest, closer than L @ R comes.  That is O(K) sines and
    O(K^2) assembly, with no matrix product, so the operator's bits do not
    depend on how a BLAS splits a product over its threads.  The entries of
    the imaginary parts of modes 0 and n/2, which `_band_basis` zeroes, are
    zero.
    """
    length = b - a
    m = np.arange(1 - band, 2 * band - 1)  # entry i is m = i - (K - 1)
    whole = m % n == 0
    den = _sin_pi(m, n)
    den[whole] = 1.0
    dirichlet = _sin_pi(m * length, n) / den
    phase = m * (2 * a + length - 1)  # the phase is pi * phase / n
    cos_sum = dirichlet * _sin_pi(n + 2 * phase, 2 * n)
    sin_sum = dirichlet * -_sin_pi(phase, n)  # the sum of -sin, as `_band_basis` rows hold -sin
    cos_sum[whole], sin_sum[whole] = length, 0.0
    # (K, K) views at m = j + k (Hankel) and m = j - k (Toeplitz)
    step = cos_sum.strides[0]
    hc, tc = (as_strided(cos_sum[band - 1 :], (band, band), (step, s)) for s in (step, -step))
    hs, ts = (as_strided(sin_sum[band - 1 :], (band, band), (step, s)) for s in (step, -step))
    op = np.empty((2 * band, 2 * band))
    np.add(tc, hc, out=op[0::2, 0::2])  # cos cos
    np.subtract(tc, hc, out=op[1::2, 1::2])  # sin sin
    np.add(hs, ts.T, out=op[0::2, 1::2])  # cos (-sin)
    np.add(hs, ts, out=op[1::2, 0::2])  # (-sin) cos
    # L's scale, 2/n (1/n at modes 0 and n/2), times the 1/2 of the product-to-sum identities
    scale = np.full(2 * band, 1.0 / n)
    scale[:2] = 0.5 / n
    nyquist = n % 2 == 0 and band > n // 2
    if nyquist:
        scale[n : n + 2] = 0.5 / n
    op *= scale[:, None]
    for j in (0, n // 2) if nyquist else (0,):
        op[2 * j + 1] = 0.0
        op[:, 2 * j + 1] = 0.0
    return op


class _BandRows(NamedTuple):
    """One layout of `_band_pass` and its R rows.

    `mass` is the rows' real mass at the first time, (R, points); `means`
    the step means, (steps, R), step i moving row r by N(means[i-1, r],
    sd^2); `dx`, `length` and `band` the node spacing, padded row length and
    band K of the layout (`_kernel_layout`).  The cuts keep the nodes
    `start` = (a, b) at the first time, then each (a, b) of the iterator
    `ranges`, one a later time, and `end` at the end window; `floor` is the
    rows' floor in `_scaled_pass`.
    """

    mass: np.ndarray
    means: np.ndarray
    dx: float
    length: int
    band: int
    start: tuple[int, int]
    ranges: Iterator[tuple[int, int]]
    end: tuple[int, int]
    floor: float


def _cut_form(length: int, band: int, a: int, b: int, rows: int):
    """The cut of a band step that keeps the nodes [a, b) of a `length`-node
    row, K = `band`, for `rows` rows of modes: when fewer than K nodes are
    dropped, the factors (L, R) of the r dropped nodes (`_band_basis`) and
    a (rows, r) buffer, applied as I - L @ R at 4Kr multiply-adds a row (as
    when alias bands make K every mode); otherwise the dense (2K, 2K)
    operator L @ R of the kept nodes, in closed form (`_cut_operator`), at
    (2K)^2 a row."""
    if length - (b - a) < band:
        left, right = _band_basis(length, band, np.r_[0:a, b:length])
        return left, right, np.empty((rows, left.shape[1]))
    return _cut_operator(length, band, a, b)


def _apply_cut(form, uncut: np.ndarray, out: np.ndarray) -> None:
    """Cut the (rows, 2K) interleaved modes `uncut` into `out` by `form`
    (`_cut_form`)."""
    if isinstance(form, np.ndarray):
        uncut.dot(form, out=out)  # np.matmul's bits, without its ufunc overhead
        return
    left, right, lost = form
    np.matmul(uncut, left, out=lost)
    np.matmul(lost, right, out=out)
    np.subtract(uncut, out, out=out)


def _scaled_pass(state, floors: list, t0: int, n: int, times=()):
    """Carry the rows of `state` from time t0 to time n by the scaled forward
    algorithm with totals on demand: the one step loop of every pass.

    `state` holds the rows' mass at t0.  ``begin()`` cuts it to the nodes of
    time t0 and returns the rows' totals, as ``totals()`` does later;
    ``load(t, steps)`` readies the kernels and kept nodes of the run of steps
    t+1..t+steps (at most ``state.run``), and ``advance(ks)`` takes its steps
    k of `ks`, which follow the last taken; ``restore()`` brings back the
    state of the last ``load``, at its time; ``scale(q, e)`` multiplies row
    q by 2**-e, ``zero(q)`` clears it when it dies while another row lives,
    and ``end()`` cuts the rows to the end window and returns their totals.

    Totals are read after each run and at each time of `times` (which
    increase), where runs end.  A run after which a live row's total is
    below twice _RESCALE_BELOW, or below twice floors[q] of its total before
    the run, is restored and replayed with a total at every step.  Totals
    shrink over steps but for round-off, so each row is rescaled by an exact
    power of two at the step its total drops below _RESCALE_BELOW (a deep
    row neither underflows nor stalls on denormals, and no bit moves above
    it), and dies at the first time whose total is not positive, on the same
    steps and with the same bits as with a total at every step; and no cut
    of a run that is not replayed keeps less than floors[q] of the mass
    carried into it.  When `times` holds every time t0+1..n-1, every step's
    total is read and no run is replayed.

    Returns, one value a row: the final total and its exponent (the mass in
    the end window is final * 2**exp2; final is 0 where the row died), the
    last time reached and the smallest fraction of its mass the row kept
    between two reads of its total (below floors[q] just when one cut's
    is); then the totals at `times`, shape (rows, len(times)), on the linear
    scale and 0 from the time a row dies.
    """
    width = len(floors)
    # per row: the state's total (mass / 2**exp2) at the last time read, exp2,
    # the kept fraction, the last time reached and whether the row is alive;
    # the bookkeeping of a few rows is cheaper in Python than in numpy calls
    total, exp2, kept = [1.0] * width, [0] * width, [1.0] * width
    last, alive = [n] * width, [True] * width
    recorded = np.zeros((width, len(times)))
    col = 0  # times[col] is the first time of `times` not before the last time settled

    def settle(t: int, moved: list) -> None:
        """Time t's kept fractions (t0 moves nothing), totals at `times`,
        rescales and deaths, from its totals `moved`; t increases call by call."""
        nonlocal col
        col = bisect.bisect_left(times, t, col)
        read = col < len(times) and times[col] == t
        for q, m in enumerate(moved):
            if not alive[q]:
                continue
            if t > t0 and m < kept[q] * total[q]:
                kept[q] = m / total[q]
            if read:  # 0 for a negative total, which round-off can leave a band state
                recorded[q, col] = math.ldexp(max(0.0, m), exp2[q])
            if m < _RESCALE_BELOW:
                if m <= 0.0:
                    alive[q], last[q] = False, t
                    if any(alive):  # the pass goes on
                        state.zero(q)
                    continue
                e = math.frexp(m)[1]
                state.scale(q, e)
                exp2[q] += e
                m = math.ldexp(m, -e)
            total[q] = m

    settle(t0, state.begin())
    # a total at every time t0+1..n-1: no run is tried without
    eager = bisect.bisect_left(times, n) - bisect.bisect_right(times, t0) == n - t0 - 1
    low, floors = 2.0 * _RESCALE_BELOW, [2.0 * f for f in floors]
    t, j = t0, 0
    while t < n and any(alive):
        j = bisect.bisect_right(times, t, j)  # times[j] is the first time of `times` past t
        stop = times[j] if j < len(times) and times[j] < n else n
        steps = min(state.run, n - t if eager else stop - t)
        state.load(t, steps)
        if steps > 1 and not eager:
            state.advance(range(steps))
            moved = state.totals()
            if not any(live and (m < low or m < f * tot) for live, m, f, tot in zip(alive, moved, floors, total)):
                settle(t + steps, moved)
                t += steps
                continue
            state.restore()
        for k in range(steps):
            state.advance((k,))
            t += 1
            settle(t, state.totals())
            if not any(alive):
                break
    final = state.end() if any(alive) else [0.0] * width
    for q, live in enumerate(alive):
        if live:
            kept[q] = min(kept[q], final[q] / total[q])
        else:
            final[q] = 0.0
    return final, exp2, last, kept, recorded


class _BandState:
    """The rows of every layout of `_band_pass` as `_scaled_pass` carries
    them: at the first time a row's real mass, cut to the nodes `start`, and
    from the first run on the band modes of that mass (module docstring) as
    interleaved (real, imaginary) floats, whose total is the real part of
    mode 0.

    The modes of all layouts lie end to end in one array, so one complex
    multiply a step moves every row, and each layout's rows are a contiguous
    (R, 2K) view of it, cut by one (R, 2K) @ (2K, 2K) product of their own
    with the operator of the layout's kept nodes (`_cut_form`), built when
    they change: a row keeps every bit of a pass of its layout alone.
    (Zero-padding the layouts to one K and stacking their operators would
    not: OpenBLAS's gemv sums the columns four at a time, and the last two
    of 4m + 2 apart, so a padded row of odd K rounds differently.)  The
    uncut modes are kept too: the end window is one more cut of them, on the
    nodes both keep.  The kernels' transforms are built mode-major a block
    of steps at a time, into one buffer a layout allocated once a pass.
    """

    def __init__(self, layouts: list, sd: float, t0: int, n: int):
        self.layouts, self.sd, self.n, self.real = layouts, sd, n, True
        self.rows = rows = len(layouts[0].mass)
        self.bands = bands = [lay.band for lay in layouts]
        starts = np.cumsum([0] + [rows * k for k in bands]).tolist()  # complex entries before each layout
        width = starts[-1]
        modes = np.zeros((2, width), dtype=complex)
        self.cut_c, self.uncut_c = modes
        self.cut_f, uncut_f = modes.view(float)
        views = [(2 * s, 2 * e) for s, e in zip(starts, starts[1:])]
        self.cuts, self.uncuts = ([state[s:e].reshape(rows, -1) for s, e in views] for state in (self.cut_f, uncut_f))
        self.zeros = [2 * (s + r * k) for s, k in zip(starts, bands) for r in range(rows)]  # each row's mode 0 in cut_f
        self.saved = np.empty_like(self.cut_f)
        self.run = min(_CHECK_STEPS, _block_steps(width, _FFT_BLOCK_ENTRIES // 16))
        self.kernels = np.empty((self.run, width), dtype=complex)
        self.steps_of = [self.kernels[:, s:e].reshape(self.run, rows, k) for s, e, k in zip(starts, starts[1:], bands)]
        self.block = _block_steps(width, _FFT_BLOCK_ENTRIES)
        self.buffers = [np.empty(min(self.block, n - t0) * rows * k, dtype=complex) for k in bands]
        self.k_hats, self.j0, self.built = [], 0, 0  # k_hats: the mode-major transforms of steps j0..j0+built-1
        self.forms, self.held = [None] * len(layouts), [None] * len(layouts)  # each layout's `_cut_form` and the nodes it keeps

    def _cut_mass(self, windows: list) -> list:
        """Zero each layout's real mass outside its (a, b) of `windows`; the rows' totals."""
        for lay, (a, b) in zip(self.layouts, windows):
            lay.mass[:, :a] = 0.0
            lay.mass[:, b:] = 0.0
        return [m for lay in self.layouts for m in np.add.reduce(lay.mass, axis=-1).tolist()]

    def _keep(self, g: int, a: int, b: int) -> None:
        lay = self.layouts[g]
        self.forms[g], self.held[g] = _cut_form(lay.length, lay.band, a, b, self.rows), (a, b)

    def _fill(self, first: int, steps: int) -> None:
        """Copy the transforms of steps first..first+steps-1 into `kernels`."""
        rows, done = self.rows, 0
        while done < steps:
            i = first + done
            if not self.j0 <= i < self.j0 + self.built:
                self.j0, self.built = i, min(self.block, self.n + 1 - i)
                self.k_hats = [
                    _kernel_modes(lay.means[i - 1 : i - 1 + self.built], self.sd, lay.dx, lay.length, k, buf[: self.built * rows * k].reshape(k, -1))
                    for lay, k, buf in zip(self.layouts, self.bands, self.buffers)
                ]
            offset = i - self.j0
            part = min(steps - done, self.built - offset)
            for k_hat, k, out in zip(self.k_hats, self.bands, self.steps_of):
                columns = k_hat[:, offset * rows : (offset + part) * rows].reshape(k, part, rows)
                np.copyto(out[done : done + part], columns.transpose(1, 2, 0))
            done += part

    def begin(self) -> list:
        return self._cut_mass([lay.start for lay in self.layouts])

    def load(self, t: int, steps: int) -> None:
        if self.real:  # the first run: the modes of the real mass
            for lay, cut in zip(self.layouts, self.cuts):
                cut.view(complex)[...] = np.fft.rfft(lay.mass, lay.length)[:, : lay.band]
            self.real = False
        self._fill(t + 1, steps)
        self.ranges = [list(itertools.islice(lay.ranges, steps)) for lay in self.layouts]
        self.fixed = all(rng.count(held) == steps for rng, held in zip(self.ranges, self.held))
        np.copyto(self.saved, self.cut_f)

    def advance(self, ks) -> None:
        cut_c, uncut_c, kernels, forms = self.cut_c, self.uncut_c, self.kernels, self.forms
        if self.fixed and all(isinstance(form, np.ndarray) for form in forms):  # the usual case, inlined
            dots = [(uncut.dot, op, cut) for uncut, op, cut in zip(self.uncuts, forms, self.cuts)]
            for k in ks:
                np.multiply(cut_c, kernels[k], out=uncut_c)
                for dot, op, cut in dots:
                    dot(op, out=cut)
            return
        for k in ks:
            np.multiply(cut_c, kernels[k], out=uncut_c)
            for g, rng in enumerate(self.ranges):
                if not self.fixed and rng[k] != self.held[g]:
                    self._keep(g, *rng[k])
                _apply_cut(forms[g], self.uncuts[g], self.cuts[g])

    def totals(self) -> list:
        return self.cut_f.take(self.zeros).tolist()

    def restore(self) -> None:
        np.copyto(self.cut_f, self.saved)

    def _parts(self, q: int):
        g, r = divmod(q, self.rows)
        return (self.layouts[g].mass[r],) if self.real else (self.cuts[g][r], self.uncuts[g][r])

    def scale(self, q: int, e: int) -> None:
        for part in self._parts(q):
            np.ldexp(part, -e, out=part)

    def zero(self, q: int) -> None:
        for part in self._parts(q):
            part.fill(0.0)

    def end(self) -> list:
        if self.real:
            return self._cut_mass([lay.end for lay in self.layouts])
        for g, lay in enumerate(self.layouts):
            a, b = max(lay.end[0], self.held[g][0]), min(lay.end[1], self.held[g][1])
            if (a, b) != self.held[g]:
                self._keep(g, a, b)
            _apply_cut(self.forms[g], self.uncuts[g], self.cuts[g])
        return self.totals()


def _band_pass(layouts: list, sd: float, t0: int, n: int, times=()):
    """Carry the rows of every layout of `layouts` (`_BandRows`, R rows
    each) from time t0 to time n on the step kernel's Fourier band: each row
    is the `quench_dp` step-loop pass of a Gaussian law, run by
    `_scaled_pass` on a `_BandState` with its layout's `floor`.

    Returns `_scaled_pass`'s four lists as G lists of R values, one per
    layout and row, then its totals at `times`, shape (G, R, len(times)).
    The layouts' masses are updated in place.
    """
    count, rows = len(layouts), len(layouts[0].mass)
    floors = [lay.floor for lay in layouts for _ in range(rows)]
    *per_row, recorded = _scaled_pass(_BandState(layouts, sd, t0, n), floors, t0, n, times)
    per_layout = [[x[g * rows : (g + 1) * rows] for g in range(count)] for x in per_row]
    return (*per_layout, recorded.reshape(count, rows, len(times)))


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
    [-half, half]: the first step's bin masses, then `_band_pass` on every
    grid node, one row per replica, read at the checkpoints.
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
