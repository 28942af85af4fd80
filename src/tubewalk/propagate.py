"""The propagation engine of every deterministic estimator: one step driver,
the three states it carries, their kernels and the nodes they live on.

The exact lattice DP and the grid (`quench_dp`) and the Brownian
confinement profiles (`gamma`) all carry a sub-probability mass step by
step and cut it, at each time, to the nodes inside the tube.  Every pass
runs on one loop, `_scaled_pass`, whose docstring holds the rules for
rescaling, death and totals on demand, on one of three states:

* `_MassRow`, a real mass on nodes, which each step correlates with the
  step's kernel and cuts to the kept nodes, at size * width multiply-adds:
  the taps step.  Atom laws' kernels come from `_shift_kernels`, a move
  between two nodes split linearly between them; Gaussian ones from
  `_gauss_kernels`, read from a batched inverse FFT of their transform
  with round-off of about 1e-16 clipped at zero.
* `_BandState`, the band step of a Gaussian pass (`_band_pass`).  A
  Gaussian pass has one step sd and is laid out once, by `_kernel_layout`:
  its nodes sit at the head of a zero-padded row of length
  n = `_fast_len(points + reach)` (the smallest 2**a 3**b 5**c at least
  that long), where reach covers 8 sd plus the largest drift in nodes, so a
  circular convolution of the row equals the linear one on the nodes.  The
  step kernel's transform is written in closed form by Poisson summation
  (`_kernel_modes`); below an amplitude of 1e-17 it vanishes outside modes
  0..K-1, so those modes are all a step can reach, until sd/dx falls below
  about 2.8, where alias bands reach the top mode and K is every mode,
  n // 2 + 1.  The state is an array (rows, K) of modes; a step multiplies
  it by the kernel's transform and cuts each row back to its kept nodes
  with one real operator of band DFT rows (`_band_basis`); mass past either
  end falls in the padding and is dropped.  The operator is the dense
  (2K, 2K) L @ R of the kept nodes, written in closed form from Dirichlet
  sums (`_cut_operator`), at (2K)^2 multiply-adds a row, or, when fewer
  than K nodes are dropped (as when alias bands make K every mode),
  I - L @ R with the factors of the r dropped nodes, at 4Kr.  No
  real-space mass exists between steps, so none is clipped, and a row's
  total is its mode 0.  The first step's bin masses come from the same
  transform (`_bin_masses`), so no Gaussian CDF is evaluated.  A block of
  transforms holds at most _FFT_BLOCK_ENTRIES complex entries, so memory
  stays bounded however many rows or steps a pass has (`_run_bytes`).
* `_BlockRow`, the block route (`_blocks`) of an atom pass whose tube
  bounds are the same at every time, whose moves are whole numbers of
  nodes and whose table holds at most _TABLE_ENTRIES entries.  Given the
  environment the walk sits on one coset of gZ at each time (g the gcd of
  the moves' differences within a step: 4 for random shift at q = 2, 2 for
  Rademacher), so the mass is held on that coset's M slots of the kept
  range; a step's kernel is one of the law's D kinds (`env.atom_kinds`), so
  a block of _BLOCK steps is one of g * D**_BLOCK (M, M) matrices
  (`_block_tables`), looked up by the block's start coset and the steps'
  own codes (`env.atom_codes`), so the table depends on the law and the
  kept width only: the "Four Russians" table (Arlazarov, Dinic, Kronrod &
  Faradzev 1970).  One matvec advances a block; it sums in another order,
  so log p moves by an ulp or so against the step loop.

An atom pass lays its nodes out by `_lattice`, on the law's own lattice
where it has one.  `config.validate` sizes passes by this module's byte
counts.  It imports no tubewalk module but `results`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .results import Record

if TYPE_CHECKING:
    from .env import EnvRealization
    from .tube import TubeSpec

# Complex entries per block of kernel transforms, and the amplitude below
# which an alias of the kernel transform is dropped.  Transforms are built
# by batched calls with a fixed per-call cost (tens of numpy calls holding
# the interpreter lock), so a block is not made smaller.
_FFT_BLOCK_ENTRIES = 2**16
# Bytes one run may hold (runs are sequential; `config.validate` sizes each
# run against them), and the bytes of a float.
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
_BLOCK_ENTRIES = 2**14  # step-kernel entries built at a time
_RANGE_TIMES = 2**10  # times whose bounds, kept node ranges or block keys a pass works out at once
_BLOCK = 4  # steps a block-route matvec advances
_TABLE_ENTRIES = 2**17  # entries of the block route's table of _BLOCK steps, at most (1 MiB)
# Bytes of an atom pass's node: the node, the mass, a saved copy of it and the
# correlation's output (32.0 measured with tracemalloc at 6.0e6 and 1.3e7
# nodes, Rademacher steps on a constant and a moving tube); and of a Gaussian
# taps step's tap: the kernels' transform, inverse FFT and taps and the
# correlation's output (41 measured for kernels of 4e4-4e5 taps); and of a
# Gaussian pass's node, counted over its padded row (`_kernel_layout`'s
# length): the edges, nodes and mass, the first step's inverse FFT and
# indices, and the correlation's output and a saved copy of the mass, or the
# band's FFT (41.2-44.3 measured with tracemalloc over whole `survival_grid`
# runs on rows of 1.0e5-4.1e5 entries, taps steps on tubes 400 wide; 14-16
# where the band step runs on rows that are mostly padding).
_NODE_BYTES, _TAP_BYTES, _GRID_NODE_BYTES = 32, 48, 48
_NODE_CAP = _MEMORY_BUDGET // _NODE_BYTES
# An atom p lies on (1/q)Z when p*q is this close to a whole number; the exact
# DP rounds its moves there (`_lattice`), so a lattice is declared by this one
# rule (`env`).
_LATTICE_TOL = 1e-9
_LN2 = math.log(2.0)
# ndarray.sum's reduction, and bits, without its Python wrapper (a few
# hundred ns of a DP step's few us)
_sum = np.add.reduce


def _check_span(env: EnvRealization, tube: TubeSpec) -> None:
    if tube.f_offset + tube.n > env.length:
        raise IndexError(
            f"tube needs steps up to {tube.f_offset + tube.n}, environment has {env.length}"
        )


def _require_open_start(tube: TubeSpec, x0: float) -> None:
    lo, up = tube.bounds_at(0)
    if not lo < x0 < up:
        raise ValueError(f"x0={x0} is not strictly inside the tube ({lo}, {up}) at time 0")


def _kept(nodes: np.ndarray, lo, up):
    """Index ranges [a, b) of the (sorted) nodes inside each [lo, up], as lists; for
    float bounds, the one range: ``_kept(nodes, *tube.bounds_at(t))`` is the kept range at time t."""
    a = np.searchsorted(nodes, lo, "left")
    return a.tolist(), np.maximum(np.searchsorted(nodes, up, "right"), a).tolist()


def _end_nodes(nodes: np.ndarray, tube: TubeSpec) -> tuple[int, int]:
    """The index range [a, b) of the nodes in the tube's end window; every node when it has none."""
    end = tube.end_bounds()
    return (0, len(nodes)) if end is None else _kept(nodes, *end)


def _ranges(nodes: np.ndarray, tube: TubeSpec, t0: int):
    """(a, b): the index range of nodes inside the tube at times t0+1..n, its bounds read
    _RANGE_TIMES times at a time."""
    return itertools.chain.from_iterable(
        zip(*_kept(nodes, *tube.bounds_arrays(j, min(j + _RANGE_TIMES, tube.n + 1))))
        for j in range(t0 + 1, tube.n + 1, _RANGE_TIMES)
    )


def _cut(mass: np.ndarray, a: int, b: int) -> float:
    """Zero `mass` outside the nodes [a, b); its total."""
    mass[:a] = 0.0
    mass[b:] = 0.0
    return _sum(mass)


def _off_node(moves: np.ndarray) -> float:
    """Largest distance of a move from a whole number of nodes."""
    off = np.rint(moves)
    off -= moves
    return np.abs(off, out=off).max()


def _atom_nodes(q: int | None, dx: float, lo: float, up: float, x0: float) -> tuple[float, float, int, int]:
    """(num, den, jlo, count): an atom pass of spacing dx from x0 lays the `count` nodes x0 + j*num/den,
    j >= jlo, over [lo, up] and one past each end; the law's own lattice, dx == 1/q, as j/q for the DP's
    bits (j*(1/q) can miss j/q).  Scalar arithmetic: `_lattice` lays these nodes out, and `mc._bit_law`
    and `config` count them, all against _NODE_CAP."""
    num, den = (1.0, q) if q is not None and dx == 1.0 / q else (dx, 1.0)
    jlo = int(math.ceil((lo - x0) * den / num)) - 1
    return num, den, jlo, int(math.floor((up - x0) * den / num)) + 2 - jlo


def _lattice(env: EnvRealization, tube: TubeSpec, x0: float, dx: float):
    """(nodes, moves, start, codes, whole): `_atom_nodes`' nodes over the tube's `extent`;
    moves[c, a] = atom a of kind c in nodes; start = the index of x0; codes[i] = the kind of
    step i + 1; whole = every move lies within _LATTICE_TOL of a whole number of nodes, and
    then it is rounded there.  Only the law's D kinds are scaled and checked.  More than
    _NODE_CAP nodes raise ValueError before any is laid out."""
    num, den, jlo, count = _atom_nodes(env.lattice_q, dx, *tube.extent(), x0)
    if count > _NODE_CAP:
        raise ValueError(f"tube spans {count} nodes, more than the {_NODE_CAP} an atom pass may hold")
    moves = env.atom_kinds * den
    moves /= num
    whole = _off_node(moves) <= _LATTICE_TOL
    if whole:
        np.rint(moves, out=moves)
    codes = env.atom_codes[tube.f_offset : tube.f_offset + tube.n]
    return x0 + np.arange(jlo, jlo + count) * num / den, moves, -jlo, codes, whole


def _grid_spacing(env, span: float, grid_points: int) -> float:
    """The grid's spacing for the law of `env` (a realisation or its spec; only `lattice_q` is read):
    its lattice's 1/q where that lays at most max(5e6, grid_points) nodes over `span`, else span/grid_points."""
    q = env.lattice_q
    if q is not None and span * q <= max(5_000_000, grid_points):
        return 1.0 / q
    return span / grid_points


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


def _run_bytes(grid_points: int, n: int, band: int, batch: int) -> int:
    """Bytes `gamma._confinement_profiles` holds at most for `batch`
    replicas on a layout from `gamma._layout`, besides the drifts passed in.

    The cut (`_cut_form`): when the r = n - grid_points padding entries are
    fewer than K, its factors, three (2K, r) factors' worth while built, and
    a (batch, r) product; else the dense (2K)^2 operator and as much again,
    and three factors' worth of basis rows for _BASIS_ENTRIES entries, which
    bound the closed-form operator's O(K) temporaries.  Five (batch, n)
    float rows bound the state with the first step's FFTs, and four blocks
    of complex entries the step kernels: the mode-major block of transforms,
    held for the pass, an alias term and the steps copied out of the block
    (in the first step, the transforms' transposed copy).  Scalar arithmetic
    only.
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


def _shift_kernels(moves: np.ndarray, codes: np.ndarray, weights: np.ndarray, size: int):
    """Step kernels for atom laws on a window of `size` nodes.

    Step j moves mass by ``moves[codes[j], a]`` nodes with probability
    ``weights[a]``; a move between two nodes is split linearly between
    them.  Moves of a whole window or more carry nothing into it and are
    dropped.  One kernel is built per kind, its width set by the kinds the
    steps use, and each step's row is gathered by its code.  Returns (width,
    r, block, build) as `_MassRow` takes them.
    """
    counts = sum(  # a chunk at a time: bincount copies its input as intp
        np.bincount(codes[j : j + _RANGE_TIMES], minlength=len(moves)) for j in range(0, len(codes), _RANGE_TIMES)
    )
    used = moves[counts > 0]
    low = min(max(math.floor(used.min()), 1 - size), 0)
    high = max(min(math.ceil(used.max()), size - 1), 0)
    width = high - low + 1
    whole = np.floor(moves)
    frac = moves - whole
    kern = np.zeros((len(moves), width))
    rows = np.arange(len(moves))
    for a in range(moves.shape[1]):
        w = weights[a]
        for shift, wf in ((whole[:, a], w * (1.0 - frac[:, a])), (whole[:, a] + 1, w * frac[:, a])):
            ok = (shift >= low) & (shift <= high)
            kern[rows[ok], (high - shift[ok]).astype(np.intp)] += wf[ok]
    return width, -low, _block_steps(width, _BLOCK_ENTRIES), lambda j0, j1: kern[codes[j0:j1]]


def _gauss_kernels(means: np.ndarray, sd: float, dx: float, hw: int):
    """Step kernels of N(means[j], sd^2) steps j + 1 on nodes of spacing dx, 2 hw + 1 taps each, as
    `_MassRow` takes them: inverse FFTs of their transforms on `_fast_len` taps (`_bin_masses`)."""
    width = 2 * hw + 1
    taps = _fast_len(width)
    band = _band_modes(sd / dx, taps)
    # tap t of a reversed kernel is the mass a N(m, s^2) step puts hw - t
    # cells on, i.e. the mass a N(-m, s^2) step puts t - hw on
    return width, hw, _block_steps(width, _FFT_BLOCK_ENTRIES), lambda j0, j1: _bin_masses(-means[j0:j1], sd, dx, taps, band, -hw, width)


class _MassRow:
    """The real mass on `nodes` of a pass from time t0, updated in place as
    `_scaled_pass` carries it: cut to the nodes inside `tube` at each time
    (`_ranges`), moved by the step's kernel between them, and cut to the end
    window at the end; its total is its sum.  ``build(j0, j1)`` of `kernels`
    (width, r, block, build) gives the kernels of steps j0+1..j1, reversed,
    built `block` steps at a time from t0; step i takes the mass to
    ``np.convolve(mass, kernel_i)[r : r + size]`` on the nodes it keeps.
    The mass is at time `i` and zero outside the nodes `held`; a step reads
    its kernel by its time, so ``restore`` also goes back across a block."""

    def __init__(self, mass: np.ndarray, nodes: np.ndarray, tube: TubeSpec, t0: int, kernels):
        width, self.r, self.block, self.build = kernels
        self.mass, self.t0, self.n, self.run = mass, t0, tube.n, _CHECK_STEPS
        self.held, self.window = _kept(nodes, *tube.bounds_at(t0)), _end_nodes(nodes, tube)
        self.ranges = _ranges(nodes, tube, t0)
        self.saved = np.empty_like(mass)
        self.i, self.j0, self.rows = t0, t0 - self.block, None  # rows[k] is the kernel of step j0 + k + 1
        # np.correlate with a reversed kernel gives np.convolve's bits without
        # its wrapper, as long as the kernel is not the longer operand
        self.narrow = width <= len(mass)

    def begin(self) -> list:
        return [_cut(self.mass, *self.held)]

    def load(self, t: int, steps: int) -> None:
        self.cuts, self.back = list(itertools.islice(self.ranges, steps)), (t, self.held)
        np.copyto(self.saved, self.mass)

    def advance(self, ks) -> None:
        mass, cuts, r, narrow, block = self.mass, self.cuts, self.r, self.narrow, self.block
        i, j0, rows = self.i, self.j0, self.rows
        live_lo, live_up = self.held
        for k in ks:
            if not 0 <= i - j0 < block:
                j0 = i - (i - self.t0) % block
                rows = self.build(j0, min(j0 + block, self.n))
            kernel = rows[i - j0]
            i += 1
            full = np.correlate(mass, kernel, "full") if narrow else np.convolve(mass, kernel[::-1])
            a, b = cuts[k]
            if a > live_lo:
                mass[live_lo : min(a, live_up)] = 0.0
            if b < live_up:
                mass[max(b, live_lo) : live_up] = 0.0
            mass[a:b] = full[r + a : r + b]
            live_lo, live_up = a, b
        self.i, self.j0, self.rows, self.held = i, j0, rows, (live_lo, live_up)

    def totals(self) -> list:
        return [_sum(self.mass)]

    def restore(self) -> None:
        np.copyto(self.mass, self.saved)
        self.i, self.held = self.back

    def scale(self, q: int, e: int) -> None:
        np.ldexp(self.mass, -e, out=self.mass)

    def end(self) -> list:
        return [_cut(self.mass, *self.window)]


def _log_mass(final: float, exp2: int) -> float:
    """log(final * 2**exp2); -inf when final is not positive."""
    if final <= 0.0:
        return -math.inf
    linear = math.ldexp(final, exp2)
    if linear >= sys.float_info.min:
        return math.log(linear)
    return math.log(final) + exp2 * _LN2


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


class _BandRows(Record, eq=False):
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
    is a Gaussian pass, run by `_scaled_pass` on a `_BandState` with its
    layout's `floor`.

    Returns `_scaled_pass`'s four lists as G lists of R values, one per
    layout and row, then its totals at `times`, shape (G, R, len(times)).
    The layouts' masses are updated in place.
    """
    count, rows = len(layouts), len(layouts[0].mass)
    floors = [lay.floor for lay in layouts for _ in range(rows)]
    *per_row, recorded = _scaled_pass(_BandState(layouts, sd, t0, n), floors, t0, n, times)
    per_layout = [[x[g * rows : (g + 1) * rows] for g in range(count)] for x in per_row]
    return (*per_layout, recorded.reshape(count, rows, len(times)))


def _block_tables(rows: list, weights: np.ndarray, g: int, width: int):
    """The block route's tables (mats, prefix) of 1 and _BLOCK steps on a kept range of `width`
    nodes, slot i of coset c being its node c + g*i (if < width).  Entry c*D**L + p, p the L
    steps' kernel codes in base D (first step first), holds the (M, M) matrix that carries a
    mass on coset c through the L steps and the (L, M) rows whose product with it is its total
    after each.  Each level applies a step to the level before: one shifted add per (coset,
    kernel, atom), the step's own arithmetic on the unit vectors."""
    size = -(-width // g)
    inside = np.arange(g)[:, None] + g * np.arange(size) < width
    mats, ends, sums, tables = (np.eye(size) * inside[:, None])[:, None], np.arange(g)[:, None], [], []
    for level in range(1, _BLOCK + 1):
        new = np.zeros((g, mats.shape[1], len(rows), size, size))
        for c, (d, row) in itertools.product(range(g), enumerate(rows)):
            here, to = ends == c, (c + row[0]) % g
            out = np.zeros_like(src := mats[here])
            for m, w in zip(row, weights):
                s = max(-size, min(size, (c + m - to) // g))  # out[i + s] += w * src[i]
                out[:, max(s, 0) : size + min(s, 0)] += w * src[:, max(-s, 0) : size - max(s, 0)]
            new[:, :, d][here] = out * inside[to][:, None]
        mats = new.reshape(g, -1, size, size)
        ends = ((ends[:, :, None] + [row[0] for row in rows]) % g).reshape(g, -1)
        sums.append(mats.sum(axis=2))
        if level in (1, _BLOCK):
            p = np.arange(mats.shape[1])
            prefix = np.stack([t[:, p // len(rows) ** (level - 1 - j)] for j, t in enumerate(sums)], axis=2)
            tables.append((mats.reshape(-1, size, size), prefix.reshape(-1, level, size)))
    return tables


def _blocks(nodes, moves, codes, weights, tube: TubeSpec, start: int, whole: bool = True):
    """The block route's `_BlockRow` for a pass from node `start` (module docstring), or None
    where the route does not apply.  `moves`, `codes` and `whole` are `_lattice`'s.  The kept
    range starts at node a and holds `size` slots of each coset, slot i of coset c being node
    a + c + g*i.  The state's `chunks` yields (table, keys, blocks, coset) for _RANGE_TIMES steps
    at a time: `_block_tables`' table of _BLOCK steps (of one step for the last n mod _BLOCK),
    the blocks' keys into it, worked out from `codes`, each block's matvec (its entry's bound
    np.dot: its bits, a third faster) and prefix rows, and the coset after them."""
    lo_min, lo_max, up_min, up_max = tube.extremes()
    if not whole or lo_min < lo_max or up_min < up_max:
        return None
    rows = moves.astype(int).tolist()
    a, b = _kept(nodes, *tube.bounds_at(0))
    kinds = len(rows)
    g = math.gcd(*(m - row[0] for row in rows for m in row[1:])) or b - a
    size = -(-(b - a) // g)
    if g * kinds**_BLOCK * size**2 > _TABLE_ENTRIES:
        return None
    one, block = _block_tables(rows, weights, g, b - a)
    first, whole = moves[:, 0].astype(int), len(codes) - len(codes) % _BLOCK

    def chunks(coset: int):
        known = {}  # by steps: the blocks of the table's entries met so far
        spans = ((j, min(j + _RANGE_TIMES, whole), block, _BLOCK) for j in range(0, whole, _RANGE_TIMES))
        for j0, j1, (mats, prefix), steps in itertools.chain(spans, [(whole, len(codes), one, 1)]):
            part = codes[j0:j1]
            cosets = np.cumsum(np.r_[coset, first[part]]) % g  # at the times j0..j1
            coset = int(cosets[-1])
            pattern = part.reshape(-1, steps) @ kinds ** np.arange(steps - 1, -1, -1)
            keys = (cosets[:-1:steps] * kinds**steps + pattern).tolist()
            seen = known.setdefault(steps, {})
            seen.update({key: (mats[key].dot, prefix[key]) for key in set(keys).difference(seen)})
            yield (mats, prefix), keys, [seen[key] for key in keys], coset

    ea, eb = _end_nodes(nodes, tube)
    windows = [slice(max(0, -(-(ea - a - c) // g)), max(0, -(-(eb - a - c) // g))) for c in range(g)]
    return _BlockRow((np.arange(size) == (start - a) // g) * 1.0, chunks(start - a), windows)


class _BlockRow:
    """The block route's mass as `_scaled_pass` carries it: on its coset's slots at the
    start of block i, `done` steps into it, with `_blocks`' `chunks` and the end window's slots
    on each coset.  A total inside a block is that step's row of one np.dot of the block's
    prefix rows and the mass; the block's matvec moves the mass when the next block starts, and
    `end` applies the last one and keeps the window's slots.  A run is 256 steps, as the work
    of `_scaled_pass` a run is about a matvec's, and a replay redoes one run."""

    run = 256

    def __init__(self, mass: np.ndarray, chunks, windows: list):
        self.mass, self.chunks, self.windows = mass, chunks, windows
        self.blocks, self.i, self.done = [], 0, 0

    def begin(self) -> list:
        return [_sum(self.mass)]

    def load(self, t: int, steps: int) -> None:
        del self.blocks[: self.i]
        self.i = 0  # a block is a step or more, so steps + 1 blocks hold the run
        while len(self.blocks) <= steps and (chunk := next(self.chunks, None)) is not None:
            *_, more, self.coset = chunk
            self.blocks += more
        self.back = self.mass, self.i, self.done

    def advance(self, ks) -> None:
        self.done += len(ks)  # the steps since block i began
        while self.done > len(self.blocks[self.i][1]):
            self.done -= len(self.blocks[self.i][1])
            self.mass = self.blocks[self.i][0](self.mass)
            self.i += 1

    def totals(self) -> list:
        return [np.dot(self.blocks[self.i][1], self.mass)[self.done - 1]]

    def restore(self) -> None:
        self.mass, self.i, self.done = self.back

    def scale(self, q: int, e: int) -> None:
        self.mass = np.ldexp(self.mass, -e)

    def end(self) -> list:
        return [_sum(self.blocks[self.i][0](self.mass)[self.windows[self.coset]])]  # the last matvec, then the window
