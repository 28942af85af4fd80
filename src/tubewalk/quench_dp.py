"""Deterministic tube-survival computation: exact lattice DP and grid propagation.

Both estimators evolve the quenched sub-probability measure of the surviving
walk one step at a time, killing mass outside the tube.  Tube membership
uses closed intervals, so boundary-exact hits survive.  Every pass runs on
one loop, `gamma._scaled_pass`, which holds the rules for rescaling, death
and totals on demand, on one of three states: a real mass (`_MassRow`, atom
passes and the Gaussian taps step), which each step moves by its kernel and
cuts to the nodes inside the tube; the Gaussian band's modes
(`gamma._band_pass`); or the block route's mass (`_BlockRow`).

An atom pass takes the block route (`_blocks`) where the tube's bounds are
the same at every time, every move is a whole number of nodes and the table
holds at most _TABLE_ENTRIES entries.  Given the environment the walk sits on
one coset of gZ at each time (g the gcd of the moves' differences within a
step: 4 for random shift at q = 2, 2 for Rademacher), so the mass is held on
that coset's M slots of the kept range; a step's kernel is one of the law's
D kinds (`env.atom_kinds`), so a block of _BLOCK steps is one of g * D**_BLOCK
(M, M) matrices (`_block_tables`), looked up by the block's start coset and
the steps' own codes (`env.atom_codes`), so the table depends on the law and
the kept width only: the "Four Russians" table (Arlazarov, Dinic, Kronrod &
Faradzev 1970).  One matvec advances a block; it sums in another order, so
log p moves by an ulp or so against the step loop.

``survival_dp_lattice`` is exact (up to float summation) for environments
whose atoms live on a lattice (1/q)Z and serves as the oracle for the
Monte Carlo estimators.  ``survival_brute_force`` is the independent
enumeration oracle used to certify the DP on small instances.
``survival_grid`` handles Gaussian step laws by bin-edge transition masses
on a uniform grid; atom laws run the DP's own pass, on the lattice when
the law has one (so the grid gives the DP's bits), else on span/grid_points
nodes with each move split linearly.  A Gaussian pass has one step sd
(sds that vary over the tube's steps are refused) and one layout
(`gamma._kernel_layout`): reach hw, padded length and band K.  Its masses,
of the first step's point source and of every step kernel, come from the
closed-form transform gamma uses (`gamma._kernel_modes`), which vanishes
below 1e-17 outside its first K modes.  A Gaussian pass takes one of two
steps, whichever needs fewer multiply-adds:

* the band step (`gamma._band_pass`, the pass gamma's replicas run as
  rows), at (2K)^2 a step: the state is the first K real-DFT modes of the
  mass zero-padded past the kernel's reach, a step multiplies them by the
  kernel's transform and cuts them to the nodes inside the tube with a
  dense (2K, 2K) operator, written in closed form for each range of kept
  nodes (or, when fewer than K nodes are dropped, with the factors of the
  dropped nodes, at 4Kr).  `survival_grid` runs its two resolutions as two
  layouts of one pass when both take the band (`gamma._BandState`), each
  with the bits of a pass of its own;
* the taps step (`_correlate_step`, the atom laws' step too), at
  size * (2 hw + 1): each kernel is read from a batched inverse FFT of its
  transform, with round-off of about 1e-16 clipped at zero, and applied by
  direct correlation.

The band runs when (2K)^2 < size * (2 hw + 1) and its operator holds at
most _BAND_ENTRIES entries (`_band_is_cheaper`).  On the Gaussian builtin
at 400 nodes (n = 400-6400, K = 31-57, 295-649 taps) a band pass costs
2.9-4.1 us a step, and the pass of both resolutions 5.3-7.1 us a step,
against 24-46 us with the taps (a 2-vCPU VM, one BLAS thread, fastest of
several passes); narrow kernels on wide tubes keep the taps (N(m, 0.5^2)
steps on 300 nodes over a span of 37: K = 127 against 81 taps).  Both steps carry round-off of about 5e-15 of the peak
mass into every node; a cut that keeps so little of the mass carried into
it that this round-off, over the grid's nodes, exceeds _ROUNDOFF_REL of
what it kept flags the estimate ``grid_roundoff``.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .env import _LATTICE_TOL, EnvRealization
from .gamma import _CHECK_STEPS, _FFT_BLOCK_ENTRIES, _MEMORY_BUDGET, _BandRows, _band_modes, _band_pass
from .gamma import _bin_masses, _block_steps, _fast_len, _kernel_layout, _scaled_pass
from .results import (
    METHOD_BRUTE_FORCE,
    METHOD_DP_LATTICE,
    METHOD_GRID,
    SurvivalEstimate,
    from_log,
)
from .tube import TubeSpec

_BRUTE_LIMIT = 64_000_000  # max enumerated paths
_BLOCK_ENTRIES = 2**14  # step-kernel entries built at a time
_RANGE_TIMES = 2**10  # times whose bounds, kept node ranges or block keys a pass works out at once
_BLOCK = 4  # steps a block-route matvec advances
_TABLE_ENTRIES = 2**17  # entries of the block route's table of _BLOCK steps, at most (1 MiB)
_BAND_ENTRIES = 2**16  # entries of a Gaussian band step's dense cut operator, at most
# Bytes of an atom pass's node: the node, the mass, a saved copy of it and the
# correlation's output (32.0 measured with tracemalloc at 6.0e6 and 1.3e7
# nodes, Rademacher steps on a constant and a moving tube); and of a Gaussian
# taps step's tap: the kernels' transform, inverse FFT and taps and the
# correlation's output (41 measured for kernels of 4e4-4e5 taps); and of a
# Gaussian pass's node, counted over its padded row (`gamma._kernel_layout`'s
# length): the edges, nodes and mass, the first step's inverse FFT and
# indices, and the correlation's output and a saved copy of the mass, or the
# band's FFT (41.2-44.3 measured with tracemalloc over whole `survival_grid`
# runs on rows of 1.0e5-4.1e5 entries, taps steps on tubes 400 wide; 14-16
# where the band step runs on rows that are mostly padding).
_NODE_BYTES, _TAP_BYTES, _GRID_NODE_BYTES = 32, 48, 48
_NODE_CAP = _MEMORY_BUDGET // _NODE_BYTES
# A Gaussian pass carries round-off of about 5e-15 of the peak mass into
# every node (measured on the tails of FFT-built masses).  A cut that keeps
# the fraction `kept` of the mass carried into it is flagged when that
# round-off, summed over the nodes, exceeds _ROUNDOFF_REL of what it kept.
_ROUNDOFF_PER_NODE = 5e-15
_ROUNDOFF_REL = 1e-6
_LN2 = math.log(2.0)
# ndarray.sum's reduction, and bits, without its Python wrapper (a few
# hundred ns of a DP step's few us)
_sum = np.add.reduce


class NonLatticeError(ValueError):
    """Environment steps are not all on a common lattice; use survival_grid."""


def xi_log_factor(env: EnvRealization, tube: TubeSpec) -> float:
    """log Prod_i P(xi_i <= r_n) over the indices f(n)..f(n)+n (f(n) only if >= 1).

    The xi_i are independent of the walk given the environment, so every
    estimator multiplies the walk's survival by this one factor.
    """
    if tube.xi_threshold is None:
        return 0.0
    cdf = env.xi_cdf(tube.xi_threshold)
    if cdf <= 0.0:
        return -math.inf
    return (tube.n + (tube.f_offset >= 1)) * math.log(cdf)


def _check_span(env: EnvRealization, tube: TubeSpec) -> None:
    if tube.f_offset + tube.n > env.length:
        raise IndexError(
            f"tube needs steps up to {tube.f_offset + tube.n}, environment has {env.length}"
        )


def _require_open_start(tube: TubeSpec, x0: float) -> None:
    lo, up = tube.bounds_at(0)
    if not lo < x0 < up:
        raise ValueError(f"x0={x0} is not strictly inside the tube ({lo}, {up}) at time 0")


def _kept(nodes: np.ndarray, lo, up) -> tuple[list[int], list[int]]:
    """Index ranges [a, b) of the (sorted) nodes inside each [lo, up]."""
    a = np.searchsorted(nodes, lo, "left")
    return a.tolist(), np.maximum(np.searchsorted(nodes, up, "right"), a).tolist()


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


def _shift_kernels(moves: np.ndarray, codes: np.ndarray, weights: np.ndarray, size: int):
    """Step kernels for atom laws on a window of `size` nodes.

    Step j moves mass by ``moves[codes[j], a]`` nodes with probability
    ``weights[a]``; a move between two nodes is split linearly between
    them.  Moves of a whole window or more carry nothing into it and are
    dropped.  One kernel is built per kind, its width set by the kinds the
    steps use, and each step's row is gathered by its code.  Returns (width,
    r, block, build) as `_correlate_step` takes them.
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


def _correlate_step(kernels, t0: int, n: int, size: int):
    """The step of a `_MassRow` that correlates the mass on `size` nodes with
    each step's kernel.

    ``build(j0, j1)`` of the `kernels` tuple (width, r, block, build) gives
    the kernels of steps j0+1..j1 as rows, each reversed, in blocks of
    `block` steps from t0; ``step(mass, a, b)`` takes the mass, in place, to
    ``np.convolve(mass, kernel_i)[r : r + size]`` on the nodes [a, b) it
    keeps, and zero elsewhere.  The step reads kernel i by its index, so
    ``step.rewind(i, a, b)``, called once the mass holds its state of time i
    again (cut to the nodes [a, b)), takes the pass back to time i, also
    across a block.
    """
    width, r, block, build = kernels
    # np.correlate with a reversed kernel gives np.convolve's bits without
    # its wrapper, as long as the kernel is not the longer operand
    narrow = width <= size
    i = t0  # the mass is at time i
    j0, rows = t0 - block, None  # rows[k] is the kernel of step j0 + k + 1
    live_lo, live_up = 0, size  # the mass is zero outside [live_lo, live_up)

    def step(mass, a, b):
        nonlocal i, j0, rows, live_lo, live_up
        k = i - j0
        if not 0 <= k < block:
            j0 = i - (i - t0) % block
            rows = build(j0, min(j0 + block, n))
            k = i - j0
        kernel = rows[k]
        i += 1
        full = np.correlate(mass, kernel, "full") if narrow else np.convolve(mass, kernel[::-1])
        if a > live_lo:
            mass[live_lo : min(a, live_up)] = 0.0
        if b < live_up:
            mass[max(b, live_lo) : live_up] = 0.0
        mass[a:b] = full[r + a : r + b]
        live_lo, live_up = a, b

    def rewind(time: int, a: int, b: int) -> None:
        nonlocal i, live_lo, live_up
        i, live_lo, live_up = time, a, b

    step.rewind = rewind
    return step


class _MassRow:
    """The real mass on `nodes` of a pass from time t0, updated in place as
    `gamma._scaled_pass` carries it: cut to the nodes inside `tube` at each
    time (`_ranges`), moved by `step` (`_correlate_step`) between them, and
    to the tube's end window (all nodes when it has none) at the end; its
    total is its sum."""

    def __init__(self, mass: np.ndarray, nodes: np.ndarray, tube: TubeSpec, t0: int, step):
        (a,), (b,) = _kept(nodes, *tube.bounds_arrays(t0, t0 + 1))
        end = tube.end_bounds()
        self.window = _kept(nodes, end[:1], end[1:]) if end is not None else ((0,), (len(nodes),))
        self.mass, self.step, self.held, self.run = mass, step, (a, b), _CHECK_STEPS
        self.ranges = _ranges(nodes, tube, t0)
        self.saved = np.empty_like(mass)

    def begin(self) -> list:
        return [_cut(self.mass, *self.held)]

    def load(self, t: int, steps: int) -> None:
        self.cuts, self.back = list(itertools.islice(self.ranges, steps)), (t, *self.held)
        np.copyto(self.saved, self.mass)

    def advance(self, ks) -> None:
        for k in ks:
            self.step(self.mass, *self.cuts[k])
        self.held = self.cuts[ks[-1]]

    def totals(self) -> list:
        return [_sum(self.mass)]

    def restore(self) -> None:
        np.copyto(self.mass, self.saved)
        self.step.rewind(*self.back)
        self.held = self.back[1:]

    def scale(self, q: int, e: int) -> None:
        np.ldexp(self.mass, -e, out=self.mass)

    def end(self) -> list:
        (a,), (b,) = self.window
        return [_cut(self.mass, a, b)]


def _log_mass(final: float, exp2: int) -> float:
    """log(final * 2**exp2); -inf when final is not positive."""
    if final <= 0.0:
        return -math.inf
    linear = math.ldexp(final, exp2)
    if linear >= sys.float_info.min:
        return math.log(linear)
    return math.log(final) + exp2 * _LN2


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
    (a,), (b,) = _kept(nodes, *tube.bounds_arrays(0, 1))
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

    end = tube.end_bounds()
    (ea,), (eb,) = _kept(nodes, end[:1], end[1:]) if end is not None else ((0,), (len(nodes),))
    windows = [slice(max(0, -(-(ea - a - c) // g)), max(0, -(-(eb - a - c) // g))) for c in range(g)]
    return _BlockRow((np.arange(size) == (start - a) // g) * 1.0, chunks(start - a), windows)


class _BlockRow:
    """The block route's mass as `gamma._scaled_pass` carries it: on its coset's slots at the
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


def _atom_pass(env: EnvRealization, tube: TubeSpec, x0: float, dx: float, return_running=False, exact=False):
    """Propagate an atom law from x0 on `_lattice`'s nodes; (log_p, running, size, last).
    The pass carries `_blocks`' `_BlockRow` where the route applies, else a `_MassRow`; without
    `return_running`, running is None.  With `exact` (the DP), a move off the nodes raises
    NonLatticeError instead of being split between them."""
    nodes, moves, start, codes, whole = _lattice(env, tube, x0, dx)
    if exact and not whole:
        q = env.lattice_q
        raise NonLatticeError(f"atom positions do not lie on the lattice (1/{q})Z; use survival_grid")
    row = _blocks(nodes, moves, codes, env.atom_w, tube, start, whole)
    if row is None:
        mass = np.zeros(len(nodes))
        mass[start] = 1.0
        step = _correlate_step(_shift_kernels(moves, codes, env.atom_w, len(nodes)), 0, tube.n, len(nodes))
        row = _MassRow(mass, nodes, tube, 0, step)
    times = range(1, tube.n + 1) if return_running else ()
    (final,), (exp2,), (last,), _, totals = _scaled_pass(row, [0.0], 0, tube.n, times)
    running = np.r_[1.0, totals[0]] if return_running else None
    return _log_mass(final, exp2) + xi_log_factor(env, tube), running, len(nodes), last


def survival_dp_lattice(
    env: EnvRealization, tube: TubeSpec, x0: float, return_running: bool = False
) -> SurvivalEstimate | tuple[SurvivalEstimate, np.ndarray]:
    """Exact quenched survival probability for lattice environments.

    Tracks mass on the lattice x0 + (1/q)Z restricted to the tube; the
    result is exact up to floating-point summation error and fully
    deterministic.
    """
    if env.kind != "atoms" or env.lattice_q is None:
        raise NonLatticeError("environment steps are not lattice atom laws; use survival_grid")
    _check_span(env, tube)
    _require_open_start(tube, x0)
    log_p, running, size, _ = _atom_pass(env, tube, x0, 1.0 / env.lattice_q, return_running, exact=True)
    est = from_log(log_p, METHOD_DP_LATTICE, tube.n * size)
    return (est, running) if return_running else est


def survival_brute_force(env: EnvRealization, tube: TubeSpec, x0: float) -> SurvivalEstimate:
    """Exhaustive path enumeration; the independent oracle for small n.

    Paths accumulate increments in the same float order as a sampled walk,
    so it is directly comparable with both the DP and the Monte Carlo
    estimators.
    """
    if env.kind != "atoms":
        raise ValueError("brute force enumeration needs finite-support step laws")
    _check_span(env, tube)
    _require_open_start(tube, x0)
    lo, up = tube.bounds_arrays()
    n, f = tube.n, tube.f_offset
    pos = np.array([x0])
    pr = np.array([1.0])
    work = 0
    for i in range(1, n + 1):
        step_pos = env.atom_kinds[env.atom_codes[f + i - 1]]
        if len(pos) * len(step_pos) > _BRUTE_LIMIT:
            raise ValueError(f"enumeration would exceed {_BRUTE_LIMIT} paths; reduce n")
        pos = (pos[:, None] + step_pos[None, :]).ravel()
        pr = (pr[:, None] * env.atom_w[None, :]).ravel()
        work += len(pos)
        keep = (pos >= lo[i]) & (pos <= up[i])
        pos, pr = pos[keep], pr[keep]
        if len(pos) == 0:
            return from_log(-math.inf, METHOD_BRUTE_FORCE, work)
    end = tube.end_bounds()
    if end is not None:
        keep = (pos >= end[0]) & (pos <= end[1])
        pr = pr[keep]
    total = pr.sum()
    log_p = math.log(total) + xi_log_factor(env, tube) if total > 0 else -math.inf
    return from_log(log_p, METHOD_BRUTE_FORCE, work)


def _grid_spacing(env, span: float, grid_points: int) -> float:
    """The grid's spacing for the law of `env` (a realisation or its spec; only `lattice_q` is read):
    its lattice's 1/q where that lays at most max(5e6, grid_points) nodes over `span`, else span/grid_points."""
    q = env.lattice_q
    if q is not None and span * q <= max(5_000_000, grid_points):
        return 1.0 / q
    return span / grid_points


def _band_is_cheaper(band: int, size: int, width: int) -> bool:
    """Whether a Gaussian pass of band K on `size` nodes takes the band step
    rather than `width` taps: (2K)^2 < size * width multiply-adds a step, and
    the operator holds at most _BAND_ENTRIES entries."""
    return (2 * band) ** 2 < size * width and (2 * band) ** 2 <= _BAND_ENTRIES


def _grid_passes(env: EnvRealization, tube: TubeSpec, x0: float, resolutions, return_running=False):
    """One propagation pass at each grid size of `resolutions`: a list of
    (log_p, running, work, roundoff), one a size.

    The running totals are None except for the first size, with
    `return_running`.  ``roundoff`` is True when a Gaussian cut kept so
    little of the mass carried into it that the round-off of its nodes may
    exceed _ROUNDOFF_REL of what it kept.  The Gaussian passes that take the
    band step run as the layouts of one `gamma._band_pass`.
    """
    n, f = tube.n, tube.f_offset
    env_lo, env_up = tube.extent()
    sizes = [(points, _grid_spacing(env, env_up - env_lo, points)) for points in resolutions]
    out = []
    if env.kind == "atoms":
        for j, (_, dx) in enumerate(sizes):
            log_p, running, size, last = _atom_pass(env, tube, x0, dx, return_running and not j)
            out.append((log_p, running, last * size, False))
        return out
    means = env.quenched_mean[f : f + n]
    stds = env.stds[f : f + n]
    sd = stds[0]
    if stds.min() != stds.max():
        raise ValueError(
            f"survival_grid needs one step sd over the tube's steps; env.stds runs from "
            f"{stds.min():.6g} to {stds.max():.6g}"
        )
    end, xi, max_drift = tube.end_bounds(), xi_log_factor(env, tube), max(means.max(), -means.min())

    def result(log_total, last, kept, size, hw, running):
        roundoff = size * _ROUNDOFF_PER_NODE > _ROUNDOFF_REL * kept
        return log_total + xi, running, size + (last - 1) * (size + 2 * hw), roundoff

    band = []  # (index in out, size, hw, layout) of the passes on the band
    for j, (points, dx) in enumerate(sizes):
        edges = np.arange(points + 1) * dx + env_lo
        nodes = 0.5 * (edges[:-1] + edges[1:])
        size = len(nodes)
        hw, length, k = _kernel_layout(sd, max_drift, dx, size)
        # first step: the point source at x0 moved by the step kernel
        mass = _bin_masses(np.array([x0 + means[0] - nodes[0]]), sd, dx, length, k, 0, size)
        width = 2 * hw + 1
        floor = size * _ROUNDOFF_PER_NODE / _ROUNDOFF_REL
        if _band_is_cheaper(k, size, width):
            (a,), (b,) = _kept(nodes, *tube.bounds_arrays(1, 2))
            (ea,), (eb,) = _kept(nodes, end[:1], end[1:]) if end is not None else ((0,), (size,))
            layout = _BandRows(mass, means[:, None], dx, length, k, (a, b), _ranges(nodes, tube, 1), (ea, eb), floor)
            band.append((len(out), size, hw, layout))
            out.append(None)
            continue
        taps = _fast_len(width)
        taps_band = _band_modes(sd / dx, taps)

        def build(j0: int, j1: int) -> np.ndarray:
            # tap t of a reversed kernel is the mass a N(m, s^2) step puts
            # hw - t cells on, i.e. the mass a N(-m, s^2) step puts t - hw on
            return _bin_masses(-means[j0:j1], sd, dx, taps, taps_band, -hw, width)

        kernels = (width, hw, _block_steps(width, _FFT_BLOCK_ENTRIES), build)
        step = _correlate_step(kernels, 1, n, size)
        times = range(1, n + 1) if return_running and not j else ()
        row = _MassRow(mass[0], nodes, tube, 1, step)
        (final,), (exp2,), (last,), (kept,), totals = _scaled_pass(row, [floor], 1, n, times)
        del row  # and its saved copy of the mass, before the next size's first step
        running = np.r_[1.0, totals[0]] if times else None
        out.append(result(_log_mass(final, exp2), last, kept, size, hw, running))
    if band:
        times = range(1, n + 1) if return_running and not band[0][0] else ()
        *rows, totals = _band_pass([layout for *_, layout in band], sd, 1, n, times)
        for (j, size, hw, _), (final,), (exp2,), (last,), (kept,) in zip(band, *rows):
            running = np.r_[1.0, totals[0, 0]] if times and not j else None
            out[j] = result(_log_mass(final, exp2), last, kept, size, hw, running)
    return out


def _grid_once(env: EnvRealization, tube: TubeSpec, x0: float, grid_points: int, return_running=False):
    """`_grid_passes` at one grid size: (log_p, running, work, roundoff)."""
    return _grid_passes(env, tube, x0, (grid_points,), return_running)[0]


def survival_grid(
    env: EnvRealization,
    tube: TubeSpec,
    x0: float,
    grid_points: int = 400,
    refine_tol: float = 1e-3,
    return_running: bool = False,
) -> SurvivalEstimate | tuple[SurvivalEstimate, np.ndarray]:
    """Tube survival by sub-density propagation on a uniform grid.

    Runs at `grid_points` and at half resolution and reports the log-scale
    difference as ``refine_delta_log``; when the relative delta exceeds
    `refine_tol` the estimate is flagged ``grid_coarse`` (not fatal).  A
    lattice law propagates on its own lattice at both resolutions, so it
    runs once, with a delta of 0.  Two Gaussian resolutions that both take
    the band step run as the two layouts of one band pass.
    """
    if grid_points < 50:
        raise ValueError("grid_points must be >= 50")
    _check_span(env, tube)
    _require_open_start(tube, x0)
    half = max(25, grid_points // 2)
    lo, up = tube.extent()
    span = up - lo
    if _grid_spacing(env, span, half) == _grid_spacing(env, span, grid_points):
        log_p, running, work, roundoff = _grid_once(env, tube, x0, grid_points, return_running)
        log_half, work_half = log_p, 0
    else:
        passes = _grid_passes(env, tube, x0, (grid_points, half), return_running)
        (log_p, running, work, roundoff), (log_half, _, work_half, roundoff_half) = passes
        roundoff = roundoff or roundoff_half
    if math.isfinite(log_p) and math.isfinite(log_half):
        delta = log_p - log_half
    else:
        delta = 0.0 if log_p == log_half else math.inf
    flags = ()
    if abs(delta) > refine_tol * max(1.0, abs(log_p)):
        flags = ("grid_coarse",)
    if roundoff:
        flags += ("grid_roundoff",)
    est = from_log(
        log_p, METHOD_GRID, work + work_half, refine_delta_log=float(delta), flags=flags
    )
    return (est, running) if return_running else est


def _start_points(tube: TubeSpec, points: int = 11) -> np.ndarray:
    """The start points of `survival_start_sweep`."""
    c = tube.scale
    if tube.start_window is not None:
        xs = np.linspace(tube.start_window[0] * c, tube.start_window[1] * c, points)
    else:
        xs = np.linspace(tube.g_at(0.0) * c, tube.h_at(0.0) * c, points + 2)[1:-1]
    if points % 2:
        xs[points // 2] = tube.default_x0()
    return xs


def survival_start_sweep(
    env: EnvRealization, tube: TubeSpec, estimator, points: int = 11
) -> list[tuple[float, SurvivalEstimate]]:
    """Evaluate an estimator on a grid of start points across the start window.

    Approximates the infimum over the admissible starting positions; with no
    start window the sweep covers the interior of the tube at time 0.  The
    middle of an odd number of points is `tube.default_x0()` to the bit.
    """
    return [(float(x), estimator(env, tube, float(x))) for x in _start_points(tube, points)]
