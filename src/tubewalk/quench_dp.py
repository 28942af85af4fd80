"""Deterministic tube-survival estimators: exact lattice DP and grid propagation.

Both estimators evolve the quenched sub-probability measure of the surviving
walk one step at a time, killing mass outside the tube.  Tube membership
uses closed intervals, so boundary-exact hits survive.  Every pass runs on
the step driver of `propagate`: an atom pass on the block route where it
applies, else on the taps step.

``survival_dp_lattice`` is exact (up to float summation) for environments
whose atoms live on a lattice (1/q)Z and serves as the oracle for the
Monte Carlo estimators.  ``survival_brute_force`` is the independent
enumeration oracle used to certify the DP on small instances.
``survival_grid`` handles Gaussian step laws by bin-edge transition masses
on a uniform grid; atom laws run the DP's own pass, on the lattice when
the law has one (so the grid gives the DP's bits), else on span/grid_points
nodes with each move split linearly.  A Gaussian pass has one step sd
(sds that vary over the tube's steps are refused) and one layout
(`propagate._kernel_layout`): reach hw, padded length and band K.  It
takes whichever of `propagate`'s two Gaussian steps needs fewer
multiply-adds (`_band_is_cheaper`): the band, at (2K)^2 a step, when that
is below the taps' size * (2 hw + 1) and its operator holds at most
_BAND_ENTRIES entries.  On the Gaussian builtin at 400 nodes (n =
400-6400, K = 31-57, 295-649 taps) a band pass costs 2.9-4.1 us a step,
and the pass of both resolutions, as two layouts of one band pass,
5.3-7.1 us, against 24-46 us with the taps (a 2-vCPU VM, one BLAS thread);
narrow kernels on wide tubes keep the taps (N(m, 0.5^2) steps on 300 nodes
over a span of 37: K = 127 against 81 taps).  Both steps carry round-off of
about 5e-15 of the peak mass into every node; a cut that keeps so little of
the mass carried into it that this round-off, over the grid's nodes,
exceeds _ROUNDOFF_REL of what it kept flags the estimate ``grid_roundoff``.
"""

from __future__ import annotations

import math

import numpy as np

from .env import EnvRealization
from .propagate import _BandRows, _MassRow, _band_pass, _bin_masses, _blocks, _check_span, _end_nodes, _gauss_kernels
from .propagate import _grid_spacing, _kept, _kernel_layout, _lattice, _log_mass, _ranges, _require_open_start
from .propagate import _scaled_pass, _shift_kernels
from .results import (
    METHOD_BRUTE_FORCE,
    METHOD_DP_LATTICE,
    METHOD_GRID,
    SurvivalEstimate,
    from_log,
)
from .tube import TubeSpec

_BRUTE_LIMIT = 64_000_000  # max enumerated paths
_BAND_ENTRIES = 2**16  # entries of a Gaussian band step's dense cut operator, at most
# A Gaussian pass carries round-off of about 5e-15 of the peak mass into
# every node (measured on the tails of FFT-built masses).  A cut that keeps
# the fraction `kept` of the mass carried into it is flagged when that
# round-off, summed over the nodes, exceeds _ROUNDOFF_REL of what it kept.
_ROUNDOFF_PER_NODE = 5e-15
_ROUNDOFF_REL = 1e-6

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
        row = _MassRow(mass, nodes, tube, 0, _shift_kernels(moves, codes, env.atom_w, len(nodes)))
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
    band step run as the layouts of one `propagate._band_pass`.
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
    xi, max_drift = xi_log_factor(env, tube), max(means.max(), -means.min())

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
            start, end = _kept(nodes, *tube.bounds_at(1)), _end_nodes(nodes, tube)
            layout = _BandRows(mass, means[:, None], dx, length, k, start, _ranges(nodes, tube, 1), end, floor)
            band.append((len(out), size, hw, layout))
            out.append(None)
            continue
        times = range(1, n + 1) if return_running and not j else ()
        row = _MassRow(mass[0], nodes, tube, 1, _gauss_kernels(means, sd, dx, hw))
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


def survival_start_sweep(
    env: EnvRealization, tube: TubeSpec, estimator, points: int = 11
) -> list[tuple[float, SurvivalEstimate]]:
    """Evaluate an estimator on a grid of start points across the start window.

    Approximates the infimum over the admissible starting positions; with no
    start window the sweep covers the interior of the tube at time 0.  The
    middle of an odd number of points is `tube.default_x0()` to the bit.
    """
    return [(float(x), estimator(env, tube, float(x))) for x in tube.start_points(points)]
