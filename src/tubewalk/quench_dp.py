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
from .propagate import _GRID_NODE_BYTES, _NODE_BYTES, _TAP_BYTES, _BandRows, _MassRow, _atom_nodes, _band_pass
from .propagate import _bin_masses, _blocks, _check_span, _end_nodes, _gauss_kernels, _grid_spacing, _kept
from .propagate import _kernel_layout, _lattice, _log_mass, _ranges, _require_open_start, _scaled_pass, _shift_kernels
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


def _atom_pass(env: EnvRealization, tube: TubeSpec, x0: float, dx: float, exact=False):
    """Propagate an atom law from x0 on `_lattice`'s nodes; (log_p, size, last).
    The pass carries `_blocks`' `_BlockRow` where the route applies, else a `_MassRow`.  With
    `exact` (the DP), a move off the nodes raises NonLatticeError instead of being split between
    them."""
    nodes, moves, start, codes, whole = _lattice(env, tube, x0, dx)
    if exact and not whole:
        q = env.lattice_q
        raise NonLatticeError(f"atom positions do not lie on the lattice (1/{q})Z; use survival_grid")
    row = _blocks(nodes, moves, codes, env.atom_w, tube, start, whole)
    if row is None:
        mass = np.zeros(len(nodes))
        mass[start] = 1.0
        row = _MassRow(mass, nodes, tube, 0, _shift_kernels(moves, codes, env.atom_w, len(nodes)))
    (final,), (exp2,), (last,), _, _ = _scaled_pass(row, [0.0], 0, tube.n)
    return _log_mass(final, exp2) + xi_log_factor(env, tube), len(nodes), last


def survival_dp_lattice(env: EnvRealization, tube: TubeSpec, x0: float) -> SurvivalEstimate:
    """Exact quenched survival probability for lattice environments.

    Tracks mass on the lattice x0 + (1/q)Z restricted to the tube; the
    result is exact up to floating-point summation error and fully
    deterministic.
    """
    if env.kind != "atoms" or env.lattice_q is None:
        raise NonLatticeError("environment steps are not lattice atom laws; use survival_grid")
    _check_span(env, tube)
    _require_open_start(tube, x0)
    log_p, size, _ = _atom_pass(env, tube, x0, 1.0 / env.lattice_q, exact=True)
    return from_log(log_p, METHOD_DP_LATTICE, tube.n * size)


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


def _grid_passes(env: EnvRealization, tube: TubeSpec, x0: float, resolutions):
    """One propagation pass at each grid size of `resolutions`: a list of
    (log_p, work, roundoff), one a size.

    ``roundoff`` is True when a Gaussian cut kept so little of the mass
    carried into it that the round-off of its nodes may exceed
    _ROUNDOFF_REL of what it kept.  The Gaussian passes that take the band
    step run as the layouts of one `propagate._band_pass`.
    """
    n, f = tube.n, tube.f_offset
    env_lo, env_up = tube.extent()
    sizes = [(points, _grid_spacing(env, env_up - env_lo, points)) for points in resolutions]
    if env.kind == "atoms":
        passes = (_atom_pass(env, tube, x0, dx) for _, dx in sizes)
        return [(log_p, last * size, False) for log_p, size, last in passes]
    means = env.quenched_mean[f : f + n]
    stds = env.stds[f : f + n]
    sd = stds[0]
    if stds.min() != stds.max():
        raise ValueError(
            f"survival_grid needs one step sd over the tube's steps; env.stds runs from "
            f"{stds.min():.6g} to {stds.max():.6g}"
        )
    xi, max_drift = xi_log_factor(env, tube), max(means.max(), -means.min())

    def result(final, exp2, last, kept, size, hw):
        roundoff = size * _ROUNDOFF_PER_NODE > _ROUNDOFF_REL * kept
        return _log_mass(final, exp2) + xi, size + (last - 1) * (size + 2 * hw), roundoff

    out = []
    band = []  # (index in out, size, hw, layout) of the passes on the band
    for points, dx in sizes:
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
        row = _MassRow(mass[0], nodes, tube, 1, _gauss_kernels(means, sd, dx, hw))
        (final,), (exp2,), (last,), (kept,), _ = _scaled_pass(row, [floor], 1, n)
        del row  # and its saved copy of the mass, before the next size's first step
        out.append(result(final, exp2, last, kept, size, hw))
    if band:
        *rows, _ = _band_pass([layout for *_, layout in band], sd, 1, n)
        for (j, size, hw, _), (final,), (exp2,), (last,), (kept,) in zip(band, *rows):
            out[j] = result(final, exp2, last, kept, size, hw)
    return out


def survival_grid(
    env: EnvRealization, tube: TubeSpec, x0: float, grid_points: int = 400, refine_tol: float = 1e-3
) -> SurvivalEstimate:
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
    once = _grid_spacing(env, span, half) == _grid_spacing(env, span, grid_points)
    passes = _grid_passes(env, tube, x0, (grid_points,) if once else (grid_points, half))
    log_p, work, roundoff = passes[0]
    log_half, work_half, roundoff_half = (log_p, 0, False) if once else passes[1]
    if math.isfinite(log_p) and math.isfinite(log_half):
        delta = log_p - log_half
    else:
        delta = 0.0 if log_p == log_half else math.inf
    flags = ()
    if abs(delta) > refine_tol * max(1.0, abs(log_p)):
        flags = ("grid_coarse",)
    if roundoff or roundoff_half:
        flags += ("grid_roundoff",)
    return from_log(log_p, METHOD_GRID, work + work_half, refine_delta_log=float(delta), flags=flags)


def pass_sizes(spec, tube: TubeSpec, starts, method: str, grid_points: int) -> list:
    """What the pass of `method` ("dp" or "grid") holds on `tube` for the law of `spec`, as
    (count, bytes a unit, unit, where), without laying it out.

    A Gaussian grid pass: the taps of its step kernel and its padded row, by the
    `_kernel_layout` `_grid_passes` takes, at 8 sigma_a for the largest |step mean|.  An
    atom pass: the most nodes `_lattice` lays out from any of `starts` (`_atom_nodes`), on
    the law's own lattice for the DP and at `_grid_spacing` for the grid.  The DP holds
    nothing off every lattice: it refuses the law.  Scalar arithmetic only.
    """
    q, (lo, up), gauss = spec.lattice_q, tube.extent(), spec.family == "random_mean_gaussian"
    if method == "dp" and (gauss or q is None):
        return []
    try:  # a bound, a span or a reach past a float's range is far over the budget
        dx = 1.0 / q if method == "dp" else _grid_spacing(spec, up - lo, grid_points)
        if gauss:
            reach, length, _ = _kernel_layout(spec.tau, 8.0 * spec.sigma_a, dx, grid_points)
        else:
            nodes = max(_atom_nodes(q, dx, lo, up, x)[3] for x in starts)
    except (OverflowError, ValueError):
        reach = length = nodes = math.inf
    if gauss:
        return [(2 * reach + 1, _TAP_BYTES, "tap", " in the grid's step kernel"),
                (length, _GRID_NODE_BYTES, "node", " in the grid's padded row")]
    return [(nodes, _NODE_BYTES, "node", f" in the {'exact DP' if method == 'dp' else 'grid'}'s atom pass")]


def survival_start_sweep(
    env: EnvRealization, tube: TubeSpec, estimator, points: int = 11
) -> list[tuple[float, SurvivalEstimate]]:
    """Evaluate an estimator on a grid of start points across the start window.

    Approximates the infimum over the admissible starting positions; with no
    start window the sweep covers the interior of the tube at time 0.  The
    middle of an odd number of points is `tube.default_x0()` to the bit.
    """
    return [(float(x), estimator(env, tube, float(x))) for x in tube.start_points(points)]
