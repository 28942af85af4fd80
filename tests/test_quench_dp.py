import hashlib
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr

import tubewalk as tw
from tubewalk import config as tw_config
from tubewalk import propagate, quench_dp, rate
from tubewalk.quench_dp import xi_log_factor
from tubewalk.rng import derive_seed

# tube whose raw bounds are +-(1 + 1e-9): the integer-lattice event |S_i| <= 1
BND = (1 + 1e-9) / 2**0.25


def _rademacher_env(length, seed=1):
    return tw.sample_environment(tw.EnvironmentSpec.rademacher(), length, seed=seed)


def test_single_step_inside_wide_bounds():
    env = _rademacher_env(2)
    tube = tw.TubeSpec(g=-2.0 / 2**0.25, h=2.0 / 2**0.25, alpha=0.25, n=1)
    assert tw.survival_dp_lattice(env, tube, 0.0).p == pytest.approx(1.0, abs=1e-15)


def test_two_step_rademacher_half():
    # 4 equiprobable paths; only the two returning to 0 stay within +-1
    env = _rademacher_env(3)
    tube = tw.TubeSpec(g=-BND, h=BND, alpha=0.25, n=2)
    est = tw.survival_dp_lattice(env, tube, 0.0)
    assert est.p == pytest.approx(0.5, abs=1e-15)
    assert est.stderr_log is None and est.method == "dp_lattice"


def test_dp_matches_enumeration_on_random_instance():
    spec = tw.EnvironmentSpec.random_shift_bernoulli(0.5)
    env = tw.sample_environment(spec, 12, seed=123)
    tube = tw.TubeSpec(g=-1.2, h=1.4, alpha=0.35, n=10, f_offset=2)
    dp = tw.survival_dp_lattice(env, tube, 0.25)
    bf = tw.survival_brute_force(env, tube, 0.25)
    assert abs(dp.p - bf.p) <= 1e-10


def test_dp_equals_enumeration_randomized():
    rng = np.random.default_rng(7)
    for trial in range(40):
        if trial % 2:
            spec = tw.EnvironmentSpec.random_shift_bernoulli(rng.choice([0.25, 0.5, 1.0]))
        else:
            spec = tw.EnvironmentSpec.degenerate([(-1.5, 0.25), (0.0, 0.5), (1.5, 0.25)])
        n = int(rng.integers(1, 13))
        f = int(rng.integers(0, 4))
        tube = tw.TubeSpec(
            g=float(rng.uniform(-2.0, -0.8)),
            h=float(rng.uniform(0.8, 2.0)),
            alpha=float(rng.uniform(0.1, 0.45)),
            n=n,
            f_offset=f,
            end_window=None if trial % 3 else (-0.5, 0.5),
            xi_threshold=None if trial % 4 else 2.0,
        )
        env = tw.sample_environment(spec, f + n, int(rng.integers(0, 2**63)))
        dp = tw.survival_dp_lattice(env, tube, 0.0)
        bf = tw.survival_brute_force(env, tube, 0.0)
        assert abs(dp.p - bf.p) <= 1e-10


def test_monotone_in_tube_width():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 40, seed=9)
    genv = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(0.5, 1.0), 40, seed=9)
    widths = [0.8, 1.0, 1.5, 2.5]
    ps, gs = [], []
    for w in widths:
        tube = tw.TubeSpec(g=-w, h=w, alpha=0.3, n=40)
        ps.append(tw.survival_dp_lattice(env, tube, 0.0).p)
        gs.append(tw.survival_grid(genv, tube, 0.0, grid_points=200).p)
    assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(gs, gs[1:]))


def test_running_total_nonincreasing(monkeypatch):
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 60, seed=2)
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=60)
    _, run_dp = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    assert np.all(np.diff(run_dp) <= 1e-15)
    _, run_grid = _with_totals(monkeypatch, tw.survival_grid, env, tube, 0.0, 100)
    assert np.all(np.diff(run_grid) <= 1e-15)


def test_removing_end_window_never_decreases_probability():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 20, seed=4)
    base = dict(g=-1.0, h=1.0, alpha=0.3, n=20)
    with_window = tw.TubeSpec(**base, end_window=(-0.3, 0.3))
    without = tw.TubeSpec(**base)
    p_win = tw.survival_dp_lattice(env, with_window, 0.0).p
    p_all = tw.survival_dp_lattice(env, without, 0.0).p
    assert p_all >= p_win


def test_grid_wide_tube_is_one():
    spec = tw.EnvironmentSpec.random_mean_gaussian(0.5, 1.0)
    env = tw.sample_environment(spec, 20, seed=6)
    # reachable set is within ~n*(|m|+8 tau) << bounds
    tube = tw.TubeSpec(g=-300.0, h=300.0, alpha=0.45, n=20)
    est = tw.survival_grid(env, tube, 0.0, grid_points=600)
    assert est.p == pytest.approx(1.0, abs=1e-9)


def test_grid_matches_dp_on_lattice():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 50, seed=8)
    tube = tw.TubeSpec(g=-1.0, h=1.1, alpha=0.3, n=50)
    dp = tw.survival_dp_lattice(env, tube, 0.0)
    grid = tw.survival_grid(env, tube, 0.0, grid_points=400)
    assert abs(grid.log_p - dp.log_p) <= 1e-6


def test_grid_matches_dp_on_moving_tube():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 45, seed=12)
    tube = tw.TubeSpec(
        g=((0, -1.0), (0.5, -0.6), (1, -1.4)),
        h=((0, 1.0), (1, 2.0)),
        alpha=0.3,
        n=40,
        f_offset=5,
        end_window=(-0.5, 1.0),
    )
    dp = tw.survival_dp_lattice(env, tube, 0.0)
    grid = tw.survival_grid(env, tube, 0.0, grid_points=300)
    assert abs(grid.log_p - dp.log_p) <= 1e-6


def test_grid_matches_naive_mc_on_moving_gaussian_tube():
    env = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(0.5, 1.0), 55, seed=13)
    tube = tw.TubeSpec(
        g=((0, -1.0), (1, -2.0)), h=((0, 1.0), (1, 2.0)), alpha=0.3, n=50, f_offset=5
    )
    grid = tw.survival_grid(env, tube, 0.0, grid_points=600)
    mc = tw.survival_naive_mc(env, tube, 0.0, replicas=200_000, seed=3)
    assert abs(grid.log_p - mc.log_p) <= 4 * mc.stderr_log + 0.01


def test_grid_gaussian_approaches_brownian_rate():
    # fixed N(0,1) steps: -ln p / n^(1-2a) climbs toward pi^2/(2 (b-a)^2)
    spec = tw.EnvironmentSpec.random_mean_gaussian(0.0, 1.0)
    alpha, width = 0.3, 2.0
    target = math.pi**2 / (2 * width**2)
    ratios = []
    for n in (200, 800, 3200):
        env = tw.sample_environment(spec, n, seed=10)
        tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=alpha, n=n)
        est = tw.survival_grid(env, tube, 0.0, grid_points=400)
        ratios.append(-est.log_p / n ** (1 - 2 * alpha) / target)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[2] == pytest.approx(1.0, abs=0.15)


def test_non_lattice_env_rejected_toward_grid():
    spec = tw.EnvironmentSpec.random_mean_gaussian(0.5, 1.0)
    env = tw.sample_environment(spec, 10, seed=1)
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=10)
    with pytest.raises(tw.NonLatticeError, match="survival_grid"):
        tw.survival_dp_lattice(env, tube, 0.0)


def test_x0_outside_open_tube_rejected():
    env = _rademacher_env(5)
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=5)
    hi = tube.bounds_at(0)[1]
    with pytest.raises(ValueError):
        tw.survival_dp_lattice(env, tube, hi)  # boundary is not strictly inside
    with pytest.raises(ValueError):
        tw.survival_brute_force(env, tube, hi + 1.0)


def test_xi_factor_is_analytic_product():
    spec = tw.EnvironmentSpec.rademacher(xi_scale=1.0)
    env = tw.sample_environment(spec, 15, seed=3)
    base = dict(g=-2.0, h=2.0, alpha=0.3, n=10)
    plain = tw.TubeSpec(**base, f_offset=5)
    gated = tw.TubeSpec(**base, f_offset=5, xi_threshold=3.0)
    p0 = tw.survival_dp_lattice(env, plain, 0.0)
    p1 = tw.survival_dp_lattice(env, gated, 0.0)
    # n step events plus one for the starting index since f(n) >= 1
    expected = (10 + 1) * math.log(env.xi_cdf(3.0))
    assert p1.log_p - p0.log_p == pytest.approx(expected, rel=1e-12)
    assert xi_log_factor(env, gated) == pytest.approx(expected)


def test_grid_reports_refinement_delta():
    env = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(0.5, 1.0), 30, seed=5)
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=30)
    est = tw.survival_grid(env, tube, 0.0, grid_points=400)
    assert est.refine_delta_log is not None
    assert abs(est.refine_delta_log) < 0.05
    coarse = tw.survival_grid(env, tube, 0.0, grid_points=50, refine_tol=1e-6)
    assert "grid_coarse" in coarse.flags


def test_start_sweep_grid_of_points():
    env = _rademacher_env(25)
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=20, start_window=(-0.5, 0.5))
    pts = tw.survival_start_sweep(env, tube, lambda e, t, x: tw.survival_dp_lattice(e, t, x))
    assert len(pts) == 11
    xs = [x for x, _ in pts]
    assert xs[0] == pytest.approx(-0.5 * tube.scale)
    assert xs[-1] == pytest.approx(0.5 * tube.scale)
    assert all(est.p >= 0 for _, est in pts)


def test_start_sweep_middle_is_the_default_start():
    # the fit's start is one of the sweep's, to the bit (linspace's middle
    # missed it by an ulp for some of these)
    for alpha, window, n in itertools.product(
        (0.1, 0.2, 0.3, 0.37, 0.45), (None, (-0.5, 0.5), (-0.7, 0.3), (-0.31, 0.77)), (20, 200, 777, 3200)
    ):
        tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=alpha, n=n, start_window=window)
        pts = tw.survival_start_sweep(None, tube, lambda e, t, x: None)
        assert pts[5][0] == tube.default_x0(), (alpha, window, n)


# --- the shared step loop -------------------------------------------------
#
# The three loops below are the per-step propagators the shared loop
# replaced, kept verbatim in substance as the reference it must reproduce.


def _reference_dp(env, tube, x0):
    lo, up = tube.bounds_arrays()
    q, n, f = env.lattice_q, tube.n, tube.f_offset
    deltas = np.rint(env.atom_pos[f : f + n] * q).astype(np.int64)
    weights = env.atom_w
    jmin = int(math.ceil((lo.min() - x0) * q)) - 1
    jmax = int(math.floor((up.max() - x0) * q)) + 1
    size = jmax - jmin + 1
    positions = x0 + np.arange(jmin, jmax + 1) / q
    mass = np.zeros(size)
    mass[-jmin] = 1.0
    running = np.zeros(n + 1)
    running[0] = 1.0
    new = np.empty(size)
    for i in range(1, n + 1):
        new[:] = 0.0
        for a in range(len(weights)):
            d, w = int(deltas[i - 1, a]), float(weights[a])
            if abs(d) >= size:
                continue
            if d >= 0:
                new[d:] += w * mass[: size - d] if d > 0 else w * mass
            else:
                new[:d] += w * mass[-d:]
        new[~((positions >= lo[i]) & (positions <= up[i]))] = 0.0
        mass[:] = new
        running[i] = mass.sum()
        if running[i] == 0.0:
            break
    end = tube.end_bounds()
    if end is not None:
        mass[~((positions >= end[0]) & (positions <= end[1]))] = 0.0
    total = mass.sum()
    return (math.log(total) if total > 0 else -math.inf), running, n * size


def _reference_grid(env, tube, x0, grid_points):
    lo, up = tube.bounds_arrays()
    n, f = tube.n, tube.f_offset
    running = np.zeros(n + 1)
    running[0] = 1.0
    env_lo, env_up = lo.min(), up.max()
    dx = propagate._grid_spacing(env, env_up - env_lo, grid_points)
    work = 0
    if env.kind == "atoms":
        jlo = int(math.ceil((env_lo - x0) / dx)) - 1
        jhi = int(math.floor((env_up - x0) / dx)) + 1
        nodes = x0 + np.arange(jlo, jhi + 1) * dx
        size = len(nodes)
        mass = np.zeros(size)
        mass[-jlo] = 1.0
        for i in range(1, n + 1):
            new = np.zeros(size)
            for a in range(len(env.atom_w)):
                o = env.atom_pos[f + i - 1, a] / dx
                of = math.floor(o)
                fr = o - of
                w = float(env.atom_w[a])
                for shift, wf in ((of, w * (1.0 - fr)), (of + 1, w * fr)):
                    if wf == 0.0 or abs(shift) >= size:
                        continue
                    if shift >= 0:
                        new[shift:] += wf * mass[: size - shift] if shift else wf * mass
                    else:
                        new[:shift] += wf * mass[-shift:]
            new[~((nodes >= lo[i]) & (nodes <= up[i]))] = 0.0
            mass = new
            work += size
            running[i] = mass.sum()
            if running[i] == 0.0:
                return -math.inf, running, work
    else:
        edges = np.arange(grid_points + 1) * dx + env_lo
        nodes = 0.5 * (edges[:-1] + edges[1:])
        size = len(nodes)
        means, stds = env.quenched_mean[f : f + n], env.stds[f : f + n]
        mass = ndtr((edges[1:] - x0 - means[0]) / stds[0]) - ndtr((edges[:-1] - x0 - means[0]) / stds[0])
        mass[~((nodes >= lo[1]) & (nodes <= up[1]))] = 0.0
        work += size
        running[1] = mass.sum()
        hw = int(math.ceil((8.0 * stds.max() + np.abs(means).max()) / dx)) + 1
        offs = np.arange(-hw, hw + 1) * dx
        kernels = ndtr((offs[None, :] + 0.5 * dx - means[1:, None]) / stds[1:, None]) - ndtr(
            (offs[None, :] - 0.5 * dx - means[1:, None]) / stds[1:, None]
        )
        for i in range(2, n + 1):
            mass = np.convolve(mass, kernels[i - 2])[hw : hw + size]
            mass[~((nodes >= lo[i]) & (nodes <= up[i]))] = 0.0
            work += size + 2 * hw
            running[i] = mass.sum()
            if running[i] == 0.0:
                return -math.inf, running, work
    end = tube.end_bounds()
    if end is not None:
        mass = np.where((nodes >= end[0]) & (nodes <= end[1]), mass, 0.0)
    total = mass.sum()
    return (math.log(total) if total > 0 else -math.inf), running, work


MOVING = dict(  # both bounds move both ways
    g=((0, -1.0), (0.5, -0.6), (1, -1.4)),
    h=((0, 1.0), (0.5, 2.0), (1, 1.2)),
    alpha=0.3,
    n=300,
    f_offset=5,
    end_window=(-0.5, 1.0),
)
THREE_ATOMS = tw.EnvironmentSpec.degenerate([(-1.5, 0.25), (0.0, 0.5), (1.5, 0.25)])
SPECS = {
    "shift": tw.EnvironmentSpec.random_shift_bernoulli(0.5),
    "rademacher": tw.EnvironmentSpec.rademacher(),
    "three": THREE_ATOMS,
    "gauss": tw.EnvironmentSpec.random_mean_gaussian(0.5, 1.0),
    "gauss-narrow": tw.EnvironmentSpec.random_mean_gaussian(0.2, 0.5),  # kernel shorter than the grid
    "off-lattice": tw.EnvironmentSpec.degenerate([(-math.sqrt(0.5), 0.5), (math.sqrt(0.5), 0.5)]),
}
BUILTIN_GAUSS = tw_config.validate(tw_config.load_builtin("random-mean-gaussian"))


def _case(name, n=None):
    """(spec, tube): "builtin-gauss" is the Gaussian builtin on its constant
    tube at n = 400, any other name a law of SPECS on MOVING (at n steps)."""
    if name == "builtin-gauss":
        return BUILTIN_GAUSS.env_spec, BUILTIN_GAUSS.template.make(n or 400)
    return SPECS[name], tw.TubeSpec(**{**MOVING, "n": n or MOVING["n"]})


def _same(got, want, rel):
    """Equal log_p and running total (exactly when rel == 0) and equal work."""
    (lp, run, work), (lp_ref, run_ref, work_ref) = got[:3], want
    assert work == work_ref
    if rel == 0.0:
        assert lp == lp_ref
        np.testing.assert_array_equal(run, run_ref)
    else:
        assert lp == pytest.approx(lp_ref, rel=rel, abs=0.0)
        np.testing.assert_allclose(run, run_ref, rtol=rel, atol=0.0)


def _every_step(monkeypatch):
    """Have every estimator pass ask the step driver for its total at every
    time 1..n: the atom and taps passes through `quench_dp._scaled_pass`,
    the band's layouts through `quench_dp._band_pass` (not
    `propagate._scaled_pass` under it, whose totals `_band_pass` reshapes).

    Returns `take`: take() asserts that a pass ran since the last take and
    returns the running totals np.r_[1.0, totals] of each pass's one row,
    keyed by its node count, which tells the resolutions apart (the taps
    pass of one resolution runs before the band pass of the other)."""
    record = {}

    def scaled(state, floors, t0, n):
        size = len(state.mass)
        out = real_scaled(state, floors, t0, n, range(1, n + 1))
        (row,) = out[-1]
        record[size] = np.r_[1.0, row]
        return out

    def band(layouts, sd, t0, n):
        sizes = [layout.mass.shape[-1] for layout in layouts]
        out = real_band(layouts, sd, t0, n, range(1, n + 1))
        for size, (row,) in zip(sizes, out[-1]):
            record[size] = np.r_[1.0, row]
        return out

    def take():
        assert record, "no estimator pass ran"
        got = dict(record)
        record.clear()
        return got

    real_scaled, real_band = quench_dp._scaled_pass, quench_dp._band_pass
    monkeypatch.setattr(quench_dp, "_scaled_pass", scaled)
    monkeypatch.setattr(quench_dp, "_band_pass", band)
    return take


def _with_totals(monkeypatch, estimate, *args):
    """`estimate(*args)` with a total at every step (`_every_step`), and the
    running totals of its one pass."""
    with monkeypatch.context() as m:
        take = _every_step(m)
        got = estimate(*args)
        (run,) = take().values()
    return got, run


@pytest.mark.parametrize("name, rel", [("shift", 0.0), ("rademacher", 0.0), ("three", 1e-13)])
def test_dp_loop_reproduces_reference(monkeypatch, name, rel):
    tube = tw.TubeSpec(**MOVING)
    env = tw.sample_environment(SPECS[name], tube.f_offset + tube.n, seed=21)
    est, run = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    _same((est.log_p, run, est.work), _reference_dp(env, tube, 0.0), rel)


@pytest.mark.parametrize(
    "name, grid_points, rel",
    [
        # Gaussian kernels come from an inverse FFT, the reference samples ndtr
        ("gauss", 300, 1e-12),
        ("gauss", 77, 1e-12),
        ("gauss-narrow", 300, 1e-12),
        ("builtin-gauss", 400, 1e-12),  # a constant tube: the band's cut operator is built once
        ("shift", 300, 0.0),
        ("three", 200, 1e-13),
        ("off-lattice", 150, 1e-13),
        ("off-lattice", 19, 1e-13),  # dx ~ 1: the two atoms split onto a shared node
    ],
)
def test_grid_loop_reproduces_reference(monkeypatch, name, grid_points, rel):
    spec, tube = _case(name)
    env = tw.sample_environment(spec, tube.f_offset + tube.n, seed=22)
    [(log_p, work, _)], run = _with_totals(monkeypatch, quench_dp._grid_passes, env, tube, 0.3, (grid_points,))
    _same((log_p, run, work), _reference_grid(env, tube, 0.3, grid_points), rel)


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_grid_on_lattice_law_is_the_dp(monkeypatch, q):
    # the grid runs a lattice law on its own lattice, through the DP's pass:
    # the same bits, also where 1/q is inexact; the half resolution lands on
    # the same lattice, so the pass runs once and the refinement delta is 0
    spec = tw.EnvironmentSpec.random_shift_bernoulli(1.0 / q, q=q)
    tube = tw.TubeSpec(**MOVING)
    env = tw.sample_environment(spec, tube.f_offset + tube.n, seed=30 + q)
    dp, dp_run = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    [(log_p, _, _)], run = _with_totals(monkeypatch, quench_dp._grid_passes, env, tube, 0.0, (400,))
    assert math.isfinite(dp.log_p)
    assert log_p == dp.log_p
    np.testing.assert_array_equal(run, dp_run)
    grid = tw.survival_grid(env, tube, 0.0, grid_points=400)
    assert grid.log_p == dp.log_p and grid.work == dp.work and grid.refine_delta_log == 0.0


def test_loop_keeps_boundary_exact_nodes(monkeypatch):
    # 16**0.25 == 2: the +-1 walk reaches the bounds +-2 and the end window
    # +-1 exactly, and closed intervals keep those nodes
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.25, n=16, end_window=(-0.5, 0.5))
    env = _rademacher_env(16)
    est, run = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    _same((est.log_p, run, est.work), _reference_dp(env, tube, 0.0), 0.0)
    assert est.p == pytest.approx(tw.survival_brute_force(env, tube, 0.0).p, abs=1e-15)
    [(log_p, work, _)], run = _with_totals(monkeypatch, quench_dp._grid_passes, env, tube, 0.0, (60,))
    _same((log_p, run, work), _reference_grid(env, tube, 0.0, 60), 0.0)


def test_loop_reproduces_reference_extinction(monkeypatch):
    # tubes too narrow for the walk: the mass dies out after a few steps
    tube = tw.TubeSpec(g=-0.5, h=0.5, alpha=0.01, n=40)
    env = tw.sample_environment(SPECS["rademacher"], 40, seed=3)
    est, run = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    _same((est.log_p, run, est.work), _reference_dp(env, tube, 0.0), 0.0)
    assert est.log_p == -math.inf and run[1] == 0.0
    narrow = tw.TubeSpec(g=-0.05, h=0.05, alpha=0.01, n=40)
    for name, dies, rel in (("rademacher", True, 0.0), ("gauss", False, 1e-12)):
        genv = tw.sample_environment(SPECS[name], 40, seed=3)
        [(log_p, work, _)], run = _with_totals(monkeypatch, quench_dp._grid_passes, genv, narrow, 0.0, (60,))
        _same((log_p, run, work), _reference_grid(genv, narrow, 0.0, 60), rel)
        assert (log_p == -math.inf) == dies  # Gaussian mass thins out but never vanishes


@pytest.mark.parametrize("name, grid_points", [("gauss", 300), ("gauss", 77), ("gauss-narrow", 300)])
def test_point_source_first_step_matches_ndtr(monkeypatch, name, grid_points):
    firsts = _spy_first_masses(monkeypatch)
    tube = tw.TubeSpec(**MOVING)
    env = tw.sample_environment(SPECS[name], tube.f_offset + tube.n, seed=24)
    lo, up = tube.bounds_arrays()
    dx = propagate._grid_spacing(env, up.max() - lo.min(), grid_points)
    edges = np.arange(grid_points + 1) * dx + lo.min()
    m, s = env.quenched_mean[tube.f_offset], env.stds[tube.f_offset]
    for x0 in (0.3, 0.98 * lo[0], 0.98 * up[0]):  # the middle and both ends of the grid
        quench_dp._grid_passes(env, tube, x0, (grid_points,))
        want = ndtr((edges[1:] - x0 - m) / s) - ndtr((edges[:-1] - x0 - m) / s)
        got = firsts.pop()
        assert np.abs(got - want).max() <= 1e-15 and got.min() >= 0.0


def _spy_first_masses(monkeypatch):
    """The mass each Gaussian grid pass starts from (a band layout's row or
    the taps' `_MassRow`), copied before the pass runs, in call order."""
    firsts = []

    def band(layouts, *args):
        firsts.extend(layout.mass[0].copy() for layout in layouts)
        return real_band(layouts, *args)

    def taps(row, *args):
        firsts.append(row.mass.copy())
        return real_taps(row, *args)

    real_band, real_taps = quench_dp._band_pass, quench_dp._scaled_pass
    monkeypatch.setattr(quench_dp, "_band_pass", band)
    monkeypatch.setattr(quench_dp, "_scaled_pass", taps)
    return firsts


def test_grid_refuses_stds_that_vary():
    # every Gaussian family steps with one sd; a pass is laid out for it, so
    # a hand-built realisation whose sds vary over the tube's steps is refused
    tube = tw.TubeSpec(**MOVING)
    env = tw.sample_environment(SPECS["gauss"], tube.f_offset + tube.n, seed=25)
    stds = env.stds.copy()
    stds[tube.f_offset + 7] = 0.8
    varied = env.replace(stds=stds, quenched_var=stds**2)
    with pytest.raises(ValueError, match="env.stds runs from 0.8 to 1"):
        tw.survival_grid(varied, tube, 0.3, 120)
    # steps outside the tube's window do not count
    stds = env.stds.copy()
    stds[: tube.f_offset] = 0.8
    outside = env.replace(stds=stds, quenched_var=stds**2)
    assert tw.survival_grid(outside, tube, 0.3, 120) == tw.survival_grid(env, tube, 0.3, 120)


@pytest.mark.parametrize("name, grid_points, side", [("gauss", 120, "band"), ("gauss", 77, "taps")])
def test_grid_pass_works_out_its_band_once(monkeypatch, name, grid_points, side):
    # one kernel block a step: the band of the padded row (and of the taps'
    # row) is worked out once a pass, not once a block
    calls = []

    def counted(s, n):
        calls.append(n)
        return real(s, n)

    real = propagate._band_modes
    monkeypatch.setattr(propagate, "_band_modes", counted)
    widths = []
    monkeypatch.setattr(propagate, "_block_steps", lambda width, entries: widths.append(width) or 1)
    sides = _spy_sides(monkeypatch)
    spec, tube = _case(name)
    env = tw.sample_environment(spec, tube.f_offset + tube.n, seed=22)
    quench_dp._grid_passes(env, tube, 0.3, (grid_points,))
    assert sides == [side] and 1 <= len(calls) <= 2 and widths


@pytest.mark.parametrize("steps", [1, 3])
def test_kernel_blocks_do_not_change_results(monkeypatch, steps):
    tube = tw.TubeSpec(**MOVING)
    envs = {name: tw.sample_environment(SPECS[name], tube.f_offset + tube.n, seed=23) for name in SPECS}

    def results():
        # log_p, work and the totals at every step of each pass, both
        # resolutions of a grid keyed by their node counts
        with monkeypatch.context() as m:
            take = _every_step(m)
            out = []
            for k in ("shift", "three"):
                out.append((tw.survival_dp_lattice(envs[k], tube, 0.0), take()))
            for k in ("gauss", "gauss-narrow", "off-lattice"):
                out.append((tw.survival_grid(envs[k], tube, 0.2, 120), take()))
        return [(est.log_p, est.work, runs) for est, runs in out]

    default = results()
    widths = []
    monkeypatch.setattr(propagate, "_block_steps", lambda width, entries: widths.append(width) or steps)
    for (lp, work, runs), (lp_ref, work_ref, runs_ref) in zip(results(), default):
        assert lp == lp_ref and work == work_ref and runs.keys() == runs_ref.keys()
        for size, run in runs.items():
            np.testing.assert_array_equal(run, runs_ref[size])
    assert widths  # the blocks were sized by the stub


def _spy_sides(monkeypatch):
    """The Gaussian step ("band" or "taps") of each grid pass, in call order."""
    sides = []

    def band(layouts, *args):
        sides.extend("band" for _ in layouts)
        return real_band(layouts, *args)

    def taps(*args):
        sides.append("taps")
        return real_taps(*args)

    real_band, real_taps = quench_dp._band_pass, quench_dp._MassRow
    monkeypatch.setattr(quench_dp, "_band_pass", band)
    monkeypatch.setattr(quench_dp, "_MassRow", taps)
    return sides


@pytest.mark.parametrize(
    "name, n, grid_points, side",
    [
        ("builtin-gauss", 400, 400, "band"),
        ("builtin-gauss", 400, 200, "band"),
        ("builtin-gauss", 6400, 400, "band"),
        ("gauss", 300, 120, "band"),  # a band case of test_kernel_blocks_do_not_change_results
        ("gauss", 300, 77, "taps"),
        ("gauss-narrow", 300, 120, "taps"),
        ("gauss-narrow", 3000, 300, "taps"),
    ],
)
def test_gaussian_grid_picks_the_cheaper_step(monkeypatch, name, n, grid_points, side):
    # the band when (2K)^2 < size (2 hw + 1) and (2K)^2 <= _FFT_BLOCK_ENTRIES
    sides = _spy_sides(monkeypatch)
    spec, tube = _case(name, n)
    env = tw.sample_environment(spec, tube.f_offset + tube.n, seed=22)
    quench_dp._grid_passes(env, tube, 0.3, (grid_points,))
    assert sides == [side]


# the CI run of the taps step: the Gaussian builtin at sigma_a = 0.2, tau = 0.5
TAPS_CI = tw_config.validate(
    tw_config.apply_overrides(
        tw_config.load_builtin("random-mean-gaussian"), ["environment.sigma_a=0.2", "environment.tau=0.5"]
    )
)


@pytest.mark.parametrize(
    "cfg, n, grid_points", [(BUILTIN_GAUSS, 400, 400), (BUILTIN_GAUSS, 6400, 400), (TAPS_CI, 3000, 300)]
)
def test_transform_blocks_do_not_change_the_gaussian_step(monkeypatch, cfg, n, grid_points):
    # _FFT_BLOCK_ENTRIES sizes blocks of transforms only; the band's operator
    # bound that picks the step is _BAND_ENTRIES, so every bit stays
    tube = cfg.template.make(n)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, seed=0)
    whole = tw.survival_grid(env, tube, tube.default_x0(), grid_points)
    monkeypatch.setattr(propagate, "_FFT_BLOCK_ENTRIES", 1000)
    blocked = tw.survival_grid(env, tube, tube.default_x0(), grid_points)
    assert (blocked.log_p, blocked.refine_delta_log, blocked.work) == (whole.log_p, whole.refine_delta_log, whole.work)


@pytest.mark.parametrize("name, grid_points, side", [("builtin-gauss", 400, "band"), ("gauss-narrow", 300, "taps")])
def test_grid_flags_steps_lost_in_roundoff(monkeypatch, name, grid_points, side):
    # a step mean of 50 carries the mass far past the tube: that step alone
    # keeps below 1e-300 of it, far under the kernels' round-off of ~1e-17
    sides = _spy_sides(monkeypatch)
    spec, tube = _case(name)
    env = tw.sample_environment(spec, tube.f_offset + tube.n, seed=3)
    x0 = tube.default_x0()
    assert "grid_roundoff" not in tw.survival_grid(env, tube, x0, grid_points).flags
    means = env.quenched_mean.copy()
    means[tube.f_offset + 100] = 50.0
    est = tw.survival_grid(env.replace(quenched_mean=means), tube, x0, grid_points)
    assert "grid_roundoff" in est.flags
    assert set(sides[2:]) == {side}


def test_grid_flags_a_cut_whose_kept_mass_is_near_its_roundoff():
    # one cut keeps 4.4e-10 of the mass carried into it: over 77 nodes the
    # band's round-off of about 5e-15 each is 1e-6 of what it kept, and log p
    # is about 1e-3 off, though the cut keeps far more than the kernels' 1e-17
    spec = tw.EnvironmentSpec.random_mean_gaussian(1.0127, 0.2325)
    tube = tw.TubeSpec(g=-0.802, h=0.903, alpha=0.235, n=50, f_offset=3)
    env = tw.sample_environment(spec, tube.f_offset + tube.n, seed=130)
    roundoff = quench_dp._grid_passes(env, tube, 0.7255, (77,))[0][2]
    assert roundoff
    assert "grid_roundoff" in tw.survival_grid(env, tube, 0.7255, 77).flags


# --- two resolutions in one band pass ---------------------------------------
#
# `survival_grid` runs a Gaussian law's two resolutions as two layouts of one
# `propagate._band_pass` when both take the band: each must give every bit of
# a pass of its own.

WIDENING = tw.TubeTemplate(g=((0, -1.0), (1, -2.0)), h=((0, 1.0), (1, 2.0)), alpha=0.3, end_window=(-0.5, 0.5))


def _with_jump(env, tube, jump):
    """`env` with a step of mean `jump` at step 101 of the tube, which carries
    the mass far past it."""
    means = env.quenched_mean.copy()
    means[tube.f_offset + 100] = jump
    return env.replace(quenched_mean=means)


def _pair_cases():
    """(name, env, tube, x0, grid_points, steps) for each case below."""
    gauss = BUILTIN_GAUSS.env_spec
    for seed in (0, 3):
        for k, n in enumerate((400, 800, 1600, 3200, 6400)):
            tube = BUILTIN_GAUSS.template.make(n)
            env = tw.sample_environment(gauss, tube.f_offset + n, derive_seed(seed, 11, k))
            yield f"builtin-{seed}-{n}", env, tube, tube.default_x0(), 400, ["band", "band"]
    for seed in (0, 1, 2):
        tube = WIDENING.make(800)
        env = tw.sample_environment(gauss, tube.f_offset + tube.n, seed=seed)
        yield f"widening-{seed}", env, tube, tube.default_x0(), 400, ["band", "band"]
    deep = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.1, n=8000)
    yield "deep", tw.sample_environment(gauss, deep.n, seed=1), deep, 0.0, 400, ["band", "band"]
    tube = BUILTIN_GAUSS.template.make(400)
    for name, seed, jump in (("half-dies", 3, 40.0), ("full-dies", 4, 50.0)):
        env = _with_jump(tw.sample_environment(gauss, tube.f_offset + tube.n, seed=seed), tube, jump)
        yield name, env, tube, tube.default_x0(), 400, ["band", "band"]
    tube = TAPS_CI.template.make(3000)
    env = tw.sample_environment(TAPS_CI.env_spec, tube.f_offset + tube.n, seed=0)
    yield "taps-ci", env, tube, tube.default_x0(), 300, ["band", "taps"]


PAIR_CASES = {case[0]: case[1:] for case in _pair_cases()}


@pytest.mark.parametrize("name", list(PAIR_CASES))
def test_grid_layouts_equal_their_own_passes(monkeypatch, name):
    # log_p, work and the roundoff flag of each resolution, to the bit, with
    # totals on demand and with a total at every step, in each order of the
    # two resolutions; and each resolution's totals at every step are those
    # of its pass alone (a Gaussian pass has a node a grid point)
    env, tube, x0, grid_points, steps = PAIR_CASES[name]
    sizes = (grid_points, max(25, grid_points // 2))
    alone = {points: quench_dp._grid_passes(env, tube, x0, (points,))[0] for points in sizes}
    running = {}
    for points in sizes:
        [got], running[points] = _with_totals(monkeypatch, quench_dp._grid_passes, env, tube, x0, (points,))
        assert got == alone[points]
    sides = _spy_sides(monkeypatch)
    for every_step in (False, True):
        for order in (sizes, sizes[::-1]):
            del sides[:]
            with monkeypatch.context() as m:
                take = _every_step(m) if every_step else None
                passes = quench_dp._grid_passes(env, tube, x0, order)
            assert sorted(sides) == steps
            assert passes == [alone[points] for points in order]
            if every_step:
                runs = take()
                assert runs.keys() == running.keys()
                for points, run in runs.items():
                    np.testing.assert_array_equal(run, running[points])
    est = tw.survival_grid(env, tube, x0, grid_points)
    full, half = (alone[points] for points in sizes)
    assert (est.log_p, est.work, "grid_roundoff" in est.flags) == (full[0], full[1] + half[1], full[2] or half[2])


def test_grid_layouts_cover_rescales_and_deaths():
    # what the cases above reach: rescales in the deep run, and one layout
    # dying out while the other lives in the two cases with a jump
    _, tube, _, _, _ = PAIR_CASES["deep"]
    lazy = [quench_dp._grid_passes(*PAIR_CASES["deep"][:3], (points,))[0] for points in (400, 200)]
    assert all(log_p < -1000 * math.log(2) for log_p, *_ in lazy)
    for name, dead in (("half-dies", 1), ("full-dies", 0)):
        env, tube, x0, grid_points, _ = PAIR_CASES[name]
        passes = quench_dp._grid_passes(env, tube, x0, (grid_points, grid_points // 2))
        assert [math.isinf(p[0]) for p in passes] == [j == dead for j in range(2)]
        assert all(p[2] for p in passes)  # both cuts lost the mass in round-off


# --- narrow kernels --------------------------------------------------------
#
# Both Gaussian steps against the ndtr-kernel reference loop at sigma_a = 0.2
# (seed 7, the Gaussian builtin's constant tube), with sd/dx from 0.7 to 4.5.


@pytest.mark.parametrize("step", ["band", "taps"])
@pytest.mark.parametrize(
    "tau, grid_points, n",
    [
        pytest.param(
            0.05, 400, 800,
            marks=pytest.mark.xfail(
                strict=True,
                reason="narrow kernel (sd/dx 0.7): the taps stray from the reference by 7.2e-7 in log p "
                "(2.6e-8 relative), the band by 5.1e-4 (1.8e-5 relative); cause not known",
            ),
        ),
        (0.1, 400, 800),
        (0.1, 1000, 800),
        (0.2, 300, 800),
        (0.5, 300, 800),
    ],
)
def test_narrow_kernels_match_the_reference(monkeypatch, step, tau, grid_points, n):
    monkeypatch.setattr(quench_dp, "_band_is_cheaper", lambda *layout: step == "band")
    sides = _spy_sides(monkeypatch)
    spec = tw.EnvironmentSpec.random_mean_gaussian(0.2, tau)
    tube = BUILTIN_GAUSS.template.make(n)
    env = tw.sample_environment(spec, tube.f_offset + n, seed=7)
    x0 = tube.default_x0()
    [(log_p, work, _)], run = _with_totals(monkeypatch, quench_dp._grid_passes, env, tube, x0, (grid_points,))
    assert sides == [step]
    _same((log_p, run, work), _reference_grid(env, tube, x0, grid_points), 1e-10)


def test_dp_pinned_value():
    cfg = tw_config.validate(tw_config.load_builtin("random-shift-bernoulli"))
    tube = cfg.template.make(3200)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + 3200, derive_seed(0, 11, 0))
    est = tw.survival_dp_lattice(env, tube, tube.default_x0())
    assert est.log_p.hex() == (-35.82087266526615).hex()


# the CI run of the DP step loop: the random-shift builtin on a widening tube
# with an end window, which no block route takes
DP_LOOP_CI = tw_config.validate(
    tw_config.apply_overrides(
        tw_config.load_builtin("random-shift-bernoulli"),
        ["tube.g=[[0,-1.0],[1,-2.0]]", "tube.h=[[0,1.0],[1,2.0]]", "tube.end_window=[-0.5,0.5]"],
    )
)


@pytest.mark.parametrize(
    "cfg, idx, n, log_p, work, flags",
    [
        (TAPS_CI, 0, 3000, -8.8653070985882394, 1949800, ("grid_coarse",)),
        (TAPS_CI, 1, 6000, -10.951674287305472, 3683836, ("grid_coarse",)),
        (DP_LOOP_CI, 0, 400, -7.6138001680984138, 20400, ()),
        (DP_LOOP_CI, 1, 800, -10.76305067624256, 48800, ()),
    ],
)
def test_step_loop_runs_keep_their_pinned_bits(cfg, idx, n, log_p, work, flags):
    # the CI taps run (300 points) and DP step-loop run at seed 0, task by
    # task as `rate.run_points` runs them; no benchmark workload reaches
    # either pass
    tube = cfg.template.make(n)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, derive_seed(0, 11, idx))
    if cfg is TAPS_CI:
        est = tw.survival_grid(env, tube, tube.default_x0(), 300)
    else:
        est = tw.survival_dp_lattice(env, tube, tube.default_x0())
    assert (est.log_p.hex(), est.work, est.flags) == (log_p.hex(), work, flags)


BUILTIN_SHIFT = tw_config.validate(tw_config.load_builtin("random-shift-bernoulli"))
SHIFT_END = tw_config.validate(
    tw_config.apply_overrides(tw_config.load_builtin("random-shift-bernoulli"), ["tube.end_window=[-0.5,0.5]"])
)
# the CI off-lattice run: atoms at +-sqrt(1/2), which the grid splits between its nodes
OFF_LATTICE_CI = tw_config.validate(
    tw_config.apply_overrides(
        tw_config.load_builtin("degenerate-rademacher"),
        ["environment.atoms=[[-0.7071067811865476,0.5],[0.7071067811865476,0.5]]"],
    )
)


@pytest.mark.parametrize(
    "cfg, idx, n, log_p, work, flags",
    [
        (BUILTIN_SHIFT, 4, 51200, -114.22857303201792, 5376000, ()),
        (SHIFT_END, 4, 51200, -114.5748075320283, 5376000, ()),
        (OFF_LATTICE_CI, 0, 200, -4.424248922984302, 121200, ("grid_coarse",)),
        (OFF_LATTICE_CI, 4, 3200, -14.41327229273361, 1939200, ()),
    ],
)
def test_block_route_and_atom_grid_keep_their_pinned_bits(cfg, idx, n, log_p, work, flags):
    # dp-deep's longest block-route run, with and without an end window, and
    # the grid's atom pass off every lattice, at `derive_seed(0, 11, idx)`
    tube = cfg.template.make(n)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, derive_seed(0, 11, idx))
    if cfg is OFF_LATTICE_CI:
        est = tw.survival_grid(env, tube, tube.default_x0(), 400)
    else:
        est = tw.survival_dp_lattice(env, tube, tube.default_x0())
    assert (est.log_p.hex(), est.work, est.flags) == (log_p.hex(), work, flags)


@pytest.mark.parametrize(
    "cfg, idx, n, digest",
    [
        (SHIFT_END, 0, 3200, "dd87f8aff17aab6605905baceaf208a9226f2720940dba9cc35e7e42ee4ac411"),
        (BUILTIN_SHIFT, 2, 10001, "d4a20f05a7301cb22450d8c784419134a2deb743a1dd81f5696679909a117355"),
        (DP_LOOP_CI, 1, 800, "aa154f4d54eeadc33c467d25d441a000e9cba9b32672044fab86c2c3953d9176"),
    ],
)
def test_running_totals_keep_their_pinned_bits(monkeypatch, cfg, idx, n, digest):
    # the block route (n = 10001 ends on a step outside any block) and the
    # step loop, every running total to the bit
    tube = cfg.template.make(n)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, derive_seed(0, 11, idx))
    _, running = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, tube.default_x0())
    assert running.shape == (n + 1,) and hashlib.sha256(running.tobytes()).hexdigest() == digest


def _dp_peak(cfg, n: int) -> int:
    """Bytes tracemalloc sees at the peak of a DP pass (the environment is made before)."""
    tube = cfg.template.make(n)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, derive_seed(0, 11, 0))
    tracemalloc.start()
    try:
        tw.survival_dp_lattice(env, tube, tube.default_x0())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dp_memory_is_flat_in_n():
    # beside its environment a pass reads the tube's bounds, and works out its
    # block keys, a chunk of times at a time: the block route on the builtin's
    # constant tube holds its tables (0.91 MiB, 1.62 MiB while they are built;
    # 6.97 MiB with the whole bounds and keys), and the step loop on the CI's
    # widening tube grows with the tube's width only (x1.5 over these n)
    assert _dp_peak(BUILTIN_SHIFT, 200_000) <= 2.5 * 2**20
    assert _dp_peak(DP_LOOP_CI, 50_000) <= 1.25 * _dp_peak(DP_LOOP_CI, 12_500)


def test_running_totals_hold_no_python_int_per_time(monkeypatch):
    # the running totals at n = 200000 are 1.53 MiB, held twice while the
    # result is built; a dict and a list of the times would add about 37 MiB
    take = _every_step(monkeypatch)
    assert _dp_peak(BUILTIN_SHIFT, 200_000) <= 8 * 2**20
    assert [len(run) for run in take().values()] == [200_001]


def _deep_rademacher(n):
    template = tw.TubeTemplate(g=-1.0, h=1.0, alpha=0.1, f_coeff=1.0, f_power=0.5)
    tube = template.make(n)
    return _rademacher_env(tube.f_offset + n, seed=1), tube


def test_dp_follows_spectral_rate_past_underflow():
    # 5 sites in the tube for every n below: the killed +-1 walk decays by
    # cos(pi/6) per step, and even n share the same constant
    rate = math.log(math.cos(math.pi / 6))
    excess = {}
    for n in (2000, 6000, 20000):
        env, tube = _deep_rademacher(n)
        est = tw.survival_dp_lattice(env, tube, 0.0)
        excess[n] = est.log_p - n * rate
    assert est.p == 0.0 and est.log_p == pytest.approx(-2876.8, abs=0.5)
    assert excess[6000] == pytest.approx(excess[2000], abs=1e-9)
    assert excess[20000] == pytest.approx(excess[2000], abs=1e-9)


def test_grid_follows_dp_past_underflow():
    env, tube = _deep_rademacher(20000)
    dp = tw.survival_dp_lattice(env, tube, 0.0)
    grid = tw.survival_grid(env, tube, 0.0)
    assert grid.log_p == pytest.approx(dp.log_p, abs=1e-9)


def _same_bits(lazy, eager):
    """A pass with totals on demand gives every bit of one with a total at every step."""
    assert lazy.log_p.hex() == eager.log_p.hex()
    assert lazy.work == eager.work and lazy.flags == eager.flags


def _spy_rescales(monkeypatch):
    """The totals at which a pass rescales the mass, in order: every pass,
    on either route, rescales in `propagate._scaled_pass`."""
    totals = []

    def frexp(x):
        totals.append(x)
        return math.frexp(x)

    monkeypatch.setattr(propagate, "math", SimpleNamespace(**{**vars(math), "frexp": frexp}))
    return totals


def test_lazy_totals_keep_every_bit_on_the_builtin_ladder(monkeypatch):
    cfg = tw_config.validate(tw_config.load_builtin("random-shift-bernoulli"))
    for k, n in enumerate(cfg.n_list):
        tube = cfg.template.make(n)
        env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, derive_seed(cfg.seed, 11, k))
        x0 = tube.default_x0()
        eager, _ = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, x0)
        _same_bits(tw.survival_dp_lattice(env, tube, x0), eager)


def test_lazy_totals_rescale_on_the_same_totals(monkeypatch):
    # log p = -2877: the mass is rescaled every ~500 steps, each time after a
    # run of steps whose check found the total below the threshold
    env, tube = _deep_rademacher(20000)
    eager_rescales = _spy_rescales(monkeypatch)
    eager, _ = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    lazy_rescales = _spy_rescales(monkeypatch)
    _same_bits(tw.survival_dp_lattice(env, tube, 0.0), eager)
    assert len(eager_rescales) >= 8 and lazy_rescales == eager_rescales


def test_lazy_totals_die_out_on_the_same_step(monkeypatch):
    tube = tw.TubeSpec(g=-0.5, h=0.5, alpha=0.01, n=40)
    env = tw.sample_environment(SPECS["rademacher"], 40, seed=3)
    eager, run = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    assert run[1] == 0.0
    _same_bits(tw.survival_dp_lattice(env, tube, 0.0), eager)
    # the grid's atom branch: its work counts the steps up to the last one
    narrow = tw.TubeSpec(g=-0.05, h=0.05, alpha=0.01, n=40)
    [lazy] = quench_dp._grid_passes(env, narrow, 0.0, (60,))
    [eager], run = _with_totals(monkeypatch, quench_dp._grid_passes, env, narrow, 0.0, (60,))
    assert lazy[0] == eager[0] == -math.inf and not run[-1]
    assert lazy[1:] == eager[1:] and 0 < eager[1] < narrow.n * 60


@pytest.mark.parametrize("steps", [1, 5])
def test_lazy_replay_reads_kernels_across_blocks(monkeypatch, steps):
    # three atoms on a thin MOVING tube reach 2**-500 after ~1150 steps; a
    # replay that goes back past a block of `steps` kernels builds it again
    starts = []

    def logged(*args):
        width, r, block, build = real(*args)
        return width, r, block, lambda j0, j1: starts.append(j0) or build(j0, j1)

    real = quench_dp._shift_kernels
    monkeypatch.setattr(quench_dp, "_shift_kernels", logged)
    monkeypatch.setattr(propagate, "_block_steps", lambda width, entries: steps)
    tube = tw.TubeSpec(**{**MOVING, "alpha": 0.05, "n": 2000})
    env = tw.sample_environment(THREE_ATOMS, tube.f_offset + tube.n, seed=23)
    lazy = tw.survival_dp_lattice(env, tube, 0.0)
    assert any(later < earlier for earlier, later in zip(starts, starts[1:]))
    eager, _ = _with_totals(monkeypatch, tw.survival_dp_lattice, env, tube, 0.0)
    _same_bits(lazy, eager)
    assert lazy.log_p < -500 * math.log(2)


def test_dp_sums_the_mass_only_at_checks(monkeypatch):
    # without running totals the DP reads a total only at the end of a run
    # of steps: the block route's runs read a block's prefix rows and sum the
    # mass only at the start and the end window, not every step
    sums = []

    def counted(mass):
        sums.append(len(mass))
        return real(mass)

    real = propagate._sum
    monkeypatch.setattr(propagate, "_sum", counted)
    cfg = tw_config.validate(tw_config.load_builtin("random-shift-bernoulli"))
    tube = cfg.template.make(3200)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + 3200, derive_seed(0, 11, 0))
    est = tw.survival_dp_lattice(env, tube, tube.default_x0())
    assert est.log_p.hex() == (-35.82087266526615).hex()
    assert 0 < len(sums) <= tube.n // 8
    # so does the Gaussian taps step, whose runs keep far more than twice the
    # `grid_roundoff` floor of the mass here: the CI taps run at n = 3000,
    # whose half resolution takes the taps (the band sums no real mass)
    del sums[:]
    sides = _spy_sides(monkeypatch)
    tube = TAPS_CI.template.make(3000)
    env = tw.sample_environment(TAPS_CI.env_spec, tube.f_offset + 3000, derive_seed(0, 11, 0))
    est = tw.survival_grid(env, tube, tube.default_x0(), 300)
    assert est.log_p.hex() == (-8.8653070985882394).hex()
    assert sorted(sides) == ["band", "taps"] and 0 < len(sums) <= tube.n // 8


def test_mass_row_restores_its_time_and_live_range():
    # the cut narrows from all 12 nodes to [4, 8): a row restored to time 1
    # must again clear the nodes the restored mass holds outside the next cut
    cuts = [(0, 12), (2, 10), (4, 8), (3, 9)]
    moves = np.array([[-1.0, 1.0], [-2.0, 0.0], [0.0, 1.0], [-1.0, 2.0]])
    kernels = propagate._shift_kernels(moves, np.arange(4), np.array([0.25, 0.75]), 12)
    tube = tw.TubeSpec(g=-1.0, h=12.0, alpha=0.01, n=len(cuts))  # holds all 12 nodes at time 0

    def row():
        row = propagate._MassRow(np.linspace(1.0, 2.0, 12), np.arange(12.0), tube, 0, kernels)
        row.ranges = iter(cuts)  # the cuts above, in place of the tube's
        assert row.begin() == [row.mass.sum()]
        return row

    def masses(row, steps):
        out = []
        for k in range(steps):
            row.advance((k,))
            out.append(row.mass.copy())
        return out

    fresh = row()
    fresh.load(0, len(cuts))
    want = masses(fresh, len(cuts))
    step = row()
    step.load(0, 1)
    masses(step, 1)
    step.load(1, 3)
    masses(step, 2)
    step.restore()
    np.testing.assert_array_equal(step.mass, want[0])
    for got, ref in zip(masses(step, 3), want[1:]):
        np.testing.assert_array_equal(got, ref)


# --- the block route --------------------------------------------------------
#
# On a constant tube an atom pass on whole-node moves advances four steps per
# table lookup (`propagate._blocks`); a table bound of 0 forces the step loop.


def _spy_propagate(monkeypatch):
    """The calls `_atom_pass` and `_grid_passes` make to the step loop off the
    block route (`_scaled_pass` on a state other than a `_BlockRow`, or
    `_band_pass`), counted."""
    calls = []

    def counted(*args, **kwargs):
        if not isinstance(args[0], propagate._BlockRow):
            calls.append(args[0])
        return real(*args, **kwargs)

    def band(*args):
        calls.append("band")
        return real_band(*args)

    real, real_band = quench_dp._scaled_pass, quench_dp._band_pass
    monkeypatch.setattr(quench_dp, "_scaled_pass", counted)
    monkeypatch.setattr(quench_dp, "_band_pass", band)
    return calls


def _routes(monkeypatch, env, tube, x0, every_step):
    """`_atom_pass` on the law's lattice by the block route, then by the step
    loop, each as (log_p, running, size, last): the running totals with
    `every_step` (`_with_totals`), else None."""
    calls = _spy_propagate(monkeypatch)

    def atom_pass():
        args = (env, tube, x0, 1.0 / env.lattice_q)
        if not every_step:
            log_p, size, last = quench_dp._atom_pass(*args)
            return log_p, None, size, last
        (log_p, size, last), run = _with_totals(monkeypatch, quench_dp._atom_pass, *args)
        return log_p, run, size, last

    block = atom_pass()
    assert not calls
    with monkeypatch.context() as m:
        m.setattr(propagate, "_TABLE_ENTRIES", 0)
        loop = atom_pass()
    assert len(calls) == 1
    return block, loop


def _same_pass(block, loop, rel=1e-13):
    """log_p within `rel`, equal size and last time, running totals within `rel`."""
    assert block[0] == pytest.approx(loop[0], rel=rel, abs=0.0)
    assert block[2:] == loop[2:]
    if loop[1] is None:
        assert block[1] is None
    else:
        np.testing.assert_allclose(block[1], loop[1], rtol=rel, atol=0.0)


@pytest.mark.parametrize("name, g", [("shift", 4), ("rademacher", 2), ("three", 3)])
@pytest.mark.parametrize(
    "n, extra",
    [
        (401, {}),
        (402, {"end_window": (-0.5, 0.3)}),
        (403, {"xi_threshold": 2.0}),
        (800, {"end_window": (-1.0, 0.0), "xi_threshold": 1.0}),
    ],
)
def test_block_route_is_the_step_loop(monkeypatch, name, g, n, extra):
    # a start on each coset of gZ (g = 4, 2, 3 for moves {-3, 1}/{-1, 3},
    # {-1, 1}, {-3, 0, 3} nodes), n mod 4 in {1, 2, 3, 0}
    tube = tw.TubeSpec(g=-1.0, h=1.2, alpha=0.3, n=n, f_offset=3, **extra)
    env = tw.sample_environment(SPECS[name], tube.f_offset + n, seed=24)
    a, cosets = None, set()
    for j in range(g):
        x0 = 0.1 + j / env.lattice_q
        lazy, lazy_loop = _routes(monkeypatch, env, tube, x0, False)
        eager, eager_loop = _routes(monkeypatch, env, tube, x0, True)
        _same_pass(lazy, lazy_loop)
        _same_pass(eager, eager_loop)
        assert lazy[0] == eager[0] and lazy[2:] == eager[2:] and math.isfinite(lazy[0])
        nodes, moves, start, codes, _ = propagate._lattice(env, tube, x0, 1.0 / env.lattice_q)
        row = propagate._blocks(nodes, moves, codes, env.atom_w, tube, start)
        assert len(row.windows) == g  # the end window's slots on each coset
        (a,), _ = propagate._kept(nodes, *tube.bounds_arrays(0, 1))
        cosets.add((start - a) % g)
    assert cosets == set(range(g))


def test_block_tables_depend_only_on_the_law():
    # the keys are the environment's own codes, in the law's kind order, so two
    # environments whose first steps draw different kernels index one table
    tube = tw.TubeSpec(g=-1.0, h=1.2, alpha=0.3, n=401)
    first = {}
    for seed in range(20):
        env = tw.sample_environment(SPECS["shift"], tube.n, seed=seed)
        first.setdefault(int(env.atom_codes[0]), env)
    rows = []
    for env in (first[0], first[1]):
        nodes, moves, start, codes, whole = propagate._lattice(env, tube, 0.1, 0.5)
        rows.append(propagate._blocks(nodes, moves, codes, env.atom_w, tube, start, whole))
    assert rows[0].windows == rows[1].windows
    np.testing.assert_array_equal(rows[0].mass, rows[1].mass)
    for (table, keys, *_), (other, other_keys, *_) in zip(rows[0].chunks, rows[1].chunks):
        assert keys != other_keys
        for a, b in zip(table, other):
            np.testing.assert_array_equal(a, b)


def test_block_route_dies_out_inside_a_block(monkeypatch):
    # three nodes: the walk survives only while the shifts alternate, and at
    # this seed it dies out at step 30, inside the second block after a check
    tube = tw.TubeSpec(g=-0.25, h=0.25, alpha=0.25, n=64)
    env = tw.sample_environment(SPECS["shift"], tube.n, seed=168)
    lazy, lazy_loop = _routes(monkeypatch, env, tube, 0.0, False)
    eager, eager_loop = _routes(monkeypatch, env, tube, 0.0, True)
    _same_pass(lazy, lazy_loop, 0.0)
    _same_pass(eager, eager_loop, 0.0)
    assert lazy[0] == eager[0] == -math.inf and lazy[3] == eager[3] == 30
    assert eager[1][29] > 0.0 and not eager[1][30:].any()
    # the grid's atom branch: its work counts the steps up to the last one
    assert quench_dp._grid_passes(env, tube, 0.0, (60,))[0][1] == 30 * lazy[2]


def test_block_route_rescales_a_deep_run(monkeypatch):
    # log p = -2877 on five sites: at least eight rescales, on the same
    # totals with and without running totals
    env, tube = _deep_rademacher(20000)
    block, loop = _routes(monkeypatch, env, tube, 0.0, False)
    _same_pass(block, loop)
    # running totals past exp(-708) are denormal or 0; before that they cross
    # the first rescales
    eager_block, eager_loop = _routes(monkeypatch, env, tube, 0.0, True)
    normal = eager_loop[1] >= np.finfo(float).tiny
    np.testing.assert_allclose(eager_block[1][normal], eager_loop[1][normal], rtol=1e-13, atol=0.0)
    assert eager_loop[1][normal][-1] < 2.0**-600
    eager_rescales = _spy_rescales(monkeypatch)
    eager, _ = _with_totals(monkeypatch, quench_dp._atom_pass, env, tube, 0.0, 1.0)
    lazy_rescales = _spy_rescales(monkeypatch)
    assert quench_dp._atom_pass(env, tube, 0.0, 1.0)[0] == eager[0] == block[0]
    assert len(eager_rescales) >= 8 and lazy_rescales == eager_rescales


def test_block_route_runs_on_the_one_step_loop(monkeypatch):
    # a block-route pass is one `_scaled_pass` call, on a `_BlockRow`; the
    # deep +-1 walk, rescaled at each step whose total falls below 2**-500,
    # keeps its bits past exp(-708)
    states = []

    def spy(state, *args):
        states.append(type(state))
        return real(state, *args)

    real = quench_dp._scaled_pass
    monkeypatch.setattr(quench_dp, "_scaled_pass", spy)
    env, tube = _deep_rademacher(20000)
    est = tw.survival_dp_lattice(env, tube, 0.0)
    assert states == [propagate._BlockRow]
    assert est.p == 0.0 and est.log_p.hex() == "-0x1.67910eaf07c61p+11"


@pytest.mark.parametrize("half, kept, blocks", [(22.375, 179, True), (22.5, 181, False)])
def test_block_route_table_bound(monkeypatch, half, kept, blocks):
    # random shift at q = 2 on a constant tube of 179 nodes has g * D**4 * M**2
    # = 4 * 16 * 45**2 table entries, within 2**17; 181 nodes need M = 46
    tube = tw.TubeSpec(g=-half, h=half, alpha=0.25, n=16)  # the tube is +-2 * half
    env = tw.sample_environment(SPECS["shift"], 16, seed=5)
    (a,), (b,) = propagate._kept(propagate._lattice(env, tube, 0.0, 0.5)[0], *tube.bounds_arrays(0, 1))
    assert b - a == kept
    calls = _spy_propagate(monkeypatch)
    quench_dp._atom_pass(env, tube, 0.0, 0.5)
    assert not calls == blocks


@pytest.mark.parametrize("every_step", [False, True])
def test_block_route_is_taken_where_it_applies(monkeypatch, every_step):
    # with totals on demand and at every step (`_every_step`)
    calls = _spy_propagate(monkeypatch)
    take = _every_step(monkeypatch) if every_step else None
    for builtin in ("random-shift-bernoulli", "degenerate-rademacher"):
        cfg = tw_config.validate(tw_config.load_builtin(builtin))
        tube = cfg.template.make(cfg.n_list[0])
        env = tw.sample_environment(cfg.env_spec, tube.f_offset + tube.n, seed=2)
        tw.survival_dp_lattice(env, tube, tube.default_x0())
        tw.survival_grid(env, tube, tube.default_x0())
    assert not calls
    # a moving tube, an off-lattice atom grid (also on a constant tube) and a
    # Gaussian law take the step loop, once a pass
    constant = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=200)
    for name, tube in [*((name, _case(name)[1]) for name in ("shift", "off-lattice", "gauss")), ("off-lattice", constant)]:
        env = tw.sample_environment(SPECS[name], tube.f_offset + tube.n, seed=2)
        quench_dp._grid_passes(env, tube, 0.0, (100,))
    env = tw.sample_environment(SPECS["shift"], MOVING["f_offset"] + MOVING["n"], seed=2)
    tw.survival_dp_lattice(env, tw.TubeSpec(**MOVING), 0.0)
    assert len(calls) == 5
    assert not every_step or take()


def _spy_scans(monkeypatch):
    """The shapes of the move arrays `_off_node` scans, in call order."""
    scans = []

    def spy(moves):
        scans.append(moves.shape)
        return real(moves)

    real = propagate._off_node
    monkeypatch.setattr(propagate, "_off_node", spy)
    return scans


@pytest.mark.parametrize("moving", [False, True], ids=["block-route", "step-loop"])
def test_a_dp_pass_scans_its_moves_once(monkeypatch, moving):
    # `_lattice` reports whether it rounded every move: the DP raises from that
    # report and the block route takes it, so nothing scans the moves again;
    # it scans the law's two kinds, not a row of moves per step
    cfg = tw_config.validate(tw_config.load_builtin("random-shift-bernoulli"))
    tube = tw.TubeSpec(**MOVING) if moving else cfg.template.make(3200)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + tube.n, seed=2)
    assert propagate._lattice(env, tube, 0.0, 1.0 / env.lattice_q)[4]
    scans = _spy_scans(monkeypatch)
    tw.survival_dp_lattice(env, tube, 0.0)
    assert scans == [(2, 2)]


def test_dp_rejects_moves_off_the_declared_lattice(monkeypatch):
    # atoms at +-sqrt(1/2) declared on (1/2)Z: `_lattice` does not round them,
    # the DP refuses them and the grid splits each move between two nodes
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=50)
    env = tw.sample_environment(SPECS["off-lattice"], tube.n, seed=3)
    declared = env.replace(lattice_q=2)
    assert not propagate._lattice(declared, tube, 0.0, 0.5)[4]
    scans = _spy_scans(monkeypatch)
    with pytest.raises(tw.NonLatticeError, match=r"\(1/2\)Z; use survival_grid"):
        tw.survival_dp_lattice(declared, tube, 0.0)
    assert scans == [(1, 2)]
    assert math.isfinite(tw.survival_grid(declared, tube, 0.0, 100).log_p)


def test_lattice_refuses_a_node_past_the_cap():
    # an atom pass holds at most 2**30 // 32 = 33554432 nodes: on the integer
    # lattice (n = 1, so the bounds are g and h) a start at 0.5 lays exactly
    # that many over [-16777214.75, 16777214.75], and one more over
    # [-16777215.25, 16777215.75], which `_lattice` refuses before laying any out
    assert propagate._NODE_CAP == 33554432
    assert propagate._atom_nodes(1, 1.0, -16777214.75, 16777214.75, 0.5)[3] == propagate._NODE_CAP
    tube = tw.TubeSpec(g=-16777215.25, h=16777215.75, alpha=0.3, n=1)
    env = _rademacher_env(1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="33554433 nodes"):
            propagate._lattice(env, tube, 0.5, 1.0)
        with pytest.raises(ValueError, match="33554433 nodes"):
            tw.survival_dp_lattice(env, tube, 0.5)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 2**20


def _sized_and_laid(monkeypatch, name, sets, layout):
    """Each (n, start) of a validated builtin run: what `quench_dp.pass_sizes` sizes there, and
    the `layout` results (`_lattice` or `_kernel_layout`, spied) its passes take."""
    cfg = tw_config.validate(tw_config.apply_overrides(tw_config.load_builtin(name), sets))
    method = rate.resolve_method(cfg.estimator["method"], cfg.env_spec)
    sized = {}
    for n in cfg.n_list:
        tube = cfg.template.make(n)
        for x in tube.run_starts(cfg.x0, cfg.sweep_starts):
            sized[n, x] = quench_dp.pass_sizes(cfg.env_spec, tube, [x], method, cfg.estimator["grid_points"])
    laid, real, starts = {}, getattr(quench_dp, layout), {}
    estimate = rate.make_estimator(**cfg.estimator_params)

    def spy(*args):
        out = real(*args)
        laid.setdefault(starts["now"], []).append(out)
        return out

    def run(env, tube, x0, seed):
        starts["now"] = (tube.n, x0)
        return estimate(env, tube, x0, seed=seed)

    monkeypatch.setattr(quench_dp, layout, spy)
    rate.run_points(cfg.env_spec, cfg.template, cfg.n_list, run, seed=cfg.seed, x0=cfg.x0, sweep_starts=cfg.sweep_starts)
    return sized, laid


_OFF_LATTICE_ATOMS = "environment.atoms=[[-0.7071067811865476,0.5],[0.7071067811865476,0.5]]"


@pytest.mark.parametrize(
    "name, sets",
    [
        ("degenerate-rademacher", []),
        ("degenerate-rademacher", ["estimator.method=grid"]),
        ("degenerate-rademacher", [_OFF_LATTICE_ATOMS, "estimator.method=auto"]),
        ("random-shift-bernoulli", []),
        ("random-shift-bernoulli", ["estimator.method=grid"]),
        ("random-shift-bernoulli", ["tube.sweep_starts=true", "tube.n_list=[200,400,800]"]),
        # the Gaussian builtin's tubes, on an atom law
        ("random-mean-gaussian", [_OFF_LATTICE_ATOMS, "environment.family=degenerate", "tube.x0=0.1"]),
    ],
)
def test_pass_sizes_count_the_nodes_the_atom_pass_lays_out(monkeypatch, name, sets):
    # the count validation sizes at each n and start is the node count `_lattice` lays
    # out there (the grid's finer pass, where an off-lattice law runs two)
    sized, laid = _sized_and_laid(monkeypatch, name, sets, "_lattice")
    assert sized.keys() == laid.keys()
    for key, ((count, unit_bytes, unit, _),) in sized.items():
        assert (unit_bytes, unit) == (propagate._NODE_BYTES, "node")
        assert count == max(len(lattice[0]) for lattice in laid[key])


def test_pass_sizes_bound_the_gaussian_layout(monkeypatch):
    # validation sizes the Gaussian grid at 8 sigma_a for the largest |step mean|:
    # at every n, at least the reach and padded row its passes lay out
    sized, laid = _sized_and_laid(monkeypatch, "random-mean-gaussian", [], "_kernel_layout")
    assert sized.keys() == laid.keys()
    for key, ((taps, *_), (row, *_)) in sized.items():
        assert all(2 * reach + 1 <= taps and length <= row for reach, length, _ in laid[key])

