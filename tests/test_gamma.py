import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.special import ndtr, stdtrit

import tubewalk as tw
import tubewalk.gamma as gamma_mod
from tubewalk import propagate
from tubewalk.gamma import BARRIER_SHIFT, _confinement_profiles
from tubewalk.propagate import _band_modes, _fast_len, _kernel_modes
from tubewalk.rng import STREAM_GAMMA_W, derive_seed, substream

PI2_2 = math.pi**2 / 2


def test_zero_increments_equal_beta_zero():
    w = np.zeros(500)
    base = tw.quenched_bm_confinement(w, 0.0, 1e-3, 100)
    for beta in (0.7, 2.0, 13.0):
        assert tw.quenched_bm_confinement(w, beta, 1e-3, 100) == base


def test_single_tiny_step_survives():
    assert tw.quenched_bm_confinement([0.0], 0.0, 1e-8, 100) == pytest.approx(1.0, abs=1e-6)


def test_y0_outside_tube_gives_zero():
    assert tw.quenched_bm_confinement(np.zeros(10), 0.0, 1e-3, 100, y0=0.7) == 0.0


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        tw.quenched_bm_confinement(np.zeros(10), 0.0, 0.0, 100)
    with pytest.raises(ValueError):
        tw.quenched_bm_confinement(np.zeros(10), 0.0, 1e-3, 10)


def test_beta_zero_slope_recovers_reference():
    # fit -ln P = gamma t + const over t in {4, 6, 8} to drop the entry cost
    dt = 1e-3
    ts = [4.0, 6.0, 8.0]
    ps = [tw.quenched_bm_confinement(np.zeros(int(t / dt)), 0.0, dt, 400) for t in ts]
    slope = np.polyfit(ts, -np.log(ps), 1)[0]
    assert 0.95 * PI2_2 <= slope <= 1.05 * PI2_2


def test_raw_discrete_monitoring_is_biased_low():
    # without the barrier correction the rate is ~7% low at dt=1e-3 -- the
    # correction is what makes the estimator target the continuum limit
    dt = 1e-3
    ts = [4.0, 6.0, 8.0]
    ps = [
        tw.quenched_bm_confinement(np.zeros(int(t / dt)), 0.0, dt, 400, barrier_correction=False)
        for t in ts
    ]
    slope = np.polyfit(ts, -np.log(ps), 1)[0]
    assert slope < 0.95 * PI2_2


def test_total_mass_nonincreasing_in_time_and_drift():
    dt, steps = 1e-3, 2000
    checkpoints = tuple(range(200, steps + 1, 200))
    w = np.full((1, steps), math.sqrt(dt))  # all-positive increments
    probs = _confinement_profiles(-0.5 * w, dt, 200, 0.0, True, checkpoints)[0]
    assert all(b <= a for a, b in zip(probs, probs[1:]))
    finals = [
        _confinement_profiles(-beta * w, dt, 200, 0.0, True, (steps,))[0, 0] for beta in (0.0, 0.5, 1.0)
    ]
    assert finals[0] >= finals[1] >= finals[2]


def test_scaling_invariance():
    # width rescaled by lambda, time by lambda^2: normalising the dilated
    # problem back through dt and drift must return the same probability
    lam, dt, t = 2.0, 1e-3, 2.0
    rng = np.random.default_rng(5)
    w = rng.normal(0.0, math.sqrt(dt), int(t / dt))
    p = tw.quenched_bm_confinement(w, 1.0, dt, 400)
    w_dilated = lam * w  # W increments of the width-lam problem on the lam^2 dt grid
    dt_dilated = lam**2 * dt
    p_rescaled = tw.quenched_bm_confinement(w_dilated / lam, 1.0, dt_dilated / lam**2, 400)
    assert abs(math.log(p) - math.log(p_rescaled)) <= 1e-3 * max(1.0, abs(math.log(p)))


def test_time_refinement_consistency():
    # the corrected scheme is stable under refining dt (zero-drift case);
    # the residual is dominated by the entry-cost constant, not the rate
    dt, t = 1e-3, 2.0
    steps = int(t / dt)
    p = tw.quenched_bm_confinement(np.zeros(steps), 0.0, dt, 400)
    p_fine = tw.quenched_bm_confinement(np.zeros(4 * steps), 0.0, dt / 4.0, 400)
    assert abs(math.log(p) - math.log(p_fine)) <= 5e-3 * max(1.0, abs(math.log(p)))


def test_time_refinement_residual_with_drift_is_small():
    # with beta > 0 the within-step wiggle of W is unresolved; refining the
    # grid 4x moves -ln P by under 2% (the quoted desk-scale accuracy)
    dt, t = 1e-3, 2.0
    rng = np.random.default_rng(5)
    w = rng.normal(0.0, math.sqrt(dt), int(t / dt))
    p = tw.quenched_bm_confinement(w, 1.0, dt, 400)
    p_fine = tw.quenched_bm_confinement(np.repeat(w / 4.0, 4), 1.0, dt / 4.0, 400)
    assert abs(math.log(p) - math.log(p_fine)) <= 0.02 * abs(math.log(p))


def test_grid_refinement_changes_rate_below_percent():
    dt = 1e-3
    ts = [4.0, 6.0, 8.0]

    def slope(dt_, grid):
        ps = [tw.quenched_bm_confinement(np.zeros(int(t / dt_)), 0.0, dt_, grid) for t in ts]
        return np.polyfit(ts, -np.log(ps), 1)[0]

    base = slope(dt, 400)
    fine = slope(dt / 2, 800)
    assert abs(fine - base) / base < 0.01


def test_estimate_gamma_zero(gamma_estimates):
    est = gamma_estimates[0.0]
    assert est.gamma_hat == pytest.approx(PI2_2, rel=0.05)
    # beta = 0: the drift vanishes for every W replica, so all replicas agree
    assert est.ci95[0] == est.ci95[1] == est.gamma_hat
    assert len(set(est.per_replica_values)) == 1


def test_estimate_gamma_monotone_in_beta(gamma_estimates):
    g0, g5, g1 = (gamma_estimates[b] for b in (0.0, 0.5, 1.0))
    assert g0.gamma_hat < g5.gamma_hat < g1.gamma_hat
    assert g0.ci95[1] < g5.ci95[0] and g5.ci95[1] < g1.ci95[0]


def test_estimate_gamma_mean_invariant(gamma_estimates):
    est = gamma_estimates[0.5]
    assert est.gamma_hat == pytest.approx(np.mean(est.per_replica_values))
    assert est.gamma_hat > 0


def test_estimate_gamma_preconditions():
    with pytest.raises(ValueError):
        tw.estimate_gamma(0.0, env_replicas=4)
    with pytest.raises(ValueError):
        tw.estimate_gamma(-0.5)


def test_estimate_gamma_underflow_guidance():
    # extreme beta drives the confinement probability to exact zero; the
    # error tells the caller which knobs to turn
    with pytest.raises(RuntimeError, match="grid_points|dt"):
        tw.estimate_gamma(10.0, horizon_t=4.0, dt=1e-3, grid_points=100, env_replicas=8, seed=1)


def test_reference_rates():
    assert tw.GAMMA_ZERO == pytest.approx(PI2_2)
    assert tw.bm_tube_rate(1.0, 2.0) == pytest.approx(math.pi**2 / 8)
    assert tw.bm_tube_rate(1.0, 1.0) == pytest.approx(tw.GAMMA_ZERO)
    assert tw.bm_tube_rate(2.0, 2.0) == pytest.approx(4 * math.pi**2 / 8)
    with pytest.raises(ValueError):
        tw.bm_tube_rate(0.0, 1.0)


@pytest.mark.parametrize(
    "dt, grid_points",
    [(1e-8, 100), (1.6e-5, 100), (1.6e-5, 400), (1.6e-5, 800), (1e-3, 384)],
    ids=["sd/dx=0.01", "sd/dx=0.4", "sd/dx=1.6", "sd/dx=3.2", "sd/dx=12.6"],
)
def test_kernel_transform_matches_fft_of_sampled_kernel(dt, grid_points):
    # the closed form is the DFT of the ndtr bin-edge kernel wrapped to index 0
    sd = math.sqrt(dt)
    dx = 2.0 * (0.5 - BARRIER_SHIFT * sd) / grid_points
    for drift in (0.0, 2.7 * dx + 0.3 * sd, -(5.2 * dx + 1.1 * sd)):
        reach = math.ceil((8.0 * sd + abs(drift)) / dx) + 1
        n = next_fast_len(grid_points + reach, real=True)
        offs = np.arange(-reach, reach + 1) * dx
        kernel = ndtr((offs + 0.5 * dx - drift) / sd) - ndtr((offs - 0.5 * dx - drift) / sd)
        wrapped = np.zeros(n)
        wrapped[: reach + 1] = kernel[reach:]
        wrapped[n - reach :] = kernel[:reach]
        band = _kernel_modes(np.array([drift]), sd, dx, n, _band_modes(sd / dx, n))[:, 0]
        # the transform of a real kernel is real at modes 0 and n/2
        assert band[0].imag == 0.0 and (len(band) <= n // 2 or n % 2 or band[n // 2].imag == 0.0)
        closed = np.zeros(n // 2 + 1, dtype=complex)  # modes past the band are zero
        closed[: len(band)] = band
        assert np.abs(closed - np.fft.rfft(wrapped)).max() <= 1e-13


def _direct_profiles(w, beta, dt, grid, cps):
    """One replica at a time, np.convolve with sampled ndtr kernels."""
    sd = math.sqrt(dt)
    half = 0.5 - BARRIER_SHIFT * sd
    edges = np.linspace(-half, half, grid + 1)
    dx = edges[1] - edges[0]
    rows = []
    for drifts in -beta * w:
        hw = math.ceil((8.0 * sd + np.abs(drifts).max()) / dx) + 1
        offs = np.arange(-hw, hw + 1) * dx
        mass = ndtr((edges[1:] - drifts[0]) / sd) - ndtr((edges[:-1] - drifts[0]) / sd)
        want = []
        for k in range(2, len(drifts) + 1):
            d = drifts[k - 1]
            kernel = ndtr((offs + 0.5 * dx - d) / sd) - ndtr((offs - 0.5 * dx - d) / sd)
            mass = np.convolve(mass, kernel)[hw : hw + grid]
            if k in cps:
                want.append(mass.sum())
        rows.append(want)
    return np.array(rows)


def test_batched_fft_profile_matches_direct_convolution():
    dt, grid, steps, cps = 1e-3, 100, 300, (100, 200, 300)
    w = np.random.default_rng(11).normal(0.0, math.sqrt(dt), (3, steps))
    got = _confinement_profiles(-w, dt, grid, 0.0, True, cps)
    np.testing.assert_allclose(got, _direct_profiles(w, 1.0, dt, grid, cps), rtol=1e-12, atol=0.0)


def _spy_basis(monkeypatch):
    """The node positions of each `_band_basis` call, in call order."""
    calls = []

    def spy(n, band, positions):
        calls.append(np.array(positions))
        return real(n, band, positions)

    real = propagate._band_basis
    monkeypatch.setattr(propagate, "_band_basis", spy)
    return calls


def test_band_profile_matches_direct_convolution_with_aliases(monkeypatch):
    # sd/dx = 0.4: alias bands of the kernel transform reach the top mode, so
    # the band is every mode of the padded row (at zero drift n = 108), and
    # the padding is shorter than the band, so the cut runs as I - L @ R
    # with the factors of the padding entries
    dt, grid, steps, cps = 1.6e-5, 100, 300, (100, 200, 300)
    _, dx, n, band = gamma_mod._layout(dt, grid)
    sd = math.sqrt(dt)
    assert sd / dx < 1.5 and (n, band) == (108, 108 // 2 + 1)
    w = np.random.default_rng(12).normal(0.0, sd, (3, steps))
    _, _, n, band = gamma_mod._layout(dt, grid, max_drift=np.abs(w).max())
    calls = _spy_basis(monkeypatch)
    got = _confinement_profiles(-w, dt, grid, 0.0, True, cps)
    assert n - grid < band and len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.arange(grid, n))
    np.testing.assert_allclose(got, _direct_profiles(w, 1.0, dt, grid, cps), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("first", [0, 9], ids=["fixed", "moving"])
@pytest.mark.parametrize("n, grid, band", [(120, 60, 25), (108, 100, 55), (125, 100, 63), (540, 400, 58)])
def test_band_cut_matches_fft_of_cut_basis(monkeypatch, n, grid, band, first):
    # the operator a band cut applies, read off by cutting 2K identity rows:
    # the cut keeps the nodes [first, grid), all of the grid or a range that
    # moved in from its start
    a, b = first, grid
    rows = 2 * band
    calls = _spy_basis(monkeypatch)
    got = np.empty((rows, rows))
    propagate._apply_cut(propagate._cut_form(n, band, a, b, rows), np.eye(rows), got)
    # reference: rfft of each band basis mode's irfft, cut to the nodes [a, b)
    basis = np.eye(rows).view(complex)  # row 2j: mode j; row 2j + 1: 1j * mode j
    cut = np.fft.irfft(basis, n)
    cut[:, :a] = 0.0
    cut[:, b:] = 0.0
    want = np.ascontiguousarray(np.fft.rfft(cut, n)[:, :band]).view(float)
    # fewer dropped nodes than modes: the factors of the dropped nodes, else
    # the dense operator in closed form, with no basis rows
    factored = n - (b - a) < band
    dropped = [np.array_equal(p, np.r_[0:a, b:n]) for p in calls]
    assert dropped == ([True] if factored else [])
    # the operator passes on (factors) or zeroes (dense) the imaginary parts of
    # modes 0 and n/2, which the inverse FFT drops; the state keeps them zero
    for j in (0, n // 2) if n % 2 == 0 and band > n // 2 else (0,):
        assert got[2 * j + 1, 2 * j + 1] == (1.0 if factored else 0.0)
        got[2 * j + 1, 2 * j + 1] = 0.0
        assert not got[2 * j + 1].any() and not got[:, 2 * j + 1].any()
    # the FFTs of the reference round off by about 1e-17 a kept node
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 if factored else 1e-17 * max(100, b - a))


@pytest.mark.parametrize("n, band", [(120, 25), (108, 55), (125, 63), (540, 58), (512, 55), (2000, 128)])
@pytest.mark.parametrize("a, b", [(0, 50), (9, 100), (37, 101)])
def test_cut_operator_matches_the_basis_product(n, band, a, b):
    # the closed form against the sum over the kept nodes; with n = 108 the
    # band holds the Nyquist mode, and n divides j + k = 108
    left, right = propagate._band_basis(n, band, np.arange(a, b))
    want = left @ right
    got = propagate._cut_operator(n, band, a, b)
    assert not got[want == 0.0].any()  # the imaginary parts of modes 0 and n/2
    np.testing.assert_allclose(got, want, rtol=0.0, atol=5e-15 * np.abs(want).max())


def _constant_rows(mass, means, dx, n, band, grid):
    """`propagate._BandRows` of `mass` on all `grid` nodes at every time."""
    every = (0, grid)
    return propagate._BandRows(mass, means, dx, n, band, every, itertools.repeat(every), every, 0.0)


@pytest.mark.parametrize("dt, grid", [(1e-3, 400), (1.6e-5, 100)], ids=["dense", "factors"])
def test_band_rows_equal_single_row_passes(dt, grid):
    # R rows take one matrix product a step (gemm), one row a vector product
    # (gemv): the rounding may differ, the values agree to round-off
    sd = math.sqrt(dt)
    drifts = np.random.default_rng(14).normal(0.0, 0.5 * sd, (5, 100))
    half, dx, n, band = gamma_mod._layout(dt, grid, max_drift=np.abs(drifts).max())
    first = propagate._bin_masses(drifts[:, 0] - (0.5 * dx - half), sd, dx, n, band, 0, grid)

    def profile(means, mass):
        rows = _constant_rows(mass, means, dx, n, band, grid)
        return propagate._band_pass([rows], sd, 1, drifts.shape[1], range(2, drifts.shape[1] + 1))[4][0]

    rows = profile(drifts.T, first.copy())
    assert rows.shape == (5, 99)
    for r in range(5):
        single = profile(drifts[r : r + 1].T, first[r : r + 1].copy())[0]
        np.testing.assert_allclose(rows[r], single, rtol=1e-14, atol=0.0)


def test_confinement_row_is_the_grid_pass_on_a_constant_tube():
    # gamma's profiles are the grid's band pass on the nodes of [-half, half],
    # its kept ranges read off the tube's bounds as `quench_dp` reads them:
    # the same rows in the same pass, so the same bits
    dt, grid, steps, cps = 1e-3, 400, 300, (1, 150, 300)
    sd = math.sqrt(dt)
    drifts = -0.5 * np.random.default_rng(15).normal(0.0, sd, (3, steps))
    profiles = _confinement_profiles(drifts, dt, grid, 0.0, True, cps)
    half, dx, n, band = gamma_mod._layout(dt, grid, max_drift=np.abs(drifts).max())
    nodes = -half + (np.arange(grid) + 0.5) * dx
    tube = tw.TubeSpec(g=-half / steps**0.25, h=half / steps**0.25, alpha=0.25, n=steps)  # [-half, half], to an ulp
    (a,), (b,) = propagate._kept(nodes, *tube.bounds_arrays(0, 1))
    assert (a, b) == (0, grid)
    mass = propagate._bin_masses(drifts[:, 0] - nodes[0], sd, dx, n, band, 0, grid)
    rows = propagate._BandRows(mass, drifts.T, dx, n, band, (a, b), propagate._ranges(nodes, tube, 1), (a, b), 0.0)
    np.testing.assert_array_equal(profiles, propagate._band_pass([rows], sd, 1, steps, cps)[4][0])


@pytest.mark.parametrize(
    "dt, grid, replicas, beta",
    [
        (1e-3, 400, 8, 0.5),
        (1e-4, 3000, 64, 0.5),
        (1.6e-5, 100, 8, 0.5),
        (1e-6, 2000, 64, 0.5),
        (1e-3, 400, 8, 20.0),
        (1e-4, 3000, 64, 20.0),
    ],
    ids=["dense", "dense-64", "cut-aliases", "cut-aliases-64", "dense-beta-20", "dense-64-beta-20"],
)
def test_run_bytes_bound_the_traced_peak(dt, grid, replicas, beta):
    # config.validate caps gamma's memory with _run_bytes on the layout of
    # drifts up to beta * 8 sqrt(dt), the kernel's own reach, so that must
    # bound what a call allocates besides its drifts
    sd = math.sqrt(dt)
    drifts = -beta * np.random.default_rng(13).normal(0.0, sd, (replicas, 20))
    assert np.abs(drifts).max() <= beta * 8.0 * sd
    _, _, n, band = gamma_mod._layout(dt, grid, max_drift=beta * 8.0 * sd)
    tracemalloc.start()
    try:
        _confinement_profiles(drifts, dt, grid, 0.0, True, (20,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= propagate._run_bytes(grid, n, band, replicas)


def test_t_quantile_matches_scipy():
    dofs = [*range(1, 301), 1000, 20000]
    for prob in (0.95, 0.975, 0.995):
        got = np.array([gamma_mod.t_quantile(dof, prob) for dof in dofs])
        np.testing.assert_allclose(got, stdtrit(dofs, prob), rtol=1e-11, atol=0.0)


def test_estimate_gamma_pinned_value():
    # the builtin random-shift-bernoulli gamma row (seed 20260802, beta index 0)
    est = tw.estimate_gamma(0.5, seed=derive_seed(20260802, 7, 0))
    assert est.gamma_hat == pytest.approx(6.106453525364176, rel=1e-10, abs=0.0)


def test_estimate_gamma_does_not_depend_on_batching(monkeypatch):
    # replica batches and transform blocks only bound memory
    kwargs = dict(horizon_t=1.0, dt=0.01, grid_points=60, env_replicas=11, seed=5)
    whole = tw.estimate_gamma(0.7, **kwargs)
    monkeypatch.setattr(gamma_mod, "_REPLICA_BATCH", 4)
    monkeypatch.setattr(propagate, "_FFT_BLOCK_ENTRIES", 1000)
    split = tw.estimate_gamma(0.7, **kwargs)
    np.testing.assert_allclose(split.per_replica_values, whole.per_replica_values, rtol=1e-12)


def test_estimate_gamma_does_not_depend_on_the_transform_block_size(monkeypatch):
    # _FFT_BLOCK_ENTRIES bounds memory only: the cut operator is built in
    # closed form, so the estimate keeps every bit
    kwargs = dict(horizon_t=1.0, dt=1e-3, grid_points=400, env_replicas=11, seed=5)
    whole = tw.estimate_gamma(0.7, **kwargs)
    monkeypatch.setattr(propagate, "_FFT_BLOCK_ENTRIES", 1000)
    assert tw.estimate_gamma(0.7, **kwargs).per_replica_values == whole.per_replica_values


def test_confinement_profiles_work_out_the_band_once(monkeypatch):
    # a block of transforms a step: the band comes from the layout, once a
    # call, not once a block
    calls = []

    def counted(s, n):
        calls.append(n)
        return real(s, n)

    real = propagate._band_modes
    monkeypatch.setattr(propagate, "_band_modes", counted)
    monkeypatch.setattr(propagate, "_FFT_BLOCK_ENTRIES", 100)
    drifts = -0.5 * np.random.default_rng(18).normal(0.0, math.sqrt(1e-3), (3, 200))
    _confinement_profiles(drifts, 1e-3, 400, 0.0, True, (100, 200))
    assert 1 <= len(calls) <= 2


def test_fast_len_matches_scipy():
    assert [_fast_len(t) for t in range(1, 5001)] == [
        next_fast_len(t, real=True) for t in range(1, 5001)
    ]


@pytest.mark.parametrize("y0", [0.0, 0.4, -0.45])
def test_point_source_first_step_matches_ndtr(monkeypatch, y0):
    # the first step's masses are the step kernel at drift y0 + dW - node0
    firsts = []

    def spy(*args):
        out = real(*args)
        firsts.append(out.copy())
        return out

    real = gamma_mod._bin_masses
    monkeypatch.setattr(gamma_mod, "_bin_masses", spy)
    dt, grid, beta = 1e-3, 400, 1.0
    w = np.random.default_rng(4).normal(0.0, math.sqrt(dt), (5, 3))
    _confinement_profiles(-beta * w, dt, grid, y0, True, (1,))
    sd = math.sqrt(dt)
    half = 0.5 - BARRIER_SHIFT * sd
    edges = np.linspace(-half, half, grid + 1)
    # the bins of spacing dx that the later FFT steps assume; np.linspace's
    # edges stray from them by up to ~2e-14, which moves masses by ~7e-15
    edges = edges[0] + np.arange(grid + 1) * (edges[1] - edges[0])
    first = -beta * w[:, :1]
    want = ndtr((edges[1:] - y0 - first) / sd) - ndtr((edges[:-1] - y0 - first) / sd)
    assert len(firsts) == 1
    assert np.abs(firsts[0] - want).max() <= 1e-15 and firsts[0].min() >= 0.0


def test_beta_zero_propagates_one_replica(monkeypatch):
    # reference: the all-replica path, every replica propagated
    kwargs = dict(horizon_t=1.0, dt=0.01, grid_points=60, env_replicas=11, seed=5)
    steps, cps = 100, (50, 75, 100)
    w = np.stack([substream(5, STREAM_GAMMA_W, r).normal(0.0, 0.1, steps) for r in range(11)])
    probs = _confinement_profiles(-0.0 * w, 0.01, 60, 0.0, True, cps)
    slopes = [float(v) for v in np.polyfit(np.array(cps) * 0.01, -np.log(probs.T), 1)[0]]
    shapes = []

    def spy(drifts, *args):
        shapes.append(np.shape(drifts))
        return real(drifts, *args)

    real = gamma_mod._confinement_profiles
    monkeypatch.setattr(gamma_mod, "_confinement_profiles", spy)
    est = tw.estimate_gamma(0.0, **kwargs)
    assert shapes == [(1, steps)]
    assert est.per_replica_values == (est.per_replica_values[0],) * 11
    # a one-row matrix product (gemv) may round differently from an
    # eleven-row one (gemm), so the values agree to round-off, not bit for bit
    np.testing.assert_allclose(est.per_replica_values, slopes, rtol=1e-14, atol=0.0)
    mean = float(np.mean(slopes))
    np.testing.assert_allclose(est.gamma_hat, mean, rtol=1e-14, atol=0.0)
    half = gamma_mod.t_quantile(10, 0.975) * float(np.std(slopes, ddof=1)) / math.sqrt(11)
    np.testing.assert_allclose(est.ci95, (mean - half, mean + half), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 129, 500, 2000])
def test_unit_phases_running_product_matches_exp(count):
    # a running product over modes, re-anchored on exact cos and sin every
    # _ANCHOR_MODES modes; angle0 != 0 are the alias terms' first phases
    rng = np.random.default_rng(count)
    step = rng.uniform(-1.0, 1.0, 64) * (6.0 / count)
    angle0 = rng.uniform(-8.0, 8.0, 64)
    angle0[0] = step[1] = 0.0
    got = propagate._unit_phases(angle0, step, count)
    assert got.shape == (count, 64)
    want = np.exp(-1j * (angle0 + np.arange(count)[:, None] * step))
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("dt, grid", [(1e-3, 400), (1.6e-5, 100)], ids=["dense", "cut-aliases"])
@pytest.mark.parametrize("entries", [1000, 2**16])
@pytest.mark.parametrize("replicas", [1, 8])
def test_confinement_profiles_do_not_depend_on_the_transform_blocks(monkeypatch, dt, grid, entries, replicas):
    # the kernel transforms are built a block of steps at a time, sized by
    # `_block_steps` (at most _FFT_BLOCK_ENTRIES entries); a row's transform
    # must not depend on the block it is built in.  The blocks are sized
    # through `_block_steps` here: one step a block (one row, for one
    # replica) is the reference
    drifts = -0.5 * np.random.default_rng(16).normal(0.0, math.sqrt(dt), (replicas, 300))
    cps = (150, 225, 300)
    real, widths = propagate._block_steps, []
    monkeypatch.setattr(propagate, "_block_steps", lambda width, _: widths.append(width) or 1)
    single = _confinement_profiles(drifts, dt, grid, 0.0, True, cps)
    assert widths  # the blocks were sized by the stub
    monkeypatch.setattr(propagate, "_block_steps", lambda width, _: real(width, entries))
    np.testing.assert_array_equal(_confinement_profiles(drifts, dt, grid, 0.0, True, cps), single)


def test_confinement_profiles_take_totals_at_checkpoints_only(monkeypatch):
    # the band pass reads totals every _CHECK_STEPS steps and at the
    # checkpoints only; reading them at every step gives the same bits
    dt, grid, cps = 1e-3, 400, (1, 100, 150, 200)
    drifts = -0.5 * np.random.default_rng(17).normal(0.0, math.sqrt(dt), (5, 200))
    lazy = _confinement_profiles(drifts, dt, grid, 0.0, True, cps)
    monkeypatch.setattr(propagate, "_CHECK_STEPS", 1)
    np.testing.assert_array_equal(_confinement_profiles(drifts, dt, grid, 0.0, True, cps), lazy)
    sd = math.sqrt(dt)
    half, dx, n, band = gamma_mod._layout(dt, grid, max_drift=np.abs(drifts).max())
    mass = propagate._bin_masses(drifts[:, 0] - (0.5 * dx - half), sd, dx, n, band, 0, grid)
    every = propagate._band_pass([_constant_rows(mass, drifts.T, dx, n, band, grid)], sd, 1, 200, range(1, 201))[4][0]
    np.testing.assert_array_equal(every[:, [c - 1 for c in cps]], lazy)
