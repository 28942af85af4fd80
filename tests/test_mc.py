import dataclasses
import math

import numpy as np
import pytest

import tubewalk as tw
import tubewalk.mc as mc
from tubewalk.config import load_builtin, validate
from tubewalk.quench_dp import xi_log_factor
from tubewalk.rng import STREAM_SPLIT, derive_seed, substream
from tubewalk.walk import draw_increments

BND = (1 + 1e-9) / 2**0.25


def _half_instance(seed=1):
    """n=2 Rademacher with |S_i| <= 1: exact survival probability 1/2."""
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 3, seed=seed)
    tube = tw.TubeSpec(g=-BND, h=BND, alpha=0.25, n=2)
    return env, tube


def _rare_instance():
    """Narrow lattice tube with DP-exact p ~ 4e-8."""
    spec = tw.EnvironmentSpec.rademacher()
    env = tw.sample_environment(spec, 131, seed=5)
    tube = tw.TubeSpec(g=-0.6, h=0.6, alpha=0.3, n=120, f_offset=10)
    return env, tube


def test_naive_wide_tube_is_exactly_one():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 10, seed=2)
    tube = tw.TubeSpec(g=-30.0, h=30.0, alpha=0.45, n=10)
    est = tw.survival_naive_mc(env, tube, 0.0, replicas=1000, seed=3)
    assert est.p == 1.0 and est.stderr_log == 0.0


def test_naive_matches_dp_within_stderr():
    env, tube = _half_instance()
    est = tw.survival_naive_mc(env, tube, 0.0, replicas=100_000, seed=7)
    assert abs(est.p - 0.5) <= 4 * 0.5 * est.stderr_log  # stderr_log ~ stderr_p / p


def test_naive_empty_end_window_gives_zero():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 3, seed=2)
    # S_2 is even; end window admits only odd values
    tube = tw.TubeSpec(
        g=-3 / 2**0.25, h=3 / 2**0.25, alpha=0.25, n=2, end_window=(0.9 / 2**0.25, 1.1 / 2**0.25)
    )
    est = tw.survival_naive_mc(env, tube, 0.0, replicas=5000, seed=3)
    assert est.p == 0.0 and est.log_p == -math.inf and est.flags == ("extinction",)


def test_naive_deterministic_given_seed():
    env, tube = _half_instance()
    a = tw.survival_naive_mc(env, tube, 0.0, replicas=20_000, seed=11)
    b = tw.survival_naive_mc(env, tube, 0.0, replicas=20_000, seed=11)
    assert a == b
    c = tw.survival_naive_mc(env, tube, 0.0, replicas=20_000, seed=12)
    assert a.p != c.p


def test_naive_unbiased_over_seeds():
    # mean of p-hat over 200 seeds within 4 combined standard errors of DP
    env, tube = _half_instance()
    dp = tw.survival_dp_lattice(env, tube, 0.0)
    replicas = 2000
    phats = [
        tw.survival_naive_mc(env, tube, 0.0, replicas=replicas, seed=s).p for s in range(200)
    ]
    combined_se = math.sqrt(dp.p * (1 - dp.p) / (replicas * len(phats)))
    assert abs(np.mean(phats) - dp.p) <= 4 * combined_se


def test_splitting_single_block_is_naive():
    env, tube = _half_instance()
    est = tw.survival_splitting(env, tube, 0.0, particles=4000, checkpoints=1, seed=5)
    # one block: p-hat is an integer count over the population
    assert est.p == pytest.approx(round(est.p * 4000) / 4000)
    assert est.work == 4000 * tube.n
    binom = math.sqrt((1 - est.p) / (est.p * 4000))
    assert est.stderr_log == pytest.approx(binom)


def test_splitting_matches_dp_on_rare_event():
    env, tube = _rare_instance()
    dp = tw.survival_dp_lattice(env, tube, 0.0)
    assert 1e-9 <= dp.p <= 1e-6
    est = tw.survival_splitting(env, tube, 0.0, particles=10_000, checkpoints=20, seed=17)
    assert abs(est.log_p - dp.log_p) / abs(dp.log_p) <= 0.10


def test_splitting_matches_dp_on_structured_instance():
    # moving tube, end window, xi threshold, random-shift environment
    spec = tw.EnvironmentSpec.random_shift_bernoulli(0.5)
    env = tw.sample_environment(spec, 100, seed=71)
    tube = tw.TubeSpec(
        g=((0, -0.8), (0.5, -0.5), (1, -0.9)),
        h=((0, 0.8), (1, 1.2)),
        alpha=0.3,
        n=90,
        f_offset=9,
        end_window=(-0.5, 0.5),
        xi_threshold=3.0,
    )
    dp = tw.survival_dp_lattice(env, tube, 0.0)
    est = tw.survival_splitting(env, tube, 0.0, particles=20_000, checkpoints=15, seed=37)
    assert abs(est.log_p - dp.log_p) <= max(4 * est.stderr_log, 0.10 * abs(dp.log_p))


def test_splitting_deterministic_given_seed():
    env, tube = _rare_instance()
    a = tw.survival_splitting(env, tube, 0.0, particles=1000, checkpoints=10, seed=23)
    b = tw.survival_splitting(env, tube, 0.0, particles=1000, checkpoints=10, seed=23)
    assert a == b


def test_splitting_extinction_flag():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 10, seed=2)
    tube = tw.TubeSpec(g=-0.5, h=0.5, alpha=0.3, n=10)  # |S_1| = 1 always escapes
    est = tw.survival_splitting(env, tube, 0.0, particles=500, checkpoints=5, seed=3)
    assert est.p == 0.0 and "extinction" in est.flags


def test_splitting_stderr_scales_with_particles():
    env, tube = _rare_instance()
    r = []
    for s in range(20):
        a = tw.survival_splitting(env, tube, 0.0, particles=2000, checkpoints=20, seed=100 + s)
        b = tw.survival_splitting(env, tube, 0.0, particles=4000, checkpoints=20, seed=200 + s)
        r.append(b.stderr_log / a.stderr_log)
    assert np.mean(r) == pytest.approx(1 / math.sqrt(2), rel=0.30)


def test_monotone_in_width_with_shared_draws():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 30, seed=31)
    narrow = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=30)
    wide = tw.TubeSpec(g=-1.5, h=1.5, alpha=0.3, n=30)
    for s in range(20):
        pn = tw.survival_naive_mc(env, narrow, 0.0, replicas=500, seed=s).p
        pw = tw.survival_naive_mc(env, wide, 0.0, replicas=500, seed=s).p
        assert pn <= pw  # same underlying draws: wider tube never kills a survivor
    # splitting is monotone in expectation (resampling decouples the pairing)
    ln_n = [tw.survival_splitting(env, narrow, 0.0, 1000, 5, seed=s).log_p for s in range(10)]
    ln_w = [tw.survival_splitting(env, wide, 0.0, 1000, 5, seed=s).log_p for s in range(10)]
    assert np.mean(ln_w) >= np.mean(ln_n)


def test_preconditions():
    env, tube = _half_instance()
    with pytest.raises(ValueError):
        tw.survival_naive_mc(env, tube, 0.0, replicas=50, seed=1)
    with pytest.raises(ValueError):
        tw.survival_splitting(env, tube, 0.0, particles=50, checkpoints=1, seed=1)
    with pytest.raises(ValueError):
        tw.survival_splitting(env, tube, 0.0, particles=100, checkpoints=5, seed=1)  # > n


# Reference: the whole-block splitting estimator that preceded the row-blocked
# kernel.  The kernel must reproduce it bit for bit.


def _splitting_whole_block(env, tube, x0, particles, checkpoints, seed):
    n, f = tube.n, tube.f_offset
    lo, up = tube.bounds_arrays()
    end = tube.end_bounds()
    base = n // checkpoints
    lengths = [base] * (checkpoints - 1) + [n - base * (checkpoints - 1)]
    pos = np.full(particles, x0)
    log_acc = var_acc = 0.0
    step = 0
    for k, blen in enumerate(lengths):
        rng = substream(seed, STREAM_SPLIT, k)
        inc = draw_increments(env, f + step, blen, rng, size=particles)
        s = pos[:, None] + np.cumsum(inc, axis=1)
        seg_lo = lo[step + 1 : step + blen + 1]
        seg_up = up[step + 1 : step + blen + 1]
        ok = np.all((s >= seg_lo) & (s <= seg_up), axis=1)
        step += blen
        if k == len(lengths) - 1 and end is not None:
            ok &= (s[:, -1] >= end[0]) & (s[:, -1] <= end[1])
        alive = int(ok.sum())
        phi = alive / particles
        log_acc += math.log(phi)
        var_acc += (1.0 - phi) / (phi * particles)
        surv = s[ok, -1]
        pos = surv[rng.integers(0, alive, size=particles)]
    return log_acc + xi_log_factor(env, tube), math.sqrt(var_acc)


def _kernel_cases():
    """(env, tube, x0): lattice, 3-atom and Gaussian laws, end window, xi threshold or none."""
    shift = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 100, seed=71)
    moving = tw.TubeSpec(
        g=((0, -0.8), (0.5, -0.5), (1, -0.9)),
        h=((0, 0.8), (1, 1.2)),
        alpha=0.3,
        n=16,
        f_offset=9,
        end_window=(-0.5, 0.5),
        xi_threshold=3.0,
    )
    three = tw.sample_environment(
        tw.EnvironmentSpec.degenerate([(-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)]), 64, seed=4
    )
    gauss = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(1.0, 1.3), 64, seed=6)
    flat = tw.TubeSpec(g=-2.0, h=2.0, alpha=0.3, n=24, f_offset=4, xi_threshold=3.0)
    plain = dataclasses.replace(moving, end_window=None, xi_threshold=None)
    return [
        (shift, moving, 0.0),
        (shift, plain, 0.25),
        (three, flat, 0.0),
        (gauss, flat, 0.3),
    ]


@pytest.mark.parametrize("row_bytes", [mc.ROW_BYTES, 8 * 7 * 24])
@pytest.mark.parametrize("case", range(4))
def test_kernel_reproduces_whole_block_estimators(monkeypatch, row_bytes, case):
    # row_bytes 8*7*24 cuts a 24-step block into rows of 7: 1234 and 8200
    # are not multiples of it, and shorter blocks get uneven row counts.
    monkeypatch.setattr(mc, "ROW_BYTES", row_bytes)
    env, tube, x0 = _kernel_cases()[case]
    for particles, checkpoints in ((1234, 7), (1234, tube.n)):  # tube.n: blocks of length 1
        est = tw.survival_splitting(env, tube, x0, particles, checkpoints, seed=9)
        ref = _splitting_whole_block(env, tube, x0, particles, checkpoints, seed=9)
        assert (est.log_p, est.stderr_log) == ref
    # naive MC is one-block splitting, relabelled
    est = tw.survival_naive_mc(env, tube, x0, replicas=8200, seed=9)
    one = tw.survival_splitting(env, tube, x0, 8200, 1, seed=9)
    assert math.isfinite(est.log_p)
    assert (est.p, est.log_p, est.stderr_log, est.flags) == (one.p, one.log_p, one.stderr_log, one.flags)
    ref = _splitting_whole_block(env, tube, x0, 8200, 1, seed=9)
    assert (est.log_p, est.stderr_log) == ref
    assert est.method == "naive_mc" and est.work == 8200


@pytest.mark.parametrize("row_bytes", [mc.ROW_BYTES, 8 * 7 * 24])
@pytest.mark.parametrize("case", [0, 3])
def test_kernel_reproduces_whole_block_arrays(monkeypatch, row_bytes, case):
    # survival flags and end positions themselves, from scattered starts
    monkeypatch.setattr(mc, "ROW_BYTES", row_bytes)
    env, tube, _ = _kernel_cases()[case]
    lo, up = tube.bounds_arrays()
    start = substream(3, 0).uniform(lo[0], up[0], size=1234)
    ok, last = mc._advance(env, tube.f_offset, start, lo[1:], up[1:], substream(3, 1))
    inc = draw_increments(env, tube.f_offset, tube.n, substream(3, 1), size=1234)
    s = start[:, None] + np.cumsum(inc, axis=1)
    ref_ok = np.all((s >= lo[1:]) & (s <= up[1:]), axis=1)
    assert 0 < ok.sum() < len(ok)
    assert np.array_equal(ok, ref_ok) and np.array_equal(last, s[:, -1])


def test_splitting_pinned_value():
    # Recorded with the whole-block estimator: builtin random-shift-bernoulli
    # at its first n and the simulate command's seeds.
    cfg = validate(load_builtin("random-shift-bernoulli"))
    n = cfg.n_list[0]
    tube = cfg.template.make(n)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, derive_seed(cfg.seed, 11, 0))
    est = tw.survival_splitting(env, tube, tube.default_x0(), 10_000, 20, derive_seed(cfg.seed, 13, 0))
    assert est.log_p.hex() == "-0x1.64da1f7248167p+3"
    assert est.stderr_log.hex() == "0x1.3f6a7619e9c65p-5"
