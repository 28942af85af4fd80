import math
import tracemalloc

import numpy as np
import pytest

import tubewalk as tw
import tubewalk.mc as mc
import tubewalk.propagate as propagate
from tubewalk.config import _PATH_BYTES, load_builtin, validate
from tubewalk.quench_dp import xi_log_factor
from tubewalk.rate import make_estimator
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


@pytest.mark.parametrize("where", ["lower bound", "above the tube"])
@pytest.mark.parametrize("method", ["dp", "grid", "splitting", "naive"])
def test_start_not_strictly_inside_is_refused(method, where):
    # The DP refused these starts while grid, splitting and naive MC returned
    # a finite log p at the bound, and -inf (flagged extinction for particles
    # that never started) above it.
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 40, seed=1)
    tube = tw.TubeSpec(g=-1, h=1, alpha=0.3, n=40)
    lo, up = tube.bounds_at(0)
    x0 = lo if where == "lower bound" else up + 1
    run = make_estimator(method, replicas=1000, particles=1000, checkpoints=4)
    with pytest.raises(ValueError, match="strictly inside"):
        run(env, tube, x0, seed=1)


# Reference: the whole-block splitting estimator that preceded the row-blocked
# kernels.  The kernels must reproduce it bit for bit.  Where the lattice
# kernel runs, the reference reads the same raw bits and rebuilds each
# particle's float path from its atoms; on these dyadic lattices the floats
# are exact, so the paths are the kernel's nodes.


def _on_bits(env):
    """Whether the lattice kernel runs: a lattice law with weights k/2^b, b <= 8."""
    return env.kind == "atoms" and env.lattice_q is not None and np.all(env.atom_w * 256 % 1 == 0)


def _bit_increments(env, start_index, length, rng, size):
    """(size, length) increments from the lattice kernel's draw contract, by shifts and a lookup."""
    w = env.atom_w
    bits = min(b for b in range(1, 9) if np.all(w * 2**b % 1 == 0))
    words = -(-size // 64)
    raw = rng.bit_generator.random_raw(length * bits * words).reshape(length, bits, words)
    i = np.arange(size)
    plane = (raw[:, :, i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)
    v = sum(plane[:, k].astype(np.int64) << (bits - 1 - k) for k in range(bits))
    atom = np.searchsorted(np.cumsum(w) * 2**bits, v, "right")
    return env.atom_pos[start_index + np.arange(length)[:, None], atom].T


def _splitting_whole_block(env, tube, x0, particles, checkpoints, seed):
    n, f = tube.n, tube.f_offset
    lo, up = tube.bounds_arrays()
    end = tube.end_bounds()
    base = n // checkpoints
    lengths = [base] * (checkpoints - 1) + [n - base * (checkpoints - 1)]
    draw = _bit_increments if _on_bits(env) else draw_increments
    pos = np.full(particles, x0)
    log_acc = var_acc = 0.0
    step = 0
    for k, blen in enumerate(lengths):
        rng = substream(seed, STREAM_SPLIT, k)
        inc = draw(env, f + step, blen, rng, size=particles)
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
    """(env, tube, x0): lattice, 3-atom and Gaussian laws, end window, xi threshold or none.

    Cases 0, 1, 4, 5 and 6 run the lattice kernel (4 and 6 on two bits a
    step, 5 on int32 positions); 2 and 3 the float kernel.  Case 6 takes a
    different atom where the two bits are read in the other order.
    """
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
    plain = moving.replace(end_window=None, xi_threshold=None)
    quarters = tw.sample_environment(
        tw.EnvironmentSpec.degenerate([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]), 64, seed=4
    )
    # 2 * 6 * 2000^0.3 * 256 = 30044 nodes fit int16, but 2000 steps of up to
    # 384 nodes do not: the dead wander past 32767
    fine = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5, q=256), 2000, seed=8)
    long = tw.TubeSpec(g=-6.0, h=6.0, alpha=0.3, n=2000)
    uneven = tw.sample_environment(
        tw.EnvironmentSpec.degenerate([(-2.0, 0.25), (0.0, 0.25), (1.0, 0.5)]), 64, seed=4
    )
    return [
        (shift, moving, 0.0),
        (shift, plain, 0.25),
        (three, flat, 0.0),
        (gauss, flat, 0.3),
        (quarters, flat, 0.0),
        (fine, long, 0.0),
        (uneven, flat, 0.0),
    ]


@pytest.mark.parametrize("row_bytes", [mc.ROW_BYTES, 8 * 7 * 24])
@pytest.mark.parametrize("case", range(5))
def test_kernel_reproduces_whole_block_estimators(monkeypatch, row_bytes, case):
    # row_bytes 8*7*24 cuts a 24-step block into rows of 7 (float kernel) or
    # steps into chunks of one (lattice kernel): 1234 and 8200 are not
    # multiples of it, and shorter blocks get uneven row counts.
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
@pytest.mark.parametrize("case", [0, 3, 4, 5, 6])
def test_kernel_reproduces_whole_block_arrays(monkeypatch, row_bytes, case):
    # survival flags and end positions themselves, from scattered starts
    monkeypatch.setattr(mc, "ROW_BYTES", row_bytes)
    env, tube, x0 = _kernel_cases()[case]
    lo, up = tube.bounds_arrays()
    law = mc._bit_law(env, tube, x0)
    assert (law is not None) == _on_bits(env)
    if law is None:
        start = substream(3, 0).uniform(lo[0], up[0], size=1234)
        ok, last = mc._advance(env, tube.f_offset, start, lo[1:], up[1:], substream(3, 1))
        inc = draw_increments(env, tube.f_offset, tube.n, substream(3, 1), size=1234)
    else:
        nodes = law[0]
        (a,), (b,) = propagate._kept(nodes, lo[:1], up[:1])
        index = substream(3, 0).integers(a, b, size=1234)
        ok, last = mc._advance_nodes(law, 0, index, lo[1:], up[1:], substream(3, 1))
        inc = _bit_increments(env, tube.f_offset, tube.n, substream(3, 1), size=1234)
        start = nodes[index]
    s = start[:, None] + np.cumsum(inc, axis=1)
    ref_ok = np.all((s >= lo[1:]) & (s <= up[1:]), axis=1)
    assert 0 < ok.sum() < len(ok)
    assert np.array_equal(ok, ref_ok)
    if law is None:
        assert np.array_equal(last, s[:, -1])
    else:
        assert np.array_equal(nodes[last[ok]], s[ok, -1])
        assert np.array_equal(x0 + (last - law[2]) / env.lattice_q, s[:, -1])  # the dead too
        if case == 5:
            assert last.dtype == np.int32 and np.abs(last).max() > np.iinfo(np.int16).max


def test_splitting_pinned_value():
    # Recorded with the lattice kernel: builtin random-shift-bernoulli at its
    # first n and the simulate command's seeds.  z against the DP's
    # -11.147415 is -0.80 (-0.11 for the float kernel's value).
    cfg = validate(load_builtin("random-shift-bernoulli"))
    n = cfg.n_list[0]
    tube = cfg.template.make(n)
    env = tw.sample_environment(cfg.env_spec, tube.f_offset + n, derive_seed(cfg.seed, 11, 0))
    est = tw.survival_splitting(env, tube, tube.default_x0(), 10_000, 20, derive_seed(cfg.seed, 13, 0))
    assert est.log_p.hex() == "-0x1.65b6c9a813301p+3"
    assert est.stderr_log.hex() == "0x1.3ff18f01f59eap-5"


@pytest.mark.parametrize(
    "law, drawn",
    [("random-shift-bernoulli", False), ("degenerate-rademacher", False), ("random-mean-gaussian", True),
     ("0.3/0.4/0.3", True)],
)
def test_lattice_laws_split_on_bits(monkeypatch, law, drawn):
    # lattice laws with dyadic weights take the lattice kernel, which draws raw
    # bits; every other law draws its increments
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return draw_increments(*args, **kwargs)

    monkeypatch.setattr(mc, "draw_increments", spy)
    if law == "0.3/0.4/0.3":
        env, tube, x0 = _kernel_cases()[2]
    else:
        cfg = validate(load_builtin(law))
        tube = cfg.template.make(cfg.n_list[0])
        env = tw.sample_environment(cfg.env_spec, tube.f_offset + tube.n, seed=2)
        x0 = tube.default_x0()
    est = tw.survival_splitting(env, tube, x0, 500, 4, seed=3)
    assert math.isfinite(est.log_p)
    assert bool(calls) == drawn


@pytest.mark.parametrize("case", [0, 3])
def test_splitting_memory_within_the_validated_bytes(case):
    # what config.validate sizes a particle at (_PATH_BYTES) must cover what
    # either kernel allocates, beyond a few cache-sized chunks
    env, tube, x0 = _kernel_cases()[case]
    particles = 200_000
    tracemalloc.start()
    try:
        tw.survival_splitting(env, tube, x0, particles, 4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= particles * _PATH_BYTES + 4 * mc.ROW_BYTES


def test_bit_law_counts_its_nodes_before_laying_them_out(monkeypatch):
    # the lattice kernel lays the DP's nodes out, at most quench_dp._NODE_CAP of
    # them: past the cap (made small here) `_bit_law` lays none out, and
    # splitting takes the float kernel
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 1, seed=1)
    tube = tw.TubeSpec(g=-500000.0, h=500000.0, alpha=0.3, n=1)
    nodes = propagate._atom_nodes(1, 1.0, *tube.extent(), 0.5)[3]  # 1000002 nodes, 8 MB
    monkeypatch.setattr(mc, "_NODE_CAP", nodes)
    assert len(mc._bit_law(env, tube, 0.5)[0]) == nodes
    monkeypatch.setattr(mc, "_NODE_CAP", nodes - 1)
    tracemalloc.start()
    try:
        law = mc._bit_law(env, tube, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law is None and peak < 2**16
    floats = []
    real = mc._advance
    monkeypatch.setattr(mc, "_advance", lambda *args: floats.append(1) or real(*args))
    assert tw.survival_splitting(env, tube, 0.5, 100, 1, seed=3).p == 1.0
    assert floats == [1]


@pytest.mark.parametrize("method", ["dp", "grid", "brute", "splitting", "naive"])
def test_every_estimator_refuses_an_environment_one_step_short(method):
    # steps f_offset+1..f_offset+n = 4..15 of an environment of 14
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 14, seed=5)
    tube = tw.TubeSpec(g=-0.6, h=0.6, alpha=0.3, n=12, f_offset=3)
    run = {
        "dp": lambda: tw.survival_dp_lattice(env, tube, 0.0),
        "grid": lambda: tw.survival_grid(env, tube, 0.0),
        "brute": lambda: tw.survival_brute_force(env, tube, 0.0),
        "splitting": lambda: tw.survival_splitting(env, tube, 0.0, 100, 2, seed=1),
        "naive": lambda: tw.survival_naive_mc(env, tube, 0.0, 100, seed=1),
    }[method]
    with pytest.raises(IndexError, match="tube needs steps up to 15, environment has 14"):
        run()
