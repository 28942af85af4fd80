import math

import numpy as np
import pytest

import tubewalk as tw
from tubewalk.env import StepLaw, _lattice_denominator


def test_moments_degenerate_rademacher():
    assert tw.moments(tw.EnvironmentSpec.rademacher()) == (0.0, 1.0)


def test_moments_random_shift_bernoulli():
    assert tw.moments(tw.EnvironmentSpec.random_shift_bernoulli(0.5)) == (0.25, 1.0)


def test_moments_random_mean_gaussian():
    assert tw.moments(tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0)) == (1.0, 4.0)


def test_degenerate_realization_has_identical_steps():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 50, seed=3)
    assert np.all(env.atom_pos == env.atom_pos[0])
    assert env.step_law(0).atoms == env.step_law(49).atoms


@pytest.mark.parametrize("d", [0.5, 0.0])
def test_atom_realization_holds_the_law_kinds_and_a_code_per_step(d):
    # code 0 is m = -d, code 1 is m = +d; each step's atoms are its kind's row
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(d), 300, seed=9)
    kinds = np.array([[-d - 1.0, -d + 1.0], [d - 1.0, d + 1.0]])
    assert np.array_equal(env.atom_kinds.view(np.uint64), kinds.view(np.uint64))  # -0.0 too
    assert env.atom_codes.dtype == np.uint8 and env.atom_codes.shape == (300,)
    assert set(np.unique(env.atom_codes)) == {0, 1}
    assert np.array_equal(env.quenched_mean.view(np.uint64), np.array([-d, d])[env.atom_codes].view(np.uint64))
    assert np.array_equal(env.atom_pos, kinds[env.atom_codes]) and not env.atom_pos.flags.writeable
    assert env.step_law(7).atoms == tuple(zip(kinds[env.atom_codes[7]], env.atom_w))
    rademacher = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 40, seed=9)
    assert rademacher.atom_kinds.tolist() == [[-1.0, 1.0]] and not rademacher.atom_codes.any()


def test_shift_means_satisfy_clt_bound():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 1000, seed=7)
    assert abs(env.quenched_mean.mean()) <= 4 * 0.5 / math.sqrt(1000)


def test_sampling_is_deterministic():
    spec = tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0)
    a = tw.sample_environment(spec, 500, seed=11)
    b = tw.sample_environment(spec, 500, seed=11)
    assert np.array_equal(a.quenched_mean, b.quenched_mean)
    assert np.array_equal(a.quenched_var, b.quenched_var)
    c = tw.sample_environment(spec, 500, seed=12)
    assert not np.array_equal(a.quenched_mean, c.quenched_mean)


@pytest.mark.parametrize(
    "spec",
    [
        tw.EnvironmentSpec.rademacher(),
        tw.EnvironmentSpec.random_shift_bernoulli(0.5),
        tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0),
    ],
    ids=["degenerate", "shift", "gaussian"],
)
def test_assumptions_hold_for_all_families(spec):
    rep = tw.verify_assumptions(spec)
    assert rep.all_ok
    assert rep.lambda1 > 0 and rep.lambda2 > 0 and rep.lambda3 > 0


@pytest.mark.parametrize(
    "bad",
    [
        lambda: tw.EnvironmentSpec.random_mean_gaussian(1.0, 0.0),
        lambda: tw.EnvironmentSpec.degenerate([]),
        lambda: tw.EnvironmentSpec.degenerate([(1.0, 1.0)]),  # zero variance
        lambda: tw.EnvironmentSpec.degenerate([(0.0, 0.5), (1.0, 0.5)]),  # not centred
        lambda: tw.EnvironmentSpec.degenerate([(-1.0, 0.4), (1.0, 0.4)]),  # weights
        lambda: tw.EnvironmentSpec.random_shift_bernoulli(-0.5),
        lambda: tw.EnvironmentSpec("no_such_family"),
        lambda: tw.EnvironmentSpec.degenerate([(-1e200, 0.5), (1e200, 0.5)]),  # variance overflows
        lambda: tw.EnvironmentSpec.random_mean_gaussian(math.nan, 1.0),
        lambda: tw.EnvironmentSpec.random_mean_gaussian(0.5, math.inf),
        lambda: tw.EnvironmentSpec.random_shift_bernoulli(math.inf, q=2),
        lambda: tw.EnvironmentSpec.rademacher(xi_scale=math.nan),
        lambda: tw.EnvironmentSpec.rademacher(xi_scale=math.inf),
        lambda: tw.EnvironmentSpec.degenerate([(-1.0, math.nan), (1.0, 0.5)]),
        lambda: tw.EnvironmentSpec.degenerate([(-math.inf, 0.5), (1.0, 0.5)]),
    ],
)
def test_invalid_specs_are_rejected(bad):
    with pytest.raises(tw.InvalidSpecError):
        bad()


def test_step_law_moment_invariant():
    law = StepLaw.from_atoms([(-1.5, 0.5), (1.5, 0.5)])
    assert law.quenched_mean == 0.0 and law.quenched_var == 1.5**2
    with pytest.raises(tw.InvalidSpecError):
        StepLaw("atoms", ((-1.0, 0.5), (1.0, 0.5)), None, None, 0.3, 1.0)


def test_lattice_detection():
    assert _lattice_denominator([-1.0, 1.0]) == 1
    assert _lattice_denominator([-1.5, 0.25]) == 4
    assert _lattice_denominator([math.sqrt(2)]) is None
    # p/q within 1e-12 of an atom is not enough: the DP needs atom * q within
    # 1e-9 of a whole number (941664 * sqrt(1/2) is 1e-6 off)
    assert _lattice_denominator([-math.sqrt(0.5), math.sqrt(0.5)]) is None
    assert not tw.EnvironmentSpec.degenerate([(-math.sqrt(0.5), 0.5), (math.sqrt(0.5), 0.5)]).is_lattice
    assert tw.EnvironmentSpec.random_shift_bernoulli(0.5).lattice_q == 2
    assert tw.EnvironmentSpec.rademacher().is_lattice
    assert not tw.EnvironmentSpec.random_mean_gaussian(1, 1).is_lattice


@pytest.mark.parametrize(
    "spec",
    [
        tw.EnvironmentSpec.rademacher(),
        tw.EnvironmentSpec.random_shift_bernoulli(0.5),
        tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0),
    ],
    ids=["degenerate", "shift", "gaussian"],
)
def test_sampled_moments_match_closed_form(spec):
    # 1e5 steps: per-step means average to 0, quenched variances to sigma_q_sq
    sa2, sq2 = tw.moments(spec)
    env = tw.sample_environment(spec, 100_000, seed=41)
    se_m = env.quenched_mean.std(ddof=1) / math.sqrt(env.length)
    se_v = env.quenched_var.std(ddof=1) / math.sqrt(env.length)
    assert abs(env.quenched_mean.mean()) <= 5 * se_m + 1e-12
    assert abs(env.quenched_var.mean() - sq2) <= 5 * se_v + 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        tw.EnvironmentSpec.random_shift_bernoulli(0.5),
        tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0),
    ],
    ids=["shift", "gaussian"],
)
def test_closed_form_moments_match_monte_carlo(spec):
    # sigma_a_sq and sigma_q_sq against 1e6 environment draws, 5 standard errors
    sa2, sq2 = tw.moments(spec)
    env = tw.sample_environment(spec, 1_000_000, seed=43)
    m2 = env.quenched_mean**2
    se_a = m2.std(ddof=1) / math.sqrt(env.length)
    se_q = env.quenched_var.std(ddof=1) / math.sqrt(env.length)
    assert abs(m2.mean() - sa2) <= 5 * se_a + 1e-12
    assert abs(env.quenched_var.mean() - sq2) <= 5 * se_q + 1e-12


def test_xi_cdf():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(xi_scale=2.0), 5, seed=1)
    assert env.xi_cdf(0.0) == 0.0
    assert math.isclose(env.xi_cdf(2.0), 1.0 - math.exp(-1.0))
    assert env.xi_cdf(1e9) == pytest.approx(1.0)
