import math

import numpy as np
import pytest

import tubewalk as tw
from tubewalk.results import SurvivalEstimate, from_log


def test_p_and_log_p_must_agree():
    est = from_log(-2.0, "dp_lattice", work=10)
    assert est.p == pytest.approx(math.exp(-2.0))
    with pytest.raises(ValueError):
        SurvivalEstimate(p=0.5, log_p=-2.0, method="dp_lattice", work=1)
    with pytest.raises(ValueError):
        SurvivalEstimate(p=0.0, log_p=-50.0, method="dp_lattice", work=1)


def test_stderr_present_iff_stochastic():
    from_log(-1.0, "naive_mc", work=100, stderr_log=0.1)
    from_log(-1.0, "splitting", work=100, stderr_log=0.1)
    for method in ("dp_lattice", "grid", "brute_force"):
        from_log(-1.0, method, work=100)
        with pytest.raises(ValueError):
            from_log(-1.0, method, work=100, stderr_log=0.1)
    with pytest.raises(ValueError):
        from_log(-1.0, "naive_mc", work=100)


def test_zero_probability_representation():
    est = from_log(-math.inf, "naive_mc", work=100, stderr_log=math.inf)
    assert est.p == 0.0 and est.log_p == -math.inf


def test_underflowing_probability_keeps_finite_log():
    est = from_log(-2876.8, "dp_lattice", work=1)
    assert est.p == 0.0 and est.log_p == -2876.8
    assert from_log(-740.0, "grid", work=1).p == math.exp(-740.0) > 0.0
    with pytest.raises(ValueError):
        SurvivalEstimate(p=0.0, log_p=-700.0, method="dp_lattice", work=1)


def test_probability_range_checked():
    with pytest.raises(ValueError):
        SurvivalEstimate(p=1.5, log_p=math.log(1.5), method="dp_lattice", work=1)


def test_realization_steps_view():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 7, seed=2)
    assert len(env) == 7
    assert env.step_law(3).atoms == tuple(zip(env.atom_pos[3], env.atom_w))
    law = env.step_law(0)
    assert law.quenched_var == 1.0 and abs(law.quenched_mean) == 0.5
    with pytest.raises(IndexError):
        env.step_law(7)
    genv = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0), 3, seed=2)
    assert genv.step_law(1).kind == "gaussian" and genv.step_law(1).std == 2.0
    assert np.all(genv.quenched_var == 4.0)
