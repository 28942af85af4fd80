import math
import warnings

import numpy as np
import pytest

import tubewalk as tw


def test_decay_fit_noiseless():
    ns = [10, 20, 40, 80]
    pts = [(n, -2.0 * n**0.4) for n in ns]
    fit = tw.decay_fit(pts, alpha=0.3)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)
    assert fit.r_squared == 1.0


def test_decay_fit_with_intercept():
    pts = [(n, -2.0 * n**0.4 + 3.0) for n in (10, 20, 40, 80)]
    fit = tw.decay_fit(pts, alpha=0.3)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(3.0, abs=1e-10)


def test_decay_fit_affine_equivariance():
    rng = np.random.default_rng(3)
    pts = [(n, -1.3 * n**0.4 + rng.normal()) for n in (50, 100, 200, 400, 800)]
    fit = tw.decay_fit(pts, alpha=0.3)
    scaled = tw.decay_fit([(n, 2.5 * lp) for n, lp in pts], alpha=0.3)
    assert scaled.slope == pytest.approx(2.5 * fit.slope)
    assert scaled.intercept == pytest.approx(2.5 * fit.intercept)


def test_decay_fit_slope_ci_covers_noiseless_truth():
    pts = [(n, -2.0 * n**0.4 + 0.01 * (-1) ** n) for n in (10, 20, 40, 80, 160)]
    fit = tw.decay_fit(pts, alpha=0.3)
    lo, hi = fit.slope_ci95
    assert lo <= -2.0 <= hi


def test_decay_fit_errors():
    with pytest.raises(ValueError):
        tw.decay_fit([(10, -1.0), (20, -2.0)], alpha=0.3)
    with pytest.raises(ValueError):
        tw.decay_fit([(10, -1.0), (10, -2.0), (20, -3.0)], alpha=0.3)
    with pytest.raises(ValueError):
        tw.decay_fit([(10, -1.0), (20, -math.inf), (40, -2.0)], alpha=0.3)


def test_theorem_check_degenerate(degenerate_report):
    rep = degenerate_report
    assert rep.beta == 0.0
    assert rep.gamma_value == pytest.approx(tw.GAMMA_ZERO)
    assert rep.predicted == pytest.approx(-math.pi**2 / 8)
    assert rep.discrepancy <= 0.15 and rep.passed


def test_theorem_check_flags_reference_gamma_misuse(flat_template):
    rep = tw.theorem_check(
        tw.EnvironmentSpec.random_shift_bernoulli(0.5),
        flat_template,
        [64, 128, 256],
        estimator="dp",
        gamma_source="reference",
        seed=3,
        tolerance=2.0,
    )
    assert "reference_gamma_with_nonzero_beta" in rep.flags


def test_theorem_check_rejects_gamma_estimate_at_other_beta(flat_template, gamma_estimates):
    with pytest.raises(ValueError, match=r"beta=0\.5.*beta=0\b"):
        tw.theorem_check(
            tw.EnvironmentSpec.rademacher(),
            flat_template,
            [64, 128, 256],
            estimator="dp",
            gamma_source=gamma_estimates[0.5],
            seed=3,
        )


def test_theorem_check_environment_strictly_harder(degenerate_report, rsb_report):
    assert abs(rsb_report.fit.slope) > abs(degenerate_report.fit.slope)
    assert rsb_report.beta == pytest.approx(0.5)


def test_theorem_check_curved_tube_wider_is_slower(degenerate_report):
    tpl = tw.TubeTemplate(
        g=((0, -1.0), (1, -2.0)), h=((0, 1.0), (1, 2.0)), alpha=0.3
    )  # widening tube, C = 1/8 < 1/4
    rep = tw.theorem_check(
        tw.EnvironmentSpec.rademacher(),
        tpl,
        [200, 400, 800, 1600],
        estimator="dp",
        gamma_source="reference",
        seed=5,
        tolerance=0.35,
    )
    assert abs(rep.fit.slope) < abs(degenerate_report.fit.slope)
    assert rep.predicted == pytest.approx(-tw.GAMMA_ZERO / 8, rel=1e-8)


def test_theorem_check_seed_self_averaging(flat_template):
    # quenched slopes under two environment seeds agree within the fit CIs;
    # an asymptotic statement, so flagged (warned), not asserted
    spec = tw.EnvironmentSpec.random_shift_bernoulli(0.5)
    kw = dict(estimator="dp", gamma_source=6.2, tolerance=0.5)
    a = tw.theorem_check(spec, flat_template, [200, 400, 800, 1600], seed=101, **kw)
    b = tw.theorem_check(spec, flat_template, [200, 400, 800, 1600], seed=202, **kw)
    half = (a.fit.slope_ci95[1] - a.fit.slope_ci95[0]) / 2 + (
        b.fit.slope_ci95[1] - b.fit.slope_ci95[0]
    ) / 2
    if abs(a.fit.slope - b.fit.slope) > half:
        warnings.warn("quenched slopes differ beyond combined fit CIs at desk scale")


def test_theorem_check_shared_environment(flat_template):
    spec = tw.EnvironmentSpec.random_shift_bernoulli(0.5)
    rep = tw.theorem_check(
        spec,
        flat_template,
        [100, 200, 400],
        estimator="dp",
        gamma_source=6.2,
        seed=7,
        shared_env=True,
        tolerance=1.0,
    )
    assert len(rep.points) == 3
    assert all(math.isfinite(p.estimate.log_p) for p in rep.points)


def test_theorem_check_with_callable_estimator(flat_template):
    calls = []

    def fake(env, tube, x0, seed=0):
        calls.append(tube.n)
        return tw.survival_dp_lattice(env, tube, x0)

    rep = tw.theorem_check(
        tw.EnvironmentSpec.rademacher(),
        flat_template,
        [64, 128, 256],
        estimator=fake,
        gamma_source="reference",
        seed=3,
        tolerance=1.0,
    )
    assert sorted(calls) == [64, 128, 256]
    assert rep.fit.slope < 0


def test_make_estimator_dispatch():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 20, seed=1)
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=16)
    auto = tw.make_estimator("auto")(env, tube, 0.0)
    assert auto.method == "dp_lattice"
    genv = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(0.5, 1.0), 20, seed=1)
    auto_g = tw.make_estimator("auto", grid_points=128)(genv, tube, 0.0)
    assert auto_g.method == "grid"
    with pytest.raises(ValueError):
        tw.make_estimator("nope")
    with pytest.raises(ValueError):
        tw.make_estimator("dp", bogus=1)


def test_theorem_check_needs_three_points(flat_template):
    with pytest.raises(ValueError):
        tw.theorem_check(tw.EnvironmentSpec.rademacher(), flat_template, [100, 200])
