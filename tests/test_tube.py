import math

import numpy as np
import pytest

import tubewalk as tw


def test_bounds_constant_tube():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.25, n=16)
    assert tube.bounds_at(0) == (-2.0, 2.0)
    assert tube.bounds_at(7) == (-2.0, 2.0)
    assert tube.bounds_at(16) == (-2.0, 2.0)


def test_bounds_sloped_tube():
    tube = tw.TubeSpec(g=((0, 0.0), (1, 1.0)), h=((0, 1.0), (1, 2.0)), alpha=0.25, n=16)
    assert tube.bounds_at(8) == pytest.approx((1.0, 3.0))
    assert tube.bounds_at(16) == pytest.approx((2.0, 4.0))


def test_bounds_index_range():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.25, n=16)
    with pytest.raises(IndexError):
        tube.bounds_at(17)
    with pytest.raises(IndexError):
        tube.bounds_at(-1)


def test_c_gh_constant_exact():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=100)
    assert abs(tw.c_gh(tube) - 0.25) <= 1e-12
    wide = tw.TubeSpec(g=-2.5, h=1.5, alpha=0.3, n=100)
    assert abs(tw.c_gh(wide) - 1.0 / 16.0) <= 1e-12


def test_c_gh_sloped():
    tube = tw.TubeSpec(g=0.0, h=((0, 1.0), (1, 2.0)), alpha=0.3, n=100)
    assert tw.c_gh(tube) == pytest.approx(0.5, abs=1e-8)


def test_c_gh_richardson_delta():
    tube = tw.TubeSpec(
        g=((0, -1.0), (0.3, -2.0), (1, -1.5)), h=((0, 1.0), (0.7, 2.5), (1, 2.0)), alpha=0.3, n=10
    )
    assert abs(tw.c_gh(tube, 1024) - tw.c_gh(tube, 2048)) < 1e-8


def test_c_gh_breakpoint_refinement_invariance():
    a = tw.TubeSpec(g=-1.0, h=((0, 1.0), (1, 2.0)), alpha=0.3, n=10)
    b = tw.TubeSpec(
        g=((0, -1.0), (0.5, -1.0), (1, -1.0)),
        h=((0, 1.0), (0.25, 1.25), (0.5, 1.5), (1, 2.0)),
        alpha=0.3,
        n=10,
    )
    assert tw.c_gh(a) == pytest.approx(tw.c_gh(b), abs=1e-10)


def test_predicted_rate_reference_case():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=100)
    rate = tw.predicted_rate(tube, 0.0, 1.0, tw.GAMMA_ZERO)
    assert rate == pytest.approx(-math.pi**2 / 8, abs=1e-9)


def test_predicted_rate_scalings():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.3, n=100)
    wide = tw.TubeSpec(g=-2.0, h=2.0, alpha=0.3, n=100)
    r1 = tw.predicted_rate(tube, 0.25, 1.0, 6.0)
    assert tw.predicted_rate(wide, 0.25, 1.0, 6.0) == pytest.approx(r1 / 4)
    # doubling sigma_q at fixed ratio multiplies the rate by 4
    assert tw.predicted_rate(tube, 1.0, 4.0, 6.0) == pytest.approx(4 * r1)
    assert r1 < 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(g=1.0, h=-1.0, alpha=0.3, n=10),  # g >= h
        dict(g=((0, -1.0), (1, 2.0)), h=((0, 1.0), (1, 1.5)), alpha=0.3, n=10),  # crossing
        dict(g=-1.0, h=1.0, alpha=0.5, n=10),  # alpha boundary
        dict(g=-1.0, h=1.0, alpha=0.0, n=10),
        dict(g=-1.0, h=1.0, alpha=0.3, n=0),
        dict(g=-1.0, h=1.0, alpha=0.3, n=10, start_window=(-1.0, 0.5)),  # a0 <= g(0)
        dict(g=-1.0, h=1.0, alpha=0.3, n=10, end_window=(0.5, 1.5)),  # b' > h(1)
        dict(g=-1.0, h=1.0, alpha=0.3, n=10, xi_threshold=0.0),
    ],
)
def test_tube_invariant_violations(kwargs):
    with pytest.raises(ValueError):
        tw.TubeSpec(**kwargs)


def test_template_offset_rule_and_make():
    tpl = tw.TubeTemplate(g=-1.0, h=1.0, alpha=0.3, f_coeff=1.0, f_power=0.5)
    assert tpl.f_offset(100) == 10
    tube = tpl.make(100)
    assert tube.n == 100 and tube.f_offset == 10
    assert tpl.replace(f_coeff=0.0).f_offset(100) == 0


def test_default_x0_prefers_start_window():
    tube = tw.TubeSpec(g=-1.0, h=1.0, alpha=0.25, n=16, start_window=(0.0, 0.5))
    assert tube.default_x0() == pytest.approx(0.25 * 2.0)
    plain = tw.TubeSpec(g=-1.0, h=3.0, alpha=0.25, n=16)
    assert plain.default_x0() == pytest.approx(2.0)


def test_extent_is_the_bounds_arrays_extremes():
    # exact, also on segments so flat that the bounds round to a few values
    rng, pick = np.random.default_rng(3), np.random.default_rng(4)
    for trial in range(300):
        knots = np.r_[0.0, np.sort(rng.choice([rng.random(), 1 / 3, 0.1, 0.7], rng.integers(0, 5))), 1.0]
        knots = np.unique(knots)
        scale = 10.0 ** rng.integers(-15, 1) if trial % 2 else 1.0
        g = [(float(s), float(-1.0 - scale * rng.random())) for s in knots]
        h = [(float(s), float(1.0 + scale * rng.random())) for s in knots]
        tube = tw.TubeSpec(g=g, h=h, alpha=0.3, n=int(rng.integers(1, 5000)))
        lo, up = tube.bounds_arrays()
        assert tube.extent() == (lo.min(), up.max())
        assert tube.extremes() == (lo.min(), lo.max(), up.min(), up.max())
        # a chunk of times start..stop-1 is the same slice, bit for bit: random
        # chunks, single times, and chunks ending at the last time n
        n = tube.n
        starts = pick.integers(0, n + 1, 4)
        chunks = [tuple(sorted(pick.integers(0, n + 2, 2))) for _ in range(4)]
        chunks += [(int(i), int(i) + 1) for i in starts] + [(n, n + 1), (int(starts[0]), n + 1)]
        for start, stop in chunks:
            got = tube.bounds_arrays(start, stop)
            assert [a.tobytes() for a in got] == [lo[start:stop].tobytes(), up[start:stop].tobytes()]
        # and a single time's bounds are bounds_at's, bit for bit
        for t in (*(int(i) for i in starts), n):
            assert [x.hex() for x in tube.bounds_at(t)] == [float(lo[t]).hex(), float(up[t]).hex()]
    with pytest.raises(IndexError):
        tube.bounds_arrays(0, n + 2)
    with pytest.raises(IndexError):
        tube.bounds_arrays(2, 1)
