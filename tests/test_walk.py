import io
import math

import numpy as np
import pytest

import tubewalk as tw
from tubewalk.rng import substream
from tubewalk.walk import draw_increments


def test_zero_length_path():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 5, seed=1)
    path = tw.sample_path(env, 0, 0, x0=0.7, seed=2)
    assert np.array_equal(path.s, [0.7])
    assert np.array_equal(path.m, [0.0])
    assert np.array_equal(path.u, [0.0])
    assert np.array_equal(path.gamma, [0.0])


def test_degenerate_rademacher_decomposition():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 100, seed=5)
    path = tw.sample_path(env, 0, 100, x0=2.0, seed=9)
    path.validate()
    assert np.all(path.m == 0.0)
    assert np.array_equal(path.u, path.s - 2.0)
    assert np.array_equal(path.gamma, np.arange(101.0))


def test_shift_bernoulli_increment_support():
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 200, seed=5)
    path = tw.sample_path(env, 0, 200, x0=0.0, seed=11)
    inc = np.diff(path.s)
    assert set(np.round(inc, 12)) <= {-1.5, -0.5, 0.5, 1.5}
    # drift increments follow the per-step law means
    assert np.allclose(np.diff(path.m), env.quenched_mean[:200])
    # each increment is one of the current step law's atoms
    atoms = env.atom_pos[np.arange(200)]
    assert np.all(np.any(np.isclose(inc[:, None], atoms), axis=1))


def test_decomposition_exact_for_gaussian_env():
    env = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(1.0, 2.0), 300, seed=5)
    path = tw.sample_path(env, 17, 250, x0=-3.0, seed=13)
    path.validate()
    assert len(path) == 250
    assert path.gamma[-1] == pytest.approx(250 * 4.0)


def test_out_of_range_start_raises():
    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 10, seed=1)
    with pytest.raises(IndexError):
        tw.sample_path(env, 5, 6, x0=0.0, seed=2)


def test_path_sampling_statistics_match_quenched_moments():
    # 1e5 paths in one fixed environment of length 100
    env = tw.sample_environment(tw.EnvironmentSpec.random_shift_bernoulli(0.5), 100, seed=21)
    inc = draw_increments(env, 0, 100, substream(77, 0), size=100_000)
    s_end = inc.sum(axis=1)
    m_end = env.quenched_mean.sum()
    gamma_end = env.quenched_var.sum()
    se = s_end.std(ddof=1) / math.sqrt(len(s_end))
    assert abs(s_end.mean() - m_end) <= 5 * se
    u_var = (s_end - m_end).var(ddof=1)
    assert abs(u_var - gamma_end) / gamma_end <= 0.05


def test_path_csv_dump():
    from tubewalk.walk import path_to_csv

    env = tw.sample_environment(tw.EnvironmentSpec.rademacher(), 4, seed=1)
    path = tw.sample_path(env, 0, 4, x0=0.0, seed=3)
    buf = io.StringIO()
    path_to_csv(path, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "i,s,m,u,gamma"
    assert len(lines) == 6


class _FixedUniforms:
    """Stands in for a Generator whose `random` returns preset uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape=None, out=None):
        if out is None:
            return self.u.reshape(shape).copy()
        out[...] = self.u.reshape(out.shape)
        return out


def _searchsorted_increments(env, start, length, u):
    """The inverse-CDF lookup that draw_increments' atom branch must match."""
    pos = env.atom_pos[start : start + length]
    cw = np.cumsum(env.atom_w)
    idx = np.minimum(np.searchsorted(cw, u, side="right"), len(cw) - 1)
    return pos[np.arange(length)[None, :], idx]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    "spec",
    [
        tw.EnvironmentSpec.rademacher(),
        tw.EnvironmentSpec.random_shift_bernoulli(0.5),
        tw.EnvironmentSpec.degenerate([(-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)]),
        # -0.0 == 0.0, so only a bitwise comparison sees an atom whose sign is lost
        tw.EnvironmentSpec.degenerate([(-0.0, 0.5), (1.0, 0.25), (-1.0, 0.25)]),
    ],
)
def test_atom_draws_match_searchsorted(spec):
    env = tw.sample_environment(spec, 40, seed=3)
    cw = np.cumsum(env.atom_w)
    # random uniforms, plus the edge values: 0, each cumulative weight
    # exactly (ties go to the next atom) and the largest double below 1
    edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cw, np.nextafter(cw, 0.0)])
    u = np.concatenate([np.random.default_rng(5).random(40 * 50), np.resize(edges, 40 * 10)])
    got = draw_increments(env, 0, 40, _FixedUniforms(u), size=60)
    assert np.array_equal(_bits(got), _bits(_searchsorted_increments(env, 0, 40, u.reshape(60, 40))))
    assert got.shape == (60, 40) and got.flags.writeable  # mc._advance cumulates in place
    # the same with a generator, over a window that does not start at step 0
    got = draw_increments(env, 7, 25, substream(8, 1), size=333)
    ref = _searchsorted_increments(env, 7, 25, substream(8, 1).random((333, 25)))
    assert np.array_equal(_bits(got), _bits(ref))
    # one pair of buffers, filled with garbage and reused over windows of two
    # lengths, gives the bits of fresh draws: no stale entry leaks through
    k = len(env.atom_w)
    flat = np.random.default_rng(6).random(333 * 40)
    scratch = np.random.default_rng(7).random(k * 333 * 40) < 0.5
    for start, length in ((0, 40), (7, 25)):
        out = flat[: 333 * length].reshape(333, length)
        select = scratch[: (k - 1) * 333 * length].reshape(k - 1, 333, length)
        got = draw_increments(env, start, length, substream(8, length), 333, out=out, select=select)
        assert got is out
        fresh = draw_increments(env, start, length, substream(8, length), size=333)
        assert np.array_equal(_bits(got), _bits(fresh))


def test_gaussian_draws_match_affine_transform():
    # tau = 1.3 is not a power of two, so a reordered product would round differently
    env = tw.sample_environment(tw.EnvironmentSpec.random_mean_gaussian(1.0, 1.3), 40, seed=3)
    got = draw_increments(env, 5, 30, substream(8, 2), size=333)
    z = substream(8, 2).standard_normal((333, 30))
    assert np.array_equal(got, env.quenched_mean[None, 5:35] + env.stds[None, 5:35] * z)
