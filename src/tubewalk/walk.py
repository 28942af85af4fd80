"""Quenched walk paths and their drift/fluctuation decomposition.

A path stores four aligned sequences: the walk positions s, the cumulative
quenched means m (the environment-driven drift), the centred fluctuation
u = s - s[0] - m, and the cumulative quenched variance gamma.  The
decomposition s[i] = s[0] + m[i] + u[i] holds exactly by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .env import EnvRealization
from .rng import STREAM_PATH, substream


@dataclass(frozen=True, eq=False)
class WalkPath:
    """One sampled path of length n: arrays of length n+1, index 0 = start."""

    s: np.ndarray
    m: np.ndarray
    u: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        n = len(self.s)
        if not (len(self.m) == len(self.u) == len(self.gamma) == n):
            raise ValueError("path sequences must have equal length")

    def __len__(self) -> int:
        return len(self.s) - 1

    def validate(self, tol: float = 0.0) -> None:
        """Assert the exact decomposition and monotonicity invariants."""
        recon = self.s[0] + self.m + self.u
        if np.max(np.abs(recon - self.s)) > tol:
            raise AssertionError("decomposition s = s0 + m + u violated")
        if self.gamma[0] != 0.0 or np.any(np.diff(self.gamma) < 0):
            raise AssertionError("gamma must start at 0 and be nondecreasing")


def draw_increments(
    env: EnvRealization, start_index: int, length: int, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Sample `size` independent increment rows from steps [start, start+length).

    Draw order is fixed (one uniform or normal block per call), so results
    depend only on the generator state, not on how callers batch replicas.
    """
    if start_index < 0 or start_index + length > env.length:
        raise IndexError(
            f"steps [{start_index}, {start_index + length}) outside environment of length {env.length}"
        )
    if length == 0:
        return np.zeros((size, 0))
    if env.kind == "atoms":
        pos = env.atom_pos[start_index : start_index + length]  # (length, k)
        cw = np.cumsum(env.atom_w)
        u = rng.random((size, length))
        # Atom j is taken where u >= cw[j-1]; cw is nondecreasing, so the
        # last such j is min(searchsorted(cw, u, "right"), k-1).  Step laws
        # have at least two atoms, so the result is a fresh array.
        out = pos[:, 0]
        for j in range(1, len(cw)):
            out = np.where(u >= cw[j - 1], pos[:, j], out)
        return out
    z = rng.standard_normal((size, length))
    z *= env.stds[start_index : start_index + length]
    z += env.quenched_mean[start_index : start_index + length]
    return z


def sample_path(env: EnvRealization, start_index: int, length: int, x0: float, seed: int) -> WalkPath:
    """Sample one quenched path started at x0, step i drawn from
    env.steps[start_index + i].

    The path is assembled from its decomposition -- u accumulates the
    centred increments, m the quenched means, s = (x0 + m) + u -- so the
    identity s[i] = s[0] + m[i] + u[i] holds exactly in floating point.
    """
    inc = draw_increments(env, start_index, length, substream(seed, STREAM_PATH), size=1)[0]
    qm = env.quenched_mean[start_index : start_index + length]
    m = np.zeros(length + 1)
    np.cumsum(qm, out=m[1:])
    u = np.zeros(length + 1)
    np.cumsum(inc - qm, out=u[1:])
    s = (x0 + m) + u
    gamma = np.zeros(length + 1)
    np.cumsum(env.quenched_var[start_index : start_index + length], out=gamma[1:])
    return WalkPath(s=s, m=m, u=u, gamma=gamma)


def path_to_csv(path: WalkPath, dest) -> None:
    """Dump a path as CSV with columns i, s, m, u, gamma (debug aid)."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["i", "s", "m", "u", "gamma"])
    for i in range(len(path) + 1):
        writer.writerow([i] + [f"{v:.17g}" for v in (path.s[i], path.m[i], path.u[i], path.gamma[i])])
