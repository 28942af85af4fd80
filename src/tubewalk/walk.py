"""Quenched walk paths and their drift/fluctuation decomposition.

A path stores four aligned sequences: the walk positions s, the cumulative
quenched means m (the environment-driven drift), the centred fluctuation
u = s - s[0] - m, and the cumulative quenched variance gamma.  The
decomposition s[i] = s[0] + m[i] + u[i] holds exactly by construction.

Atom steps are drawn from the environment's kinds: `draw_increments` works
out what it selects atoms from once per kind (`env.atom_kinds`) and gathers
it by each step's code (`env.atom_codes`), so no (n, k) array of atoms is
built.
"""

from __future__ import annotations

import numpy as np

from .env import EnvRealization
from .results import Record
from .rng import STREAM_PATH, substream


class WalkPath(Record, eq=False):
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
    env: EnvRealization,
    start_index: int,
    length: int,
    rng: np.random.Generator,
    size: int = 1,
    out: np.ndarray | None = None,
    select: np.ndarray | None = None,
) -> np.ndarray:
    """Sample `size` independent increment rows from steps [start, start+length).

    Draw order is fixed (one uniform or normal block per call), so results
    depend only on the generator state, not on how callers batch replicas.
    The rows are written into `out`, a C-contiguous float64 (size, length)
    array, and returned; atom laws with k atoms also use `select`, a bool
    (k-1, size, length) array, as scratch.  Either is allocated when not
    given; `mc._advance` passes the same pair for every row block.
    """
    if start_index < 0 or start_index + length > env.length:
        raise IndexError(
            f"steps [{start_index}, {start_index + length}) outside environment of length {env.length}"
        )
    if out is None:
        out = np.empty((size, length))
    if length == 0:
        return out
    window = slice(start_index, start_index + length)
    if env.kind == "gaussian":
        rng.standard_normal(out=out)
        out *= env.stds[window]
        out += env.quenched_mean[window]
        return out
    cw = np.cumsum(env.atom_w)
    k = len(cw)
    if select is None:
        select = np.empty((k - 1, size, length), dtype=bool)
    rng.random(out=out)
    # Atom j is taken where u >= cw[j-1].  cw is nondecreasing, so these
    # 0/1 masks M_j are nested, and the chosen atom's bits are
    #     a_0 ^ M_1 (D_1 ^ M_2 (D_2 ^ ... M_{k-1} D_{k-1}))
    # with D_j = a_{j-1} ^ a_j, worked out once per kind and gathered by the
    # steps' codes (`table`).  Evaluated inside out on the uint64 view of
    # `out` once the uniforms are spent, this copies each atom exactly (-0.0
    # included) without a data-dependent branch.  Step laws have at least
    # two atoms (zero variance is refused), so k >= 2.
    for j in range(1, k):
        np.greater_equal(out, cw[j - 1], out=select[j - 1])
    kinds = env.atom_kinds.view(np.uint64).T
    table = np.vstack([kinds[:1], kinds[:-1] ^ kinds[1:]])[:, env.atom_codes[window]]
    bits = out.view(np.uint64)
    np.multiply(select[k - 2], table[k - 1], out=bits)
    for j in range(k - 2, 0, -1):
        bits ^= table[j]
        bits *= select[j - 1]
    bits ^= table[0]
    return out


def sample_path(env: EnvRealization, start_index: int, length: int, x0: float, seed: int) -> WalkPath:
    """Sample one quenched path started at x0, step i drawn from
    env.step_law(start_index + i).

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
    import csv  # only this debug aid writes CSV through the csv module

    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["i", "s", "m", "u", "gamma"])
    for i in range(len(path) + 1):
        writer.writerow([i] + [f"{v:.17g}" for v in (path.s[i], path.m[i], path.u[i], path.gamma[i])])
