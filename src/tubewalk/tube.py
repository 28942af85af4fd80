"""Moving tubes [g(i/n) n^alpha, h(i/n) n^alpha] and the width functional.

Boundaries g, h are piecewise linear on [0, 1], given as breakpoint lists.
Piecewise-linear boundaries make the separation invariant checkable at the
breakpoints alone and keep the quadrature of 1/(h-g)^2 analytically
controllable.  Bound values are never rounded to any lattice; estimators
compare walk positions to the real-valued bounds directly.
"""

from __future__ import annotations

import math

import numpy as np

from .results import Record

Breakpoints = tuple[tuple[float, float], ...]


def _as_breakpoints(spec, name: str) -> Breakpoints:
    """Accept a constant or a breakpoint list; normalise to ((s, v), ...)."""
    if isinstance(spec, (int, float)):
        spec = ((0.0, spec), (1.0, spec))
    try:
        pts = tuple((float(s), float(v)) for s, v in spec)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{name} must be a number or a list of (s, value) breakpoints, got {spec!r}"
        ) from None
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ValueError(f"{name} breakpoints must be finite, got {spec!r}")
    if len(pts) < 2 or pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        raise ValueError("breakpoints must start at s=0 and end at s=1")
    ss = [s for s, _ in pts]
    if any(b <= a for a, b in zip(ss, ss[1:])):
        raise ValueError("breakpoint abscissae must be strictly increasing")
    return pts


def _interp(pts: Breakpoints, s) -> np.ndarray | float:
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return np.interp(s, xs, ys)


class TubeSpec(Record):
    """A concrete tube instance for one walk length n.

    ``start_window`` (a0, b0) and ``end_window`` (a1, b1) are expressed in
    units of n^alpha, like g and h.  ``xi_threshold`` enables the auxiliary
    per-step events xi_i <= r_n.
    """

    g: Breakpoints
    h: Breakpoints
    alpha: float
    n: int
    f_offset: int = 0
    start_window: tuple[float, float] | None = None
    end_window: tuple[float, float] | None = None
    xi_threshold: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "g", _as_breakpoints(self.g, "g"))
        object.__setattr__(self, "h", _as_breakpoints(self.h, "h"))
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie strictly in (0, 1/2), got {self.alpha}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.f_offset < 0:
            raise ValueError("f_offset must be >= 0")
        knots = sorted({s for s, _ in self.g} | {s for s, _ in self.h})
        if any(_interp(self.g, s) >= _interp(self.h, s) for s in knots):
            raise ValueError("tube boundaries must satisfy g(s) < h(s) on [0, 1]")
        if self.start_window is not None:
            a0, b0 = self.start_window
            if not (self.g_at(0.0) < a0 <= b0 < self.h_at(0.0)):
                raise ValueError("start window must satisfy g(0) < a0 <= b0 < h(0)")
        if self.end_window is not None:
            a1, b1 = self.end_window
            if not (self.g_at(1.0) <= a1 < b1 <= self.h_at(1.0)):
                raise ValueError("end window must satisfy g(1) <= a' < b' <= h(1)")
        if self.xi_threshold is not None and not self.xi_threshold > 0:
            raise ValueError(f"xi_threshold must be > 0, got {self.xi_threshold}")

    @property
    def scale(self) -> float:
        """n^alpha, the spatial scale of the tube."""
        return float(self.n) ** self.alpha

    def g_at(self, s) -> float:
        return _interp(self.g, s)

    def h_at(self, s) -> float:
        return _interp(self.h, s)

    def bounds_at(self, i: int) -> tuple[float, float]:
        """Tube interval at time index i, 0 <= i <= n."""
        if not 0 <= i <= self.n:
            raise IndexError(f"time index {i} outside [0, {self.n}]")
        s = i / self.n
        c = self.scale
        return float(self.g_at(s)) * c, float(self.h_at(s)) * c

    def bounds_arrays(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds at times start..stop-1 (all times 0..n by default).

        Each value is interp(i/n) * n^alpha of its own time i alone, so a
        chunk is the same slice of the whole arrays, bit for bit.
        """
        stop = self.n + 1 if stop is None else stop
        if not 0 <= start <= stop <= self.n + 1:
            raise IndexError(f"times {start}..{stop - 1} outside [0, {self.n}]")
        s = np.arange(start, stop) / self.n
        c = self.scale
        return np.asarray(_interp(self.g, s)) * c, np.asarray(_interp(self.h, s)) * c

    def extremes(self) -> tuple[float, float, float, float]:
        """The lower bound's min and max and the upper bound's min and max over `bounds_arrays`,
        without building them.

        Between two breakpoints a bound is monotone in time, in floating
        point too (`np.interp` is a fixed multiply-add of the time), so its
        extremes fall on the times next to a breakpoint.
        """
        knots = {s for s, _ in self.g} | {s for s, _ in self.h}
        i = np.clip([math.floor(s * self.n) + k for s in knots for k in (-1, 0, 1, 2)], 0, self.n)
        s = i / self.n
        c = self.scale
        lo, up = np.asarray(_interp(self.g, s)) * c, np.asarray(_interp(self.h, s)) * c
        return float(lo.min()), float(lo.max()), float(up.min()), float(up.max())

    def extent(self) -> tuple[float, float]:
        """The lowest lower and highest upper bound (`extremes`)."""
        lo, _, _, up = self.extremes()
        return lo, up

    def end_bounds(self) -> tuple[float, float] | None:
        """End window in walk units, or None when no end restriction is set."""
        if self.end_window is None:
            return None
        c = self.scale
        return self.end_window[0] * c, self.end_window[1] * c

    def start_points(self, points: int = 11) -> np.ndarray:
        """`points` start points across the start window, or across the
        interior of (g(0), h(0)) when there is none; the middle of an odd
        number of points is `default_x0()` to the bit."""
        c = self.scale
        if self.start_window is not None:
            xs = np.linspace(self.start_window[0] * c, self.start_window[1] * c, points)
        else:
            xs = np.linspace(self.g_at(0.0) * c, self.h_at(0.0) * c, points + 2)[1:-1]
        if points % 2:
            xs[points // 2] = self.default_x0()
        return xs

    def default_x0(self) -> float:
        """Midpoint start: centre of the start window, else of (g(0), h(0))."""
        if self.start_window is not None:
            lo, hi = self.start_window
        else:
            lo, hi = self.g_at(0.0), self.h_at(0.0)
        return 0.5 * (lo + hi) * self.scale


def _segments(tube: TubeSpec) -> list[tuple[float, float]]:
    knots = sorted({s for s, _ in tube.g} | {s for s, _ in tube.h})
    return list(zip(knots, knots[1:]))


def c_gh(tube: TubeSpec, panels: int = 1024) -> float:
    """Integral of 1/(h-g)^2 over [0,1] by composite Simpson quadrature.

    Panel boundaries include every breakpoint of g and h, so the integrand
    is smooth inside each panel; `panels` is the total panel budget,
    distributed over segments proportionally to length (at least one per
    segment).
    """
    if panels < 1:
        raise ValueError("panels must be >= 1")
    total = 0.0
    segs = _segments(tube)
    for a, b in segs:
        k = max(1, int(round(panels * (b - a))))
        xs = np.linspace(a, b, 2 * k + 1)
        w = _interp(tube.h, xs) - _interp(tube.g, xs)
        if np.any(w <= 0):
            raise ValueError("tube boundaries must satisfy g(s) < h(s) on [0, 1]")
        f = 1.0 / w**2
        hstep = (b - a) / k
        total += hstep / 6.0 * (f[0] + f[-1] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum())
    return total


def predicted_rate(tube: TubeSpec, sigma_a_sq: float, sigma_q_sq: float, gamma_value: float) -> float:
    """Predicted coefficient of n^(1-2 alpha) in ln P: -C_{g,h} sigma_q^2 gamma."""
    return -c_gh(tube) * sigma_q_sq * gamma_value


class TubeTemplate(Record):
    """Tube family over n: fixed shape, with n and f(n) substituted per run.

    The start offset follows the power rule f(n) = floor(f_coeff * n^f_power).
    """

    g: Breakpoints
    h: Breakpoints
    alpha: float
    start_window: tuple[float, float] | None = None
    end_window: tuple[float, float] | None = None
    xi_threshold: float | None = None
    f_coeff: float = 1.0
    f_power: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "g", _as_breakpoints(self.g, "g"))
        object.__setattr__(self, "h", _as_breakpoints(self.h, "h"))
        if not (self.f_coeff >= 0 and self.f_power >= 0):
            raise ValueError(f"f_coeff and f_power must be >= 0, got {self.f_coeff} and {self.f_power}")

    def f_offset(self, n: int) -> int:
        return int(math.floor(self.f_coeff * float(n) ** self.f_power))

    def make(self, n: int) -> TubeSpec:
        return TubeSpec(
            g=self.g,
            h=self.h,
            alpha=self.alpha,
            n=n,
            f_offset=self.f_offset(n),
            start_window=self.start_window,
            end_window=self.end_window,
            xi_threshold=self.xi_threshold,
        )
