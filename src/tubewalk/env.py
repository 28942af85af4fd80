"""Random environments in time.

An environment is an i.i.d. sequence of per-step probability laws.  Three
parametric families are supported, chosen so that every estimator in the
package has at least one exactly checkable case:

* ``degenerate`` -- the same finite atom law at every step (no environment
  randomness; the classical small-deviation baseline).
* ``random_shift_bernoulli`` -- step law is a Rademacher step shifted by a
  random mean m_i drawn uniformly from {-d, +d}; all atoms live on the
  lattice (1/q)Z, so exact dynamic programming applies.
* ``random_mean_gaussian`` -- step law is N(m_i, tau^2) with a random mean
  m_i ~ N(0, sigma_a^2); handled by grid density propagation.

All families have centred mean laws (E m_i = 0) and strictly positive
quenched variance by construction.  ``sigma_a_sq`` is the variance of the
random per-step mean, ``sigma_q_sq`` the mean quenched variance.

An atom law's realisation holds each of its D step laws once, as a kind
(``atom_kinds``, one row of atom positions per kind), and one small code a
step (``atom_codes``): the estimators build one kernel per kind and read
each step's by its code.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .propagate import _LATTICE_TOL
from .results import Record
from .rng import STREAM_ENV, substream

FAMILIES = ("degenerate", "random_shift_bernoulli", "random_mean_gaussian")

_MOMENT_TOL = 1e-12


class InvalidSpecError(ValueError):
    """Raised when environment parameters violate the model assumptions."""


class StepLaw(Record):
    """One concrete per-step law: either a finite atom list or a Gaussian."""

    kind: str  # "atoms" | "gaussian"
    atoms: tuple[tuple[float, float], ...] | None  # ((position, weight), ...)
    mean: float | None
    std: float | None
    quenched_mean: float
    quenched_var: float

    def __post_init__(self):
        if self.kind == "atoms":
            w = sum(a[1] for a in self.atoms)
            if abs(w - 1.0) > _MOMENT_TOL:
                raise InvalidSpecError(f"atom weights sum to {w}, not 1")
            m = sum(p * w for p, w in self.atoms)
            v = sum(w * (p - m) ** 2 for p, w in self.atoms)
        elif self.kind == "gaussian":
            if self.std is None or self.std <= 0:
                raise InvalidSpecError("gaussian step law needs std > 0")
            m, v = self.mean, self.std**2
        else:
            raise InvalidSpecError(f"unknown step-law kind {self.kind!r}")
        if abs(m - self.quenched_mean) > _MOMENT_TOL or abs(v - self.quenched_var) > 1e-10 * max(1.0, v):
            raise InvalidSpecError("stored moments disagree with analytic moments")

    @classmethod
    def from_atoms(cls, atoms) -> "StepLaw":
        atoms = tuple((float(p), float(w)) for p, w in atoms)
        m = sum(p * w for p, w in atoms)
        v = sum(w * (p - m) ** 2 for p, w in atoms)
        return cls("atoms", atoms, None, None, m, v)

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "StepLaw":
        return cls("gaussian", None, float(mean), float(std), float(mean), float(std) ** 2)


def _on_lattice(positions, q: int) -> bool:
    """Whether every position lies on (1/q)Z under the DP's rule, _LATTICE_TOL."""
    return all(abs(p * q - round(p * q)) <= _LATTICE_TOL for p in positions)


def _lattice_denominator(positions, max_q: int = 10**6) -> int | None:
    """Smallest q with all positions on (1/q)Z (`_on_lattice`), or None if there is none."""
    from fractions import Fraction  # only a law without a declared lattice_q needs it

    q = 1
    for p in positions:
        if not math.isfinite(p):
            return None
        q = math.lcm(q, Fraction(p).limit_denominator(max_q).denominator)
        if q > max_q:
            return None
    return q if _on_lattice(positions, q) else None


class EnvironmentSpec(Record):
    """Meta-law of the i.i.d. per-step laws, with closed-form moments.

    Use the factory classmethods rather than the raw constructor:
    ``degenerate(atoms)``, ``random_shift_bernoulli(d, q=None)``,
    ``random_mean_gaussian(sigma_a, tau)``.

    ``xi_scale`` parameterises the auxiliary positive variables xi_i
    attached to each environment element: xi_i ~ Exponential with this
    scale, independent of the walk step given the element.
    """

    family: str
    atoms: tuple[tuple[float, float], ...] | None = None
    d: float | None = None
    lattice_q: int | None = None
    sigma_a: float | None = None
    tau: float | None = None
    xi_scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpecError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("d", "sigma_a", "tau", "xi_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidSpecError(f"{name} must be finite, got {value}")
        if self.atoms is not None and not all(math.isfinite(v) for atom in self.atoms for v in atom):
            raise InvalidSpecError(f"atoms must have finite positions and weights, got {self.atoms}")
        if self.xi_scale <= 0:
            raise InvalidSpecError("xi_scale must be > 0")
        if self.family == "degenerate":
            if not self.atoms:
                raise InvalidSpecError("degenerate family needs a non-empty atom list")
            try:
                law = StepLaw.from_atoms(self.atoms)  # validates weights
            except OverflowError:
                raise InvalidSpecError(f"atom variance overflows a float for atoms {self.atoms}") from None
            if any(w <= 0 for _, w in self.atoms):
                raise InvalidSpecError("atom weights must be positive")
            if abs(law.quenched_mean) > _MOMENT_TOL:
                raise InvalidSpecError(f"degenerate atoms must be centred (mean={law.quenched_mean:g})")
            if law.quenched_var <= 0:
                raise InvalidSpecError("atom set has zero variance, sigma_q_sq must be > 0")
        elif self.family == "random_shift_bernoulli":
            if self.d is None or self.d < 0:
                raise InvalidSpecError("random_shift_bernoulli needs shift magnitude d >= 0")
            q = self.lattice_q
            if q is None:
                q = _lattice_denominator([self.d])
                if q is None:
                    raise InvalidSpecError(f"d={self.d} is not a rational p/q with small denominator")
                object.__setattr__(self, "lattice_q", q)
            if q < 1 or int(q) != q:
                raise InvalidSpecError("lattice_q must be a positive integer")
            if not _on_lattice([m + a for m in (-self.d, self.d) for a in (-1.0, 1.0)], q):
                raise InvalidSpecError(f"d={self.d} does not lie on the lattice (1/{q})Z")
        else:  # random_mean_gaussian
            if self.sigma_a is None or self.sigma_a < 0:
                raise InvalidSpecError("random_mean_gaussian needs sigma_a >= 0")
            if self.tau is None or self.tau <= 0:
                raise InvalidSpecError("random_mean_gaussian needs tau > 0 (sigma_q_sq > 0)")

    @classmethod
    def degenerate(cls, atoms, xi_scale: float = 1.0) -> "EnvironmentSpec":
        atoms = tuple((float(p), float(w)) for p, w in atoms)
        return cls("degenerate", atoms=atoms, lattice_q=_lattice_denominator([p for p, _ in atoms]), xi_scale=xi_scale)

    @classmethod
    def rademacher(cls, xi_scale: float = 1.0) -> "EnvironmentSpec":
        """Degenerate +-1 steps with probability 1/2 each."""
        return cls.degenerate([(-1.0, 0.5), (1.0, 0.5)], xi_scale=xi_scale)

    @classmethod
    def random_shift_bernoulli(cls, d: float, q: int | None = None, xi_scale: float = 1.0) -> "EnvironmentSpec":
        return cls("random_shift_bernoulli", d=float(d), lattice_q=q, xi_scale=xi_scale)

    @classmethod
    def random_mean_gaussian(cls, sigma_a: float, tau: float, xi_scale: float = 1.0) -> "EnvironmentSpec":
        return cls("random_mean_gaussian", sigma_a=float(sigma_a), tau=float(tau), xi_scale=xi_scale)

    @property
    def is_lattice(self) -> bool:
        """True when every reachable step law has atoms on a common lattice."""
        if self.family == "degenerate":
            return self.lattice_q is not None
        if self.family == "random_shift_bernoulli":
            # atoms are m +- 1 with m = +-d = +-p/q; 1 = q/q, so everything
            # sits on (1/q)Z.
            return True
        return False


def moments(spec: EnvironmentSpec) -> tuple[float, float]:
    """Closed-form (sigma_a_sq, sigma_q_sq) of the environment meta-law."""
    if spec.family == "degenerate":
        law = StepLaw.from_atoms(spec.atoms)
        return 0.0, law.quenched_var
    if spec.family == "random_shift_bernoulli":
        return spec.d**2, 1.0
    return spec.sigma_a**2, spec.tau**2


class AssumptionReport(Record):
    """Outcome of checking the standing model assumptions on a spec."""

    mean_drift_zero: bool
    quenched_var_positive: bool
    drift_exp_moment: bool
    fluct_exp_moment: bool
    lambda1: float | None
    lambda2: float | None
    lambda3: float | None
    notes: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return (
            self.mean_drift_zero
            and self.quenched_var_positive
            and self.drift_exp_moment
            and self.fluct_exp_moment
        )


def verify_assumptions(spec: EnvironmentSpec) -> AssumptionReport:
    """Check the moment and exponential-integrability assumptions.

    All three families satisfy them by construction; for bounded families
    the report carries explicit witnessing constants (lambda1 for the
    drift moment, (lambda2, lambda3) for the a.s. fluctuation bound).
    """
    sa2, sq2 = moments(spec)
    notes = []
    if spec.family == "degenerate":
        # M_1 is deterministic 0; |U_1| <= max |atom - mean| =: R.
        r = max(abs(p) for p, _ in spec.atoms)
        lam1, lam2, lam3 = 1.0, 1.0, math.exp(r)
        notes.append(f"bounded support, |fluctuation| <= {r:g}")
        mean_drift = 0.0
    elif spec.family == "random_shift_bernoulli":
        # |M_1| = d, |U_1| = 1 exactly.
        lam1, lam2, lam3 = 1.0, 1.0, math.e
        notes.append("bounded support, |fluctuation| = 1")
        mean_drift = 0.0  # m uniform on {-d, +d}
    else:
        # Gaussian: E exp(l|M_1|) <= 2 exp(l^2 sigma_a^2 / 2) < inf for all l;
        # E_mu exp(l|U_1|) <= 2 exp(l^2 tau^2 / 2) a.s. (same bound for all mu).
        lam1, lam2 = 1.0, 1.0
        lam3 = 2.0 * math.exp(spec.tau**2 / 2.0)
        notes.append("gaussian exponential moments")
        mean_drift = 0.0
    return AssumptionReport(
        mean_drift_zero=abs(mean_drift) <= _MOMENT_TOL,
        quenched_var_positive=sq2 > 0,
        drift_exp_moment=True,
        fluct_exp_moment=True,
        lambda1=lam1,
        lambda2=lam2,
        lambda3=lam3,
        notes=tuple(notes),
    )


# A run holds, for each environment step, its law (17 bytes for an atom law,
# 24.8 for a Gaussian one); its passes read the tube's bounds and block keys a
# chunk of times at a time.  A run's peak at 1e6 steps, measured with
# tracemalloc for 0-3 atoms per law: 17.0-17.4 bytes a step for the DP's block
# route and step loop, 18.7-19.1 for splitting, 25.3-26.3 for a Gaussian law's
# grid and splitting.  `config.validate` still sizes a step at 64 bytes and
# 32 an atom: lower figures would move the boundaries at which it refuses runs.
_STEP_BYTES, _ATOM_BYTES = 64, 32


class EnvRealization(Record, eq=False):
    """One sampled environment: a length-long sequence of concrete step laws.

    Stored as structure-of-arrays for vectorised samplers; ``step_law(i)``
    gives the per-step object view.  An atom law's steps are codes into its
    kinds: step i has the atoms ``atom_kinds[atom_codes[i]]``, weighted by
    ``atom_w``.  Immutable, so one realization may serve every n of a run;
    sampling is a pure function of (spec, seed, length).
    """

    spec: EnvironmentSpec
    seed: int
    length: int
    kind: str  # "atoms" | "gaussian"
    quenched_mean: np.ndarray  # (length,)
    quenched_var: np.ndarray  # (length,)
    atom_kinds: np.ndarray | None = None  # (D, k): the law's kinds, in the sampler's order
    atom_codes: np.ndarray | None = None  # (length,) uint8: each step's kind
    atom_w: np.ndarray | None = None  # (k,), shared across steps
    stds: np.ndarray | None = None  # (length,) for gaussian
    lattice_q: int | None = None

    def __len__(self) -> int:
        return self.length

    def step_law(self, i: int) -> StepLaw:
        if not 0 <= i < self.length:
            raise IndexError(f"step index {i} out of range [0, {self.length})")
        if self.kind == "atoms":
            return StepLaw.from_atoms(zip(self.atom_kinds[self.atom_codes[i]], self.atom_w))
        return StepLaw.gaussian(self.quenched_mean[i], self.stds[i])

    @cached_property
    def atom_pos(self) -> np.ndarray:
        """Every step's atoms, (length, k), read-only; no estimator builds it."""
        pos = self.atom_kinds[self.atom_codes]
        pos.flags.writeable = False
        return pos

    def xi_cdf(self, r: float) -> float:
        """P(xi_i <= r) under the per-element exponential law (same for all i)."""
        if r <= 0:
            return 0.0
        return -math.expm1(-r / self.spec.xi_scale)


def sample_environment(spec: EnvironmentSpec, length: int, seed: int) -> EnvRealization:
    """Draw `length` i.i.d. step laws from the spec's meta-law.

    Deterministic: the same (spec, seed, length) always yields bit-identical
    arrays, whatever was sampled before.
    """
    if length < 1:
        raise InvalidSpecError("length must be >= 1")
    rng = substream(seed, STREAM_ENV)
    if spec.family == "degenerate":
        law = StepLaw.from_atoms(spec.atoms)
        return EnvRealization(
            spec=spec,
            seed=seed,
            length=length,
            kind="atoms",
            quenched_mean=np.full(length, law.quenched_mean),
            quenched_var=np.full(length, law.quenched_var),
            atom_kinds=np.array([[p for p, _ in spec.atoms]]),
            atom_codes=np.zeros(length, np.uint8),
            atom_w=np.array([w for _, w in spec.atoms]),
            lattice_q=spec.lattice_q,
        )
    if spec.family == "random_shift_bernoulli":
        # code 0 is m = -d, code 1 is m = +d
        codes = rng.integers(0, 2, size=length).astype(np.uint8)
        m = np.array([-spec.d, spec.d])
        return EnvRealization(
            spec=spec,
            seed=seed,
            length=length,
            kind="atoms",
            quenched_mean=m[codes],
            quenched_var=np.ones(length),
            atom_kinds=np.stack([m - 1.0, m + 1.0], axis=1),
            atom_codes=codes,
            atom_w=np.array([0.5, 0.5]),
            lattice_q=spec.lattice_q,
        )
    m = spec.sigma_a * rng.standard_normal(length)
    return EnvRealization(
        spec=spec,
        seed=seed,
        length=length,
        kind="gaussian",
        quenched_mean=m,
        quenched_var=np.full(length, spec.tau**2),
        stds=np.full(length, spec.tau),
        lattice_q=None,
    )
