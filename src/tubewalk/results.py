"""Common result type for all tube-survival estimators, and the immutable
record every tubewalk result and spec is built on.

A `Record` subclass lists its fields as class annotations, with defaults in
the class body; the base class reads the names once, when the subclass is
created, so no method is generated per class.
"""

from __future__ import annotations

import math

METHOD_DP_LATTICE = "dp_lattice"
METHOD_GRID = "grid"
METHOD_NAIVE_MC = "naive_mc"
METHOD_SPLITTING = "splitting"
METHOD_BRUTE_FORCE = "brute_force"

_STOCHASTIC = {METHOD_NAIVE_MC, METHOD_SPLITTING}


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a `Record`."""


class Record:
    """An immutable record of the fields annotated in a subclass's body.

    The constructor takes the fields positionally or by name, fills in the
    class-body defaults, and then runs ``__post_init__`` where the class
    defines one; it may normalise a field with ``object.__setattr__``.
    Assignment and deletion raise `FrozenInstanceError`.  Records compare
    and hash by their field values and class, or with ``eq=False`` in the
    class statement by identity.  ``replace(**changes)`` builds a new record
    through the constructor, so its checks run again.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments {missing}")
        self.__dict__.update(values)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class SurvivalEstimate(Record):
    """A quenched tube-survival probability with provenance.

    ``log_p`` is the natural log (-inf allowed for p = 0); ``p`` is 0 also
    for a finite ``log_p`` whose exponential underflows.  ``stderr_log``
    is a standard error on the log scale and is present exactly for the
    stochastic methods.  ``work`` counts paths (MC) or particle-steps /
    state-transitions (splitting, DP, grid).  ``refine_delta_log`` reports
    the grid estimator's discretisation-refinement delta.
    """

    p: float
    log_p: float
    method: str
    work: int
    seed: int = 0
    stderr_log: float | None = None
    refine_delta_log: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0 + 1e-12:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if self.p > 0 and not math.isclose(self.p, math.exp(self.log_p), rel_tol=1e-12):
            raise ValueError("p and log_p disagree")
        if self.p == 0 and math.exp(self.log_p) != 0.0:
            raise ValueError("p = 0 requires log_p = -inf or exp(log_p) to underflow")
        stochastic = self.method in _STOCHASTIC
        if stochastic != (self.stderr_log is not None):
            raise ValueError("stderr_log must be present exactly for stochastic methods")


def from_log(log_p: float, method: str, work: int, **kw) -> SurvivalEstimate:
    p = 0.0 if log_p == -math.inf else math.exp(log_p)
    return SurvivalEstimate(p=p, log_p=log_p, method=method, work=work, **kw)
