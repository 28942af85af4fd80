"""Common result type for all tube-survival estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass

METHOD_DP_LATTICE = "dp_lattice"
METHOD_GRID = "grid"
METHOD_NAIVE_MC = "naive_mc"
METHOD_SPLITTING = "splitting"
METHOD_BRUTE_FORCE = "brute_force"

_STOCHASTIC = {METHOD_NAIVE_MC, METHOD_SPLITTING}


@dataclass(frozen=True)
class SurvivalEstimate:
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
