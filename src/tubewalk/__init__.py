"""Tube-survival probabilities and decay rates for random walks whose step
law is drawn i.i.d. afresh at every time index.

The package estimates the quenched probability that such a walk, started
inside a moving tube of width ~ n^alpha, stays inside for n steps -- three
independent ways (exact lattice DP, grid density propagation, Monte Carlo
with multilevel splitting) -- estimates the Brownian confinement rate
gamma(beta), and compares the fitted decay constant of ln P in n^(1-2 alpha)
with the predicted -C_{g,h} sigma_q^2 gamma(sigma_a/sigma_q).
"""

from .env import (
    AssumptionReport,
    EnvironmentSpec,
    EnvRealization,
    InvalidSpecError,
    StepLaw,
    moments,
    sample_environment,
    verify_assumptions,
)
from .gamma import (
    GAMMA_ZERO,
    GammaEstimate,
    bm_tube_rate,
    estimate_gamma,
    quenched_bm_confinement,
)
from .mc import survival_naive_mc, survival_splitting
from .quench_dp import (
    NonLatticeError,
    survival_brute_force,
    survival_dp_lattice,
    survival_grid,
    survival_start_sweep,
)
from .rate import CheckReport, RateFit, decay_fit, make_estimator, theorem_check
from .results import SurvivalEstimate
from .tube import TubeSpec, TubeTemplate, c_gh, predicted_rate
from .walk import WalkPath, sample_path

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "CheckReport",
    "EnvRealization",
    "EnvironmentSpec",
    "GAMMA_ZERO",
    "GammaEstimate",
    "InvalidSpecError",
    "NonLatticeError",
    "RateFit",
    "StepLaw",
    "SurvivalEstimate",
    "TubeSpec",
    "TubeTemplate",
    "WalkPath",
    "bm_tube_rate",
    "c_gh",
    "decay_fit",
    "estimate_gamma",
    "make_estimator",
    "moments",
    "predicted_rate",
    "quenched_bm_confinement",
    "sample_environment",
    "sample_path",
    "survival_brute_force",
    "survival_dp_lattice",
    "survival_grid",
    "survival_naive_mc",
    "survival_splitting",
    "survival_start_sweep",
    "theorem_check",
    "verify_assumptions",
]
