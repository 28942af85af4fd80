"""Experiment configuration: YAML schema, validation, and object builders.

A config file has up to five tables (``environment``, ``tube``,
``estimator``, ``gamma``, ``output``) plus a top-level master ``seed``.
Unknown keys are rejected anywhere.  JSON files load through the same
path (JSON is a YAML subset), which lets a consolidated report's embedded
config be re-run directly.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from importlib import resources

import yaml

from .env import EnvironmentSpec, moments
from .gamma import _REPLICA_BATCH, BARRIER_SHIFT, _layout, _run_bytes, estimate_gamma
from .rate import ESTIMATORS, make_estimator, theorem_check
from .tube import TubeTemplate

SCHEMA_VERSION = 1

_TOP_KEYS = {"seed", "environment", "tube", "estimator", "gamma", "output"}
_ENV_KEYS = {"family", "atoms", "d", "lattice_q", "sigma_a", "tau", "xi_scale", "seed", "shared"}
_TUBE_KEYS = {
    "alpha",
    "n",
    "n_list",
    "f_coeff",
    "f_power",
    "g",
    "h",
    "start_window",
    "end_window",
    "r_n",
    "x0",
    "sweep_starts",
}
_OUT_KEYS = {"dir", "svg", "dump_path"}

# The estimator and gamma keys, each by the parameter of make_estimator,
# theorem_check or estimate_gamma it sets; those signatures hold the defaults.
_EST_ARGS = {k: k for k in ("method", "replicas", "particles", "checkpoints", "grid_points")}
_GAMMA_ARGS = {"t": "horizon_t", "dt": "dt", "grid_points": "grid_points", "replicas": "env_replicas"}


def _defaults(fn, args: dict) -> dict:
    params = inspect.signature(fn).parameters
    return {key: params[arg].default for key, arg in args.items()}


_ESTIMATOR_DEFAULTS = {
    **_defaults(make_estimator, _EST_ARGS),
    **_defaults(theorem_check, {"tolerance": "tolerance"}),
}
_GAMMA_DEFAULTS = {"beta": [0.0], **_defaults(estimate_gamma, _GAMMA_ARGS)}
_OUTPUT_DEFAULTS = {"dir": "out", "svg": False, "dump_path": False}
_EST_KEYS, _GAMMA_KEYS = set(_ESTIMATOR_DEFAULTS), set(_GAMMA_DEFAULTS)

# Memory a run may take, and what one unit of effort holds at once.  Runs
# are sequential, so each check sizes one run against the whole budget.
# A splitting particle keeps positions, flags, end positions and resampling
# indices (8 bytes each, with temporaries); an environment step keeps its
# law, its tube bounds and the estimators' per-step arrays (measured 70-128
# bytes with tracemalloc for 0-3 atoms per law).  gamma holds a batch of W
# increment paths, 8 bytes an entry, and the arrays `gamma._run_bytes`
# counts.  A grid pass on a Gaussian law holds its step kernel's transform,
# inverse FFT and taps and the correlation's output (measured 41 bytes a tap
# with tracemalloc for kernels of 4e4-4e5 taps).
_MEMORY_BUDGET = 2**30
_BUDGET = f"{_MEMORY_BUDGET >> 30} GiB memory budget"
_PATH_BYTES = 64
_STEP_BYTES, _ATOM_BYTES = 64, 32
_TAP_BYTES = 48
_FLOAT_BYTES = 8


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad key."""


def _int_at_least(value, low: int, key: str) -> int:
    """`value` if it is an integer >= low (booleans refused), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """`value` as a float (booleans refused), else ConfigError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _boolean(value, key: str) -> bool:
    """`value` if it is a boolean, else ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _positive(value, key: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigError(f"{key} must be a number > 0, got {value!r}")


def _check_effort(est: dict, n_list: tuple[int, ...]) -> None:
    """Reject estimator effort values the estimators would refuse late."""
    for key, low in (("replicas", 100), ("particles", 100), ("grid_points", 50), ("checkpoints", 1)):
        _int_at_least(est[key], low, f"estimator.{key}")
    # naive MC's replicas are the particles of a one-block splitting run
    for key in ("particles", "replicas"):
        if est[key] > _MEMORY_BUDGET // _PATH_BYTES:
            raise ConfigError(
                f"estimator.{key} must be <= {_MEMORY_BUDGET // _PATH_BYTES} "
                f"({_PATH_BYTES} bytes per path within a {_BUDGET}), got {est[key]}"
            )
    _positive(est["tolerance"], "estimator.tolerance")
    if est["method"] == "splitting" and est["checkpoints"] > min(n_list):
        raise ConfigError(
            f"estimator.checkpoints must be <= the smallest tube n ({min(n_list)}) for splitting, "
            f"got {est['checkpoints']}"
        )


def _check_gamma(gam: dict) -> None:
    """Reject gamma settings before any replica is propagated."""
    for key, low in (("replicas", 8), ("grid_points", 50)):
        _int_at_least(gam[key], low, f"gamma.{key}")
    for key in ("t", "dt"):
        _positive(gam[key], f"gamma.{key}")
    ratio = gam["t"] / gam["dt"]
    steps = round(ratio) if math.isfinite(ratio) else math.inf
    if steps < 4:
        raise ConfigError(f"gamma.t / gamma.dt must give at least 4 steps, got {gam['t']}/{gam['dt']}")
    if BARRIER_SHIFT * math.sqrt(gam["dt"]) >= 0.5:
        raise ConfigError(
            f"gamma.dt must be < {(0.5 / BARRIER_SHIFT) ** 2:.6g} (the barrier correction "
            f"0.5826 sqrt(dt) must stay inside the tube half-width 1/2), got {gam['dt']}"
        )
    batch = min(gam["replicas"], _REPLICA_BATCH)
    if steps > _MEMORY_BUDGET // (_FLOAT_BYTES * batch):
        raise ConfigError(
            f"gamma.t / gamma.dt must give at most {_MEMORY_BUDGET // (_FLOAT_BYTES * batch)} steps "
            f"({_FLOAT_BYTES} bytes per W increment, {batch} replicas at a time, within a "
            f"{_BUDGET}), got {steps}"
        )
    _check_gamma_layout(gam, max(gam["beta"], default=0.0))


def _check_gamma_layout(gam: dict, beta: float, at: str = "") -> None:
    """Reject a gamma run at drift `beta` whose layout overflows the budget;
    `at` says where `beta` comes from."""
    batch = min(gam["replicas"], _REPLICA_BATCH)
    # the padded row holds at least grid_points entries a replica, and its
    # padding covers drifts beta * dW up to the kernel's own reach, |dW| <= 8
    # sqrt(dt), in cells under 1/grid_points; past the bound the layout is
    # not sized (it may not fit a float)
    drift = beta * 8.0 * math.sqrt(gam["dt"])
    row_cap = _MEMORY_BUDGET // (_FLOAT_BYTES * batch)
    if gam["grid_points"] > row_cap or gam["grid_points"] * (1.0 + drift) > row_cap:
        need = f"rows of more than {row_cap} entries"
    else:
        _, _, n, band = _layout(gam["dt"], gam["grid_points"], max_drift=drift)
        size = _run_bytes(gam["grid_points"], n, band, batch)
        if size <= _MEMORY_BUDGET:
            return
        need = f"{size} bytes"
    raise ConfigError(
        f"gamma.dt and gamma.grid_points must let {batch} replicas propagate together (the "
        f"cut operator of the step-kernel band, the padded rows of the first step and a "
        f"block of step kernels){at} within a {_BUDGET}; they "
        f"need {need} (lower gamma.grid_points)"
    )


def _check_keys(table: dict, allowed: set, where: str) -> None:
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be a table, got {type(table).__name__}")
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _window(value, where: str):
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{where} must be a pair [lo, hi]")
    return (_number(value[0], where), _number(value[1], where))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated, resolved configuration."""

    seed: int
    env_spec: EnvironmentSpec
    env_seed: int  # environment.seed, or the master seed
    shared_env: bool
    template: TubeTemplate
    n_list: tuple[int, ...]
    x0: float | None
    sweep_starts: bool
    estimator: dict
    gamma: dict
    output: dict
    raw: dict

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)

    @property
    def estimator_params(self) -> dict:
        """The keyword arguments of `make_estimator` this config sets."""
        return {arg: self.estimator[key] for key, arg in _EST_ARGS.items()}

    @property
    def gamma_params(self) -> dict:
        """The keyword arguments of `estimate_gamma` this config sets, beta and seed aside."""
        return {arg: self.gamma[key] for key, arg in _GAMMA_ARGS.items()}


def config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _build_env(table: dict) -> EnvironmentSpec:
    family = table.get("family")
    if family is None:
        raise ConfigError("environment.family is required")
    xi_scale = _number(table.get("xi_scale", 1.0), "environment.xi_scale")
    try:
        if family == "degenerate":
            if "atoms" not in table:
                raise ConfigError("environment.atoms is required for the degenerate family")
            atoms = table["atoms"]
            if not (isinstance(atoms, list) and all(isinstance(a, list) and len(a) == 2 for a in atoms)):
                raise ConfigError(f"environment.atoms must be [position, weight] pairs, got {atoms!r}")
            atoms = [(_number(p, "environment.atoms"), _number(w, "environment.atoms")) for p, w in atoms]
            return EnvironmentSpec.degenerate(atoms, xi_scale=xi_scale)
        if family == "random_shift_bernoulli":
            if "d" not in table:
                raise ConfigError("environment.d is required for random_shift_bernoulli")
            q = table.get("lattice_q")
            return EnvironmentSpec.random_shift_bernoulli(
                _number(table["d"], "environment.d"),
                q=None if q is None else _int_at_least(q, 1, "environment.lattice_q"),
                xi_scale=xi_scale,
            )
        if family == "random_mean_gaussian":
            for key in ("sigma_a", "tau"):
                if key not in table:
                    raise ConfigError(f"environment.{key} is required for random_mean_gaussian")
            return EnvironmentSpec.random_mean_gaussian(
                _number(table["sigma_a"], "environment.sigma_a"),
                _number(table["tau"], "environment.tau"),
                xi_scale=xi_scale,
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"environment: {exc}") from exc
    raise ConfigError(f"environment.family: unknown family {family!r}")


def _check_moments(env_spec: EnvironmentSpec) -> None:
    """Reject an environment whose variances (`env.moments`) overflow a float."""
    try:
        moments(env_spec)
    except OverflowError:
        # a float product overflows to inf where ** raises
        scales = {f"environment.{k}": getattr(env_spec, k) for k in ("d", "sigma_a", "tau")}
        big = {k: v for k, v in scales.items() if v is not None and math.isinf(v * v)}
        raise ConfigError(
            f"{' and '.join(big)} must square to a finite variance, got {', '.join(map(repr, big.values()))}"
        ) from None


def _check_env_length(template: TubeTemplate, n_list, env_spec: EnvironmentSpec) -> None:
    """Reject tubes whose environment, f_offset(max n) + max n steps, overflows the budget."""
    atoms = {"degenerate": len(env_spec.atoms or ()), "random_shift_bernoulli": 2}.get(env_spec.family, 0)
    step_bytes = _STEP_BYTES + _ATOM_BYTES * atoms
    n_max = max(n_list)
    try:
        steps = template.f_offset(n_max) + n_max
    except (OverflowError, ValueError):  # an infinite or nan offset
        steps = math.inf
    if steps > _MEMORY_BUDGET // step_bytes:
        raise ConfigError(
            f"tube.n_list, tube.f_coeff and tube.f_power give an environment of f_offset(max n) + max n "
            f"= {steps} steps; at most {_MEMORY_BUDGET // step_bytes} fit ({step_bytes} bytes per "
            f"step within a {_BUDGET})"
        )


def _check_grid_kernel(est: dict, env_spec: EnvironmentSpec, template: TubeTemplate, n_list) -> None:
    """Reject a Gaussian environment whose grid step kernel overflows the budget.

    `quench_dp.survival_grid` reaches 8 tau + max|m| from a node; with
    8 sigma_a for max|m| the kernel is widest at the smallest n, whose tube
    span over `estimator.grid_points` gives the finest grid.
    """
    if env_spec.family != "random_mean_gaussian" or est["method"] not in ("grid", "auto"):
        return
    n_min = min(n_list)
    lo, up = template.make(n_min).bounds_arrays()
    reach = (8.0 * env_spec.tau + 8.0 * env_spec.sigma_a) * est["grid_points"] / (up.max() - lo.min())
    taps = 2 * math.ceil(reach) + 3 if math.isfinite(reach) else math.inf
    if taps > _MEMORY_BUDGET // _TAP_BYTES:
        raise ConfigError(
            f"environment.sigma_a and environment.tau give a grid step kernel of {taps:.3g} taps at the "
            f"smallest tube n ({n_min}); at most {_MEMORY_BUDGET // _TAP_BYTES} fit ({_TAP_BYTES} bytes "
            f"per tap within a {_BUDGET}; lower estimator.grid_points)"
        )


def _build_tube(
    table: dict, env_spec: EnvironmentSpec
) -> tuple[TubeTemplate, tuple[int, ...], float | None, bool]:
    for key in ("alpha", "g", "h"):
        if key not in table:
            raise ConfigError(f"tube.{key} is required")
    if ("n" in table) == ("n_list" in table):
        raise ConfigError("tube needs exactly one of n or n_list")
    if "n" in table:
        n_list = [_int_at_least(table["n"], 1, "tube.n")]
    elif isinstance(table["n_list"], (list, tuple)) and table["n_list"]:
        n_list = [_int_at_least(n, 1, "tube.n_list") for n in table["n_list"]]
    else:
        raise ConfigError(f"tube.n_list must be a non-empty list of integers, got {table['n_list']!r}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"tube.n_list must be strictly increasing, got {n_list}")
    try:
        template = TubeTemplate(
            g=table["g"],
            h=table["h"],
            alpha=_number(table["alpha"], "tube.alpha"),
            start_window=_window(table.get("start_window"), "tube.start_window"),
            end_window=_window(table.get("end_window"), "tube.end_window"),
            xi_threshold=_number(table["r_n"], "tube.r_n") if table.get("r_n") is not None else None,
            f_coeff=_number(table.get("f_coeff", 1.0), "tube.f_coeff"),
            f_power=_number(table.get("f_power", 0.5), "tube.f_power"),
        )
        _check_env_length(template, n_list, env_spec)
        tubes = [template.make(n) for n in n_list]  # validates windows against boundaries
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"tube: {exc}") from exc
    x0 = _number(table["x0"], "tube.x0") if table.get("x0") is not None else None
    if x0 is not None and not math.isfinite(x0):
        raise ConfigError(f"tube.x0 must be finite, got {x0}")
    for tube in tubes:
        lo, up = tube.bounds_at(0)
        if x0 is not None and not lo < x0 < up:
            raise ConfigError(
                f"tube.x0 must be strictly inside the tube ({lo}, {up}) at n = {tube.n}, got {x0}"
            )
    sweep = _boolean(table.get("sweep_starts", False), "tube.sweep_starts")
    if x0 is not None and sweep:
        raise ConfigError("tube.x0 and tube.sweep_starts exclude each other: a start sweep sets its own starts")
    return template, tuple(n_list), x0, sweep


def validate(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping and build the model objects."""
    _check_keys(raw, _TOP_KEYS, "config")
    for req in ("environment", "tube"):
        if req not in raw:
            raise ConfigError(f"config.{req} table is required")
    _check_keys(raw["environment"], _ENV_KEYS, "environment")
    _check_keys(raw["tube"], _TUBE_KEYS, "tube")
    est = dict(_ESTIMATOR_DEFAULTS)
    if "estimator" in raw:
        _check_keys(raw["estimator"], _EST_KEYS, "estimator")
        est.update(raw["estimator"])
    if est["method"] not in ESTIMATORS:
        raise ConfigError(f"estimator.method: unknown method {est['method']!r}")
    gam = dict(_GAMMA_DEFAULTS)
    if "gamma" in raw:
        _check_keys(raw["gamma"], _GAMMA_KEYS, "gamma")
        gam.update(raw["gamma"])
    betas = gam["beta"] if isinstance(gam["beta"], (list, tuple)) else [gam["beta"]]
    gam["beta"] = [_number(b, "gamma.beta") for b in betas]
    if not all(0 <= b < math.inf for b in gam["beta"]):
        raise ConfigError(f"gamma.beta values must be finite and >= 0, got {gam['beta']}")
    _check_gamma(gam)
    gam["t"], gam["dt"] = float(gam["t"]), float(gam["dt"])
    out = dict(_OUTPUT_DEFAULTS)
    if "output" in raw:
        _check_keys(raw["output"], _OUT_KEYS, "output")
        out.update(raw["output"])
    if not (isinstance(out["dir"], str) and out["dir"]):
        raise ConfigError(f"output.dir must be a non-empty string, got {out['dir']!r}")
    for key in ("svg", "dump_path"):
        _boolean(out[key], f"output.{key}")

    env_spec = _build_env(raw["environment"])
    _check_moments(env_spec)
    template, n_list, x0, sweep = _build_tube(raw["tube"], env_spec)
    _check_effort(est, n_list)
    _check_grid_kernel(est, env_spec, template, n_list)
    seed = _int_at_least(raw.get("seed", 12345), 0, "seed")
    return ExperimentConfig(
        seed=seed,
        env_spec=env_spec,
        env_seed=_int_at_least(raw["environment"].get("seed", seed), 0, "environment.seed"),
        shared_env=_boolean(raw["environment"].get("shared", False), "environment.shared"),
        template=template,
        n_list=n_list,
        x0=x0,
        sweep_starts=sweep,
        estimator=est,
        gamma=gam,
        output=out,
        raw=raw,
    )


# the environment key that sets the fit's beta = sigma_a / sigma_q, by family
_BETA_KEYS = {"random_shift_bernoulli": "environment.d", "random_mean_gaussian": "environment.sigma_a"}


def check_fit_gamma(cfg: ExperimentConfig) -> None:
    """Reject a config whose gamma, sized at the beta = sigma_a/sigma_q at
    which ``fit`` and ``report`` estimate it when gamma.beta does not list
    it, overflows the memory budget; `validate` sizes it at gamma.beta only,
    as ``simulate`` and ``gamma`` never run another beta."""
    sa2, sq2 = moments(cfg.env_spec)
    beta = math.sqrt(sa2 / sq2)
    if beta > max(cfg.gamma["beta"], default=0.0):
        key = _BETA_KEYS[cfg.env_spec.family]
        _check_gamma_layout(cfg.gamma, beta, f" at the fit's beta = sigma_a/sigma_q = {beta:.6g} (from {key})")


def load_raw(source: str, overrides=(), seed: int | None = None) -> dict:
    """The raw config mapping of a YAML (or JSON) file or ``builtin:NAME``,
    with the ``--set`` overrides and then the master seed applied."""
    if source.startswith("builtin:"):
        raw = load_builtin(source[len("builtin:") :])
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: config must be a mapping")
    if overrides:
        raw = apply_overrides(raw, overrides)
    if seed is not None:
        raw["seed"] = seed
    return raw


def parse_override(item: str) -> tuple[list[str], object]:
    """Parse a --set KEY.PATH=VALUE override; values use YAML scalars."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like table.key=value")
    key, _, value = item.partition("=")
    path = [p for p in key.strip().split(".") if p]
    if not path:
        raise ConfigError(f"override {item!r} has an empty key")
    return path, yaml.safe_load(value)


def apply_overrides(raw: dict, items) -> dict:
    out = json.loads(json.dumps(raw))  # deep copy of plain data
    for item in items:
        path, value = parse_override(item)
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part} is not a table")
        node[path[-1]] = value
    return out


def builtin_config_names() -> list[str]:
    files = resources.files("tubewalk").joinpath("configs")
    return sorted(p.name[: -len(".yaml")] for p in files.iterdir() if p.name.endswith(".yaml"))


def load_builtin(name: str) -> dict:
    """Raw mapping of a packaged example config (by bare name)."""
    text = resources.files("tubewalk").joinpath("configs", f"{name}.yaml").read_text()
    return yaml.safe_load(text)
