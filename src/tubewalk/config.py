"""Experiment configuration: schema, validation, and object builders.

A config file has up to five tables (``environment``, ``tube``,
``estimator``, ``gamma``, ``output``) plus a top-level master ``seed``.
Unknown keys are rejected anywhere.  A ``.json`` file loads with `json`,
which lets a consolidated report's embedded config be re-run directly;
any other file is YAML.  The builtins ship as JSON, and a ``--set`` value
skips YAML where `json` provably reads it the same way
(`parse_override`), so PyYAML is imported only for a YAML file or for an
override that needs it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from importlib import resources

from .env import _ATOM_BYTES, _STEP_BYTES, EnvironmentSpec, moments
from .gamma import _REPLICA_BATCH, BARRIER_SHIFT, _layout, estimate_gamma
from .mc import _PATH_BYTES
from .propagate import _FLOAT_BYTES, _GRID_NODE_BYTES, _MEMORY_BUDGET, _NODE_BYTES, _TAP_BYTES, _atom_nodes
from .propagate import _grid_spacing, _kernel_layout, _run_bytes
from .rate import ESTIMATORS, make_estimator, theorem_check
from .results import Record
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


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad key."""


def _within_budget(count, unit_bytes: int, unit: str, keys: str, where: str = "") -> None:
    """Refuse `count` units of `unit_bytes` bytes, set by `keys` and held `where`, past the memory
    budget (`propagate._MEMORY_BUDGET`), which each run holds alone: runs are sequential."""
    cap = _MEMORY_BUDGET // unit_bytes
    if count > cap:
        shown = f"{count:.6g}" if isinstance(count, float) else count
        raise ConfigError(
            f"{keys} give {shown} {unit}s{where}; at most {cap} fit ({unit_bytes} bytes per {unit} "
            f"within a {_MEMORY_BUDGET >> 30} GiB memory budget)"
        )


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
        _within_budget(est[key], _PATH_BYTES, "path", f"estimator.{key}")
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
    where = f" of W increments, {batch} replicas at a time"
    _within_budget(steps, _FLOAT_BYTES * batch, "step", "gamma.t / gamma.dt", where)
    _check_gamma_layout(gam, max(gam["beta"], default=0.0))


def _check_gamma_layout(gam: dict, beta: float, at: str = "") -> None:
    """Reject a gamma run at drift `beta` whose layout overflows the budget;
    `at` says where `beta` comes from."""
    batch, points = min(gam["replicas"], _REPLICA_BATCH), gam["grid_points"]
    keys = "gamma.dt and gamma.grid_points"
    # the padded row holds at least grid_points entries a replica, and its
    # padding covers drifts beta * dW up to the kernel's own reach, |dW| <= 8
    # sqrt(dt), in cells under 1/grid_points; past the bound the layout is
    # not sized (it may not fit a float)
    drift = beta * 8.0 * math.sqrt(gam["dt"])
    row = points if points > _MEMORY_BUDGET // (_FLOAT_BYTES * batch) else points * (1.0 + drift)
    _within_budget(row, _FLOAT_BYTES * batch, "column", keys, f" of {batch} padded rows{at}")
    _, _, n, band = _layout(gam["dt"], points, max_drift=drift)
    where = f" for {batch} replicas at once (the band's cut operator, the padded rows, a block of step kernels){at}"
    _within_budget(_run_bytes(points, n, band, batch) // _FLOAT_BYTES, _FLOAT_BYTES, "float", keys, where)


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


class ExperimentConfig(Record):
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
    n_max = max(n_list)
    try:
        steps = template.f_offset(n_max) + n_max
    except (OverflowError, ValueError):  # an infinite or nan offset
        steps = math.inf
    keys = "tube.n_list, tube.f_coeff and tube.f_power"
    _within_budget(steps, _STEP_BYTES + _ATOM_BYTES * atoms, "step", keys, " of environment (f_offset(max n) + max n)")


def _check_grid_kernel(est: dict, env_spec: EnvironmentSpec, template: TubeTemplate, n_list) -> None:
    """Reject a Gaussian environment whose grid step kernel or padded row overflows the budget.

    `quench_dp.survival_grid` lays a pass out by `propagate._kernel_layout`; with
    8 sigma_a for the largest |step mean| the kernel is widest, and the row
    that holds the `estimator.grid_points` nodes and the kernel's reach
    longest, at the smallest n, whose tube span gives the finest grid.
    """
    if env_spec.family != "random_mean_gaussian" or est["method"] not in ("grid", "auto"):
        return
    n_min = min(n_list)
    lo, up = template.make(n_min).extent()
    dx = (up - lo) / est["grid_points"]
    try:
        reach, length, _ = _kernel_layout(env_spec.tau, 8.0 * env_spec.sigma_a, dx, est["grid_points"])
    except OverflowError:  # a reach (or its band) past a float's range, far over the cap
        reach = length = math.inf
    keys = "environment.sigma_a and environment.tau, with estimator.grid_points,"
    _within_budget(2 * reach + 1, _TAP_BYTES, "tap", keys, f" in the grid's step kernel at the smallest n ({n_min})")
    keys = "estimator.grid_points, with tube.g, tube.h and tube.alpha, environment.sigma_a and environment.tau,"
    _within_budget(length, _GRID_NODE_BYTES, "node", keys, f" in the grid's padded row at the smallest n ({n_min})")


def _check_atom_nodes(est: dict, env_spec: EnvironmentSpec, template: TubeTemplate, n_list, x0, sweep) -> None:
    """Reject an atom law whose atom pass lays out more nodes than the budget holds, counted by
    `propagate._atom_nodes` at every start a run takes: the exact DP's on the law's lattice
    (`dp`, and `auto` on a lattice law), or the grid's at `propagate._grid_spacing` (`grid`, and
    `auto` off every lattice)."""
    q, method = env_spec.lattice_q, est["method"]
    exact = method in ("dp", "auto") and q is not None
    if env_spec.family == "random_mean_gaussian" or not (exact or method in ("grid", "auto")):
        return
    law = "environment.atoms" if env_spec.family == "degenerate" else "environment.d and environment.lattice_q"
    keys = f"tube.g, tube.h, tube.alpha and tube.n_list with {law}" + ("" if exact else ", at estimator.grid_points,")
    for n in n_list:
        tube = template.make(n)
        lo, up = tube.extent()
        starts = tube.start_points() if sweep else [tube.default_x0() if x0 is None else x0]
        try:
            dx = 1.0 / q if exact else _grid_spacing(env_spec, up - lo, est["grid_points"])
            nodes = max(_atom_nodes(q, dx, lo, up, x)[3] for x in starts)
        except (OverflowError, ValueError):  # a bound or a span past a float's range
            nodes = math.inf
        where = f" in the {'exact DP' if exact else 'grid'}'s atom pass at n = {n}"
        _within_budget(nodes, _NODE_BYTES, "node", keys, where)


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
    _check_atom_nodes(est, env_spec, template, n_list, x0, sweep)
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


def _yaml(text, where: str):
    """`yaml.safe_load` of `text`, a YAML error raised as a ConfigError that names `where`."""
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_raw(source: str, overrides=(), seed: int | None = None) -> dict:
    """The raw config mapping of a YAML or JSON file or ``builtin:NAME``,
    with the ``--set`` overrides and then the master seed applied."""
    if source.startswith("builtin:"):
        raw = load_builtin(source[len("builtin:") :])
    else:
        with open(source, "r", encoding="utf-8") as fh:
            if not source.endswith(".json"):
                raw = _yaml(fh, source)
            else:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{source}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: config must be a mapping")
    if overrides:
        raw = apply_overrides(raw, overrides)
    if seed is not None:
        raw["seed"] = seed
    return raw


# the bare words YAML reads as booleans or null, in lower case
_YAML_WORDS = {"yes", "no", "true", "false", "on", "off", "null"}


def _refuse(literal: str):
    raise ValueError(f"{literal} is read differently by YAML")


def _dotted_float(literal: str) -> float:
    """A JSON float literal that YAML reads as a float too: one with a dot (YAML reads 1e-05 as a string)."""
    return float(literal) if "." in literal else _refuse(literal)


def _plain_value(text: str) -> tuple[bool, object]:
    """(True, the value YAML reads `text` as) where that is certain without YAML, else (False, None).

    Two forms qualify: an ASCII identifier that is not a YAML boolean or null
    word, which YAML reads as that string; and printable ASCII text that
    `json` reads and re-dumps compactly to itself, with no backslash (the
    escapes differ), a dot in every float and no NaN or Infinity.
    """
    if text.isascii() and text.isidentifier():
        return text.lower() not in _YAML_WORDS, text
    if "\\" in text or not (text.isascii() and text.isprintable()):
        return False, None
    try:
        value = json.loads(text, parse_float=_dotted_float, parse_constant=_refuse)
    except ValueError:
        return False, None
    return json.dumps(value, separators=(",", ":")) == text, value


def parse_override(item: str) -> tuple[list[str], object]:
    """Parse a --set KEY.PATH=VALUE override; the value is read as YAML, by
    `json` where that reads it the same way (`_plain_value`)."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like table.key=value")
    key, _, text = item.partition("=")
    path = [p for p in key.strip().split(".") if p]
    if not path:
        raise ConfigError(f"override {item!r} has an empty key")
    plain, value = _plain_value(text)
    if not plain:
        value = _yaml(text, f"override {item!r}")
    return path, value


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
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_builtin(name: str) -> dict:
    """Raw mapping of a packaged example config (by bare name)."""
    return json.loads(resources.files("tubewalk").joinpath("configs", f"{name}.json").read_text(encoding="utf-8"))
