"""Property tests: `config.validate` returns a config or raises ConfigError,
and ``simulate`` runs to an exit status on what it returns.

Overrides of every schema key of the builtin configs are drawn from ints,
floats (nan and inf included), strings, bools, lists and None.  Whatever
they are, `validate` must either build an `ExperimentConfig` or refuse the
config with a `ConfigError` (which names the key); any other exception is
a traceback the CLI would show instead of its exit status 2.  A config it
accepts, made cheap (see `_cheap`), must then run ``tubewalk simulate`` to
an exit status, not to a traceback.
"""

import copy
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
import yaml

import tubewalk.cli as cli
from tubewalk import config
from tubewalk.config import ConfigError, ExperimentConfig, builtin_config_names, load_builtin, validate

_KEYS = sorted(
    [("seed",)]
    + [(table, key) for table, keys in (
        ("environment", config._ENV_KEYS),
        ("tube", config._TUBE_KEYS),
        ("estimator", config._EST_KEYS),
        ("gamma", config._GAMMA_KEYS),
        ("output", config._OUT_KEYS),
    ) for key in keys]
)
_BUILTINS = {name: load_builtin(name) for name in builtin_config_names()}

_NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=True, allow_infinity=True))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=6))
_VALUES = st.one_of(
    _SCALARS,
    st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)), max_size=4),
    # shaped like atoms, breakpoints and windows, so the numbers reach the models
    st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=1, max_size=3),
)


def _overridden(name, overrides) -> dict:
    raw = copy.deepcopy(_BUILTINS[name])
    for path, value in overrides:
        node = raw
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = value
    return raw


_DRAWS = dict(
    name=st.sampled_from(sorted(_BUILTINS)),
    overrides=st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**_DRAWS)
def test_validate_returns_config_or_config_error(name, overrides):
    try:
        cfg = validate(_overridden(name, overrides))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


_SCALE = 100.0  # largest tube bound or step size a cheap run takes


def _cheap(raw: dict, cfg: ExperimentConfig) -> dict | None:
    """`raw` with its effort cut to a small run, or None when its sizes are
    too large for one (validation alone covers those)."""
    raw = copy.deepcopy(raw)
    tube, est = raw["tube"], raw.setdefault("estimator", {})
    if max(cfg.n_list) > 64:
        tube.pop("n", None)
        tube["n_list"] = [8, 16, 32]
    if cfg.template.f_offset(64) > 1000:
        tube["f_coeff"], tube["f_power"] = 1.0, 0.5
    for key, cap in (("particles", 200), ("replicas", 200), ("grid_points", 100)):
        est[key] = min(cfg.estimator[key], cap)
    est["checkpoints"] = min(cfg.estimator["checkpoints"], 4)
    spec = cfg.env_spec
    sizes = [abs(v) for pts in (cfg.template.g, cfg.template.h) for _, v in pts]
    sizes += [abs(v) for v in (spec.d, spec.sigma_a, spec.tau) if v is not None]
    sizes += [abs(p) for p, _ in spec.atoms or ()]
    if max(sizes) > _SCALE or (spec.lattice_q or 1) > 1000:
        return None
    out = raw.setdefault("output", {})
    if isinstance(out.get("dir"), str) and (os.path.isabs(out["dir"]) or ".." in out["dir"]):
        out["dir"] = "out"  # stay inside the run's own directory
    return raw


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**_DRAWS)
def test_simulate_exits_with_a_status_on_accepted_configs(name, overrides):
    try:
        cfg = validate(_overridden(name, overrides))
    except ConfigError:
        return
    raw = _cheap(cfg.raw, cfg)
    if raw is None:
        return
    try:
        validate(raw)
    except ConfigError:
        return
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh)
        os.chdir(tmp)
        try:
            code = cli.main(["simulate", "--config", path])
        finally:
            os.chdir(here)
    assert code in (0, 1, 2)
