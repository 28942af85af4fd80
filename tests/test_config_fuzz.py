"""Property test: `config.validate` returns a config or raises ConfigError.

Overrides of every schema key of the builtin configs are drawn from ints,
floats (nan and inf included), strings, bools, lists and None.  Whatever
they are, `validate` must either build an `ExperimentConfig` or refuse the
config with a `ConfigError` (which names the key); any other exception is
a traceback the CLI would show instead of its exit status 2.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(_BUILTINS)),
    overrides=st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), min_size=1, max_size=3),
)
def test_validate_returns_config_or_config_error(name, overrides):
    raw = copy.deepcopy(_BUILTINS[name])
    for path, value in overrides:
        node = raw
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = value
    try:
        cfg = validate(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
