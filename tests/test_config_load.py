"""Loading configs without PyYAML: the JSON builtins, the override reader, and the import guard."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import tubewalk.cli as cli
from tubewalk.config import ConfigError, config_hash, load_builtin, parse_override

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(cli.__file__).resolve().parents[1])

# The hash of each builtin's raw mapping; the same as when the builtins were YAML files.
BUILTIN_HASHES = {
    "degenerate-rademacher": "21f3730781f26b81",
    "random-mean-gaussian": "3401ca3a11b32476",
    "random-shift-bernoulli": "da2c8e691c39aad0",
}

# Values where YAML and JSON part ways, or nearly: exponents without a dot,
# which YAML reads as strings, and with one, which it reads as floats; other
# bases, separators and sexagesimals; YAML's NaN, infinity, null, boolean and
# empty forms; quoting, escapes and non-printing text; flow collections.
EDGE_VALUES = [
    "1e3", "1.0e5", "1.0e+5", "1e-05", "1e+16", "1.5e-05", "1.5e+16", ".5", "-0", "-0.0", "0x10",
    "010", "1_000", "1:30", "NaN", "nan", ".inf", "-.inf", "Infinity", "~", "", " ", "yes", "On",
    "NULL", "True", "y", "n", "_", "None", '"a"', '"yes"', '"a b"', '"\\u00e9"', '"\\/"', '"\x7f"',
    '"é"', "[1, 2]", "[1,2]", "[]", "{}", "{a: 1}", '{"a":1}', '{"a":1,"a":2}', '[true,null]',
    "12345678901234567890", "[1,",
]

_KEY_VALUE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*=(.*)", re.DOTALL)
_SET_ARG = re.compile(r"""--set[ =](?:'([^']*)'|"([^"]*)"|(\S+))""")


def _override_corpus() -> list[str]:
    """Every --set value written in the tests, the CI workflow, the README, the demos and the
    benchmark's workload table, and the edge values: KEY=VALUE string constants of the Python
    files, and the arguments of ``--set`` in the text files."""
    values = set(EDGE_VALUES)
    for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py"), ROOT / "perfbench" / "checks.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = _KEY_VALUE.fullmatch(node.value)
                if match:
                    values.add(match.group(1))
    for path in [ROOT / "README.md", *ROOT.glob(".github/workflows/*.yml")]:
        for match in _SET_ARG.finditer(path.read_text(encoding="utf-8")):
            arg = next(group for group in match.groups() if group is not None)
            if "=" in arg:
                values.add(arg.partition("=")[2])
    return sorted(values)


def _typed(value):
    """`value` with the type of every part spelled out, so 1, 1.0 and True differ, and -0.0 and 0.0."""
    if isinstance(value, list):
        return ["list", [_typed(v) for v in value]]
    if isinstance(value, dict):
        return ["dict", [[_typed(k), _typed(v)] for k, v in value.items()]]
    return [type(value).__name__, repr(value)]


def test_override_corpus_covers_the_written_overrides():
    corpus = _override_corpus()
    # one value from each source: a test, the CI workflow, the README, a demo and the workload table
    for value in ("abc", "[[0,1.0],[1,2.0]]", "12", "[3200,6400,12800,25600,51200]", "splitting"):
        assert value in corpus


@pytest.mark.parametrize("value", _override_corpus())
def test_override_reads_as_yaml(value):
    try:
        expected = _typed(yaml.safe_load(value))
    except yaml.YAMLError:
        with pytest.raises(ConfigError, match="override"):
            parse_override(f"table.key={value}")
        return
    path, got = parse_override(f"table.key={value}")
    assert path == ["table", "key"]
    assert _typed(got) == expected


@pytest.mark.parametrize("name", sorted(BUILTIN_HASHES))
def test_builtin_config_hash_pinned(name):
    assert config_hash(load_builtin(name)) == BUILTIN_HASHES[name]


def test_malformed_yaml_config_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("tube: {alpha: 0.3\nseed: [1,\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err


def test_malformed_json_config_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"seed": 1,')
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err


def test_malformed_override_names_the_override(tmp_path, capsys):
    args = ["simulate", "--config", "builtin:random-shift-bernoulli", "--set", "tube.n_list=[1,"]
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tube.n_list=[1," in err


_WITHOUT_YAML = """
import json
import sys

sys.modules["yaml"] = None  # import yaml raises ImportError
import tubewalk.cli as cli

code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": [m for m in ("csv", "fractions", "yaml") if sys.modules.get(m)]}))
"""


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.WORKLOADS


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_workload_runs_without_yaml_csv_or_fractions(name, tmp_path):
    # every benchmark workload reads its builtin and its overrides without PyYAML,
    # and loads neither csv nor fractions
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    args = [*_workloads()[name].args, "--seed", "0", "--out", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_YAML, json.dumps(args)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
