"""Module layering and the docs' names: every private name one tubewalk module
reads from another comes from `propagate`, and every backticked private
``module._name`` in the README and the sources names an attribute of that
module."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tubewalk"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# `config` sizes each run from byte counts and layouts that live beside the
# estimators they size; ROADMAP item 8 (one plan per pass) moves them.
ALLOWED = {
    ("config", "env", "_ATOM_BYTES"),
    ("config", "env", "_STEP_BYTES"),
    ("config", "gamma", "_REPLICA_BATCH"),
    ("config", "gamma", "_layout"),
    ("config", "mc", "_PATH_BYTES"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(module: str) -> list[tuple[str, str, str]]:
    """(module, source, name): each private name `module` imports from, or reads
    on, another tubewalk module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = {}  # local name -> the tubewalk module it is bound to
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .m import _x
                reads += [(module, node.module, alias.name) for alias in node.names if _private(alias.name)]
            else:  # from . import m as x
                imported.update({alias.asname or alias.name: alias.name for alias in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and _private(node.attr):
            if node.value.id in imported:  # m._x
                reads.append((module, imported[node.value.id], node.attr))
    return reads


def test_private_names_come_from_propagate():
    reads = {read for module in MODULES for read in _private_reads(module) if read[1] != "propagate"}
    assert reads == ALLOWED


def test_propagate_imports_only_results():
    # at run time: the estimators' types appear in its annotations only
    tree = ast.parse((SRC / "propagate.py").read_text())
    assert {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1} == {"results"}


def test_no_two_modules_define_the_same_name():
    owners = {}
    for module in MODULES:
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners.setdefault(node.name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


# A private name in backticks: `module._name`, `module._name`'s, `module._name(...)`
DOC_NAME = re.compile(r"`(" + "|".join(MODULES) + r")\.(_\w+)[^`\n]*`")


def test_private_names_in_the_docs_resolve():
    texts = [ROOT / "README.md", *sorted(SRC.glob("*.py"))]
    names = {match for path in texts for match in DOC_NAME.findall(path.read_text())}
    missing = sorted(
        f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(f"tubewalk.{module}"), name)
    )
    assert names and missing == []
