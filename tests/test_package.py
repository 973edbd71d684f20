"""Tests for the package's public namespace."""

import importlib
import json
import pkgutil

import pytest

import tgstatus
from tgstatus import finite_graph, model, ordinal, replacement, status

from helpers import run_fresh, run_fresh_cli

MODULES = sorted(info.name for info in pkgutil.iter_modules(tgstatus.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_reexported(name):
    module = importlib.import_module(f"tgstatus.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if n not in tgstatus.__all__] == []
    for n in exported:
        assert getattr(tgstatus, n) is getattr(module, n)


def test_package_all_names_exist():
    assert [n for n in tgstatus.__all__ if not hasattr(tgstatus, n)] == []


def test_package_all_is_the_union_of_module_exports():
    modules = (finite_graph, model, ordinal, replacement, status)
    assert len(tgstatus.__all__) == len(set(tgstatus.__all__))
    expected = {"__version__"}.union(*(module.__all__ for module in modules))
    assert set(tgstatus.__all__) == expected


def test_package_all_keeps_module_order():
    modules = (finite_graph, model, ordinal, replacement, status)
    assert tgstatus.__all__ == [n for module in modules for n in module.__all__] + ["__version__"]


FINITE_LAYER = ["tgstatus", "tgstatus.cli", "tgstatus.finite_graph"]


def test_finite_commands_load_only_the_finite_layer():
    codes, loaded, _ = run_fresh_cli(
        ["verify-ejs", "--max-p", "3"], ["extremal", "--p", "4", "--q", "4"]
    )
    assert codes == [0, 0]
    assert loaded == FINITE_LAYER


def test_transfinite_command_loads_every_module():
    codes, loaded, _ = run_fresh_cli(["status", "sample_graphs/g1.json"])
    assert codes == [0]
    assert loaded == ["tgstatus", *(f"tgstatus.{name}" for name in MODULES)]
    assert len(loaded) == 7


LAZY_NAMES = """
import json, sys
import tgstatus

def loaded():
    return sorted(name for name in sys.modules if name.startswith("tgstatus"))

seen = {"import": loaded()}
# A module loaded by a plain import binds its exports in the package as
# it loads, so a later patch of the module does not reach the package.
import tgstatus.replacement as replacement
original = replacement.build_replacement
replacement.build_replacement = None
seen["bound_at_load"] = tgstatus.build_replacement is original
seen["model"] = tgstatus.model.__name__
seen["status_report"] = tgstatus.status_report.__module__
try:
    tgstatus.nope
except AttributeError as exc:
    seen["nope"] = str(exc)
star = {}
exec("from tgstatus import *", star)
seen["star"] = sorted(name for name in star if name != "__builtins__")
seen["all"] = tgstatus.__all__
seen["dir"] = set(tgstatus.__all__) <= set(dir(tgstatus))
print(json.dumps(seen))
"""


def test_transfinite_names_load_on_first_use():
    done = run_fresh(LAZY_NAMES)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] == ["tgstatus", "tgstatus.finite_graph"]
    assert seen["bound_at_load"] is True
    assert seen["model"] == "tgstatus.model"
    assert seen["status_report"] == "tgstatus.status"
    assert seen["nope"] == "module 'tgstatus' has no attribute 'nope'"
    assert seen["all"] == tgstatus.__all__
    assert seen["star"] == sorted(tgstatus.__all__)
    assert seen["dir"] is True
