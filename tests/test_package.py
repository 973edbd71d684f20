"""Tests for the package's public namespace."""

import importlib
import pkgutil

import pytest

import tgstatus
from tgstatus import finite_graph, model, ordinal, replacement, status

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
