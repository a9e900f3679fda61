"""The package's exported names: each module's ``__all__`` and the names
that ``trivalent`` loads from its module on first use."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import trivalent

MODULES = sorted(info.name for info in pkgutil.iter_modules(trivalent.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"trivalent.{name}")
    assert hasattr(module, "__all__"), name
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_lazy_names_resolve_to_their_module_objects():
    assert set(trivalent._LAZY) <= set(MODULES)
    for module_name, names in trivalent._LAZY.items():
        module = importlib.import_module(f"trivalent.{module_name}")
        for name in names:
            assert hasattr(module, name), (module_name, name)
            assert getattr(trivalent, name) is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        trivalent.no_such_name
