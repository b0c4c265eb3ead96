"""Each peg3d module's ``__all__`` names exactly what the module defines publicly."""

import importlib
import inspect
import pkgutil

import pytest

import peg3d

MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(peg3d.__path__, "peg3d.")
    if not name.rpartition(".")[2].startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == [], "__all__ names a missing object"
    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == name
    }
    assert sorted(defined - set(exported)) == [], "public definition missing from __all__"


def test_package_exports_the_rule_firing_api():
    # fire's Firing result is part of the API that callers of RuleBase.fire see.
    fuzzy = importlib.import_module("peg3d.fuzzy")
    assert [n for n in fuzzy.__all__ if getattr(peg3d, n, None) is not getattr(fuzzy, n)] == []
