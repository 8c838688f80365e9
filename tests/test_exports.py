"""Every name a module lists in ``__all__`` resolves, so that
``from module import *`` works and no moved function lingers there."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import guiseq

# ``guiseq.__main__`` runs the command line when imported.
MODULES = ["guiseq"] + [
    f"guiseq.{info.name}" for info in pkgutil.iter_modules(guiseq.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
