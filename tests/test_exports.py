"""Every name a module exports in __all__ exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import thhforge

MODULES = [m.name for m in pkgutil.iter_modules(thhforge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"thhforge.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
