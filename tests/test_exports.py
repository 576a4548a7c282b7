"""Every name a module exports in __all__ exists; the package needs no numpy."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import thhforge

MODULES = [m.name for m in pkgutil.iter_modules(thhforge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"thhforge.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_src_does_not_import_numpy():
    imports = "; ".join(f"import thhforge.{name}" for name in MODULES)
    code = f"import sys; {imports}; assert 'numpy' not in sys.modules, 'numpy imported'"
    src = os.path.dirname(os.path.dirname(thhforge.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
