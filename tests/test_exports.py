"""Every name a module exports in __all__ exists; the package needs no numpy,
and importing the CLI loads neither dataclasses, argparse nor the acceptance
suite."""

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


def test_cli_import_stays_cold_start_cheap():
    # every CLI call pays this import: no dataclasses (nor the inspect it
    # pulls in), no argparse (nor its gettext), and the acceptance suite only
    # under verify
    heavy = ["dataclasses", "inspect", "argparse", "gettext", "thhforge.acceptance"]
    code = (f"import sys, thhforge.cli; loaded = [m for m in {heavy} if m in sys.modules]; "
            "assert not loaded, loaded")
    src = os.path.dirname(os.path.dirname(thhforge.__file__))
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
