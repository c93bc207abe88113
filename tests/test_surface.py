"""The public surface: every exported name resolves, so none can linger,
and the package loads no third-party module."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import effvec

MODULES = sorted(info.name for info in pkgutil.iter_modules(effvec.__path__))


def test_package_names_resolve():
    assert [name for name in effvec.__all__ if not hasattr(effvec, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve(name):
    module = importlib.import_module(f"effvec.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _loaded_by_cli_import(names):
    """Which of ``names`` a fresh interpreter has loaded after ``import effvec.cli``."""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, effvec.cli; print([m for m in {names!r} if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_cli_import_leaves_numpy_unloaded():
    # A fresh interpreter: this one may have numpy loaded by another test.
    assert _loaded_by_cli_import(["numpy"]) == "[]\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # Both cost start-up time: inspect loads ast, dis and tokenize.
    assert _loaded_by_cli_import(["dataclasses", "inspect"]) == "[]\n"
