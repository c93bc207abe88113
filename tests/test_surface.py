"""The public surface: every exported name resolves, so none can linger."""

import importlib
import pkgutil

import pytest

import effvec

MODULES = sorted(info.name for info in pkgutil.iter_modules(effvec.__path__))


def test_package_names_resolve():
    assert [name for name in effvec.__all__ if not hasattr(effvec, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve(name):
    module = importlib.import_module(f"effvec.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
