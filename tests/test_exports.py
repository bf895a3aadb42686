"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import elliptic_dpp

MODULES = sorted(m.name for m in pkgutil.iter_modules(elliptic_dpp.__path__))


@pytest.mark.parametrize("name", ["elliptic_dpp"] + [f"elliptic_dpp.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"
