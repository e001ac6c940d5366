"""Every name a module exports through __all__ exists."""
import importlib
import pkgutil

import pytest

import spolyreg

MODULES = ["spolyreg"] + [f"spolyreg.{m.name}"
                          for m in pkgutil.iter_modules(spolyreg.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
