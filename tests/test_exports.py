import importlib
import pkgutil

import pytest

import geomseries

MODULES = ["geomseries"] + [
    f"geomseries.{info.name}" for info in pkgutil.iter_modules(geomseries.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
