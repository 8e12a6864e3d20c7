import importlib
import pkgutil

import pytest

import claimorder

MODULES = sorted(m.name for m in pkgutil.iter_modules(claimorder.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"claimorder.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from claimorder.{name} import *", namespace)
    assert set(exported) <= set(namespace)
