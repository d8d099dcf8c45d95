import importlib
import pkgutil

import pytest

import mxblock

_MODULES = sorted(m.name for m in pkgutil.iter_modules(mxblock.__path__))


def test_modules_found():
    assert {"formats", "quantize", "decompose", "corrections", "analysis",
            "tensorstore", "cli"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # ``from mxblock.<module> import *`` and only there
    module = importlib.import_module(f"mxblock.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), exported
    assert [n for n in exported if not hasattr(module, n)] == []
