import importlib
import inspect
import pkgutil
import sys

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


def test_package_reexports_only_public_names():
    # a name retired from its module's __all__ but left in mxblock's imports
    # would linger on the package surface
    stray = [f"{obj.__module__}.{name}" for name, obj in vars(mxblock).items()
             if not name.startswith("_") and not inspect.ismodule(obj)
             and name not in getattr(sys.modules[obj.__module__], "__all__", ())]
    assert stray == []


# Parameters that perfbench's layer tracer reads by name, binding each
# traced call's arguments to its signature, to count blocks, bytes and
# macro trials. A rename would otherwise show only in a traced benchmark run
_TRACED_PARAMETERS = [("formats", "ceil_scale_array", "s_star"),
                      ("quantize", "qdq_views", "view"),
                      ("quantize", "block_view", "x"),
                      ("corrections", "mbs_qdq", "mode")]


def test_traced_parameters_exist():
    missing = [f"{module}.{function}({parameter})"
               for module, function, parameter in _TRACED_PARAMETERS
               if parameter not in inspect.signature(
                   getattr(importlib.import_module(f"mxblock.{module}"), function)).parameters]
    assert missing == []
