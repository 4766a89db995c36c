"""Every name a ``repro`` module exports through ``__all__`` resolves.

A deletion that leaves a stale export behind (a class removed from a
module but still listed in its package's ``__all__``) breaks
``from repro.x import *`` and misleads readers; this walks every module
and catches it.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    modules = list(_modules())
    assert {"repro.sim.core", "repro.machine.node", "repro.apps.engines"} <= {
        module.__name__ for module in modules
    }
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
