import importlib
import pkgutil

import nhsq


def test_every_export_exists():
    # A deletion that leaves a stale name in some module's __all__ fails here.
    for m in pkgutil.iter_modules(nhsq.__path__):
        module = importlib.import_module(f"nhsq.{m.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"nhsq.{m.name}.__all__ names undefined {missing}"
    exec("from nhsq import *", {})
