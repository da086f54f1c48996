import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import nhsq

ROOT = Path(__file__).resolve().parent.parent

# Exported names that nothing in src/nhsq or demos reads, each kept for a reason.
UNREAD_EXPORTS = {
    "phi_v_antiderivative",  # a perfbench tracer target, as long as the tracer binds by identity
    "ActiveRegion",  # what CantorKernel.locate, also a tracer target, returns
    "vertical_value",  # V f(x), the paper's vertical square function at a point
}


def test_every_export_exists():
    # A deletion that leaves a stale name in some module's __all__ fails here.
    for m in pkgutil.iter_modules(nhsq.__path__):
        module = importlib.import_module(f"nhsq.{m.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"nhsq.{m.name}.__all__ names undefined {missing}"
    exec("from nhsq import *", {})


def _definition(tree, name):
    """The top-level statement of tree that binds name, or None."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _reads(node) -> Counter:
    """How often node loads each name and attribute name."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_every_export_is_read():
    # The library is what the CLI and demos call: every name in a module's
    # __all__ is read by some module of src/nhsq or some demo, outside its own
    # definition.  The __all__ strings and the package's re-exports
    # (import aliases) are not reads.
    files = sorted((ROOT / "src" / "nhsq").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    exported, unread = set(), []
    for m in pkgutil.iter_modules(nhsq.__path__):
        tree = trees[ROOT / "src" / "nhsq" / f"{m.name}.py"]
        for name in getattr(importlib.import_module(f"nhsq.{m.name}"), "__all__", ()):
            exported.add(name)
            own = _definition(tree, name)
            if reads[name] == (_reads(own)[name] if own else 0):
                unread.append(f"nhsq.{m.name}.{name}")
    assert UNREAD_EXPORTS <= exported
    assert [n for n in unread if n.rsplit(".", 1)[1] not in UNREAD_EXPORTS] == []
