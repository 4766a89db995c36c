"""Every name a ``repro`` module exports through ``__all__`` resolves,
and every public name is read somewhere.

A deletion that leaves a stale export behind (a class removed from a
module but still listed in its package's ``__all__``) breaks
``from repro.x import *`` and misleads readers; the first test walks
every module and catches it.  The second catches the opposite leftover:
a public function, class or method that no code, test, example,
benchmark or perfbench script reads any more.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
READER_DIRS = ("src", "tests", "examples", "benchmarks", "perfbench")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _public_definitions():
    """Yield ``(where, name)`` for every public top-level function or
    class and every public method of a top-level class in ``src/repro``."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        where = path.relative_to(ROOT / "src").with_suffix("").as_posix()
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            yield f"{where}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCS) and not item.name.startswith("_"):
                        yield f"{where}:{node.name}.{item.name}", item.name


def _all_strings(tree):
    """The string constants of every ``__all__`` assignment in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                yield from (c for c in ast.walk(node) if isinstance(c, ast.Constant))


def _reads():
    """Every identifier read anywhere a caller can live: a loaded Name or
    Attribute, an imported name (``__init__`` re-exports aside) or an
    identifier-shaped string constant (``__all__`` entries aside), which
    covers ``set_defaults(render="...")`` and the tracer's patch names."""
    reads = set()
    for top in READER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            skip = {id(c) for c in _all_strings(tree)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    reads.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    reads.update(alias.name for alias in node.names)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier() and id(node) not in skip):
                    reads.add(node.value)
    return reads


def test_every_public_name_is_read_somewhere():
    reads = _reads()
    unread = [where for where, name in _public_definitions() if name not in reads]
    assert unread == [], "public but read nowhere:\n" + "\n".join(unread)
