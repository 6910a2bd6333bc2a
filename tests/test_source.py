"""Layout rules of the library source: every import at module level, no
module reading another module's private (underscore) names, no lock or
process-global cache (neither ``threading`` nor ``functools.lru_cache`` or
``functools.cache``), and no module-level import that nothing in the module
reads (``__init__.py`` is exempt: it re-exports)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "whirlcurves"
MODULES = sorted(SRC.glob("*.py"))


FORBIDDEN = ("threading", "functools.lru_cache", "functools.cache")


def _forbidden(name):
    return any(name == f or name.startswith(f + ".") for f in FORBIDDEN)


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def violations(source):
    """(line, what) for each import below module level, each read of an
    imported module's private name, and each import or read of a forbidden
    name."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    modules = set()   # names that module-level imports bind to modules
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:   # from . import x
            modules |= {alias.asname or alias.name for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if id(node) not in top:
                found.append((node.lineno, "import below module level"))
            found += [(node.lineno, f"imports {alias.name}") for alias in node.names
                      if _private(alias.name.split(".")[-1])]
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            found += [(node.lineno, f"imports {prefix}{alias.name}") for alias in node.names
                      if _forbidden(prefix + alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and _root(node.value) in modules):
            found.append((node.lineno, f"reads {node.attr} of {_root(node.value)}"))
        elif isinstance(node, ast.Attribute) and _forbidden(_dotted(node)):
            found.append((node.lineno, f"reads {_dotted(node)}"))
    return found


def unread_imports(source):
    """(line, what) for each name a module-level import binds that nothing in
    the module reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(node.lineno, f"{name} is imported and never read")
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_at_top_and_reads_no_private_names(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text()) == []


def test_the_rules_catch_what_they_name():
    source = ("from . import synthesis\nimport numpy as np\nfrom .numerics import _LEG\n"
              "def f(curve):\n    from .whirl import intrinsic_residual\n"
              "    curve._ratio(0.0)\n    np.__name__\n    return synthesis._synthesized\n")
    assert violations(source) == [(3, "imports _LEG"), (5, "import below module level"),
                                  (8, "reads _synthesized of synthesis")]
    source = ("import threading\nimport functools\nfrom functools import lru_cache, reduce\n"
              "from threading import Lock\n@functools.cache\ndef f():\n    pass\n")
    assert violations(source) == [(1, "imports threading"), (3, "imports functools.lru_cache"),
                                  (4, "imports threading.Lock"), (5, "reads functools.cache")]
    source = ("from typing import Callable, Union\nimport numpy as np\nimport os.path\n"
              "def f(g: Callable):\n    return np.ndim(g), os.sep\n")
    assert unread_imports(source) == [(1, "Union is imported and never read")]
