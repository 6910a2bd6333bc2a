"""Layout rules of the library source: every import at module level, and no
module reading another module's private (underscore) names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "whirlcurves"
MODULES = sorted(SRC.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def violations(source):
    """(line, what) for each import below module level and each read of an
    imported module's private name."""
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
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and _root(node.value) in modules):
            found.append((node.lineno, f"reads {node.attr} of {_root(node.value)}"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_at_top_and_reads_no_private_names(path):
    assert violations(path.read_text()) == []


def test_the_rules_catch_what_they_name():
    source = ("from . import synthesis\nimport numpy as np\nfrom .numerics import _LEG\n"
              "def f(curve):\n    from .whirl import intrinsic_residual\n"
              "    curve._ratio(0.0)\n    np.__name__\n    return synthesis._synthesized\n")
    assert violations(source) == [(3, "imports _LEG"), (5, "import below module level"),
                                  (8, "reads _synthesized of synthesis")]
