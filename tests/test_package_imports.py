"""Every module-level import in the package is used by its module, and every
top-level function and class of the package is reached from src/ or bench/."""

import ast
from pathlib import Path

import pytest

import fnls

PACKAGE = Path(fnls.__file__).parent
REPO = Path(__file__).resolve().parents[1]
# The __init__ modules import to re-export, so they are left out.
MODULES = sorted(
    path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import x as y` binds y.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_sees_plain_from_and_dotted_imports():
    source = (
        "import os\nimport numpy as np\nimport a.b\nfrom .x import y, z as w\n"
        "def f():\n    return np.pi + y + a.b.c\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "w")]


def unreached_names(package_sources, user_sources):
    """Top-level functions and classes of package_sources that no user source reads.

    A name is reached where a user source reads it as a name or an attribute;
    an import binds it without reading it, so a re-export does not count.
    """
    defined = {
        node.name
        for source in package_sources
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    read = set()
    for source in user_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


# Criterion 10's measurement, which only its tests call.
UNREACHED_ON_PURPOSE = ["verify_error_symbol_bound"]


def test_every_package_name_is_reached_from_src_or_bench():
    users = [path.read_text() for root in ("src", "bench") for path in (REPO / root).rglob("*.py")]
    package = [path.read_text() for path in PACKAGE.rglob("*.py")]
    assert unreached_names(package, users) == UNREACHED_ON_PURPOSE


def test_unreached_names_sees_a_helper_that_only_a_re_export_names():
    package = ["class Kept:\n    pass\ndef used():\n    pass\ndef helper():\n    used()\n"]
    users = package + ["from .m import Kept, helper\n__all__ = ['helper']\nx = m.Kept\n"]
    assert unreached_names(package, users) == ["helper"]
