"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import fnls

PACKAGE = Path(fnls.__file__).parent
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
