import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parents[1]
                             / "src" / "hypcmc").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree):
    """The names a module imports and never reads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # no linter is at hand, so the suite checks that every imported name
    # of a library module is used
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nimport numpy as np\nfrom a import b, c\n"
                     "np.sqrt(c)\n")
    assert _unused_imports(tree) == ["math", "b"]
