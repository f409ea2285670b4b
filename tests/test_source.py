import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypcmc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def _private_definitions(tree):
    """The private names a module defines at its top level, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read_names(tree):
    """The names a module reads: loaded names and attributes, and the
    names it imports from other modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def _unread_private_names(trees):
    """(module, name) for each private top-level name of the modules
    ``trees`` (module name -> ast) that none of them reads."""
    read = set().union(*map(_read_names, trees.values()))
    return [(module, name) for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]


def test_no_unread_private_names():
    # a private function, class or constant that no module of the
    # package reads is code no path executes
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(trees) == []


def test_unread_private_name_is_found():
    trees = {
        "a": ast.parse("def _used():\n    pass\n\n\ndef _dead():\n"
                       "    pass\n\n\n_X, _Y = 1, 2\n__version__ = '1'\n"),
        "b": ast.parse("import a\nfrom a import _X\n\n\nclass _Private:\n"
                       "    pass\n\n\na._used(_Private)\n"),
    }
    assert _unread_private_names(trees) == [("a", "_dead"), ("a", "_Y")]


def _exports(init):
    """The names an ``__init__`` imports from its submodules."""
    return [a.asname or a.name for node in init.body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def _code_names(markdown):
    """The identifiers in the code of a Markdown text: its fenced blocks
    and its inline code spans."""
    parts = markdown.split("```")
    code = parts[1::2] + [span for text in parts[::2]
                          for span in re.findall(r"`([^`]+)`", text)]
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def _unused_exports(init, trees, readme):
    """The names ``init`` re-exports that no module of ``trees`` reads and
    that the code of the Markdown text ``readme`` does not name."""
    used = set().union(*map(_read_names, trees.values()),
                       _code_names(readme))
    return [name for name in _exports(init) if name not in used]


def test_every_export_is_read_or_documented():
    # the public API is what the library's own modules (the CLI among
    # them) read and what the README names; anything else is a second API
    # that only its tests reach
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    assert _unused_exports(init, trees, readme) == []


def test_unused_export_is_found():
    init = ast.parse("from .a import fenced, named, read, unread\n")
    trees = {"a": ast.parse("def fenced():\n    return read()\n")}
    # a word outside the code does not name a function
    readme = "Use `named(x)`, not unread:\n\n```python\nfenced()\n```\n"
    assert _unused_exports(init, trees, readme) == ["unread"]


def test_layer_times_runs(capsys):
    # tests/layer_times.py is a script that pytest does not collect: one
    # repeat of it calls every function it times, as this checkout has it
    import layer_times

    layer_times.main(["--repeats", "1"])
    out = capsys.readouterr().out
    assert out.count("rows=4096/4096") == 2
    assert "closure kernels, median ms per call:" in out
    assert "CSV passes" in out
    assert "lorentz maps and planar sweep, median ms per call" in out
