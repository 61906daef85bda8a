"""No module of the package imports a name at module level that it never
uses.  No linter ships with the package, so the check reads each module's
syntax tree with the standard ast module.  __init__.py is exempt: its
imports are the package's public names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schurlie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by the module-level imports of source that no other
    part of the module reads; __all__ entries count as reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finder_flags_only_unread_names():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from .e import f\nimport g.h\n__all__ = ['f']\n\ndef k():\n    return d, g\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "b")]


def test_modules_found():
    assert {"words.py", "schur.py", "derivations.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
