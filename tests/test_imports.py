"""No module of the package imports a name at module level that it never
uses, and no module-level private name of the package goes unread.  No
linter ships with the package, so the checks read each module's syntax tree
with the standard ast module.  __init__.py is exempt from the import check:
its imports are the package's public names."""

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


def _defined_names(node):
    """The names a module-level statement defines: a function's or class's
    name, or every name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)}


def _read_names(node):
    """The names a statement reads: loaded names, attribute names and the
    names its imports take; docstrings are not read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unread_private_names(sources):
    """The module-level private names (a leading underscore, not a __dunder__
    name) that the modules of sources, a dict module -> source, define and
    that no statement but their own definition reads, as (module, line,
    name)."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _defined_names(node)
            defined += [(module, node.lineno, name) for name in sorted(names)
                        if name.startswith("_") and not name.endswith("__")]
            read.update(set(_read_names(node)) - names)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_finder_flags_only_unread_names():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from .e import f\nimport g.h\n__all__ = ['f']\n\ndef k():\n    return d, g\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "b")]


def test_modules_found():
    assert {"words.py", "schur.py", "derivations.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_finder_flags_only_unread_private_names():
    sources = {
        "a": ("def _recurse(k):\n    return _recurse(k - 1)\n\n"
              "def _imported():\n    \"\"\"_Documented only.\"\"\"\n\n"
              "_LIMIT, _OTHER = 1, 2\n__version__ = '1'\n\n"
              "class _Unused:\n    pass\n\n"
              "def public():\n    return _LIMIT\n\n"
              "def _Documented():\n    pass\n"),
        "b": "from a import _imported\nimport a\n\nx = a._OTHER\n",
    }
    assert unread_private_names(sources) == [
        ("a", 1, "_recurse"), ("a", 10, "_Unused"), ("a", 16, "_Documented")]


def test_no_unread_private_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
