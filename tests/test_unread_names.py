"""Every module-level name in the package has a reader: it is exported by
`causalpdb/__init__.py`, or some code in the package names it besides its
own definition.  A name that fails this is dead code; delete it."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "causalpdb"


def _defined(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level, imports aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _named(tree: ast.Module) -> Counter:
    """How often code reads each identifier, f-string fields and imports
    included; names inside strings and comments do not count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def unread_names(package: Path = PACKAGE) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    named = sum(map(_named, trees.values()), Counter())
    return [
        f"{module}:{name}"
        for module, tree in trees.items() if module != "__init__.py"
        for name in _defined(tree)
        if name not in exported and not named[name]
    ]


def test_every_module_level_name_has_a_reader():
    assert unread_names() == []


def test_a_name_named_only_in_a_string_or_comment_is_unread(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import used\n")
    (tmp_path / "mod.py").write_text(
        "def used():\n    return f'{_helper()}'\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "TABLE = {'k': used}  # TABLE\n"
        "def dead():\n    '''dead'''\n"
    )
    assert unread_names(tmp_path) == ["mod.py:TABLE", "mod.py:dead"]
