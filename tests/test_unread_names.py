"""Every module-level name in the package has a reader: it is exported by
`causalpdb/__init__.py`, or some code in the package names it besides its
own definition.  So does every class member: a method, property or class
attribute of any class, and a dataclass field that is private or belongs to
a class `__init__.py` does not export, is named by code in the package
(dunder methods are read by Python itself).  A few public members of
exported classes are read only by callers outside the package; they are
listed in `PUBLIC_API`.  A name that fails this is dead code; delete it."""

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


#: Public members of exported classes that no code in the package reads:
#: API for callers, kept on purpose.
PUBLIC_API = {
    "core.py:InstanceStore.records_by_argument",
    "queries.py:ComponentPartition.subquery",
    "queries.py:MssFamily.as_lists",
}


def _members(cls: ast.ClassDef, exported: bool) -> list[str]:
    """The members a class body defines, dunders aside; a public dataclass
    field of an exported class is the class's data, not a member here."""
    names = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if not exported or node.target.id.startswith("_"):
                names.append(node.target.id)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _trees(package: Path) -> tuple[dict[str, ast.Module], set[str], Counter]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return trees, exported, sum(map(_named, trees.values()), Counter())


def unread_names(package: Path = PACKAGE) -> list[str]:
    trees, exported, named = _trees(package)
    return [
        f"{module}:{name}"
        for module, tree in trees.items() if module != "__init__.py"
        for name in _defined(tree)
        if name not in exported and not named[name]
    ]


def unread_members(package: Path = PACKAGE) -> list[str]:
    trees, exported, named = _trees(package)
    return [
        f"{module}:{cls.name}.{name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for name in _members(cls, cls.name in exported)
        if not named[name]
    ]


def test_every_module_level_name_has_a_reader():
    assert unread_names() == []


def test_every_class_member_has_a_reader():
    assert sorted(unread_members()) == sorted(PUBLIC_API)


def test_a_name_named_only_in_a_string_or_comment_is_unread(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import used\n")
    (tmp_path / "mod.py").write_text(
        "def used():\n    return f'{_helper()}'\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "TABLE = {'k': used}  # TABLE\n"
        "def dead():\n    '''dead'''\n"
    )
    assert unread_names(tmp_path) == ["mod.py:TABLE", "mod.py:dead"]


def test_an_unread_member_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import Public, make\n")
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Public:\n    shown: int\n    _hidden: int\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def method(self):\n        return 1\n\n"
        "    def _helper(self):\n        return 2\n\n\n"
        "@dataclass\nclass _Inner:\n    field: int\n    read: int\n\n"
        "    size = property(lambda self: self.read)\n\n\n"
        "def make():\n    return _Inner(1, 2)\n"
    )
    assert unread_members(tmp_path) == [
        "mod.py:Public._hidden", "mod.py:Public.method", "mod.py:Public._helper",
        "mod.py:_Inner.field", "mod.py:_Inner.size",
    ]
