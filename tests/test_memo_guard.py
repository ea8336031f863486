"""Every process-level memo in the package goes through the one keeper,
`core._kept`: it keys each entry by Python's int digit limit, and
`clear_kept` empties it.  A module-level function memoized by
`functools.lru_cache` or `functools.cache` elsewhere would skip both."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "causalpdb"

#: Module-level memos outside the keeper.  The argument parsers are built
#: once per process; they read no numbers and hold no input.
ALLOWED = {"cli.py:_parsers"}


def _is_memo(node: ast.expr) -> bool:
    """Whether an expression names `lru_cache` or `cache`, called or not,
    bare or as a `functools` attribute."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in ("lru_cache", "cache")
    return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")


def _memos(tree: ast.Module) -> set[str]:
    """The module-level functions and methods decorated as memos, and the
    module-level names bound to a memo's result."""
    found = set()
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in defs:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_is_memo, item.decorator_list)
            ):
                found.add(item.name)
        if isinstance(node, ast.Assign) and any(
            isinstance(call, ast.Call) and _is_memo(call.func) for call in ast.walk(node.value)
        ):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return found


def test_the_scan_finds_each_form_of_memo():
    source = (
        "import functools\n"
        "@functools.lru_cache(maxsize=8)\ndef a(x): pass\n"
        "@cache\ndef b(x): pass\n"
        "class C:\n    @functools.cache\n    def c(self): pass\n"
        "d = lru_cache(1)(a)\n"
        "@functools.cached_property\ndef e(x): pass\n"
        "def f(x):\n    return functools.cache(lambda y: y)\n"
    )
    assert _memos(ast.parse(source)) == {"a", "b", "c", "d"}


def test_every_module_level_memo_goes_through_the_keeper():
    found = {
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _memos(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED
