"""A pin on the number of values a caller can set in the library.

Each defaulted parameter and each defaulted dataclass field that __init__
accepts is a value a caller may set or leave alone, and each one multiplies
the configurations that tests and benchmarks would have to cover. The pin
makes adding one a visible decision: move SETTABLE_VALUES and say why in
CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sadnet"
SETTABLE_VALUES = 38


def _name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _init_accepts(value) -> bool:
    """False for field(init=False), which __init__ does not take."""
    return not (isinstance(value, ast.Call) and _name(value) == "field" and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords))


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(_name(d) == "dataclass" for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None and _init_accepts(s.value)
                         for s in node.body)
    return count


def test_counter_sees_each_kind_of_default():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = field(init=False, default=0)\n"
        "class Plain:\n"
        "    v: int = 0\n")
    assert settable_values(tree) == 5


def test_library_settable_values_are_pinned():
    total = sum(settable_values(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))
    assert total == SETTABLE_VALUES, (
        f"src/sadnet has {total} settable values, pinned at {SETTABLE_VALUES}: "
        "move the pin and say why in CHANGES.md")
