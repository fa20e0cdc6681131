"""The operators' counters are the only record of apply counts, and one
checked product moves them.

No ``src/randghep`` module other than ``operators.py`` names the counters
(``_matvecs``, ``_solves``) or their class (``_Counter``), and no code calls
``.add`` except ``operators._product``, which is also the one caller of
``np.may_share_memory``.  Code that reports counts reads
``matvec_count``/``solve_count`` before and after, so no count is worked out
by hand.  The files are parsed with ``ast``; nothing from them is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "randghep"
COUNTER_NAMES = {"_matvecs", "_solves", "_Counter"}
PRODUCT = ("operators.py", "_product")


def counter_names(source: str) -> set[str]:
    """The counter names that ``source`` refers to, as names, attributes or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found & COUNTER_NAMES


def method_calls(source: str, method: str) -> list[str | None]:
    """The innermost enclosing function of each ``.<method>(...)`` call (None at module level)."""
    found: list[str | None] = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == method):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_rules_on_a_sample():
    source = (
        "from .operators import _Counter\n"
        "def f(op):\n    op._matvecs.add(1)\n"
        "def g(s):\n    s.add(2)\n    return op.matvec_count\n"
        "x.add(3)\n"
    )
    assert counter_names(source) == {"_Counter", "_matvecs"}
    assert method_calls(source, "add") == ["f", "g", None]


def test_only_operators_names_the_counters():
    named = {path.name: counter_names(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != PRODUCT[0]}
    assert not any(named.values()), f"modules that reach into the counters: {named}"


def test_one_product_moves_the_counters():
    calls = {path.name: method_calls(path.read_text(), "add") for path in sorted(PACKAGE.glob("*.py"))}
    elsewhere = {name: fns for name, fns in calls.items()
                 if any((name, fn) != PRODUCT for fn in fns)}
    assert not elsewhere, f".add called outside {PRODUCT[0]}:{PRODUCT[1]}: {elsewhere}"
    assert calls[PRODUCT[0]] == [PRODUCT[1]]


def test_one_product_guards_against_aliasing():
    # an apply's output is the caller's: ``_product`` copies an output that
    # shares memory with its operand, so no caller checks for that itself
    calls = {path.name: fns for path in sorted(PACKAGE.glob("*.py"))
             if (fns := method_calls(path.read_text(), "may_share_memory"))}
    assert calls == {PRODUCT[0]: [PRODUCT[1]]}
