"""Every export of ``randghep`` is reached by code outside its own unit tests.

A name that ``randghep/__init__.py`` imports counts as reached when another
``src/randghep`` module, a script, the benchmark harness or the acceptance
criteria refer to it: as a bare name, as an attribute (``errors.b_sine``), or
as a string equal to the name (the benchmark's span table names functions by
string).  A reference inside the name's own ``def`` or ``class`` does not
count.  The files are parsed with ``ast``; nothing from them is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "randghep"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def caller_files() -> list[Path]:
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "scripts").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py"])


def references(source: str) -> set[str]:
    """The names ``source`` refers to outside the def or class of that name."""
    found: set[str] = set()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        ref = None
        if isinstance(node, ast.Name):
            ref = node.id
        elif isinstance(node, ast.Attribute):
            ref = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            ref = node.value
        if ref is not None and ref not in enclosing:
            found.add(ref)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def test_reference_rule():
    source = (
        "def f():\n    return f\n"
        "class C:\n    x = C\n"
        "def g():\n    return mod.h, 'k', C\n"
    )
    assert references(source) >= {"mod", "h", "k", "C"}
    assert "f" not in references(source)
    assert "g" not in references(source)


def test_every_export_is_reached():
    reached: set[str] = set()
    for path in caller_files():
        reached |= references(path.read_text())
    unreached = sorted(exported_names() - reached)
    assert not unreached, f"exported but reached only by unit tests: {unreached}"
