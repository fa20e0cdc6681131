"""Every export of ``randghep``, every defaulted parameter of its
functions, and every member of its exported classes is used by code outside
the unit tests.

A name that ``randghep/__init__.py`` imports counts as reached when another
``src/randghep`` module, a script, the benchmark harness or the acceptance
criteria refer to it: as a bare name, as an attribute (``errors.b_sine``), or
as a string equal to the name (the benchmark's span table names functions by
string).  A reference inside the name's own ``def`` or ``class`` does not
count.  A parameter with a default counts as set when one of those files
calls a function of its name and passes it by keyword or by position.  A
field, property or public method of an exported class counts as read when one
of those files reads an attribute of its name outside the member's own
``def``; the rule goes by name, so a member that shares its name with another
type's attribute (``shape``) passes it.  The files are parsed with ``ast``;
nothing from them is imported.
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


def defaulted_parameters(source: str) -> set[tuple[str, str, int | None]]:
    """(function, parameter, call position) of each parameter with a default.

    A class's ``__init__`` is named by its class.  A function defined in a
    class body is a method: its positions skip ``self``.  Keyword-only
    parameters have no position.
    """
    found: set[tuple[str, str, int | None]] = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 0 if cls is None else 1
                name = cls if cls is not None and child.name == "__init__" else child.name
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    found.add((name, positional[i].arg, i - skip))
                found.update((name, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def passed_arguments(source: str) -> set[tuple[str, str | int]]:
    """(function, keyword or position) of each argument a call in ``source`` passes."""
    found: set[tuple[str, str | int]] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            found |= {(name, i) for i in range(len(node.args))}
            found |= {(name, kw.arg) for kw in node.keywords if kw.arg is not None}
    return found


def unset_defaults(definitions: list[str], callers: list[str]) -> list[str]:
    """``function(parameter=)`` for each defaulted parameter no caller sets."""
    passed: set = set().union(*map(passed_arguments, callers))
    return sorted(f"{name}({param}=)" for source in definitions
                  for name, param, position in defaulted_parameters(source)
                  if (name, param) not in passed and (name, position) not in passed)


def test_set_rule():
    definitions = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0):\n        pass\n"
    )
    callers = "f(1, 2)\nmod.f(d=4)\nK(5)\nobj.m()\n"
    assert defaulted_parameters(definitions) == {
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("K", "x", 0), ("m", "y", 0)}
    assert passed_arguments(callers) == {("f", 0), ("f", 1), ("f", "d"), ("K", 0)}
    assert unset_defaults([definitions], [callers]) == ["f(c=)", "m(y=)"]


def test_every_defaulted_parameter_is_set():
    definitions = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    unset = unset_defaults(definitions, [p.read_text() for p in caller_files()])
    assert not unset, f"defaulted parameters set only by unit tests, or by nothing: {unset}"


def exported_classes() -> dict[str, ast.ClassDef]:
    """The class definitions, across ``src/randghep``, of the names ``__init__.py`` exports."""
    exported = exported_names()
    return {node.name: node for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and node.name in exported}


def public_members(cls: ast.ClassDef) -> set[str]:
    """The fields, properties and public methods a class body defines.

    A field is an annotated name of the class body (a dataclass or
    NamedTuple field) or an attribute that ``__init__`` assigns to ``self``.
    Names that start with "_" are private and left out.
    """
    found: set[str] = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
            if node.name == "__init__":
                found |= {target.attr for stmt in ast.walk(node)
                          if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                          for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                          if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                          and target.value.id == "self"}
    return {name for name in found if not name.startswith("_")}


def attribute_reads(source: str) -> set[str]:
    """The attribute names ``source`` reads (``x.name`` in a load), outside
    the def of that name."""
    found: set[str] = set()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def test_member_rule():
    cls = ast.parse(
        "class C:\n"
        "    x: int\n"
        "    _y: int\n"
        "    def __init__(self):\n        self.z = 0\n        self._w = 1\n"
        "    @property\n    def p(self):\n        return self.p\n"
        "    def m(self):\n        return self.x\n"
        "    def _h(self):\n        pass\n"
    ).body[0]
    assert public_members(cls) == {"x", "z", "p", "m"}
    assert attribute_reads("c.m()\nc.z = 1\nv = c.x\n") == {"m", "x"}
    assert "p" not in attribute_reads("def p(self):\n    return self.p\n")


def test_every_member_is_read():
    read: set[str] = set()
    for path in caller_files():
        read |= attribute_reads(path.read_text())
    unread = sorted(f"{name}.{member}" for name, cls in exported_classes().items()
                    for member in public_members(cls) - read)
    assert not unread, f"members read only by unit tests, or by nothing: {unread}"
