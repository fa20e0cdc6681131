"""The package's modules import one another without a cycle.

Every ``from .`` import in ``src/randghep/*.py`` counts, at module level and
inside functions, except in ``cli.py`` and ``__init__.py``: they sit on top,
and no module imports them.  ``from .sketch import x`` is an edge to
``sketch``, and ``from . import ghep`` is an edge to ``ghep``.  A
function-level import can close a cycle that a module-level one could not
(the import is deferred until the call), so a cycle shows a module reaching
back into one that depends on it.  The files are parsed with ``ast``;
nothing from them is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "randghep"
TOP = {"cli", "__init__"}


def relative_imports(source: str, modules) -> set[str]:
    """The modules among ``modules`` that ``source`` imports with ``from .``,
    at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names] if node.module is None else [node.module]
            found.update(name for name in names if name in modules)
    return found


def import_graph() -> dict[str, set[str]]:
    """Each module of the package but ``TOP``, with the modules it imports."""
    files = {path.stem: path for path in sorted(PACKAGE.glob("*.py")) if path.stem not in TOP}
    return {name: relative_imports(path.read_text(), files) for name, path in files.items()}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as the list of its nodes, first one repeated at
    the end, or None when there is no cycle (a depth-first search)."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node):
        path.append(node)
        for target in sorted(graph.get(node, ())):
            if target in path:
                return path[path.index(target):] + [target]
            if target not in done:
                cycle = visit(target)
                if cycle:
                    return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        if node not in done:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_rule_on_a_sample():
    modules = {"ghep", "sketch", "borth"}
    sketch = "from . import borth\n\ndef evd():\n    from . import ghep\n"
    ghep = "from . import borth\nfrom .sketch import gaussian_matrix\nfrom . import __version__\n"
    assert relative_imports(sketch, modules) == {"borth", "ghep"}
    assert relative_imports(ghep, modules) == {"borth", "sketch"}
    graph = {"sketch": {"borth", "ghep"}, "ghep": {"borth", "sketch"}, "borth": set()}
    assert find_cycle(graph) == ["ghep", "sketch", "ghep"]
    graph["sketch"] = {"borth"}
    assert find_cycle(graph) is None


def test_package_imports_form_no_cycle():
    graph = import_graph()
    # the parse sees the package's own edges, so an empty graph cannot pass
    assert "sketch" in graph["ghep"] and "borth" in graph["sketch"]
    assert find_cycle(graph) is None, f"import cycle: {' -> '.join(find_cycle(graph))}"
