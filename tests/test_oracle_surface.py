"""The dense oracles take B's factor, never a dense copy of B.

No ``src/randghep`` module reads the attribute ``dense_b``: the library's
oracle calls pass ``SpdOperator.dense_factor()``, so a B is not densified or
factored a second time for them.  Defining ``dense_b`` (the lazy property of
``GhepPencil``, the KLE pencil's builder) is allowed; tests and scripts may
still read it.  The files are parsed with ``ast``; nothing from them is
imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "randghep"
DENSE_B = "dense_b"


def dense_b_reads(source: str) -> list[int]:
    """The line of each attribute read ``<expr>.dense_b`` in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == DENSE_B)


def test_rule_on_a_sample():
    source = (
        "def dense_b():\n    return B\n"
        "build = dense_b\n"
        "ref = oracle(pencil.dense_a, pencil.dense_b)\n"
        "x = getattr(p, 'dense_a').dense_b\n"
    )
    assert dense_b_reads(source) == [4, 5]


def test_no_module_reads_dense_b():
    reads = {path.name: dense_b_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: lines for name, lines in reads.items() if lines}
    assert not found, f"modules that read .{DENSE_B} (pass B.dense_factor() instead): {found}"
