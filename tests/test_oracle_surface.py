"""The dense oracles factor no B: they read the B-operator's own factor.

``errors.dense_ghep_oracle``, ``range_error_exact`` and ``b_norm`` take B as
the ``SpdOperator`` that the solvers take and read its
``SpdOperator.dense_factor()``, so ``errors.py`` names no Cholesky routine:
no ``cholesky``, ``cho_factor`` or ``cholesky_lower``, as an attribute, a
name or an import.  LAPACK's ``dpotrf``, the certificate that ``_norm2``
runs on a Gram matrix, is not a factorization of B and stays allowed.  The
file is parsed with ``ast``; nothing from it is imported.
"""

import ast
from pathlib import Path

ERRORS = Path(__file__).resolve().parents[1] / "src" / "randghep" / "errors.py"
CHOLESKY = frozenset({"cholesky", "cho_factor", "cholesky_lower"})


def cholesky_names(source: str) -> list[int]:
    """The line of each attribute, name or import of a routine in CHOLESKY in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in CHOLESKY:
            lines.append(node.lineno)
    return sorted(lines)


def test_rule_on_a_sample():
    source = (
        "import scipy.linalg\n"
        "from scipy.linalg import cho_factor\n"
        "from .operators import cholesky_lower as chol\n"
        "L = scipy.linalg.cholesky(B, lower=True)\n"
        "ok = lapack.dpotrf(G)[1] == 0\n"
        "f = cholesky\n"
        "note = 'a Cholesky factor of B: cholesky'\n"
    )
    assert cholesky_names(source) == [2, 3, 4, 6]


def test_errors_names_no_cholesky_routine():
    lines = cholesky_names(ERRORS.read_text())
    assert not lines, f"errors.py names a Cholesky routine on lines {lines} (read B.dense_factor() instead)"
