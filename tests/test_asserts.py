"""An inventory of the assert statements in src/isoflag.

``python -O`` strips every assert, so an assert may only state what no
input can reach; a check that some input can fail must raise one of the
exceptions of ``isoflag.shapes`` instead.  Each allowed assert is listed
below, by module and enclosing function, with the reason no input reaches
it.  A new assert fails this test until it is listed and justified here.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "isoflag"

ALLOWED = Counter([
    # its one caller, the symplectic diagonal, passes -d with |d| >= p_t
    # >= 1
    ("gram", "sg"),
    # the solve for a block end is NoSolution, Unique or Affine, and the
    # first two return before this line
    ("model", "build_model"),
    # a square root over a field of characteristic 2 always exists: the
    # Frobenius x -> x^2 is a bijection of a finite field
    ("model", "build_model"),
    # a non-square of GF(q) is a square in GF(q^2), the field it is
    # lifted into
    ("fields", "sqrt_extend"),
    # block_jordan_sizes raises on a shape the mode rejects; on every
    # other one its sizes sum to nu = 2n + kappa, since the psi signs sum
    # to sigma mod 2
    ("shapes", "jordan_prediction"),
    # psi(1) = 1 and p_1 exceeds every level below the top, which
    # returns None first, so index 1 is always a candidate
    ("shapes", "pi_window"),
    # every candidate is at most b by construction
    ("shapes", "pi_window"),
])


def _asserts(tree, module):
    """(module, enclosing function) for each assert in ``tree``, with
    methods named Class.method and module-level asserts as '<module>'."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((module, ".".join(scope) or "<module>"))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + [child.name])
            else:
                walk(child, scope)
    walk(tree, [])
    return found


def test_every_assert_is_listed():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(_asserts(tree, path.stem))
    assert found == ALLOWED, (
        f"unlisted: {sorted((found - ALLOWED).elements())}; "
        f"listed but gone: {sorted((ALLOWED - found).elements())}")

