"""The experiment cases, shared by the tests and the CLI.

The model sweep (``sweep_cases`` x ``fields_for``) is what ``isoflag
sweep`` verifies and what acceptance criteria 3, 5 and 6 build; the
counting cases are the ``isoflag count`` runs of criteria 7, 8 and 9,
each reported by ``CountCase.report``.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional, Tuple

from . import counting
from .fields import get_finite_field
from .shapes import ORTHOGONAL, SYMPLECTIC, ShapeSeq, psi


def partitions_up_to(total):
    """All weakly decreasing positive integer tuples with sum <= total."""
    out = []

    def rec(rem, mx, cur):
        if cur:
            out.append(tuple(cur))
        for p in range(min(rem, mx), 0, -1):
            cur.append(p)
            rec(rem - p, p, cur)
            cur.pop()

    rec(total, total, [])
    return sorted(out)


def sweep_cases(total):
    """(shape, mode) for parts summing to <= total, both kappa, valid modes."""
    cases = []
    for parts in partitions_up_to(total):
        for kappa in (0, 1):
            shape = ShapeSeq(parts, kappa)
            for mode in (SYMPLECTIC, ORTHOGONAL):
                if shape.valid_for_mode(mode):
                    cases.append((shape, mode))
    return cases


def fields_for(mode, kappa):
    """(name, field) pairs for one (mode, kappa); None is the rationals."""
    if mode == SYMPLECTIC:
        fields = []
        if kappa == 0:
            fields += [("rat", None), ("gf3", get_finite_field(3)),
                       ("gf5", get_finite_field(5)),
                       ("gf7", get_finite_field(7))]
        fields += [("gf2", get_finite_field(2)),
                   ("gf4", get_finite_field(2, 2))]
        return fields
    return [("rat", None), ("gf3", get_finite_field(3)),
            ("gf5", get_finite_field(5)), ("gf7", get_finite_field(7))]


def cuts_for(shape, mode):
    """Block cuts for split_check: all of them, or psi(r) = -1 if orthogonal."""
    if mode == SYMPLECTIC:
        return list(range(1, shape.sigma + shape.kappa))
    ps = psi(shape)
    return [r for r in range(1, shape.sigma + 1) if ps[r - 1] == -1]


class CountCase(NamedTuple):
    """One ``isoflag count`` run.  Type A takes the matrix size ``n``, types
    B and C a shape; ``gamma`` (Jordan block sizes) defaults to the
    predicted Jordan type."""

    group_type: str
    q: int
    n: Optional[int] = None
    shape: Optional[ShapeSeq] = None
    gamma: Optional[Tuple[int, ...]] = None

    def report(self) -> dict:
        """``counting.count_pairs`` for this case, with its type, q, Jordan
        type and orders; ``relation_holds`` checks that the count equals
        the adjoint order for the predicted Jordan type, and only then."""
        shape = None if self.group_type == "A" else self.shape
        mode = {"A": counting.TYPE_A, "B": counting.SO_ODD,
                "C": counting.SP}[self.group_type]
        space = counting.FiniteFormSpace(
            mode, self.n if shape is None else shape.nu, self.q)
        predicted = counting.predicted_jordan_type(space, shape)
        gamma = predicted if self.gamma is None else Counter(self.gamma)
        report = counting.count_pairs(space, gamma, shape=shape)
        adjoint = counting.adjoint_order(space)
        report["group_order"] = counting.group_order_formula(space)
        report["adjoint_order"] = adjoint
        expect_equal = gamma == predicted
        report["expected_relation"] = "equal" if expect_equal else "differs"
        report["relation_holds"] = (report["count"] == adjoint) == expect_equal
        report["type"] = self.group_type
        report["q"] = self.q
        report["gamma"] = sorted(gamma.elements(), reverse=True)
        return report


#: Criterion 7: the regular unipotents of GL_n(F_q) against |PGL_n(F_q)|.
TYPE_A_COUNTS = tuple(CountCase("A", q, n=n) for n, q in
                      ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)))

#: Criterion 8: the rank-2 types C and B at q = 3.
BC_COUNTS = (
    CountCase("C", 3, shape=ShapeSeq((2,))),
    CountCase("C", 3, shape=ShapeSeq((1, 1))),
    CountCase("B", 3, shape=ShapeSeq((2,), kappa=1)),
)

#: Criterion 9: Jordan types off the predicted class.
OFF_CLASS_COUNTS = (
    CountCase("A", 3, n=2, gamma=(1, 1)),
    CountCase("C", 3, shape=ShapeSeq((2,)), gamma=(2, 2)),
)

COUNT_CASES = TYPE_A_COUNTS + BC_COUNTS + OFF_CLASS_COUNTS
