"""The experiment cases shared by the tests, the scripts and the CLI."""

from __future__ import annotations

from .fields import get_finite_field
from .shapes import ORTHOGONAL, SYMPLECTIC, ShapeSeq, psi


def partitions_up_to(total):
    """All weakly decreasing positive integer tuples with sum <= total."""
    out = set()

    def rec(rem, mx, cur):
        if cur:
            out.add(tuple(cur))
        for p in range(min(rem, mx), 0, -1):
            cur.append(p)
            rec(rem - p, p, cur)
            cur.pop()

    for n in range(1, total + 1):
        rec(n, n, [])
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
