"""Exact dense linear algebra over the fields of :mod:`isoflag.fields`.

Elimination is fraction-free only in the sense of being exact; pivoting always
picks the first nonzero entry top-down, so every result is deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List

from .fields import FieldElement
from .shapes import jordan_from_ranks


class NotNilpotent(Exception):
    pass


class Matrix:
    """Immutable exact matrix; entries are FieldElement sharing one field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(rows_i) for rows_i in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            assert len(r) == self.ncols, "ragged rows"

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_scalars(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def __add__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Matrix(self.field, [[a + b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Matrix(self.field, [[a - b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            assert self.ncols == other.nrows
            cols = list(zip(*other.rows))
            return Matrix(self.field,
                          [[_dot(r, c, self.field) for c in cols] for r in self.rows])
        return Matrix(self.field, [[a * other for a in r] for r in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows))) if self.rows else self

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of FieldElement."""
        return tuple(_dot(r, vec, self.field) for r in self.rows)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    @property
    def is_zero(self):
        return all(x.is_zero for r in self.rows for x in r)

    def hstack(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows
        return Matrix(self.field, [list(a) + list(b) for a, b in zip(self.rows, other.rows)])

    def submatrix(self, row_lo, row_hi, col_lo, col_hi) -> "Matrix":
        return Matrix(self.field, [r[col_lo:col_hi] for r in self.rows[row_lo:row_hi]])

    # -- elimination --------------------------------------------------------

    def _echelon(self):
        """Row echelon form; returns (rows, pivot column list)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            sel = None
            for i in range(pr, len(rows)):
                if not rows[i][pc].is_zero:
                    sel = i
                    break
            if sel is None:
                continue
            rows[pr], rows[sel] = rows[sel], rows[pr]
            inv = rows[pr][pc].inverse()
            rows[pr] = [x * inv for x in rows[pr]]
            for i in range(len(rows)):
                if i != pr and not rows[i][pc].is_zero:
                    f = rows[i][pc]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == len(rows):
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self) -> List[tuple]:
        """Basis of the right kernel, as coordinate tuples."""
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        z, o = self.field.zero, self.field.one
        basis = []
        for fj in free:
            v = [z] * self.ncols
            v[fj] = o
            for pi, pc in enumerate(pivots):
                v[pc] = -rows[pi][fj]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Matrix":
        assert self.nrows == self.ncols
        aug = self.hstack(Matrix.identity(self.field, self.nrows))
        rows, pivots = aug._echelon()
        if pivots != list(range(self.nrows)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.field, [r[self.nrows:] for r in rows])

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]


def _dot(a, b, field):
    acc = field.zero
    for x, y in zip(a, b):
        if not (x.is_zero or (isinstance(y, FieldElement) and y.is_zero)):
            acc = acc + x * y
    return acc


# -- linear solving ---------------------------------------------------------

@dataclass
class Unique:
    x: tuple


@dataclass
class Affine:
    x0: tuple
    kernel: List[tuple]


@dataclass
class NoSolution:
    pass


def solve_linear(a: Matrix, b):
    """Exact solution set of A x = b (b a sequence of FieldElement)."""
    field = a.field
    aug = a.hstack(Matrix(field, [[x] for x in b]))
    rows, pivots = aug._echelon()
    if a.ncols in pivots:
        return NoSolution()
    z = field.zero
    x0 = [z] * a.ncols
    for pi, pc in enumerate(pivots):
        x0[pc] = rows[pi][a.ncols]
    kernel = a.nullspace()
    if kernel:
        return Affine(tuple(x0), kernel)
    return Unique(tuple(x0))


# -- Jordan data ------------------------------------------------------------

def nilpotent_jordan_multiset(n: Matrix) -> Counter:
    """Jordan block sizes of a nilpotent matrix, as a Counter {size: count}."""
    assert n.nrows == n.ncols
    dim = n.nrows
    ranks = [dim]
    power = Matrix.identity(n.field, dim)
    while ranks[-1]:
        if len(ranks) > dim:
            raise NotNilpotent(f"rank(N^{dim}) = {ranks[-1]}, not 0")
        power = power * n
        ranks.append(power.rank())
    return jordan_from_ranks(ranks)
