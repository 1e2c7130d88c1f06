"""Exact dense linear algebra over the fields of :mod:`isoflag.fields`.

Elimination is fraction-free only in the sense of being exact; pivoting always
picks the first nonzero entry top-down, so every result is deterministic.

Every entry of a matrix is a FieldElement of the matrix's own field; a
foreign entry or operand raises ``TypeError``.  Products, ``apply`` and
elimination run on raw coordinates: a matrix unwraps its entries once, on
first use, and keeps them (matrices are immutable); each operation runs one
loop for the field's kind and wraps its results once.

* GF(p): plain ints, one ``% p`` per dot product;
* any other field: coordinate tuples combined by the field's own ``add``,
  ``neg``, ``mul``, ``inv`` and ``dot``, skipping zero terms; a dot product
  of two or more terms is one ``field.dot``, which sums the products
  before it normalises.

Elimination on either is :func:`_pivot_loop`, which also serves
:func:`echelon_mod`, the modular kernel counting calls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import List, Tuple

from .fields import FieldElement
from .shapes import VerificationFailed, jordan_from_ranks


class NotNilpotent(VerificationFailed):
    """A matrix read as nilpotent whose powers never reach 0."""


# -- the one pivot loop -----------------------------------------------------

def _pivot_loop(rows, ncols: int, scale, eliminate):
    """Reduced row echelon form of the first ``ncols`` columns of ``rows``
    (a list of lists, reduced in place), whose zero entries are falsy.

    Pivots on the first nonzero entry top-down, column by column, and
    stops once every row has a pivot; later columns (an augmented block)
    are carried along.  ``scale(row, x)`` returns the row divided by its
    pivot x, ``eliminate(row, prow, c)`` the row less row[c] times the
    scaled pivot row.  Returns the rows and the pivot columns: row i has
    a 1 at pivots[i] and zeros in every other pivot column.
    """
    pivots: List[int] = []
    for c in range(ncols):
        pr = len(pivots)
        if pr == len(rows):
            break
        sel = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        prow = rows[pr] = scale(rows[pr], rows[pr][c])
        for i, row in enumerate(rows):
            if i != pr and row[c]:
                rows[i] = eliminate(row, prow, c)
        pivots.append(c)
    return rows, pivots


def echelon_mod(rows, p: int, ncols: int) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form over GF(p) of the first ``ncols`` columns
    of int rows, by :func:`_pivot_loop`: the rows, reduced mod p, and the
    pivot columns."""

    def scale(row, x):
        inv = pow(x, p - 2, p)
        return [y * inv % p for y in row]

    def eliminate(row, prow, c):
        f = row[c]
        return [(x - f * y) % p for x, y in zip(row, prow)]
    return _pivot_loop([[x % p for x in r] for r in rows], ncols,
                       scale, eliminate)


# -- per-field scalar kernels -------------------------------------------------

class _ModKernel:
    """GF(p): a raw scalar is its int in [0, p)."""

    def __init__(self, field):
        self.field, self.p = field, field.p

    def unwrap(self, rows):
        return [[x.coords[0] for x in r] for r in rows]

    def dot(self, a, b):
        return sum(map(mul, a, b)) % self.p

    def wrap(self, v):
        return FieldElement(self.field, (v,))

    def echelon(self, rows, ncols):
        return echelon_mod(rows, self.p, ncols)


class _CoordKernel:
    """Any other field: a raw scalar is None for zero, else its coordinate
    tuple, combined by the field's ``add``, ``neg``, ``mul``, ``inv`` and
    ``dot``; ``mul``, ``inv`` and ``dot`` only ever see nonzero scalars."""

    def __init__(self, field):
        self.field, self.zero = field, field.zero.coords
        self.add, self.mul = field.add, field.mul

    def unwrap(self, rows):
        return [[x.coords if any(x.coords) else None for x in r]
                for r in rows]

    def dot(self, a, b):
        xs, ys = [], []
        for x, y in zip(a, b):
            if x is not None and y is not None:
                xs.append(x)
                ys.append(y)
        if len(xs) > 1:
            s = self.field.dot(xs, ys)
            return s if any(s) else None
        # sparse rows (permutations, shifts) leave one term or none
        return self.mul(xs[0], ys[0]) if xs else None

    def wrap(self, v):
        return FieldElement(self.field, self.zero if v is None else v)

    def echelon(self, rows, ncols):
        field, add, mul_ = self.field, self.add, self.mul

        def scale(row, x):
            s = field.inv(x)
            return [y if y is None else mul_(y, s) for y in row]

        def plus(x, t):
            """x + t for a nonzero t; None for zero."""
            if x is None:
                return t
            s = add(x, t)
            return s if any(s) else None

        def eliminate(row, prow, c):
            f = field.neg(row[c])
            return [x if y is None else plus(x, mul_(f, y))
                    for x, y in zip(row, prow)]
        return _pivot_loop([list(r) for r in rows], ncols, scale, eliminate)


def _kernel(field):
    if field.is_finite and field.m == 1:
        return _ModKernel(field)
    return _CoordKernel(field)


def _check_field(field, rows):
    """Raise TypeError unless every entry of ``rows`` is an element of
    ``field``."""
    try:
        if all(x.field is field for r in rows for x in r):
            return
    except AttributeError:
        pass
    for r in rows:
        for x in r:
            if not isinstance(x, FieldElement):
                raise TypeError(f"{x!r} is not an element of {field!r}")
            if x.field != field:
                raise TypeError(f"an element of {x.field!r} where one of "
                                f"{field!r} is expected")


class Matrix:
    """Immutable exact matrix; entries are FieldElement sharing one field."""

    __slots__ = ("field", "rows", "nrows", "ncols", "_unwrapped")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(rows_i) for rows_i in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

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

    def _same_shape(self, other, op):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"{op} of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")

    def __add__(self, other):
        self._same_shape(other, "sum")
        return Matrix(self.field, [[a + b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._same_shape(other, "difference")
        return Matrix(self.field, [[a - b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def _raw(self):
        """(kernel, raw rows), unwrapped on first use."""
        try:
            return self._unwrapped
        except AttributeError:
            _check_field(self.field, self.rows)
            k = _kernel(self.field)
            self._unwrapped = (k, k.unwrap(self.rows))
            return self._unwrapped

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return Matrix(self.field, [[a * other for a in r] for r in self.rows])
        if self.ncols != other.nrows:
            raise ValueError(f"product of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
        f = self.field
        if other.field is not f and other.field != f:
            raise TypeError(f"product of a matrix over {f!r} and one over "
                            f"{other.field!r}")
        (k, ra), rb = self._raw(), other._raw()[1]
        dot, wrap = k.dot, k.wrap
        cols = list(zip(*rb))
        return Matrix(f, [[wrap(dot(r, c)) for c in cols] for r in ra])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows))) if self.rows else self

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of FieldElement."""
        k, ra = self._raw()
        _check_field(self.field, (vec,))
        dot, wrap = k.dot, k.wrap
        (v,) = k.unwrap((vec,))
        return tuple(wrap(dot(r, v)) for r in ra)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    @property
    def is_zero(self):
        return all(x.is_zero for r in self.rows for x in r)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError(f"hstack of {self.nrows} and {other.nrows} rows")
        return Matrix(self.field, [list(a) + list(b) for a, b in zip(self.rows, other.rows)])

    def submatrix(self, row_lo, row_hi, col_lo, col_hi) -> "Matrix":
        return Matrix(self.field, [r[col_lo:col_hi] for r in self.rows[row_lo:row_hi]])

    # -- elimination --------------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        k, rows = self._raw()
        rows, pivots = k.echelon(rows, self.ncols)
        wrap = k.wrap
        return [[wrap(x) for x in r] for r in rows], pivots

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
        if self.nrows != self.ncols:
            raise ValueError(f"inverse of a {self.nrows}x{self.ncols} matrix")
        aug = self.hstack(Matrix.identity(self.field, self.nrows))
        rows, pivots = aug._echelon()
        if pivots != list(range(self.nrows)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.field, [r[self.nrows:] for r in rows])

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]


def dot(a, b, field) -> FieldElement:
    """sum a_i b_i for sequences of FieldElement of ``field``."""
    _check_field(field, (a, b))
    k = _kernel(field)
    ra, rb = k.unwrap((a, b))
    return k.wrap(k.dot(ra, rb))


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
    if n.nrows != n.ncols:
        raise ValueError(f"Jordan type of a {n.nrows}x{n.ncols} matrix")
    dim = n.nrows
    ranks = [dim]
    power = Matrix.identity(n.field, dim)
    while ranks[-1]:
        if len(ranks) > dim:
            raise NotNilpotent(f"rank(N^{dim}) = {ranks[-1]}, not 0")
        power = power * n
        ranks.append(power.rank())
    return jordan_from_ranks(ranks)
