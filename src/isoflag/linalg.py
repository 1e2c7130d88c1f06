"""Exact dense linear algebra over the fields of :mod:`isoflag.fields`.

Elimination is fraction-free only in the sense of being exact; pivoting always
picks the first nonzero entry top-down, so every result is deterministic.

A matrix's state is its raw rows, one kernel scalar per entry:

* GF(p): plain ints in [0, p), one ``% p`` per dot product;
* any other field: coordinate tuples, None for zero, combined by the
  field's own ``add``, ``neg``, ``mul``, ``inv`` and ``dot``, skipping zero
  terms; a dot product of two or more terms is one ``field.dot``, which
  sums the products before it normalises.

So a raw zero is falsy and every other raw scalar is truthy.  Products,
sums, transposes, submatrices, ``hstack``, inverses, ranks, ``is_zero`` and
``==`` read and return raw rows and make no FieldElement.  ``rows``, the
entries as FieldElement of the matrix's own field, is a view: it is
wrapped on first read and kept (matrices are immutable).  ``col``,
``apply``, ``nullspace`` and ``solve_linear`` return FieldElement.  A
matrix built from FieldElement rows unwraps them on first use; a foreign
entry or operand raises ``TypeError``.

Elimination on either kernel is :func:`_pivot_loop`, which also serves
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

    zero, one = 0, 1

    def __init__(self, field):
        self.field, self.p = field, field.p

    def unwrap(self, xs):
        return tuple([x.coords[0] for x in xs])

    def wrap(self, v):
        return FieldElement(self.field, (v,))

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def dot(self, a, b):
        return sum(map(mul, a, b)) % self.p

    def echelon(self, rows, ncols):
        return echelon_mod(rows, self.p, ncols)


class _CoordKernel:
    """Any other field: a raw scalar is None for zero, else its coordinate
    tuple, combined by the field's ``add``, ``neg``, ``mul``, ``inv`` and
    ``dot``, which only ever see nonzero scalars here."""

    zero = None

    def __init__(self, field):
        self.field, self._zero_coords = field, field.zero.coords

    @property
    def one(self):
        return self.field.one.coords

    def unwrap(self, xs):
        return tuple([x.coords if any(x.coords) else None for x in xs])

    def wrap(self, v):
        return FieldElement(self.field, self._zero_coords if v is None else v)

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        s = self.field.add(a, b)
        return s if any(s) else None

    def neg(self, a):
        return None if a is None else self.field.neg(a)

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return self.field.mul(a, b)

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
        return self.field.mul(xs[0], ys[0]) if xs else None

    def echelon(self, rows, ncols):
        field, add = self.field, self.add
        mul_ = field.mul

        def scale(row, x):
            s = field.inv(x)
            return [y if y is None else mul_(y, s) for y in row]

        def eliminate(row, prow, c):
            f = field.neg(row[c])
            return [x if y is None else add(x, mul_(f, y))
                    for x, y in zip(row, prow)]
        return _pivot_loop([list(r) for r in rows], ncols, scale, eliminate)


def _kernel(field):
    if field.is_finite and field.m == 1:
        return _ModKernel(field)
    return _CoordKernel(field)


def _identity_rows(k, n):
    z, o = k.zero, k.one
    return [tuple(o if i == j else z for j in range(n)) for i in range(n)]


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
    """Immutable exact matrix over one field, held as raw rows.

    ``Matrix(field, rows)`` takes FieldElement rows, which become the
    ``rows`` view as given; every operation returns a raw-backed matrix.
    """

    __slots__ = ("field", "nrows", "ncols", "_k", "_unwrapped", "_rows")

    def __init__(self, field, rows):
        self.field = field
        self._rows = tuple(tuple(rows_i) for rows_i in rows)
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        if any(len(r) != self.ncols for r in self._rows):
            raise ValueError("ragged rows")

    @classmethod
    def _of(cls, k, raw):
        """The matrix over ``k.field`` whose raw rows are ``raw``, a list of
        tuples of k's scalars."""
        m = cls.__new__(cls)
        m.field, m._k, m._unwrapped = k.field, k, raw
        m.nrows = len(raw)
        m.ncols = len(raw[0]) if raw else 0
        return m

    @classmethod
    def from_raw(cls, field, rows):
        """The matrix whose raw rows are ``rows``: over GF(p) ints already
        reduced into [0, p), otherwise coordinate tuples with None for
        zero.  Makes no FieldElement."""
        return cls._of(_kernel(field), [tuple(r) for r in rows])

    @classmethod
    def identity(cls, field, n):
        k = _kernel(field)
        return cls._of(k, _identity_rows(k, n))

    @classmethod
    def zero(cls, field, nrows, ncols):
        k = _kernel(field)
        return cls._of(k, [(k.zero,) * ncols for _ in range(nrows)])

    @classmethod
    def from_scalars(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    @property
    def rows(self):
        """The entries as FieldElement, wrapped on first read."""
        try:
            return self._rows
        except AttributeError:
            wrap = self._k.wrap
            self._rows = tuple(tuple(map(wrap, r)) for r in self._unwrapped)
            return self._rows

    def _raw(self):
        """(kernel, raw rows); rows given as FieldElement are checked and
        unwrapped on first use."""
        try:
            return self._k, self._unwrapped
        except AttributeError:
            _check_field(self.field, self._rows)
            k = _kernel(self.field)
            raw = [k.unwrap(r) for r in self._rows]
            self._k, self._unwrapped = k, raw
            return k, raw

    def _operand(self, other, op):
        """The raw rows of ``other``, a matrix over this matrix's field."""
        if other.field is not self.field and other.field != self.field:
            raise TypeError(f"{op} of a matrix over {self.field!r} and one "
                            f"over {other.field!r}")
        return other._raw()[1]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return False
        if other.field is self.field:
            return self._raw()[1] == other._raw()[1]
        # equal fields built separately compare entry by entry, and
        # entries of different fields never compare equal
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.field, tuple(self._raw()[1])))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def _same_shape(self, other, op):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"{op} of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")

    def __add__(self, other):
        self._same_shape(other, "sum")
        rb = self._operand(other, "sum")
        k, ra = self._raw()
        add = k.add
        return Matrix._of(k, [tuple(map(add, a, b)) for a, b in zip(ra, rb)])

    def __sub__(self, other):
        self._same_shape(other, "difference")
        return self + (-other)

    def __neg__(self):
        k, ra = self._raw()
        neg = k.neg
        return Matrix._of(k, [tuple(map(neg, r)) for r in ra])

    def __mul__(self, other):
        k, ra = self._raw()
        if not isinstance(other, Matrix):
            (s,), mul_ = k.unwrap((self.field.one * other,)), k.mul
            return Matrix._of(k, [tuple([mul_(x, s) for x in r]) for r in ra])
        if self.ncols != other.nrows:
            raise ValueError(f"product of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
        cols = list(zip(*self._operand(other, "product")))
        dot = k.dot
        return Matrix._of(k, [tuple([dot(r, c) for c in cols]) for r in ra])

    def transpose(self) -> "Matrix":
        k, ra = self._raw()
        return Matrix._of(k, list(zip(*ra))) if ra else self

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of FieldElement."""
        k, ra = self._raw()
        _check_field(self.field, (vec,))
        dot, wrap = k.dot, k.wrap
        v = k.unwrap(vec)
        return tuple(wrap(dot(r, v)) for r in ra)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    @property
    def is_zero(self):
        return not any(map(any, self._raw()[1]))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError(f"hstack of {self.nrows} and {other.nrows} rows")
        rb = self._operand(other, "hstack")
        k, ra = self._raw()
        return Matrix._of(k, [a + b for a, b in zip(ra, rb)])

    def submatrix(self, row_lo, row_hi, col_lo, col_hi) -> "Matrix":
        k, ra = self._raw()
        return Matrix._of(k, [r[col_lo:col_hi] for r in ra[row_lo:row_hi]])

    # -- elimination --------------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form of the raw rows: (rows, pivot column
        list)."""
        k, rows = self._raw()
        return k.echelon(rows, self.ncols)

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self) -> List[tuple]:
        """Basis of the right kernel, as coordinate tuples."""
        rows, pivots = self._echelon()
        k = self._k
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        z, o = self.field.zero, self.field.one
        basis = []
        for fj in free:
            v = [z] * self.ncols
            v[fj] = o
            for pi, pc in enumerate(pivots):
                v[pc] = k.wrap(k.neg(rows[pi][fj]))
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError(f"inverse of a {n}x{self.ncols} matrix")
        k, ra = self._raw()
        aug = [r + e for r, e in zip(ra, _identity_rows(k, n))]
        rows, pivots = k.echelon(aug, n)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix._of(k, [tuple(r[n:]) for r in rows])

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]


def dot(a, b, field) -> FieldElement:
    """sum a_i b_i for sequences of FieldElement of ``field``."""
    _check_field(field, (a, b))
    k = _kernel(field)
    return k.wrap(k.dot(k.unwrap(a), k.unwrap(b)))


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
    z, wrap = field.zero, aug._k.wrap
    x0 = [z] * a.ncols
    for pi, pc in enumerate(pivots):
        x0[pc] = wrap(rows[pi][a.ncols])
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
