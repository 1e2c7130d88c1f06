"""Exact dense linear algebra over the fields of :mod:`isoflag.fields`.

Elimination is fraction-free only in the sense of being exact; pivoting always
picks the first nonzero entry top-down, so every result is deterministic.

A matrix's state is its raw rows, one kernel scalar per entry:

* GF(p): plain ints in [0, p), one ``% p`` per dot product;
* GF(p^m) with m > 1 and q <= ``TABLE_FIELD_MAX``: the field's ``encode``
  ints, 0 for zero, combined by log, antilog, addition and negation
  tables built from the field's own arithmetic on first use;
* any other field (Q, Q(sqrt r), larger GF(p^m)):
  coordinate tuples, None for zero, combined by the field's own ``add``,
  ``neg``, ``mul``, ``inv`` and ``dot``, skipping zero terms; a dot
  product of two or more terms is one ``field.dot``, which sums the
  products before it normalises.

So a raw zero is falsy and every other raw scalar is truthy.  A product
of two matrices is its kernel's ``matmul``:

* GF(p): dense, one C-level ``sum(map(mul, r, c)) % p`` per entry;
* the table and coordinate kernels: row by row over the nonzero entries
  only (F. G. Gustavson, *ACM TOMS* 4, 1978).  The nonzero (column, value)
  entries of each row of the right operand are listed once, the table
  kernel keeping the value's log, and each nonzero entry of a left row is
  combined with its list.  The coordinate kernel collects the terms of
  each output entry and forms it with one ``field.dot``, or one
  ``field.mul`` for a single term, so every sum is normalised once.

A matrix built by :meth:`Matrix.identity` is marked as such: a product
with it returns the other operand as it is when both are over one field
object, and its inverse and transpose return it, with no kernel call.

Products, sums, transposes, submatrices, ``hstack``, inverses, ranks,
``is_zero`` and ``==`` read and return raw rows and make no FieldElement.
Equal fields, one built twice included, share one raw encoding, so ``==``
compares the column count and the raw rows; over unequal fields it is
False.
``rows``, the entries as FieldElement of the matrix's own field, is a
view: it is wrapped on first read and kept (matrices are immutable).
``col``, ``apply``, ``nullspace`` and ``solve_linear`` return
FieldElement.  A matrix built from FieldElement rows unwraps them on first
use; a foreign entry or operand raises ``TypeError``.

Elimination is :func:`_pivot_loop` on a kernel's ``scale`` and
``eliminate``, or its column-wise twin :func:`bruhat_pivots`.  The raw-row
helpers serve ``Matrix`` and counting, whose int tuples are GF(p) raw rows.
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

def _pivot_loop(rows, k, ncols: int):
    """Reduced row echelon form of the first ``ncols`` columns of the raw
    rows ``rows`` of kernel k, reduced on a copy.

    Pivots on the first nonzero entry top-down, column by column, and
    stops once every row has a pivot; later columns (an augmented block)
    are carried along by k's ``scale`` and ``eliminate``.  Returns the
    rows, as lists, and the pivot columns: row i has a 1 at pivots[i] and
    zeros in every other pivot column.
    """
    rows = [list(r) for r in rows]
    scale, eliminate = k.scale, k.eliminate
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


def _kernel_basis(rows, pivots, k, ncols: int) -> List[tuple]:
    """The right kernel of an echelon form (``rows``, ``pivots``) of
    :func:`_pivot_loop` in its first ``ncols`` columns: one raw vector per
    free column."""
    pivot_set = set(pivots)
    basis = []
    for fj in range(ncols):
        if fj in pivot_set:
            continue
        v = [k.zero] * ncols
        v[fj] = k.one
        for row, pc in zip(rows, pivots):
            v[pc] = k.neg(row[fj])
        basis.append(tuple(v))
    return basis


def nullspace_rows(rows, k, ncols: int) -> List[tuple]:
    """Basis of the right kernel of the raw rows, as raw tuples."""
    return _kernel_basis(*_pivot_loop(rows, k, ncols), k, ncols)


def inverse_rows(rows, k) -> List[tuple]:
    """The raw rows of the inverse of the square matrix of raw ``rows``;
    ZeroDivisionError when it is singular."""
    n = len(rows)
    aug = [tuple(r) + e for r, e in zip(rows, _identity_rows(k, n))]
    echelon, pivots = _pivot_loop(aug, k, n)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [tuple(r[n:]) for r in echelon]


def bruhat_pivots(rows, k) -> Tuple[int, ...]:
    """The permutation w of the invertible matrix M of raw ``rows``, as a
    tuple column -> row: the pivot rows of M's columns under left-to-right
    column reduction with bottom-most pivots.

    The reduced columns span the same prefixes and have distinct bottom
    rows, so for the flags of the column prefixes of the identity and of
    M, dim(V_i cap V'_j) = #{c < j : w(c) < i}, as ``shapes.position_ok``
    reads it (R. W. Carter, *Finite Groups of Lie Type*, 1985).
    ZeroDivisionError when M is singular.
    """
    scale, eliminate = k.scale, k.eliminate
    pivots: List[int] = []
    kept = []
    for col in zip(*rows):
        for pk, prow in zip(pivots, kept):
            if col[pk]:
                col = eliminate(col, prow, pk)
        if not any(col):
            raise ZeroDivisionError("matrix is singular")
        piv = len(col) - 1
        while not col[piv]:
            piv -= 1
        kept.append(scale(col, col[piv]))
        pivots.append(piv)
    return tuple(pivots)


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

    def matmul(self, a, b, ncols):
        # dense: one C-level sum(map(mul)) per entry beats a Python walk
        # over the nonzero entries at these sizes
        p = self.p
        cols = list(zip(*b)) if b else [()] * ncols
        return [tuple([sum(map(mul, r, c)) % p for c in cols]) for r in a]

    def scale(self, row, x):
        p = self.p
        inv = pow(x, p - 2, p)
        return [y * inv % p for y in row]

    def eliminate(self, row, prow, c):
        f, p = row[c], self.p
        return [(x - f * y) % p for x, y in zip(row, prow)]


class _TableKernel:
    """GF(p^m), m > 1, q <= TABLE_FIELD_MAX: a raw scalar is the field's
    ``encode`` int, 0 for zero (Lidl & Niederreiter, *Finite Fields*, 1983).

    A product is an antilog lookup at the sum of two logs to the least
    primitive element; the antilog table is doubled, so no ``% (q - 1)``
    is needed.  Sums and negatives are lookups in a q x q addition table
    and a negation table.  Every table is built from the field's own
    ``add``, ``neg`` and ``mul``, once per field.
    """

    zero, one = 0, 1

    def __init__(self, field):
        q = field.q
        elems = [field.decode(n) for n in range(q)]
        self.field, self._order = field, q - 1
        self._elements = [FieldElement(field, c) for c in elems]
        self._code = code = {c: n for n, c in enumerate(elems)}
        self._add = [[code[field.add(a, b)] for b in elems] for a in elems]
        self._neg = [code[field.neg(a)] for a in elems]
        for g in elems[2:]:
            exp = self._powers(g)
            if len(set(exp)) == q - 1:  # g is primitive
                break
        # log[0] stays None: zero has no log, and a lookup with it raises
        self._log = [None] * q
        for k, n in enumerate(exp):
            self._log[n] = k
        self._exp = exp + exp

    def _powers(self, g):
        """The codes of g^0, ..., g^(q-2)."""
        field, powers, x = self.field, [], self.field.one.coords
        for _ in range(self._order):
            powers.append(self._code[x])
            x = field.mul(x, g)
        return powers

    def unwrap(self, xs):
        code = self._code
        return tuple([code[x.coords] for x in xs])

    def wrap(self, v):
        return self._elements[v]

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self._log
        return self._exp[log[a] + log[b]]

    def dot(self, a, b):
        log, exp, add = self._log, self._exp, self._add
        s = 0
        for x, y in zip(a, b):
            if x and y:
                s = add[s][exp[log[x] + log[y]]]
        return s

    def matmul(self, a, b, ncols):
        log, exp, add = self._log, self._exp, self._add
        # the nonzero (column, log) entries of each row of b, listed once
        logs = [[(j, log[y]) for j, y in enumerate(r) if y] for r in b]
        out = []
        for r in a:
            acc = [0] * ncols
            for x, entries in zip(r, logs):
                if x:
                    lx = log[x]
                    for j, ly in entries:
                        acc[j] = add[acc[j]][exp[lx + ly]]
            out.append(tuple(acc))
        return out

    def scale(self, row, x):
        log, exp = self._log, self._exp
        s = self._order - log[x]  # the log of 1/x
        return [exp[log[y] + s] if y else 0 for y in row]

    def eliminate(self, row, prow, c):
        log, exp, add = self._log, self._exp, self._add
        f = log[self._neg[row[c]]]
        return [add[x][exp[f + log[y]]] if y else x
                for x, y in zip(row, prow)]


class _CoordKernel:
    """Any other field: a raw scalar is None for zero, else its coordinate
    tuple, combined by the field's ``add``, ``neg``, ``mul``, ``inv`` and
    ``dot``, which only ever see nonzero scalars here."""

    zero = None

    def __init__(self, field):
        self.field, self._zero_coords = field, field.zero.coords
        self.one = field.one.coords

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

    def matmul(self, a, b, ncols):
        field = self.field
        # the nonzero (column, value) entries of each row of b, listed once
        nonzero = [[(j, y) for j, y in enumerate(r) if y is not None]
                   for r in b]
        out = []
        for r in a:
            # the terms of each output entry, in inner-index order
            terms = [None] * ncols
            for x, entries in zip(r, nonzero):
                if x is not None:
                    for j, y in entries:
                        t = terms[j]
                        if t is None:
                            terms[j] = ([x], [y])
                        else:
                            t[0].append(x)
                            t[1].append(y)
            row = []
            for t in terms:
                if t is None:
                    row.append(None)
                elif len(t[0]) == 1:
                    row.append(field.mul(t[0][0], t[1][0]))
                else:
                    s = field.dot(*t)
                    row.append(s if any(s) else None)
            out.append(tuple(row))
        return out

    def scale(self, row, x):
        s, mul_ = self.field.inv(x), self.field.mul
        return [y if y is None else mul_(y, s) for y in row]

    def eliminate(self, row, prow, c):
        f, add, mul_ = self.field.neg(row[c]), self.add, self.field.mul
        return [x if y is None else add(x, mul_(f, y))
                for x, y in zip(row, prow)]


#: GF(p^m) with m > 1 runs on log tables up to this order; the addition
#: table has q^2 entries.
TABLE_FIELD_MAX = 256


def scalar_kernel(field):
    """The raw-scalar kernel of ``field``: ints mod p over GF(p), table
    ints over GF(p^m) with m > 1 and q <= TABLE_FIELD_MAX, else coordinate
    tuples.  A field keeps its kernel as ``_kernel`` from the first call
    on, so every call returns the same one, and a field no matrix touches
    builds no tables."""
    try:
        return field._kernel
    except AttributeError:
        pass
    if field.is_finite and field.m == 1:
        kind = _ModKernel
    elif field.is_finite and field.q <= TABLE_FIELD_MAX:
        kind = _TableKernel
    else:
        kind = _CoordKernel
    field._kernel = kind(field)
    return field._kernel


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
    ``rows`` view as given; every operation returns a raw-backed matrix,
    or an operand as it is.  Only :meth:`identity` sets the mark ``_eye``,
    which products, inverses and transposes read to do so.
    """

    __slots__ = ("field", "nrows", "ncols", "_k", "_unwrapped", "_rows",
                 "_eye")

    def __init__(self, field, rows):
        self.field, self._eye = field, False
        self._rows = tuple(tuple(rows_i) for rows_i in rows)
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        if any(len(r) != self.ncols for r in self._rows):
            raise ValueError("ragged rows")

    @classmethod
    def _of(cls, k, raw, ncols):
        """The matrix over ``k.field`` whose raw rows are ``raw``, a list of
        tuples of k's scalars, each ``ncols`` long; so a matrix with no
        rows keeps its column count."""
        m = cls.__new__(cls)
        m.field, m._k, m._unwrapped, m._eye = k.field, k, raw, False
        m.nrows, m.ncols = len(raw), ncols
        return m

    @classmethod
    def from_raw(cls, field, rows, ncols):
        """The matrix with ``ncols`` columns whose raw rows are ``rows``,
        scalars of the field's kernel (see :func:`scalar_kernel`): over
        GF(p) ints already reduced into [0, p).  Makes no FieldElement."""
        return cls._of(scalar_kernel(field), [tuple(r) for r in rows], ncols)

    @classmethod
    def identity(cls, field, n):
        k = scalar_kernel(field)
        m = cls._of(k, _identity_rows(k, n), n)
        m._eye = True
        return m

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
            k = scalar_kernel(self.field)
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
        # equal fields share one raw encoding; unequal ones never compare
        # equal
        return (isinstance(other, Matrix) and other.field == self.field
                and self.ncols == other.ncols
                and self._raw()[1] == other._raw()[1])

    def __hash__(self):
        return hash((self.field, self.ncols, tuple(self._raw()[1])))

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
        return Matrix._of(k, [tuple(map(add, a, b)) for a, b in zip(ra, rb)],
                          self.ncols)

    def __sub__(self, other):
        self._same_shape(other, "difference")
        return self + (-other)

    def __neg__(self):
        k, ra = self._raw()
        neg = k.neg
        return Matrix._of(k, [tuple(map(neg, r)) for r in ra], self.ncols)

    def __mul__(self, other):
        k, ra = self._raw()
        if not isinstance(other, Matrix):
            (s,), mul_ = k.unwrap((self.field.one * other,)), k.mul
            return Matrix._of(k, [tuple([mul_(x, s) for x in r]) for r in ra],
                              self.ncols)
        if self.ncols != other.nrows:
            raise ValueError(f"product of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
        rb = self._operand(other, "product")
        if other.field is self.field:
            if other._eye:
                return self
            if self._eye:
                return other
        return Matrix._of(k, k.matmul(ra, rb, other.ncols), other.ncols)

    def transpose(self) -> "Matrix":
        if self._eye:
            return self
        k, ra = self._raw()
        cols = list(zip(*ra)) if ra else [()] * self.ncols
        return Matrix._of(k, cols, self.nrows)

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
        return Matrix._of(k, [a + b for a, b in zip(ra, rb)],
                          self.ncols + other.ncols)

    def submatrix(self, row_lo, row_hi, col_lo, col_hi) -> "Matrix":
        k, ra = self._raw()
        return Matrix._of(k, [r[col_lo:col_hi] for r in ra[row_lo:row_hi]],
                          len(range(self.ncols)[col_lo:col_hi]))

    # -- elimination --------------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form of the raw rows: (rows, pivot column
        list)."""
        k, rows = self._raw()
        return _pivot_loop(rows, k, self.ncols)

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self) -> List[tuple]:
        """Basis of the right kernel, as tuples of FieldElement."""
        k, rows = self._raw()
        return [tuple(map(k.wrap, v))
                for v in nullspace_rows(rows, k, self.ncols)]

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError(f"inverse of a {self.nrows}x{self.ncols} matrix")
        if self._eye:
            return self
        k, rows = self._raw()
        return Matrix._of(k, inverse_rows(rows, k), self.ncols)

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]


def dot(a, b, field) -> FieldElement:
    """sum a_i b_i for sequences of FieldElement of ``field``."""
    _check_field(field, (a, b))
    k = scalar_kernel(field)
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
    k = aug._k
    x0 = [field.zero] * a.ncols
    for row, pc in zip(rows, pivots):
        x0[pc] = k.wrap(row[a.ncols])
    # with b no pivot, the first ncols columns are the echelon form of A
    kernel = [tuple(map(k.wrap, v))
              for v in _kernel_basis(rows, pivots, k, a.ncols)]
    if kernel:
        return Affine(tuple(x0), kernel)
    return Unique(tuple(x0))


# -- Jordan data ------------------------------------------------------------

def image_chain_ranks(rows, k) -> List[int]:
    """The ranks r_k = rank(N^k), k = 0, 1, ..., of the square matrix N
    given by its raw ``rows``, up to the first 0, or up to the first
    r_(k+1) = r_k > 0, where N is not nilpotent; so N is nilpotent iff the
    last rank is 0.

    The ranks come from a shrinking image chain rather than full powers:
    M_1 = N, and the pivot columns B_k of M_k are a basis of im N^k, so
    M_(k+1) = N B_k, a nu x r_k product, spans im N^(k+1), eliminated
    and multiplied by the kernel k of the raw rows.
    """
    ranks, image, dot = [len(rows)], rows, k.dot
    while ranks[-1]:
        pivots = _pivot_loop(image, k, len(image[0]))[1]
        ranks.append(len(pivots))
        if ranks[-1] == ranks[-2]:
            break
        basis = [[r[c] for r in image] for c in pivots]
        image = [[dot(row, b) for b in basis] for row in rows]
    return ranks


def nilpotent_jordan_multiset(n: Matrix) -> Counter:
    """Jordan block sizes of a nilpotent matrix, as a Counter {size: count},
    from :func:`image_chain_ranks`.  Raises NotNilpotent when the ranks
    stall above 0."""
    if n.nrows != n.ncols:
        raise ValueError(f"Jordan type of a {n.nrows}x{n.ncols} matrix")
    k, rows = n._raw()
    ranks = image_chain_ranks(rows, k)
    if ranks[-1]:
        e = len(ranks) - 1
        raise NotNilpotent(f"rank(N^{e - 1}) = rank(N^{e}) = {ranks[-1]}, "
                           f"not 0")
    return jordan_from_ranks(ranks)
