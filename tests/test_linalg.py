import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from isoflag import linalg, model
from isoflag.cases import cuts_for, partitions_up_to
from isoflag.fields import RATIONALS, FiniteField, get_finite_field
from isoflag.linalg import (TABLE_FIELD_MAX, Affine, Matrix, NoSolution,
                            NotNilpotent, Unique, _CoordKernel, _ModKernel,
                            _TableKernel, nilpotent_jordan_multiset,
                            scalar_kernel, solve_linear)
from isoflag.shapes import jordan_from_ranks
from dense import dense_shear

GF5 = get_finite_field(5)
GF7 = get_finite_field(7)
GF4 = get_finite_field(2, 2)
GF9 = get_finite_field(3, 2)
GF8 = get_finite_field(2, 3)
GF49 = get_finite_field(7, 2)
# above TABLE_FIELD_MAX, so on the coordinate kernel like the towers
GF289 = get_finite_field(17, 2)
Q2 = RATIONALS.extend((Fraction(2),))
QM4 = RATIONALS.extend((Fraction(-4),))
KERNEL_FIELDS = {"GF5": GF5, "GF4": GF4, "GF8": GF8, "GF9": GF9,
                 "GF49": GF49, "GF289": GF289, "Q": RATIONALS, "Q2": Q2,
                 "QM4": QM4}
TABLE_FIELDS = {"GF4": GF4, "GF8": GF8, "GF9": GF9, "GF49": GF49}
# the kernel oracles run every phase but the shrink: a broken kernel fails
# many examples, and shrinking them took minutes before the first message
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


def gf5_matrix(n, m):
    return st.lists(
        st.lists(st.integers(0, 4), min_size=m, max_size=m),
        min_size=n, max_size=n,
    ).map(lambda rows: Matrix.from_scalars(GF5, rows))


def coords(field):
    """Coordinates of ``field``, zero about half the time; over Q(sqrt r)
    each half is a coordinate, so zero sqrt halves are common."""
    if field.is_finite:
        return st.one_of(st.just(0), st.integers(1, field.q - 1)).map(
            field.decode)
    small = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
    return st.tuples(*[small] * field.dim)


def matrix(field, n, m):
    entry = coords(field).map(field.element)
    return st.lists(st.lists(entry, min_size=m, max_size=m),
                    min_size=n, max_size=n).map(
        lambda rows: Matrix(field, rows))


def sparse_matrix(field, n, m):
    """Like ``matrix``, with about three entries in four drawn zero and
    the rest nonzero, as sparse as the model's operands."""
    nonzero = coords(field).filter(any).map(field.element)
    entry = st.integers(0, 3).flatmap(
        lambda z: nonzero if z == 0 else st.just(field.zero))
    return st.lists(st.lists(entry, min_size=m, max_size=m),
                    min_size=n, max_size=n).map(
        lambda rows: Matrix(field, rows))


def empty_rows(field, m):
    """The 0 x m matrix."""
    return Matrix.identity(field, m).submatrix(0, 0, 0, m)


def shape(a):
    return a.nrows, a.ncols


# -- schoolbook reference on FieldElement operators ---------------------------

def ref_dot(a, b, field):
    acc = field.zero
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def ref_mul(a, b):
    return [[ref_dot(r, c, a.field) for c in zip(*b.rows)] for r in a.rows]


def ref_rref(rows, field):
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        pr = len(pivots)
        sel = next((i for i in range(pr, len(rows)) if rows[i][c] != 0),
                   None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = field.one / rows[pr][c]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(c)
    return rows, pivots


def ref_nullspace(a):
    rows, pivots = ref_rref(a.rows, a.field)
    basis = []
    for free in (j for j in range(a.ncols) if j not in pivots):
        v = [a.field.zero] * a.ncols
        v[free] = a.field.one
        for row, pc in zip(rows, pivots):
            v[pc] = -row[free]
        basis.append(tuple(v))
    return basis


class TestBasics:
    def test_identity_and_mul(self):
        a = Matrix.from_scalars(RATIONALS, [[1, 2], [3, 4]])
        i = Matrix.identity(RATIONALS, 2)
        assert a * i == a and i * a == a

    def test_inverse_round_trip(self):
        a = Matrix.from_scalars(RATIONALS, [[2, 1], [1, 1]])
        assert a * a.inverse() == Matrix.identity(RATIONALS, 2)

    def test_singular_inverse_raises(self):
        a = Matrix.from_scalars(RATIONALS, [[1, 2], [2, 4]])
        with pytest.raises(ZeroDivisionError):
            a.inverse()

    def test_rank_examples(self):
        assert Matrix.from_scalars(RATIONALS, [[1, 2], [2, 4]]).rank() == 1
        assert Matrix.from_scalars(GF5, [[1, 2], [2, 4]]).rank() == 1
        # 2*2 = 4 = -1 mod 5; [[1,2],[2,-1]] has rank 2 over Q but this is GF5
        assert Matrix.from_scalars(GF5, [[1, 2], [2, 3]]).rank() == 2


class TestSolve:
    def test_unique(self):
        a = Matrix.from_scalars(RATIONALS, [[1, 1], [1, -1]])
        sol = solve_linear(a, [RATIONALS.from_int(3), RATIONALS.from_int(1)])
        assert isinstance(sol, Unique)
        assert sol.x == (RATIONALS.from_int(2), RATIONALS.one)

    def test_no_solution(self):
        a = Matrix.from_scalars(RATIONALS, [[1, 1], [1, 1]])
        sol = solve_linear(a, [RATIONALS.one, RATIONALS.from_int(2)])
        assert isinstance(sol, NoSolution)

    def test_affine(self):
        a = Matrix.from_scalars(RATIONALS, [[1, 1]])
        sol = solve_linear(a, [RATIONALS.from_int(2)])
        assert isinstance(sol, Affine)
        assert len(sol.kernel) == 1

    @given(gf5_matrix(3, 3), st.lists(st.integers(0, 4), min_size=3,
                                      max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_solutions_actually_solve(self, a, b_ints):
        b = [GF5.from_int(x) for x in b_ints]
        sol = solve_linear(a, b)
        if isinstance(sol, NoSolution):
            aug = a.hstack(Matrix(GF5, [[x] for x in b]))
            assert aug.rank() == a.rank() + 1
        else:
            x = sol.x if isinstance(sol, Unique) else sol.x0
            assert list(a.apply(x)) == list(b)
            if isinstance(sol, Affine):
                for k in sol.kernel:
                    assert all(v.is_zero for v in a.apply(k))

    @given(gf5_matrix(3, 4))
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, a):
        assert a.rank() + len(a.nullspace()) == a.ncols


class TestJordan:
    def test_spec_example_rank_one_square_zero(self):
        n = Matrix.from_scalars(RATIONALS, [[-1, -1], [1, 1]])
        assert nilpotent_jordan_multiset(n) == Counter({2: 1})

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotent_jordan_multiset(Matrix.identity(RATIONALS, 2))
        # nilpotent on the first two coordinates only: the rank sequence
        # 2, 1, 1 stalls above zero
        partly = Matrix.from_scalars(RATIONALS,
                                     [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(NotNilpotent):
            nilpotent_jordan_multiset(partly)

    def test_single_block(self):
        n = Matrix.from_scalars(RATIONALS, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotent_jordan_multiset(n) == Counter({3: 1})

    def test_zero_matrix(self):
        n = Matrix.from_scalars(RATIONALS, [[0] * 3] * 3)
        assert nilpotent_jordan_multiset(n) == Counter({1: 3})

    @given(gf5_matrix(4, 4))
    @settings(max_examples=40, deadline=None)
    def test_strict_triangular_part(self, a):
        # strictly upper-triangular truncation is always nilpotent
        rows = [[x if j > i else GF5.zero for j, x in enumerate(r)]
                for i, r in enumerate(a.rows)]
        n = Matrix(GF5, rows)
        jordan = nilpotent_jordan_multiset(n)
        assert sum(s * c for s, c in jordan.items()) == 4
        assert all(c > 0 for c in jordan.values())

    @given(gf5_matrix(4, 4), gf5_matrix(4, 4))
    @settings(max_examples=30, deadline=None)
    def test_conjugation_invariance(self, n, p):
        rows = [[x if j > i else GF5.zero for j, x in enumerate(r)]
                for i, r in enumerate(n.rows)]
        n = Matrix(GF5, rows)
        if p.rank() < 4:
            return
        assert nilpotent_jordan_multiset(p * n * p.inverse()) == \
            nilpotent_jordan_multiset(n)


def power_rank_jordan(n):
    """The Jordan multiset by the former rule, from the ranks of full
    powers N^k = N^(k-1) N: the reference for the image chain."""
    dim = n.nrows
    ranks = [dim]
    power = Matrix.identity(n.field, dim)
    while ranks[-1]:
        assert len(ranks) <= dim, "not nilpotent"
        power = power * n
        ranks.append(power.rank())
    return jordan_from_ranks(ranks)


def jordan_matrix(field, sizes):
    """The nilpotent matrix with one shift block per size, in order."""
    nu = sum(sizes)
    ones = set()
    start = 0
    for size in sizes:
        ones.update((i, i + 1) for i in range(start, start + size - 1))
        start += size
    return Matrix(field, [[field.one if (i, j) in ones else field.zero
                           for j in range(nu)] for i in range(nu)])


class TestImageChainOracle:
    """The image chain against the power-rank rule it replaced."""

    def test_sweep_models(self, model_sweep):
        for m in model_sweep.values():
            n = m.g - Matrix.identity(m.field, m.space.dim)
            assert nilpotent_jordan_multiset(n) == power_rank_jordan(n)

    def test_split_check_blocks(self, model_sweep, monkeypatch):
        blocks = []

        def recording(n):
            blocks.append(n)
            return nilpotent_jordan_multiset(n)
        monkeypatch.setattr(model, "nilpotent_jordan_multiset", recording)
        for (_parts, _k, mode, _name), m in model_sweep.items():
            for cut in cuts_for(m.shape, mode):
                assert model.split_check(m, cut)["pass"]
        assert len(blocks) > 200
        for n in blocks:
            assert nilpotent_jordan_multiset(n) == power_rank_jordan(n)

    @pytest.mark.parametrize("field", [RATIONALS, GF5, GF7, GF4, Q2],
                             ids=["Q", "GF5", "GF7", "GF4", "Q2"])
    def test_dense_conjugates(self, field):
        for parts in partitions_up_to(6):
            n = jordan_matrix(field, parts)
            p = dense_shear(field, n.nrows)
            conj = p * n * p.inverse()
            assert nilpotent_jordan_multiset(conj) == \
                power_rank_jordan(conj) == Counter(parts)


class TestKernelOracle:
    """Every kernel path against the schoolbook reference above."""

    @given(st.data(), st.sampled_from(sorted(KERNEL_FIELDS)),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=120, deadline=None, phases=NO_SHRINK)
    def test_product_and_apply(self, data, name, n, k, m):
        field = KERNEL_FIELDS[name]
        a = data.draw(matrix(field, n, k))
        b = data.draw(matrix(field, k, m))
        product = a * b
        assert [list(r) for r in product.rows] == ref_mul(a, b)
        assert all(x.field is field for r in product.rows for x in r)
        v = b.col(0)
        assert list(a.apply(v)) == [ref_dot(r, v, field) for r in a.rows]

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    @given(st.data(), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 5))
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    def test_sparse_product(self, name, data, n, k, m):
        # the nonzero walks of matmul against the schoolbook product, on
        # operands mostly zero, so rows with one term or none are common
        field = KERNEL_FIELDS[name]
        a = data.draw(sparse_matrix(field, n, k))
        b = data.draw(st.sampled_from([sparse_matrix, matrix]).flatmap(
            lambda draw: draw(field, k, m)))
        product = a * b
        assert [list(r) for r in product.rows] == ref_mul(a, b)
        assert shape(product) == (n, m)
        assert all(x.field is field for r in product.rows for x in r)
        assert [list(r) for r in (b.transpose() * a.transpose()).rows] == \
            [list(c) for c in zip(*ref_mul(a, b))]

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    @given(st.data(), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=15, deadline=None, phases=NO_SHRINK)
    def test_identity_operand(self, name, data, n, m):
        # a marked identity returns the other operand as it is; an
        # identity built entry by entry goes through matmul and agrees
        field = KERNEL_FIELDS[name]
        a = data.draw(st.sampled_from([sparse_matrix, matrix]).flatmap(
            lambda draw: draw(field, n, m)))
        left, right = Matrix.identity(field, n), Matrix.identity(field, m)
        assert left * a is a and a * right is a
        want = [list(r) for r in a.rows]
        assert [list(r) for r in (Matrix(field, left.rows) * a).rows] == want
        assert [list(r) for r in (a * Matrix(field, right.rows)).rows] == want
        assert left.inverse() is left and left.transpose() is left

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_empty_inner_dimension(self, name):
        # a k x 0 times a 0 x m matrix is the k x m zero matrix
        field = KERNEL_FIELDS[name]
        for k, m in ((1, 1), (3, 2), (2, 4), (3, 3)):
            a, b = Matrix(field, [[] for _ in range(k)]), empty_rows(field, m)
            assert shape(a) == (k, 0) and shape(b) == (0, m)
            product = a * b
            assert shape(product) == (k, m) and product.is_zero
            assert [list(r) for r in product.rows] == [[field.zero] * m] * k
            # the transposes, m x 0 and 0 x k, give the m x k zero matrix
            other = b.transpose() * a.transpose()
            assert shape(other) == (m, k) and other.is_zero

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_identity_makes_no_kernel_call(self, name, monkeypatch):
        field = KERNEL_FIELDS[name]
        calls = []
        kind, inverse_rows = type(scalar_kernel(field)), linalg.inverse_rows
        matmul = kind.matmul
        monkeypatch.setattr(kind, "matmul", lambda k, *args: calls.append(
            "matmul") or matmul(k, *args))
        monkeypatch.setattr(linalg, "inverse_rows", lambda *args: calls.append(
            "inverse") or inverse_rows(*args))
        eye = Matrix.identity(field, 3)
        a = Matrix.from_scalars(field, [[1, 2, 0], [0, 1, 1], [0, 0, 1]])
        assert eye * a is a and a * eye is a and eye * eye is eye
        assert eye.inverse() is eye
        assert calls == []
        # an identity built entry by entry carries no mark
        plain = Matrix(field, eye.rows)
        assert plain * a == a and plain.inverse() == eye
        assert calls == ["matmul", "inverse"]

    @given(st.data(), st.sampled_from(sorted(KERNEL_FIELDS)),
           st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=120, deadline=None, phases=NO_SHRINK)
    def test_elimination(self, data, name, n, m):
        field = KERNEL_FIELDS[name]
        a = data.draw(matrix(field, n, m))
        pivots = ref_rref(a.rows, field)[1]
        assert a.rank() == len(pivots)
        assert a.nullspace() == ref_nullspace(a)
        b = data.draw(matrix(field, n, 1)).col(0)
        sol = solve_linear(a, b)
        aug_rows, aug_pivots = ref_rref(
            [list(r) + [x] for r, x in zip(a.rows, b)], field)
        if m in aug_pivots:
            assert isinstance(sol, NoSolution)
        else:
            x0 = [field.zero] * m
            for row, pc in zip(aug_rows, aug_pivots):
                x0[pc] = row[m]
            assert (sol.x if isinstance(sol, Unique) else sol.x0) == \
                tuple(x0)
            assert isinstance(sol, Unique) == (len(pivots) == m)
        if n == m:
            if len(pivots) < n:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
            else:
                inv = a.inverse()
                assert ref_mul(a, inv) == \
                    [list(r) for r in Matrix.identity(field, n).rows]

    @given(st.data(), st.sampled_from(sorted(KERNEL_FIELDS)),
           st.integers(1, 3),
           st.lists(st.sampled_from(["mul", "transpose", "submatrix",
                                     "hstack", "inverse"]),
                    min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None, phases=NO_SHRINK)
    def test_raw_chain_matches_wrapped(self, data, name, size, ops):
        # each step runs on raw rows; equality, hash, is_zero and rank are
        # read before the rows view is first wrapped.  The chain starts
        # square, so that inverses are reached.
        field = KERNEL_FIELDS[name]
        a = data.draw(matrix(field, size, size))
        ref = [list(r) for r in a.rows]
        for op in ops:
            n, m = len(ref), len(ref[0])
            if op == "mul":
                b = data.draw(matrix(field, m, data.draw(st.integers(1, 3))))
                a, ref = a * b, ref_mul(Matrix(field, ref), b)
            elif op == "transpose":
                a, ref = a.transpose(), [list(c) for c in zip(*ref)]
            elif op == "submatrix":
                r0 = data.draw(st.integers(0, n - 1))
                r1 = data.draw(st.integers(r0 + 1, n))
                c0 = data.draw(st.integers(0, m - 1))
                c1 = data.draw(st.integers(c0 + 1, m))
                a = a.submatrix(r0, r1, c0, c1)
                ref = [r[c0:c1] for r in ref[r0:r1]]
            elif op == "hstack":
                b = data.draw(matrix(field, n, data.draw(st.integers(1, 2))))
                a = a.hstack(b)
                ref = [r + list(rb) for r, rb in zip(ref, b.rows)]
            elif n == m:
                eye = [[field.one if i == j else field.zero
                        for j in range(n)] for i in range(n)]
                rows, pivots = ref_rref([r + e for r, e in zip(ref, eye)],
                                        field)
                if pivots[:n] != list(range(n)):
                    with pytest.raises(ZeroDivisionError):
                        a.inverse()
                    continue
                a, ref = a.inverse(), [r[n:] for r in rows]
            wrapped = Matrix(field, ref)
            assert a == wrapped and wrapped == a
            assert hash(a) == hash(wrapped)
            assert a.is_zero == all(x.is_zero for r in ref for x in r)
            assert a.rank() == len(ref_rref(ref, field)[1])
            assert [list(r) for r in a.rows] == ref
            assert all(x.field is field for r in a.rows for x in r)

    @pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
    def test_product_forms_every_sum(self, name):
        # the examples above rarely form one given sum of a table field;
        # row [x, y] times the column [1, 1] is x + y, for every pair
        field = TABLE_FIELDS[name]
        xs = [field.element(field.decode(n)) for n in range(field.q)]
        pairs = Matrix(field, [[x, y] for x in xs for y in xs])
        ones = Matrix(field, [[field.one], [field.one]])
        assert [r[0] for r in (pairs * ones).rows] == \
            [x + y for x in xs for y in xs]

    def test_equal_ints_over_other_fields_differ(self):
        a5, a7 = (Matrix.from_scalars(f, [[1, 1], [0, 1]])
                  for f in (GF5, GF7))
        assert a5 != a7
        # raw-backed on both sides, with equal raw ints
        for x5, x7 in ((Matrix.identity(GF5, 2), Matrix.identity(GF7, 2)),
                       (a5 * a5, a7 * a7),
                       (a5.transpose(), a7.transpose())):
            assert [[x.coords for x in r] for r in x5.rows] == \
                [[x.coords for x in r] for r in x7.rows]
            assert x5 != x7 and x7 != x5
        gf3 = get_finite_field(3)
        x3, x5 = (Matrix.from_raw(f, [(1, 2), (0, 1)], 2) for f in (gf3, GF5))
        assert x3._raw()[1] == x5._raw()[1] and x3 != x5 and x5 != x3

    def test_twin_fields_compare_equal(self):
        twin = RATIONALS.extend((Fraction(2),))
        assert twin is not Q2
        s2, t2 = Q2.element((0, 1)), twin.element((0, 1))
        a = Matrix(Q2, [[s2, Q2.one], [Q2.zero, s2]])
        b = Matrix(twin, [[t2, twin.one], [twin.zero, t2]])
        assert a == b and hash(a) == hash(b)
        assert a * a == b * b and hash(a * a) == hash(b * b)
        assert a.inverse() == b.inverse()
        assert Matrix.identity(Q2, 2) == Matrix.identity(twin, 2)
        assert a * a != b
        # equal fields share one raw encoding: == wraps no entry
        raw = [[(0, 1), (1, 0)], [None, (Fraction(1, 2), 1)]]
        c, d = Matrix.from_raw(Q2, raw, 2), Matrix.from_raw(twin, raw, 2)
        assert c == d and hash(c) == hash(d)
        for m in (c, d):
            with pytest.raises(AttributeError):
                m._rows

    def test_foreign_field_raises(self):
        s2 = Q2.element((0, 1))
        b = Matrix(Q2, [[s2, Q2.one], [Q2.zero, s2]])
        # a product of matrices over Q and Q(sqrt2)
        a = Matrix.from_scalars(RATIONALS, [[1, 2], [0, 3]])
        with pytest.raises(TypeError, match="over TowerField"):
            a * b
        # a Q(sqrt2) matrix holding Q entries
        mixed = Matrix(Q2, [[RATIONALS.one, s2], [s2, RATIONALS.zero]])
        with pytest.raises(TypeError, match=r"radicands=\[\]"):
            mixed * mixed
        with pytest.raises(TypeError, match=r"radicands=\[\]"):
            mixed.rank()
        # an operand that is no FieldElement
        with pytest.raises(TypeError, match="1 is not an element"):
            b.apply((1, 1))
        # an equal field built separately is the same field
        twin = RATIONALS.extend((Fraction(2),))
        assert twin is not Q2
        c = Matrix(twin, [[twin.one, twin.zero], [twin.zero, twin.one]])
        assert b * c == b

    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.integers(0, 6), min_size=m, max_size=m),
        min_size=1, max_size=4)))
    @settings(max_examples=80, deadline=None)
    def test_gf7_rank_counts_row_span(self, gf_rows):
        # independent of elimination: the row span, listed as every
        # combination of the rows, has exactly 7^rank vectors
        a = Matrix.from_scalars(GF7, gf_rows)
        rank = a.rank()
        span = {tuple(sum(c * x for c, x in zip(coeffs, col)) % 7
                      for col in zip(*gf_rows))
                for coeffs in product(range(7), repeat=len(gf_rows))}
        assert len(span) == 7 ** rank
        kernel = a.nullspace()
        assert len(kernel) == a.ncols - rank
        for v in kernel:
            assert all(x.is_zero for x in a.apply(v))


class TestTableKernel:
    """The log-table kernel of GF(p^m) against the field's coordinate
    arithmetic, on every pair of elements."""

    @pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
    def test_tables_match_field(self, name):
        field = TABLE_FIELDS[name]
        k, q = scalar_kernel(field), field.q
        assert isinstance(k, _TableKernel)
        # the antilog table lists every nonzero code once, doubled, and
        # log inverts it
        antilog = k._exp[:q - 1]
        assert sorted(antilog) == list(range(1, q))
        assert k._exp == antilog + antilog
        assert [k._log[n] for n in antilog] == list(range(q - 1))
        xs = [field.decode(n) for n in range(q)]
        for a, x in enumerate(xs):
            assert a == field.encode(x)
            assert k.wrap(a).coords == x and k.unwrap([k.wrap(a)]) == (a,)
            assert k.neg(a) == field.encode(field.neg(x))
            if a:
                assert k.scale([a, 1], a) == [1, field.encode(field.inv(x))]
            for b, y in enumerate(xs):
                assert k.add(a, b) == field.encode(field.add(x, y))
                assert k.mul(a, b) == field.encode(field.mul(x, y))

    def test_kernel_kept_and_tables_lazy(self, monkeypatch):
        adds = []
        real = FiniteField.add

        def counted_add(field, a, b):
            adds.append(1)
            return real(field, a, b)
        monkeypatch.setattr(FiniteField, "add", counted_add)
        # a GF(49) of its own, since the cached one may have its tables
        # already; making it and reading its zero and one build none
        field = FiniteField(7, 2)
        assert field.zero.is_zero and field.one == GF49.one
        assert not adds
        k = scalar_kernel(field)
        assert isinstance(k, _TableKernel) and len(adds) == 49 * 49
        assert scalar_kernel(field) is k and len(adds) == 49 * 49
        assert scalar_kernel(GF49) is scalar_kernel(GF49)
        kinds = {GF5: _ModKernel, GF4: _TableKernel, GF289: _CoordKernel,
                 RATIONALS: _CoordKernel, Q2: _CoordKernel}
        for f, kind in kinds.items():
            assert type(scalar_kernel(f)) is kind
        assert GF289.q > TABLE_FIELD_MAX >= GF49.q


def fold_dot(field, xs, ys):
    """sum x_i y_i on coordinate tuples by the field's add and mul."""
    acc = field.zero.coords
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def assert_same_coords(got, want):
    """Equal coordinates of one type: Fraction or int, never a mix."""
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


class TestFieldDot:
    """field.dot, which normalises once, against the schoolbook fold."""

    @given(st.data(), st.sampled_from(sorted(KERNEL_FIELDS)),
           st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_matches_fold(self, data, name, n):
        field = KERNEL_FIELDS[name]
        xs = [data.draw(coords(field)) for _ in range(n)]
        ys = [data.draw(coords(field)) for _ in range(n)]
        assert_same_coords(field.dot(xs, ys), fold_dot(field, xs, ys))

    @given(st.data(), st.sampled_from(sorted(KERNEL_FIELDS)),
           st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_cancelling_terms_give_canonical_zero(self, data, name, n):
        field = KERNEL_FIELDS[name]
        xs = [data.draw(coords(field)) for _ in range(n)]
        ys = [data.draw(coords(field)) for _ in range(n)]
        got = field.dot(xs + [field.neg(x) for x in xs], ys + ys)
        assert_same_coords(got, field.zero.coords)
        if not field.is_finite:
            assert all(c.denominator == 1 for c in got)

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_empty_is_zero(self, name):
        field = KERNEL_FIELDS[name]
        assert_same_coords(field.dot([], []), field.zero.coords)

    @pytest.mark.parametrize("name", ["Q", "Q2", "QM4"])
    def test_denominators_not_dividing(self, name):
        # 1/6 * 3/4 + 5/9 = 49/72 in every coordinate, and in the sqrt
        # halves against a rational y
        field = KERNEL_FIELDS[name]
        zero = (Fraction(0),) * field.dim

        def at(pos, c):
            return zero[:pos] + (Fraction(c),) + zero[pos + 1:]
        for pos in range(field.dim):
            xs = [at(pos, Fraction(1, 6)), at(pos, Fraction(5, 9))]
            ys = [at(0, Fraction(3, 4)), at(0, 1)]
            got = field.dot(xs, ys)
            assert_same_coords(got, fold_dot(field, xs, ys))
            assert got == at(pos, Fraction(49, 72))
        # both factors in the top sqrt half: 49/72 times the radicand
        top = field.dim // 2
        if top:
            xs = [at(top, Fraction(1, 6)), at(top, Fraction(5, 9))]
            ys = [at(top, Fraction(3, 4)), at(top, 1)]
            assert_same_coords(field.dot(xs, ys), fold_dot(field, xs, ys))


class TestEmptyShapes:
    """A matrix with no rows or no columns keeps its other dimension."""

    def test_empty_submatrices_and_transposes(self):
        eye = Matrix.identity(GF5, 3)
        no_rows, no_cols = eye.submatrix(3, 3, 0, 3), eye.submatrix(0, 3, 3, 3)
        assert shape(no_rows) == (0, 3) and shape(no_cols) == (3, 0)
        assert shape(no_rows.transpose()) == (3, 0)
        assert shape(no_cols.transpose()) == (0, 3)
        assert shape(eye.submatrix(1, 1, 1, 1)) == (0, 0)
        # column bounds are cut as a slice cuts them
        assert shape(eye.submatrix(0, 2, 2, 5)) == (2, 1)
        assert shape(-no_rows) == shape(no_rows + no_rows) == (0, 3)
        assert shape(no_rows * GF5.from_int(2)) == (0, 3)
        assert shape(no_cols.hstack(no_cols)) == (3, 0)
        assert shape(Matrix.from_raw(GF5, [], 4)) == (0, 4)
        assert no_rows.rank() == 0 and len(no_rows.nullspace()) == 3
        # 3 x 0 times 0 x 3 is the 3 x 3 zero matrix, not 3 x 0
        assert no_cols * no_rows == Matrix.from_scalars(GF5, [[0] * 3] * 3)
        assert shape(no_rows * Matrix.from_scalars(GF5, [[1, 2]] * 3)) == \
            (0, 2)
        with pytest.raises(ValueError):
            no_rows * no_rows
        # matrices with no rows still differ by their column count
        narrow = eye.submatrix(0, 0, 0, 2)
        assert no_rows != narrow and narrow != no_rows
        assert hash(no_rows) != hash(narrow)
        assert no_rows == Matrix.from_raw(GF5, [], 3)


class TestShapeErrors:
    def test_shape_mismatches_raise(self):
        a = Matrix.from_scalars(GF5, [[1, 2, 3], [4, 0, 1]])
        with pytest.raises(ValueError):
            a * a
        with pytest.raises(ValueError):
            a + a.transpose()
        with pytest.raises(ValueError):
            a - a.transpose()
        with pytest.raises(ValueError):
            a.hstack(a.transpose())
        with pytest.raises(ValueError):
            a.inverse()
        with pytest.raises(ValueError):
            nilpotent_jordan_multiset(a)
        with pytest.raises(ValueError):
            Matrix(GF5, [[GF5.one], [GF5.one, GF5.zero]])

    def test_mismatched_product_raises_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("from isoflag.fields import RATIONALS\n"
                "from isoflag.linalg import Matrix\n"
                "a = Matrix.from_scalars(RATIONALS, [[1, 2, 3]])\n"
                "try:\n"
                "    a * a\n"
                "except ValueError:\n"
                "    print('ValueError')\n")
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "ValueError"
