import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isoflag.counting import mat_rank
from isoflag.fields import RATIONALS, get_finite_field
from isoflag.linalg import (Affine, Matrix, NoSolution, NotNilpotent, Unique,
                            nilpotent_jordan_multiset, solve_linear)

GF5 = get_finite_field(5)
GF7 = get_finite_field(7)
GF4 = get_finite_field(2, 2)
GF9 = get_finite_field(3, 2)
Q2 = RATIONALS.extend((Fraction(2),))
Q23 = Q2.extend((Fraction(3), Fraction(0)))
KERNEL_FIELDS = {"GF5": GF5, "GF4": GF4, "GF9": GF9, "Q": RATIONALS,
                 "Q2": Q2, "Q23": Q23}


def gf5_matrix(n, m):
    return st.lists(
        st.lists(st.integers(0, 4), min_size=m, max_size=m),
        min_size=n, max_size=n,
    ).map(lambda rows: Matrix.from_scalars(GF5, rows))


def coords(field):
    """Coordinates of ``field``, zero about half the time; tower halves
    are zero as a whole just as often, so zero sqrt halves are common."""
    if field.is_finite:
        return st.one_of(st.just(0), st.integers(1, field.q - 1)).map(
            field.decode)
    small = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))

    def level(dim):
        if dim == 1:
            return small.map(lambda c: (c,))
        half = level(dim // 2)
        zero = st.just((Fraction(0),) * (dim // 2))
        return st.tuples(st.one_of(zero, half), st.one_of(zero, half)).map(
            lambda lo_hi: lo_hi[0] + lo_hi[1])
    return level(field.dim)


def matrix(field, n, m):
    entry = coords(field).map(field.element)
    return st.lists(st.lists(entry, min_size=m, max_size=m),
                    min_size=n, max_size=n).map(
        lambda rows: Matrix(field, rows))


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
        n = Matrix.zero(RATIONALS, 3, 3)
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


class TestKernelOracle:
    """Every kernel path against the schoolbook reference above."""

    @given(st.data(), st.sampled_from(sorted(KERNEL_FIELDS)),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_product_and_apply(self, data, name, n, k, m):
        field = KERNEL_FIELDS[name]
        a = data.draw(matrix(field, n, k))
        b = data.draw(matrix(field, k, m))
        product = a * b
        assert [list(r) for r in product.rows] == ref_mul(a, b)
        assert all(x.field is field for r in product.rows for x in r)
        v = b.col(0)
        assert list(a.apply(v)) == [ref_dot(r, v, field) for r in a.rows]

    @given(st.data(), st.sampled_from(sorted(KERNEL_FIELDS)),
           st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
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
    @settings(max_examples=120, deadline=None)
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

    def test_foreign_field_raises(self):
        s2 = Q2.element((0, 1))
        b = Matrix(Q2, [[s2, Q2.one], [Q2.zero, s2]])
        # a product of matrices over Q and Q(sqrt2)
        a = Matrix.from_scalars(RATIONALS, [[1, 2], [0, 3]])
        with pytest.raises(TypeError, match="over TowerField"):
            a * b
        # a Q(sqrt2) matrix holding Q entries
        mixed = Matrix(Q2, [[RATIONALS.one, s2], [s2, RATIONALS.zero]])
        with pytest.raises(TypeError, match="depth=0"):
            mixed * mixed
        with pytest.raises(TypeError, match="depth=0"):
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
    def test_gf7_agrees_with_counting(self, gf_rows):
        a = Matrix.from_scalars(GF7, gf_rows)
        rank = a.rank()
        assert rank == mat_rank(gf_rows, 7)
        kernel = a.nullspace()
        assert len(kernel) == a.ncols - rank
        for v in kernel:
            assert all(x.is_zero for x in a.apply(v))


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

    @pytest.mark.parametrize("name", ["Q", "Q2", "Q23"])
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
