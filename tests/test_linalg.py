from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from isoflag.fields import RATIONALS, get_finite_field
from isoflag.linalg import (Affine, Matrix, NoSolution, NotNilpotent, Unique,
                            nilpotent_jordan_multiset, solve_linear)

GF5 = get_finite_field(5)


def gf5_matrix(n, m):
    return st.lists(
        st.lists(st.integers(0, 4), min_size=m, max_size=m),
        min_size=n, max_size=n,
    ).map(lambda rows: Matrix.from_scalars(GF5, rows))


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
