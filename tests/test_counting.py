import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from isoflag import counting
from isoflag.cases import CountCase
from isoflag.counting import (SO_ODD, SP, TYPE_A, BoundExceeded,
                              FiniteFormSpace, adjoint_order, bruhat_pivots,
                              check_isotropic_flags, conjugacy_classes,
                              count_pairs, count_report, coxeter_cycle,
                              enumerate_group, enumerate_group_cached,
                              enumerate_isotropic_flags,
                              enumerate_isotropic_flags_cached,
                              group_order_formula, mat_identity, mat_inv,
                              mat_mul, mat_rank, sandwich,
                              unipotent_count_formula, unipotent_jordan_type,
                              unipotents_of_type)
from isoflag.fields import get_finite_field
from isoflag.linalg import Matrix, echelon_mod
from isoflag.shapes import (ORTHOGONAL, InvalidInput, ShapeSeq,
                            VerificationFailed, jordan_from_ranks,
                            jordan_prediction, position_dims_ok)


def breadth_first_closure(space):
    """Reference enumeration: breadth-first closure under the generators
    and their inverses, one product per (element, generator) pair."""
    q = space.q
    gens = counting._generators(space)
    gens += [mat_inv(g, q) for g in gens]
    seen = {mat_identity(space.nu)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = mat_mul(g, h, q)
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return sorted(seen)


def jordan_type_all_ranks(g, p):
    """Reference Jordan rule: ranks of N^k for k up to nu, no early stop."""
    n = len(g)
    nm = tuple(tuple((x - (i == j)) % p for j, x in enumerate(r))
               for i, r in enumerate(g))
    ranks, power = [n], mat_identity(n)
    for _ in range(n):
        power = mat_mul(power, nm, p)
        ranks.append(mat_rank(power, p))
    return jordan_from_ranks(ranks) if ranks[-1] == 0 else None


def pair_loop(space, gamma, shape=None):
    """Reference count: every unipotent of type gamma, found by the Jordan
    rule on every element, against every flag, with per-unipotent and
    per-flag subtotals."""
    q, nu = space.q, space.nu
    group = enumerate_group_cached(space)
    flags = enumerate_isotropic_flags_cached(space)
    unis = [g for g in group.elements
            if unipotent_jordan_type(g, q) == gamma]
    per_g = [0] * len(unis)
    per_flag = [0] * len(flags)
    for gi, g in enumerate(unis):
        for fi, fl in enumerate(flags):
            m = mat_mul(fl["inv"], mat_mul(g, fl["basis"], q), q)
            piv = bruhat_pivots(m, q)
            if shape is None:
                hit = piv == coxeter_cycle(nu)
            else:
                hit = position_dims_ok(
                    lambda i, j: sum(1 for k in range(j) if piv[k] < i),
                    shape, nu)
            if hit:
                per_g[gi] += 1
                per_flag[fi] += 1
    return {"unis": unis, "count": sum(per_g), "per_g": per_g,
            "per_flag": per_flag}


def flag_dict(cols, q):
    basis = tuple(zip(*cols))
    return {"basis": basis, "inv": mat_inv(basis, q), "cols": tuple(cols)}


class TestModularLinalg:
    def test_inverse_round_trip(self):
        a = ((1, 2), (3, 4))
        assert mat_mul(a, mat_inv(a, 5), 5) == mat_identity(2)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            mat_inv(((1, 2), (2, 4)), 5)

    def test_rank_and_nullspace(self):
        rows = ((1, 2, 0), (2, 4, 0))
        assert mat_rank(rows, 5) == 1
        a = Matrix.from_scalars(get_finite_field(5), rows)
        ns = a.nullspace()
        assert len(ns) == 2
        for v in ns:
            assert all(x.is_zero for x in a.apply(v))

    def test_jordan_type(self):
        g = ((1, 1), (0, 1))
        assert unipotent_jordan_type(g, 3) == Counter({2: 1})
        assert unipotent_jordan_type(mat_identity(2), 3) == Counter({1: 2})
        assert unipotent_jordan_type(((2, 0), (0, 1)), 3) is None

    def test_jordan_type_stops_at_first_stalled_rank(self, monkeypatch):
        # g - 1 = 1 has full rank, so rank(N) = rank(N^0) already stalls
        # and N^2 is never formed
        calls = []
        real = counting.mat_mul
        monkeypatch.setattr(counting, "mat_mul",
                            lambda a, b, p: calls.append(1) or real(a, b, p))
        assert unipotent_jordan_type(((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                                     3) is None
        assert calls == []

    @pytest.mark.parametrize("mode, nu, q", [
        (TYPE_A, 3, 3), (SP, 2, 7), (SO_ODD, 3, 7)])
    def test_jordan_type_matches_all_ranks(self, mode, nu, q):
        group = enumerate_group_cached(FiniteFormSpace(mode, nu, q))
        for g in group.elements:
            assert unipotent_jordan_type(g, q) == jordan_type_all_ranks(g, q)


class TestSpacesAndGroups:
    def test_order_formulas(self):
        assert group_order_formula(FiniteFormSpace(TYPE_A, 2, 2)) == 6
        assert group_order_formula(FiniteFormSpace(SP, 2, 3)) == 24
        assert group_order_formula(FiniteFormSpace(SP, 4, 3)) == 51840
        assert group_order_formula(FiniteFormSpace(SO_ODD, 5, 3)) == 51840

    def test_enumerate_gl2_f2(self):
        g = enumerate_group(FiniteFormSpace(TYPE_A, 2, 2))
        assert g.order == 6

    def test_enumerate_sp2_f3(self):
        g = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        assert g.order == 24
        assert all(g.space.preserves_form(x) for x in g.elements)

    def test_enumerate_so3_f3(self):
        g = enumerate_group(FiniteFormSpace(SO_ODD, 3, 3))
        assert g.order == 24
        assert all(g.space.preserves_form(x) for x in g.elements)

    def test_order_cap(self):
        with pytest.raises(BoundExceeded):
            enumerate_group(FiniteFormSpace(TYPE_A, 5, 5))

    def test_prime_only(self):
        with pytest.raises(InvalidInput, match="prime"):
            FiniteFormSpace(TYPE_A, 2, 4)

    def test_bound_before_primality(self):
        # a large q is refused by the bound before any trial division
        with pytest.raises(BoundExceeded, match="bound 7"):
            FiniteFormSpace(TYPE_A, 2, (10 ** 6 + 3) ** 2)

    @pytest.mark.parametrize("mode, nu", [(SP, 4), (SO_ODD, 3)])
    @pytest.mark.parametrize("tamper", ["extra", "conjugate"])
    def test_non_isometry_generator_rejected(self, monkeypatch, mode, nu,
                                             tamper):
        # h = diag(2, 1, ...) is no isometry; conjugating every generator by
        # h gives a group of the right order for the wrong form, which the
        # order gate alone cannot see (in Sp2 = SL2 the conjugate would
        # still be symplectic, hence Sp4)
        h = tuple(tuple(2 if i == j == 0 else int(i == j) for j in range(nu))
                  for i in range(nu))
        h_inv = mat_inv(h, 3)
        real = counting._generators

        def tampered(space):
            gens = real(space)
            if tamper == "extra":
                return gens + [h]
            return [mat_mul(mat_mul(h, g, 3), h_inv, 3) for g in gens]

        monkeypatch.setattr(counting, "_generators", tampered)
        with pytest.raises(VerificationFailed,
                           match="does not preserve the form"):
            enumerate_group(FiniteFormSpace(mode, nu, 3))

    @pytest.mark.parametrize("mode, nu, q", [
        (TYPE_A, 2, 2), (TYPE_A, 2, 3), (TYPE_A, 3, 2), (SP, 2, 3),
        (SP, 2, 7), (SO_ODD, 3, 3), (SO_ODD, 3, 7)])
    def test_coset_closure_matches_breadth_first(self, mode, nu, q):
        space = FiniteFormSpace(mode, nu, q)
        group = enumerate_group(space)
        assert group.elements == breadth_first_closure(space)
        assert group.order == group_order_formula(space)

    def test_proper_subgroup_fails_order_gate(self, monkeypatch):
        # one transvection generates a group of order 3 in Sp2(F3)
        real = counting._generators
        monkeypatch.setattr(counting, "_generators",
                            lambda space: real(space)[:1])
        with pytest.raises(VerificationFailed, match="closure order 3 never "
                           "matched the formula 24"):
            enumerate_group(FiniteFormSpace(SP, 2, 3))

    def test_runaway_closure_stops_past_formula(self, monkeypatch):
        # a reflection preserves the form but has determinant -1, so it
        # closes SO3(F3) (24 elements) up to O3(F3)
        space = FiniteFormSpace(SO_ODD, 3, 3)
        real = counting._generators
        reflection = counting._reflection(space, (0, 1, 0))
        assert space.preserves_form(reflection)
        monkeypatch.setattr(counting, "_generators",
                            lambda space: real(space) + [reflection])
        with pytest.raises(VerificationFailed,
                           match="closure passed 48 elements, more than "
                           "the formula 24"):
            enumerate_group(space)

    @pytest.mark.parametrize("mode, nu, q, total", [
        (TYPE_A, 2, 3, 9), (TYPE_A, 3, 2, 64), (TYPE_A, 3, 3, 729),
        (TYPE_A, 2, 5, 25), (SP, 2, 7, 49), (SO_ODD, 3, 7, 49),
        (SP, 4, 3, 6561), (SO_ODD, 5, 3, 6561)])
    def test_steinberg_count(self, mode, nu, q, total):
        space = FiniteFormSpace(mode, nu, q)
        assert unipotent_count_formula(space) == total
        group = enumerate_group_cached(space)
        # the filter raises unless the unipotents of all types total q^(2N)
        assert unipotents_of_type(group, Counter({1: nu})) == \
            [mat_identity(nu)]
        if group.order < 20000:
            assert sum(unipotent_jordan_type(g, q) is not None
                       for g in group.elements) == total

    def test_lost_unipotent_fails_steinberg_gate(self):
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        short = counting.GroupEnum(
            group.space, [g for g in group.elements if g != mat_identity(2)],
            group.generators, group.kept)
        with pytest.raises(VerificationFailed,
                           match="8 unipotent elements, not the 9"):
            unipotents_of_type(short, Counter({2: 1}))

    def test_conjugate_outside_list_fails_class_split(self):
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        unis = unipotents_of_type(group, Counter({2: 1}))
        assert sorted(map(len, conjugacy_classes(unis, group.kept, 3))) == \
            [4, 4]
        with pytest.raises(VerificationFailed, match="is not in the list"):
            conjugacy_classes(unis[1:], group.kept, 3)

    @pytest.mark.parametrize("mode, nu, q", [
        (TYPE_A, 3, 3), (SP, 2, 7), (SO_ODD, 3, 7)])
    def test_table_conjugation_matches_products(self, mode, nu, q):
        group = enumerate_group_cached(FiniteFormSpace(mode, nu, q))
        for s in group.kept:
            s_inv = mat_inv(s, q)
            conjugate = sandwich(s, s_inv, q)
            for u in group.elements:
                assert conjugate(u) == mat_mul(mat_mul(s, u, q), s_inv, q)

    def test_jordan_readings_differing_in_a_class_fail(self, monkeypatch):
        # the filter reads the Jordan type at the first and the last member
        # of each class; a rule that answers otherwise at one last member
        # must be caught
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        trace_two = [g for g in group.elements if (g[0][0] + g[1][1]) % 3 == 2]
        cls = max(conjugacy_classes(trace_two, group.kept, 3), key=len)
        last = trace_two[cls[-1]]
        real = counting.unipotent_jordan_type
        monkeypatch.setattr(counting, "unipotent_jordan_type",
                            lambda g, p: Counter({1: 2}) if g == last
                            else real(g, p))
        with pytest.raises(VerificationFailed,
                           match="of one class have Jordan types"):
            unipotents_of_type(group, Counter({2: 1}))

    def test_unipotents_gl2_f3(self):
        g = enumerate_group(FiniteFormSpace(TYPE_A, 2, 3))
        assert len(unipotents_of_type(g, Counter({2: 1}))) == 8
        assert unipotents_of_type(g, Counter({1: 2})) == [mat_identity(2)]


class TestFlags:
    def test_counts(self):
        assert len(enumerate_isotropic_flags(
            FiniteFormSpace(TYPE_A, 2, 3))) == 4
        assert len(enumerate_isotropic_flags(
            FiniteFormSpace(TYPE_A, 3, 2))) == 21
        assert len(enumerate_isotropic_flags(
            FiniteFormSpace(TYPE_A, 3, 3))) == 52

    def test_sp2_flags_are_lagrangian_lines(self):
        space = FiniteFormSpace(SP, 2, 3)
        flags = enumerate_isotropic_flags(space)
        assert len(flags) == 4  # the projective line over GF(3)
        for fl in flags:
            v = fl["cols"][0]
            assert space.bilinear(v, v) == 0

    @pytest.mark.parametrize("mode, nu, q, count", [
        (SP, 2, 7, 8), (SO_ODD, 3, 7, 8), (SP, 4, 3, 160),
        (SO_ODD, 5, 3, 160), (SP, 4, 5, 936)])
    def test_isotropic_flag_counts_and_perps(self, mode, nu, q, count):
        # (b_a, b_c) = 0 for a + c <= nu - 2 and != 0 on the antidiagonal
        # below n: V_n is isotropic and V_{nu-i} = V_i-perp; each basis
        # u w is itself an isometry
        space = FiniteFormSpace(mode, nu, q)
        flags = enumerate_isotropic_flags(space)
        assert len(flags) == count
        for fl in flags:
            assert space.preserves_form(fl["basis"])
            cols = fl["cols"]
            for a in range(nu):
                for c in range(nu - 1 - a):
                    assert space.bilinear(cols[a], cols[c]) == 0
                if a < nu // 2:
                    assert space.bilinear(cols[a], cols[nu - 1 - a]) != 0

    def test_flag_gate_can_fail(self):
        space = FiniteFormSpace(SO_ODD, 3, 3)
        flags = enumerate_isotropic_flags(space)
        check_isotropic_flags(space, flags)
        with pytest.raises(VerificationFailed, match="3 isotropic flags"):
            check_isotropic_flags(space, flags[1:])
        # e_1 is anisotropic, so V_1 is not inside its own perp
        anisotropic = flag_dict(((0, 1, 0), (1, 0, 0), (0, 0, 1)), 3)
        with pytest.raises(VerificationFailed, match=r"\(b_0, b_0\) = 1"):
            check_isotropic_flags(space, flags + [anisotropic])
        # b_1 pairs with b_0, so V_2 = <b_0, b_1> is not inside V_1 perp
        cols = flags[0]["cols"]
        swapped = flag_dict((cols[0], cols[2], cols[1]), 3)
        with pytest.raises(VerificationFailed, match=r"\(b_0, b_1\)"):
            check_isotropic_flags(space, [swapped])
        wrong_inv = dict(flags[1], inv=flags[0]["inv"])
        with pytest.raises(VerificationFailed,
                           match="flag 1: inv is not the inverse"):
            check_isotropic_flags(space, [flags[0], wrong_inv])
        # type A has no form, and the count gate alone guards it
        space = FiniteFormSpace(TYPE_A, 3, 2)
        flags = enumerate_isotropic_flags(space)
        with pytest.raises(VerificationFailed, match=r"20 isotropic flags "
                           r"times \|B\| = 8 do not make the group order 168"):
            check_isotropic_flags(space, flags[1:])

    @pytest.mark.parametrize("mode, nu, q, count, digest", [
        (TYPE_A, 3, 2, 21, "7e8a775079e4cb9d0dedae1ca57d8cd7"
                           "0022f2b46da120bd30946ac03d7a6f52"),
        (TYPE_A, 3, 3, 52, "85f7284c7a1ded40a813276dfb9c74c8"
                           "d12b5cb9eb33d93e9571a7302e0e8d78"),
        (SP, 2, 7, 8, "6df4462a14f81ac65c0d28c4b75075cc"
                      "9612a446f237aa347f0b27d66c659fdc"),
        (SO_ODD, 3, 7, 8, "63a1e6ad9bca14d1128efde55ffffba8"
                          "c735a9dbc5d3a9d46aca4fb11293708d"),
        (SP, 4, 3, 160, "bf79fc3249fc6141384433a73fbbe4b8"
                        "39ef40c205685799624346d4d857e1cb"),
        (SO_ODD, 5, 3, 160, "b60b6e18ece050de2d27d10aa6314260"
                            "446d1887c36cbb611b77650e8b4b98fd"),
        (SP, 4, 5, 936, "6b9646058bc9a8d9a1df30c94d5d0558"
                        "2dbf8a0ba7df2c7e1966fc437c07b87c"),
        (SO_ODD, 5, 5, 936, "2077309248809c4d49f31ecff9be49da"
                            "b991abb303a69876f25d265f123e8145")])
    def test_flag_span_sets_pinned(self, mode, nu, q, count, digest):
        # each flag's key is the RREF of V_1, ..., V_nu, so the digest of
        # the sorted keys pins the set of flags and not the bases chosen
        flags = enumerate_isotropic_flags(FiniteFormSpace(mode, nu, q))
        keys = []
        for fl in flags:
            key = []
            for i in range(1, nu + 1):
                rows, pivots = echelon_mod(fl["cols"][:i], q, nu)
                key.append(tuple(map(tuple, rows[:len(pivots)])))
            keys.append(tuple(key))
        assert len(flags) == len(set(keys)) == count
        text = repr(sorted(keys))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_flag_bases_invertible(self):
        for fl in enumerate_isotropic_flags(FiniteFormSpace(TYPE_A, 3, 2)):
            assert mat_mul(fl["basis"], fl["inv"], 2) == mat_identity(3)


def invertible_mod5(n):
    return st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda r: tuple(tuple(row) for row in r)).filter(
        lambda m: mat_rank(m, 5) == n)


class TestBruhat:
    def test_identity(self):
        assert bruhat_pivots(mat_identity(4), 5) == (0, 1, 2, 3)

    def test_antidiagonal(self):
        m = tuple(tuple(1 if i + j == 2 else 0 for j in range(3))
                  for i in range(3))
        assert bruhat_pivots(m, 5) == (2, 1, 0)

    def test_coxeter_cycle(self):
        assert coxeter_cycle(4) == (1, 2, 3, 0)

    @given(invertible_mod5(3))
    @settings(max_examples=60, deadline=None)
    def test_pivots_are_permutation(self, m):
        piv = bruhat_pivots(m, 5)
        assert sorted(piv) == [0, 1, 2]

    @given(invertible_mod5(3))
    @settings(max_examples=60, deadline=None)
    def test_inverse_gives_inverse_permutation(self, m):
        piv = bruhat_pivots(m, 5)
        piv_inv = bruhat_pivots(mat_inv(m, 5), 5)
        assert all(piv_inv[piv[j]] == j for j in range(3))

    @given(invertible_mod5(3))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_upper_triangular(self, m):
        # upper-triangular multiplication stabilizes both column-prefix
        # flags, so the relative position cannot change
        u = ((1, 2, 3), (0, 1, 1), (0, 0, 1))
        assert bruhat_pivots(mat_mul(m, u, 5), 5) == bruhat_pivots(m, 5)
        assert bruhat_pivots(mat_mul(u, m, 5), 5) == bruhat_pivots(m, 5)


class TestAdjointOrder:
    def test_values(self):
        assert adjoint_order("A", 1, 3) == 24
        assert adjoint_order("A", 2, 2) == 168
        # isogenous groups have equally many F_q-points, so the B/C value
        # is |Sp4(F3)| = |SO5(F3)|, not |PSp4(F3)| = 25920
        assert adjoint_order("C", 2, 3) == 51840
        assert adjoint_order("B", 2, 3) == 51840

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            adjoint_order("G", 2, 3)


class TestCounting:
    def test_gl2_f3_coxeter_count(self):
        space = FiniteFormSpace(TYPE_A, 2, 3)
        rep = count_report(space, Counter({2: 1}), "A", 1)
        assert rep["count"] == 24
        assert rep["count"] == 3 * (3 ** 2 - 1) == rep["adjoint_order"]
        assert rep["double_count_consistent"]

    def test_gl3_f2_coxeter_count(self):
        space = FiniteFormSpace(TYPE_A, 3, 2)
        rep = count_report(space, Counter({3: 1}), "A", 2)
        assert rep["count"] == 168 == rep["adjoint_order"]
        assert rep["relation_holds"]

    def test_gl2_f3_off_class_zero(self):
        space = FiniteFormSpace(TYPE_A, 2, 3)
        rep = count_pairs(space, Counter({1: 2}))
        assert rep["count"] == 0

    def test_per_flag_constant_on_orbit(self):
        # flags form one orbit in type A, so the reference loop finds one
        # subtotal on every flag, and the one flag tested carries it
        space = FiniteFormSpace(TYPE_A, 2, 3)
        ref = pair_loop(space, Counter({2: 1}))
        assert set(ref["per_flag"]) == {6}
        assert count_pairs(space, Counter({2: 1}))["per_flag"] == [6]

    @pytest.mark.parametrize("shape", [None, ShapeSeq((2,))],
                             ids=["missing", "nu-mismatch"])
    def test_count_pairs_rejects_bad_shape(self, shape):
        # a raise, not an assert, so the check survives python -O
        with pytest.raises(InvalidInput, match="needs a shape with nu = 2"):
            count_pairs(FiniteFormSpace(SP, 2, 3), Counter({2: 1}),
                        shape=shape)

    def test_flag_outside_orbit_breaks_double_count(self):
        # in SO3(F3) every complete isotropic flag starts with an isotropic
        # line; a flag on the anisotropic line of e_1 lies outside the
        # G-orbit, so the rows over all five flags no longer meet the
        # column on the first
        space = FiniteFormSpace(SO_ODD, 3, 3)
        shape = ShapeSeq((1,), kappa=1)
        gamma = jordan_prediction(shape, ORTHOGONAL)
        flags = enumerate_isotropic_flags(space)
        rep = count_pairs(space, gamma, shape=shape, flags=flags)
        assert rep["double_count_consistent"]
        assert rep["count"] == rep["row_count"] == 24
        cols = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        assert space.bilinear(cols[0], cols[0]) != 0
        outside = flag_dict(cols, 3)
        rep = count_pairs(space, gamma, shape=shape, flags=flags + [outside])
        # column: 5 flags x 6 hits on flags[0]; rows: the class of 8 has
        # per_g 5 x 6 / 8, not an integer, and its representative meets
        # 3 isotropic flags and the outside one
        assert rep["per_flag"] == [6] and rep["count"] == 30
        assert rep["class_sizes"] == [8] and rep["row_count"] == 8 * 4
        assert not rep["double_count_consistent"]
        # with four copies the quotient 8 x 6 / 8 = 6 is an integer, and
        # the row 3 + 4 still disagrees with it
        rep = count_pairs(space, gamma, shape=shape,
                          flags=flags + [outside] * 4)
        assert rep["per_g"] == [6] * 8 and rep["count"] == 48
        assert rep["row_count"] == 8 * 7
        assert not rep["double_count_consistent"]

    def test_class_gate_fails_without_one_flag(self):
        # Sp2(F3): per_g 3 x |Cl| 4 x |Z| 2 = 24 on both classes; without
        # the last flag per_g drops to 3 x 3 / 4, rounded down to 2
        space = FiniteFormSpace(SP, 2, 3)
        flags = enumerate_isotropic_flags(space)
        gamma, shape = Counter({2: 1}), ShapeSeq((1,))
        assert count_pairs(space, gamma, shape=shape,
                           flags=flags)["class_relation_holds"]
        rep = count_pairs(space, gamma, shape=shape, flags=flags[:-1])
        assert rep["per_g"] == [2] * 8
        assert not rep["class_relation_holds"]

    def test_each_row_check_fails_alone(self):
        # Sp2(F3) has two classes of 4 regular unipotents, each meeting 3
        # of the 4 flags; the first representative misses flags[2], the
        # second flags[3]
        space = FiniteFormSpace(SP, 2, 3)
        flags = enumerate_isotropic_flags(space)

        def rep_on(picks):
            return count_pairs(space, Counter({2: 1}), shape=ShapeSeq((1,)),
                               flags=[flags[i] for i in picks])

        # doubling flags[2] and dropping flags[3] puts the rows at 2 and 4
        # where the quotients are 4 x 3 / 4 = 3, while the sum
        # 4 x 2 + 4 x 4 still equals the count
        rep = rep_on((0, 2, 2, 1))
        assert rep["class_sizes"] == [4, 4] and rep["per_g"] == [3] * 8
        assert rep["count"] == rep["row_count"] == 24
        assert not rep["double_count_consistent"]
        # on flags[2] and flags[3] the quotients 2 x 3 / 4 are no integers:
        # both rows sit on their rounded-down per_g 1, and only the sum
        # 4 x 1 + 4 x 1 falls short of the count 2 x 6
        rep = rep_on((2, 3))
        assert rep["per_g"] == [1] * 8
        assert rep["count"] == 12 and rep["row_count"] == 8
        assert not rep["double_count_consistent"]


@pytest.mark.parametrize("mode, nu, q, shape, gamma", [
    (TYPE_A, 3, 3, None, Counter({3: 1})),
    (TYPE_A, 2, 5, None, Counter({2: 1})),
    (SP, 2, 7, ShapeSeq((1,)), Counter({2: 1})),
    (SO_ODD, 3, 7, ShapeSeq((1,), kappa=1), Counter({3: 1})),
    (SP, 4, 3, ShapeSeq((1, 1)), Counter({2: 2})),
])
def test_one_flag_count_matches_pair_loop(mode, nu, q, shape, gamma):
    space = FiniteFormSpace(mode, nu, q)
    ref = pair_loop(space, gamma, shape)
    assert unipotents_of_type(enumerate_group_cached(space), gamma) == \
        ref["unis"]
    rep = count_pairs(space, gamma, shape=shape)
    assert rep["count"] == ref["count"] and rep["per_g"] == ref["per_g"]
    assert rep["per_flag"] == ref["per_flag"][:1]
    assert rep["double_count_consistent"]
    assert sum(rep["class_sizes"]) == rep["unipotent_count"]
    if mode == SP and nu == 4:
        # type (2, 2) falls into two classes of different sizes, so per_g
        # is not constant and the class split decides it
        assert rep["class_sizes"] == [240, 480]
        assert sorted(set(rep["per_g"])) == [54, 108]
        assert rep["count"] == 51840


@pytest.mark.parametrize("q", [3, 5, 7])
def test_rank_one_types_agree(q):
    # A1 = B1 = C1: PGL2, Sp2 = SL2 and SO3 are isogenous, so all three
    # counts are the q(q^2 - 1) points of the adjoint group
    cases = (CountCase("A", q, n=2), CountCase("C", q, shape=ShapeSeq((1,))),
             CountCase("B", q, shape=ShapeSeq((1,), kappa=1)))
    for case in cases:
        rep = case.report()
        assert rep["count"] == rep["adjoint_order"] == q * (q ** 2 - 1)
        assert rep["relation_holds"] and rep["double_count_consistent"]
