import hashlib
import json
import shlex
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from isoflag import counting, linalg
from isoflag.cases import COUNT_CASES, CountCase
from isoflag.cli import main
from isoflag.counting import (SO_ODD, SP, TYPE_A, BoundExceeded,
                              FiniteFormSpace, adjoint_order, bruhat_pivots,
                              check_isotropic_flags, conjugacy_classes,
                              count_pairs, coxeter_cycle,
                              enumerate_group, enumerate_group_cached,
                              enumerate_isotropic_flags,
                              enumerate_isotropic_flags_cached,
                              group_order_formula, mat_identity, mat_mul,
                              sandwich, unipotent_count_formula,
                              unipotent_jordan_type, unipotents_of_type)
from isoflag.fields import get_finite_field
from isoflag.linalg import (Matrix, _pivot_loop, inverse_rows,
                            scalar_kernel)
from isoflag.shapes import (ORTHOGONAL, InvalidInput, ShapeSeq,
                            VerificationFailed, jordan_from_ranks,
                            jordan_prediction, position_ok)
from test_readme import count_line


# count_digest() of the registry counts; a rewrite of the counting must
# keep every count, per_g, per_flag, class size and row count.  It covers
# the manifests too, in which type A records no kappa.
PINNED_COUNT_DIGEST = \
    "d97a3cffab2dbe4f008ca3244c9f96b0f106e85ded12f32d5ca14aa4d4552d9f"


def gf(q):
    """linalg's kernel of GF(q), whose raw rows are int tuples mod q."""
    return scalar_kernel(get_finite_field(q))


def mat_inv(a, q):
    return tuple(inverse_rows(a, gf(q)))


def mat_rank(rows, q):
    return Matrix.from_raw(get_finite_field(q), rows, len(rows[0])).rank()


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
    unis = [g for g in sorted(group.elements)
            if unipotent_jordan_type(g, q) == gamma]
    inverses = [mat_inv(b, q) for b in flags]
    per_g = [0] * len(unis)
    per_flag = [0] * len(flags)
    for gi, g in enumerate(unis):
        for fi, (b, b_inv) in enumerate(zip(flags, inverses)):
            m = mat_mul(b_inv, mat_mul(g, b, q), q)
            piv = bruhat_pivots(m, gf(q))
            if shape is None:
                hit = piv == coxeter_cycle(nu)
            else:
                hit = position_ok(piv, shape)
            if hit:
                per_g[gi] += 1
                per_flag[fi] += 1
    return {"unis": unis, "count": sum(per_g), "per_g": per_g,
            "per_flag": per_flag}


def generator_kind(g):
    """"U" for an upper unitriangular matrix, "T" for any other diagonal
    one, "W" for any other monomial one, else None."""
    nu = len(g)
    if all(g[i][i] == 1 and not any(g[i][:i]) for i in range(nu)):
        return "U"
    if all(sum(map(bool, row)) == 1 for row in g) and \
            all(sum(map(bool, col)) == 1 for col in zip(*g)):
        return "T" if all(g[i][i] for i in range(nu)) else "W"
    return None


class Sealed(list):
    """A list that refuses to be read: iterating, indexing or a membership
    test fails, only its length answers."""

    def _refuse(self, *args):
        raise AssertionError("the group's element list was read")

    __iter__ = __getitem__ = __contains__ = _refuse


def bilinear(space, u, v):
    """(u, v) mod q under the space's int Gram matrix."""
    return sum(x * f * y for x, row in zip(u, space.form)
               for f, y in zip(row, v)) % space.q


def registry_spaces():
    """The (mode, nu, q) of every group the registry counts enumerate."""
    return sorted({(TYPE_A, case.n, case.q) if case.shape is None else
                   (SP if case.group_type == "C" else SO_ODD,
                    case.shape.nu, case.q) for case in COUNT_CASES})


def basis_of(cols):
    """The flag whose basis has the columns ``cols``."""
    return tuple(zip(*cols))


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
        # after one elimination and the image of N^2 is never formed
        calls = []
        real = linalg._pivot_loop
        monkeypatch.setattr(linalg, "_pivot_loop",
                            lambda *args: calls.append(1) or real(*args))
        assert unipotent_jordan_type(((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                                     3) is None
        assert calls == [1]

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
        # a composite q is bad input at any size; a prime q past the bound
        # is refused by the bound
        with pytest.raises(InvalidInput, match="must be prime"):
            FiniteFormSpace(TYPE_A, 2, (10 ** 6 + 3) ** 2)
        with pytest.raises(BoundExceeded, match="bound 7"):
            FiniteFormSpace(TYPE_A, 2, 2 ** 61 - 1)

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
        assert sorted(group.elements) == breadth_first_closure(space)
        assert len(set(group.elements)) == len(group.elements)
        assert group.order == group_order_formula(space)

    @pytest.mark.parametrize("mode, nu, q", [
        (TYPE_A, 3, 3), (SP, 2, 7), (SO_ODD, 3, 7)])
    def test_closure_order_is_deterministic(self, mode, nu, q):
        # the elements come in closure order, unsorted, and that order
        # must not depend on the run
        first = enumerate_group(FiniteFormSpace(mode, nu, q)).elements
        assert enumerate_group(FiniteFormSpace(mode, nu, q)).elements == \
            first

    def test_repeated_coset_element_fails_closure(self, monkeypatch):
        # a singular "generator" after a full GL2(F2) makes a coset H x in
        # which h x = h' x for h != h': 6 listed, 3 of them new
        real = counting._generators
        monkeypatch.setattr(counting, "_generators",
                            lambda space: real(space) + [((1, 0), (0, 0))])
        with pytest.raises(VerificationFailed, match="closure listed 12 "
                           "elements, of which 9 are distinct"):
            enumerate_group(FiniteFormSpace(TYPE_A, 2, 2))

    def test_proper_subgroup_fails_order_gate(self, monkeypatch):
        # one root-cell element, the transvection x -> x + (x, e_0) e_0,
        # generates a group of order 3 in Sp2(F3)
        cell = ((1, 2), (0, 1))
        assert cell in counting._generators(FiniteFormSpace(SP, 2, 3))
        monkeypatch.setattr(counting, "_generators", lambda space: [cell])
        with pytest.raises(VerificationFailed, match="closure order 3 never "
                           "matched the formula 24"):
            enumerate_group(FiniteFormSpace(SP, 2, 3))

    @pytest.mark.parametrize("mode, nu, q", registry_spaces() + [
        (TYPE_A, 1, 2), (TYPE_A, 1, 3), (SP, 2, 7), (SO_ODD, 1, 3),
        (SO_ODD, 3, 5)])
    def test_generators_are_weyl_then_torus_then_cells(self, mode, nu, q):
        # |W| - 1 monomials, one torus element unless the rank is 0 or
        # q = 2, and one cell element per positive root
        space = FiniteFormSpace(mode, nu, q)
        n = len(space.degrees)
        weyl = factorial(nu) if mode == TYPE_A else factorial(n) * 2 ** n
        torus = int(n > 0 and q > 2)
        roots = nu * (nu - 1) // 2 if mode == TYPE_A else n * n
        assert [generator_kind(g) for g in counting._generators(space)] == \
            ["W"] * (weyl - 1) + ["T"] * torus + ["U"] * roots

    @pytest.mark.parametrize("mode, nu, q", registry_spaces())
    @pytest.mark.parametrize("drop", ["W", "U"])
    def test_closure_needs_weyl_and_cells(self, monkeypatch, mode, nu, q,
                                          drop):
        real = counting._generators
        monkeypatch.setattr(counting, "_generators", lambda space: [
            g for g in real(space) if generator_kind(g) != drop])
        with pytest.raises(VerificationFailed, match="never matched"):
            enumerate_group(FiniteFormSpace(mode, nu, q))

    @pytest.mark.parametrize("mode, nu, q", [
        (TYPE_A, 2, 5), (TYPE_A, 2, 7), (TYPE_A, 1, 3), (SO_ODD, 3, 3)])
    def test_closure_needs_the_torus(self, monkeypatch, mode, nu, q):
        # GL2(F3), every Sp and SO3(F5) close without it
        real = counting._generators
        monkeypatch.setattr(counting, "_generators", lambda space: [
            g for g in real(space) if generator_kind(g) != "T"])
        with pytest.raises(VerificationFailed, match="never matched"):
            enumerate_group(FiniteFormSpace(mode, nu, q))

    @pytest.mark.parametrize("mode, nu, q, order", [
        (SO_ODD, 1, 3, 1), (SO_ODD, 1, 5, 1), (SO_ODD, 1, 7, 1),
        (TYPE_A, 1, 3, 2)])
    def test_rank_zero_and_one_closures(self, mode, nu, q, order):
        # SO_1 is trivial: diag(a^-1), the torus element with no rank-0
        # rule, is no isometry of it
        space = FiniteFormSpace(mode, nu, q)
        assert enumerate_group(space).order == order == \
            group_order_formula(space)

    def test_runaway_closure_stops_past_formula(self, monkeypatch):
        # a reflection preserves the form but has determinant -1, so it
        # closes SO3(F3) (24 elements) up to O3(F3)
        space = FiniteFormSpace(SO_ODD, 3, 3)
        real = counting._generators
        reflection = ((1, 0, 0), (0, 2, 0), (0, 0, 1))  # the one in e_1
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

    def test_lost_unipotent_fails_steinberg_gate(self, monkeypatch):
        # the identity is its own class, so a U without it walks 8 of the
        # 9 unipotents of SL2(F3)
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        real = counting.unipotent_radical
        monkeypatch.setattr(counting, "unipotent_radical",
                            lambda space: [u for u in real(space)
                                           if u != mat_identity(space.nu)])
        with pytest.raises(VerificationFailed,
                           match="8 unipotent elements, not the 9"):
            unipotents_of_type(group, Counter({2: 1}))

    def test_conjugate_outside_group_fails_class_walk(self):
        # the lower unitriangular (1 0; 1 1) lies off U, so the walk meets
        # it only as a conjugate, which a group set without it must refuse
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        lower = ((1, 0), (1, 1))
        assert lower in group.members
        short = counting.GroupEnum(group.space, group.elements,
                                   group.generators, group.kept,
                                   group.members - {lower})
        with pytest.raises(VerificationFailed, match="is not in the group"):
            unipotents_of_type(short, Counter({2: 1}))

    @pytest.mark.parametrize("mode, nu, q", registry_spaces())
    def test_unipotent_radical_is_upper_unitriangular(self, mode, nu, q):
        space = FiniteFormSpace(mode, nu, q)
        group = enumerate_group_cached(space)
        u = counting.unipotent_radical(space)
        assert len(set(u)) == len(u) == q ** counting._positive_roots(space)
        assert all(generator_kind(g) == "U" for g in u)
        assert set(u) <= group.members == set(group.elements)

    @pytest.mark.parametrize("mode, nu, q", registry_spaces())
    def test_filter_never_reads_the_element_list(self, mode, nu, q):
        # the walk starts from U and tests membership in the group's set,
        # so a full scan of the element list cannot come back unnoticed
        group = enumerate_group_cached(FiniteFormSpace(mode, nu, q))
        sealed = counting.GroupEnum(group.space, Sealed(group.elements),
                                    group.generators, group.kept,
                                    group.members)
        unis = unipotents_of_type(group, Counter({nu: 1}))
        walked = unipotents_of_type(sealed, Counter({nu: 1}))
        assert walked == unis and walked.classes == unis.classes

    def test_class_walk_leaves_its_seeds_alone(self):
        # the walk returns its classes, sorted, and does not grow the
        # list it was handed
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        seeds = counting.unipotent_radical(group.space)
        before = list(seeds)
        classes = conjugacy_classes(seeds, group.kept, 3, group.members)
        assert seeds == before
        assert all(cls == sorted(cls) for cls in classes)
        assert sorted(map(len, classes)) == [1, 4, 4]

    def test_conjugate_outside_group_fails_class_split(self):
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        unis = unipotents_of_type(group, Counter({2: 1}))
        assert sorted(map(len, conjugacy_classes(list(unis), group.kept, 3,
                                                 group.members))) == [4, 4]
        short = unis[1:]
        with pytest.raises(VerificationFailed, match="is not in the group"):
            conjugacy_classes(short, group.kept, 3, set(short))

    @pytest.mark.parametrize("mode, nu, q", [
        (TYPE_A, 3, 3), (SP, 2, 7), (SO_ODD, 3, 7)])
    def test_table_conjugation_matches_products(self, mode, nu, q):
        group = enumerate_group_cached(FiniteFormSpace(mode, nu, q))
        for s in group.kept:
            s_inv = mat_inv(s, q)
            conjugate = sandwich(s, s_inv, q)
            for u in group.elements:
                assert conjugate(u) == mat_mul(mat_mul(s, u, q), s_inv, q)

    @pytest.mark.parametrize("end", [0, -1], ids=["least", "greatest"])
    @pytest.mark.parametrize("reading", [Counter({1: 2}), None],
                             ids=["other-type", "not-unipotent"])
    def test_jordan_readings_differing_in_a_class_fail(self, monkeypatch,
                                                       end, reading):
        # the filter reads the Jordan type at the least and the greatest
        # member of each class; a rule that answers otherwise, or not
        # unipotent, at either end must be caught
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        unis = unipotents_of_type(group, Counter({2: 1}))
        cls = max(unis.classes, key=len)
        assert cls == sorted(cls)
        member = unis[cls[end]]
        real = counting.unipotent_jordan_type
        monkeypatch.setattr(counting, "unipotent_jordan_type",
                            lambda g, p: reading if g == member
                            else real(g, p))
        with pytest.raises(VerificationFailed,
                           match="of one class have Jordan types"):
            unipotents_of_type(group, Counter({2: 1}))

    def test_class_read_as_not_unipotent_fails(self, monkeypatch):
        # every class walked from U is unipotent; one whose least and
        # greatest members both read as not unipotent must be caught
        group = enumerate_group_cached(FiniteFormSpace(SP, 2, 3))
        unis = unipotents_of_type(group, Counter({2: 1}))
        cls = {unis[i] for i in unis.classes[0]}
        real = counting.unipotent_jordan_type
        monkeypatch.setattr(counting, "unipotent_jordan_type",
                            lambda g, p: None if g in cls else real(g, p))
        with pytest.raises(VerificationFailed,
                           match="types None and None, not one unipotent"):
            unipotents_of_type(group, Counter({2: 1}))

    @pytest.mark.parametrize("mode, nu, q", registry_spaces())
    def test_walk_from_u_holds_every_unipotent(self, monkeypatch, mode, nu,
                                               q):
        # U is a Sylow p-subgroup, so the classes walked from it are
        # exactly the unipotents: checked against the Jordan rule on every
        # element where that is cheap, and on Sp4(F3) and SO5(F3) against
        # Steinberg's 3^8
        space = FiniteFormSpace(mode, nu, q)
        group = enumerate_group_cached(space)
        walks = []
        real = counting.conjugacy_classes
        monkeypatch.setattr(counting, "conjugacy_classes",
                            lambda *args: walks.append(real(*args))
                            or walks[-1])
        unipotents_of_type(group, Counter({1: nu}))
        [classes] = walks
        walked = [g for cls in classes for g in cls]
        assert len(set(walked)) == len(walked)
        if group.order < 20000:
            assert set(walked) == {g for g in group.elements
                                   if unipotent_jordan_type(g, q) is not None}
        if mode != TYPE_A:
            assert len(walked) == unipotent_count_formula(space) == 6561

    @pytest.mark.parametrize("case", COUNT_CASES, ids=count_line)
    def test_handed_classes_match_a_fresh_split(self, monkeypatch, case):
        # count_pairs reads the classes the filter walked; they must be
        # the index lists a fresh split of the filter's result gives, in
        # its order, each in ascending order
        calls = []
        real = counting.unipotents_of_type
        monkeypatch.setattr(counting, "unipotents_of_type",
                            lambda group, target: calls.append(
                                (group, real(group, target))) or calls[-1][1])
        case.report()
        [(group, unis)] = calls
        assert unis == sorted(unis)
        position = {g: k for k, g in enumerate(unis)}
        classes = conjugacy_classes(list(unis), group.kept, group.space.q,
                                    group.members)
        assert unis.classes == [[position[g] for g in cls]
                                for cls in classes]

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
            v = next(zip(*fl))
            assert bilinear(space, v, v) == 0

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
            assert space.preserves_form(fl)
            cols = tuple(zip(*fl))
            for a in range(nu):
                for c in range(nu - 1 - a):
                    assert bilinear(space, cols[a], cols[c]) == 0
                if a < nu // 2:
                    assert bilinear(space, cols[a], cols[nu - 1 - a]) != 0

    def test_flag_gate_can_fail(self):
        space = FiniteFormSpace(SO_ODD, 3, 3)
        flags = enumerate_isotropic_flags(space)
        check_isotropic_flags(space, flags)
        with pytest.raises(VerificationFailed, match="3 isotropic flags"):
            check_isotropic_flags(space, flags[1:])
        # e_1 is anisotropic, so V_1 is not inside its own perp
        anisotropic = basis_of(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
        with pytest.raises(VerificationFailed, match=r"\(b_0, b_0\) = 1"):
            check_isotropic_flags(space, flags + [anisotropic])
        # b_1 pairs with b_0, so V_2 = <b_0, b_1> is not inside V_1 perp
        cols = tuple(zip(*flags[0]))
        swapped = basis_of((cols[0], cols[2], cols[1]))
        with pytest.raises(VerificationFailed, match=r"\(b_0, b_1\)"):
            check_isotropic_flags(space, [swapped])
        # a repeated column makes the basis singular: V_2 is a line
        singular = basis_of((cols[0], cols[0], cols[2]))
        with pytest.raises(VerificationFailed, match="flag 1: dim V_2 != 2"):
            check_isotropic_flags(space, [flags[0], singular])
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
                rows, pivots = _pivot_loop(tuple(zip(*fl))[:i],
                                           gf(q), nu)
                key.append(tuple(map(tuple, rows[:len(pivots)])))
            keys.append(tuple(key))
        assert len(flags) == len(set(keys)) == count
        text = repr(sorted(keys))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_flag_bases_invertible(self):
        # inverse_rows raises ZeroDivisionError on a singular basis
        for fl in enumerate_isotropic_flags(FiniteFormSpace(TYPE_A, 3, 2)):
            assert mat_mul(fl, mat_inv(fl, 2), 2) == mat_identity(3)


BRUHAT_FIELDS = [get_finite_field(5), get_finite_field(2, 2)]


def invertible(field, n):
    """Invertible n x n matrices over GF(p^m), each entry drawn by its
    base-p digits."""
    p, m = field.p, field.m
    entry = st.integers(0, p ** m - 1).map(
        lambda code: field.element([code // p ** i for i in range(m)]))
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: Matrix(field, rows)).filter(lambda a: a.rank() == n)


def pivots_of(a):
    k, rows = a._raw()
    return bruhat_pivots(rows, k)


def test_coxeter_cycle():
    assert coxeter_cycle(4) == (1, 2, 3, 0)


@pytest.mark.parametrize("field", BRUHAT_FIELDS, ids=repr)
class TestBruhat:
    def test_identity(self, field):
        assert pivots_of(Matrix.identity(field, 4)) == (0, 1, 2, 3)

    def test_antidiagonal(self, field):
        m = Matrix.from_scalars(field, [[1 if i + j == 2 else 0
                                         for j in range(3)]
                                        for i in range(3)])
        assert pivots_of(m) == (2, 1, 0)

    def test_singular_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            pivots_of(Matrix.from_scalars(field, [[1, 1], [1, 1]]))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pivots_are_permutation(self, field, data):
        piv = pivots_of(data.draw(invertible(field, 3)))
        assert sorted(piv) == [0, 1, 2]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_gives_inverse_permutation(self, field, data):
        m = data.draw(invertible(field, 3))
        piv = pivots_of(m)
        piv_inv = pivots_of(m.inverse())
        assert all(piv_inv[piv[j]] == j for j in range(3))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_upper_triangular(self, field, data):
        # upper-triangular multiplication stabilizes both column-prefix
        # flags, so the relative position cannot change
        m = data.draw(invertible(field, 3))
        u = Matrix.from_scalars(field, [[1, 2, 3], [0, 1, 1], [0, 0, 1]])
        assert pivots_of(m * u) == pivots_of(m)
        assert pivots_of(u * m) == pivots_of(m)


class TestAdjointOrder:
    def test_values(self):
        assert adjoint_order(FiniteFormSpace(TYPE_A, 2, 3)) == 24
        assert adjoint_order(FiniteFormSpace(TYPE_A, 3, 2)) == 168
        # isogenous groups have equally many F_q-points, so the B/C value
        # is |Sp4(F3)| = |SO5(F3)|, not |PSp4(F3)| = 25920
        assert adjoint_order(FiniteFormSpace(SP, 4, 3)) == 51840
        assert adjoint_order(FiniteFormSpace(SO_ODD, 5, 3)) == 51840

    def test_unknown_mode(self):
        with pytest.raises(InvalidInput, match="unknown space mode 'G'"):
            FiniteFormSpace("G", 4, 3)

    @pytest.mark.parametrize("nu,order,adjoint", [(2, 48, 24),
                                                  (4, 103680, 51840)])
    def test_similitude_group_over_scalars(self, nu, order, adjoint):
        # independent of the order formulas: close CSp_nu(F_3), Sp_nu(F_3)
        # and one similitude of multiplier 2, then divide by the q - 1
        # scalars, which act freely; PCSp is the adjoint group of Sp
        q, n = 3, nu // 2
        space = FiniteFormSpace(SP, nu, q)
        sim = tuple(tuple((2 if i < n else 1) * (i == j) for j in range(nu))
                    for i in range(nu))
        gens = list(enumerate_group_cached(space).kept) + [sim]
        form = space.form
        for g in gens:
            scaled = mat_mul(mat_mul(tuple(zip(*g)), form, q), g, q)
            lam = scaled[0][nu - 1]  # form[0][nu - 1] is 1
            assert lam % q
            assert scaled == tuple(tuple(lam * x % q for x in row)
                                   for row in form)
        acts = [counting.RowAction(g, q).__getitem__ for g in gens]
        one = mat_identity(nu)
        seen, frontier = {one}, [one]
        while frontier:
            nxt = []
            for x in frontier:
                for act in acts:
                    y = tuple(map(act, x))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(seen) == order
        scalars = [tuple(tuple(c * (i == j) for j in range(nu))
                         for i in range(nu)) for c in range(1, q)]
        assert all(s in seen for s in scalars)
        assert len(seen) % (q - 1) == 0
        assert len(seen) // (q - 1) == adjoint == adjoint_order(space)


class TestCounting:
    def test_gl2_f3_coxeter_count(self):
        rep = CountCase("A", 3, n=2).report()
        assert rep["count"] == 24
        assert rep["count"] == 3 * (3 ** 2 - 1) == rep["adjoint_order"]
        assert rep["double_count_consistent"]

    def test_gl3_f2_coxeter_count(self):
        rep = CountCase("A", 2, n=3).report()
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
        assert bilinear(space, cols[0], cols[0]) != 0
        outside = basis_of(cols)
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


def count_digest(capsys):
    """SHA-256 over the ``--per-element`` JSON of every registry count,
    without the run times: ``runtime`` and the manifest's ``wall_time_s``."""
    out = []
    for case in COUNT_CASES:
        code = main(shlex.split(count_line(case))[1:] + ["--per-element"])
        payload = json.loads(capsys.readouterr().out)
        payload["result"].pop("runtime")
        payload["manifest"].pop("wall_time_s")
        out.append([code, payload])
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_pinned_count_reports(capsys):
    assert count_digest(capsys) == PINNED_COUNT_DIGEST
