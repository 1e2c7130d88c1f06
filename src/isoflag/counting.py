"""Desk-scale counting over GF(q): groups, flags, and position tests.

This module enumerates small classical groups (GL, Sp, SO) over a prime
field, lists their complete isotropic flags and unipotent elements of a
given Jordan type, and counts the pairs (g, flag) whose relative position
matches either the classical dimension conditions of the shape or, in
type A, a fixed Coxeter cycle.

The hot loops -- the group closure, the class walk and the position
tests -- run dense modular arithmetic on plain integer tuples, without
field elements.  A group element has at most q^nu - 1 distinct rows, so
a product h m is read off a ``RowAction`` of m, which computes v m once
per distinct row v.  The int tuples are the raw rows of linalg's GF(q)
kernel, which ``FiniteFormSpace.kernel`` holds, so inverses, the cell
algebra, the Jordan rule and the relative position (``bruhat_pivots``,
re-exported here) all eliminate through linalg.  The group is closed
from the pieces of the Bruhat decomposition G = B W B that the flags are
built from, the Weyl monomials, one torus element and the root-cell
elements, and listed in closure order.  The filter walks the conjugacy
classes that meet U, the q^N upper unitriangular elements, once: U is a
Sylow p-subgroup, so these classes hold every unipotent and nothing
else, and the group list is never scanned.  The walk returns each class
as a sorted list of elements; the filter runs the Jordan rule at the
least and greatest member, not at every element, and hands the classes
of the chosen type on to the count.  U and the flags are read off the
same root cells: each flag is u w F0 with u in the Bruhat cell U_w, as
its basis u w alone, gated by ``IsoFlag.verify`` and |flags| x |B| =
|G|; the count inverts each basis with ``inverse_rows``.  Only prime q
is supported.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, permutations, product
from math import prod
from operator import mul
from typing import Dict, List, Optional, Tuple

from .fields import get_finite_field, is_prime
from .linalg import (Matrix, bruhat_pivots, image_chain_ranks,
                     inverse_rows, nullspace_rows, scalar_kernel)
from .model import IsoFlag, IsotropyViolation, QuadSpace
from .shapes import (BoundExceeded, InvalidInput, ShapeSeq,
                     VerificationFailed, jordan_from_ranks,
                     jordan_prediction, position_ok)

#: Hard cap on enumerated group order.
MAX_GROUP_ORDER = 10 ** 6

#: Hard cap on both the space dimension nu and the field size q.
MAX_NU_AND_Q = 7

TYPE_A = "typeA"
SP = "symplectic"
SO_ODD = "orthogonal-odd-dim"


# -- dense modular linear algebra on int tuples ------------------------------

def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b, p: int) -> tuple:
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % p for col in bt])
                  for row in a])


class RowAction(dict):
    """v -> v m mod p for a fixed matrix m, computed once per distinct row
    v on first lookup.  With ``by_m = RowAction(m, p).__getitem__``, the
    product h m is ``tuple(map(by_m, h))``, one lookup per row of h."""

    def __init__(self, m, p: int):
        super().__init__()
        self.cols = tuple(zip(*m))
        self.p = p

    def __missing__(self, v: tuple) -> tuple:
        p = self.p
        w = self[v] = tuple([sum(map(mul, v, col)) % p for col in self.cols])
        return w


def sandwich(a, b, p: int):
    """x -> a x b on two row actions: the rows of x go through b, then the
    columns of x b through a^T, since (a m)^T = m^T a^T."""
    right = RowAction(b, p).__getitem__
    left = RowAction(tuple(zip(*a)), p).__getitem__
    return lambda x: tuple(zip(*map(left, zip(*map(right, x)))))


def unipotent_jordan_type(g, p: int) -> Optional[Counter]:
    """Jordan multiset of g - 1 when g is unipotent, else None: the ranks
    of (g - 1)^k from linalg's image chain."""
    nm = tuple(tuple((x - (1 if i == j else 0)) % p for j, x in enumerate(r))
               for i, r in enumerate(g))
    ranks = image_chain_ranks(nm, scalar_kernel(get_finite_field(p)))
    return None if ranks[-1] else jordan_from_ranks(ranks)


# -- spaces and groups -------------------------------------------------------

class FiniteFormSpace:
    """GF(q)^nu with no form (type A), the split symplectic form, or the
    odd split symmetric form (antidiagonal ones; Q(v) = (v, v)/2).

    ``form`` is the Gram matrix as int tuples, for the hot loops; ``quad``
    is the same form as a ``model.QuadSpace`` over GF(q), for the flags;
    it reads the model mode and Q off the form.  Both are None in type A.
    ``kernel`` is linalg's GF(q) kernel, whose raw rows are these int
    tuples.  ``degrees`` are the degrees of the Weyl group's invariants,
    1..nu for GL and 2, 4, ..., 2n for Sp_2n and SO_2n+1, from which
    every order below follows; ``center_order`` is |Z(G)(F_q)|: the
    q - 1 scalars of GL, +-1 in Sp, 1 in odd SO.
    """

    def __init__(self, mode: str, nu: int, q: int):
        if mode not in (TYPE_A, SP, SO_ODD):
            raise InvalidInput(f"unknown space mode {mode!r}")
        if nu < 1:
            raise InvalidInput(f"nu = {nu} must be positive")
        if nu > MAX_NU_AND_Q:
            raise BoundExceeded(f"nu = {nu} exceeds the tractability bound "
                                f"{MAX_NU_AND_Q}")
        if not is_prime(q):
            raise InvalidInput(f"q = {q} must be prime")
        if q > MAX_NU_AND_Q:
            raise BoundExceeded(f"q = {q} exceeds the tractability bound "
                                f"{MAX_NU_AND_Q}")
        field = get_finite_field(q)
        if mode != TYPE_A and q == 2:
            raise InvalidInput("form-based counting needs odd q")
        if mode == SP and nu % 2:
            raise InvalidInput(f"{mode} needs even dimension, got nu = {nu}")
        if mode == SO_ODD and nu % 2 == 0:
            raise InvalidInput(f"{mode} needs odd dimension, got nu = {nu}")
        self.mode = mode
        self.nu = nu
        self.q = q
        self.degrees = tuple(range(1, nu + 1) if mode == TYPE_A
                             else range(2, nu + 1, 2))
        self.center_order = {TYPE_A: q - 1, SP: 2, SO_ODD: 1}[mode]
        self.kernel = scalar_kernel(field)
        self.form: Optional[tuple] = None
        self.quad: Optional[QuadSpace] = None
        if mode == SP:
            n = nu // 2
            self.form = tuple(
                tuple((1 if i < n else -1) % q if i + j == nu - 1 else 0
                      for j in range(nu)) for i in range(nu))
        elif mode == SO_ODD:
            self.form = tuple(tuple(1 if i + j == nu - 1 else 0
                                    for j in range(nu)) for i in range(nu))
        if self.form is not None:
            self.quad = QuadSpace(field, Matrix.from_scalars(field, self.form))

    def lift(self, rows) -> Matrix:
        """The GF(q) matrix of an int nu x nu matrix, built on its residues
        without a FieldElement per entry."""
        q = self.q
        return Matrix.from_raw(self.quad.field,
                               [[x % q for x in r] for r in rows], self.nu)

    def preserves_form(self, g) -> bool:
        return self.quad is None or \
            not self.quad.isometry_violations(self.lift(g))


def group_order_formula(space: FiniteFormSpace) -> int:
    """|G(F_q)| = q^N prod (q^d - 1) over the degrees d."""
    q = space.q
    return q ** _positive_roots(space) * prod(q ** d - 1
                                              for d in space.degrees)


def _primitive_root(q: int) -> int:
    """The least a whose powers fill GF(q)*; 1 for q = 2."""
    return next((a for a in range(2, q)
                 if len({pow(a, k, q) for k in range(q - 1)}) == q - 1), 1)


def _generators(space: FiniteFormSpace) -> List[tuple]:
    """The group's generators, the pieces of G = B W B that the flags are
    built from: the non-identity monomials w of _weyl_group; the torus
    element diag(a, 1, ..., 1, a^-1), or diag(a, 1, ..., 1) in type A,
    for the primitive root a; and the cell element of each basis vector
    of the full upper cell algebra.  The torus element is left out at
    rank 0 (SO_1), whose torus is trivial, and where a = 1 (q = 2)."""
    nu, q = space.nu, space.q
    gens = [_times_weyl(mat_identity(nu), p, signs, q)
            for p, signs in _weyl_group(space)[1:]]
    a = _primitive_root(q)
    if space.degrees and a != 1:
        d = [a] + [1] * (nu - 1)
        if space.form is not None:
            d[-1] = pow(a, q - 2, q)
        gens.append(tuple(tuple(x * (i == j) for j in range(nu))
                          for i, x in enumerate(d)))
    slots = _upper_slots(nu)
    gens.extend(_cell_element(_nilpotent(nu, slots, values), q,
                              space.form is not None)
                for values in _cell_algebra(space, slots))
    return gens


class GroupEnum:
    """The elements of a group, in the deterministic order the closure
    listed them (not sorted), with the generators it was closed under:
    ``kept`` are those the closure needed, and they alone generate the
    group.  ``members`` is the closure's set of the same elements, for
    membership tests."""

    def __init__(self, space: FiniteFormSpace, elements: List[tuple],
                 generators: List[tuple], kept: List[tuple],
                 members: set):
        self.space = space
        self.elements = elements
        self.generators = generators
        self.kept = kept
        self.members = members
        self.order = len(elements)


_GROUP_CACHE: Dict[Tuple[str, int, int], "GroupEnum"] = {}
_FLAG_CACHE: Dict[Tuple[str, int, int], List[tuple]] = {}


def enumerate_group_cached(space: FiniteFormSpace) -> GroupEnum:
    key = (space.mode, space.nu, space.q)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = enumerate_group(space)
    return _GROUP_CACHE[key]


def enumerate_isotropic_flags_cached(space: FiniteFormSpace) -> List[tuple]:
    key = (space.mode, space.nu, space.q)
    if key not in _FLAG_CACHE:
        _FLAG_CACHE[key] = enumerate_isotropic_flags(space)
    return _FLAG_CACHE[key]


def enumerate_group(space: FiniteFormSpace) -> GroupEnum:
    """All group elements by coset closure (Dimino's algorithm).

    Every generator must preserve the form, so every element does.  The
    generators s_1, s_2, ... are taken in turn; when s_i comes up, the
    set lists H = <s_1 .. s_{i-1}> and is a union of right cosets of H.
    An s_i already in the set is skipped.  Otherwise a list of right
    coset representatives grows from s_i: for each representative r and
    each kept generator s, r s either lies in the set or is a new
    representative x, and then the whole coset H x joins the set with no
    membership test, since distinct cosets are disjoint.  In a finite
    group, closing under the generators needs no inverses.  Each element
    is one product, read off a ``RowAction``: H x off one of x, and r s
    off one of each kept s, so each distinct row meets each matrix once.
    The elements are returned in the order they joined.  A coset that
    repeats an element, a set that outgrows the classical order formula,
    or one that ends at another order raises VerificationFailed.
    """
    target = group_order_formula(space)
    if target > MAX_GROUP_ORDER:
        raise BoundExceeded(f"group order {target} exceeds the cap "
                            f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
    q = space.q
    gens = _generators(space)
    for i, h in enumerate(gens):
        if not space.preserves_form(h):
            raise VerificationFailed(
                f"generator {i} = {h} does not preserve the form")
    one = mat_identity(space.nu)
    elements = [one]
    seen = {one}
    kept: List[tuple] = []
    by_kept = []
    for s in gens:
        if s in seen:
            continue
        kept.append(s)
        by_kept.append(RowAction(s, q).__getitem__)
        sub = elements[1:]  # H without the identity
        reps = [one]
        for r in reps:  # grows as the walk proceeds
            for t, by_t in zip(kept, by_kept):
                x = t if r is one else tuple(map(by_t, r))
                if x in seen:
                    continue
                reps.append(x)
                by_x = RowAction(x, q).__getitem__
                coset = [x] + [tuple(map(by_x, h)) for h in sub]
                elements.extend(coset)
                seen.update(coset)
                if len(elements) != len(seen):
                    raise VerificationFailed(
                        f"closure listed {len(elements)} elements, of "
                        f"which {len(seen)} are distinct")
                if len(seen) > target:
                    raise VerificationFailed(
                        f"closure passed {len(seen)} elements, more than "
                        f"the formula {target}")
    if len(seen) != target:
        raise VerificationFailed(
            f"closure order {len(seen)} never matched the formula {target}")
    return GroupEnum(space, elements, gens, kept, seen)


# -- flags -------------------------------------------------------------------

def _weyl_group(space: FiniteFormSpace) -> List[Tuple[tuple, List[int]]]:
    """The Weyl group, identity first, as pairs (p, s) such that the
    monomial w e_j = s_j e_{p(j)} preserves the form: every permutation in
    type A, else those commuting with j -> nu - 1 - j.  s_j = -1 for Sp
    where j < n goes to an upper index; SO signs the middle by sign(p), so
    that det w = 1."""
    nu, n = space.nu, space.nu // 2
    out = []
    for p in permutations(range(nu)):
        if space.form is not None and any(p[nu - 1 - j] != nu - 1 - p[j]
                                          for j in range(n)):
            continue
        signs = [1] * nu
        if space.mode == SP:
            signs[:n] = [-1 if p[j] >= n else 1 for j in range(n)]
        elif space.mode == SO_ODD:
            signs[n] = (-1) ** sum(p[a] > p[b] for a in range(nu)
                                   for b in range(a + 1, nu))
        out.append((p, signs))
    return out


def _cell_algebra(space: FiniteFormSpace, slots) -> List[tuple]:
    """A nullspace basis of the N supported on ``slots`` (positions above
    the diagonal) with N^T J + J N = 0, each N as its values on the slots.
    Type A has no form, so every slot is free."""
    nu, q, form = space.nu, space.q, space.form
    rows = [] if form is None else [
        [((form[a][j] if b == i else 0) + (form[i][a] if b == j else 0)) % q
         for a, b in slots] for i in range(nu) for j in range(i, nu)]
    return nullspace_rows(rows, space.kernel, len(slots))


def _upper_slots(nu: int) -> List[Tuple[int, int]]:
    """Every position above the diagonal, row by row."""
    return [(i, j) for i in range(nu) for j in range(i + 1, nu)]


def _cell_elements(space: FiniteFormSpace, slots) -> List[tuple]:
    """Every _cell_element of an N of _cell_algebra on ``slots``, one per
    coefficient vector over the nullspace basis, in product order."""
    nu, q = space.nu, space.q
    algebra = _cell_algebra(space, slots)
    return [_cell_element(_nilpotent(nu, slots, [sum(map(mul, coeffs, c)) % q
                                                 for c in zip(*algebra)]),
                          q, space.form is not None)
            for coeffs in product(range(q), repeat=len(algebra))]


def unipotent_radical(space: FiniteFormSpace) -> List[tuple]:
    """U(F_q), the upper unitriangular elements of the group: the
    _cell_elements on every slot above the diagonal, q^N of them."""
    return _cell_elements(space, _upper_slots(space.nu))


def _nilpotent(nu: int, slots, values) -> List[List[int]]:
    """The nu x nu X with ``values`` on ``slots`` and zeros elsewhere."""
    x = [[0] * nu for _ in range(nu)]
    for (a, b), v in zip(slots, values):
        x[a][b] = v
    return x


def _times_weyl(u, p, signs, q: int) -> tuple:
    """u w for the monomial w e_j = s_j e_{p(j)}: column j of u w is s_j
    times column p(j) of u."""
    return tuple(tuple(s * r[pj] % q for s, pj in zip(signs, p)) for r in u)


def _cell_element(x, q: int, cayley: bool) -> tuple:
    """u from a nilpotent X.  With ``cayley``, u is the Cayley transform
    of N = 2X, (1 - X)^-1 (1 + X) = 1 + 2 (X + X^2 + ...), an isometry
    when X is in the Lie algebra; otherwise u = 1 + X."""
    terms = [x]
    while cayley and any(map(any, terms[-1])):
        terms.append(mat_mul(terms[-1], x, q))
    c = 2 if cayley else 1
    return tuple(tuple((int(i == j) + c * sum(t[i][j] for t in terms)) % q
                       for j in range(len(x))) for i in range(len(x)))


def enumerate_isotropic_flags(space: FiniteFormSpace) -> List[tuple]:
    """Every flag of G/B: the complete flags in type A, the isotropic ones
    otherwise, with the standard flag F0 first.

    Each flag is its basis, a columns matrix of int tuples: the span of
    the first i columns is V_i.  By the Bruhat decomposition each flag is
    u w F0 for exactly one w of _weyl_group and one u in
    U_w = _cell_element(n_w), where n_w holds the N of _cell_algebra with
    w^-1 N w lower.  The basis is u w.
    """
    nu, q = space.nu, space.q
    flags = []
    for p, signs in _weyl_group(space):
        slots = [(a, b) for a, b in _upper_slots(nu)
                 if p.index(a) > p.index(b)]
        flags.extend(_times_weyl(u, p, signs, q)
                     for u in _cell_elements(space, slots))
    check_isotropic_flags(space, flags)
    return flags


def check_isotropic_flags(space: FiniteFormSpace, flags: List[tuple]):
    """Raise VerificationFailed unless each flag basis lifted into
    ``space.quad`` passes IsoFlag.verify (dim V_i = i, V_n isotropic,
    V_{nu-i} = V_i-perp; the message names the flag), and the flags times
    |B| = q^N (q - 1)^(number of degrees) make the group order."""
    q = space.q
    if space.quad is not None:
        for fi, basis in enumerate(flags):
            flag = IsoFlag(space.quad, space.lift(basis))
            try:
                flag.verify()
            except IsotropyViolation as exc:
                raise IsotropyViolation(f"flag {fi}: {exc}") from None
    borel = q ** _positive_roots(space) * (q - 1) ** len(space.degrees)
    order = group_order_formula(space)
    if len(flags) * borel != order:
        raise VerificationFailed(
            f"{len(flags)} isotropic flags times |B| = {borel} do not make "
            f"the group order {order}")


def _positive_roots(space: FiniteFormSpace) -> int:
    """N, the sum of d - 1 over the degrees."""
    return sum(d - 1 for d in space.degrees)


def unipotent_count_formula(space: FiniteFormSpace) -> int:
    """Steinberg's count q^(2N) of the unipotent elements, with N the
    number of positive roots."""
    return space.q ** (2 * _positive_roots(space))


class Unipotents(list):
    """The members of ``classes``, sorted, with ``classes``: the same
    classes as ascending index lists into this list, ordered by their
    least members."""

    def __init__(self, classes: List[List[tuple]]):
        super().__init__(sorted(chain.from_iterable(classes)))
        position = {g: k for k, g in enumerate(self)}
        self.classes = sorted([position[g] for g in cls] for cls in classes)


def unipotents_of_type(group: GroupEnum, target: Counter) -> Unipotents:
    """The elements of Jordan type ``target``, sorted, with their classes.

    U(F_q) has q^N elements, the whole p-part of |G(F_q)|, so it is a
    Sylow p-subgroup; a unipotent element is a p-element, so it lies in a
    conjugate of U, and its class meets U.  So one class walk seeded with
    ``unipotent_radical`` reaches every unipotent and nothing else, and
    the group's element list is never read: each conjugate is checked
    against ``group.members`` instead.  The walked classes must total
    Steinberg's q^(2N), else VerificationFailed.  The Jordan type is read
    at the least and the greatest member of each class; a reading that is
    not unipotent, or two different readings, raise VerificationFailed.
    """
    space = group.space
    q = space.q
    classes = conjugacy_classes(unipotent_radical(space), group.kept, q,
                                group.members)
    walked = sum(map(len, classes))
    want = unipotent_count_formula(space)
    if walked != want:
        raise VerificationFailed(
            f"{walked} unipotent elements, not the {want} of "
            f"Steinberg's count q^(2N)")
    picked = []
    for cls in classes:
        jordan = unipotent_jordan_type(cls[0], q)
        last = unipotent_jordan_type(cls[-1], q)
        if jordan is None or last != jordan:
            raise VerificationFailed(
                f"members {cls[0]} and {cls[-1]} of one class have Jordan "
                f"types {jordan} and {last}, not one unipotent type")
        if jordan == target:
            picked.append(cls)
    return Unipotents(picked)


def conjugacy_classes(seeds: List[tuple], generators: List[tuple],
                      p: int, group: set) -> List[List[tuple]]:
    """The classes that meet ``seeds`` under conjugation u -> s u s^-1 by
    the generators, each as a sorted list of elements.

    The orbits are the classes of the group the generators generate.  Each
    generator conjugates through its own ``sandwich`` of row actions, so
    the walk computes each distinct row product once.  A conjugate outside
    ``group``, a set holding the group, raises VerificationFailed.
    """
    k = scalar_kernel(get_finite_field(p))
    pairs = [(s, sandwich(s, inverse_rows(s, k), p)) for s in generators]
    seen = set()
    classes = []
    for u in seeds:
        if u in seen:
            continue
        seen.add(u)
        orbit = [u]
        for x in orbit:  # grows as the walk proceeds
            for s, conjugate in pairs:
                c = conjugate(x)
                if c in seen:
                    continue
                if c not in group:
                    raise VerificationFailed(
                        f"the conjugate {c} of {x} by {s} is not in the "
                        f"group")
                seen.add(c)
                orbit.append(c)
        classes.append(sorted(orbit))
    return classes


# -- relative position -------------------------------------------------------

def coxeter_cycle(n: int) -> Tuple[int, ...]:
    """The fixed Coxeter element of S_n: the cycle sending k to k + 1."""
    return tuple((j + 1) % n for j in range(n))


# -- pair counting -----------------------------------------------------------

def adjoint_order(space: FiniteFormSpace) -> int:
    """|G_ad(F_q)|: the product for |G| without its degree-1 factor, so
    |PGL_nu| in type A and |G| for Sp and odd SO (isogenous groups have
    equally many F_q-points, so not the order of PSp_2n(F_q))."""
    q = space.q
    return q ** _positive_roots(space) * prod(q ** d - 1
                                              for d in space.degrees if d > 1)


def count_pairs(space: FiniteFormSpace, gamma: Counter,
                shape: Optional[ShapeSeq] = None,
                flags: Optional[List[tuple]] = None) -> dict:
    """Count pairs (g, flag) in the required relative position.

    For type A the position test is equality with the fixed Coxeter
    cycle; otherwise the four dimension conditions of the shape.  Both
    tests are invariant under conjugation, and the isometries permute
    the flags transitively, so one flag F0 = flags[0] carries the count:
    with S the unipotents u for which (F0, u F0) passes,
    count = flag_count x |S|, and a unipotent u meets
    per_g = flag_count x |S cap Cl(u)| / |Cl(u)| flags, Cl(u) its class
    under conjugation by the kept generators.  ``per_flag`` is [|S|].
    Each flag is a basis B, and u is tested in it as B^-1 u B, with B^-1
    from ``inverse_rows``.

    ``double_count_consistent`` is an independent check by rows: one
    representative of each class is tested against every flag.  Its
    number of hits must equal the class's per_g, rounded down, and
    ``row_count``, the sum over classes of |Cl| x hits(rep), must equal
    the count; with every row on its per_g, the sum falls short exactly
    when some per_g is not an integer.  ``class_sizes`` lists |Cl| in
    ascending order.  ``class_relation_holds`` is the per-class gate
    per_g x |Cl| x |Z(G)(F_q)| = |G(F_q)| on every class, which holds for
    the predicted Jordan type and fails when a class misses a flag.
    """
    q, nu = space.q, space.nu
    if sum(s * c for s, c in gamma.items()) != nu:
        raise InvalidInput(f"gamma {dict(gamma)} must sum to nu = {nu}")
    if space.mode == TYPE_A:
        target = coxeter_cycle(nu)
        admissible = lambda piv: piv == target  # noqa: E731
    elif shape is None or shape.nu != nu:
        raise InvalidInput(f"{space.mode} counting needs a shape with "
                           f"nu = {nu}, got {shape}")
    else:
        admissible = lambda piv: position_ok(piv, shape)  # noqa: E731
    group = enumerate_group_cached(space)
    if flags is None:
        flags = enumerate_isotropic_flags_cached(space)
    unis = unipotents_of_type(group, gamma)

    # g -> B^-1 g B, g in the basis B of each flag
    kernel = space.kernel
    in_basis = [sandwich(inverse_rows(b, kernel), b, q) for b in flags]

    def hit(g, k) -> bool:
        return admissible(bruhat_pivots(in_basis[k](g), kernel))

    column = [hit(u, 0) for u in unis]
    count = len(flags) * sum(column)
    classes = unis.classes
    per_g = [0] * len(unis)
    rows_agree = True
    row_count = 0
    for cls in classes:
        share = len(flags) * sum(column[i] for i in cls) // len(cls)
        row = sum(hit(unis[cls[0]], k) for k in range(len(flags)))
        rows_agree = rows_agree and row == share
        row_count += len(cls) * row
        for i in cls:
            per_g[i] = share
    return {
        "count": count,
        "unipotent_count": len(unis),
        "flag_count": len(flags),
        "per_g": per_g,
        "per_flag": [sum(column)],
        "double_count_consistent": rows_agree and row_count == count,
        "row_count": row_count,
        "class_sizes": sorted(len(cls) for cls in classes),
        "class_relation_holds": all(
            per_g[cls[0]] * len(cls) * space.center_order == group.order
            for cls in classes),
    }


def predicted_jordan_type(space: FiniteFormSpace,
                          shape: Optional[ShapeSeq] = None) -> Counter:
    """The Jordan type whose count the adjoint order predicts: one block
    of size nu in type A, else ``shapes.jordan_prediction`` of the shape
    in the mode the form fixes."""
    if space.mode == TYPE_A:
        return Counter({space.nu: 1})
    return jordan_prediction(shape, space.quad.mode)
