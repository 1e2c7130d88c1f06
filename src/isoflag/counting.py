"""Desk-scale counting over GF(q): groups, flags, and position tests.

This module enumerates small classical groups (GL, Sp, SO) over a prime
field, lists their complete isotropic flags and unipotent elements of a
given Jordan type, and counts the pairs (g, flag) whose relative position
matches either the classical dimension conditions of the shape or, in
type A, a fixed Coxeter cycle.

The hot loops -- the group closure, the class split, the Jordan-type
filter and the position tests -- run dense modular arithmetic on plain
integer tuples, without field elements.  A group element has at most
q^nu - 1 distinct rows, so a product h m is read off a ``RowAction`` of
m, which computes v m once per distinct row v.  Elimination is
``linalg.echelon_mod``, the one GF(p) pivot loop, and the Jordan rule
runs at two members of each class, not at every element.  The flags are
read off the Bruhat cells, u w F0 with u in U_w, and gated by
``IsoFlag.verify`` and |flags| x |B| = |G|.  Only prime q is supported.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product
from math import prod
from operator import getitem, mul
from typing import Dict, List, Optional, Tuple

from .fields import get_finite_field
from .linalg import Matrix, echelon_mod
from .model import IsoFlag, IsotropyViolation, QuadSpace
from .shapes import (InvalidInput, ShapeSeq, VerificationFailed,
                     jordan_from_ranks, position_dims_ok)

#: Hard cap on enumerated group order.
MAX_GROUP_ORDER = 10 ** 6

#: Hard cap on both the space dimension nu and the field size q.
MAX_NU_AND_Q = 7

TYPE_A = "typeA"
SP = "symplectic"
SO_ODD = "orthogonal-odd-dim"


class BoundExceeded(Exception):
    pass


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


def mat_inv(a, p: int) -> tuple:
    n = len(a)
    rows, pivots = echelon_mod(
        [list(r) + [1 if i == j else 0 for j in range(n)]
         for i, r in enumerate(a)], p, n)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(r[n:]) for r in rows)


def mat_rank(rows, p: int) -> int:
    return len(echelon_mod(rows, p, len(rows[0]) if rows else 0)[1])


def unipotent_jordan_type(g, p: int) -> Optional[Counter]:
    """Jordan multiset of g - 1 when g is unipotent, else None."""
    n = len(g)
    nm = tuple(tuple((x - (1 if i == j else 0)) % p for j, x in enumerate(r))
               for i, r in enumerate(g))
    power = nm
    ranks = [n, mat_rank(nm, p)]
    while ranks[-1]:
        if ranks[-1] == ranks[-2]:
            return None  # a stalled rank above 0 never reaches 0
        power = mat_mul(power, nm, p)
        ranks.append(mat_rank(power, p))
    return jordan_from_ranks(ranks)


# -- spaces and groups -------------------------------------------------------

class FiniteFormSpace:
    """GF(q)^nu with no form (type A), the split symplectic form, or the
    odd split symmetric form (antidiagonal ones; Q(v) = (v, v)/2).

    ``form`` is the Gram matrix as int tuples, for the hot loops; ``quad``
    is the same form as a ``model.QuadSpace`` over GF(q), for the flags.
    Both are None in type A.  ``degrees`` are the degrees of the Weyl
    group's invariants, 1..nu for GL and 2, 4, ..., 2n for Sp_2n and
    SO_2n+1, from which every order below follows; ``center_order`` is
    |Z(G)(F_q)|: the q - 1 scalars of GL, +-1 in Sp, 1 in odd SO.
    """

    def __init__(self, mode: str, nu: int, q: int):
        if mode not in (TYPE_A, SP, SO_ODD):
            raise InvalidInput(f"unknown space mode {mode!r}")
        if nu < 1:
            raise InvalidInput(f"nu = {nu} must be positive")
        for name, value in (("nu", nu), ("q", q)):
            if value > MAX_NU_AND_Q:
                raise BoundExceeded(f"{name} = {value} exceeds the "
                                    f"tractability bound {MAX_NU_AND_Q}")
        try:
            field = get_finite_field(q)
        except ValueError:
            raise InvalidInput(f"q = {q} must be prime") from None
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
            gram = Matrix.from_scalars(field, self.form)
            q_basis = None if mode == SP else tuple(
                gram.rows[i][i] / 2 for i in range(nu))
            self.quad = QuadSpace(field, mode, gram, q_basis)

    def bilinear(self, u, v) -> int:
        return sum(u[i] * sum(f * y for f, y in zip(self.form[i], v))
                   for i in range(self.nu)) % self.q

    def lift(self, rows) -> Matrix:
        """The GF(q) matrix of an int matrix, built on its residues
        without a FieldElement per entry."""
        q = self.q
        return Matrix.from_raw(self.quad.field,
                               [[x % q for x in r] for r in rows])

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


def _nonzero_vectors(nu: int, q: int) -> List[tuple]:
    """Every nonzero vector of GF(q)^nu, in ascending base-q encoding."""
    return [tuple(code // q ** k % q for k in range(nu))
            for code in range(1, q ** nu)]


def _generators(space: FiniteFormSpace) -> List[tuple]:
    """Generators of the group, without repeats; a is a primitive root.

    Type A: the elementary transvections and diag(a, 1, ..., 1).  Sp: the
    transvections x -> x + c (x, v) v with c in {1, a} over every nonzero
    v.  SO: r_0 r_v over every anisotropic v, with r_v the reflection in v
    and r_0 the first of them.
    """
    nu, q = space.nu, space.q
    a = _primitive_root(q)
    if space.mode == TYPE_A:
        gens = []
        for i in range(nu):
            for j in range(nu):
                if i != j:
                    g = [list(r) for r in mat_identity(nu)]
                    g[i][j] = 1
                    gens.append(tuple(tuple(r) for r in g))
        d = [list(r) for r in mat_identity(nu)]
        d[0][0] = a
        gens.append(tuple(tuple(r) for r in d))
        return gens
    pool = _nonzero_vectors(nu, q)
    if space.mode == SP:
        return list(dict.fromkeys(_transvection(space, v, c)
                                  for v in pool for c in (1, a)))
    refs = list(dict.fromkeys(_reflection(space, v) for v in pool
                              if space.bilinear(v, v)))
    return [mat_mul(refs[0], r, q) for r in refs[1:]]


def _transvection(space: FiniteFormSpace, v, c) -> tuple:
    """x -> x + c (x, v) v; column i adds c (e_i, v) = c (J v)_i times v."""
    nu, q = space.nu, space.q
    jv = [sum(map(mul, row, v)) for row in space.form]
    return tuple(tuple((int(r == i) + c * jv[i] * v[r]) % q
                       for i in range(nu)) for r in range(nu))


def _reflection(space: FiniteFormSpace, v) -> tuple:
    """The reflection in an anisotropic v: c = -2 / (v, v)."""
    q = space.q
    return _transvection(space, v, -2 * pow(space.bilinear(v, v), q - 2, q))


class GroupEnum:
    """The elements of a group, sorted, with the generators it was closed
    under: ``kept`` are those the closure needed, and they alone generate
    the group."""

    def __init__(self, space: FiniteFormSpace, elements: List[tuple],
                 generators: List[tuple], kept: List[tuple]):
        self.space = space
        self.elements = elements
        self.generators = generators
        self.kept = kept
        self.order = len(elements)


_GROUP_CACHE: Dict[Tuple[str, int, int], "GroupEnum"] = {}
_FLAG_CACHE: Dict[Tuple[str, int, int], List[dict]] = {}


def enumerate_group_cached(space: FiniteFormSpace) -> GroupEnum:
    key = (space.mode, space.nu, space.q)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = enumerate_group(space)
    return _GROUP_CACHE[key]


def enumerate_isotropic_flags_cached(space: FiniteFormSpace) -> List[dict]:
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
    A set that outgrows the classical order formula, or ends at another
    order, raises VerificationFailed.
    """
    target = group_order_formula(space)
    if target > MAX_GROUP_ORDER:
        raise BoundExceeded(f"group order {target} exceeds cap")
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
                if len(seen) > target:
                    raise VerificationFailed(
                        f"closure passed {len(seen)} elements, more than "
                        f"the formula {target}")
    if len(seen) != target:
        raise VerificationFailed(
            f"closure order {len(seen)} never matched the formula {target}")
    return GroupEnum(space, sorted(seen), gens, kept)


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


def _cell_algebra(space: FiniteFormSpace, slots) -> List[list]:
    """A nullspace basis of the N supported on ``slots`` (positions above
    the diagonal) with N^T J + J N = 0, each N as its values on the slots.
    Type A has no form, so every slot is free."""
    nu, q, form = space.nu, space.q, space.form
    rows = [] if form is None else [
        [(form[a][j] if b == i else 0) + (form[i][a] if b == j else 0)
         for a, b in slots] for i in range(nu) for j in range(i, nu)]
    echelon, pivots = echelon_mod(rows, q, len(slots))
    basis = []
    for free in (k for k in range(len(slots)) if k not in pivots):
        v = [int(k == free) for k in range(len(slots))]
        for row, c in zip(echelon, pivots):
            v[c] = -row[free] % q
        basis.append(v)
    return basis


def _cell_element(x, q: int, cayley: bool) -> Tuple[tuple, tuple]:
    """u and u^-1 from a nilpotent X.  With ``cayley``, u is the Cayley
    transform of N = 2X, (1 - X)^-1 (1 + X) = 1 + 2 (X + X^2 + ...), an
    isometry when X is in the Lie algebra, and u^-1 is that of -N;
    otherwise u = 1 + X and u^-1 = 1 - X + X^2 - ..."""
    powers, power = [], x
    while any(map(any, power)):
        powers.append(power)
        power = mat_mul(power, x, q)
    c = 2 if cayley else 1

    def series(signs):
        return tuple(tuple((int(i == j) + c * sum(
            s * pk[i][j] for s, pk in zip(signs, powers))) % q
            for j in range(len(x))) for i in range(len(x)))

    return (series([1] * len(powers) if cayley else [1]),
            series([(-1) ** k for k in range(1, len(powers) + 1)]))


def enumerate_isotropic_flags(space: FiniteFormSpace) -> List[dict]:
    """Every flag of G/B: the complete flags in type A, the isotropic ones
    otherwise, with the standard flag F0 first.

    Each flag is returned as {"basis": columns matrix, "inv": its
    inverse}; the span of the first i columns is V_i.  By the
    Bruhat decomposition each flag is u w F0 for exactly one w of
    _weyl_group and one u in U_w = _cell_element(n_w), where n_w holds the
    N of _cell_algebra with w^-1 N w lower.  The basis is u w and the
    inverse w^-1 u^-1, so nothing is eliminated.
    """
    nu, q = space.nu, space.q
    flags = []
    for p, signs in _weyl_group(space):
        slots = [(a, b) for a in range(nu) for b in range(a + 1, nu)
                 if p.index(a) > p.index(b)]
        algebra = _cell_algebra(space, slots)
        for coeffs in product(range(q), repeat=len(algebra)):
            x = [[0] * nu for _ in range(nu)]
            for (a, b), *values in zip(slots, *algebra):
                x[a][b] = sum(map(mul, coeffs, values)) % q
            u, u_inv = _cell_element(x, q, space.form is not None)
            basis = tuple(tuple(s * u[r][pj] % q for s, pj in zip(signs, p))
                          for r in range(nu))
            inv = tuple(tuple(s * y % q for y in u_inv[pj])
                        for s, pj in zip(signs, p))
            flags.append({"basis": basis, "inv": inv})
    check_isotropic_flags(space, flags)
    return flags


def check_isotropic_flags(space: FiniteFormSpace, flags: List[dict]):
    """Raise VerificationFailed unless each flag's "inv" is the inverse of
    its basis, each flag lifted into ``space.quad`` passes IsoFlag.verify
    (V_n isotropic, V_{nu-i} = V_i-perp; the message names the flag), and
    the flags times |B| = q^N (q - 1)^(number of degrees) make the group
    order."""
    q, nu = space.q, space.nu
    for fi, fl in enumerate(flags):
        if mat_mul(fl["basis"], fl["inv"], q) != mat_identity(nu):
            raise VerificationFailed(f"flag {fi}: inv is not the inverse "
                                     f"of the basis")
        if space.quad is not None:
            try:
                IsoFlag(space.quad, space.lift(fl["basis"]),
                        space.lift(fl["inv"])).verify()
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


def unipotents_of_type(group: GroupEnum, target: Counter) -> List[tuple]:
    """The elements of Jordan type ``target``, in group order.

    Every eigenvalue of a unipotent element is 1, so its trace is nu mod
    q; an element with another trace skips the Jordan rule.  Trace is a
    class function, so the rest is a union of conjugacy classes, and the
    Jordan type is read at the first and the last member of each class;
    two different readings raise VerificationFailed.  The unipotent
    classes must total Steinberg's q^(2N), else VerificationFailed.
    """
    space = group.space
    q, nu = space.q, space.nu
    trace = nu % q
    diagonal = range(nu)
    candidates = [g for g in group.elements
                  if sum(map(getitem, g, diagonal)) % q == trace]
    total = 0
    picked: List[int] = []
    for cls in conjugacy_classes(candidates, group.kept, q):
        jordan = unipotent_jordan_type(candidates[cls[0]], q)
        last = unipotent_jordan_type(candidates[cls[-1]], q)
        if last != jordan:
            raise VerificationFailed(
                f"elements {cls[0]} and {cls[-1]} of one class have Jordan "
                f"types {jordan} and {last}")
        if jordan is not None:
            total += len(cls)
            if jordan == target:
                picked.extend(cls)
    want = unipotent_count_formula(space)
    if total != want:
        raise VerificationFailed(
            f"{total} unipotent elements, not the {want} of Steinberg's "
            f"count q^(2N)")
    return [candidates[i] for i in sorted(picked)]


def conjugacy_classes(elements: List[tuple], generators: List[tuple],
                      p: int) -> List[List[int]]:
    """Orbits of ``elements`` under conjugation u -> s u s^-1 by the
    generators, as lists of indices, each led by its smallest index.

    The orbits are the classes of the group the generators generate.  Each
    generator conjugates through its own ``sandwich`` of row actions, so
    the walk computes each distinct row product once.  A conjugate
    outside ``elements`` raises VerificationFailed.
    """
    index = {u: i for i, u in enumerate(elements)}
    pairs = [(s, sandwich(s, mat_inv(s, p), p)) for s in generators]
    seen = [False] * len(elements)
    classes = []
    for start in range(len(elements)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for i in orbit:  # grows as the walk proceeds
            for s, conjugate in pairs:
                c = conjugate(elements[i])
                j = index.get(c)
                if j is None:
                    raise VerificationFailed(
                        f"the conjugate {c} of element {i} by {s} is not "
                        f"in the list")
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        classes.append(orbit)
    return classes


# -- relative position -------------------------------------------------------

def bruhat_pivots(m, p: int) -> Tuple[int, ...]:
    """Pivot rows (0-based) of the columns of an invertible matrix under
    left-to-right column reduction with bottom-most pivots.

    The result is the permutation w (as a tuple, column -> pivot row) with
    dim(V_i cap V'_j) = #{k < j : w(k) < i} for the flags spanned by
    column prefixes of the identity and of m.
    """
    n = len(m)
    cols = [list(col) for col in zip(*m)]
    pivots: List[int] = []
    kept: List[List[int]] = []
    for j in range(n):
        col = cols[j]
        for k, pk in enumerate(pivots):
            f = col[pk] % p
            if f:
                col = [(x - f * y) % p for x, y in zip(col, kept[k])]
        piv = max(i for i, x in enumerate(col) if x % p)
        inv = pow(col[piv], p - 2, p)
        kept.append([x * inv % p for x in col])
        pivots.append(piv)
    return tuple(pivots)


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
                flags: Optional[List[dict]] = None) -> dict:
    """Count pairs (g, flag) in the required relative position.

    For type A the position test is equality with the fixed Coxeter
    cycle; otherwise the four dimension conditions of the shape.  Both
    tests are invariant under conjugation, and the isometries permute
    the flags transitively, so one flag F0 = flags[0] carries the count:
    with S the unipotents u for which (F0, u F0) passes,
    count = flag_count x |S|, and a unipotent u meets
    per_g = flag_count x |S cap Cl(u)| / |Cl(u)| flags, Cl(u) its class
    under conjugation by the kept generators.  ``per_flag`` is [|S|].

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
        admissible = lambda piv: position_dims_ok(  # noqa: E731
            lambda i, j: sum(1 for k in range(j) if piv[k] < i), shape, nu)
    group = enumerate_group_cached(space)
    if flags is None:
        flags = enumerate_isotropic_flags_cached(space)
    unis = unipotents_of_type(group, gamma)

    # g -> B^-1 g B, g in the basis B of each flag
    in_basis = [sandwich(fl["inv"], fl["basis"], q) for fl in flags]

    def hit(g, k) -> bool:
        return admissible(bruhat_pivots(in_basis[k](g), q))

    column = [hit(u, 0) for u in unis]
    count = len(flags) * sum(column)
    classes = conjugacy_classes(unis, group.kept, q)
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


def count_report(space: FiniteFormSpace, gamma: Counter,
                 shape: Optional[ShapeSeq] = None,
                 expect_equal: bool = True) -> dict:
    """count_pairs plus the relation the count must satisfy.

    The count is checked against the adjoint order in every type: equal
    for the predicted Jordan type, different for an off-class one
    (``expect_equal`` False); ``relation_holds`` records the outcome.
    """
    result = count_pairs(space, gamma, shape=shape)
    adjoint = adjoint_order(space)
    result["group_order"] = group_order_formula(space)
    result["adjoint_order"] = adjoint
    result["expected_relation"] = "equal" if expect_equal else "differs"
    result["relation_holds"] = (result["count"] == adjoint) == expect_equal
    return result
