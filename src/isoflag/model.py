"""Explicit models: space, form, unipotent isometry, flags, intertwiner.

From a pairing table this module rebuilds the vector space V with its
bilinear form (and quadratic form where one is present), the unipotent
isometry g whose adapted collection realizes the table, the pair of
isotropic flags attached to the collection, and the intertwiner T between
two models over the same space.

Vectors are tuples of FieldElement of length nu; the standard basis is
indexed by the shape's block indices (t, i), i in [0, 2p_t - 1], in lex
order, plus (sigma+1, 0) when kappa = 1.  The collection orbit, its
pairing profile and the flag completion stay raw kernel scalars (see
linalg), wrapped only where a vector or a reported value leaves them.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .fields import FieldElement
from .gram import GramTable
from .linalg import (Affine, Matrix, NoSolution, Unique, _identity_rows,
                     bruhat_pivots, dot, nilpotent_jordan_multiset,
                     scalar_kernel, solve_linear)
from .shapes import (ORTHOGONAL, SYMPLECTIC, InvalidInput, ShapeSeq,
                     VerificationFailed, block_jordan_sizes, jordan_prediction,
                     position_ok, psi)


class IsotropyViolation(VerificationFailed):
    """A flag that is not an isotropic flag of its space."""


def _witness(gram: Matrix, s: int) -> str:
    """The first entry of G where G^T = sG fails, for a message."""
    rows = gram.rows
    m, mp = next((m, mp) for m in range(gram.nrows) for mp in range(m + 1)
                 if rows[m][mp] != rows[mp][m] * s)
    return (f"G[{m}][{mp}] = {rows[m][mp]} is not "
            f"{s} * G[{mp}][{m}] = {s} * {rows[mp][m]}")


class QuadSpace:
    """Dimension, Gram matrix G, and quadratic form values read off G.

    ``sign`` is the s = +-1 with G^T = s G (1 where both hold, as in
    characteristic 2); a G that is neither symmetric nor skew-symmetric
    raises VerificationFailed.  ``mode`` is SYMPLECTIC when G is
    alternating or the characteristic is 2, else ORTHOGONAL.

    ``q_basis`` holds Q on the standard basis vectors, or None for no
    quadratic form.  Only in characteristic 2 is it passed in; elsewhere
    it is diag(G)/2 on a symmetric G, so that Q(v) = (v, v)/2, and None
    on an alternating one.  Q of an arbitrary vector is recovered from
    the basis values and G via Q(x + y) = Q(x) + Q(y) + (x, y).
    """

    def __init__(self, field, gram: Matrix,
                 q_basis: Optional[Tuple[FieldElement, ...]] = None):
        self.field = field
        self.gram = gram
        self.dim = gram.nrows
        self._gram_t = gram_t = gram.transpose()
        symmetric, skew = gram_t == gram, gram_t == -gram
        if not (symmetric or skew):
            raise VerificationFailed(
                f"G^T = sG for neither s = 1 nor s = -1: "
                f"{_witness(gram, 1)} and {_witness(gram, -1)}")
        self.sign = 1 if symmetric else -1
        # outside characteristic 2, G^T = -G makes G alternating
        self.mode = SYMPLECTIC if skew or field.char == 2 else ORTHOGONAL
        if q_basis is not None and field.char != 2:
            raise InvalidInput(f"Q over {field} is (v, v)/2, read off G; "
                               f"a q_basis is taken in characteristic 2 only")
        if self.mode == ORTHOGONAL:
            half = field.from_int(2).inverse()
            q_basis = tuple(gram.rows[m][m] * half for m in range(self.dim))
        self.q_basis = q_basis
        # Q(v) = v^T U v with U = diag(q_basis) + strict upper triangle of G
        self._upper = None if q_basis is None else Matrix(field, [
            [q_basis[m] if m == mp else gram.rows[m][mp] if m < mp
             else field.zero for mp in range(self.dim)]
            for m in range(self.dim)])

    def bilinear(self, u, v) -> FieldElement:
        return dot(u, self.gram.apply(v), self.field)

    def quad(self, v) -> FieldElement:
        if self.q_basis is None:
            raise InvalidInput("no quadratic form on this space")
        return dot(v, self._upper.apply(v), self.field)

    def isometry_violations(self, h: Matrix) -> List[tuple]:
        """Where h fails to preserve the form and Q; empty for an isometry.

        ("form", (m, m'), value) for each entry where h^T G h differs from
        G, and ("Q", m, Q(h e_m)) for each basis vector whose Q value
        changes; with the form preserved, Q right on the basis gives
        Q(h v) = Q(v) for every v.  Q is checked in characteristic 2
        only: elsewhere it is (v, v)/2, which the form check covers.
        """
        k, got = (h.transpose() * self.gram * h)._raw()
        bad = [("form", (m, mp), k.wrap(x))
               for m, (row, want) in enumerate(zip(got, self.gram._raw()[1]))
               for mp, (x, w) in enumerate(zip(row, want)) if x != w]
        if self.field.char != 2:
            return bad
        for m, want in enumerate(self.q_basis or ()):
            got = self.quad(h.col(m))
            if got != want:
                bad.append(("Q", m, got))
        return bad

    def to_json(self):
        return {
            "dimension": self.dim,
            "mode": self.mode,
            "field": self.field.to_json(),
            "gram": self.gram.to_json(),
            "q_basis": None if self.q_basis is None
            else [x.to_json() for x in self.q_basis],
        }


class IsometryModel:
    """A unipotent isometry together with its adapted collection.

    ``w_cols`` is the nu x nu matrix whose columns, in block-index order,
    are the collection vectors w^t_i for i in [0, 2p_t - 1] expressed in
    the standard basis.  For a freshly built model this is the identity;
    derived models (sign flips, conjugates) carry other columns.
    ``table`` is the pairing table the collection realizes, or None.  The
    mode is the space's, and g^-1 and w_cols^-1 are found by elimination
    when first read, so no inverse is taken on trust.
    """

    def __init__(self, shape: ShapeSeq, space: QuadSpace, g: Matrix,
                 w_cols: Matrix, table: Optional[GramTable] = None):
        self.shape = shape
        self.space = space
        self.mode = space.mode
        self.g = g
        self.w_cols = w_cols
        self.table = table
        self.basis_index = shape.block_indices()
        self._orbit: Dict[Tuple[int, int], tuple] = dict(
            zip(self.basis_index, zip(*w_cols._raw()[1])))
        self._gram_images: Dict[int, list] = {}
        self._pairings: Optional[dict] = None

    @property
    def field(self):
        return self.space.field

    @cached_property
    def g_inv(self) -> Matrix:
        return self.g.inverse()

    @cached_property
    def w_inv(self) -> Matrix:
        return self.w_cols.inverse()

    def raw_index(self, t: int, i: int) -> tuple:
        """The raw coordinates of w^t_i for any integer i: the stored
        columns of w_cols, stepped by g above block t's window and by
        g^-1 below it.  Memoized on the model: the one collection orbit."""
        orbit, key = self._orbit, (t, i)
        if key not in orbit:
            hi = 2 * self.shape.part(t) - 1 if t <= self.shape.sigma else 0
            step, j = (self.g, i - 1) if i > hi else (self.g_inv, i + 1)
            k, rows = step._raw()
            v = self.raw_index(t, j)
            orbit[key] = tuple([k.dot(row, v) for row in rows])
        return orbit[key]

    def gram_image(self, r: int) -> list:
        """The raw coordinates of G w^r_0, against which every pairing
        (w^t_d, w^r_0) is one kernel dot.  Memoized on the model."""
        images = self._gram_images
        if r not in images:
            k, gram = self.space.gram._raw()
            w = self.raw_index(r, 0)
            images[r] = [k.dot(row, w) for row in gram]
        return images[r]

    def raw_pairing(self, key: Tuple[int, int, int]):
        """The value of collection_pairings(self) at one key (t, r, d),
        without building the profile: w^t_d on the raw orbit dotted with
        gram_image(r), and for d < 0 s times the value at (r, t, -d), as
        the profile mirrors it."""
        t, r, d = key
        k = self.space.gram._raw()[0]
        if d >= 0:
            return k.dot(self.raw_index(t, d), self.gram_image(r))
        v = k.dot(self.raw_index(r, -d), self.gram_image(t))
        return k.neg(v) if self.space.sign == -1 else v

    def extend_index(self, t: int, i: int) -> tuple:
        """The collection vector w^t_i for any integer i, via powers of g."""
        k = self.w_cols._raw()[0]
        return tuple(map(k.wrap, self.raw_index(t, i)))

    def _signed_cols(self, eps) -> Matrix:
        """W E: w_cols with the columns of block t times eps_t = +-1."""
        k, w = self.w_cols._raw()
        flip = [eps[t] == -1 for t, _i in self.basis_index]
        return Matrix.from_raw(self.field, [
            [k.neg(x) if s else x for x, s in zip(row, flip)] for row in w],
            self.w_cols.ncols)

    def with_signs(self, eps) -> "IsometryModel":
        """The model whose collection is w^t_i -> eps_t * w^t_i.  Its
        pairings are eps_t eps_r times the table's, so it carries none.
        ``eps`` maps every block t in 1..sigma+kappa to 1 or -1 and
        names no other block; anything else raises InvalidInput."""
        blocks = range(1, self.shape.sigma + self.shape.kappa + 1)
        for t in blocks:
            if t not in eps or eps[t] not in (1, -1):
                raise InvalidInput(
                    f"the sign of block {t} is {eps.get(t)!r}, not 1 or -1")
        extra = [t for t in eps if t not in blocks]
        if extra:
            raise InvalidInput(f"signs for blocks {extra} outside "
                               f"1..{len(blocks)}")
        return IsometryModel(self.shape, self.space, self.g,
                             self._signed_cols(eps))

    def conjugated(self, h: Matrix) -> "IsometryModel":
        """The model (h g h^{-1}, h w^t_i) for an isometry h, which keeps
        every pairing and so the table."""
        return IsometryModel(self.shape, self.space, h * self.g * h.inverse(),
                             h * self.w_cols, self.table)

    def to_json(self):
        return {
            "shape": self.shape.to_json(),
            "mode": self.mode,
            "space": self.space.to_json(),
            "g": self.g.to_json(),
        }


def build_model(shape: ShapeSeq, mode: str, field=None) -> IsometryModel:
    """Reconstruct (V, form, g) from the canonical pairing table.

    g shifts e^t_i to e^t_{i+1} within each block; each block's last image,
    the kappa row's too, is solved from the pairing constraints.  Where a
    size-1 Jordan block is predicted, that solve gives g e^(sigma+1)_0 =
    e^(sigma+1)_0.  All model invariants (isometry, nilpotency, Jordan
    multiset, the six collection clauses, and the table round trip) are
    verified before returning.
    """
    table = GramTable(shape, mode, field)
    f = table.field
    gram = table.gram_matrix()
    sigma = shape.sigma
    idx = shape.block_indices()
    nu = len(idx)

    # G fixes Q except in characteristic 2, where Q(w^t_0) is 1 on the
    # kappa row and 0 on every block (clause f)
    q_basis = tuple(f.one if t > sigma else f.zero for (t, _i) in idx) \
        if f.char == 2 else None
    space = QuadSpace(f, gram, q_basis)

    index_of = {ti: m for m, ti in enumerate(idx)}
    cols: List[tuple] = []
    for (t, i) in idx:
        hi = 2 * shape.part(t) - 1 if t <= sigma else 0
        if i < hi:
            e = [f.zero] * nu
            e[index_of[(t, i + 1)]] = f.one
            cols.append(tuple(e))
            continue
        top = hi + 1
        rhs = [table.value(t, y, top - j) for (y, j) in idx]
        sol = solve_linear(space._gram_t, rhs)
        if isinstance(sol, NoSolution):
            raise VerificationFailed(
                f"no image for block end ({t}, {hi}) solves the pairing "
                f"constraints")
        if isinstance(sol, Unique):
            cols.append(sol.x)
            continue
        # radical ambiguity: only the char-2 kappa = 1 case reaches here,
        # resolved by matching Q(w^t_{top}) = Q(w^t_0)
        assert isinstance(sol, Affine)
        if len(sol.kernel) != 1 or space.q_basis is None:
            raise VerificationFailed(
                f"unexpected solution ambiguity of dimension "
                f"{len(sol.kernel)} at block end ({t}, {hi})")
        rho = sol.kernel[0]
        target = space.q_basis[index_of[(t, 0)]]
        q_rho = space.quad(rho)
        if q_rho.is_zero:
            raise VerificationFailed("radical direction has Q = 0; the "
                                     "ambiguity cannot be resolved")
        c2 = (target - space.quad(sol.x0)) / q_rho
        c = f.sqrt_or_none(c2)
        assert c is not None, "characteristic-2 square roots always exist"
        cols.append(tuple(x + c * y for x, y in zip(sol.x0, rho)))
    g = Matrix(f, cols).transpose()

    model = IsometryModel(shape, space, g, Matrix.identity(f, nu), table)
    _verify_model(model)
    return model


def _verify_model(model: IsometryModel):
    shape, g, space = model.shape, model.g, model.space
    report = check_adapted(model)  # isometry included
    if report:
        raise VerificationFailed(f"collection clauses violated: {report[:3]}")
    n = g - Matrix.identity(space.field, space.dim)
    jordan = nilpotent_jordan_multiset(n)
    predicted = jordan_prediction(shape, model.mode)
    if jordan != predicted:
        raise VerificationFailed(
            f"Jordan multiset {dict(jordan)} differs from the predicted "
            f"{dict(predicted)}")
    bad = round_trip_mismatches(model)
    if bad:
        raise VerificationFailed(f"table round trip failed at {bad[:3]}")


def check_adapted(model: IsometryModel) -> List[tuple]:
    """Violations of the isometry and of the six collection clauses.

    The precondition is that g is an isometry and that clause (a),
    w^t_{i+1} = g w^t_i, holds on the stored columns; if it fails, only
    its violations are returned.  Elsewhere raw_index defines w^t_i by
    powers of g, so clause (a) holds there by construction.  Then
    (w^t_i, w^r_j) = (w^t_{i-j}, w^r_0), so clauses b to e are read off
    the raw pairing profile at offsets d, and Q(w^t_i) = Q(w^t_0), so
    clause (f) is read at i = 0.  Returns tuples (clause, witness indices,
    got), got a FieldElement; empty on pass.
    """
    shape, space, g, w = model.shape, model.space, model.g, model.w_cols
    sigma, kappa = shape.sigma, shape.kappa
    f = space.field
    bad = space.isometry_violations(g)
    cols = list(zip(*w._raw()[1]))
    images = list(zip(*(g * w)._raw()[1]))
    for m, (t, i) in enumerate(model.basis_index):
        if t <= sigma and i < 2 * shape.part(t) - 1:
            # (t, i + 1): block indices are in lex order
            if cols[m + 1] != images[m]:
                bad.append(("a", (t, i), w.col(m + 1)))
    if bad:
        return bad

    profile = collection_pairings(model)
    k = scalar_kernel(f)

    def expect(clause, t, r, offsets, want):
        for d in offsets:
            v = profile[(t, r, d)]
            if v != want:
                bad.append((clause, (t, r, d), k.wrap(v)))

    for t in range(1, sigma + 1):
        p_t = shape.part(t)
        expect("b", t, t, range(1 - p_t, p_t), k.zero)
        expect("b", t, t, (-p_t,), k.one)
        for r in range(t + 1, sigma + 1):
            p_r = shape.part(r)
            expect("c", t, r, range(-p_r, 2 * p_t - p_r), k.zero)
    if kappa:
        expect("d", sigma + 1, sigma + 1, (0,), k.add(k.one, k.one))
        for t in range(1, sigma + 1):
            expect("e", t, sigma + 1, range(2 * shape.part(t)), k.zero)
    if space.q_basis is not None:
        for t in range(1, sigma + kappa + 1):
            v = space.quad(model.extend_index(t, 0))
            if v != (f.one if t > sigma else f.zero):
                bad.append(("f", (t, 0), v))
    return bad


def round_trip_mismatches(model: IsometryModel) -> List[tuple]:
    """Offsets (t, r, d) where the pairing profile differs from the table.

    Assumes check_adapted passed, so that g is an isometry and every
    window pairing (w^t_i, w^r_j) equals the profile entry at d = i - j.
    Every key is compared, the negative offsets too: the profile reads
    (t, r, -d) as s (w^r_d, w^t_0), and the table's own value at
    (t, r, -d) is checked against it.  The table's values are unwrapped
    once; one of another field is left out, so it is a mismatch.
    """
    if model.table is None:
        return []
    f, table, profile = model.field, model.table, collection_pairings(model)
    own = {key: x for key in profile for x in (table.value(*key),)
           if x.field == f}
    raw = dict(zip(own, scalar_kernel(f).unwrap(own.values())))
    return [key for key, v in profile.items()
            if key not in raw or raw[key] != v]


# -- flags -------------------------------------------------------------------

class IsoFlag:
    """A complete flag as one adapted basis: the first i columns of the
    nu x nu Matrix ``basis`` span V_i.  The basis is the whole flag:
    ``inverse`` is found from it by elimination on first read, and is None
    when the basis is singular, which verify rejects.
    """

    def __init__(self, space: QuadSpace, basis: Matrix):
        self.space = space
        self.basis = basis

    @cached_property
    def inverse(self) -> Optional[Matrix]:
        try:
            return self.basis.inverse()
        except ZeroDivisionError:
            return None

    @property
    def subspaces(self) -> List[List[tuple]]:
        """Spanning vectors of V_0, ..., V_nu: the column prefixes."""
        cols = [self.basis.col(c) for c in range(self.space.dim)]
        return [cols[:i] for i in range(self.space.dim + 1)]

    def verify(self):
        """Raise IsotropyViolation unless all flag invariants hold.

        B invertible gives dim V_i = i.  With M = B^T G B, M[a][c] = 0 for
        a + c <= nu - 2 puts V_{nu-i} inside V_i-perp, and M[a][nu-1-a] != 0
        for a < n makes them equal, also when the form has a radical.
        """
        space, b = self.space, self.basis
        nu, n = space.dim, space.dim // 2
        if self.inverse is None:
            pivots = b._echelon()[1] + [nu]
            i = next(c for c, p in enumerate(pivots) if p != c) + 1
            raise IsotropyViolation(f"dim V_{i} != {i}")
        k, m = (b.transpose() * space.gram * b)._raw()
        for a in range(nu - 1):
            for c in range(nu - 1 - a):
                if m[a][c]:
                    raise IsotropyViolation(
                        f"V_{c + 1} not inside V_{a + 1} perp: "
                        f"(b_{a}, b_{c}) = {k.wrap(m[a][c])}")
        for a in range(n):
            if not m[a][nu - 1 - a]:
                raise IsotropyViolation(f"V_{a + 1} perp is not V_{nu - a - 1}")
        # outside characteristic 2, Q(b_a) = M[a][a] / 2: 0 by the first loop
        for a in range(n if space.field.char == 2 and space.q_basis else 0):
            q = space.quad(b.col(a))
            if not q.is_zero:
                raise IsotropyViolation(f"Q(b_{a}) = {q} on V_{n}")

    def apply(self, h: Matrix) -> "IsoFlag":
        """The flag h V_*, whose basis is h B."""
        return IsoFlag(self.space, h * self.basis)


def flags_from(model: IsometryModel) -> Tuple[IsoFlag, IsoFlag]:
    """The flag pair (V_*, V'_* = g V_*) attached to the collection.

    The adapted basis B starts with the collection vectors w^r_h, h in
    [p_r, 2p_r - 1], block by block: they span the isotropic V_n.  Column
    b_c, c = n..nu-1, is then the first vector v of the echelon kernel
    basis of V_j-perp, j = nu-1-c, with (b_j, v) != 0, or Q(v) != 0 for
    the middle column of an odd nu: V_{nu-i} = V_i-perp.  That basis is
    unique (1 at its own free column, 0 at the others), so for j + 1 it is
    this one without v, each later u less (b_j, u) / (b_j, v) v, on kernel
    scalars.  V' has basis g B.  Both flags are fully verified.
    """
    shape, space = model.shape, model.space
    k, gram = space.gram._raw()
    cols = [model.raw_index(r, h) for r in range(1, shape.sigma + 1)
            for h in range(shape.part(r), 2 * shape.part(r))]
    nu = space.dim
    basis, picks = _identity_rows(k, nu), []
    for j in range(nu - len(cols)):
        c = nu - 1 - j
        if j < c:  # lead each u with (b_j, u) = (b_j^T G) u
            rows = k.matmul([cols[j]], gram, nu) * len(basis)
        elif space.q_basis is None:
            raise InvalidInput("no quadratic form on this space")
        else:  # the middle column: lead each u with Q(u) = (u^T U) u
            rows = k.matmul(basis, space._upper._raw()[1], nu)
        led = [(k.dot(x, u), *u) for x, u in zip(rows, basis)]
        at = next((i for i, u in enumerate(led) if u[0]), None)
        if at is None:
            raise IsotropyViolation(f"V_{j} perp has no vector outside V_{c}")
        picks.append(basis[at])
        pivot = k.scale(led[at], led[at][0])
        basis = basis[:at] + [k.eliminate(u, pivot, 0)[1:] if u[0] else u[1:]
                              for u in led[at + 1:]]
    flag = IsoFlag(space, Matrix.from_raw(
        space.field, zip(*cols, *reversed(picks)), nu))
    flag.verify()
    flag_prime = flag.apply(model.g)
    flag_prime.verify()
    return flag, flag_prime


def position_check(flag: IsoFlag, flag_prime: IsoFlag,
                   shape: ShapeSeq) -> bool:
    """The four relative-position dimension conditions for the shape, read
    off the Bruhat permutation of M = B^{-1} B' by one elimination."""
    k, m = (flag.inverse * flag_prime.basis)._raw()
    return position_ok(bruhat_pivots(m, k), shape)


# -- sign normalization and the intertwiner ----------------------------------

def collection_pairings(model: IsometryModel) -> dict:
    """Pairings (w^t_d, w^r_0) for offsets |d| <= 6p_1, keyed (t, r, d).

    6p_1 is the largest offset i - j for i, j in the window [-2p_1, 4p_1].
    The clause checks and the table round trip read it, and build_T reads
    it for its first model only; IsometryModel.raw_pairing reads one key
    of it on the same orbit and the same G w^r_0 column without building
    it.  Memoized on the model: callers share the dict and must not change
    it.

    Preconditions: g is an isometry and G^T = sG with s = space.sign.
    Then (w^t_{-d}, w^r_0) = (w^t_0, w^r_d) = s (w^r_d, w^t_0), so only
    the offsets d >= 0 are computed: each pairing is one kernel dot of
    the model's raw orbit vector w^t_d against the raw G w^r_0, and the
    key (t, r, -d) takes s times the value at (r, t, d).  The values are
    raw scalars of the field's kernel: callers compare them raw and wrap
    only what they report.
    For a g that is no isometry the negative offsets are not pairings;
    check_adapted rejects such a g before it reads the profile, and
    build_T verifies the T it derives from it.
    """
    if model._pairings is not None:
        return model._pairings
    shape = model.shape
    bound = 6 * shape.part(1)
    blocks = range(1, shape.sigma + shape.kappa + 1)
    k = model.space.gram._raw()[0]
    dot, orbit = k.dot, model.raw_index
    # values[(t, r)][d] = (w^t_d, w^r_0) for d = 0..bound
    values = {}
    for r in blocks:
        gw = model.gram_image(r)
        for t in blocks:
            values[(t, r)] = [dot(orbit(t, d), gw)
                              for d in range(bound + 1)]
    out = {}
    for r in blocks:
        for t in blocks:
            mirror = values[(r, t)]
            if model.space.sign == -1:
                mirror = [k.neg(v) for v in mirror]
            out.update(((t, r, -d), mirror[d]) for d in range(bound, 0, -1))
            out.update(((t, r, d), v) for d, v in enumerate(values[(t, r)]))
    model._pairings = out
    return out


def normalize_signs(a_data: dict, b_at, block_count: int, neg):
    """A sign vector eps with eps_t eps_r * a = b on every link of a.

    ``a_data`` maps (t, r, offset) to raw pairing values of one kernel,
    ``b_at`` reads the second profile at one such key, and ``neg`` is the
    kernel's negation.  Blocks t != r are linked when some a(t, r, d) is
    nonzero, and b is read once per linked pair, at its nonzero key of
    least |d| (the first in a_data's order on a tie).  Outside
    characteristic 2 that read fixes eps_t eps_r.  Signs are propagated
    along the links from the lowest block index of each component, which
    receives +1.  Returns None when a read is neither a nor -a, or when a
    cycle of links disagrees.  No other key of b is compared: build_T's
    gates imply the rest (see there).
    """
    nearest: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    for (t, r, d), av in a_data.items():
        pair = (t, r) if t < r else (r, t)
        if av and t != r and (pair not in nearest
                              or abs(d) < abs(nearest[pair][2])):
            nearest[pair] = (t, r, d)
    signs: Dict[Tuple[int, int], int] = {}
    links: Dict[int, List[Tuple[int, int]]] = {}
    for (t, r), key in nearest.items():
        av, bv = a_data[key], b_at(key)
        if bv == av:
            s = 1
        elif bv == neg(av):
            s = -1
        else:
            return None
        signs[(t, r)] = s
        links.setdefault(t, []).append((r, s))
        links.setdefault(r, []).append((t, s))
    eps = {}
    for start in range(1, block_count + 1):
        if start in eps:
            continue
        eps[start] = 1
        queue = [start]
        while queue:
            t = queue.pop()
            for r, s in links.get(t, ()):
                if r not in eps:
                    eps[r] = eps[t] * s
                    queue.append(r)
    if any(eps[t] * eps[r] != s for (t, r), s in signs.items()):
        return None
    return eps


def build_T(model_a: IsometryModel, model_b: IsometryModel,
            flags_pair=None) -> Matrix:
    """The intertwiner T with T g T^{-1} = g~, fixing both flags.

    T sends the first model's collection to the sign-normalized second
    collection: T W_a = W_b E, with W_a and W_b the two ``w_cols`` and E
    the diagonal of the signs eps_t on the columns of block t.  The
    returned matrix is verified to preserve the form (and Q), to
    intertwine the two isometries, and to stabilize both flags of the
    first model.

    The signs come from the first model's full pairing profile and one
    read of the second model's per linked block pair (normalize_signs);
    the second model's profile is never built.  Comparing it in full
    would add nothing.  Let T pass the isometry gate (T^T G T = G, and Q
    kept in characteristic 2) and the intertwining gate (T g_a = g_b T).
    T maps each stored column w^{a,t}_i to eps_t w^{b,t}_i by
    construction, and so every orbit vector w^{a,t}_d to eps_t w^{b,t}_d,
    since raw_index steps both orbits by g from the stored columns and T
    carries g_a to g_b.  As T keeps the form, b(t, r, d) =
    eps_t eps_r a(t, r, d) at every d >= 0, and at every d < 0 too, as
    both profiles mirror those by the one sign s of the shared space.
    So a partner whose profile no sign vector relates to the first's
    fails a gate, and one that passes them all matches it at every key.
    """
    shape, space = model_a.shape, model_a.space
    if shape != model_b.shape:
        raise InvalidInput(f"the models have shapes {shape.parts} kappa="
                           f"{shape.kappa} and {model_b.shape.parts} kappa="
                           f"{model_b.shape.kappa}")
    if space.field != model_b.space.field:
        raise InvalidInput(f"the models are over {space.field!r} and "
                           f"{model_b.space.field!r}")
    if space is not model_b.space and space.gram != model_b.space.gram:
        raise InvalidInput("the models' spaces carry different forms")
    eps = normalize_signs(collection_pairings(model_a), model_b.raw_pairing,
                          shape.sigma + shape.kappa,
                          scalar_kernel(space.field).neg)
    if eps is None:
        raise VerificationFailed("collection pairings are incompatible")
    t_mat = model_b._signed_cols(eps) * model_a.w_inv

    bad = space.isometry_violations(t_mat)
    if bad:
        raise VerificationFailed(f"T is not an isometry: {bad[:3]}")
    if t_mat * model_a.g != model_b.g * t_mat:
        raise VerificationFailed("T does not intertwine the isometries")
    flag, flag_prime = flags_pair if flags_pair is not None \
        else flags_from(model_a)
    # preserving the form (and Q) makes T invertible, so T fixes a flag
    # iff B^{-1} T B is upper triangular
    for name, fl in (("V", flag), ("V'", flag_prime)):
        m = (fl.inverse * t_mat * fl.basis)._raw()[1]
        for c in range(space.dim):
            if any(row[c] for row in m[c + 1:]):
                raise VerificationFailed(
                    f"T does not stabilize {name}_{c + 1}")
    return t_mat


# -- decomposition checks ----------------------------------------------------

def _block_diagonal(m: Matrix, labels) -> bool:
    """Whether m[a][c] = 0 whenever labels[a] != labels[c]."""
    return not any(x for a, row in enumerate(m._raw()[1])
                   for c, x in enumerate(row) if labels[a] != labels[c])


def split_check(model: IsometryModel, cut: int) -> dict:
    """Decomposition report at a block cut.

    The span W of blocks up to the cut and the span W' of the remaining
    blocks must be g-stable, mutually perpendicular with W' = W-perp, and
    their restricted Jordan multisets must match the per-block predicted
    sizes of shapes.block_jordan_sizes.  The multisets are None, and do not
    match, when W is not g-stable.  In symplectic-or-char2 mode every
    single block is additionally checked to be g-stable and orthogonal to
    every other block.

    Each block's columns are contiguous in w_cols, so with M = W^{-1} g W
    and H = W^T G W for W = w_cols, the blocks up to the cut are the
    first k coordinates: g-stability is M block-diagonal, W' perp to W is
    H[:k, k:] = 0, and then W' = W-perp iff rank H[:k, :k] = k.  On a
    built model W is ``Matrix.identity``, so M and H are g and G with no
    kernel call; a derived model pays its products on each cut.
    """
    shape, mode, space = model.shape, model.mode, model.space
    sigma, kappa = shape.sigma, shape.kappa
    if not 1 <= cut <= sigma + kappa:
        raise InvalidInput(f"cut {cut} outside 1..{sigma + kappa}")
    if mode == ORTHOGONAL and not (cut <= sigma
                                   and psi(shape)[cut - 1] == -1):
        raise InvalidInput(
            f"orthogonal cuts sit at indices with psi = -1, not {cut}")
    f, nu = space.field, space.dim
    blocks = [t for t, _i in model.basis_index]
    low = [t <= cut for t in blocks]
    k = sum(low)
    w = model.w_cols
    m, h = model.w_inv * model.g * w, w.transpose() * space.gram * w
    report = {"g_stable": _block_diagonal(m, low)}
    report["mutually_perpendicular"] = h.submatrix(0, k, k, nu).is_zero
    report["perp_complement"] = report["mutually_perpendicular"] and \
        h.submatrix(0, k, 0, k).rank() == k

    sizes = block_jordan_sizes(shape, mode)
    for key, lo, hi, want in (("jordan_low", 0, k, sizes[:cut]),
                              ("jordan_high", k, nu, sizes[cut:])):
        # a g-stable block of the unipotent M is unipotent; an unstable
        # one need not be, and gets no Jordan type
        jordan = dict(nilpotent_jordan_multiset(
            m.submatrix(lo, hi, lo, hi) - Matrix.identity(f, hi - lo))) \
            if report["g_stable"] else None
        report[key] = jordan
        report[key + "_matches"] = jordan == dict(Counter(want))
    if mode == SYMPLECTIC:
        report["blocks_stable_orthogonal"] = \
            _block_diagonal(m, blocks) and _block_diagonal(h, blocks)
    report["pass"] = all(v for v in report.values() if isinstance(v, bool))
    return report
