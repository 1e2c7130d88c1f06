"""Explicit models: space, form, unipotent isometry, flags, intertwiner.

From a pairing table this module rebuilds the vector space V with its
bilinear form (and quadratic form where one is present), the unipotent
isometry g whose adapted collection realizes the table, the pair of
isotropic flags attached to the collection, and the intertwiner T between
two models over the same space.

Vectors are tuples of FieldElement of length nu; the standard basis is
indexed by the shape's block indices (t, i), i in [0, 2p_t - 1], in lex
order, plus (sigma+1, 0) when kappa = 1.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from .fields import FieldElement
from .gram import GramTable
from .linalg import (Affine, Matrix, NoSolution, Unique, dot,
                     nilpotent_jordan_multiset, solve_linear)
from .shapes import (ORTHOGONAL, SYMPLECTIC, InvalidInput, ShapeSeq,
                     VerificationFailed, block_jordan_sizes, jordan_prediction,
                     position_dims_ok, psi)


class IsotropyViolation(VerificationFailed):
    """A flag that is not an isotropic flag of its space."""


#: Returned by normalize_signs when no sign vector exists.
INCOMPATIBLE = "incompatible"


class QuadSpace:
    """Dimension, Gram matrix and (optionally) quadratic form values.

    ``q_basis`` holds Q on the standard basis vectors, or None when the
    model carries no quadratic form (symplectic over characteristic != 2).
    Q of an arbitrary vector is recovered from the basis values and the
    bilinear form via Q(x + y) = Q(x) + Q(y) + (x, y).  Where 2 is
    invertible a given ``q_basis`` must be diag(G)/2 of a symmetric G, so
    that Q(v) = (v, v)/2; anything else raises VerificationFailed.
    """

    def __init__(self, field, mode: str, gram: Matrix,
                 q_basis: Optional[Tuple[FieldElement, ...]]):
        self.field = field
        self.mode = mode
        self.gram = gram
        self.dim = gram.nrows
        self.q_basis = q_basis
        if q_basis is not None and field.char != 2:
            if gram != gram.transpose():
                raise VerificationFailed(
                    f"a quadratic form over {field} needs a symmetric G")
            half = field.from_int(2).inverse()
            for m, q in enumerate(q_basis):
                if q != gram.rows[m][m] * half:
                    raise VerificationFailed(
                        f"Q(e_{m}) = {q} is not (e_{m}, e_{m})/2 = "
                        f"{gram.rows[m][m] * half} over {field}")
        # Q(v) = v^T U v with U = diag(q_basis) + strict upper triangle of G
        self._upper = None if q_basis is None else Matrix(field, [
            [q_basis[m] if m == mp else gram.rows[m][mp] if m < mp
             else field.zero for mp in range(self.dim)]
            for m in range(self.dim)])

    def bilinear(self, u, v) -> FieldElement:
        return dot(u, self.gram.apply(v), self.field)

    def quad(self, v) -> FieldElement:
        assert self.q_basis is not None, "no quadratic form on this space"
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

    def perp(self, vectors) -> List[tuple]:
        """Basis of the right perpendicular of span(vectors)."""
        if not vectors:
            return [tuple(col) for col in
                    Matrix.identity(self.field, self.dim).transpose().rows]
        rows = [self.gram.transpose().apply(v) for v in vectors]
        return Matrix(self.field, rows).nullspace()

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
    ``g_inv`` and ``w_inv`` are the inverses of g and w_cols where the
    caller already holds them.  Otherwise g^-1 is found by elimination
    here, and w_cols^-1 when ``w_inv`` is first read.
    """

    def __init__(self, shape: ShapeSeq, mode: str, space: QuadSpace,
                 g: Matrix, w_cols: Matrix, table: Optional[GramTable] = None,
                 g_inv: Optional[Matrix] = None,
                 w_inv: Optional[Matrix] = None):
        self.shape = shape
        self.mode = mode
        self.space = space
        self.g = g
        self.g_inv = g.inverse() if g_inv is None else g_inv
        self.w_cols = w_cols
        self._w_inv = w_inv
        self.table = table
        self.basis_index = shape.block_indices()
        self.index_of = {ti: m for m, ti in enumerate(self.basis_index)}
        self._ext: Dict[Tuple[int, int], tuple] = {
            ti: w_cols.col(m) for m, ti in enumerate(self.basis_index)}
        self._pairings: Optional[dict] = None

    @property
    def field(self):
        return self.space.field

    @property
    def w_inv(self) -> Matrix:
        if self._w_inv is None:
            self._w_inv = self.w_cols.inverse()
        return self._w_inv

    def extend_index(self, t: int, i: int) -> tuple:
        """The collection vector w^t_i for any integer i, via powers of g."""
        key = (t, i)
        if key in self._ext:
            return self._ext[key]
        hi = 2 * self.shape.part(t) - 1 if t <= self.shape.sigma else 0
        if i > hi:
            vec = self.g.apply(self.extend_index(t, i - 1))
        else:
            vec = self.g_inv.apply(self.extend_index(t, i + 1))
        self._ext[key] = vec
        return vec

    def with_signs(self, eps) -> "IsometryModel":
        """The model whose collection is w^t_i -> eps_t * w^t_i."""
        f = self.field
        cols = []
        for m, (t, _i) in enumerate(self.basis_index):
            s = f.from_int(eps[t])
            cols.append([x * s for x in self.w_cols.col(m)])
        return IsometryModel(self.shape, self.mode, self.space, self.g,
                             Matrix(f, cols).transpose(), self.table,
                             g_inv=self.g_inv)

    def conjugated(self, h: Matrix) -> "IsometryModel":
        """The model (h g h^{-1}, h w^t_i) for an isometry h."""
        h_inv = h.inverse()
        return IsometryModel(self.shape, self.mode, self.space,
                             h * self.g * h_inv, h * self.w_cols, self.table,
                             g_inv=h * self.g_inv * h_inv)

    def to_json(self):
        return {
            "shape": self.shape.to_json(),
            "mode": self.mode,
            "space": self.space.to_json(),
            "g": self.g.to_json(),
        }


def build_model(shape: ShapeSeq, mode: str, field=None) -> IsometryModel:
    """Reconstruct (V, form, g) from the canonical pairing table.

    g shifts e^t_i to e^t_{i+1} within each block; each block's last image
    is solved from the pairing constraints.  The kappa row is fixed by g
    exactly when a size-1 Jordan block is predicted; otherwise its image
    is solved like every other block end.  All model invariants (isometry,
    nilpotency, Jordan multiset, the six collection clauses, and the
    table round trip) are verified before returning.
    """
    table = GramTable(shape, mode, field)
    f = table.field
    gram = table.gram_matrix()
    sigma = shape.sigma
    idx = shape.block_indices()
    nu = len(idx)

    if mode == ORTHOGONAL:
        two_inv = f.from_int(2).inverse()
        q_basis = tuple(gram.rows[m][m] * two_inv for m in range(nu))
    elif f.char == 2:
        q_basis = tuple(f.one if t > sigma else f.zero for (t, _i) in idx)
    else:
        q_basis = None
    space = QuadSpace(f, mode, gram, q_basis)

    kappa_fixed = shape.kappa == 1 and (mode == SYMPLECTIC or sigma % 2 == 0)
    gram_t = gram.transpose()
    index_of = {ti: m for m, ti in enumerate(idx)}
    cols: List[tuple] = []
    for (t, i) in idx:
        hi = 2 * shape.part(t) - 1 if t <= sigma else 0
        if i < hi:
            e = [f.zero] * nu
            e[index_of[(t, i + 1)]] = f.one
            cols.append(tuple(e))
            continue
        if t > sigma and kappa_fixed:
            e = [f.zero] * nu
            e[index_of[(t, 0)]] = f.one
            cols.append(tuple(e))
            continue
        top = hi + 1
        rhs = [table.value(t, y, top - j) for (y, j) in idx]
        sol = solve_linear(gram_t, rhs)
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
        if len(sol.kernel) != 1 or q_basis is None:
            raise VerificationFailed(
                f"unexpected solution ambiguity of dimension "
                f"{len(sol.kernel)} at block end ({t}, {hi})")
        rho = sol.kernel[0]
        target = q_basis[index_of[(t, 0)]]
        q_rho = space.quad(rho)
        if q_rho.is_zero:
            raise VerificationFailed("radical direction has Q = 0; the "
                                     "ambiguity cannot be resolved")
        c2 = (target - space.quad(sol.x0)) / q_rho
        c = f.sqrt_or_none(c2)
        assert c is not None, "characteristic-2 square roots always exist"
        cols.append(tuple(x + c * y for x, y in zip(sol.x0, rho)))
    g = Matrix(f, cols).transpose()

    w_cols = Matrix.identity(f, nu)
    model = IsometryModel(shape, mode, space, g, w_cols, table,
                          w_inv=w_cols)
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
    its violations are returned.  Elsewhere extend_index defines w^t_i by
    powers of g, so clause (a) holds there by construction.  Then
    (w^t_i, w^r_j) = (w^t_{i-j}, w^r_0), so clauses b to e are read off
    the pairing profile at offsets d, and Q(w^t_i) = Q(w^t_0), so clause
    (f) is read at i = 0.  Returns tuples (clause, witness indices, got);
    empty on pass.
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

    def expect(clause, t, r, offsets, want):
        for d in offsets:
            v = profile[(t, r, d)]
            if v != want:
                bad.append((clause, (t, r, d), v))

    for t in range(1, sigma + 1):
        p_t = shape.part(t)
        expect("b", t, t, range(1 - p_t, p_t), f.zero)
        expect("b", t, t, (-p_t,), f.one)
        for r in range(t + 1, sigma + 1):
            p_r = shape.part(r)
            expect("c", t, r, range(-p_r, 2 * p_t - p_r), f.zero)
    if kappa:
        expect("d", sigma + 1, sigma + 1, (0,), f.from_int(2))
        for t in range(1, sigma + 1):
            expect("e", t, sigma + 1, range(2 * shape.part(t)), f.zero)
    if space.q_basis is not None:
        for t in range(1, sigma + kappa + 1):
            v = space.quad(model.extend_index(t, 0))
            if v != (f.one if t > sigma else f.zero):
                bad.append(("f", (t, 0), v))
    return bad


def round_trip_mismatches(model: IsometryModel) -> List[tuple]:
    """Offsets (t, r, d) where the pairing profile differs from the table.

    Assumes check_adapted passed, so that every window pairing
    (w^t_i, w^r_j) equals the profile entry at d = i - j.
    """
    if model.table is None:
        return []
    table = model.table
    return [key for key, v in collection_pairings(model).items()
            if v != table.value(*key)]


# -- flags -------------------------------------------------------------------

class IsoFlag:
    """A complete flag as one adapted basis: the first i columns of the
    nu x nu Matrix ``basis`` span V_i.  ``inverse`` is its inverse, or
    None when it is singular, which verify rejects.  An ``inverse`` passed
    in is taken as given; without one it is found by elimination.
    """

    def __init__(self, space: QuadSpace, basis: Matrix,
                 inverse: Optional[Matrix] = None):
        self.space = space
        self.basis = basis
        if inverse is None:
            try:
                inverse = basis.inverse()
            except ZeroDivisionError:
                pass
        self.inverse = inverse

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
        for a in range(n if space.q_basis is not None else 0):
            q = space.quad(b.col(a))
            if not q.is_zero:
                raise IsotropyViolation(f"Q(b_{a}) = {q} on V_{n}")

    def apply(self, h: Matrix, h_inv: Matrix) -> "IsoFlag":
        """The flag h V_*, with (h B)^-1 = B^-1 h^-1 from h_inv = h^-1."""
        inverse = None if self.inverse is None else self.inverse * h_inv
        return IsoFlag(self.space, h * self.basis, inverse)


def flags_from(model: IsometryModel) -> Tuple[IsoFlag, IsoFlag]:
    """The flag pair (V_*, V'_* = g V_*) attached to the collection.

    The adapted basis B starts with the collection vectors w^r_h, h in
    [p_r, 2p_r - 1], block by block: they span the isotropic V_n.  Column
    b_c, c = n..nu-1, is then the first basis vector v of V_k-perp,
    k = nu-1-c, outside V_c: (b_k, v) != 0, or Q(v) != 0 for the middle
    column of an odd nu, which gives V_{nu-i} = V_i-perp.  V' has basis
    g B, whose inverse B^-1 g^-1 reuses the model's g^-1.  Both flags are
    fully verified.
    """
    shape, space = model.shape, model.space
    ext = model.extend_index
    cols = [ext(r, h) for r in range(1, shape.sigma + 1)
            for h in range(shape.part(r), 2 * shape.part(r))]
    nu = space.dim
    for c in range(len(cols), nu):
        k = nu - 1 - c
        v = next((v for v in space.perp(cols[:k])
                  if not (space.bilinear(cols[k], v) if k < c
                          else space.quad(v)).is_zero), None)
        if v is None:
            raise IsotropyViolation(f"V_{k} perp has no vector outside V_{c}")
        cols.append(v)
    flag = IsoFlag(space, Matrix(space.field, cols).transpose())
    flag.verify()
    flag_prime = flag.apply(model.g, model.g_inv)
    flag_prime.verify()
    return flag, flag_prime


def position_check(flag: IsoFlag, flag_prime: IsoFlag,
                   shape: ShapeSeq) -> bool:
    """The four relative-position dimension conditions for the shape.

    With M = B^{-1} B', dim(V_i meet V'_j) = j - rank(M[i:, :j]).
    """
    nu = flag.space.dim
    m = flag.inverse * flag_prime.basis
    return position_dims_ok(
        lambda i, j: j - m.submatrix(i, nu, 0, j).rank(), shape, nu)


# -- sign normalization and the intertwiner ----------------------------------

def collection_pairings(model: IsometryModel) -> dict:
    """Pairings (w^t_d, w^r_0) for offsets |d| <= 6p_1, keyed (t, r, d).

    6p_1 is the largest offset i - j for i, j in the window [-2p_1, 4p_1].
    The one pairing computation of this module: the clause checks, the
    table round trip and the intertwiner all read it.  Memoized on the
    model: callers share the dict and must not change it.

    Each block's orbit w^t_d is stepped outwards from its stored window
    in w_cols, by g upwards and g^-1 downwards, on the raw coordinates
    of the matrices' kernel; each pairing is one kernel dot against the
    raw G w^r_0, and only the pairing values are wrapped.  The vectors
    are those of extend_index, which serves the other callers.
    """
    if model._pairings is not None:
        return model._pairings
    shape = model.shape
    bound = 6 * shape.part(1)
    blocks = range(1, shape.sigma + shape.kappa + 1)
    k, g = model.g._raw()
    g_inv, gram = model.g_inv._raw()[1], model.space.gram._raw()[1]
    cols = list(zip(*model.w_cols._raw()[1]))
    dot = k.dot
    orbits = {}
    for t in blocks:
        start = model.index_of[(t, 0)]
        above = cols[start:start + (2 * shape.part(t) if t <= shape.sigma
                                    else 1)]
        while len(above) <= bound:
            above.append([dot(row, above[-1]) for row in g])
        below = [above[0]]
        for _ in range(bound):
            below.append([dot(row, below[-1]) for row in g_inv])
        orbits[t] = below[:0:-1] + above
    wrap, offsets = k.wrap, range(-bound, bound + 1)
    out = {}
    for r in blocks:
        gw = [dot(row, orbits[r][bound]) for row in gram]
        for t in blocks:
            out.update(((t, r, d), wrap(dot(v, gw)))
                       for d, v in zip(offsets, orbits[t]))
    model._pairings = out
    return out


def normalize_signs(a_data: dict, b_data: dict, block_count: int):
    """A sign vector eps with eps_t eps_r * a = b on all stored pairs.

    Both inputs map (t, r, offset) to pairing values over the same key
    set.  Signs are propagated along the nonzero pairings of a from the
    lowest block index of each component, which receives +1.  A nonzero
    a(t, r, d) fixes eps_t eps_r (outside characteristic 2), so a sign
    vector exists exactly when the propagated one gives b = +-a on every
    key; returns INCOMPATIBLE otherwise.
    """
    assert set(a_data) == set(b_data), "pairing key sets differ"
    links: Dict[int, List[Tuple[int, int]]] = {}
    for (t, r, d), av in a_data.items():
        if not av.is_zero:
            s = 1 if b_data[(t, r, d)] == av else -1
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
    for (t, r, d), av in a_data.items():
        if b_data[(t, r, d)] != (av if eps[t] == eps[r] else -av):
            return INCOMPATIBLE
    return eps


def build_T(model_a: IsometryModel, model_b: IsometryModel,
            flags_pair=None) -> Matrix:
    """The intertwiner T with T g T^{-1} = g~, fixing both flags.

    T sends the first model's collection to the sign-normalized second
    collection.  The returned matrix is verified to preserve the form
    (and Q), to intertwine the two isometries, and to stabilize both
    flags of the first model.
    """
    shape = model_a.shape
    assert shape == model_b.shape and model_a.mode == model_b.mode
    assert model_a.space is model_b.space or \
        model_a.space.gram == model_b.space.gram
    space = model_a.space
    f = space.field
    eps = normalize_signs(collection_pairings(model_a),
                          collection_pairings(model_b),
                          shape.sigma + shape.kappa)
    if eps == INCOMPATIBLE:
        raise VerificationFailed("collection pairings are incompatible")
    cols = []
    for (t, i) in model_a.basis_index:
        s = f.from_int(eps[t])
        cols.append(tuple(x * s for x in model_b.extend_index(t, i)))
    t_mat = Matrix(f, cols).transpose()

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
    and H = W^T G W for W = w_cols, the blocks up to the cut are the first
    k coordinates: g-stability is M block-diagonal, W' perp to W is
    H[:k, k:] = 0, and then W' = W-perp iff rank H[:k, :k] = k.
    """
    shape, mode, space = model.shape, model.mode, model.space
    sigma, kappa = shape.sigma, shape.kappa
    if not 1 <= cut <= sigma + kappa:
        raise InvalidInput(f"cut {cut} outside 1..{sigma + kappa}")
    if mode == ORTHOGONAL and not (cut <= sigma
                                   and psi(shape)[cut - 1] == -1):
        raise InvalidInput(
            f"orthogonal cuts sit at indices with psi = -1, not {cut}")
    f, nu, w = space.field, space.dim, model.w_cols
    blocks = [t for t, _i in model.basis_index]
    low = [t <= cut for t in blocks]
    k = sum(low)
    m = model.w_inv * model.g * w
    h = w.transpose() * space.gram * w
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
    report["pass"] = all(v for key, v in report.items()
                         if key.endswith(("stable", "matches",
                                          "perpendicular", "perp_complement",
                                          "blocks_stable_orthogonal")))
    return report
