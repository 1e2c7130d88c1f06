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
from .linalg import (Affine, Matrix, NoSolution, Unique,
                     nilpotent_jordan_multiset, solve_linear)
from .shapes import ORTHOGONAL, SYMPLECTIC, ShapeSeq, jordan_prediction, psi


class VerificationFailed(Exception):
    pass


class IsotropyViolation(Exception):
    pass


#: Returned by normalize_signs when no sign vector exists.
INCOMPATIBLE = "incompatible"


class QuadSpace:
    """Dimension, Gram matrix and (optionally) quadratic form values.

    ``q_basis`` holds Q on the standard basis vectors, or None when the
    model carries no quadratic form (symplectic over characteristic != 2).
    Q of an arbitrary vector is recovered from the basis values and the
    bilinear form via Q(x + y) = Q(x) + Q(y) + (x, y).
    """

    def __init__(self, field, mode: str, gram: Matrix,
                 q_basis: Optional[Tuple[FieldElement, ...]]):
        self.field = field
        self.mode = mode
        self.gram = gram
        self.dim = gram.nrows
        self.q_basis = q_basis

    def bilinear(self, u, v) -> FieldElement:
        acc = self.field.zero
        gv = self.gram.apply(v)
        for x, y in zip(u, gv):
            if not (x.is_zero or y.is_zero):
                acc = acc + x * y
        return acc

    def quad(self, v) -> FieldElement:
        assert self.q_basis is not None, "no quadratic form on this space"
        acc = self.field.zero
        n = self.dim
        for m in range(n):
            if v[m].is_zero:
                continue
            acc = acc + v[m] * v[m] * self.q_basis[m]
            for mp in range(m + 1, n):
                if not v[mp].is_zero:
                    acc = acc + v[m] * v[mp] * self.gram.rows[m][mp]
        return acc

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
    """

    def __init__(self, shape: ShapeSeq, mode: str, space: QuadSpace,
                 g: Matrix, w_cols: Matrix, table: Optional[GramTable] = None):
        self.shape = shape
        self.mode = mode
        self.space = space
        self.g = g
        self.g_inv = g.inverse()
        self.w_cols = w_cols
        self.table = table
        self.basis_index = shape.block_indices()
        self.index_of = {ti: m for m, ti in enumerate(self.basis_index)}
        self._ext: Dict[Tuple[int, int], tuple] = {
            ti: w_cols.col(m) for m, ti in enumerate(self.basis_index)}

    @property
    def field(self):
        return self.space.field

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
                             Matrix(f, cols).transpose(), self.table)

    def conjugated(self, h: Matrix) -> "IsometryModel":
        """The model (h g h^{-1}, h w^t_i) for an isometry h."""
        return IsometryModel(self.shape, self.mode, self.space,
                             h * self.g * h.inverse(), h * self.w_cols,
                             self.table)

    def to_json(self):
        return {
            "shape": self.shape.to_json(),
            "mode": self.mode,
            "space": self.space.to_json(),
            "g": self.g.to_json(),
        }


def build_model(shape: ShapeSeq, mode: str, field=None,
                delta_bound: Optional[int] = None) -> IsometryModel:
    """Reconstruct (V, form, g) from the canonical pairing table.

    g shifts e^t_i to e^t_{i+1} within each block; each block's last image
    is solved from the pairing constraints.  The kappa row is fixed by g
    exactly when a size-1 Jordan block is predicted; otherwise its image
    is solved like every other block end.  All model invariants (isometry,
    nilpotency, Jordan multiset, the six collection clauses, and the
    table round trip) are verified before returning.
    """
    table = GramTable(shape, mode, field, delta_bound=delta_bound)
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

    model = IsometryModel(shape, mode, space, g,
                          Matrix.identity(f, nu), table)
    _verify_model(model)
    return model


def _verify_model(model: IsometryModel):
    shape, g, space = model.shape, model.g, model.space
    report = check_adapted(model)  # form preservation included
    if report:
        raise VerificationFailed(f"collection clauses violated: {report[:3]}")
    if space.q_basis is not None:
        for m in range(space.dim):
            if space.quad(g.col(m)) != space.q_basis[m]:
                raise VerificationFailed("g does not preserve Q")
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


def _check_window(shape: ShapeSeq):
    p1 = shape.part(1)
    return range(-2 * p1, 4 * p1 + 1)


def _window_profile(model: IsometryModel) -> dict:
    """The pairing profile over every offset i - j of the check window."""
    return collection_pairings(model, 6 * model.shape.part(1))


def check_adapted(model: IsometryModel) -> List[tuple]:
    """Violations of the six collection clauses over the standard window.

    Form preservation by g and clause (a) give (w^t_i, w^r_j) =
    (w^t_{i-j}, w^r_0), so clauses b to e are read off the pairing profile
    at offsets d; if either precondition fails, only its violations are
    returned.  Returns tuples (clause, witness indices, got); empty on pass.
    """
    shape, space, g = model.shape, model.space, model.g
    sigma, kappa = shape.sigma, shape.kappa
    f = space.field
    ext = model.extend_index
    preserved = g.transpose() * space.gram * g
    bad: List[tuple] = [
        ("form", (m, mp), x) for m, row in enumerate(preserved.rows)
        for mp, x in enumerate(row) if x != space.gram.rows[m][mp]]
    for t in range(1, sigma + kappa + 1):
        for i in _check_window(shape):
            got = ext(t, i + 1)
            if got != g.apply(ext(t, i)):
                bad.append(("a", (t, i), got))
    if bad:
        return bad

    profile = _window_profile(model)

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
            want = f.one if t > sigma else f.zero
            for i in _check_window(shape):
                v = space.quad(ext(t, i))
                if v != want:
                    bad.append(("f", (t, i), v))
    return bad


def round_trip_mismatches(model: IsometryModel) -> List[tuple]:
    """Offsets (t, r, d) where the pairing profile differs from the table.

    Assumes check_adapted passed, so that every window pairing
    (w^t_i, w^r_j) equals the profile entry at d = i - j.
    """
    if model.table is None:
        return []
    table = model.table
    return [key for key, v in _window_profile(model).items()
            if v != table.value(*key)]


# -- flags -------------------------------------------------------------------

class IsoFlag:
    """A complete flag of subspaces with isotropic lower half."""

    def __init__(self, space: QuadSpace, subspaces: List[List[tuple]]):
        self.space = space
        self.subspaces = subspaces
        assert len(subspaces) == space.dim + 1

    def basis(self, i: int) -> List[tuple]:
        return self.subspaces[i]

    def verify(self):
        """Raise IsotropyViolation unless all flag invariants hold."""
        space = self.space
        nu = space.dim
        n = nu // 2
        f = space.field
        for i, vecs in enumerate(self.subspaces):
            if _span_dim(f, vecs) != i:
                raise IsotropyViolation(f"dim V_{i} != {i}")
        for i in range(nu):
            if not _span_contains(f, self.subspaces[i + 1], self.subspaces[i]):
                raise IsotropyViolation(f"V_{i} not inside V_{i+1}")
        for i in range(n + 1):
            vecs = self.subspaces[i]
            for a, u in enumerate(vecs):
                for v in vecs[a:]:
                    if not space.bilinear(u, v).is_zero:
                        raise IsotropyViolation(f"form nonzero on V_{i}")
                if space.q_basis is not None and not space.quad(u).is_zero:
                    raise IsotropyViolation(f"Q nonzero on V_{i}")
            perp = space.perp(vecs)
            other = self.subspaces[nu - i]
            if _span_dim(f, perp) != nu - i or \
                    not _span_contains(f, perp, other):
                raise IsotropyViolation(f"V_{i} perp is not V_{nu - i}")

    def apply(self, h: Matrix) -> "IsoFlag":
        return IsoFlag(self.space,
                       [[h.apply(v) for v in vecs] for vecs in self.subspaces])


def _span_dim(field, vectors) -> int:
    if not vectors:
        return 0
    return Matrix(field, vectors).rank()


def _span_contains(field, big, small) -> bool:
    if not small:
        return True
    base = _span_dim(field, big)
    return _span_dim(field, list(big) + list(small)) == base


def _intersection_dim(field, a, b) -> int:
    return _span_dim(field, a) + _span_dim(field, b) \
        - _span_dim(field, list(a) + list(b))


def flags_from(model: IsometryModel) -> Tuple[IsoFlag, IsoFlag]:
    """The flag pair (V_*, V'_* = g V_*) attached to the collection.

    The lower half of V_* is spanned block by block from the collection
    vectors w^t_h with h in the upper index range; the upper half is
    completed by perpendicularity.  Both flags are fully verified.
    """
    shape, space = model.shape, model.space
    nu, n = space.dim, shape.n
    ext = model.extend_index
    lower: List[List[tuple]] = [[]]
    for r in range(1, shape.sigma + 1):
        p_r = shape.part(r)
        base = list(lower[-1])
        for i in range(1, p_r + 1):
            lower.append(base + [ext(r, h) for h in range(p_r, p_r + i)])
    subspaces: List[List[tuple]] = lower[:n + 1]
    for i in range(n + 1, nu + 1):
        subspaces.append(space.perp(subspaces[nu - i]))
    flag = IsoFlag(space, subspaces)
    flag.verify()
    flag_prime = flag.apply(model.g)
    flag_prime.verify()
    return flag, flag_prime


def position_check(flag: IsoFlag, flag_prime: IsoFlag,
                   shape: ShapeSeq) -> bool:
    """The four relative-position dimension conditions for the shape."""
    f = flag.space.field
    nu = flag.space.dim
    v, vp = flag.subspaces, flag_prime.subspaces
    p_lt = 0
    for r in range(1, shape.sigma + 1):
        p_r = shape.part(r)
        p_le = p_lt + p_r
        for i in range(1, p_r):
            d = p_lt + i
            if _intersection_dim(f, vp[d], v[d]) != d - r:
                return False
            if _intersection_dim(f, vp[d], v[d + 1]) != d - r + 1:
                return False
        if _intersection_dim(f, vp[p_le], v[nu - p_lt - 1]) != p_le - r:
            return False
        if _intersection_dim(f, vp[p_le], v[nu - p_lt]) != p_le - r + 1:
            return False
        p_lt = p_le
    return True


# -- sign normalization and the intertwiner ----------------------------------

def collection_pairings(model: IsometryModel, bound: int) -> dict:
    """Pairings (w^t_d, w^r_0) for offsets |d| <= bound, keyed (t, r, d).

    The one pairing computation of this module: the clause checks, the
    table round trip and the intertwiner all read it.
    """
    shape, space = model.shape, model.space
    blocks = range(1, shape.sigma + shape.kappa + 1)
    keys = [(t, d) for t in blocks for d in range(-bound, bound + 1)]
    vectors = Matrix(space.field, [model.extend_index(t, d) for t, d in keys])
    out = {}
    for r in blocks:
        values = vectors.apply(space.gram.apply(model.extend_index(r, 0)))
        out.update(((t, r, d), v) for (t, d), v in zip(keys, values))
    return out


def normalize_signs(a_data: dict, b_data: dict, block_count: int):
    """A sign vector eps with eps_t eps_r * a = b on all stored pairs.

    Both inputs map (t, r, offset) to pairing values over the same key
    set.  Signs are propagated from the lowest block index of each
    coupling component, which receives +1; returns INCOMPATIBLE when no
    sign vector exists.
    """
    assert set(a_data) == set(b_data), "pairing key sets differ"
    ratio: Dict[Tuple[int, int], int] = {}
    for (t, r, d), av in a_data.items():
        bv = b_data[(t, r, d)]
        if av.is_zero != bv.is_zero:
            return INCOMPATIBLE
        if av.is_zero:
            continue
        if bv == av:
            s = 1
        elif bv == -av:
            s = -1
        else:
            return INCOMPATIBLE
        key = (min(t, r), max(t, r))
        if ratio.setdefault(key, s) != s:
            return INCOMPATIBLE
    for (t, t2), s in ratio.items():
        if t == t2 and s != 1:
            return INCOMPATIBLE
    eps = {}
    for start in range(1, block_count + 1):
        if start in eps:
            continue
        eps[start] = 1
        queue = [start]
        while queue:
            t = queue.pop()
            for (x, y), s in ratio.items():
                other = y if x == t else (x if y == t else None)
                if other is None:
                    continue
                want = eps[t] * s
                if other not in eps:
                    eps[other] = want
                    queue.append(other)
                elif eps[other] != want:
                    return INCOMPATIBLE
    return eps


def build_T(model_a: IsometryModel, model_b: IsometryModel,
            bound: Optional[int] = None, flags_pair=None) -> Matrix:
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
    if bound is None:
        bound = 4 * shape.part(1) + 2
    eps = normalize_signs(collection_pairings(model_a, bound),
                          collection_pairings(model_b, bound),
                          shape.sigma + shape.kappa)
    if eps == INCOMPATIBLE:
        raise VerificationFailed("collection pairings are incompatible")
    cols = []
    for (t, i) in model_a.basis_index:
        s = f.from_int(eps[t])
        cols.append(tuple(x * s for x in model_b.extend_index(t, i)))
    t_mat = Matrix(f, cols).transpose()

    if t_mat.transpose() * space.gram * t_mat != space.gram:
        raise VerificationFailed("T does not preserve the bilinear form")
    if space.q_basis is not None:
        for m in range(space.dim):
            if space.quad(t_mat.col(m)) != space.q_basis[m]:
                raise VerificationFailed("T does not preserve Q")
    if t_mat * model_a.g != model_b.g * t_mat:
        raise VerificationFailed("T does not intertwine the isometries")
    flag, flag_prime = flags_pair if flags_pair is not None \
        else flags_from(model_a)
    for name, fl in (("V", flag), ("V'", flag_prime)):
        for i, vecs in enumerate(fl.subspaces):
            image = [t_mat.apply(v) for v in vecs]
            if not (_span_contains(f, vecs, image)
                    and _span_contains(f, image, vecs)):
                raise VerificationFailed(f"T does not stabilize {name}_{i}")
    return t_mat


def component_check(model: IsometryModel, t_mat: Matrix,
                    flag: IsoFlag) -> Optional[bool]:
    """Whether T lies in the identity component of the isometry group.

    Immediate (True) except for even-dimensional orthogonal spaces, where
    the two SO-orbits of maximal isotropic subspaces are compared via the
    parity of dim(T V_n meet V_n) - n.  Over rational towers the orbit
    test is not decidable by enumeration and None ("not checked") is
    returned.
    """
    if model.mode != ORTHOGONAL or model.shape.kappa == 1:
        return True
    if model.field.char == 0:
        return None
    n = model.space.dim // 2
    vn = flag.subspaces[n]
    image = [t_mat.apply(v) for v in vn]
    return (_intersection_dim(model.field, image, vn) - n) % 2 == 0


# -- decomposition checks ----------------------------------------------------

def _restricted_blocks(model: IsometryModel, cut: int):
    """Coordinates of N restricted to the two block spans at the cut."""
    shape = model.shape
    f = model.field
    idx = model.basis_index
    low = [m for m, (t, _i) in enumerate(idx) if t <= cut]
    high = [m for m, (t, _i) in enumerate(idx) if t > cut]
    w_low = [model.w_cols.col(m) for m in low]
    w_high = [model.w_cols.col(m) for m in high]
    p = Matrix(f, w_low + w_high).transpose()
    m_full = p.inverse() * model.g * p
    k = len(low)
    off1 = m_full.submatrix(k, p.nrows, 0, k)
    off2 = m_full.submatrix(0, k, k, p.nrows)
    stable = off1.is_zero and off2.is_zero
    n_low = m_full.submatrix(0, k, 0, k) - Matrix.identity(f, k)
    n_high = m_full.submatrix(k, p.nrows, k, p.nrows) \
        - Matrix.identity(f, p.nrows - k)
    return w_low, w_high, stable, n_low, n_high


def split_check(model: IsometryModel, cut: int) -> dict:
    """Decomposition report at a block cut.

    The span W of blocks up to the cut and the span W' of the remaining
    blocks must be g-stable, mutually perpendicular with W' = W-perp, and
    their restricted Jordan multisets must match the per-block predicted
    sizes.  In symplectic-or-char2 mode every single block is additionally
    checked to be g-stable and orthogonal to every other block.
    """
    shape, mode, space = model.shape, model.mode, model.space
    sigma, kappa = shape.sigma, shape.kappa
    assert 1 <= cut <= sigma + kappa
    if mode == ORTHOGONAL:
        assert cut <= sigma and psi(shape)[cut - 1] == -1, \
            "orthogonal cuts sit at indices with psi = -1"
    f = space.field
    w_low, w_high, stable, n_low, n_high = _restricted_blocks(model, cut)
    report = {"g_stable": stable}
    report["mutually_perpendicular"] = all(
        space.bilinear(u, v).is_zero for u in w_low for v in w_high)
    perp = space.perp(w_low)
    report["perp_complement"] = (
        _span_dim(f, perp) == len(w_high)
        and _span_contains(f, perp, w_high))

    if mode == SYMPLECTIC:
        sizes = [2 * shape.part(t) for t in range(1, sigma + 1)]
    else:
        ps = psi(shape)
        sizes = [2 * shape.part(t) + ps[t - 1] for t in range(1, sigma + 1)]
    if kappa:
        sizes.append(1)
    expect_low = Counter(sizes[:cut])
    expect_high = Counter(sizes[cut:])
    report["jordan_low"] = dict(nilpotent_jordan_multiset(n_low)) \
        if n_low.nrows else {}
    report["jordan_high"] = dict(nilpotent_jordan_multiset(n_high)) \
        if n_high.nrows else {}
    report["jordan_low_matches"] = report["jordan_low"] == \
        {k: v for k, v in expect_low.items()}
    report["jordan_high_matches"] = report["jordan_high"] == \
        {k: v for k, v in expect_high.items()}

    if mode == SYMPLECTIC:
        per_block = True
        idx = model.basis_index
        for t in range(1, sigma + kappa + 1):
            mine = [model.w_cols.col(m) for m, (x, _i) in enumerate(idx)
                    if x == t]
            others = [model.w_cols.col(m) for m, (x, _i) in enumerate(idx)
                      if x != t]
            images = [model.g.apply(v) for v in mine]
            if not _span_contains(f, mine, images):
                per_block = False
            if not all(space.bilinear(u, v).is_zero
                       for u in mine for v in others):
                per_block = False
        report["blocks_stable_orthogonal"] = per_block
    report["pass"] = all(v for k, v in report.items()
                         if k.endswith(("stable", "matches",
                                        "perpendicular", "perp_complement",
                                        "blocks_stable_orthogonal")))
    return report
