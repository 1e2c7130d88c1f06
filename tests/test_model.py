import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from isoflag.cases import cuts_for
from isoflag.counting import SO_ODD, SP, FiniteFormSpace
from isoflag.fields import (RATIONALS, FieldElement, FiniteField,
                            get_finite_field)
from isoflag.linalg import Matrix, nilpotent_jordan_multiset, scalar_kernel
from isoflag.model import (IsoFlag, IsometryModel,
                           IsotropyViolation, QuadSpace, VerificationFailed,
                           _verify_model, build_T,
                           build_model, check_adapted, collection_pairings,
                           flags_from, normalize_signs, position_check,
                           round_trip_mismatches, split_check)
from isoflag.shapes import (ORTHOGONAL, SYMPLECTIC, InvalidInput, ShapeSeq,
                            jordan_prediction, psi)
from components import component_check
from dense import dense_isometry, dense_shear
from spans import span_contains, span_dim


@pytest.fixture(scope="module")
def sp1():
    return build_model(ShapeSeq((1,)), SYMPLECTIC)


@pytest.fixture(scope="module")
def sp1_gf2():
    """Shape (1) over GF(2), where Q(x e_0 + y e_1) = xy."""
    return build_model(ShapeSeq((1,)), SYMPLECTIC, get_finite_field(2))


def wrong_symplectic_g(sp1):
    """sp1 with g = [[0,-1],[1,3]]: still symplectic, but not the model's g.

    The windowed clauses cannot see the difference at p = 1; the table
    round trip can.
    """
    f = sp1.field
    bad_g = Matrix.from_scalars(f, [[0, -1], [1, 3]])
    return IsometryModel(sp1.shape, sp1.space, bad_g,
                         Matrix.identity(f, 2), sp1.table)


def scaled_collection():
    """Shape (2) with w_1 doubled.

    At p = 2 clause (b) has real content: scaling one collection vector
    breaks the (w_i, w_{i+p}) = 1 normalization.
    """
    m = build_model(ShapeSeq((2,)), SYMPLECTIC)
    f = m.field
    cols = [m.w_cols.col(j) for j in range(4)]
    cols[1] = tuple(x * f.from_int(2) for x in cols[1])
    return IsometryModel(m.shape, m.space, m.g,
                         Matrix(f, cols).transpose())


# -- full-window reference checkers ------------------------------------------
#
# The library decides clauses b-e and the table round trip on the pairing
# profile (w^t_d, w^r_0).  These oracles form every window pair (w^t_i, w^r_j)
# directly, so the offset reduction stays tested rather than assumed.

def _window(shape):
    p1 = shape.part(1)
    return range(-2 * p1, 4 * p1 + 1)


def window_pairs(model):
    """Every window pairing (w^t_i, w^r_j), keyed (t, i, r, j)."""
    space = model.space
    blocks = range(1, model.shape.sigma + model.shape.kappa + 1)
    keys = [(t, i) for t in blocks for i in _window(model.shape)]
    rows = Matrix(space.field, [model.extend_index(*k) for k in keys])
    out = {}
    for r, j in keys:
        gv = space.gram.apply(model.extend_index(r, j))
        for (t, i), v in zip(keys, rows.apply(gv)):
            out[(t, i, r, j)] = v
    return out


def full_window_check_adapted(model, pairs):
    """Clause violations (a)-(f) read off all window pairs; no form check."""
    shape, space = model.shape, model.space
    sigma, kappa = shape.sigma, shape.kappa
    f = space.field
    window = _window(shape)
    ext = model.extend_index
    bad = []
    for t in range(1, sigma + kappa + 1):
        for i in window:
            if ext(t, i + 1) != model.g.apply(ext(t, i)):
                bad.append(("a", (t, i)))
    for t in range(1, sigma + 1):
        p_t = shape.part(t)
        for i in window:
            for j in window:
                v = pairs[(t, i, t, j)]
                if abs(i - j) < p_t and not v.is_zero:
                    bad.append(("b", (t, i, j)))
                elif j - i == p_t and v != f.one:
                    bad.append(("b", (t, i, j)))
        for r in range(t + 1, sigma + 1):
            p_r = shape.part(r)
            for i in window:
                for j in window:
                    if 0 <= i - j + p_r < 2 * p_t and \
                            not pairs[(t, i, r, j)].is_zero:
                        bad.append(("c", (t, i, r, j)))
    if kappa:
        for i in window:
            if pairs[(sigma + 1, i, sigma + 1, i)] != f.from_int(2):
                bad.append(("d", (i,)))
        for t in range(1, sigma + 1):
            for i in window:
                for j in window:
                    if 0 <= i - j < 2 * shape.part(t) and \
                            not pairs[(t, i, sigma + 1, j)].is_zero:
                        bad.append(("e", (t, i, j)))
    if space.q_basis is not None:
        for t in range(1, sigma + kappa + 1):
            want = f.one if t > sigma else f.zero
            for i in window:
                if space.quad(ext(t, i)) != want:
                    bad.append(("f", (t, i)))
    return bad


def full_window_round_trip(model, pairs):
    """Window index pairs whose pairing differs from the table."""
    return [(t, i, r, j) for (t, i, r, j), v in pairs.items()
            if v != model.table.value(t, r, i - j)]


# -- rank-per-subspace flag references ---------------------------------------
#
# The library reads every flag condition off one matrix in the adapted basis.
# These oracles check each subspace V_i separately by ranks of spanning sets,
# so the reduction to one matrix stays tested rather than assumed.

def rank_verify(flag):
    """Raise IsotropyViolation unless every flag invariant holds."""
    space = flag.space
    nu = space.dim
    f = space.field
    subspaces = flag.subspaces
    for i, vecs in enumerate(subspaces):
        if span_dim(f, vecs) != i:
            raise IsotropyViolation(f"dim V_{i} != {i}")
    for i in range(nu):
        if not span_contains(f, subspaces[i + 1], subspaces[i]):
            raise IsotropyViolation(f"V_{i} not inside V_{i+1}")
    for i in range(nu // 2 + 1):
        vecs = subspaces[i]
        for a, u in enumerate(vecs):
            for v in vecs[a:]:
                if not space.bilinear(u, v).is_zero:
                    raise IsotropyViolation(f"form nonzero on V_{i}")
            if space.q_basis is not None and not space.quad(u).is_zero:
                raise IsotropyViolation(f"Q nonzero on V_{i}")
        perp = space.perp(vecs)
        if span_dim(f, perp) != nu - i or \
                not span_contains(f, perp, subspaces[nu - i]):
            raise IsotropyViolation(f"V_{i} perp is not V_{nu - i}")


def passes(check, flag):
    """Whether check(flag) returns without an IsotropyViolation."""
    try:
        check(flag)
    except IsotropyViolation:
        return False
    return True


def intersection_dim(field, a, b):
    return span_dim(field, a) + span_dim(field, b) \
        - span_dim(field, list(a) + list(b))


def rank_position(flag, flag_prime, shape):
    """The four position conditions, each intersection by ranks."""
    f = flag.space.field
    nu = flag.space.dim
    v, vp = flag.subspaces, flag_prime.subspaces
    p_lt = 0
    for r in range(1, shape.sigma + 1):
        p_r = shape.part(r)
        p_le = p_lt + p_r
        for i in range(1, p_r):
            d = p_lt + i
            if intersection_dim(f, vp[d], v[d]) != d - r:
                return False
            if intersection_dim(f, vp[d], v[d + 1]) != d - r + 1:
                return False
        if intersection_dim(f, vp[p_le], v[nu - p_lt - 1]) != p_le - r:
            return False
        if intersection_dim(f, vp[p_le], v[nu - p_lt]) != p_le - r + 1:
            return False
        p_lt = p_le
    return True


def rank_stabilization(t_mat, flags_pair):
    """build_T's message for the first V_i with T V_i != V_i, else None."""
    f = t_mat.field
    for name, fl in zip(("V", "V'"), flags_pair):
        for i, vecs in enumerate(fl.subspaces):
            image = [t_mat.apply(v) for v in vecs]
            if not (span_contains(f, vecs, image)
                    and span_contains(f, image, vecs)):
                return f"T does not stabilize {name}_{i}"
    return None


def stabilization_message(model, other, flags_pair):
    try:
        build_T(model, other, flags_pair=flags_pair)
    except VerificationFailed as exc:
        return str(exc)
    return None


def basis_mutations(basis):
    """Every column swap and every column add c_b += c_a (a != b)."""
    cols = [basis.col(c) for c in range(basis.ncols)]
    for a, col_a in enumerate(cols):
        for b, col_b in enumerate(cols):
            if a < b:
                swapped = list(cols)
                swapped[a], swapped[b] = col_b, col_a
                yield Matrix(basis.field, swapped).transpose()
            if a != b:
                added = list(cols)
                added[b] = tuple(x + y for x, y in zip(col_b, col_a))
                yield Matrix(basis.field, added).transpose()


# -- span-based split reference ----------------------------------------------
#
# The library reads split_check off M = W^{-1} g W and H = W^T G W.  This
# oracle forms the two block spans, their perpendicular and every pairing
# directly, so the reduction to two matrices stays tested rather than assumed.

def span_split_check(model, cut):
    """The split_check report, each condition by spans and ranks."""
    shape, mode, space = model.shape, model.mode, model.space
    sigma, kappa = shape.sigma, shape.kappa
    f = space.field
    idx = model.basis_index
    low = [m for m, (t, _i) in enumerate(idx) if t <= cut]
    high = [m for m, (t, _i) in enumerate(idx) if t > cut]
    w_low = [model.w_cols.col(m) for m in low]
    w_high = [model.w_cols.col(m) for m in high]
    p = Matrix(f, w_low + w_high).transpose()
    m_full = p.inverse() * model.g * p
    k = len(low)
    report = {"g_stable": m_full.submatrix(k, p.nrows, 0, k).is_zero
              and m_full.submatrix(0, k, k, p.nrows).is_zero}
    n_low = m_full.submatrix(0, k, 0, k) - Matrix.identity(f, k)
    n_high = m_full.submatrix(k, p.nrows, k, p.nrows) \
        - Matrix.identity(f, p.nrows - k)
    report["mutually_perpendicular"] = all(
        space.bilinear(u, v).is_zero for u in w_low for v in w_high)
    perp = space.perp(w_low)
    report["perp_complement"] = (
        span_dim(f, perp) == len(w_high)
        and span_contains(f, perp, w_high))
    if mode == SYMPLECTIC:
        sizes = [2 * shape.part(t) for t in range(1, sigma + 1)]
    else:
        ps = psi(shape)
        sizes = [2 * shape.part(t) + ps[t - 1] for t in range(1, sigma + 1)]
    if kappa and (mode == SYMPLECTIC or sigma % 2 == 0):
        sizes.append(1)
    # an unstable split has no restricted Jordan types
    for key, n in (("jordan_low", n_low), ("jordan_high", n_high)):
        report[key] = None if not report["g_stable"] else \
            dict(nilpotent_jordan_multiset(n)) if n.nrows else {}
    report["jordan_low_matches"] = \
        report["jordan_low"] == dict(Counter(sizes[:cut]))
    report["jordan_high_matches"] = \
        report["jordan_high"] == dict(Counter(sizes[cut:]))
    if mode == SYMPLECTIC:
        per_block = True
        for t in range(1, sigma + kappa + 1):
            mine = [model.w_cols.col(m) for m, (x, _i) in enumerate(idx)
                    if x == t]
            others = [model.w_cols.col(m) for m, (x, _i) in enumerate(idx)
                      if x != t]
            images = [model.g.apply(v) for v in mine]
            if not span_contains(f, mine, images):
                per_block = False
            if not all(space.bilinear(u, v).is_zero
                       for u in mine for v in others):
                per_block = False
        report["blocks_stable_orthogonal"] = per_block
    report["pass"] = all(v for key, v in report.items()
                         if key.endswith(("stable", "matches",
                                          "perpendicular", "perp_complement",
                                          "blocks_stable_orthogonal")))
    return report


def sign_flip(model):
    return model.with_signs({t: -1 if t % 2 else 1 for t in
                             range(1, model.shape.sigma
                                   + model.shape.kappa + 1)})


class TestBuildModel:
    def test_smallest_symplectic_matrix(self, sp1):
        assert sp1.g.to_json() == [[["0"], ["-1"]], [["1"], ["2"]]]

    def test_extended_collection_vector(self, sp1):
        f = sp1.field
        assert sp1.extend_index(1, 2) == (f.from_int(-1), f.from_int(2))
        # backwards extension is consistent with g inverse
        assert sp1.g.apply(sp1.extend_index(1, -1)) == sp1.extend_index(1, 0)

    def test_char2_kappa_jordan(self):
        m = build_model(ShapeSeq((1,), kappa=1), SYMPLECTIC,
                        get_finite_field(2))
        n = m.g - Matrix.identity(m.field, 3)
        assert nilpotent_jordan_multiset(n) == Counter({2: 1, 1: 1})

    def test_orthogonal_single_block_jordan(self):
        m = build_model(ShapeSeq((2,), kappa=1), ORTHOGONAL)
        n = m.g - Matrix.identity(m.field, 5)
        assert nilpotent_jordan_multiset(n) == Counter({5: 1})

    def test_verified_clauses_and_round_trip(self, sp1):
        assert check_adapted(sp1) == []
        assert round_trip_mismatches(sp1) == []

    def test_perturbed_isometry_fails_round_trip(self, sp1):
        assert round_trip_mismatches(wrong_symplectic_g(sp1)) != []

    def test_perturbed_collection_fails_clauses(self):
        assert check_adapted(scaled_collection()) != []

    def test_sign_flip_stays_adapted(self, sp1):
        flipped = sp1.with_signs({1: -1})
        assert check_adapted(flipped) == []


def model_digest(model_sweep):
    """SHA-256 over g and both flag bases of every sweep model, by key."""
    out = []
    for key in sorted(model_sweep):
        m = model_sweep[key]
        flag, flag_prime = flags_from(m)
        out.append([list(key), m.g.to_json(), flag.basis.to_json(),
                    flag_prime.basis.to_json()])
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# model_digest() of the sweep at part sum <= 5; a rewrite of the matrix
# layer must keep it
PINNED_MODEL_DIGEST = \
    "e526d00a524b30597c8ce4b1d77a02f3f4d605b47fba25fd39a8bbb244c01e56"


def space_digest(model_sweep):
    """SHA-256 over the mode and the space's JSON (G, Q and its mode) of
    every sweep model, by key."""
    text = json.dumps([[list(key), model_sweep[key].mode,
                        model_sweep[key].space.to_json()]
                       for key in sorted(model_sweep)],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# space_digest() of the sweep at part sum <= 5: deriving Q and the mode
# from G must keep it
PINNED_SPACE_DIGEST = \
    "9329d4e2baf836a536a436e6c7f3a9f6b4383ade2e863a3c85df7f455c9ee5a9"


class TestSweep:
    def test_all_acceptance_models_build(self, model_sweep):
        # build_model verifies every invariant internally; reaching here
        # means the whole sweep passed
        assert len(model_sweep) > 0
        for (parts, kappa, mode, _name), m in model_sweep.items():
            assert m.shape.parts == parts and m.mode == mode

    def test_pinned_models(self, model_sweep):
        # any change to an entry of g or of either flag basis of any sweep
        # model changes the digest
        assert len(model_sweep) == 248
        assert model_digest(model_sweep) == PINNED_MODEL_DIGEST

    def test_inverses_found_by_elimination(self, model_sweep):
        # no caller hands a model its g^-1 or W^-1: built and derived
        # models find them on first read
        checked = 0
        for (parts, _k, _mode, _name), m in model_sweep.items():
            if sum(parts) > 3:
                continue
            one = Matrix.identity(m.field, m.space.dim)
            for v in (m, sign_flip(m), m.conjugated(dense_isometry(m.space))):
                assert v.g_inv == v.g.inverse()
                assert v.g * v.g_inv == one
                assert v.w_inv * v.w_cols == one
            checked += 1
        assert checked == 80

    def test_derived_models_carry_their_table(self, model_sweep):
        # an isometry keeps every pairing, so a conjugate realizes the
        # table; a sign flip scales the pairings by eps_t eps_r and
        # carries none
        checked = 0
        for (parts, _k, _mode, _name), m in model_sweep.items():
            if sum(parts) > 3:
                continue
            c = m.conjugated(dense_isometry(m.space))
            assert c.table is m.table
            assert round_trip_mismatches(c) == []
            assert sign_flip(m).table is None
            checked += 1
        assert checked == 80

    def test_sign_flip_verifies(self):
        # with the source's table, 42 keys from (2, 1, -12) on failed the
        # round trip, since eps_2 eps_1 = -1 flips the cross pairings
        m = build_model(ShapeSeq((2, 1), kappa=1), ORTHOGONAL)
        flipped = m.with_signs({1: -1, 2: 1, 3: 1})
        assert round_trip_mismatches(flipped) == []
        _verify_model(flipped)

    def test_kappa_row_fixed_by_a_size_one_block(self, model_sweep):
        # g e^(sigma+1)_0 = e^(sigma+1)_0 wherever a block of size 1 is
        # predicted, which with kappa = 1 is in symplectic mode and in
        # orthogonal mode with sigma even; the block-end solve finds it
        checked = 0
        for (_p, kappa, mode, _name), m in model_sweep.items():
            sigma = m.shape.sigma
            if not kappa:
                continue
            fixed = mode == SYMPLECTIC or sigma % 2 == 0
            assert bool(jordan_prediction(m.shape, mode)[1]) == fixed
            if fixed:
                j = m.basis_index.index((sigma + 1, 0))
                f = m.field
                assert m.g.col(j) == tuple(
                    f.one if i == j else f.zero for i in range(m.space.dim))
                checked += 1
        assert checked == 68

    def test_pinned_spaces(self, model_sweep):
        # any change to G, Q or the mode of any sweep space changes it
        assert len(model_sweep) == 248
        assert space_digest(model_sweep) == PINNED_SPACE_DIGEST


class TestPairingProfileOracle:
    """The profile-based checks agree with the full-window reference."""

    def test_sweep_models_pass_both(self, model_sweep):
        checked = 0
        for (parts, _kappa, _mode, _name), m in model_sweep.items():
            if sum(parts) > 4:
                continue
            pairs = window_pairs(m)
            assert full_window_check_adapted(m, pairs) == []
            assert check_adapted(m) == []
            assert full_window_round_trip(m, pairs) == []
            assert round_trip_mismatches(m) == []
            checked += 1
        assert checked > 0

    def test_wrong_symplectic_g_fails_both(self, sp1):
        bad = wrong_symplectic_g(sp1)
        assert full_window_round_trip(bad, window_pairs(bad)) != []
        assert round_trip_mismatches(bad) != []

    def test_scaled_collection_fails_both(self):
        bad = scaled_collection()
        assert full_window_check_adapted(bad, window_pairs(bad)) != []
        assert check_adapted(bad) != []

    def test_q_shifted_collection_fails_both(self):
        # over GF(2) with kappa = 1, e_2 spans the radical of the form, so
        # h e_m = e_m + e_2 (m < 2) preserves the form and the conjugate
        # model (h g h^-1, h e) keeps clauses a to e; Q(h v) = Q(v) +
        # (v_0 + v_1)^2 and g swaps e_0 and e_1, so h g h^-1 still
        # preserves Q, but Q(h e_0) = 1 breaks clause (f)
        m = build_model(ShapeSeq((1,), kappa=1), SYMPLECTIC,
                        get_finite_field(2))
        h = Matrix.from_scalars(m.field, [[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        bad = m.conjugated(h)
        assert check_adapted(bad) == [("f", (1, 0), m.field.one)]
        oracle = full_window_check_adapted(bad, window_pairs(bad))
        assert oracle and {v[0] for v in oracle} == {"f"}

    def test_non_isometry_reports_form(self, sp1):
        # g e_0 = e_1 still holds, so clause (a) passes; det g = 2, so g
        # does not preserve the symplectic form
        f = sp1.field
        g = Matrix.from_scalars(f, [[0, -2], [1, 2]])
        bad = IsometryModel(sp1.shape, sp1.space, g,
                            Matrix.identity(f, 2), sp1.table)
        report = check_adapted(bad)
        assert report and {v[0] for v in report} == {"form"}

    def test_form_isometry_breaking_q_reports_q(self, sp1_gf2):
        # over GF(2), g = [[0, 1], [1, 1]] keeps g e_0 = e_1 and det g = 1,
        # so it preserves the form and clause (a); Q(g e_1) = Q(e_0 + e_1)
        # = (e_0, e_1) = 1 while Q(e_1) = 0
        f = sp1_gf2.field
        g = Matrix.from_scalars(f, [[0, 1], [1, 1]])
        bad = IsometryModel(sp1_gf2.shape, sp1_gf2.space, g,
                            Matrix.identity(f, 2), sp1_gf2.table)
        assert check_adapted(bad) == [("Q", 1, f.one)]


def scaled_by(model, c):
    """The model with every collection vector times c: g and the table
    stay, so the isometry and clause (a) still hold, while every pairing
    of two collection vectors is scaled by c^2."""
    return IsometryModel(model.shape, model.space, model.g,
                         model.w_cols * model.field.from_int(c), model.table)


class TestClauseFailures:
    """Clauses b to f, read off the pairing profile, can fail."""

    def test_symplectic_scaled_collection_fails_b(self):
        m = build_model(ShapeSeq((2, 1)), SYMPLECTIC)
        bad = scaled_by(m, 2)
        assert m.space.isometry_violations(bad.g) == []
        four = m.field.from_int(4)
        # (w^t_0, w^t_(p_t)) = 1 becomes c^2; the zero clauses stay zero
        assert check_adapted(bad) == [("b", (1, 1, -2), four),
                                      ("b", (2, 2, -1), four)]

    def test_orthogonal_scaled_collection_fails_b_d_f(self):
        m = build_model(ShapeSeq((1,), kappa=1), ORTHOGONAL,
                        get_finite_field(5))
        f = m.field
        bad = scaled_by(m, 2)
        assert m.space.isometry_violations(bad.g) == []
        # (w^2_0, w^2_0) = 2 becomes 8 = 3 and Q(w^2_0) = 1 becomes 4
        assert check_adapted(bad) == [("b", (1, 1, -1), f.from_int(4)),
                                      ("d", (2, 2, 0), f.from_int(3)),
                                      ("f", (2, 0), f.from_int(4))]


class TestFlags:
    @pytest.mark.parametrize("kappa", [0, 1])
    @pytest.mark.parametrize("field", [RATIONALS, get_finite_field(5),
                                       get_finite_field(7)], ids=repr)
    @pytest.mark.parametrize("parts", [(2, 2, 2, 1), (3, 2, 2, 1),
                                       (3, 3, 2, 1)])
    def test_recursion_branches_build(self, parts, field, kappa):
        # the first orthogonal shapes whose tables use the same-part alpha
        # term, the beta skip and the earlier-row beta term of
        # GramTable._window_form, and the zero rows above a window
        m = build_model(ShapeSeq(parts, kappa=kappa), ORTHOGONAL, field)
        pair = flags_from(m)
        assert position_check(*pair, m.shape)
        assert rank_position(*pair, m.shape)

    def test_flag_pair_and_position(self, sp1):
        flag, flag_prime = flags_from(sp1)
        assert position_check(flag, flag_prime, sp1.shape)
        # a flag is never in the required position with itself
        assert not position_check(flag, flag, sp1.shape)

    def test_position_over_finite_field(self):
        m = build_model(ShapeSeq((2, 1)), SYMPLECTIC, get_finite_field(3))
        flag, flag_prime = flags_from(m)
        assert position_check(flag, flag_prime, m.shape)

    def test_position_orthogonal(self):
        m = build_model(ShapeSeq((2, 1), kappa=1), ORTHOGONAL)
        flag, flag_prime = flags_from(m)
        assert position_check(flag, flag_prime, m.shape)

    def test_broken_flag_rejected(self, sp1):
        flag, _ = flags_from(sp1)
        col = flag.basis.col(0)
        singular = Matrix(sp1.field, [col, col]).transpose()
        broken = IsoFlag(sp1.space, singular)
        with pytest.raises(IsotropyViolation, match="dim V_2"):
            broken.verify()
        assert not passes(rank_verify, broken)

    def test_non_isotropic_swap_rejected(self):
        # for shape (2) the swap makes V_1 = <b_3> and V_2 = <b_3, b_1>
        # with (b_3, b_1) != 0; the mutation test below also covers the
        # models where the same swap stays a valid flag
        m = build_model(ShapeSeq((2,)), SYMPLECTIC)
        flag, _ = flags_from(m)
        cols = [flag.basis.col(c) for c in range(4)]
        cols[0], cols[3] = cols[3], cols[0]
        swapped = IsoFlag(m.space, Matrix(m.field, cols).transpose())
        with pytest.raises(IsotropyViolation, match="V_2 not inside V_1"):
            swapped.verify()
        assert not passes(rank_verify, swapped)


class TestReportedValues:
    """Checks run on raw entries but report field elements."""

    @pytest.mark.parametrize("field", [RATIONALS, get_finite_field(2, 2),
                                       get_finite_field(5)],
                             ids=["rat", "gf4", "gf5"])
    def test_isometry_violations_are_field_elements(self, field):
        m = build_model(ShapeSeq((2,)), SYMPLECTIC, field)
        rows = [list(r) for r in m.g.rows]
        rows[0][0] = rows[0][0] + field.one
        h = Matrix(field, rows)
        want = (h.transpose() * m.space.gram * h).rows
        bad = m.space.isometry_violations(h)
        assert bad
        for clause, (a, c), value in bad:
            assert clause == "form"
            assert isinstance(value, FieldElement)
            assert value.field is field
            assert value == want[a][c] != m.space.gram.rows[a][c]

    def test_flag_message_names_a_field_element(self):
        # b_0 = e_0 and b_1 = e_2 with (e_0, e_2) = 1, so V_2 is not
        # inside V_1 perp
        m = build_model(ShapeSeq((2,)), SYMPLECTIC)
        assert m.space.gram.rows[0][2] == RATIONALS.one
        basis = Matrix.from_scalars(RATIONALS, [[1, 0, 0, 0], [0, 0, 1, 0],
                                                [0, 1, 0, 0], [0, 0, 0, 1]])
        with pytest.raises(IsotropyViolation) as err:
            IsoFlag(m.space, basis).verify()
        assert str(err.value) == \
            "V_2 not inside V_1 perp: (b_0, b_1) = 1"


class TestFlagOracle:
    """The adapted-basis flag checks agree with the rank-based references."""

    def test_sweep_models_agree(self, model_sweep):
        models = [m for (parts, _k, _mode, _name), m in model_sweep.items()
                  if sum(parts) <= 3]
        for m in models:
            pair = flags_from(m)
            assert all(passes(rank_verify, fl) for fl in pair)
            assert rank_position(*pair, m.shape)
            assert position_check(*pair, m.shape)
            t_mat = build_T(m, sign_flip(m), flags_pair=pair)
            assert rank_stabilization(t_mat, pair) is None
        assert len(models) > 50

    def test_flag_inverse_from_basis(self, model_sweep):
        # a flag is its basis: both flags find their inverse by elimination,
        # and a singular basis, moved by g, still has none
        for (parts, _k, _mode, _name), m in model_sweep.items():
            if sum(parts) <= 3:
                one = Matrix.identity(m.field, m.space.dim)
                flag, flag_prime = flags_from(m)
                for fl in (flag, flag_prime):
                    assert fl.inverse == fl.basis.inverse()
                    assert fl.basis * fl.inverse == one
                cols = [flag.basis.col(c) for c in range(m.space.dim)]
                cols[1] = cols[0]
                mutant = IsoFlag(m.space, Matrix(m.field, cols).transpose())
                assert mutant.apply(m.g).inverse is None

    def test_mutated_bases_agree(self, model_sweep):
        # the rank oracles cost ~0.03 s per mutant, so the mutation family
        # runs on the GF(2) and GF(3) models only, which cover both
        # characteristic classes and the char-2 radical; rational and larger
        # fields are covered unmutated by test_sweep_models_agree
        verdicts = Counter()
        models = [m for (parts, _k, _mode, name), m in model_sweep.items()
                  if sum(parts) <= 3 and name in ("gf2", "gf3")]
        for m in models:
            flag, flag_prime = flags_from(m)
            other = sign_flip(m)
            t_mat = build_T(m, other, flags_pair=(flag, flag_prime))
            for basis in basis_mutations(flag.basis):
                mutant = IsoFlag(m.space, basis)
                pair = (mutant, mutant.apply(m.g))
                ok = passes(IsoFlag.verify, mutant)
                assert ok == passes(rank_verify, mutant)
                position = position_check(*pair, m.shape)
                assert position == rank_position(*pair, m.shape)
                message = stabilization_message(m, other, pair)
                assert message == rank_stabilization(t_mat, pair)
                verdicts[ok, position, message is None] += 1
        # the family reaches both verdicts of every check
        for k in range(3):
            assert {key[k] for key in verdicts} == {True, False}


class TestNormalizeSigns:
    """On raw values of the rational kernel: None is 0, (c,) is c."""

    K = scalar_kernel(RATIONALS)
    ONE = K.one

    def signs(self, a, b, block_count):
        return normalize_signs(a, b, block_count, self.K.neg)

    def test_identity_signs(self):
        a = {(1, 2, 0): self.ONE}
        assert self.signs(a, dict(a), 2) == {1: 1, 2: 1}

    def test_flipped_cross_pairing(self):
        a = {(1, 2, 0): self.ONE}
        b = {(1, 2, 0): self.K.neg(self.ONE)}
        assert self.signs(a, b, 2) == {1: 1, 2: -1}

    def test_non_sign_ratio_incompatible(self):
        a = {(1, 2, 0): self.ONE}
        b = {(1, 2, 0): self.K.add(self.ONE, self.ONE)}
        assert self.signs(a, b, 2) is None

    def test_diagonal_flip_incompatible(self):
        a = {(1, 1, 1): self.ONE}
        b = {(1, 1, 1): self.K.neg(self.ONE)}
        assert self.signs(a, b, 1) is None

    def test_zero_pattern_mismatch_incompatible(self):
        a = {(1, 2, 0): self.ONE}
        b = {(1, 2, 0): self.K.zero}
        assert self.signs(a, b, 2) is None

    def test_inconsistent_component_incompatible(self):
        one, minus = self.ONE, self.K.neg(self.ONE)
        a = {(1, 2, 0): one, (2, 3, 0): one, (1, 3, 0): one}
        b = {(1, 2, 0): minus, (2, 3, 0): minus, (1, 3, 0): minus}
        assert self.signs(a, b, 3) is None


class TestIntertwiner:
    def test_same_model_gives_identity(self, sp1):
        t = build_T(sp1, sp1)
        assert t == Matrix.identity(sp1.field, 2)

    def test_sign_flip_gives_valid_T(self):
        m = build_model(ShapeSeq((2, 1)), SYMPLECTIC)
        flipped = m.with_signs({1: 1, 2: -1})
        t = build_T(m, flipped)  # all four conclusions verified inside
        assert t * m.g == flipped.g * t

    def test_conjugate_as_first_model(self, model_sweep):
        # T W_a = W_b E also when W_a is no identity: a conjugate against
        # itself gives T = I, and against its sign flip a verified T
        checked = 0
        for (parts, _k, _mode, _name), m in model_sweep.items():
            if sum(parts) > 3:
                continue
            c = m.conjugated(dense_isometry(m.space))
            assert build_T(c, c) == Matrix.identity(m.field, m.space.dim)
            build_T(c, sign_flip(c))
            # the conjugating isometry moves the built model's flags
            for a, b in ((m, c), (c, m)):
                with pytest.raises(VerificationFailed):
                    build_T(a, b)
            checked += 1
        assert checked == 80

    def test_central_conjugate_gives_minus_identity(self, sp1):
        f = sp1.field
        minus = Matrix.from_scalars(f, [[-1, 0], [0, -1]])
        conj = sp1.conjugated(minus)
        assert build_T(sp1, conj) == minus

    def test_form_isometry_breaking_q_rejected(self, sp1_gf2):
        # h = [[1, 1], [0, 1]] preserves the form but Q(h e_1) = 1 != Q(e_1),
        # so h keeps every pairing and intertwines, yet is no isometry
        f = sp1_gf2.field
        h = Matrix.from_scalars(f, [[1, 1], [0, 1]])
        with pytest.raises(VerificationFailed, match="T is not an isometry: "
                           r"\[\('Q', 1,"):
            build_T(sp1_gf2, sp1_gf2.conjugated(h))

    def test_altered_pairings_rejected(self, sp1):
        m2 = build_model(ShapeSeq((1,)), SYMPLECTIC)
        scale = Matrix.from_scalars(sp1.field, [[2, 0], [0, 2]])
        bad = IsometryModel(m2.shape, m2.space, m2.g,
                            scale, m2.table)
        with pytest.raises(VerificationFailed):
            build_T(sp1, bad)

    def test_non_isometric_partner_rejected(self):
        # the pairings assume an isometry; T's own checks gate the output
        # when the partner's g is none
        for mode, kappa, field in ((SYMPLECTIC, 0, None),
                                   (ORTHOGONAL, 1, None),
                                   (SYMPLECTIC, 0, get_finite_field(2))):
            m = build_model(ShapeSeq((2,), kappa), mode, field)
            assert m.space.dim >= 4
            partner = m.conjugated(dense_shear(m.field, m.space.dim))
            assert m.space.isometry_violations(partner.g) != []
            with pytest.raises(VerificationFailed):
                build_T(m, partner)

    def test_pairings_memoized_per_model(self, sp1):
        assert collection_pairings(sp1) is collection_pairings(sp1)
        assert collection_pairings(sp1) is not \
            collection_pairings(sp1.with_signs({1: -1}))
        # a perturbed model sharing sp1's space and table keeps its own
        # profile, so it still fails against sp1's memoized one
        assert round_trip_mismatches(sp1) == []
        assert round_trip_mismatches(wrong_symplectic_g(sp1)) != []

    def test_pairings_reproduce_table(self, sp1):
        wrap = scalar_kernel(sp1.field).wrap
        pairs = collection_pairings(sp1)
        for (t, r, d), v in pairs.items():
            assert wrap(v) == sp1.table.value(t, r, d)

    def test_derived_model_wraps_no_collection(self, model_sweep):
        # the orbit, the profile and T all run on raw columns: a sign
        # flip's w_cols never builds its FieldElement rows view
        for (parts, _k, _mode, _name), m in model_sweep.items():
            if sum(parts) > 3:
                continue
            pair = flags_from(m)
            blocks = m.shape.sigma + m.shape.kappa
            flipped = m.with_signs({t: -1 for t in range(1, blocks + 1)})
            build_T(m, flipped, flags_pair=pair)
            assert not hasattr(flipped.w_cols, "_rows")


def schoolbook_orbit(model, t, bound):
    """w^t_d for d = -bound..bound, stepped by Matrix.apply from
    w^t_0 = the (t, 0) column of w_cols, by g upwards and by g^-1
    downwards; keyed by d."""
    g, g_inv = model.g, model.g.inverse()
    start = model.w_cols.col(model.basis_index.index((t, 0)))
    out = {0: start}
    up = down = start
    for d in range(1, bound + 1):
        up, down = g.apply(up), g_inv.apply(down)
        out[d], out[-d] = up, down
    return out


def schoolbook_pairings(model):
    """(w^t_d, w^r_0) on an orbit of its own, G w^r_0 by Matrix.apply and
    a FieldElement fold, keyed (t, r, d) in collection_pairings' order."""
    f, gram = model.field, model.space.gram
    blocks = range(1, model.shape.sigma + model.shape.kappa + 1)
    bound = 6 * model.shape.part(1)
    orbits = {t: schoolbook_orbit(model, t, bound) for t in blocks}
    out = {}
    for r in blocks:
        gw = gram.apply(orbits[r][0])
        for t in blocks:
            for d in range(-bound, bound + 1):
                acc = f.zero
                for x, y in zip(orbits[t][d], gw):
                    acc = acc + x * y
                out[(t, r, d)] = acc
    return out


class EditedTable:
    """A pairing table that reads ``edit(value)`` at one key, by default
    value + 1."""

    def __init__(self, table, key, edit=lambda v: v + 1):
        self.table, self.key, self.edit = table, key, edit

    def value(self, t, r, d):
        v = self.table.value(t, r, d)
        return self.edit(v) if (t, r, d) == self.key else v


class TestPairingsOracle:
    """collection_pairings against the schoolbook pairings, on derived
    models whose collection is not the standard basis."""

    def test_derived_models_agree(self, model_sweep):
        # the profile reads negative offsets off the positive ones, which
        # holds for an isometry g only: conjugate by a dense isometry
        seen, checked = set(), 0
        for (parts, _k, _mode, _name), m in model_sweep.items():
            if sum(parts) > 3:
                continue
            h = dense_isometry(m.space)
            assert m.space.isometry_violations(h) == []
            wrap = scalar_kernel(m.field).wrap
            for variant in (sign_flip(m), m.conjugated(h)):
                got = {key: wrap(v) for key, v in
                       collection_pairings(variant).items()}
                want = schoolbook_pairings(variant)
                assert list(got) == list(want)
                assert got == want
            seen.add(repr(m.field))
            checked += 1
        assert checked == 80
        assert {"TowerField(radicands=[])", "TowerField(radicands=[(-4)])",
                "GF(3^2)", "GF(2^2)"} <= seen

    def test_shear_conjugate_rejected_as_non_isometry(self, model_sweep):
        # a dense shear is no isometry in general, and neither is its
        # conjugate g: check_adapted reports that before it reads the
        # profile, whose negative offsets assume one
        rejected = 0
        for (parts, _k, _mode, _name), m in model_sweep.items():
            if sum(parts) > 3:
                continue
            variant = m.conjugated(dense_shear(m.field, m.space.dim))
            bad = m.space.isometry_violations(variant.g)
            if bad:
                assert check_adapted(variant)[:len(bad)] == bad
                rejected += 1
        assert rejected > 0

    def test_round_trip_reads_negative_offsets(self):
        # the profile mirrors (t, r, -d) from (r, t, d); the round trip
        # still compares the table's own value at every key
        for mode, field in ((SYMPLECTIC, None), (ORTHOGONAL, None),
                            (SYMPLECTIC, get_finite_field(3))):
            m = build_model(ShapeSeq((2, 1)), mode, field)
            for key in ((1, 2, -3), (2, 1, 3), (1, 1, -1)):
                table = EditedTable(m.table, key)
                edited = IsometryModel(m.shape, m.space, m.g, m.w_cols,
                                       table)
                assert round_trip_mismatches(edited) == [key]

    def test_round_trip_rejects_foreign_values(self):
        # the table's values are unwrapped to raw ints: one of GF(5) with
        # the coordinates of the GF(3) value is still a mismatch, and one
        # of an equal GF(3) built separately is none
        m = build_model(ShapeSeq((2, 1)), SYMPLECTIC, get_finite_field(3))
        key = (1, 1, -2)
        for field, want in ((get_finite_field(5), [key]),
                            (FiniteField(3, 1), [])):
            table = EditedTable(m.table, key,
                                lambda v, f=field: FieldElement(f, v.coords))
            edited = IsometryModel(m.shape, m.space, m.g, m.w_cols, table)
            assert round_trip_mismatches(edited) == want


class TestComponentCheck:
    def test_symplectic_immediate(self, sp1):
        t = Matrix.identity(sp1.field, 2)
        flag, _ = flags_from(sp1)
        assert component_check(sp1, t, flag) is True

    def test_orthogonal_rational_identity_in_component(self):
        m = build_model(ShapeSeq((1, 1)), ORTHOGONAL)
        flag, _ = flags_from(m)
        t = Matrix.identity(m.field, 4)
        assert component_check(m, t, flag) is True

    def test_orthogonal_finite_identity_in_component(self):
        m = build_model(ShapeSeq((1, 1)), ORTHOGONAL, get_finite_field(3))
        flag, _ = flags_from(m)
        t = Matrix.identity(m.field, 4)
        assert component_check(m, t, flag) is True

    @pytest.mark.parametrize("field", [None, get_finite_field(3)],
                             ids=["rat", "gf3"])
    def test_orthogonal_reflection_outside_component(self, field):
        m = build_model(ShapeSeq((1, 1)), ORTHOGONAL, field)
        flag, _ = flags_from(m)
        r = reflection(m.space)
        assert m.space.isometry_violations(r) == []
        assert component_check(m, r, flag) is False


def reflection(space):
    """x -> x - ((v, x) / Q(v)) v for the first anisotropic e_a + e_b."""
    f, nu = space.field, space.dim
    unit = Matrix.identity(f, nu)
    v = next(v for a in range(nu) for b in range(a + 1, nu)
             for v in [tuple(x + y for x, y in zip(unit.col(a), unit.col(b)))]
             if not space.quad(v).is_zero)
    gv = space.gram.apply(v)  # (v, x) = (G v)^T x for a symmetric G
    c = space.quad(v).inverse()
    return Matrix(f, [[unit.rows[i][j] - c * v[i] * gv[j] for j in range(nu)]
                      for i in range(nu)])


def schoolbook_quad(space, v):
    """Q(v) from Q on the basis and the Gram matrix, one term at a time."""
    acc = space.field.zero
    n = space.dim
    for m in range(n):
        if v[m].is_zero:
            continue
        acc = acc + v[m] * v[m] * space.q_basis[m]
        for mp in range(m + 1, n):
            if not v[mp].is_zero:
                acc = acc + v[m] * v[mp] * space.gram.rows[m][mp]
    return acc


class TestQuadOracle:
    def test_quad_matches_schoolbook(self, model_sweep):
        fields = set()
        for (parts, _k, _mode, name), m in model_sweep.items():
            space = m.space
            if sum(parts) > 3 or space.q_basis is None:
                continue
            f, nu = space.field, space.dim
            dense = tuple(f.from_int(j + 1) for j in range(nu))
            vecs = [m.g.col(j) for j in range(nu)] + [dense, m.g.apply(dense)]
            for v in vecs:
                assert space.quad(v) == schoolbook_quad(space, v)
            fields.add(name)
        assert fields == {"rat", "gf2", "gf3", "gf4", "gf5", "gf7"}

    def test_q_and_mode_read_off_the_gram(self, model_sweep):
        # where 2 is invertible, isometry_violations checks the form alone,
        # which is sound because Q(v) = (v, v)/2 comes from G itself
        for (_parts, _k, mode, _name), m in model_sweep.items():
            space = m.space
            assert space.mode == mode
            if m.field.char == 2:
                continue
            if mode == SYMPLECTIC:
                assert space.q_basis is None
                continue
            half = m.field.from_int(2).inverse()
            for j, q in enumerate(space.q_basis):
                assert q == space.gram.rows[j][j] * half
                e = Matrix.identity(m.field, space.dim).col(j)
                assert space.quad(e) == space.bilinear(e, e) * half

    @pytest.mark.parametrize("mode, kappa", [(ORTHOGONAL, 1),
                                             (SYMPLECTIC, 0)])
    def test_q_basis_outside_char2_rejected(self, mode, kappa):
        # G fixes Q where 2 is invertible, on a symmetric G and on an
        # alternating one alike
        m = build_model(ShapeSeq((1,), kappa=kappa), mode,
                        get_finite_field(3))
        f = m.field
        candidates = [(f.zero,) * m.space.dim]
        if m.space.q_basis is not None:
            # even the Q that G fixes
            candidates.append(m.space.q_basis)
        for q_basis in candidates:
            with pytest.raises(InvalidInput, match="characteristic 2 only"):
                QuadSpace(f, m.space.gram, q_basis)

    def test_char2_q_kept_as_given(self):
        # in characteristic 2 the form does not fix Q: the given values
        # stay, and so does None
        m = build_model(ShapeSeq((1,), kappa=1), SYMPLECTIC,
                        get_finite_field(2))
        f, gram = m.field, m.space.gram
        assert m.space.q_basis == (f.zero, f.zero, f.one)
        for q_basis in ((f.one, f.zero, f.one), None):
            space = QuadSpace(f, gram, q_basis)
            assert space.q_basis == q_basis
            assert space.mode == SYMPLECTIC and space.sign == 1


class TestFormSign:
    def test_sign_read_off_the_gram(self, model_sweep):
        for (_parts, _k, mode, _name), m in model_sweep.items():
            space = m.space
            want = 1 if mode == ORTHOGONAL or m.field.char == 2 else -1
            assert space.sign == want
            assert space.gram.transpose() == space.gram * space.sign

    def test_neither_symmetric_nor_skew_rejected(self):
        f = RATIONALS
        gram = Matrix.from_scalars(f, [[0, 1], [2, 0]])
        with pytest.raises(VerificationFailed,
                           match=r"neither .*G\[1\]\[0\] = 2 is not 1 \* "
                           r"G\[0\]\[1\]"):
            QuadSpace(f, gram)
        # skew off the diagonal, but a nonzero diagonal entry
        gram = Matrix.from_scalars(f, [[1, 1], [-1, 0]])
        with pytest.raises(VerificationFailed,
                           match=r"G\[0\]\[0\] = 1 is not -1 \* G\[0\]\[0\]"):
            QuadSpace(f, gram)

    def test_counting_spaces_build(self):
        # counting keeps its own mode strings; the space reads the model
        # mode, the sign and Q off G
        for mode, nu, want, sign in ((SP, 4, SYMPLECTIC, -1),
                                     (SO_ODD, 5, ORTHOGONAL, 1),
                                     (SP, 2, SYMPLECTIC, -1)):
            space = FiniteFormSpace(mode, nu, 3)
            assert space.quad.mode == want
            assert space.quad.sign == sign
            assert (space.quad.q_basis is None) == (mode == SP)


class TestSplitCheck:
    def test_symplectic_two_blocks(self):
        m = build_model(ShapeSeq((2, 1)), SYMPLECTIC)
        rep = split_check(m, 1)
        assert rep["pass"]
        assert rep["jordan_low"] == {4: 1}
        assert rep["jordan_high"] == {2: 1}

    def test_orthogonal_with_marker(self):
        m = build_model(ShapeSeq((2, 1), kappa=1), ORTHOGONAL)
        rep = split_check(m, 2)
        assert rep["pass"]
        assert rep["jordan_low"] == {5: 1, 1: 1}
        assert rep["jordan_high"] == {1: 1}

    def test_orthogonal_marker_in_last_chain(self):
        # sigma odd: the kappa row lies in block 3's chain of size 2 + 1
        for parts, low in (((2, 2, 1), {5: 1, 3: 1}),
                           ((3, 2, 1), {7: 1, 3: 1})):
            for field in (None, get_finite_field(5)):
                m = build_model(ShapeSeq(parts, kappa=1), ORTHOGONAL, field)
                rep = split_check(m, 2)
                assert rep["pass"]
                assert rep["jordan_low"] == low
                assert rep["jordan_high"] == {3: 1}

    def test_symplectic_per_block(self):
        m = build_model(ShapeSeq((2, 1), kappa=1), SYMPLECTIC,
                        get_finite_field(2))
        rep = split_check(m, 2)
        assert rep["pass"] and rep["blocks_stable_orthogonal"]

    def test_agrees_with_span_oracle(self, model_sweep):
        # the shear h = 1 + e_0 e_{nu-1}^T is no isometry, so the conjugate
        # model (h g h^{-1}, h W) breaks perpendicularity at some cuts
        verdicts = Counter()
        for (parts, _k, mode, _name), m in model_sweep.items():
            if sum(parts) > 3:
                continue
            f, nu = m.field, m.space.dim
            h = Matrix(f, [[f.one if i == j or (i, j) == (0, nu - 1)
                            else f.zero for j in range(nu)]
                           for i in range(nu)])
            # symplectic cuts include the last one, whose upper span is 0
            cuts = range(1, m.shape.sigma + m.shape.kappa + 1) \
                if mode == SYMPLECTIC else cuts_for(m.shape, mode)
            for variant in (m, sign_flip(m), m.conjugated(h)):
                for cut in cuts:
                    rep = split_check(variant, cut)
                    assert rep == span_split_check(variant, cut)
                    verdicts[rep["pass"]] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_unstable_split_reported(self):
        # W = P swaps e_1 and e_2, so the span of its first two columns,
        # <e_0, e_2>, is not g-stable and g restricted to it is no
        # unipotent: the report says so instead of raising
        m = build_model(ShapeSeq((1, 1)), SYMPLECTIC)
        f = m.field
        perm = (0, 2, 1, 3)
        w = Matrix(f, [[f.one if perm[j] == i else f.zero for j in range(4)]
                       for i in range(4)])
        variant = IsometryModel(m.shape, m.space, m.g, w, m.table)
        rep = split_check(variant, 1)
        assert not rep["g_stable"] and not rep["pass"]
        assert rep["jordan_low"] is None and rep["jordan_high"] is None
        assert not rep["jordan_low_matches"]
        assert not rep["jordan_high_matches"]
        assert rep == span_split_check(variant, 1)

    def test_orthogonal_cut_restricted(self):
        m = build_model(ShapeSeq((2, 2)), ORTHOGONAL)
        with pytest.raises(InvalidInput):
            split_check(m, 1)  # psi(1) = 1, not a valid cut


def test_mismatched_fields_and_models_raise_without_asserts():
    # python -O strips assert statements; lift, build_T and quad must
    # refuse an element, a model pair or a space that does not fit without
    # them
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from isoflag.fields import RATIONALS, get_finite_field, sqrt_extend\n"
        "from isoflag.linalg import Matrix\n"
        "from isoflag.model import QuadSpace, build_T, build_model\n"
        "from isoflag.shapes import InvalidInput, ORTHOGONAL, SYMPLECTIC, "
        "ShapeSeq\n"
        "root3 = sqrt_extend(RATIONALS.from_int(3))[0]\n"
        "q2 = sqrt_extend(RATIONALS.from_int(2))[1]\n"
        "gf5 = get_finite_field(5)\n"
        "calls = [\n"
        "    lambda: get_finite_field(3, 2).lift(gf5.from_int(4)),\n"
        "    lambda: q2.lift(root3),\n"
        "    lambda: build_T(build_model(ShapeSeq((2,)), SYMPLECTIC),\n"
        "                    build_model(ShapeSeq((1, 1)), SYMPLECTIC)),\n"
        "    lambda: build_T(build_model(ShapeSeq((1,), 1), ORTHOGONAL),\n"
        "                    build_model(ShapeSeq((1,), 1), ORTHOGONAL,\n"
        "                                gf5)),\n"
        "    lambda: QuadSpace(RATIONALS, Matrix.from_scalars(\n"
        "        RATIONALS, [[0, 1], [-1, 0]])).quad(\n"
        "            (RATIONALS.one, RATIONALS.zero))]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except (TypeError, InvalidInput) as exc:\n"
        "        print(type(exc).__name__, exc)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "TypeError cannot lift an element of GF(5) into GF(3^2): it does "
        "not extend it",
        "TypeError cannot lift an element of TowerField(radicands=[(3)]) "
        "into TowerField(radicands=[(2)]): it does not extend it",
        "InvalidInput the models have shapes (2,) kappa=0 and (1, 1) "
        "kappa=0",
        "InvalidInput the models are over TowerField(radicands=[(-4)]) "
        "and GF(5)",
        "InvalidInput no quadratic form on this space"]
