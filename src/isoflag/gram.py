"""Canonical pairing tables for both form modes.

The table assigns to every pair of block indices (t, r) and every offset
delta = i - j a scalar value(t, r, delta), the canonical pairing of the t-th
block vector at position i against the r-th block vector at position j.
Values depend on (i, j) only through delta (translation invariance) and
satisfy value(t, r, delta) == value(r, t, -delta) in orthogonal mode.

Two modes:

* ``symplectic-or-char2``: closed-form, stored at construction.  Same-index
  pairs follow the signed-binomial formula sg(j-i) * C(|j-i|+pi-1, |j-i|-pi);
  distinct indices pair to zero; the extra kappa row's diagonal is the field
  image of 2 (which is 0 in characteristic 2).
* ``orthogonal-odd``: the inductive definition, processed level by level in
  strictly decreasing order of distinct part values, finishing with the
  virtual half level when kappa = 1.  Square roots taken along the way may
  extend the field; the finished table is stored over the final field.

Each orthogonal pair's case is decided once.  ``_do_level`` decides every
pair (y, x), y <= x, of a real level: the level has a window only when
``pi_window`` returns one ending at an odd b; its rows are 2.3, every other
higher row is 2.2, the diagonal is 2.4 with a window and 2.5 without one,
and distinct rows of the level are 2.6.  The kappa row is 2.7 when sigma is
even (``_build_orthogonal``) and 2.8 when it is odd (``_half_level_odd``,
whose rows above the window start are 2.2).  Every level with an
auxiliary system, the half level included, fails one way: a system without
a unique solution, or a scale nu that is 0, raises VerificationFailed
naming the level.

Each distinct set of values is computed once.  The rows of a real level
share one diagonal and every pair of them one set of 2.6 values, so
``_do_level`` computes each once and stores it under every row and pair;
each half-level value is one ``field.dot``; and a change of field lifts
each distinct stored value once.

The table keeps value(t, r, d) for valid blocks t <= r in one dict keyed
(t, r, d), one key per stored offset; ``value`` is its only reader.  It
reads value(r, t, -d) for t > r, and checks the blocks of a missing key
only: one outside 1..sigma+kappa raises InvalidInput, any other key
WindowExceeded.  Every pair covers |delta| <= delta_bound, 6*p_1 + 2 by
default (enough for model reconstruction and the adapted-collection
checks).  Earlier orthogonal levels store more, exactly as far as the
later stages read them:

* the last real level covers delta_bound, plus 2*p_1 when the odd-sigma
  half level follows: that level reads value(r, r', i - d) and
  value(r, r', i - i' + d) with 0 <= i, i' < 2 p_r <= 2 p_1;
* every earlier level covers the range of the next level plus 2*p_1: a
  cross value at offset d reads the window rows at m - d (m - d - 2 level
  below the support) with 0 <= m <= 2 p_r <= 2 p_1, and the auxiliary
  systems read them within 2 p_1 of zero;
* the diagonal, cross, same-level and zero (2.2) pairs of one level share
  its range: the diagonal reads the level's cross values, and a same-level
  pair the diagonal, only at offsets that pair stores;
* the half level, the symplectic closed form and its constant pairs cover
  delta_bound.

A 2.3 pair stores its support at every window, delta_bound 0 included:
zeros from -level up to the seed mu nu_t at 2 p_t - level, the recursions
only past it.  The corner-square scan reads its corner, value(1, 2, 2k - 1)
of shape (k, 1), there, on a table built at window 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Optional, Tuple

from .fields import FieldElement, RATIONALS, sqrt_extend
from .linalg import Matrix, Unique, dot, solve_linear
from .shapes import (HALF_LEVEL, ORTHOGONAL, SYMPLECTIC, MODES,
                     BoundExceeded, InvalidInput, ShapeSeq,
                     VerificationFailed, binomial_nk, pi_window)


class WindowExceeded(BoundExceeded):
    pass


def sg(i: int) -> int:
    assert i != 0
    return 1 if i > 0 else -1


def _recur(field, vals, coeffs, ds, step, rhs):
    """Solve sum_j coeffs[j] vals[d - step j] = rhs(d) for each d in ds.

    coeffs are coordinate tuples, coeffs[0] is one, and every
    vals[d - step j] with j >= 1 is already set when d comes up: step 1
    runs upwards, step -1 downwards.  rhs(d) is two lists of coordinate
    tuples whose dot is the right-hand side; each value is one
    ``field.dot``, wrapped once.  The cross (2.3), window-diagonal (2.4)
    and same-level (2.6) values run through it; the 2.5 diagonal has a
    closed form.
    """
    neg = [field.neg(c) for c in coeffs[1:]]
    for d in ds:
        xs, ys = rhs(d)
        vals[d] = FieldElement(field, field.dot(
            xs + neg,
            ys + [vals[d - step * j].coords for j in range(1, len(coeffs))]))


def _grouped_dots(field, terms):
    """{key: sum x y} over the (key, x, y) in ``terms`` (x, y coordinate
    tuples), one ``field.dot`` per key, keys in order of first use."""
    groups: Dict[object, tuple] = {}
    for key, x, y in terms:
        xs, ys = groups.setdefault(key, ([], []))
        xs.append(x)
        ys.append(y)
    return {key: field.dot(xs, ys) for key, (xs, ys) in groups.items()}


class GramTable:
    """Memoized canonical pairing values for one (shape, mode, field)."""

    def __init__(self, shape: ShapeSeq, mode: str, field=None,
                 delta_bound: Optional[int] = None):
        if mode not in MODES:
            raise InvalidInput(f"unknown mode {mode!r}")
        if not shape.valid_for_mode(mode):
            raise InvalidInput(f"shape {shape.parts} kappa={shape.kappa} "
                               f"is invalid for mode {mode}")
        if field is None:
            field = RATIONALS
        if mode == ORTHOGONAL and field.char == 2:
            raise InvalidInput("orthogonal-odd mode needs characteristic != 2")
        if mode == SYMPLECTIC and shape.kappa == 1 and field.char != 2:
            raise InvalidInput("kappa=1 in symplectic-or-char2 mode is the "
                               "char-2 orthogonal case")
        if delta_bound is not None and delta_bound < 0:
            raise InvalidInput(f"window {delta_bound} must be nonnegative")
        self.shape = shape
        self.mode = mode
        self.field = field
        p1 = shape.part(1)
        self.delta_bound = delta_bound if delta_bound is not None else 6 * p1 + 2
        # every failure raises VerificationFailed, so these never fire; the
        # dict stays for its readers: perfbench/workloads.py::_check_table,
        # the output and manifest of ``isoflag gram`` and ``isoflag
        # verify``, and PINNED_COUNT_DIGEST, which hashes the manifests'
        # ``diagnostics`` key
        self.diagnostics = {"mu_zero_levels": [], "sec28_singular": False}
        self.case_map: Dict[Tuple[int, int], str] = {}
        self._store: Dict[Tuple[int, int, int], FieldElement] = {}
        if mode == ORTHOGONAL:
            self._build_orthogonal()
        else:
            self._build_symplectic()

    # -- public accessors ---------------------------------------------------

    def value(self, t: int, r: int, delta: int) -> FieldElement:
        """The canonical value for block pair (t, r) at offset delta = i - j."""
        v = self._store.get((t, r, delta) if t <= r else (r, t, -delta))
        if v is not None:
            return v
        sigma_k = self.shape.sigma + self.shape.kappa
        for index in (t, r):
            if not 1 <= index <= sigma_k:
                raise InvalidInput(f"block index {index} outside 1..{sigma_k}")
        raise WindowExceeded(
            f"pair ({t}, {r}) has no value stored at offset {delta} "
            f"(delta_bound {self.delta_bound})")

    def gram_matrix(self) -> Matrix:
        """The form on the block vectors: (t, i) against (r, j) is
        value(t, r, i - j)."""
        idx = self.shape.block_indices()
        return Matrix(self.field,
                      [[self.value(t, r, i - j) for (r, j) in idx]
                       for (t, i) in idx])

    # -- symplectic / char-2 closed form ------------------------------------

    def _build_symplectic(self):
        f, shape, bound = self.field, self.shape, self.delta_bound
        sigma_k = shape.sigma + shape.kappa
        for t in range(1, sigma_k + 1):
            for r in range(t + 1, sigma_k + 1):
                self._store_const(t, r, f.zero, bound)
        for t in range(1, shape.sigma + 1):
            p = shape.part(t)
            self._store_pair(t, t, {
                d: f.zero if abs(d) < p else
                f.from_int(sg(-d) * comb(abs(d) + p - 1, abs(d) - p))
                for d in range(-bound, bound + 1)})
        if shape.kappa:  # the kappa row diagonal: field image of 2
            self._store_const(sigma_k, sigma_k, f.from_int(2), bound)

    # -- orthogonal-odd construction ----------------------------------------

    def _build_orthogonal(self):
        shape = self.shape
        sigma, bound = shape.sigma, self.delta_bound
        p1 = shape.part(1)
        levels = sorted(set(shape.parts), reverse=True)
        odd_half = shape.kappa == 1 and sigma % 2 == 1
        # the range each level stores is what the later stages read (see
        # the module docstring): delta_bound, plus 2 p_1 when the odd half
        # level reads the real levels last, plus 2 p_1 for every later real
        # level, whose cross values read 2 p_1 past their own range
        last = bound + (2 * p1 if odd_half else 0)
        for pos, level in enumerate(levels):
            self._do_level(level, last + (len(levels) - 1 - pos) * 2 * p1)
        if odd_half:
            self._half_level_odd(bound)
        elif shape.kappa:
            # 2.7: the kappa row of an even sigma pairs to zero with every
            # block and to 2 with itself
            for y in range(1, sigma + 1):
                self._store_const(y, sigma + 1, self.field.zero, bound, "2.7")
            self._store_const(sigma + 1, sigma + 1, self.field.from_int(2),
                              bound, "2.7")

    def _store_pair(self, t, r, vals, case=None):
        """Store value(t, r, d) = vals[d], t <= r, at every offset d of
        ``vals``, and the pair's case when one is given."""
        for d, v in vals.items():
            self._store[(t, r, d)] = v
        if case:
            self.case_map[(t, r)] = case

    def _store_const(self, t, r, value, bound, case=None):
        """value(t, r, d) = ``value`` for every |d| <= bound."""
        self._store_pair(t, r, dict.fromkeys(range(-bound, bound + 1), value),
                         case)

    def _set_field(self, field):
        if field == self.field:
            return
        self.field = field
        # constant ranges and a level's shared dicts hold one value under
        # many keys; each distinct value is lifted once
        lifted: Dict[tuple, FieldElement] = {}
        for key, v in self._store.items():
            w = lifted.get(v.coords)
            if w is None:
                w = lifted[v.coords] = field.lift(v)
            self._store[key] = w

    def _has_even_drop(self, y: int, x: int) -> bool:
        """Is there an even r in [y, x-1] with part(r) > part(r+1)?

        The virtual part at index sigma+1 counts as 1/2 (kappa = 1), so
        r = sigma always drops when x = sigma + 1.
        """
        shape = self.shape
        for r in range(y, x):
            if r % 2 != 0:
                continue
            p_r = shape.part(r)
            p_next = Fraction(1, 2) if r == shape.sigma else shape.part(r + 1)
            if p_r > p_next:
                return True
        return False

    def _do_level(self, level: int, d_level: int):
        """Every pair (y, x), y <= x, with x at this level.

        The level has a window only when ``pi_window`` returns one ending
        at an odd b.  Its rows are 2.3 and the diagonal 2.4, both read off
        the level form mu L; without one (the top level, or b even) the
        diagonal is the 2.5 closed form.  Every other higher row is 2.2,
        and distinct rows of the level are 2.6.

        The rows of a level share their values: the 2.3 values of a window
        row are one dict for every x, the 2.4 diagonal reads only those,
        the 2.5 diagonal depends on the level alone, and the 2.6 values
        read only value(x, x, .).  So the diagonal and the 2.6 values are
        computed once, for the first row, and stored for every row and
        every pair y < x.
        """
        shape = self.shape
        xs = [x for x in range(1, shape.sigma + 1) if shape.part(x) == level]
        win = pi_window(shape, level)
        window = range(win.a, win.b + 1) if win and win.b % 2 else range(0)
        if window:
            # may extend the field
            nk, form, seeds = self._window_form(level, window)
        else:
            nk = self._nk(level)
        for t in window:
            self._cross_23(t, xs, level, nk, form, seeds[t], d_level)
        # a window row t has no even drop before the level: r = b is odd,
        # and an even drop r in [t, b - 1] would make r + 1 an odd index
        # above a with psi = 1 and part > level, against the choice of a
        self._store_22(range(1, window[0] if window else xs[0]), xs, d_level)
        if window:
            diag, case = self._diag_24(xs[0], level, nk, form, d_level), "2.4"
        else:
            diag, case = self._diag_25(level, d_level), "2.5"
        for x in xs:
            self._store_pair(x, x, diag, case)
        if len(xs) > 1:
            off = self._off_26(xs[0], level, nk, d_level)
            for yi, y in enumerate(xs):
                for x in xs[yi + 1:]:
                    self._store_pair(y, x, off, "2.6")

    def _store_22(self, ys, xs, d_range):
        """2.2: each higher row y in ``ys`` pairs to zero with the rows
        ``xs`` of one level, an even drop lying between them; a row
        without one raises VerificationFailed."""
        for y in ys:
            if not self._has_even_drop(y, xs[0]):
                raise VerificationFailed(
                    f"2.2: row {y} above row {xs[0]} without an even drop")
            for x in xs:
                self._store_const(y, x, self.field.zero, d_range, "2.2")

    # -- the one linear form of the recursion --------------------------------

    def _nk(self, level):
        """n_k = (-1)^k C(2 level, k), k = 0..2 level, as coordinates."""
        return [self.field.from_int(binomial_nk(level, k)).coords
                for k in range(2 * level + 1)]

    def _kernel(self, level, nk, a, coef):
        """The merged coefficients K of the level's linear form.

        K convolves the level's n_k, ``nk``, with the row-a term
        (coefficient one at (a, 2 p_a - 2 level)) plus the coefficient dict
        ``coef`` = {(r, h): c}:  K[(r, m)] = sum_k n_k c[(r, m - k)].  It
        defines

            L(t, e) = sum_(r, m) K[(r, m)] value(r, t, m + e),

        evaluated by ``_apply``.  With coef = atilde this is the form whose
        zeros fix atilde, and which gives nu, the cross values and the
        diagonal of a window level.  K holds coordinate tuples.  Zero
        entries are dropped, so no value behind one is ever read.
        """
        f = self.field
        # coef indices of row a stay below 2 p_a - 2 level
        terms = {**coef, (a, 2 * self.shape.part(a) - 2 * level): f.one}
        K = _grouped_dots(f, (((r, h + k), n, c.coords)
                              for (r, h), c in terms.items() if not c.is_zero
                              for k, n in enumerate(nk)))
        return {key: c for key, c in K.items() if any(c)}

    def _terms(self, K, t, e):
        """L(t, e) as two coordinate lists: K's coefficients and the
        values value(r, t, m + e) they multiply."""
        return (list(K.values()),
                [self.value(r, t, m + e).coords for (r, m) in K])

    def _apply(self, K, t, e):
        """L(t, e) = sum_(r, m) K[(r, m)] value(r, t, m + e)."""
        return FieldElement(self.field, self.field.dot(*self._terms(K, t, e)))

    # -- the auxiliary system of a window level -----------------------------

    def _window_form(self, level: int, window):
        """n_k, the level form mu L and the 2.3 seeds {t: mu nu_t} of a
        window level, all over the field after its extension.

        atilde = {(r, h): r in the window, 0 <= h < 2 (p_r - level)} is the
        unique solution of L(t, e) = 0 for every window row t and every
        level - 2 p_t < e <= -level, as many equations as unknowns; L is
        the form of ``_kernel``.  The coefficient of (r, h) in equation
        (t, e) is sum_k n_k value(r, t, h + e + k), a function of s = h + e
        read once per (r, t, s); the row-a term of L is the right-hand side.
        Then nu_t = L(t, level - 2 p_t) for each window row t, and
        mu = 2 / sqrt(2 nu_a) adjoins that root; a zero nu_a raises
        VerificationFailed.  L is built once and lifted.
        """
        p = self.shape.part
        f = self.field
        a = window[0]
        nk = self._nk(level)
        coeff: Dict[Tuple[int, int, int], FieldElement] = {}

        def c(r, t, s):
            if (r, t, s) not in coeff:
                coeff[(r, t, s)] = FieldElement(f, f.dot(
                    nk, [self.value(r, t, s + k).coords
                         for k in range(len(nk))]))
            return coeff[(r, t, s)]

        unknowns = [(r, h) for r in window for h in range(2 * (p(r) - level))]
        # e from -level down: on the corner scan's (k, 1) tables this order
        # takes a third fewer row eliminations than the ascending one
        equations = [(t, e) for t in window
                     for e in range(-level, level - 2 * p(t), -1)]
        top = 2 * p(a) - 2 * level
        sol = solve_linear(
            Matrix(f, [[c(r, t, h + e) for (r, h) in unknowns]
                       for (t, e) in equations]),
            [-c(a, t, top + e) for (t, e) in equations])
        if not isinstance(sol, Unique):
            raise VerificationFailed(
                f"the auxiliary system of level {level} has no unique "
                f"solution")
        K = self._kernel(level, nk, a, dict(zip(unknowns, sol.x)))
        nu = {t: self._apply(K, t, -(2 * p(t) - level)) for t in window}
        if nu[a].is_zero:
            raise VerificationFailed(f"level {level}'s scale nu is 0")
        root, newfield = sqrt_extend(f.from_int(2) * nu[a])
        self._set_field(newfield)
        mu = newfield.from_int(2) / root
        lift = newfield.lift
        return (self._nk(level),
                {key: (mu * lift(FieldElement(f, k))).coords
                 for key, k in K.items()},
                {t: mu * lift(v) for t, v in nu.items()})

    # -- the recursion cases -------------------------------------------------

    def _cross_23(self, t, xs, level, nk, form, seed, d_range):
        """Values for a window row t against the level's representatives
        ``xs``, which all share them; ``form`` is mu L and ``seed`` is
        mu nu_t, the value at 2 p_t - level."""
        f = self.field
        p_t = self.shape.part(t)
        vals = dict.fromkeys(range(-level, 2 * p_t - level), f.zero)
        vals[2 * p_t - level] = seed
        _recur(f, vals, nk, range(2 * p_t - level + 1, d_range + 1), 1,
               lambda d: self._terms(form, t, -d))
        _recur(f, vals, nk, range(-level - 1, -d_range - 1, -1), -1,
               lambda d: self._terms(form, t, -d - 2 * level))
        for x in xs:
            self._store_pair(t, x, vals, "2.3")

    def _diag_24(self, x, level, nk, form, d_range):
        """Same-index values of row x at a level with a window; ``form``
        is mu L."""
        f = self.field
        vals = dict.fromkeys(range(-level + 1, level), f.zero)
        vals[-level] = vals[level] = f.one
        _recur(f, vals, nk, range(-level - 1, -d_range - 1, -1), -1,
               lambda d: self._terms(form, x, d))
        for d in range(level + 1, d_range + 1):
            vals[d] = vals[-d]
        return vals

    def _diag_25(self, level, d_range):
        """Same-index values at a level without a window:
        C(|d| + l, 2l) + C(|d| + l - 1, 2l) at level l, the polynomial of
        degree 2l in |d| that is 0 inside (-l, l), 1 at +-l and 2l + 2 at
        +-(l + 1), so its (2l + 1)-th difference vanishes."""
        bound = max(level, d_range)
        vals: Dict[int, FieldElement] = {}
        for d in range(bound + 1):
            vals[d] = vals[-d] = self.field.from_int(
                comb(d + level, 2 * level) + comb(d + level - 1, 2 * level))
        return vals

    def _off_26(self, x, level, nk, d_range):
        """Distinct indices at the same level, from value(x, x, .) of a
        row x of that level."""
        f = self.field
        K = self._kernel(level, nk, x, {})
        vals = dict.fromkeys(range(-level, level), f.zero)
        _recur(f, vals, nk, range(-level - 1, -d_range - 1, -1), -1,
               lambda d: self._terms(K, x, d))
        _recur(f, vals, nk, range(level, d_range + 1), 1,
               lambda d: self._terms(K, x, d - 2 * level))
        return vals

    # -- the virtual half level ----------------------------------------------

    def _half_level_odd(self, d_range):
        """2.8: the kappa row of an odd sigma against the window [a, sigma]
        and itself, from the unique solution c of the half level's system;
        the rows above a are 2.2.

        Each value is one ``field.dot`` over coordinate tuples, wrapped
        only where it is stored.  A diagonal value reads the two cross
        brackets it needs from the row-a cross values wherever their
        offset lies in [-d_range, d_range], and forms a bracket itself
        only outside that range (on narrow windows and at large d).
        """
        shape = self.shape
        sigma = shape.sigma
        a = pi_window(shape, HALF_LEVEL).a
        p = shape.part
        p_a = p(a)
        f = self.field
        idx = [(r, i) for r in range(a, sigma + 1) for i in range(2 * p(r))]
        gmat = Matrix(f, [[self.value(r, rp, i - ip) for (rp, ip) in idx]
                          for (r, i) in idx])
        rhs = [self.value(a, rp, 2 * p_a - ip) for (rp, ip) in idx]
        sol = solve_linear(gmat, rhs)
        if not isinstance(sol, Unique):
            raise VerificationFailed(
                "the auxiliary system of the half level has no unique "
                "solution")
        c = dict(zip(idx, sol.x))
        nu = -dot(sol.x, gmat.apply(sol.x), f)
        if nu.is_zero:
            raise VerificationFailed("the half level's scale nu is 0")
        # Each value is a bracket in the field this level starts in, times
        # 1/cx0 (cross) or 1/cx0^2 = 2/nu (diagonal), with cx0^2 = nu/2:
        # only the cross values' final scale needs the root.  For the pair
        # (r', x) the offset is d = i' - h, and the bracket is
        # value(a, r', 2 p_a - d) - sum c_(r, i) value(r, r', i - d): one
        # dot, through the form with coefficient one at (a, 2 p_a), a key
        # c lacks (i < 2 p_r), and the negated c elsewhere.
        one = f.one.coords
        bracket_form = {(a, 2 * p_a): one,
                        **{key: f.neg(v.coords) for key, v in c.items()}}

        def bracket(rp, d):
            return f.dot(*self._terms(bracket_form, rp, -d))

        cross = {rp: {d: bracket(rp, d) for d in range(-d_range, d_range + 1)}
                 for rp in range(a, sigma + 1)}

        def cross_a(d):
            return cross[a][d] if -d_range <= d <= d_range else bracket(a, d)

        # the quadratic term sum c_(r, i) c_(r', i') value(r, r', i - i' + d)
        # through the correlation C[(r, r', e)] = sum over i - i' = e
        corr_c = _grouped_dots(f, (((r, rp, i - ip), x.coords, y.coords)
                                   for (r, i), x in c.items()
                                   for (rp, ip), y in c.items()))
        # the diagonal is bracket(a, 2 p_a - d) + bracket(a, 2 p_a + d)
        # - value(a, a, -d) plus the quadratic term, one dot; it is even in
        # d, like value(a, a, .) and the quadratic term, so only d >= 0 is
        # computed
        diag_coeffs = [one, one, f.neg(one)] + list(corr_c.values())
        diag = [f.dot(diag_coeffs,
                      [cross_a(2 * p_a - d), cross_a(2 * p_a + d),
                       self.value(a, a, -d).coords]
                      + [self.value(r, rp, e + d).coords
                         for (r, rp, e) in corr_c])
                for d in range(d_range + 1)]
        cx0, newfield = sqrt_extend(nu / 2)
        self._set_field(newfield)
        lift = newfield.lift
        inv2 = f.from_int(2) / nu  # 1/cx0^2, in the base field
        inv = cx0 * lift(inv2)
        x = sigma + 1
        self._store_22(range(1, a), [x], d_range)
        for rp, brackets in cross.items():
            self._store_pair(rp, x, {d: inv * lift(FieldElement(f, v))
                                     for d, v in brackets.items()}, "2.8")
        vals = {}
        for d, v in enumerate(diag):
            vals[d] = vals[-d] = lift(inv2 * FieldElement(f, v))
        self._store_pair(x, x, vals, "2.8")

    def to_json(self):
        return {
            "shape": self.shape.to_json(),
            "mode": self.mode,
            "field": self.field.to_json(),
            "window": self.delta_bound,
            "diagnostics": self.diagnostics,
        }


def check_conjecture_210(k: int, field=None):
    """The square of the corner cross value for shape (k, 1).

    The table is built at window 0: level 1's window is [1, 1], so (1, 2)
    is a 2.3 pair, whose seed at 2k - 1 is the corner.  Returns (table,
    square, expected, matches): the table used, the computed square of
    value(1, 2, 2k - 1), the predicted (-1)^(k-1) * 2^(2k) as a field
    element, and whether they agree.
    """
    if k < 2:
        raise InvalidInput(f"k = {k} must be at least 2")
    shape = ShapeSeq((k, 1), kappa=0)
    table = GramTable(shape, ORTHOGONAL, field, delta_bound=0)
    v = table.value(1, 2, 2 * k - 1)
    square = v * v
    expected = table.field.from_int((-1) ** (k - 1) * 2 ** (2 * k))
    return table, square, expected, square == expected
