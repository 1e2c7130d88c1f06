import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from isoflag import gram
from isoflag.cases import partitions_up_to
from isoflag.fields import RATIONALS, get_finite_field
from isoflag.gram import GramTable, WindowExceeded, check_conjecture_210, sg
from isoflag.linalg import NoSolution, Unique
from isoflag.shapes import HALF_LEVEL, ORTHOGONAL, SYMPLECTIC, ShapeSeq, \
    VerificationFailed, pi_window
from closed_forms import closed_form_value


# table_digest() of the reference recursion; a rewrite must keep it
PINNED_DIGEST = \
    "047bfc8ec28e7ed779912a2f117026dd14fb3a8d8b1594ba01b3953a493077d4"
# edge_digest() of the same recursion, at the default window and windows 0, 1
PINNED_EDGE_DIGEST = \
    "7649e1cb1097a6af8321067badc7920e57abf8c413ddcf74150d2b38b4ddcc85"
# wide_digest() of the same recursion: more fields and shapes, and the keys
PINNED_WIDE_DIGEST = \
    "6bec36b0f79f4809c34ffb4bbbf5f2bc6dd8c0e58982afc9319fc1caae2f327b"
# rat_digest() of the same recursion: deeper tables over Q and the scan
PINNED_RAT_DIGEST = \
    "5c5ba7d8305f058807bb5ef03cf5ff0c39b4fe9a0a01cc64fd4c1158273bdc44"


def orthogonal_shapes(total, exact=False):
    for parts in partitions_up_to(total):
        if exact and sum(parts) != total:
            continue
        for kappa in (0, 1):
            s = ShapeSeq(parts, kappa)
            if s.valid_for_mode(ORTHOGONAL):
                yield s


class TestSymplecticClosedForm:
    def test_shape_one_gram(self):
        t = GramTable(ShapeSeq((1,)), SYMPLECTIC)
        g = t.gram_matrix()
        assert [[x.to_json() for x in r] for r in g.rows] == \
            [[["0"], ["1"]], [["-1"], ["0"]]]

    def test_signed_binomial(self):
        for parts in partitions_up_to(5):
            for kappa in (0, 1):
                field = get_finite_field(2) if kappa else None
                shape = ShapeSeq(parts, kappa)
                t = GramTable(shape, SYMPLECTIC, field)
                f = t.field
                for x in range(1, shape.sigma + 1):
                    p = shape.part(x)
                    for d in range(-t.delta_bound, t.delta_bound + 1):
                        want = f.zero if abs(d) < p else f.from_int(
                            sg(-d) * int(closed_form_value(
                                "prop16", p, abs(d))))
                        assert t.value(x, x, d) == want

    def test_distinct_blocks_zero(self):
        t = GramTable(ShapeSeq((2, 1), kappa=1), SYMPLECTIC,
                      get_finite_field(2))
        for d in range(-5, 6):
            assert t.value(1, 2, d).is_zero
            assert t.value(1, 3, d).is_zero
        assert t.value(3, 3, 0) == t.field.from_int(2)  # zero in char 2
        assert t.value(3, 3, 0).is_zero

    def test_reading_past_the_window_raises(self):
        # every pair, the block diagonals, the distinct-block zeros and the
        # kappa constant alike, is stored over |delta| <= delta_bound
        t = GramTable(ShapeSeq((2, 1), kappa=1), SYMPLECTIC,
                      get_finite_field(2))
        for (a, b) in ((1, 1), (2, 2), (1, 2), (2, 3), (3, 3)):
            for d in (-t.delta_bound, t.delta_bound):
                t.value(a, b, d)
            for d in (-t.delta_bound - 1, t.delta_bound + 1):
                with pytest.raises(WindowExceeded):
                    t.value(a, b, d)


class TestOrthogonalRecursion:
    def test_sec25_closed_form(self):
        for pi in (1, 2, 3):
            t = GramTable(ShapeSeq((pi, pi)), ORTHOGONAL, delta_bound=pi + 10)
            for s in range(1, 11):
                want = closed_form_value("sec25", pi, s)
                got = t.value(1, 1, pi + s)
                assert got.coords[0] == want
                assert all(c == 0 for c in got.coords[1:])

    def test_sec26_closed_form(self):
        # first nonzero same-level cross value sits at -(pi + 1)
        for pi in (1, 2):
            t = GramTable(ShapeSeq((pi, pi)), ORTHOGONAL, delta_bound=12)
            for s in range(0, 9):
                want = closed_form_value("sec26", pi, s)
                assert t.value(1, 2, -pi - 1 - s).coords[0] == want

    def test_symmetry(self):
        for shape in orthogonal_shapes(5):
            t = GramTable(shape, ORTHOGONAL)
            sig = shape.sigma + shape.kappa
            for a in range(1, sig + 1):
                for b in range(1, sig + 1):
                    for d in range(-6, 7):
                        assert t.value(a, b, d) == t.value(b, a, -d)

    def test_diagonal_base_values(self):
        for shape in orthogonal_shapes(5):
            t = GramTable(shape, ORTHOGONAL)
            for x in range(1, shape.sigma + 1):
                p = shape.part(x)
                for d in range(-p + 1, p):
                    assert t.value(x, x, d).is_zero
                assert t.value(x, x, p) == t.field.one
                assert t.value(x, x, -p) == t.field.one

    def test_gram_matrix_nonsingular(self):
        for shape in orthogonal_shapes(5):
            t = GramTable(shape, ORTHOGONAL)
            assert t.gram_matrix().rank() == shape.nu

    def test_case_map_total(self):
        for shape in orthogonal_shapes(6):
            t = GramTable(shape, ORTHOGONAL)
            sig = shape.sigma + shape.kappa
            for a in range(1, sig + 1):
                for b in range(a, sig + 1):
                    assert (a, b) in t.case_map

    def test_recursion_residual(self):
        # the defining recursion re-checked a posteriori on the diagonal:
        # sum_k n_k value(x, x, d + k) vanishes far from the support edges
        for shape in [ShapeSeq((2, 2)), ShapeSeq((2, 1), kappa=1),
                      ShapeSeq((3, 1))]:
            t = GramTable(shape, ORTHOGONAL)
            for x in range(1, shape.sigma + 1):
                p = shape.part(x)
                if any(shape.part(y) > p
                       for y in range(1, shape.sigma + 1)):
                    continue  # top level only for this residual form
                coeffs = [(-1) ** k * comb(2 * p + 1, k)
                          for k in range(2 * p + 2)]
                for d in range(-t.delta_bound, -p - 2 * p - 2):
                    acc = t.field.zero
                    for k, c in enumerate(coeffs):
                        acc = acc + t.field.from_int(c) * t.value(x, x, d + k)
                    assert acc.is_zero

    def test_finite_field_tables(self):
        for q in (3, 5, 7):
            t = GramTable(ShapeSeq((2, 1), kappa=1), ORTHOGONAL,
                          get_finite_field(q))
            assert t.gram_matrix().rank() == 7

    def test_x_independence_same_level(self):
        # all representatives of one level share the same cross values
        shape = ShapeSeq((2, 1, 1), kappa=1)
        t = GramTable(shape, ORTHOGONAL)
        for d in range(-6, 7):
            assert t.value(1, 2, d) == t.value(1, 3, d)

    def test_each_level_builds_its_shared_values_once(self, monkeypatch):
        # every row of a level has the same diagonal and every pair of its
        # rows the same 2.6 values, so each is computed once per level:
        # (1, 1, 1, 1, 1) has 10 pairs and one _off_26 call
        calls = []

        def counted(name, method):
            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper

        for name in ("_diag_24", "_diag_25", "_off_26"):
            monkeypatch.setattr(GramTable, name,
                                counted(name, getattr(GramTable, name)))
        for shape in orthogonal_shapes(6):
            calls.clear()
            GramTable(shape, ORTHOGONAL)
            rows = Counter(shape.parts)
            assert calls.count("_diag_24") + calls.count("_diag_25") \
                == len(rows), shape
            assert calls.count("_off_26") == sum(n > 1 for n in rows.values())


class TestLevelSystem:
    def test_atilde_solves_the_level_system(self, monkeypatch):
        # atilde of a window level [a, b] has the unknowns (r, h),
        # h < 2 (p_r - level), r in the window, in that order, and zeroes
        # the level's form at every window row r and
        # level - 2 p_r < e <= -level: summed here term by term,
        # sum_k n_k (value(a, r, 2 p_a - 2 level + e + k)
        #            + sum_(r', h) atilde[(r', h)] value(r', r, h + e + k))
        # Each window level (one ending at an odd b) solves its system in
        # one solve_linear, in decreasing level order; the half level's,
        # when there is one, comes last.
        solutions, solve_linear = [], gram.solve_linear

        def solve(a, b):
            sol = solve_linear(a, b)
            solutions.append(sol.x)
            return sol

        monkeypatch.setattr(gram, "solve_linear", solve)
        checked = 0
        for field in (RATIONALS, get_finite_field(5), get_finite_field(7)):
            for shape in orthogonal_shapes(6):
                solutions.clear()
                t = GramTable(shape, ORTHOGONAL, field)
                f, p = t.field, shape.part
                levels = [level for level in sorted(set(shape.parts),
                                                    reverse=True)
                          if (win := pi_window(shape, level)) and win.b % 2]
                half = shape.kappa == 1 and shape.sigma % 2 == 1
                assert len(solutions) == len(levels) + half
                for level, x in zip(levels, solutions):
                    win = pi_window(shape, level)
                    window = range(win.a, win.b + 1)
                    unknowns = [(r, h) for r in window
                                for h in range(2 * (p(r) - level))]
                    assert len(x) == len(unknowns)
                    terms = {**dict(zip(unknowns, map(f.lift, x))),
                             (win.a, 2 * p(win.a) - 2 * level): f.one}
                    for r in window:
                        for e in range(level - 2 * p(r) + 1, -level + 1):
                            acc = f.zero
                            for k in range(2 * level + 1):
                                n = f.from_int((-1) ** k * comb(2 * level, k))
                                for (rp, h), c in terms.items():
                                    acc = acc + n * c * t.value(rp, r,
                                                                h + e + k)
                            assert acc.is_zero, (shape, level, r, e)
                    checked += 1
        assert checked == 63  # 21 window levels per field

    def test_a_level_system_without_unique_solution_raises(self, monkeypatch):
        # (2, 1) has one window level, 1, and no half level
        monkeypatch.setattr(gram, "solve_linear", lambda a, b: NoSolution())
        with pytest.raises(VerificationFailed, match="level 1 "):
            GramTable(ShapeSeq((2, 1)), ORTHOGONAL)

    def test_a_half_level_system_without_unique_solution_raises(
            self, monkeypatch):
        # (1) kappa 1 has no window level; its one system is the half
        # level's
        monkeypatch.setattr(gram, "solve_linear", lambda a, b: NoSolution())
        with pytest.raises(VerificationFailed, match="of the half level"):
            GramTable(ShapeSeq((1,), 1), ORTHOGONAL)

    def test_a_vanishing_half_level_scale_raises(self, monkeypatch):
        # the solution c = 0 gives nu = -c^T G c = 0
        monkeypatch.setattr(gram, "solve_linear", lambda a, b: Unique(
            tuple(a.field.zero for _ in b)))
        with pytest.raises(VerificationFailed,
                           match="half level's scale nu is 0"):
            GramTable(ShapeSeq((1,), 1), ORTHOGONAL)


def expected_case(shape, t, r):
    """The case of the pair (t, r), t <= r, read off ``pi_window`` and the
    parts alone: the level of r has a window only when one ends at an odd
    b, as the half level's, ending at an odd sigma, always does."""
    sigma = shape.sigma
    if r == sigma + 1:
        if sigma % 2 == 0:
            return "2.7"
        return "2.8" if t >= pi_window(shape, HALF_LEVEL).a else "2.2"
    level = shape.part(r)
    win = pi_window(shape, level)
    windowed = win is not None and win.b % 2 == 1
    if t == r:
        return "2.4" if windowed else "2.5"
    if shape.part(t) == level:
        return "2.6"
    return "2.3" if windowed and win.a <= t <= win.b else "2.2"


def test_case_map_follows_the_window_rule():
    # every pair of every orthogonal table of part sum <= 6, both kappa,
    # over Q and GF(5), and at least one table with each case
    seen = set()
    for field in (RATIONALS, get_finite_field(5)):
        for shape in orthogonal_shapes(6):
            t = GramTable(shape, ORTHOGONAL, field)
            sig = shape.sigma + shape.kappa
            want = {(a, b): expected_case(shape, a, b)
                    for a in range(1, sig + 1) for b in range(a, sig + 1)}
            assert t.case_map == want, shape
            seen.update(want.values())
    assert seen == {"2.2", "2.3", "2.4", "2.5", "2.6", "2.7", "2.8"}


def diagonal_25_recurrence(level, bound):
    """The 2.5 diagonal by its recurrence, over the integers: 0 inside
    (-level, level), 1 at +-level, 2 level + 2 at -level - 1, then
    sum_k (-1)^k C(2 level + 1, k) vals[d + k] = 0 downwards, mirrored."""
    vals = {d: 0 for d in range(-level + 1, level)}
    vals[-level] = vals[level] = 1
    vals[-level - 1] = 2 * level + 2
    for d in range(-level - 2, -bound - 1, -1):
        vals[d] = -sum((-1) ** k * comb(2 * level + 1, k) * vals[d + k]
                       for k in range(1, 2 * level + 2))
    for d in range(level + 1, bound + 1):
        vals[d] = vals[-d]
    return vals


class TestDiagonal25:
    def test_closed_form_matches_the_recurrence(self):
        # every stored 2.5 entry of the orthogonal tables of part sum <= 6,
        # over its symmetric range, against the schoolbook recurrence
        checked = 0
        for field in (RATIONALS, get_finite_field(3), get_finite_field(5),
                      get_finite_field(7)):
            for shape in orthogonal_shapes(6):
                t = GramTable(shape, ORTHOGONAL, field)
                for x in range(1, shape.sigma + 1):
                    if t.case_map[(x, x)] != "2.5":
                        continue
                    offsets = sorted(d for (a, b, d) in t._store
                                     if a == b == x)
                    hi = offsets[-1]
                    assert offsets == list(range(-hi, hi + 1))
                    assert hi >= shape.part(x)
                    want = diagonal_25_recurrence(shape.part(x), hi)
                    for d, v in want.items():
                        assert t.value(x, x, d) == t.field.from_int(v)
                    checked += len(want)
        assert checked == 12024  # 3006 stored entries per field


class TestConjecture:
    @pytest.mark.parametrize("k,value", [(2, -16), (3, 64), (4, -256)])
    def test_asserted_range(self, k, value):
        table, square, expected, matches = check_conjecture_210(k)
        assert matches
        assert expected == table.field.from_int(value)

    def test_reported_range(self):
        # beyond k = 4 the prediction is reported, not asserted; but the
        # square over GF(p) must be the rational square reduced mod p, and
        # give the same verdict, whatever extensions either side takes
        for k in range(5, 9):
            _, square, _, matches = check_conjecture_210(k)
            assert all(c == 0 for c in square.coords[1:])
            rational = square.coords[0]
            for p in (5, 7, 11, 13):
                table, square_p, _, matches_p = check_conjecture_210(
                    k, get_finite_field(p))
                assert square_p == table.field.from_int(rational)
                assert matches_p == matches


class TestCornerWindow:
    """The scan reads its corner off a window-0 table: (1, 2) is a 2.3 pair,
    which stores its support, the corner included, at every window."""

    @pytest.mark.parametrize("field,kmax", [
        (RATIONALS, 12), (get_finite_field(5), 10), (get_finite_field(7), 10),
        (get_finite_field(11), 10), (get_finite_field(13), 10)], ids=repr)
    def test_corner_matches_the_wide_window(self, field, kmax):
        for k in range(2, kmax + 1):
            shape = ShapeSeq((k, 1), kappa=0)
            narrow = GramTable(shape, ORTHOGONAL, field, delta_bound=0)
            wide = GramTable(shape, ORTHOGONAL, field, delta_bound=2 * k + 2)
            assert narrow.case_map[(1, 2)] == "2.3"
            assert narrow.field == wide.field
            assert narrow.value(1, 2, 2 * k - 1) == \
                wide.value(1, 2, 2 * k - 1)

    def test_scan_tables_store_under_half_the_keys(self):
        for k in range(2, 11):
            table, _, _, _ = check_conjecture_210(k)
            wide = GramTable(table.shape, ORTHOGONAL, delta_bound=2 * k + 2)
            assert 2 * len(table._store) < len(wide._store)


class TestOneSquareRoot:
    """An observation on these cases, not a theorem of the paper: over Q an
    orthogonal table adjoins at most one root, of some -s^2, so every
    extended table lives in Q(i); over GF(q) a table extends exactly when
    q = 3 mod 4, i.e. when -1 is not a square, on the shapes that extend
    over Q."""

    def test_rational_tables_adjoin_one_root_of_minus_a_square(self):
        extended = 0
        for shape in orthogonal_shapes(10):
            field = GramTable(shape, ORTHOGONAL).field
            assert field.depth <= 1, shape
            for (r,) in field.radicands:
                minus_r = RATIONALS.from_int(-r)
                assert RATIONALS.sqrt_or_none(minus_r) is not None, shape
                extended += 1
        assert extended == 115  # of 207 tables

    def test_finite_tables_extend_iff_q_is_3_mod_4(self):
        shapes = list(orthogonal_shapes(7))
        over_q = {s for s in shapes if GramTable(s, ORTHOGONAL).field.depth}
        assert (len(over_q), len(shapes)) == (41, 65)
        for p, m in ((3, 1), (7, 1), (11, 1), (3, 3), (7, 3), (3, 5),
                     (5, 1), (13, 1), (3, 2), (5, 2), (7, 2), (5, 3)):
            base = get_finite_field(p, m)
            grew = {s for s in shapes
                    if GramTable(s, ORTHOGONAL, base).field != base}
            assert grew == (over_q if base.q % 4 == 3 else set()), base


def _canonical(obj):
    """A JSON-ready form of table data with dict keys in a fixed order."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        return [[repr(k), _canonical(v)]
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _table_record(t):
    """A table's field, all values over its window, its case map and its
    diagnostics."""
    shape = t.shape
    sig = shape.sigma + shape.kappa
    return [shape.parts, shape.kappa, t.field.to_json(), t.delta_bound,
            [t.value(a, b, d).to_json()
             for a in range(1, sig + 1)
             for b in range(a, sig + 1)
             for d in range(-t.delta_bound, t.delta_bound + 1)],
            _canonical(t.case_map), _canonical(t.diagnostics)]


def _digest(out):
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest():
    """SHA-256 over every orthogonal table with part sum <= 5 and the scan.

    Each table contributes its ``_table_record`` without the window; the
    corner scan contributes square, expected value and verdict for k = 2..8.
    """
    out = []
    for field in (RATIONALS, get_finite_field(5), get_finite_field(7)):
        for shape in orthogonal_shapes(5):
            record = _table_record(GramTable(shape, ORTHOGONAL, field))
            out.append(record[:3] + record[4:])
    for k in range(2, 9):
        _, square, expected, matches = check_conjecture_210(k)
        out.append([k, square.to_json(), expected.to_json(), matches])
    return _digest(out)


def edge_digest():
    """SHA-256 over the orthogonal tables of part sum exactly 6, over Q and
    GF(5), at the default window and at the narrowest windows 0 and 1."""
    return _digest([_table_record(GramTable(shape, ORTHOGONAL, field, window))
                    for field in (RATIONALS, get_finite_field(5))
                    for window in (None, 0, 1)
                    for shape in orthogonal_shapes(6, exact=True)])


def wide_digest():
    """SHA-256 over every orthogonal table with part sum <= 7, over Q,
    GF(3), GF(5), GF(7) and GF(3^3), at the default window and windows 0
    and 1: each table's ``_table_record`` and the keys it stores."""
    fields = (RATIONALS, get_finite_field(3), get_finite_field(5),
              get_finite_field(7), get_finite_field(3, 3))
    out = []
    for field in fields:
        for window in (None, 0, 1):
            for shape in orthogonal_shapes(7):
                t = GramTable(shape, ORTHOGONAL, field, window)
                out.append(_table_record(t) + [sorted(t._store)])
    return _digest(out)


def rat_digest():
    """SHA-256 over every orthogonal table over Q with part sum 8 to 10
    (its ``_table_record`` and stored keys) and the corner scan for
    k = 2..30 (square, expected value and verdict)."""
    out = []
    for shape in orthogonal_shapes(10):
        if sum(shape.parts) >= 8:
            t = GramTable(shape, ORTHOGONAL)
            out.append(_table_record(t) + [sorted(t._store)])
    for k in range(2, 31):
        _, square, expected, matches = check_conjecture_210(k)
        out.append([k, square.to_json(), expected.to_json(), matches])
    return _digest(out)


def test_pinned_tables():
    # any change to a value, a case label or a diagnostic of these tables
    # changes the digest
    assert table_digest() == PINNED_DIGEST


def test_pinned_window_edges():
    # the narrowest windows leave each level the least room to read from
    assert edge_digest() == PINNED_EDGE_DIGEST


def test_pinned_wide_tables():
    # GF(3) extends to GF(9) and GF(3^3) to GF(3^6) on most of these
    # tables, so lifting into an extension is covered too; the stored keys
    # pin every range a level keeps for the later levels
    assert wide_digest() == PINNED_WIDE_DIGEST


def test_pinned_rational_tables():
    # 142 tables over Q past part sum 7 and the scan to k = 30: their
    # values live in Q(sqrt(-4^j)) with j up to 30
    assert rat_digest() == PINNED_RAT_DIGEST


def test_reading_past_the_computed_range_raises():
    for shape in orthogonal_shapes(4):
        for window in (None, 0):
            t = GramTable(shape, ORTHOGONAL, delta_bound=window)
            for (a, b) in t.case_map:
                for d in (-t.delta_bound, t.delta_bound):
                    t.value(a, b, d)
                for d in (-1000, 1000):
                    with pytest.raises(WindowExceeded):
                        t.value(a, b, d)


def store_tables():
    """The orthogonal tables of part sum <= 5 over Q and GF(5) at the
    default window and windows 0 and 1, and the symplectic ones of part sum
    <= 5, over GF(2) where kappa = 1."""
    for field in (RATIONALS, get_finite_field(5)):
        for window in (None, 0, 1):
            for shape in orthogonal_shapes(5):
                yield GramTable(shape, ORTHOGONAL, field, window)
    for parts in partitions_up_to(5):
        for kappa in (0, 1):
            yield GramTable(ShapeSeq(parts, kappa), SYMPLECTIC,
                            get_finite_field(2) if kappa else None)


def test_each_pair_stores_one_range_over_the_window():
    # every pair t <= r is stored at one contiguous run of offsets that
    # covers the window, and a read one offset past either end raises, in
    # both orders of the pair
    tables = 0
    for t in store_tables():
        offsets = {}
        for (a, b, d) in t._store:
            offsets.setdefault((a, b), []).append(d)
        sig = t.shape.sigma + t.shape.kappa
        assert set(offsets) == {(a, b) for a in range(1, sig + 1)
                                for b in range(a, sig + 1)}
        for (a, b), ds in offsets.items():
            lo, hi = min(ds), max(ds)
            assert sorted(ds) == list(range(lo, hi + 1))
            assert lo <= -t.delta_bound and hi >= t.delta_bound
            for d in (lo - 1, hi + 1):
                with pytest.raises(WindowExceeded, match=f"offset {d} "):
                    t.value(a, b, d)
                with pytest.raises(WindowExceeded, match=f"offset {-d} "):
                    t.value(b, a, -d)
        tables += 1
    assert tables == 2 * 3 * 26 + 2 * 18


def test_bad_block_index_is_a_usage_error_without_asserts():
    # python -O strips assert statements; the index check must not depend
    # on them
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from isoflag.gram import GramTable\n"
            "from isoflag.shapes import InvalidInput, ShapeSeq\n"
            "t = GramTable(ShapeSeq((2, 1)), 'orthogonal-odd')\n"
            "for args in ((0, 1, 0), (1, 3, 0), (3, 3, 0)):\n"
            "    try:\n"
            "        t.value(*args)\n"
            "    except InvalidInput as exc:\n"
            "        print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "block index 0 outside 1..2", "block index 3 outside 1..2",
        "block index 3 outside 1..2"]


def test_missing_even_drop_fails_verification_without_asserts():
    # with pi_window giving no window, level 1 of (2, 1) stores row 1
    # against row 2 as 2.2 zeros, although no even drop lies between
    # them; python -O strips assert statements, and the check must not
    # depend on them
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from isoflag import gram\n"
            "from isoflag.shapes import (ORTHOGONAL, ShapeSeq,\n"
            "                            VerificationFailed)\n"
            "gram.pi_window = lambda shape, level: None\n"
            "try:\n"
            "    gram.GramTable(ShapeSeq((2, 1)), ORTHOGONAL)\n"
            "except VerificationFailed as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "2.2: row 1 above row 2 without an even drop"]
