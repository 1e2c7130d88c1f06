"""Ten acceptance criteria, one test (and one pass/fail line) each.

Every comparison is exact equality; no tolerances anywhere.  The counting
criteria reuse the module-level group/flag caches, so the expensive
enumerations run once per session.
"""

import pytest

from isoflag.cases import (BC_COUNTS, OFF_CLASS_COUNTS, TYPE_A_COUNTS,
                           fields_for, partitions_up_to, sweep_cases)
from isoflag.counting import SP, TYPE_A, FiniteFormSpace, adjoint_order
from isoflag.fields import get_finite_field
from isoflag.gram import GramTable, check_conjecture_210, sg
from isoflag.model import build_T, flags_from, position_check
from isoflag.shapes import (ORTHOGONAL, SYMPLECTIC, ShapeSeq,
                            VerificationFailed, pi_window,
                            verify_series_identity)
from closed_forms import closed_form_value
from spans import span_contains, span_dim


def announce(n: int, text: str):
    print(f"CRITERION {n}: PASS - {text}")


@pytest.fixture(scope="module")
def flag_sweep(model_sweep):
    """Verified flag pairs for every model of the acceptance sweep."""
    return {key: flags_from(m) for key, m in model_sweep.items()}


def test_criterion_01_closed_form_equivalence():
    checked = 0
    for parts in partitions_up_to(5):
        for kappa in (0, 1):
            shape = ShapeSeq(parts, kappa)
            field = get_finite_field(2) if kappa else None
            t = GramTable(shape, SYMPLECTIC, field)
            f = t.field
            for x in range(1, shape.sigma + 1):
                p = shape.part(x)
                for d in range(-t.delta_bound, t.delta_bound + 1):
                    want = f.zero if abs(d) < p else f.from_int(
                        sg(-d) * int(closed_form_value("prop16", p, abs(d))))
                    assert t.value(x, x, d) == want
                    checked += 1
                for y in range(x + 1, shape.sigma + kappa + 1):
                    for d in range(-t.delta_bound, t.delta_bound + 1):
                        assert t.value(x, y, d).is_zero
    for pi in (1, 2, 3):
        t = GramTable(ShapeSeq((pi, pi)), ORTHOGONAL, delta_bound=pi + 11)
        for s in range(1, 11):
            got = t.value(1, 1, pi + s)
            assert got.coords[0] == closed_form_value("sec25", pi, s)
            assert all(c == 0 for c in got.coords[1:])
            checked += 1
        for s in range(0, 9):
            assert t.value(1, 2, -pi - 1 - s).coords[0] == \
                closed_form_value("sec26", pi, s)
            checked += 1
    announce(1, f"recursion matches every closed form ({checked} values)")


def test_criterion_02_corner_square_conjecture():
    for k, value in ((2, -16), (3, 64), (4, -256)):
        table, square, expected, matches = check_conjecture_210(k)
        assert matches
        assert expected == table.field.from_int(value)
    reported = []
    for k in range(5, 9):
        table, square, expected, matches = check_conjecture_210(k)
        reported.append((k, matches))
    announce(2, f"k=2..4 exact; k=5..8 reported as {reported}")


def test_criterion_03_model_soundness(model_sweep):
    # build_model re-verifies isometry, Q-preservation, nilpotency, the
    # Jordan multiset, all six collection clauses, and the full-window
    # round trip before returning; a bad model cannot enter the fixture
    expected_keys = set()
    for shape, mode in sweep_cases(5):
        for name, _field in fields_for(mode, shape.kappa):
            expected_keys.add((shape.parts, shape.kappa, mode, name))
    assert set(model_sweep) == expected_keys
    announce(3, f"{len(model_sweep)} models built and fully verified")


def test_criterion_04_series_identities():
    for m in range(1, 9):
        assert verify_series_identity("negative-binomial", m, 20)
    for m in range(2, 9):
        assert verify_series_identity("two-pole", m, 20)
    announce(4, "both identities hold to degree 20 for M <= 8")


def test_criterion_05_flags_and_position(model_sweep, flag_sweep):
    for key, model in model_sweep.items():
        flag, flag_prime = flag_sweep[key]  # both verified by flags_from
        assert position_check(flag, flag_prime, model.shape)
        f = model.field
        for i, vecs in enumerate(flag.subspaces):
            image = [model.g.apply(v) for v in vecs]
            prime = flag_prime.subspaces[i]
            assert span_dim(f, image) == i == span_dim(f, prime)
            assert span_contains(f, prime, image)
            assert span_contains(f, image, prime)
    announce(5, f"isotropy, position and gV = V' hold on all "
                f"{len(model_sweep)} models")


def test_criterion_06_intertwiner(model_sweep, flag_sweep):
    built = 0
    for key, model in model_sweep.items():
        pair = flag_sweep[key]
        eps = {t: -1 if t % 2 else 1
               for t in range(1, model.shape.sigma + model.shape.kappa + 1)}
        build_T(model, model.with_signs(eps), flags_pair=pair)
        built += 1
        if model.field.char != 2:
            from isoflag.linalg import Matrix
            minus = Matrix.identity(model.field, model.space.dim) * \
                model.field.from_int(-1)
            build_T(model, model.conjugated(minus), flags_pair=pair)
            built += 1
    announce(6, f"{built} intertwiners pass all four conclusions")


def test_criterion_07_type_a_counts():
    assert [(c.n, c.q) for c in TYPE_A_COUNTS] == \
        [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]
    for case in TYPE_A_COUNTS:
        n, q = case.n, case.q
        rep = case.report()
        assert rep["double_count_consistent"] and rep["class_relation_holds"]
        assert rep["count"] == adjoint_order(FiniteFormSpace(TYPE_A, n, q))
        if n == 2:
            assert rep["count"] == q * (q ** 2 - 1)
    announce(7, "five type-A counts equal |PGL_n(F_q)| exactly")


def test_criterion_08_type_bc_counts():
    assert [(c.group_type, c.q, c.shape, c.gamma) for c in BC_COUNTS] == [
        ("C", 3, ShapeSeq((2,)), None), ("C", 3, ShapeSeq((1, 1)), None),
        ("B", 3, ShapeSeq((2,), kappa=1), None)]
    counts, classes = [], []
    for case in BC_COUNTS:
        rep = case.report()
        assert rep["double_count_consistent"] and rep["relation_holds"]
        assert rep["class_relation_holds"]
        counts.append(rep["count"])
        classes.append(rep["class_sizes"])
        # the adjoint group is isogenous to Sp4 and SO5, so it has as many
        # F_3-points: 3^4 (3^2 - 1)(3^4 - 1)
        adj = rep["adjoint_order"]
        assert adj == 51840
    assert counts == [adj, adj, adj]
    # the regular unipotents split into two classes in Sp4(F3) and stay
    # one in SO5(F3); shape (1,1) meets a class of 240 and one of 480
    assert classes == [[2880, 2880], [240, 480], [5760]]
    announce(8, "three type-B/C counts equal |G_ad(F_3)| = 51840 exactly")


def test_criterion_09_off_class_divergence():
    case_a, case_c = OFF_CLASS_COUNTS
    assert (case_a.group_type, case_a.n, case_a.q, case_a.gamma) == \
        ("A", 2, 3, (1, 1))
    assert (case_c.group_type, case_c.shape, case_c.q, case_c.gamma) == \
        ("C", ShapeSeq((2,)), 3, (2, 2))
    rep_a = case_a.report()
    assert rep_a["count"] == 0

    rep_c = case_c.report()
    assert rep_c["double_count_consistent"]
    assert rep_c["count"] != adjoint_order(FiniteFormSpace(SP, 4, 3))
    announce(9, f"off-class counts diverge: typeA 0, C2 {rep_c['count']} "
                f"!= 51840")


def test_criterion_10_vanishing_level_scale_raises(monkeypatch):
    # every window level fails as the half level does: with L zeroed, the
    # first level with a window (one ending at an odd b) has nu = 0 and
    # raises, naming it, on every orthogonal shape of part sum <= 5 that
    # has one
    monkeypatch.setattr(GramTable, "_apply",
                        lambda self, K, t, e: self.field.zero)
    tables = 0
    for parts in partitions_up_to(5):
        for kappa in (0, 1):
            shape = ShapeSeq(parts, kappa)
            if not shape.valid_for_mode(ORTHOGONAL):
                continue
            levels = [level for level in sorted(set(parts), reverse=True)
                      if (win := pi_window(shape, level)) and win.b % 2]
            if not levels:
                continue
            with pytest.raises(VerificationFailed,
                               match=f"level {levels[0]}'s scale nu is 0"):
                GramTable(shape, ORTHOGONAL)
            tables += 1
    assert tables == 12
    announce(10, f"a zero window-level scale nu raised on {tables} tables")
