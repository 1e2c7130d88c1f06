import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from isoflag.cases import partitions_up_to
from isoflag.shapes import (HALF_LEVEL, ORTHOGONAL, SYMPLECTIC, InvalidInput,
                            PiWindow, ShapeSeq, binomial_nk, jordan_prediction,
                            pi_window, psi, verify_series_identity)


class TestShapeSeq:
    def test_parse_and_derived(self):
        s = ShapeSeq.parse("3,2,2,1", kappa=1)
        assert s.parts == (3, 2, 2, 1)
        assert s.n == 8 and s.nu == 17 and s.sigma == 4

    def test_rejects_increasing(self):
        with pytest.raises(InvalidInput):
            ShapeSeq((1, 2))

    def test_block_indices(self):
        s = ShapeSeq((2, 1), kappa=1)
        idx = s.block_indices()
        assert idx == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)]

    def test_mode_validity(self):
        assert not ShapeSeq((1,), kappa=0).valid_for_mode(ORTHOGONAL)
        assert ShapeSeq((1, 1), kappa=0).valid_for_mode(ORTHOGONAL)
        assert ShapeSeq((1,), kappa=1).valid_for_mode(ORTHOGONAL)


class TestPsi:
    def test_example(self):
        assert psi(ShapeSeq((3, 2, 2, 1))) == (1, 0, 0, -1)

    def test_first_is_always_one(self):
        for parts in partitions_up_to(8):
            assert psi(ShapeSeq(parts))[0] == 1

    def test_values_and_parity(self):
        for parts in partitions_up_to(8):
            ps = psi(ShapeSeq(parts))
            for t, v in enumerate(ps, start=1):
                assert v in (-1, 0, 1)
                if v == 1:
                    assert t % 2 == 1
                if v == -1:
                    assert t % 2 == 0

    def test_partial_sums_nonnegative_total_parity(self):
        # prefix sums stay in {0, 1}; psi pairs up within the sequence
        for parts in partitions_up_to(8):
            ps = psi(ShapeSeq(parts))
            acc = 0
            for v in ps:
                acc += v
                assert acc in (0, 1)
            assert acc == len(parts) % 2


class TestJordanPrediction:
    def test_symplectic(self):
        assert jordan_prediction(ShapeSeq((2, 1)), SYMPLECTIC) == \
            Counter({4: 1, 2: 1})
        assert jordan_prediction(ShapeSeq((2, 1), kappa=1), SYMPLECTIC) == \
            Counter({4: 1, 2: 1, 1: 1})

    def test_orthogonal(self):
        # psi = (1, -1) gives blocks 5 and 1; sigma even adds another 1
        assert jordan_prediction(ShapeSeq((2, 1), kappa=1), ORTHOGONAL) == \
            Counter({5: 1, 1: 2})
        assert jordan_prediction(ShapeSeq((2, 2)), ORTHOGONAL) == \
            Counter({5: 1, 3: 1})

    def test_total_is_nu(self):
        for parts in partitions_up_to(7):
            for kappa in (0, 1):
                s = ShapeSeq(parts, kappa)
                for mode in (SYMPLECTIC, ORTHOGONAL):
                    if not s.valid_for_mode(mode):
                        continue
                    pred = jordan_prediction(s, mode)
                    assert sum(k * v for k, v in pred.items()) == s.nu

    def test_orthogonal_even_blocks_paired(self):
        # even block sizes of an orthogonal isometry have even multiplicity
        for parts in partitions_up_to(7):
            for kappa in (0, 1):
                s = ShapeSeq(parts, kappa)
                if not s.valid_for_mode(ORTHOGONAL):
                    continue
                pred = jordan_prediction(s, ORTHOGONAL)
                assert all(v % 2 == 0 for k, v in pred.items()
                           if k % 2 == 0)


class TestWindow:
    def test_top_level_is_none(self):
        assert pi_window(ShapeSeq((3, 2)), 3) is None

    def test_example(self):
        w = pi_window(ShapeSeq((3, 2, 2, 1)), 1)
        assert (w.a, w.b) == (1, 3)

    def test_half_level(self):
        w = pi_window(ShapeSeq((2, 1), kappa=1), HALF_LEVEL)
        assert isinstance(w, PiWindow)
        assert w.b == 2 and w.a == 1

    def test_window_endpoints(self):
        for parts in partitions_up_to(8):
            s = ShapeSeq(parts)
            for level in sorted(set(parts))[:-1]:
                w = pi_window(s, level)
                assert s.part(w.b) > level
                assert w.b == s.sigma or s.part(w.b + 1) <= level
                assert w.a % 2 == 1 and psi(s)[w.a - 1] == 1


class TestSeries:
    def test_nk_values(self):
        assert [binomial_nk(1, k) for k in range(3)] == [1, -2, 1]
        assert [binomial_nk(2, k) for k in range(5)] == [1, -4, 6, -4, 1]

    def test_nk_range_checked(self):
        with pytest.raises(InvalidInput, match="k = 3 is out of range"):
            binomial_nk(1, 3)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_negative_binomial(self, m):
        assert verify_series_identity("negative-binomial", m, 20)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_two_pole(self, m):
        assert verify_series_identity("two-pole", m, 20)

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_series_identity("nope", 2, 5)


def test_entry_points_refuse_bad_input_without_asserts():
    # python -O strips assert statements; a corner scan below k = 2, an
    # identity below its range of m or to a negative degree, a Jordan
    # prediction for an unknown mode or a shape the mode rejects, a window
    # above a level that is no part or a half level without kappa, and a
    # binomial n_k off its range must still raise
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from isoflag.gram import check_conjecture_210\n"
        "from isoflag.shapes import HALF_LEVEL, InvalidInput, ORTHOGONAL, "
        "ShapeSeq, binomial_nk, block_jordan_sizes, jordan_prediction, "
        "pi_window, verify_series_identity\n"
        "calls = [\n"
        "    lambda: check_conjecture_210(1),\n"
        "    lambda: verify_series_identity('negative-binomial', 0, 5),\n"
        "    lambda: verify_series_identity('two-pole', 1, 5),\n"
        "    lambda: verify_series_identity('nope', 2, 5),\n"
        "    lambda: verify_series_identity('two-pole', 2, -1),\n"
        "    lambda: jordan_prediction(ShapeSeq((1,)), ORTHOGONAL),\n"
        "    lambda: block_jordan_sizes(ShapeSeq((2, 1)), 'nope'),\n"
        "    lambda: pi_window(ShapeSeq((3, 1)), 2),\n"
        "    lambda: pi_window(ShapeSeq((3, 1), 0), HALF_LEVEL),\n"
        "    lambda: binomial_nk(1, 5),\n"
        "    lambda: binomial_nk(0, 0),\n"
        "    lambda: binomial_nk(2, -1)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except InvalidInput as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "k = 1 must be at least 2",
        "the negative-binomial identity needs m >= 1, got 0",
        "the two-pole identity needs m >= 2, got 1",
        "unknown identity 'nope'",
        "degree -1 must be nonnegative",
        "shape (1,) kappa=0 is invalid for mode orthogonal-odd",
        "unknown mode 'nope'",
        "2 is not a level of (3, 1)",
        "the half level of (3, 1) needs kappa = 1",
        "k = 5 is out of range for level 1",
        "level 0 must be a positive integer",
        "k = -1 is out of range for level 2"]
