import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isoflag import fields
from isoflag.fields import (FINITE_SCAN_CAP, PRIMALITY_BOUND, RATIONALS,
                            FieldElement, FiniteField, TowerDepthExceeded,
                            TowerField,
                            _canonical_modulus, _is_irreducible,
                            get_finite_field, is_prime, sqrt_extend)
from isoflag.shapes import BoundExceeded, InvalidInput

Q2 = RATIONALS.extend((Fraction(2),))
# Q(sqrt(-4)) = Q(i), the field every extended table over Q lives in
QM4 = RATIONALS.extend((Fraction(-4),))

# rational coordinates; zero entries and zero sqrt halves are common, for
# the zero-half branches of TowerField.dot
small = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=5))


def quadratic(f):
    """Elements a1 + a2 sqrt(r) of the depth-1 field f."""
    return st.tuples(small, small).map(f.element)


def quadratic_product(a, b):
    """Schoolbook product (a1 b1 + r a2 b2, a1 b2 + a2 b1) in Q(sqrt r)."""
    (r,), = a.field.radicands
    (a1, a2), (b1, b2) = a.coords, b.coords
    return a.field.element((a1 * b1 + r * a2 * b2, a1 * b2 + a2 * b1))


def gf_product(f, a, b):
    """Schoolbook product in GF(p^m): sum a_i b_j x^(i+j), each power of x
    read off a table built by x^(k+1) = x * x^k, with x^m replaced by
    -(modulus[0] + ... + modulus[m-1] x^(m-1))."""
    p, m = f.p, f.m
    powers = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    while len(powers) < 2 * m - 1:
        top, shifted = powers[-1][-1], (0,) + powers[-1][:-1]
        powers.append(tuple((s - top * c) % p
                            for s, c in zip(shifted, f.modulus)))
    out = [0] * m
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            for k, c in enumerate(powers[i + j]):
                out[k] += x * y * c
    return f.element(out)


def brute_sqrt(f, x):
    """The square root of least encoding, by scanning the field."""
    return next((r for r in (f.element(f.decode(n)) for n in range(f.q))
                 if r * r == x), None)


#: _canonical_modulus(p, m), little-endian, for p <= 13, m <= 6 and
#: p^m <= 2 * 10^6, as sympy's gf_irreducible_p chose them.  Every field,
#: table and digest depends on these; they must never change.
PINNED_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (11, 4): (2, 1, 0, 0, 1),
    (11, 5): (2, 0, 0, 0, 0, 1),
    (11, 6): (2, 1, 0, 0, 0, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (13, 4): (2, 0, 0, 0, 1),
    (13, 5): (2, 4, 0, 0, 0, 1),
}


def monic_polys(p, m):
    """Every monic polynomial of degree m over GF(p), little-endian, in
    order of encoding (the x^(m-1) coefficient most significant)."""
    for enc in range(p ** m):
        digits = []
        for _ in range(m):
            enc, c = divmod(enc, p)
            digits.append(c)
        yield tuple(digits) + (1,)


def divides(g, f, p):
    """Whether the monic g divides f over GF(p), by long division."""
    r = list(f)
    for i in range(len(f) - len(g), -1, -1):
        c = r[i + len(g) - 1]
        if c:
            for j, x in enumerate(g):
                r[i + j] = (r[i + j] - c * x) % p
    return not any(r)


def irreducible_by_trial_division(f, p):
    """The oracle: no monic g of degree 1..m/2 divides the monic f."""
    m = len(f) - 1
    return not any(divides(g, f, p) for d in range(1, m // 2 + 1)
                   for g in monic_polys(p, d))


def gauss_count(p, m):
    """The number of monic irreducibles of degree m over GF(p):
    (1/m) * sum over d | m of mobius(d) p^(m/d)."""
    def mobius(n):
        sign, k = 1, 2
        while n > 1:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                sign = -sign
            k += 1
        return sign
    return sum(mobius(d) * p ** (m // d)
               for d in range(1, m + 1) if m % d == 0) // m


#: (p, m) small enough to enumerate every monic polynomial of degree m.
ORACLE_CASES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3)]


class TestRationalTower:
    def test_rational_sqrt(self):
        x = RATIONALS.from_int(4)
        assert RATIONALS.sqrt_or_none(x) == RATIONALS.from_int(2)

    def test_nonsquare_extends(self):
        x = RATIONALS.from_int(2)
        assert RATIONALS.sqrt_or_none(x) is None
        root, field = sqrt_extend(x)
        assert root * root == field.lift(x)
        # adjoining again does not extend further
        again, field2 = sqrt_extend(field.lift(x))
        assert field2 == field and again == root

    def test_canonical_root_positive_leading(self):
        root, field = sqrt_extend(RATIONALS.from_int(3))
        # first nonzero coordinate of the canonical root is positive
        nz = next(c for c in root.coords if c != 0)
        assert nz > 0

    def test_depth_bound(self):
        # one quadratic extension is the most a field may take: the root of
        # a non-square of Q(sqrt 2) would need a second level
        three = Q2.from_int(3)
        assert Q2.sqrt_or_none(three) is None
        with pytest.raises(TowerDepthExceeded,
                           match="bound 1 exceeded: extension to depth 2"):
            sqrt_extend(three)
        with pytest.raises(TowerDepthExceeded, match="depth 2"):
            TowerField(((2,), (3, 0)))

    @pytest.mark.parametrize("radicand", [4, 0, Fraction(9, 4), 1])
    def test_square_radicand_is_bad_input(self, radicand):
        # Q[x]/(x^2 - 4) has zero divisors, (2 - x)(2 + x) = 0
        with pytest.raises(InvalidInput, match=f"radicand {radicand} is"):
            RATIONALS.extend((radicand,))
        with pytest.raises(InvalidInput, match=f"radicand {radicand} is"):
            TowerField(((radicand,),))

    def test_square_radicand_is_bad_input_without_asserts(self):
        # python -O strips assert statements; the radicand check is none
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from isoflag.fields import RATIONALS\n"
            "from isoflag.shapes import InvalidInput\n"
            "for r in (4, 0):\n"
            "    try:\n"
            "        print('returned', RATIONALS.extend((r,)))\n"
            "    except InvalidInput as exc:\n"
            "        print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"radicand {r} is a rational square: adjoining its root gives "
            f"no field" for r in (4, 0)]

    def test_negative_square(self):
        root, field = sqrt_extend(RATIONALS.from_int(-16))
        assert root * root == field.from_int(-16)

    def test_arithmetic_with_scalars(self):
        x = RATIONALS.element((Fraction(3, 2),))
        assert x + 1 == RATIONALS.element((Fraction(5, 2),))
        assert 2 * x == RATIONALS.from_int(3)
        assert (x / x) == RATIONALS.one

    @given(st.fractions(), st.fractions())
    @settings(max_examples=50, deadline=None)
    def test_field_axioms_rational(self, a, b):
        x, y = RATIONALS.element((a,)), RATIONALS.element((b,))
        assert x + y == y + x
        assert x * y == y * x
        if not y.is_zero:
            assert (x / y) * y == x


class TestQuadraticExtension:
    """Q(sqrt 2) and Q(sqrt(-4)) against the schoolbook product."""

    @pytest.mark.parametrize("f", [Q2, QM4], ids=["Q2", "QM4"])
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_product_inverse_and_root(self, f, data):
        x, y = data.draw(quadratic(f)), data.draw(quadratic(f))
        assert x * y == quadratic_product(x, y)
        if not x.is_zero:
            assert x * x.inverse() == f.one
            root = f.sqrt_or_none(x * x)
            assert root in (x, -x)
            assert next(c for c in root.coords if c != 0) > 0

    def test_zero_halves(self):
        s2 = Q2.element((0, 1))
        assert s2 * s2 == Q2.from_int(2)
        assert s2 * Q2.from_int(3) == Q2.element((0, 3))
        assert QM4.element((0, 1)) ** 2 == QM4.from_int(-4)


class TestClosedFormWork:
    """Over Q(sqrt r) a product and an inverse are closed forms, and a dot
    of any length is at most three rational dots; TestQuadraticExtension
    and TestCoordinateContract check their values."""

    OPERANDS = ((3, Fraction(1, 2)), (Fraction(2, 3), 5), (0, 7),
                (Fraction(-1, 4), 0), (1, 1), (0, 0))

    @pytest.fixture
    def qdots(self, monkeypatch):
        calls = []
        qdot = fields._qdot
        monkeypatch.setattr(fields, "_qdot", lambda xs, ys:
                            calls.append(len(xs)) or qdot(xs, ys))
        return calls

    @pytest.mark.parametrize("f", [Q2, QM4], ids=["Q2", "QM4"])
    def test_product_and_inverse_make_no_rational_dot(self, f, qdots):
        xs = [f.element(c) for c in self.OPERANDS]
        products = [x * y for x in xs for y in xs]
        inverses = [x.inverse() for x in xs if not x.is_zero]
        assert qdots == []
        assert products == [quadratic_product(x, y) for x in xs for y in xs]
        assert all(x * y == f.one for x, y in zip(xs, inverses))

    @pytest.mark.parametrize("f", [Q2, QM4], ids=["Q2", "QM4"])
    @pytest.mark.parametrize("n", [1, 2, 6, 36])
    def test_dot_makes_at_most_three_rational_dots(self, f, n, qdots):
        xs = [f.element(c) for c in self.OPERANDS]
        pairs = [(x, y) for x in xs for y in xs][:n]
        got = f.dot([x.coords for x, _ in pairs], [y.coords for _, y in pairs])
        assert len(qdots) <= 3
        assert FieldElement(f, got) == sum(
            (quadratic_product(x, y) for x, y in pairs), f.zero)


class TestPrimality:
    def test_agrees_with_a_sieve(self):
        limit = 2 * 10 ** 5
        composite = set()
        for d in range(2, isqrt(limit) + 1):
            composite.update(range(d * d, limit, d))
        assert [n for n in range(limit) if is_prime(n)] == \
            [n for n in range(2, limit) if n not in composite]

    @pytest.mark.parametrize("n", [
        3215031751,  # a strong pseudoprime to the bases 2 to 7
        3825123056546413051,  # a strong pseudoprime to the bases 2 to 31
        (10 ** 6 + 3) ** 2])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_mersenne_numbers(self):
        assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
        assert 2 ** 67 - 1 == 193707721 * 761838257287
        assert not is_prime(2 ** 67 - 1)

    def test_undecided_past_psi13(self):
        with pytest.raises(BoundExceeded, match=f"psi_13 = {PRIMALITY_BOUND}"):
            is_prime(PRIMALITY_BOUND)
        assert PRIMALITY_BOUND == 3317044064679887385961981

    def test_composite_characteristic_is_bad_input(self):
        with pytest.raises(InvalidInput, match="not prime"):
            get_finite_field((10 ** 6 + 3) ** 2)


class TestFiniteFields:
    def test_sqrt_gf7(self):
        f = get_finite_field(7)
        assert f.sqrt_or_none(f.from_int(2)) == f.from_int(3)

    def test_sqrt_tie_break_minimal_encoding(self):
        f = get_finite_field(7)
        r = f.sqrt_or_none(f.from_int(2))
        assert f.encode(r.coords) <= f.encode((-r).coords)

    @pytest.mark.parametrize("p,m", [(5, 1), (13, 1), (17, 1), (3, 2),
                                     (5, 2)])
    def test_sqrt_matches_brute_force(self, p, m):
        f = get_finite_field(p, m)
        for n in range(f.q):
            x = f.element(f.decode(n))
            root, brute = f.sqrt_or_none(x), brute_sqrt(f, x)
            if brute is None:
                assert root is None
            else:
                assert root.coords == brute.coords

    def test_sqrt_above_scan_cap(self):
        p = 1000033  # prime, 1 mod 4 (p - 1 = 2^5 * 31251)
        assert p > FINITE_SCAN_CAP and p % 4 == 1
        f = get_finite_field(p)
        root = f.sqrt_or_none(f.from_int(123456) ** 2)
        assert root == f.from_int(123456)
        nonsquare = next(k for k in range(2, p)
                         if pow(k, (p - 1) // 2, p) == p - 1)
        assert f.sqrt_or_none(f.from_int(nonsquare)) is None

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (11, 2),
                                     (3, 4), (5, 4), (7, 1), (3, 3)])
    def test_least_nonresidue_matches_brute_force(self, p, m):
        # for even m every constant of GF(p) is a square, so the scan may
        # start at encoding p; the brute force starts at 0
        f = get_finite_field(p, m)
        brute = next(n for n in range(f.q)
                     if brute_sqrt(f, f.element(f.decode(n))) is None)
        assert f.encode(f._least_nonresidue().coords) == brute

    def test_sqrt_over_reducible_modulus_raises(self):
        # GF(3)[x]/(x^2 - 1) is GF(3) x GF(3): its least "nonresidue" is a
        # zero divisor, so the Tonelli-Shanks squarings of b never reach 1
        f = FiniteField(3, 2)
        f.modulus = (2, 0, 1)
        with pytest.raises(ArithmeticError,
                           match=r"GF\(3\^2\).*not irreducible"):
            f.sqrt_or_none(f.from_int(-1))

    def test_char2_sqrt_never_extends(self):
        for f in (get_finite_field(2), get_finite_field(2, 2),
                  get_finite_field(2, 3)):
            for n in range(f.p ** f.m):
                x = f.element(f.decode(n))
                r = f.sqrt_or_none(x)
                assert r is not None and r * r == x

    def test_extension_embedding(self):
        f = get_finite_field(7)
        x = f.from_int(3)  # not a square mod 7
        assert f.sqrt_or_none(x) is None
        root, big = sqrt_extend(x)
        assert big.m == 2
        assert root * root == big.lift(x)

    def test_lift_is_homomorphism(self):
        small = get_finite_field(3)
        big = get_finite_field(3, 2)
        for a in range(3):
            for b in range(3):
                x, y = small.from_int(a), small.from_int(b)
                assert big.lift(x * y) == big.lift(x) * big.lift(y)
                assert big.lift(x + y) == big.lift(x) + big.lift(y)

    @given(st.integers(0, 124), st.integers(0, 124))
    @settings(max_examples=60, deadline=None)
    def test_field_axioms_gf125(self, a, b):
        f = get_finite_field(5, 3)
        x, y = f.element(f.decode(a)), f.element(f.decode(b))
        assert x * y == y * x
        assert x * (y + 1) == x * y + x
        if not y.is_zero:
            assert y * y.inverse() == f.one

    def test_frobenius_identity(self):
        f = get_finite_field(5, 2)
        for n in range(25):
            x = f.element(f.decode(n))
            assert x ** 25 == x

    def test_modulus_is_canonical_gf4(self):
        f = get_finite_field(2, 2)
        # x^2 + x + 1 is the only irreducible quadratic over GF(2)
        assert f.modulus == (1, 1, 1)

    def test_pinned_moduli(self):
        assert len(PINNED_MODULI) == 35
        for (p, m), modulus in PINNED_MODULI.items():
            assert _canonical_modulus(p, m) == modulus, (p, m)
            assert get_finite_field(p, m).modulus == modulus

    @pytest.mark.parametrize("p,m", ORACLE_CASES)
    def test_modulus_is_least_irreducible_by_trial_division(self, p, m):
        least = next(f for f in monic_polys(p, m)
                     if irreducible_by_trial_division(f, p))
        assert _canonical_modulus(p, m) == least

    @pytest.mark.parametrize("p,m", ORACLE_CASES)
    def test_trial_division_counts_match_gauss(self, p, m):
        found = sum(irreducible_by_trial_division(f, p)
                    for f in monic_polys(p, m))
        assert found == gauss_count(p, m)

    @pytest.mark.parametrize("p,m", ORACLE_CASES)
    def test_ben_or_agrees_with_trial_division(self, p, m):
        for f in monic_polys(p, m):
            assert _is_irreducible(f, p) == \
                irreducible_by_trial_division(f, p), f


GF4, GF9, GF81, GF125 = (get_finite_field(2, 2), get_finite_field(3, 2),
                         get_finite_field(3, 4), get_finite_field(5, 3))
ALL_FIELDS = {"Q": RATIONALS, "Q2": Q2, "QM4": QM4,
              "GF5": get_finite_field(5), "GF4": GF4, "GF9": GF9, "GF125": GF125}


def elements(f):
    if f.is_finite:
        return st.integers(0, f.q - 1).map(lambda n: f.element(f.decode(n)))
    return st.lists(small, min_size=f.dim, max_size=f.dim).map(f.element)


class TestCoordinateArithmetic:
    """The field operators against references written here, on every
    field kind."""

    @pytest.mark.parametrize("f", [GF4, GF9, GF125], ids=repr)
    def test_product_is_schoolbook(self, f):
        xs = [f.element(f.decode(n)) for n in range(f.q)]
        for x in xs:
            for y in xs:
                assert x * y == gf_product(f, x, y)

    @pytest.mark.parametrize("name", sorted(ALL_FIELDS))
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_additive_identities(self, name, data):
        f = ALL_FIELDS[name]
        x, y = data.draw(elements(f)), data.draw(elements(f))
        assert (x + (-x)).is_zero
        assert (x - y) + y == x
        assert -(-x) == x

    def test_sqrt_extend_gf9_lands_in_gf81(self):
        nonsquares = [x for x in (GF9.element(GF9.decode(n))
                                  for n in range(1, 9))
                      if GF9.sqrt_or_none(x) is None]
        assert len(nonsquares) == 4
        for x in nonsquares:
            root, big = sqrt_extend(x)
            assert big == GF81
            assert root * root == GF81.lift(x)

    def test_lift_gf9_to_gf81_is_homomorphism(self):
        xs = [GF9.element(GF9.decode(n)) for n in range(9)]
        lifted = [GF81.lift(x) for x in xs]
        assert len(set(lifted)) == 9
        for x, lx in zip(xs, lifted):
            for y, ly in zip(xs, lifted):
                assert GF81.lift(x + y) == lx + ly
                assert GF81.lift(x * y) == lx * ly

    def test_embedding_image_is_least_root(self):
        def at(poly, z):
            acc = GF81.zero
            for c in reversed(poly):
                acc = acc * z + c
            return acc
        least = next(z for z in (GF81.element(GF81.decode(n))
                                 for n in range(81))
                     if at(GF9.modulus, z).is_zero)
        assert GF81.lift(GF9.element((0, 1))) == least


TOWERS = {"Q": RATIONALS, "Q2": Q2, "QM4": QM4}
SUBFIELDS = {"Q": [], "Q2": [RATIONALS], "QM4": [RATIONALS]}


def assert_contract(coords):
    """Tower coordinates: int or Fraction, never float, and an int
    whenever the value is integral."""
    for c in coords:
        assert type(c) in (int, Fraction), coords
        assert type(c) is int or c.denominator != 1, coords


class TestCoordinateContract:
    """Every tower operation keeps the coordinate contract of fields.py."""

    @pytest.mark.parametrize("name", sorted(TOWERS))
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_operation_keeps_contract(self, name, data):
        f = TOWERS[name]
        x, y = data.draw(elements(f)), data.draw(elements(f))
        n = data.draw(st.one_of(st.integers(-9, 9), small))
        for e in (x, y, f.from_int(n), f.zero, f.one):
            assert_contract(e.coords)
        a, b = x.coords, y.coords
        for coords in (f.add(a, b), f.neg(a), f.mul(a, b), (x - y).coords,
                       (x * y).coords, f.dot([a, b], [b, a]),
                       f.dot([a, f.neg(a)], [b, b]), f.dot([], [])):
            assert_contract(coords)
        if not x.is_zero:
            assert_contract(f.inv(a))
            assert_contract((y / x).coords)
            if f.depth and f.sqrt_or_none(x) is None:
                with pytest.raises(TowerDepthExceeded, match="depth 2"):
                    sqrt_extend(x)
            else:
                root, ext = sqrt_extend(x)
                assert_contract(root.coords)
                for radicand in ext.radicands:
                    assert_contract(radicand)
                assert_contract(ext.lift(x).coords)
        for z in (x, x * x):
            root = f.sqrt_or_none(z)
            if root is not None:
                assert_contract(root.coords)
        for sub in SUBFIELDS[name]:
            assert_contract(f.lift(data.draw(elements(sub))).coords)

    def test_integral_results_are_ints(self):
        half = RATIONALS.element((Fraction(1, 2),))
        two = RATIONALS.element((Fraction(4, 2),))
        assert type(two.coords[0]) is int
        assert type((half + half).coords[0]) is int
        assert type(half.inverse().coords[0]) is int
        assert type(RATIONALS.dot([half.coords] * 2, [two.coords] * 2)[0]) \
            is int
        r2 = Q2.element((0, Fraction(1, 2)))
        assert [type(c) for c in (r2 * r2).coords] == [Fraction, int]
        assert [type(c) for c in Q2.inv(Q2.from_int(-1).coords)] == [int, int]


class TestElementProtocol:
    def test_cross_field_mixing_rejected(self):
        a = get_finite_field(3).one
        b = get_finite_field(5).one
        with pytest.raises(Exception):
            _ = a + b
        # no implicit lift into an extension either: the lift is explicit
        gf9 = get_finite_field(3, 2)
        for x, big in ((a, gf9), (RATIONALS.one, Q2)):
            with pytest.raises(TypeError, match="incompatible fields"):
                _ = x + big.one
            with pytest.raises(TypeError, match="incompatible fields"):
                _ = big.one + x
            assert x != big.lift(x) and big.lift(x) == big.one

    def test_hash_consistency(self):
        f = get_finite_field(7)
        assert hash(f.from_int(9)) == hash(f.from_int(2))
        assert len({f.from_int(i) for i in range(14)}) == 7
        # equal elements of two separately built equal fields hash alike,
        # an int coordinate and its Fraction included
        twin_q2, twin_gf9 = RATIONALS.extend((Fraction(2),)), FiniteField(3, 2)
        gf9 = get_finite_field(3, 2)
        assert twin_q2 is not Q2 and twin_gf9 is not gf9
        for a, b in ((Q2.element((Fraction(1, 2), 3)),
                      twin_q2.element((Fraction(1, 2), Fraction(3)))),
                     (FieldElement(gf9, (1, 2)),
                      FieldElement(twin_gf9, (1, 2))),
                     (RATIONALS.from_int(2), TowerField().from_int(2))):
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_str_shows_coordinates(self):
        assert str(get_finite_field(3).from_int(4)) == "1"
        assert str(RATIONALS.from_int(Fraction(-1, 2))) == "-1/2"
        gf9 = get_finite_field(3, 2)
        assert str(FieldElement(gf9, (1, 2))) == "[1, 2]"
        assert str(Q2.element((Fraction(1, 2), Fraction(0)))) == "[1/2, 0]"

    @pytest.mark.parametrize("name", sorted(ALL_FIELDS))
    def test_zero_and_one_are_kept(self, name):
        # one element each per field, read back on every access
        f = ALL_FIELDS[name]
        assert f.zero is f.zero and f.one is f.one
        assert f.zero == f.from_int(0) and f.one == f.from_int(1)
        assert f.zero.is_zero and f.one * f.one == f.one
