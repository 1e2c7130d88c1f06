"""Exact scalar arithmetic: Q or one quadratic extension Q(sqrt r), and
finite fields.

Two kinds of field are supported, behind one element interface:

* ``TowerField`` -- Q, or Q(sqrt r) for one rational non-square r, extended
  automatically when a square root is needed.  Elements are rational
  coordinate tuples: (a,) over Q and (a1, a2), standing for a1 + a2 sqrt(r),
  over Q(sqrt r).  The coordinate contract: an integral coordinate is an
  ``int``, any other a ``Fraction``, never a ``float``.  Every ``TowerField``
  operation returns coordinates in that form (given operands in it), so
  most scalar work runs on ints.  An int and a ``Fraction`` of one value
  compare equal, hash alike and print alike, so no output depends on the
  form.
* ``FiniteField`` -- GF(p**m) with a fixed canonical modulus: the
  lexicographically least monic irreducible polynomial of degree m over GF(p)
  (coefficient tuples compared most-significant first).  Elements are tuples of
  m integers in [0, p), little-endian polynomial coordinates.  Irreducibility
  is Ben-Or's test, run deterministically: a monic f of degree m is
  irreducible iff gcd(x^(p^i) - x, f) = 1 for every 1 <= i <= m/2.

Each field class owns the arithmetic on its coordinate tuples: ``add``,
``neg``, ``mul``, ``inv`` and ``dot``, with a fast path for a one-coordinate
field (Q, GF(p)).  ``dot(xs, ys)`` is sum x_i y_i, with the products summed
before one normalisation: integer numerators over one common denominator
over Q, one such sum for each of the two parts over Q(sqrt r), one ``% p``
over GF(p), and over GF(p^m) the unreduced polynomial products, reduced once
mod p and the modulus.  ``FieldElement``'s operators, ``linalg``'s kernels
and ``gram``'s recursion call them.

``sqrt_extend`` returns a deterministic square root, extending the field by one
radicand (over Q) or doubling the extension degree (finite case) when the
argument is not a square.  Characteristic 2 uses the Frobenius inverse and never
extends.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from typing import Optional, Sequence, Union

from .shapes import BoundExceeded, InvalidInput

Scalar = Union[int, Fraction]

#: Finite fields larger than this are refused by the brute-force search steps.
FINITE_SCAN_CAP = 10**6


class TowerDepthExceeded(BoundExceeded):
    pass


class FiniteScanCapExceeded(BoundExceeded):
    pass


# ---------------------------------------------------------------------------
# Q and Q(sqrt r)
# ---------------------------------------------------------------------------

def _qn(x):
    """The rational ``x`` in the coordinate contract: an int when
    integral, else the Fraction itself."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


def _qcoords(cs) -> tuple:
    """Rationals (int, Fraction or what ``Fraction`` reads) as tower
    coordinates in the contract."""
    return tuple([c if type(c) is int else _qn(Fraction(c)) for c in cs])


def _qdot(xs, ys) -> Scalar:
    """sum x[0] y[0] over one-coordinate rational tuples: int products
    summed directly, the rest as integer numerators over one common
    denominator; an int when the sum is integral, else one Fraction."""
    whole, num, den = 0, 0, 1
    for (x,), (y,) in zip(xs, ys):
        if type(x) is int and type(y) is int:
            whole += x * y
            continue
        n = x.numerator * y.numerator
        if not n:
            continue
        d = x.denominator * y.denominator
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
    if den == 1:
        return whole + num
    return _qn(Fraction(num + whole * den, den))


class TowerField:
    """Q, or one quadratic extension Q(sqrt r) of it.

    ``radicands`` is () for Q and ``((r,),)`` for Q(sqrt r), with r a
    rational that is not a square (r = 0 or a square raises InvalidInput);
    an element of Q(sqrt r) is the pair (a1, a2) of rationals standing for
    a1 + a2 sqrt(r).

    One level suffices for every table this package builds: among the
    orthogonal tables over Q of part sum <= 13 and the corner-square scan
    to k = 30, every extended field is Q(sqrt(-4^j)) = Q(i), in which each
    later radicand -s^2 is already a square.  That is an observation on
    those cases, not a theorem of the paper, so a second extension raises
    TowerDepthExceeded rather than being assumed away.
    """

    def __init__(self, radicands: tuple = ()):
        if len(radicands) > 1:
            raise TowerDepthExceeded(
                f"tower depth bound 1 exceeded: extension to depth "
                f"{len(radicands)}")
        for (r,) in radicands:
            # Q[x]/(x^2 - r) has zero divisors when r = 0 or r = s^2
            if _qsqrt(r) is not None:
                raise InvalidInput(f"radicand {r} is a rational square: "
                                   f"adjoining its root gives no field")
        self.radicands = radicands
        self.depth = len(radicands)
        self.dim = 1 << self.depth

    char = 0
    is_finite = False

    def __eq__(self, other):
        return isinstance(other, TowerField) and self.radicands == other.radicands

    def __hash__(self):
        return hash(("tower", self.radicands))

    def __repr__(self):
        # each radicand as its coordinates over the tower below it
        return "TowerField(radicands=[%s])" % ", ".join(
            "(%s)" % ", ".join(map(str, r)) for r in self.radicands)

    def extends(self, other: "TowerField") -> bool:
        return (isinstance(other, TowerField)
                and self.radicands[:other.depth] == other.radicands)

    def element(self, coords: Sequence[Scalar]) -> "FieldElement":
        coords = _qcoords(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        return FieldElement(self, coords)

    def from_int(self, n: Scalar) -> "FieldElement":
        return self.element((n,) + (0,) * (self.dim - 1))

    @cached_property
    def zero(self):
        return self.from_int(0)

    @cached_property
    def one(self):
        return self.from_int(1)

    def lift(self, elem: "FieldElement") -> "FieldElement":
        _check_lift(self, elem.field)
        pad = (0,) * (self.dim - len(elem.coords))
        return FieldElement(self, tuple(elem.coords) + pad)

    def extend(self, radicand_coords: tuple) -> "TowerField":
        """This field with the square root of the element with coordinates
        ``radicand_coords`` adjoined."""
        return TowerField(
            self.radicands + (self.element(radicand_coords).coords,))

    # -- coordinate arithmetic ----------------------------------------------

    def add(self, a, b) -> tuple:
        if not self.depth:
            return (_qn(a[0] + b[0]),)
        return (_qn(a[0] + b[0]), _qn(a[1] + b[1]))

    def neg(self, a) -> tuple:
        return tuple(-x for x in a)

    def mul(self, a, b) -> tuple:
        if not self.depth:
            return (_qn(a[0] * b[0]),)
        return self.dot((a,), (b,))

    def inv(self, a) -> tuple:
        """1/a; over Q(sqrt r), (a1 - a2 sqrt r) / (a1^2 - a2^2 r)."""
        if not self.depth or not a[1]:
            return (_qinv(a[0]),) + a[1:]
        a1, a2 = a
        n = _qinv(a1 * a1 - self.radicands[0][0] * a2 * a2)
        return (_qn(a1 * n), _qn(-a2 * n))

    def dot(self, xs, ys) -> tuple:
        """sum x_i y_i over coordinate tuples, each part normalised once.

        Over Q(sqrt r), with x = x1 + x2 sqrt(r) and y = y1 + y2 sqrt(r),
        the rational part is the dot of the x1 y1 terms and one more, (sum
        x2 y2) times r; the sqrt part is the dot of the x1 y2 and x2 y1
        terms.  Zero sqrt halves drop their terms.  A product a b is the
        one-term dot ((a,), (b,))."""
        if not self.depth:
            return (_qdot(xs, ys),)
        lo_x, lo_y, sq_x, sq_y, hi_x, hi_y = [], [], [], [], [], []
        for (a1, a2), (b1, b2) in zip(xs, ys):
            lo_x.append((a1,))
            lo_y.append((b1,))
            if b2:
                hi_x.append((a1,))
                hi_y.append((b2,))
            if a2:
                hi_x.append((a2,))
                hi_y.append((b1,))
                if b2:
                    sq_x.append((a2,))
                    sq_y.append((b2,))
        if sq_x:
            lo_x.append((_qdot(sq_x, sq_y),))
            lo_y.append(self.radicands[0])
        return (_qdot(lo_x, lo_y), _qdot(hi_x, hi_y))

    def sqrt_or_none(self, elem: "FieldElement") -> Optional["FieldElement"]:
        """A square root of ``elem``, or None.  Every rational root taken
        is >= 0, so the root's first nonzero coordinate is > 0."""
        if not self.depth:
            c = _qsqrt(elem.coords[0])
            return None if c is None else FieldElement(self, (c,))
        a1, a2 = elem.coords
        r = self.radicands[0][0]
        if not a2:
            # a1 = c^2, or a1 = d^2 r with root d sqrt(r)
            c = _qsqrt(a1)
            if c is not None:
                return FieldElement(self, (c, 0))
            d = _qsqrt(a1 / Fraction(r))
            return None if d is None else FieldElement(self, (0, d))
        # (c + d sqrt(r))^2 = a1 + a2 sqrt(r) with d = a2 / 2c: c^2 is a
        # root u of u^2 - a1 u + a2^2 r / 4, so a1^2 - a2^2 r must be a
        # rational square s^2 and u = (a1 +- s) / 2, never 0 as r != 0
        s = _qsqrt(a1 * a1 - a2 * a2 * r)
        if s is None:
            return None
        for u in (Fraction(a1 + s, 2), Fraction(a1 - s, 2)):
            c = _qsqrt(u)
            if c is not None:
                return FieldElement(self, (c, _qn(a2 / Fraction(2 * c))))
        return None

    def to_json(self):
        return {
            "kind": "rational-tower",
            "radicands": [[str(c) for c in r] for r in self.radicands],
        }


def _qinv(x) -> Scalar:
    """1/x for a nonzero rational x, in the coordinate contract."""
    if x == 0:
        raise ZeroDivisionError("inverse of zero")
    return _qn(1 / Fraction(x))


def _qsqrt(x) -> Optional[Scalar]:
    """The root >= 0 of the rational x when x is a rational square, else
    None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return _qn(Fraction(rn, rd))
    return None


RATIONALS = TowerField(())


def _check_lift(field, sub):
    """Raise TypeError unless ``field`` extends ``sub``."""
    if not field.extends(sub):
        raise TypeError(f"cannot lift an element of {sub!r} into {field!r}: "
                        f"it does not extend it")


# ---------------------------------------------------------------------------
# Finite fields GF(p**m)
# ---------------------------------------------------------------------------

def _polydot(xs, ys, modulus, p) -> tuple:
    """sum x_i y_i over polynomial coordinates: the unreduced products
    summed, then reduced once mod p and the (monic, degree m) modulus.
    A product a b is the one-term sum ((a,), (b,))."""
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for a, b in zip(xs, ys):
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(m):
                prod[i - m + j] -= c * modulus[j]
    return tuple(c % p for c in prod[:m])


def _powmod(a, e: int, modulus, p) -> tuple:
    """a^e reduced mod (modulus, p), by square-and-multiply."""
    result = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _polydot((result,), (a,), modulus, p)
        a = _polydot((a,), (a,), modulus, p)
        e >>= 1
    return result


def _trim(a) -> list:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _gcd(a, b, p) -> list:
    """A gcd of little-endian polynomials over GF(p), by Euclid."""
    a, b = _trim(a), _trim(b)
    while b:
        inv, db = pow(b[-1], p - 2, p), len(b) - 1
        for i in range(len(a) - 1 - db, -1, -1):
            c = a[i + db] * inv % p
            if c:
                for j, y in enumerate(b):
                    a[i + j] = (a[i + j] - c * y) % p
        a, b = b, _trim(a[:db])
    return a


def _is_irreducible(f, p) -> bool:
    """Ben-Or's test for the monic ``f`` (little-endian); every f of
    degree 1 passes."""
    m = len(f) - 1
    h = x = (0, 1) + (0,) * (m - 2)
    for _ in range(m // 2):
        h = _powmod(h, p, f, p)  # x^(p^i) mod f
        if len(_gcd(f, [(c - e) % p for c, e in zip(h, x)], p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, m: int) -> tuple:
    """Little-endian coefficients of the canonical degree-m modulus over GF(p)."""
    for enc in range(p ** m):
        digits = []
        n = enc
        for _ in range(m):
            digits.append(n % p)
            n //= p
        f = tuple(digits) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


#: psi_13: Miller-Rabin to the bases 2..41 decides primality below it
#: (Sorenson and Webster, Math. Comp. 86, 2017).
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the bases 2..41, exact for
    n < PRIMALITY_BOUND; a larger n raises BoundExceeded."""
    if n >= PRIMALITY_BOUND:
        raise BoundExceeded(f"primality of {n} is decided only below "
                            f"psi_13 = {PRIMALITY_BOUND}")
    if n < 3 or n % 2 == 0:
        return n == 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in range(2, 42):
        x = pow(a, d, n)
        if a % n and x != 1 and all(pow(x, 1 << r, n) != n - 1
                                    for r in range(s)):
            return False
    return True


@lru_cache(maxsize=None)
def get_finite_field(p: int, m: int = 1) -> "FiniteField":
    if not is_prime(p):
        raise InvalidInput(f"characteristic {p} is not prime")
    if m < 1:
        raise InvalidInput(f"extension degree {m} must be at least 1")
    return FiniteField(p, m)


class FiniteField:
    """GF(p**m) with the canonical modulus. Use :func:`get_finite_field`."""

    is_finite = True

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p ** m
        self.char = p
        self.modulus = _canonical_modulus(p, m)
        self._embed_images: dict = {}

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash(("finite", self.p, self.m))

    def extends(self, other) -> bool:
        return (isinstance(other, FiniteField) and other.p == self.p
                and self.m % other.m == 0)

    def element(self, coords) -> "FieldElement":
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.m:
            raise ValueError("coordinate length mismatch")
        return FieldElement(self, coords)

    def from_int(self, n: Scalar) -> "FieldElement":
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by characteristic")
            return self.from_int(n.numerator) / self.from_int(n.denominator)
        return self.element((n % self.p,) + (0,) * (self.m - 1))

    @cached_property
    def zero(self):
        return self.element((0,) * self.m)

    @cached_property
    def one(self):
        return self.from_int(1)

    def encode(self, coords) -> int:
        """Canonical integer encoding of little-endian coordinates."""
        n = 0
        for c in reversed(coords):
            n = n * self.p + c
        return n

    def decode(self, n: int) -> tuple:
        digits = []
        for _ in range(self.m):
            digits.append(n % self.p)
            n //= self.p
        return tuple(digits)

    # -- coordinate arithmetic ----------------------------------------------

    def add(self, a, b) -> tuple:
        p = self.p
        if self.m == 1:
            return ((a[0] + b[0]) % p,)
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a) -> tuple:
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b) -> tuple:
        """Product of polynomial coordinates, reduced mod (modulus, p)."""
        if self.m == 1:
            return (a[0] * b[0] % self.p,)
        return _polydot((a,), (b,), self.modulus, self.p)

    def inv(self, a) -> tuple:
        """a^(q-2) (Lagrange) for nonzero ``a``, by square-and-multiply."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return (pow(a[0], self.p - 2, self.p),)
        return _powmod(a, self.q - 2, self.modulus, self.p)

    def dot(self, xs, ys) -> tuple:
        """sum x_i y_i over coordinate tuples, reduced once."""
        if self.m == 1:
            return (sum(a[0] * b[0] for a, b in zip(xs, ys)) % self.p,)
        return _polydot(xs, ys, self.modulus, self.p)

    def _horner(self, poly, x) -> tuple:
        """The GF(p) polynomial ``poly`` (little-endian) evaluated at x."""
        acc = self.zero.coords
        for c in reversed(poly):
            acc = self.mul(acc, x)
            acc = ((acc[0] + c) % self.p,) + acc[1:]
        return acc

    def _embedding_image(self, sub: "FiniteField") -> tuple:
        """Image of ``sub``'s generator under the canonical embedding."""
        key = (sub.p, sub.m)
        if key in self._embed_images:
            return self._embed_images[key]
        if self.q > FINITE_SCAN_CAP:
            raise FiniteScanCapExceeded(
                f"embedding search in {self!r}: q = {self.q} exceeds the "
                f"scan cap FINITE_SCAN_CAP = {FINITE_SCAN_CAP}")
        for enc in range(self.q):
            cand = self.decode(enc)
            if not any(self._horner(sub.modulus, cand)):
                self._embed_images[key] = cand
                return cand
        raise AssertionError("no embedding root found")

    def lift(self, elem: "FieldElement") -> "FieldElement":
        sub = elem.field
        _check_lift(self, sub)
        if sub.m == self.m:
            return FieldElement(self, elem.coords)
        if sub.m == 1:
            return self.from_int(elem.coords[0])
        return FieldElement(
            self, self._horner(elem.coords, self._embedding_image(sub)))

    def sqrt_or_none(self, elem: "FieldElement") -> Optional["FieldElement"]:
        if elem.is_zero:
            return elem
        if self.p == 2:
            # Frobenius inverse: squaring is bijective, the root is a^(q/2).
            return elem ** (2 ** (self.m - 1)) if self.m > 1 else elem
        one = self.one
        if elem ** ((self.q - 1) // 2) != one:
            return None
        # Tonelli-Shanks with q - 1 = 2^s t, t odd; for q = 3 mod 4 (s = 1)
        # the loop never runs and the root is elem^((q+1)/4).
        s, t = 0, self.q - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        root, b = elem ** ((t + 1) // 2), elem ** t
        if b != one:
            c = self._least_nonresidue() ** t
            while b != one:
                i, b2 = 0, b
                while b2 != one:
                    i, b2 = i + 1, b2 * b2
                    # in a field b has order 2^i with i < s
                    if i == s:
                        raise ArithmeticError(
                            f"Tonelli-Shanks found no order below 2^{s} in "
                            f"{self!r}: its modulus {self.modulus} is not "
                            f"irreducible")
                g = c ** (1 << (s - i - 1))
                root, c = root * g, g * g
                b, s = b * c, i
        other = -root
        if self.encode(other.coords) < self.encode(root.coords):
            root = other
        return root

    def _least_nonresidue(self) -> "FieldElement":
        """The non-square of least encoding (q odd); for even m every
        constant of GF(p) is a square, so the scan starts at encoding p."""
        half = (self.q - 1) // 2
        start = self.p if self.m % 2 == 0 else 2
        return next(z for z in (FieldElement(self, self.decode(enc))
                                for enc in range(start, self.q))
                    if z ** half != self.one)

    def to_json(self):
        return {
            "kind": "finite",
            "p": self.p,
            "m": self.m,
            "modulus": list(self.modulus),
        }


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable scalar in a TowerField or FiniteField."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    # -- coercion -----------------------------------------------------------

    def _pair(self, other):
        """(self, other) over one field: an int or Fraction is coerced in;
        an element of any other field, an extension included, raises."""
        if not isinstance(other, FieldElement):
            if isinstance(other, (int, Fraction)):
                return self, self.field.from_int(other)
            return NotImplemented
        if other.field is self.field or self.field == other.field:
            return self, other
        raise TypeError(f"incompatible fields {self.field!r} and {other.field!r}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.add(a.coords, b.coords))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.coords))

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.mul(a.coords, b.coords))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.field, self.field.inv(self.coords))

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        try:
            pair = self._pair(other)
        except TypeError:
            return False
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return a.coords == b.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"FieldElement({self.field!r}, {list(self.coords)})"

    def __str__(self):
        """The coordinate in a one-coordinate field (GF(p), Q), else the
        coordinate list, e.g. ``1``, ``-1/2`` or ``[1, 2]``."""
        if len(self.coords) == 1:
            return str(self.coords[0])
        return f"[{', '.join(map(str, self.coords))}]"

    def to_json(self):
        return [str(c) for c in self.coords]


# ---------------------------------------------------------------------------
# sqrt_extend
# ---------------------------------------------------------------------------

def sqrt_extend(x: FieldElement):
    """Deterministic square root of ``x``; extends the field when needed.

    Returns ``(root, field)`` where ``root * root == x`` holds in ``field``.
    ``field`` is ``x.field`` when x is a square there, otherwise a one-step
    extension (one radicand adjoined, or GF(p^{2m})).
    """
    f = x.field
    root = f.sqrt_or_none(x)
    if root is not None:
        return root, f
    if f.is_finite:
        ext = get_finite_field(f.p, 2 * f.m)
        lifted = ext.lift(x)
        root = ext.sqrt_or_none(lifted)
        assert root is not None, "quadratic extension must contain the root"
        return root, ext
    ext = f.extend(x.coords)
    coords = (0,) * f.dim + (1,) + (0,) * (f.dim - 1)
    return FieldElement(ext, coords), ext
