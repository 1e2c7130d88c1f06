"""Shape sequences and their combinatorial invariants.

A shape is a weakly decreasing sequence of parts p_1 >= ... >= p_sigma >= 1
together with a marker kappa in {0, 1}.  Derived data: n = sum of parts,
nu = 2n + kappa.  When kappa = 1 there is a virtual extra level of value 1/2,
represented by the HALF_LEVEL marker, never as a stored rational.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple

#: Marker object for the virtual level 1/2 present when kappa = 1.
HALF_LEVEL = "half"

SYMPLECTIC = "symplectic-or-char2"
ORTHOGONAL = "orthogonal-odd"
MODES = (SYMPLECTIC, ORTHOGONAL)


class InvalidInput(ValueError):
    """A shape, mode, field or space outside the supported domain."""


class VerificationFailed(Exception):
    """A computed object failed one of its invariants."""


class BoundExceeded(Exception):
    """A computation would pass one of the package's resource bounds."""


@dataclass(frozen=True)
class ShapeSeq:
    parts: Tuple[int, ...]
    kappa: int = 0

    def __post_init__(self):
        if not self.parts:
            raise InvalidInput("at least one part required")
        if not all(isinstance(p, int) and p >= 1 for p in self.parts):
            raise InvalidInput(f"parts {self.parts} must be positive integers")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise InvalidInput(
                f"parts {self.parts} must be weakly decreasing")
        if self.kappa not in (0, 1):
            raise InvalidInput(f"kappa = {self.kappa} must be 0 or 1")

    @property
    def sigma(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def nu(self) -> int:
        return 2 * self.n + self.kappa

    def part(self, t: int) -> int:
        """1-based part access; t in [1, sigma]."""
        return self.parts[t - 1]

    def valid_for_mode(self, mode: str) -> bool:
        if mode == ORTHOGONAL and self.kappa == 0:
            return self.sigma % 2 == 0
        return True

    def block_indices(self):
        """The standard basis index set [(t, i)] in (t, i) lex order."""
        out = [(t, i) for t in range(1, self.sigma + 1)
               for i in range(2 * self.part(t))]
        if self.kappa:
            out.append((self.sigma + 1, 0))
        return out

    def to_json(self):
        return {"parts": list(self.parts), "kappa": self.kappa}

    @classmethod
    def parse(cls, text: str, kappa: int = 0) -> "ShapeSeq":
        return cls(tuple(int(x) for x in text.split(",")), kappa)


def psi(shape: ShapeSeq) -> Tuple[int, ...]:
    """The sign vector psi(1..sigma) in {-1, 0, 1}.

    psi(t) = 1 for odd t whose part is strictly below every earlier part;
    psi(t) = -1 for even t whose part is strictly above every later part;
    psi(t) = 0 otherwise.
    """
    parts = shape.parts
    sigma = shape.sigma
    out = []
    for t in range(1, sigma + 1):
        p = parts[t - 1]
        if t % 2 == 1 and all(p < parts[x - 1] for x in range(1, t)):
            out.append(1)
        elif t % 2 == 0 and all(parts[x - 1] < p for x in range(t + 1, sigma + 1)):
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)


def block_jordan_sizes(shape: ShapeSeq, mode: str) -> List[int]:
    """Jordan block sizes of g - 1, one per block in block order.

    Block t has size 2p_t (symplectic) or 2p_t + psi(t) (orthogonal); the
    kappa row adds a size-1 block, except in orthogonal mode with odd
    sigma, where the psi sizes already count it.
    """
    if mode not in MODES:
        raise InvalidInput(f"unknown mode {mode!r}")
    if not shape.valid_for_mode(mode):
        raise InvalidInput(f"shape {shape.parts} kappa={shape.kappa} "
                           f"is invalid for mode {mode}")
    if mode == SYMPLECTIC:
        sizes = [2 * p for p in shape.parts]
    else:
        sizes = [2 * p + s for p, s in zip(shape.parts, psi(shape))]
    if shape.kappa and (mode == SYMPLECTIC or shape.sigma % 2 == 0):
        sizes.append(1)
    return sizes


def jordan_prediction(shape: ShapeSeq, mode: str) -> Counter:
    """Predicted Jordan block multiset of g - 1 for the given mode."""
    result = Counter(block_jordan_sizes(shape, mode))
    assert sum(s * c for s, c in result.items()) == shape.nu
    return result


def jordan_from_ranks(ranks) -> Counter:
    """Jordan block sizes {size: count} of a nilpotent N from its ranks.

    ``ranks[k]`` is rank(N^k) for k = 0, 1, ... up to the first 0.  The
    number of blocks of size s is r_{s-1} - 2 r_s + r_{s+1}.
    """
    r = list(ranks) + [0]
    result: Counter = Counter()
    for s in range(1, len(ranks)):
        mult = r[s - 1] - 2 * r[s] + r[s + 1]
        if mult:
            result[s] = mult
    return result


def position_ok(w, shape: ShapeSeq) -> bool:
    """The four relative-position dimension conditions of the shape for
    two flags in relative position w, the permutation
    ``linalg.bruhat_pivots`` reads off B^-1 B': with 1-based flag indices,
    dim(V_i meet V'_j) = #{c < j : w(c) < i}.
    """
    nu = len(w)

    def dim(i, j):
        return sum(1 for c in range(j) if w[c] < i)

    p_lt = 0
    for r in range(1, shape.sigma + 1):
        p_r = shape.part(r)
        p_le = p_lt + p_r
        for i in range(1, p_r):
            d = p_lt + i
            if dim(d, d) != d - r or dim(d + 1, d) != d - r + 1:
                return False
        if dim(nu - p_lt - 1, p_le) != p_le - r or \
                dim(nu - p_lt, p_le) != p_le - r + 1:
            return False
        p_lt = p_le
    return True


@dataclass(frozen=True)
class PiWindow:
    a: int
    b: int
    level: object  # int, or HALF_LEVEL


def pi_window(shape: ShapeSeq, level) -> Optional[PiWindow]:
    """The window I_pi = [a, b] above the given level.

    ``level`` is an integer part value, or HALF_LEVEL (allowed iff kappa = 1).
    Returns None iff the level is the top one (p_1 = level).  b is the last
    index with part > level; a is the maximal odd index with psi(a) = 1 and
    part > level.
    """
    parts = shape.parts
    sigma = shape.sigma
    if level == HALF_LEVEL:
        if shape.kappa != 1:
            raise InvalidInput(f"the half level of {parts} needs kappa = 1")
        b = sigma
    else:
        if not isinstance(level, int) or level not in parts:
            raise InvalidInput(f"{level!r} is not a level of {parts}")
        if parts[0] == level:
            return None
        b = max(t for t in range(1, sigma + 1) if parts[t - 1] > level)
    ps = psi(shape)
    cands = [t for t in range(1, b + 1)
             if t % 2 == 1 and ps[t - 1] == 1 and parts[t - 1] > (0 if level == HALF_LEVEL else level)]
    assert cands, "window start must exist (psi(1) = 1 always qualifies)"
    a = max(cands)
    assert a <= b
    return PiWindow(a=a, b=b, level=level)


def binomial_nk(level: int, k: int) -> int:
    """n_k = (-1)^k C(2*level, k) for k in [0, 2*level]."""
    if not isinstance(level, int) or level < 1:
        raise InvalidInput(f"level {level!r} must be a positive integer")
    if not isinstance(k, int) or not 0 <= k <= 2 * level:
        raise InvalidInput(f"k = {k!r} is out of range for level {level}")
    return (-1) ** k * comb(2 * level, k)


# -- truncated exact power series -------------------------------------------

def _series_mul(a, b, degree):
    out = [Fraction(0)] * (degree + 1)
    for i, x in enumerate(a[:degree + 1]):
        if x:
            for j, y in enumerate(b[:degree + 1 - i]):
                out[i + j] += x * y
    return out


def _series_geometric_inverse_power(m: int, degree: int):
    """(1 - T)^(-m) truncated: coefficients C(m + k - 1, k)."""
    return [Fraction(comb(m + k - 1, k)) for k in range(degree + 1)]


def verify_series_identity(which: str, m: int, degree: int) -> bool:
    """Check one of the two binomial generating-series identities exactly.

    * ``negative-binomial`` (m >= 1):
      sum_k C(m+k-1, k) T^k  ==  (1-T)^(-m).
    * ``two-pole`` (m >= 2):
      sum_u m(m+1)...(m+u-2) (m+2u-1) / u!  T^u  ==  (1+T) (1-T)^(-m),
      with the u = 0 term equal to 1.

    Both sides are expanded as truncated exact-rational power series up to the
    given degree; the right-hand sides are expanded from scratch via the
    binomial theorem and series multiplication.  An unknown identity, an m
    below its range or a negative degree raises InvalidInput.
    """
    lowest = {"negative-binomial": 1, "two-pole": 2}
    if which not in lowest:
        raise InvalidInput(f"unknown identity {which!r}")
    if m < lowest[which]:
        raise InvalidInput(f"the {which} identity needs m >= "
                           f"{lowest[which]}, got {m}")
    if degree < 0:
        raise InvalidInput(f"degree {degree} must be nonnegative")
    if which == "negative-binomial":
        lhs = _series_geometric_inverse_power(m, degree)
        # independent expansion: multiply out (1-T)^m and invert the series
        poly = [Fraction((-1) ** k * comb(m, k)) for k in range(m + 1)]
        inv = [Fraction(0)] * (degree + 1)
        inv[0] = Fraction(1)
        for k in range(1, degree + 1):
            acc = Fraction(0)
            for j in range(1, min(k, m) + 1):
                acc += poly[j] * inv[k - j]
            inv[k] = -acc
        return lhs[:degree + 1] == inv
    # two-pole
    lhs = [Fraction(1)]
    for u in range(1, degree + 1):
        num = Fraction(1)
        for j in range(u - 1):
            num *= (m + j)
        num *= (m + 2 * u - 1)
        den = Fraction(1)
        for j in range(1, u + 1):
            den *= j
        lhs.append(num / den)
    one_plus_t = [Fraction(1), Fraction(1)] + [Fraction(0)] * max(0, degree - 1)
    rhs = _series_mul(one_plus_t, _series_geometric_inverse_power(m, degree), degree)
    return lhs[:degree + 1] == rhs
