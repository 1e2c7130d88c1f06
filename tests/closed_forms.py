"""Closed-form oracle values of the pairing tables, as exact rationals:
the references the recursion is tested against."""

from fractions import Fraction
from math import comb


def closed_form_value(case: str, level: int, s: int) -> Fraction:
    """Closed-form oracle values, as exact rationals.

    * ``prop16``: the same-index magnitude C(s + level - 1, s - level) for an
      index distance s >= level (the caller supplies the sign sg(j - i)).
    * ``sec25``: 2 (2pi+1)(2pi+2)...(2pi+s-1) (pi+s) / s! for s >= 1.
    * ``sec26``: 2 C(2pi+s, s) for s >= 0.
    """
    assert level >= 1
    if case == "prop16":
        assert s >= level
        return Fraction(comb(s + level - 1, s - level))
    if case == "sec25":
        if s < 1:
            raise ValueError("sec25 closed form is defined for s >= 1 only")
        num = Fraction(2)
        for j in range(1, s):
            num *= (2 * level + j)
        num *= (level + s)
        for j in range(1, s + 1):
            num /= j
        return num
    if case == "sec26":
        assert s >= 0
        return Fraction(2 * comb(2 * level + s, s))
    raise ValueError(f"unknown case {case!r}")
