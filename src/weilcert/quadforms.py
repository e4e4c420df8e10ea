"""Binary quadratic form arithmetic.

Class numbers h(D) of negative discriminants and the density limit, plus
Cornacchia's O(log p) solver for the norm equations x^2 + n*y^2 = p
(`represent_x2_ny2`) and u^2 + n*v^2 = 4p^d, d | h(-n), whose solution
`weil.solve_general_p1m` powers to 4p^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import DimensionParam, is_prime, sqrt_mod_prime
from .errors import ResourceLimitError

#: The largest |d| whose reduced forms are enumerated. The enumeration takes
#: about |d|/3 loop steps, 3.7 s at this bound on a 2-core Xeon.
DISC_BOUND = 10**8


@dataclass(frozen=True)
class QuadForm:
    """The form a*X^2 + b*X*Y + c*Y^2."""

    a: int
    b: int
    c: int

    @property
    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1


@dataclass(frozen=True)
class Representation:
    """A witness p = x^2 + n*y^2."""

    n: int
    p: int
    x: int
    y: int

    def __post_init__(self):
        if self.x * self.x + self.n * self.y * self.y != self.p:
            raise ValueError(f"{self.x}^2 + {self.n}*{self.y}^2 != {self.p}")
        if self.y < 1 or self.x < 0:
            raise ValueError("representation requires x >= 0 and y >= 1")


def _check_discriminant(d: int) -> None:
    if d >= 0:
        raise ValueError(f"discriminant must be negative, got {d}")
    if d % 4 not in (0, 1):
        raise ValueError(f"discriminant must be 0 or 1 mod 4, got {d}")


def reduced_forms(d: int) -> list[QuadForm]:
    """All reduced primitive positive definite forms of discriminant d < 0.

    One form per equivalence class: a runs up to sqrt(|d|/3) and b over
    (-a, a] with the matching parity, which hits each reduced form once.
    Raises ResourceLimitError for |d| > DISC_BOUND before the loop.
    """
    _check_discriminant(d)
    if -d > DISC_BOUND:
        raise ResourceLimitError(f"|discriminant| {-d} exceeds bound {DISC_BOUND}")
    forms = []
    for a in range(1, math.isqrt(abs(d) // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            f = QuadForm(a, b, c)
            if not f.is_primitive:
                continue
            forms.append(f)
    return forms


def class_number(d: int) -> int:
    """h(d): number of classes of primitive positive definite forms."""
    return len(reduced_forms(d))


def asymptotic_limit(g: DimensionParam, h: int | None = None) -> Fraction:
    """The exact limit of the density counting function: (1/(2h))*(1 - 1/g),
    h = h(-8g-4), enumerated here unless it is given."""
    h = class_number(-8 * g.g - 4) if h is None else h
    return Fraction(1, 2 * h) * (1 - Fraction(1, g.g))


def cornacchia(n: int, m: int, r: int, rhs: int) -> tuple[int, int] | None:
    """(x, y), y >= 1, with x^2 + n*y^2 = rhs, reached from the root r, or None.

    Euclid on (m, r) down to the first remainder x with x^2 < rhs finds the
    solution with x = r*y mod m whenever there is one (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.5.2/1.5.3).
    """
    a, x = m, r
    top = math.isqrt(rhs - 1)  # x^2 < rhs iff x <= top
    while x > top:
        a, x = x, a % x
    y2, rem = divmod(rhs - x * x, n)
    y = math.isqrt(y2)
    return (x, y) if rem == 0 and y * y == y2 else None


def represent_x2_ny2(p: int, n: int) -> Representation | None:
    """The p = x^2 + n*y^2 (x, y >= 1) of a prime p, if any; unique for n >= 2.

    p is tested for primality once, here: ValueError if it is not prime,
    ResourceLimitError if p >= psi_13, where `is_prime` decides nothing.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    r = None if p == 2 else sqrt_mod_prime(-n, p)  # None unless (-n|p) = 1
    xy = None if r is None else cornacchia(n, p, r, p)
    return None if xy is None else Representation(n=n, p=p, x=xy[0], y=xy[1])
