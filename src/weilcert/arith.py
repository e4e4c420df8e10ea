"""Exact integer arithmetic primitives shared by the whole toolkit.

Primality of single integers below psi_13 ~ 3.3e24, the validated Sophie
Germain dimension g (`DimensionParam`), perfect squares, p-adic valuations,
square roots modulo an odd prime and their Hensel lifts, and the bound on
every search limit, `SIEVE_BUDGET` (the prime sieve lives in `kernels`).
Nothing here factors an integer. The square root does not test its prime:
`quadforms.represent_x2_ny2` and `weil.solve_general_p1m` test p once, at
their entry. Every operation here is exact and certain: no floating point
or random draw enters any arithmetic path. Rationals are
`fractions.Fraction`, and numbers of unbounded size Decimals built exactly
by `weil`, throughout the package.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import ResourceLimitError

#: The largest limit a pass accepts. It bounds the time of a pass (about
#: 2.7 s at n = 23 on a 2-core Xeon); the memory does not grow with the limit.
SIEVE_BUDGET = 10**9

# A014233: psi_k is the smallest odd composite that passes Miller-Rabin to
# each of the first k prime bases, so those k bases decide every n < psi_k
# (Jaeschke 1993; Sorenson and Webster 2017 for k = 12, 13). is_prime uses
# the fewest bases that n allows: 2 and 3 below 1373653, all 13 primes up
# to 41 below psi_13 ~ 3.3e24, and refuses n >= psi_13.
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _mr_composite_witness(n: int, a: int, d: int, r: int) -> bool:
    """True if base `a` witnesses that odd n = 2^r * d + 1 is composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Whether n is prime, decided with certainty by Miller-Rabin on the
    fewest prime bases that decide n.

    Raises ResourceLimitError for n >= psi_13 ~ 3.3e24, before any work:
    no fixed set of bases is known to decide n there, and a certificate
    rests on no probable prime.
    """
    if n >= _MR_PSI[-1]:  # named by its bits: a --p may have up to 4300 digits
        raise ResourceLimitError(
            f"n of {n.bit_length()} bits reaches the primality bound psi_13 = {_MR_PSI[-1]}"
        )
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = bisect.bisect_right(_MR_PSI, n)  # psi_1 .. psi_k are <= n
    return not any(_mr_composite_witness(n, a, d, r) for a in _SMALL_PRIMES[: k + 1])


def check_sieve_limit(limit: int) -> None:
    """Raise unless 2 <= limit <= SIEVE_BUDGET."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_BUDGET:
        raise ResourceLimitError(f"sieve limit {limit} exceeds budget {SIEVE_BUDGET}")


def is_sophie_germain(g: int) -> bool:
    """True iff g and 2g+1 are both prime."""
    return is_prime(g) and is_prime(2 * g + 1)


@dataclass(frozen=True)
class DimensionParam:
    """A validated Sophie Germain dimension g >= 3."""

    g: int

    def __post_init__(self):
        if self.g < 3:
            raise ValueError(f"dimension must be >= 3, got {self.g}")
        if not is_sophie_germain(self.g):
            raise ValueError(f"{self.g} is not a Sophie Germain prime")

    @property
    def n(self) -> int:
        """The companion prime 2g+1."""
        return 2 * self.g + 1


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, canonicalized to
    min(t, p-t), or None when a is not a nonzero square mod p.

    The Euler criterion, then Tonelli-Shanks. p is not tested for
    primality here: its callers test it once, at their entry.
    """
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:  # the Euler criterion
        return None
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def hensel_lift(a: int, p: int, k: int, t: int) -> int:
    """The root of a mod p^k congruent to the root t of a mod p, for an
    odd p not dividing t; p need not be prime.

    Newton iteration t -> (t + a/t)/2 doubles the precision each step, so
    the lifts of one t to precisions k and k+1 agree mod p^k.
    """
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        t = (t + a * pow(t, -1, mod)) * pow(2, -1, mod) % mod
    return t % p**k


def padic_valuation(n: int, p: int) -> int:
    """Exponent of p in n; raises for n = 0 (valuation infinite)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
