"""Weil quadruples and endomorphism-algebra certificates.

For a Sophie Germain prime g (g and 2g+1 both prime), a prime p with

    (P1)  p = x^2 + (2g+1)*y^2, p != 2g+1
    (P2)  p != 1 (mod 2g+1)

yields the quadruple (g, p, a, s) = (g, p, 2x, 2y) solving
a^2 - 4p = -(2g+1)*s^2, and from it the quadratic t^2 + a*p^((g-1)/2)*t + p^g
whose roots have modulus p^(g/2). `run_certificate_checks` checks the full
chain of exact identities that pin down the associated division algebra:
CM discriminant -(2g+1), splitting order g, Brauer local invariants
((g-1)/2)/g and ((g+1)/2)/g (closed form against an independent p-adic
oracle), degree g, dimension g, and automorphism order 4g+2. No identity
factors an integer: with g and 2g+1 prime, the CM discriminant is one exact
division and a square test on a^2 - 4p, the splitting order is the first
of four candidates, and the oracle reads the root valuations mod p^2.

`scan_quadruples` hands over (p, a, s) at n = 2g+1 as int64 chunks from the
windowed pass; only it imports numpy and `kernels`. `find_smallest` finds its
first row as ints from the form values in ascending order, and
`sophie_germain_list` tests g and 2g+1 with `is_sophie_germain`, so `find` and
`table2` sieve nothing. The Certificate of `run_certificate_checks` holds certify's
columns, in order; q, b and the (a, s) of `solve_general_p1m` are Decimals built
exactly, held to `DIGIT_BUDGET`.
"""

from __future__ import annotations

import heapq
import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .arith import (
    DimensionParam,
    check_sieve_limit,
    hensel_lift,
    is_perfect_square,
    is_prime,
    is_sophie_germain,
    padic_valuation,
    sqrt_mod_prime,
)
from .errors import ResourceLimitError
from .quadforms import class_number, cornacchia, represent_x2_ny2

if TYPE_CHECKING:
    import numpy as np


def sophie_germain_list(max_g: int) -> list[int]:
    """All Sophie Germain primes <= max_g, ascending, with 2g+1 held to
    SIEVE_BUDGET. Past 5, 3 divides 2g+1 when g = 1 (mod 3) and 5 divides it
    when g = 2 (mod 5), so a prime g > 5 is 11, 23 or 29 (mod 30)."""
    if max_g < 2:
        return []
    check_sieve_limit(2 * max_g + 1)
    wheel = (g + r for g in range(0, max_g + 1, 30) for r in (11, 23, 29))
    found = [g for g in wheel if g <= max_g and is_sophie_germain(g)]
    return [g for g in (2, 3, 5) if g <= max_g] + found


class Certificate(NamedTuple):
    """A passed certificate for (g, p): certify's columns, in order."""

    g: int
    p: int
    a: int
    s: int
    q: Decimal
    weil_b: Decimal
    weil_c: Decimal
    cm_discriminant: int
    splitting_order: int
    inv_low_place: str
    inv_low_num: int
    inv_low_den: int
    inv_high_place: str
    inv_high_num: int
    inv_high_den: int
    oracle_val_plus: int
    oracle_val_minus: int
    degree_d: int
    center_degree_e: int
    dimension: int
    aut_order: int


def scan_quadruples(n: int, p_max: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(p, a, s) = (p, 2x, 2y) for every prime p <= p_max passing (P1) and
    (P2) at n = 2g+1, ascending p, as int64 columns of at most
    `report.CHUNK_ROWS` rows, one window at a time."""
    from . import kernels

    return _quadruples(kernels.classified_windows(p_max, n), n)


def _quadruples(windows, n: int) -> Iterator[tuple[np.ndarray, ...]]:
    import numpy as np

    from . import kernels, report

    for first, y_of in windows:
        y_of[kernels.split_slots(first, n)] = 0  # the members are left
        slots = np.flatnonzero(y_of)
        ys = y_of[slots]
        del y_of  # before the rows are built
        for at in range(0, len(slots), report.CHUNK_ROWS):
            # new arrays, so no view keeps slots; y in int64, as n*y^2 wraps in uint16
            y = ys[at : at + report.CHUNK_ROWS].astype(np.int64)
            p = 2 * slots[at : at + report.CHUNK_ROWS] + first
            yield p, 2 * kernels._isqrt(p - n * y * y), 2 * y
        del slots, ys  # before the next window is sieved


def find_smallest(n: int, p_max: int) -> tuple[int, int, int] | None:
    """The first row of scan_quadruples(n, p_max) as ints, or None, for n >= 2.

    The values x^2 + n*y^2 (x, y >= 1) come in ascending order from a heap
    with one entry (value, x, y) per row y; row y + 1 joins when row y's
    x = 1 entry is popped, as none of its values is smaller. The first value
    that is odd, != 1 (mod n) and prime is p, with its one representation.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    check_sieve_limit(p_max)
    heap = [(1 + n, 1, 1)]
    while heap[0][0] <= p_max:
        p, x, y = heap[0]
        if x == 1:
            heapq.heappush(heap, (1 + n * (y + 1) ** 2, 1, y + 1))
        heapq.heapreplace(heap, (p + 2 * x + 1, x + 1, y))
        if p % 2 and p % n != 1 and is_prime(p):
            return p, 2 * x, 2 * y
    return None


#: The most digits of p^g (certify) or p^k (find --m): certify --g 500333 --p
#: 72250000850001003167 (9.94e6 digits) takes 0.7 s and 89 MB on a 2-core Xeon.
DIGIT_BUDGET = 10**7


def _exact(p: int, e: int):
    """A local context that cannot round (the largest precision and Emax, and
    Inexact traps); ResourceLimitError instead if p^e may pass DIGIT_BUDGET."""
    # p^e <= 2^(e*L), L = (p - 1).bit_length(), has at most e*L*log10(2) + 1 digits
    if (digits := e * (p - 1).bit_length() * 302 // 1000 + 1) > DIGIT_BUDGET:
        raise ResourceLimitError(f"{p}^{e} may have {digits} digits, past {DIGIT_BUDGET}")
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    ctx.traps[Inexact] = True
    return localcontext(ctx)


def weil_polynomial(g: int, p: int, a: int) -> tuple[Decimal, Decimal]:
    """(b, c) of t^2 + b*t + c = t^2 + a*p^((g-1)/2)*t + p^g, as Decimals."""
    with _exact(p, g):
        half = Decimal(p) ** ((g - 1) // 2)
        return a * half, half * half * p


def cm_field_discriminant(b: int, c: int, n: int) -> int | None:
    """-n if the squarefree kernel of b^2 - 4c is -n, so that a root of
    t^2 + b*t + c generates Q(sqrt(-n)); None otherwise.

    For the prime n = 2g+1 that kernel is -n exactly when 4c - b^2 = n*m^2
    for an integer m: one exact division and a square test, no factoring.
    """
    disc = b * b - 4 * c
    if disc >= 0:
        raise ValueError(f"discriminant {disc} is not negative")
    m2, r = divmod(-disc, n)
    return -n if r == 0 and is_perfect_square(m2) else None


def splitting_order(g: int, p: int) -> int:
    """Multiplicative order of p mod 2g+1, for a Sophie Germain prime g.

    Value g certifies that p has exactly two primes above it, each with
    residue degree g, in the cyclotomic field of the (4g+2)nd roots of
    unity. The order divides 2g, whose divisors are 1, 2, g and 2g for
    prime g, so it is the first of them with p^d = 1 (mod 2g+1).
    """
    n = 2 * g + 1
    if p % n == 0:
        raise ValueError(f"p = {p} is not coprime to 2g+1 = {n}")
    return next(d for d in (1, 2, g, 2 * g) if pow(p, d, n) == 1)


def local_invariants(g: int, p: int, a: int) -> tuple[Fraction, Fraction]:
    """The two nonzero Brauer invariants, ascending: ((g-1)/2)/g, ((g+1)/2)/g.

    At each of the two places above p the invariant is val(root)/val(q);
    the root valuations pair to {(g-1)/2, (g+1)/2} because the roots
    multiply to p^g while their sum a*p^((g-1)/2) has valuation (g-1)/2
    exactly (gcd(a, p) = 1).
    """
    if a % p == 0:
        raise ValueError(f"p = {p} divides a = {a}")
    return Fraction((g - 1) // 2, g), Fraction((g + 1) // 2, g)


def valuations_oracle(g: int, p: int, a: int, s: int) -> tuple[int, int]:
    """Root valuations ((+t)-place first) computed by explicit p-adic lifting.

    The roots are p^((g-1)/2) * (-a +- s*t)/2 with t^2 = -(2g+1) in Z_p.
    The two factors (-a +- s*t)/2 multiply to (a^2 + (2g+1)*s^2)/4 = p, so
    each has valuation 0 or 1, and t lifted to p^2 reads them off their
    residues mod p^2. A residue 0 mod p^2 (valuation >= 2, impossible when
    the quadruple equation holds) raises ValueError. Independent of the
    closed form in local_invariants.

    t starts from the root a/s of -(2g+1) mod p that the quadruple's
    a^2 + (2g+1)*s^2 = 4p gives, taken as min(t, p-t) like
    `arith.sqrt_mod_prime`; so no square root is searched for and p is not
    tested for primality here.
    """
    n, mod = 2 * g + 1, p * p
    t = a * pow(s, -1, p) % p
    t = min(t, p - t)
    if (t * t + n) % p:
        raise ValueError(f"-(2g+1) = {-n} is not a square mod {p} of a/s = {t}")
    t = hensel_lift(-n, p, 2, t)
    inv2 = pow(2, -1, mod)
    plus, minus = ((-a + sign * s * t) * inv2 % mod for sign in (1, -1))
    base = (g - 1) // 2
    return base + padic_valuation(plus, p), base + padic_valuation(minus, p)


def endomorphism_degree(invariants: tuple[Fraction, ...]) -> int:
    """Least common denominator of the local invariants.

    Invariants at every place away from p are 0 and contribute 1.
    """
    return math.lcm(*(inv.denominator for inv in invariants))


def run_certificate_checks(
    dim: DimensionParam, p: int
) -> tuple[list[tuple[str, bool, str]], Certificate | None]:
    """(checks, certificate) for a Sophie Germain dimension g and a prime p.

    g comes validated as a DimensionParam, because the cm-discriminant and
    splitting-order tests hold only for prime g and 2g+1; no other g
    reaches the chain.

    checks lists (identity, ok, detail) for every identity run, in order,
    stopping at the first failure (later identities depend on earlier
    ones); certificate is None unless every identity passed.

    p is tested for primality once, by `represent_x2_ny2` before the
    first identity, and raises ValueError if it is not prime; nothing
    after it re-tests p. Three kinds of check only restate earlier work and cannot
    fail on their own: "quadruple-equation" restates the check
    `Representation` makes of p = x^2 + (2g+1)*y^2 (with a = 2x, s = 2y,
    and 0 < x < p for the odd prime p); "automorphism-order" compares the
    order 2(2g+1) of the roots of unity with its own definition 4g+2; and
    "weil-modulus", "dimension" and "invariant-sum-integral" follow from the
    identities before them. They stay as certificate columns, restating the
    paper's chain in full.
    """
    g, n = dim.g, dim.n
    rep = represent_x2_ny2(p, n)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> bool:
        checks.append((name, ok, detail))
        return ok

    if not check("p2-congruence", p % n != 1, f"p mod {n} = {p % n}"):
        return checks, None
    if not check(
        "p1-representation",
        rep is not None,
        f"no p = x^2 + {n}*y^2 with p != {n}"
        if rep is None
        else f"p = {rep.x}^2 + {n}*{rep.y}^2",
    ):
        return checks, None

    a, s = 2 * rep.x, 2 * rep.y
    if not check(
        "quadruple-equation",
        a**2 - 4 * p == -n * s**2 and math.gcd(a, p) == 1,
        f"{a}^2 - 4*{p} = -{n}*{s}^2, gcd({a}, {p}) = 1",
    ):
        return checks, None

    b, c = weil_polynomial(g, p, a)
    # b^2 - 4c = p^(g-1) * (a^2 - 4p), and p^(g-1) is an even power: both
    # have one sign and one squarefree kernel, read from the small factor
    if not check("weil-modulus", a * a < 4 * p, "b^2 < 4c and c = q = p^g"):
        return checks, None
    disc = cm_field_discriminant(a, p, n)
    relation = "=" if disc == -n else "!="
    if not check("cm-discriminant", disc == -n, f"kernel(b^2 - 4c) {relation} {-n}"):
        return checks, None

    order = splitting_order(g, p)
    if not check("splitting-order", order == g, f"ord(p mod {n}) = {order}"):
        return checks, None

    invs = local_invariants(g, p, a)
    vals = valuations_oracle(g, p, a, s)
    formula_ok = (
        sorted(vals) == [(g - 1) // 2, (g + 1) // 2]
        and tuple(sorted(Fraction(v, g) for v in vals)) == invs
    )
    if not check(
        "invariant-formula-vs-oracle",
        formula_ok,
        f"closed form {invs[0]}, {invs[1]} vs oracle valuations {vals}",
    ):
        return checks, None
    if not check(
        "invariant-sum-integral",
        (invs[0] + invs[1]).denominator == 1,
        f"{invs[0]} + {invs[1]} = {invs[0] + invs[1]}",
    ):
        return checks, None

    d = endomorphism_degree(invs)
    e = 2  # the center is imaginary quadratic
    if not check("degree-identity", d == g and d * e == 2 * g, f"d = {d}, e = {e}"):
        return checks, None
    dimension = d * e // 2
    if not check("dimension", dimension == g, f"d*e/2 = {dimension}"):
        return checks, None
    aut = 2 * n
    if not check("automorphism-order", aut == 4 * g + 2, f"4g+2 = {aut}"):
        return checks, None

    # place with the lower valuation gets the smaller invariant
    low, high = ("+t", "-t") if vals[0] < vals[1] else ("-t", "+t")
    cert = Certificate(
        g, p, a, s, c, b, c, disc, order,
        low, invs[0].numerator, invs[0].denominator,
        high, invs[1].numerator, invs[1].denominator,
        vals[0], vals[1], d, e, dimension, aut,
    )
    return checks, cert


def solve_general_p1m(g: DimensionParam, p: int, m: int) -> tuple[Decimal, Decimal] | None:
    """The solution a, s >= 1 of a^2 - 4*p^(g-2m) = -(2g+1)*s^2, gcd(a, p) = 1, as
    Decimals, or None; p is 2 or an odd prime, tested once, here (ValueError
    otherwise), and p^k, k = g-2m, is held to DIGIT_BUDGET. With units +-1,
    (a + s*sqrt(-n))/2, n = 2g+1, is +-alpha^(k/d) or its conjugate for alpha
    of norm p^d generating P^d, P above p and d the order of its class: the
    least d | gcd(k, h(-n)) with an alpha (Cohen, A Course in Computational
    Algebraic Number Theory, 1.5)."""
    if not 1 <= m <= (g.g - 1) // 2:
        raise ValueError(f"m must lie in [1, {(g.g - 1) // 2}], got {m}")
    n, k = g.n, g.g - 2 * m
    if p != 2 and (p < 3 or not is_prime(p)):
        raise ValueError(f"modulus {p} is not an odd prime")
    with _exact(p, k):  # before anything of the size of p^k is built
        common = math.gcd(k, class_number(-n))
        for d in range(1, common + 1):
            if common % d == 0 and (alpha := _norm_element(n, p, d)) is not None:
                return _power(*alpha, k // d, n)
    return None


def _norm_element(n: int, p: int, d: int) -> tuple[int, int] | None:
    """The u, v >= 1 with u^2 + n*v^2 = 4p^d and gcd(u, p) = 1, or None, for p 2
    or an odd prime: u = r*v mod 2p^d, r an odd root of -n mod 4p^d (Cornacchia)."""
    if p == 2:  # needs -n = 1 mod 8; lift r^2 = -n mod 2^j one bit at a time
        if n % 8 != 7:
            return None
        r = 1
        for j in range(3, d + 2):
            if (r * r + n) % 2 ** (j + 1):
                r += 2 ** (j - 1)
    else:
        r = sqrt_mod_prime(-n, p)
        if r is None:  # -n is not a nonzero square mod p (also p = n)
            return None
        r = hensel_lift(-n, p, d, r)
    pd = p**d
    r += pd * (1 - r % 2)  # the odd one of r, r + p^d; r is odd for p = 2
    sol = cornacchia(n, 2 * pd, r, 4 * pd)  # 0 < r < 2p^d
    return sol if sol is not None and math.gcd(sol[0], p) == 1 else None


def _power(u: int, v: int, e: int, n: int) -> tuple[Decimal, Decimal]:
    """(|a|, |s|) of alpha^e = (a + s*sqrt(-n))/2, alpha = (u + v*sqrt(-n))/2, by
    squaring in the caller's exact context; as a = s and u = v mod 2, halves are exact."""
    a, s = Decimal(u), Decimal(v)
    for bit in bin(e)[3:]:
        a, s = (a * a - n * s * s) / 2, a * s
        if bit == "1":
            a, s = (a * u - n * s * v) / 2, (a * v + s * u) / 2
    return a.copy_abs(), s.copy_abs()
