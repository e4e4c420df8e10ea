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
oracle), degree g, dimension g, and automorphism order 4g+2.

Quadruples and certificates are plain integers: `scan_quadruples` and
`find_smallest` hand over (p, a, s) int tuples at n = 2g+1, and
`run_certificate_checks` returns (checks, Certificate), a NamedTuple whose
fields are certify's columns, in order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from .arith import (
    hensel_lift,
    is_prime,
    multiplicative_order,
    padic_valuation,
    sqrt_mod_prime,
    squarefree_kernel,
)
from .quadforms import cornacchia, represent_x2_ny2


def is_sophie_germain(g: int) -> bool:
    """True iff g and 2g+1 are both prime."""
    return is_prime(g) and is_prime(2 * g + 1)


def sophie_germain_list(max_g: int) -> list[int]:
    """All Sophie Germain primes <= max_g, ascending, one window at a time.

    The windows of g and of q = 2g+1 both start at 0 and have one width,
    so the q of g-window k lie in q-windows 2k and 2k+1.
    """
    if max_g < 2:
        return []
    q_windows = kernels.prime_windows(2 * max_g + 1)
    found = []
    for _, _, gs in kernels.prime_windows(max_g):
        qs = np.concatenate([primes for _, _, primes in itertools.islice(q_windows, 2)])
        found += gs[np.isin(2 * gs + 1, qs)].tolist()
    return found


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


class Certificate(NamedTuple):
    """A passed certificate for (g, p): certify's columns, in order."""

    g: int
    p: int
    a: int
    s: int
    q: int
    weil_b: int
    weil_c: int
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


def scan_quadruples(n: int, p_max: int) -> Iterator[tuple[int, int, int]]:
    """(p, a, s) = (p, 2x, 2y) for every prime p <= p_max passing (P1) and
    (P2) at n = 2g+1, ascending p, one window at a time."""
    return _quadruples(kernels.classified_windows(p_max, n), n)


def _quadruples(windows, n: int) -> Iterator[tuple[int, int, int]]:
    for primes, y, member in windows:
        rows = zip(primes[member].tolist(), y[member].tolist())
        del primes, y, member  # before the next window is sieved
        for p, yp in rows:
            yield p, 2 * math.isqrt(p - n * yp * yp), 2 * yp


def find_smallest(n: int, p_max: int) -> tuple[int, int, int] | None:
    """The first row of scan_quadruples(n, p_max), or None; the pass stops
    at the first window that holds one."""
    return next(scan_quadruples(n, p_max), None)


def weil_polynomial(g: int, p: int, a: int) -> tuple[int, int]:
    """(b, c) of t^2 + b*t + c = t^2 + a*p^((g-1)/2)*t + p^g."""
    return a * p ** ((g - 1) // 2), p**g


def cm_field_discriminant(b: int, c: int) -> int:
    """Squarefree kernel of b^2 - 4c, identifying the imaginary quadratic
    field generated by a root of t^2 + b*t + c."""
    disc = b * b - 4 * c
    if disc >= 0:
        raise ValueError(f"discriminant {disc} is not negative")
    return squarefree_kernel(disc)


def splitting_order(g: int, p: int) -> int:
    """Multiplicative order of p mod 2g+1.

    Value g certifies that p has exactly two primes above it, each with
    residue degree g, in the cyclotomic field of the (4g+2)nd roots of
    unity.
    """
    n = 2 * g + 1
    if p % n == 0:
        raise ValueError(f"p = {p} is not coprime to 2g+1 = {n}")
    return multiplicative_order(p, n)


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

    Lifts t with t^2 = -(2g+1) mod p^(g+1), embeds the two roots
    p^((g-1)/2) * (-a +- s*t)/2 as residues mod p^(g+1), and reads off
    their valuations. Independent of the closed form in local_invariants.

    t starts from the root a/s of -(2g+1) mod p that the quadruple's
    a^2 + (2g+1)*s^2 = 4p gives, taken as min(t, p-t) like
    `arith.sqrt_mod_prime`; so no square root is searched for and p is not
    tested for primality here.
    """
    n, k = 2 * g + 1, g + 1
    mod = p**k
    t = a * pow(s, -1, p) % p
    t = min(t, p - t)
    if (t * t + n) % p:
        raise ValueError(f"-(2g+1) = {-n} is not a square mod {p} of a/s = {t}")
    t = hensel_lift(-n, p, k, t)
    inv2 = pow(2, -1, mod)
    scale = pow(p, (g - 1) // 2, mod)
    vals = []
    for sign in (1, -1):
        root = scale * ((-a + sign * s * t) * inv2 % mod) % mod
        # valuations are at most (g+1)/2 < k, so the residue is nonzero
        vals.append(padic_valuation(root, p))
    return vals[0], vals[1]


def endomorphism_degree(invariants: tuple[Fraction, ...]) -> int:
    """Least common denominator of the local invariants.

    Invariants at every place away from p are 0 and contribute 1.
    """
    return math.lcm(*(inv.denominator for inv in invariants))


def run_certificate_checks(
    g: int, p: int
) -> tuple[list[tuple[str, bool, str]], Certificate | None]:
    """(checks, certificate) for a Sophie Germain prime g and a prime p.

    checks lists (identity, ok, detail) for every identity run, in order,
    stopping at the first failure (later identities depend on earlier
    ones); certificate is None unless every identity passed.

    p is tested for primality once, by `represent_x2_ny2` before the
    first identity, and raises ValueError if it is not prime; nothing
    after it re-tests p. Three kinds of check only restate earlier work and cannot
    fail on their own: "quadruple-equation" restates the check
    `Representation` makes of p = x^2 + (2g+1)*y^2 (with a = 2x, s = 2y,
    and 0 < x < p for the odd prime p); "automorphism-order" compares the
    order 2(2g+1) of the roots of unity with its own definition 4g+2;
    "dimension" and "invariant-sum-integral" follow from the identities
    before them. They stay as certificate columns, restating the paper's
    chain in full.
    """
    n = 2 * g + 1
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
    if not check("weil-modulus", b * b < 4 * c, "b^2 < 4c and c = q = p^g"):
        return checks, None

    disc = cm_field_discriminant(b, c)
    if not check("cm-discriminant", disc == -n, f"kernel(b^2 - 4c) = {disc}"):
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


def solve_general_p1m(g: DimensionParam, p: int, m: int) -> tuple[int, int] | None:
    """The solution a, s >= 1 of a^2 - 4*p^(g-2m) = -(2g+1)*s^2, gcd(a, p) = 1.

    p is 2 or an odd prime, tested for primality once, here (ValueError
    otherwise). (a + s*sqrt(-n))/2, n = 2g+1, has norm p^k, k = g-2m; with
    units +-1, (a, s) is unique and a = r*s mod 2p^k, r an odd root of -n
    mod 4p^k. None when there is no solution.
    """
    if not 1 <= m <= (g.g - 1) // 2:
        raise ValueError(f"m must lie in [1, {(g.g - 1) // 2}], got {m}")
    n, k = g.n, g.g - 2 * m
    pk = p**k
    if p == 2:  # needs -n = 1 mod 8; lift r^2 = -n mod 2^j one bit at a time
        if n % 8 != 7:
            return None
        r = 1
        for j in range(3, k + 2):
            if (r * r + n) % 2 ** (j + 1):
                r += 2 ** (j - 1)
    elif p < 3 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    else:
        r = sqrt_mod_prime(-n, p)
        if r is None:  # -n is not a nonzero square mod p (also p = n)
            return None
        r = hensel_lift(-n, p, k, r)
        r += pk * (1 - r % 2)  # the odd one of r, r + p^k
    sol = cornacchia(n, 2 * pk, r, 4 * pk)  # 0 < r < 2p^k
    return sol if sol is not None and math.gcd(sol[0], p) == 1 else None
