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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import kernels
from .arith import (
    hensel_sqrt,
    is_prime,
    multiplicative_order,
    padic_valuation,
    squarefree_kernel,
)
from .quadforms import Representation, cornacchia, represent_x2_ny2


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

    @property
    def aut_order(self) -> int:
        return 4 * self.g + 2


@dataclass(frozen=True)
class WeilQuadruple:
    """(g, p, a, s) = (g, p, 2x, 2y) from a (P1) witness p = x^2 + (2g+1)*y^2.

    Not validated when built: the pass and `represent_x2_ny2` hand over
    primes with x, y >= 1, and `run_certificate_checks` records
    a^2 - 4p = -(2g+1)*s^2 and gcd(a, p) = 1 as its own identity.
    """

    g: DimensionParam
    p: int
    a: int
    s: int


@dataclass(frozen=True)
class WeilPolynomial:
    """Monic quadratic t^2 + b*t + c over Z, with claimed base size q."""

    b: int
    c: int
    q: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.c


def check_p1(g: DimensionParam, p: int) -> Representation | None:
    """The (P1) witness p = x^2 + (2g+1)*y^2; there is none for p = 2g+1."""
    return represent_x2_ny2(p, g.n)


def check_p2(g: DimensionParam, p: int) -> bool:
    """(P2): p is not 1 mod 2g+1."""
    return p % g.n != 1


def _quadruple(g: DimensionParam, p: int, y: int) -> WeilQuadruple:
    return WeilQuadruple(g=g, p=p, a=2 * math.isqrt(p - g.n * y * y), s=2 * y)


def find_smallest(g: DimensionParam, p_max: int) -> WeilQuadruple | None:
    """Quadruple for the least prime p <= p_max passing (P1) and (P2); the
    pass stops at the first window that holds one."""
    for primes, y, member in kernels.classified_windows(p_max, g.n):
        if member.any():
            i = int(np.argmax(member))
            return _quadruple(g, int(primes[i]), int(y[i]))
    return None


def scan_quadruples(g: DimensionParam, p_max: int) -> Iterator[WeilQuadruple]:
    """All quadruples with p <= p_max, ascending p, one window at a time."""
    windows = kernels.classified_windows(p_max, g.n)
    return (
        _quadruple(g, p, yp)
        for primes, y, member in windows
        for p, yp in zip(primes[member].tolist(), y[member].tolist())
    )


def weil_polynomial(w: WeilQuadruple) -> WeilPolynomial:
    """t^2 + a*p^((g-1)/2)*t + p^g for the quadruple."""
    g = w.g.g
    return WeilPolynomial(b=w.a * w.p ** ((g - 1) // 2), c=w.p**g, q=w.p**g)


def verify_weil_number(poly: WeilPolynomial) -> bool:
    """Both roots have squared modulus q.

    For b^2 < 4c the roots are complex conjugates with |root|^2 = c; the
    boundary b^2 = 4c gives the real double root -b/2 with (b/2)^2 = c.
    """
    return poly.c == poly.q and poly.b * poly.b <= 4 * poly.c


def cm_field_discriminant(poly: WeilPolynomial) -> int:
    """Squarefree kernel of b^2 - 4c, identifying the imaginary quadratic
    field generated by a root."""
    disc = poly.discriminant
    if disc >= 0:
        raise ValueError(f"discriminant {disc} is not negative")
    return squarefree_kernel(disc)


def splitting_order(g: DimensionParam, p: int) -> int:
    """Multiplicative order of p mod 2g+1.

    Value g certifies that p has exactly two primes above it, each with
    residue degree g, in the cyclotomic field of the (4g+2)nd roots of
    unity.
    """
    if p % g.n == 0:
        raise ValueError(f"p = {p} is not coprime to 2g+1 = {g.n}")
    return multiplicative_order(p, g.n)


def local_invariants(w: WeilQuadruple) -> tuple[Fraction, Fraction]:
    """The two nonzero Brauer invariants, ascending: ((g-1)/2)/g, ((g+1)/2)/g.

    At each of the two places above p the invariant is val(root)/val(q);
    the root valuations pair to {(g-1)/2, (g+1)/2} because the roots
    multiply to p^g while their sum a*p^((g-1)/2) has valuation (g-1)/2
    exactly (gcd(a, p) = 1).
    """
    if w.a % w.p == 0:
        raise ValueError(f"p = {w.p} divides a = {w.a}")
    g = w.g.g
    return Fraction((g - 1) // 2, g), Fraction((g + 1) // 2, g)


def valuations_oracle(w: WeilQuadruple) -> tuple[int, int]:
    """Root valuations ((+t)-place first) computed by explicit p-adic lifting.

    Lifts t with t^2 = -(2g+1) mod p^(g+1), embeds the two roots
    p^((g-1)/2) * (-a +- s*t)/2 as residues mod p^(g+1), and reads off
    their valuations. Independent of the closed form in local_invariants.
    """
    g, p, n = w.g.g, w.p, w.g.n
    k = g + 1
    mod = p**k
    t = hensel_sqrt(-n, p, k)
    if t is None:
        raise ValueError(f"-(2g+1) = {-n} is not a square mod {p}")
    inv2 = pow(2, -1, mod)
    scale = pow(p, (g - 1) // 2, mod)
    vals = []
    for sign in (1, -1):
        root = scale * ((-w.a + sign * w.s * t) * inv2 % mod) % mod
        # valuations are at most (g+1)/2 < k, so the residue is nonzero
        vals.append(padic_valuation(root, p))
    return vals[0], vals[1]


def endomorphism_degree(invariants: tuple[Fraction, ...]) -> int:
    """Least common denominator of the local invariants.

    Invariants at every place away from p are 0 and contribute 1.
    """
    return math.lcm(*(inv.denominator for inv in invariants))


@dataclass(frozen=True)
class PlaceInvariant:
    """A Brauer local invariant tagged by its place above p.

    The place label records which canonical Hensel root image the place
    corresponds to: "+t" or "-t".
    """

    place: str
    value: Fraction


@dataclass(frozen=True)
class EndAlgebraCertificate:
    """All exact identities certified for one (g, p) pair."""

    cm_discriminant: int
    splitting_order: int
    invariants: tuple[PlaceInvariant, PlaceInvariant]  # ascending by value
    degree_d: int
    center_degree_e: int
    dimension: int
    aut_order: int


@dataclass
class CertificateRun:
    """Outcome of a certification attempt: per-identity results plus the
    assembled artifacts when everything passed."""

    g: DimensionParam
    p: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    quadruple: WeilQuadruple | None = None
    polynomial: WeilPolynomial | None = None
    oracle_valuations: tuple[int, int] | None = None
    certificate: EndAlgebraCertificate | None = None

    @property
    def passed(self) -> bool:
        return self.certificate is not None

    def failure(self) -> tuple[str, str] | None:
        for name, ok, detail in self.checks:
            if not ok:
                return name, detail
        return None


def run_certificate_checks(g: DimensionParam, p: int) -> CertificateRun:
    """Run every certificate identity for (g, p), stopping at the first
    failure (later identities depend on earlier artifacts).

    p is tested for primality here, once more by `represent_x2_ny2` and
    once more by `hensel_sqrt` in `valuations_oracle`; nothing else
    re-tests it. Three kinds of check only restate earlier work and cannot
    fail on their own: "quadruple-equation" restates the check
    `Representation` makes of p = x^2 + (2g+1)*y^2 (with a = 2x, s = 2y,
    and 0 < x < p for the odd prime p); "automorphism-order" compares
    `aut_order` with its own definition 4g+2; "dimension" and
    "invariant-sum-integral" follow from the identities before them. They
    stay as certificate columns, restating the paper's chain in full.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    run = CertificateRun(g=g, p=p)
    gg, n = g.g, g.n

    def check(name: str, ok: bool, detail: str) -> bool:
        run.checks.append((name, ok, detail))
        return ok

    if not check("p2-congruence", check_p2(g, p), f"p mod {n} = {p % n}"):
        return run
    rep = check_p1(g, p)
    if not check(
        "p1-representation",
        rep is not None,
        f"no p = x^2 + {n}*y^2 with p != {n}"
        if rep is None
        else f"p = {rep.x}^2 + {n}*{rep.y}^2",
    ):
        return run

    w = WeilQuadruple(g=g, p=p, a=2 * rep.x, s=2 * rep.y)
    run.quadruple = w
    if not check(
        "quadruple-equation",
        w.a**2 - 4 * p == -n * w.s**2 and math.gcd(w.a, p) == 1,
        f"{w.a}^2 - 4*{p} = -{n}*{w.s}^2, gcd({w.a}, {p}) = 1",
    ):
        return run

    poly = weil_polynomial(w)
    run.polynomial = poly
    if not check(
        "weil-modulus",
        verify_weil_number(poly) and poly.b * poly.b < 4 * poly.c,
        "b^2 < 4c and c = q = p^g",
    ):
        return run

    disc = cm_field_discriminant(poly)
    if not check("cm-discriminant", disc == -n, f"kernel(b^2 - 4c) = {disc}"):
        return run

    order = splitting_order(g, p)
    if not check("splitting-order", order == gg, f"ord(p mod {n}) = {order}"):
        return run

    invs = local_invariants(w)
    vals = valuations_oracle(w)
    run.oracle_valuations = vals
    formula_ok = (
        sorted(vals) == [(gg - 1) // 2, (gg + 1) // 2]
        and tuple(sorted(Fraction(v, gg) for v in vals)) == invs
    )
    if not check(
        "invariant-formula-vs-oracle",
        formula_ok,
        f"closed form {invs[0]}, {invs[1]} vs oracle valuations {vals}",
    ):
        return run
    if not check(
        "invariant-sum-integral",
        (invs[0] + invs[1]).denominator == 1,
        f"{invs[0]} + {invs[1]} = {invs[0] + invs[1]}",
    ):
        return run

    d = endomorphism_degree(invs)
    e = 2  # the center is imaginary quadratic
    if not check("degree-identity", d == gg and d * e == 2 * gg, f"d = {d}, e = {e}"):
        return run
    dimension = d * e // 2
    if not check("dimension", dimension == gg, f"d*e/2 = {dimension}"):
        return run
    aut = g.aut_order
    if not check("automorphism-order", aut == 4 * gg + 2, f"4g+2 = {aut}"):
        return run

    # place with the lower valuation gets the smaller invariant
    low_sign = "+t" if vals[0] < vals[1] else "-t"
    high_sign = "-t" if low_sign == "+t" else "+t"
    run.certificate = EndAlgebraCertificate(
        cm_discriminant=disc,
        splitting_order=order,
        invariants=(
            PlaceInvariant(low_sign, invs[0]),
            PlaceInvariant(high_sign, invs[1]),
        ),
        degree_d=d,
        center_degree_e=e,
        dimension=dimension,
        aut_order=aut,
    )
    return run


def solve_general_p1m(g: DimensionParam, p: int, m: int) -> tuple[int, int] | None:
    """The solution a, s >= 1 of a^2 - 4*p^(g-2m) = -(2g+1)*s^2, gcd(a, p) = 1.

    p is prime. (a + s*sqrt(-n))/2, n = 2g+1, has norm p^k, k = g-2m; with
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
    else:
        r = hensel_sqrt(-n, p, k)
        if r is None:  # -n is not a nonzero square mod p (also p = n)
            return None
        r += pk * (1 - r % 2)  # the odd one of r, r + p^k
    sol = cornacchia(n, 2 * pk, r, 4 * pk)  # 0 < r < 2p^k
    return sol if sol is not None and math.gcd(sol[0], p) == 1 else None
