"""Independent brute-force oracles.

Everything here is coded from first principles (trial division, exhaustive
scans, definition-direct enumeration) and deliberately avoids the package's
own code paths, so tests can compare the two sides.
"""

import math

import numpy as np


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def byte_sieve(limit: int) -> bytearray:
    """flags[n] = 1 iff n prime, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def primes_upto(limit: int) -> list[int]:
    flags = byte_sieve(limit)
    return [n for n in range(2, limit + 1) if flags[n]]


def full_scan_min_y(p: int, n: int) -> tuple[int, int] | None:
    """Smallest-y representation p = x^2 + n*y^2 by scanning ALL y with
    n*y^2 < p (no early exit)."""
    hits = []
    y = 1
    while n * y * y < p:
        x2 = p - n * y * y
        x = math.isqrt(x2)
        if x * x == x2:
            hits.append((x, y))
        y += 1
    return min(hits, key=lambda h: h[1]) if hits else None


def general_equation_walk(p: int, n: int, k: int) -> tuple[int, int] | None:
    """Smallest-s solution (a, s), a, s >= 1, of a^2 + n*s^2 = 4*p^k with
    gcd(a, p) = 1, by walking s = 1, 2, 3, ... while n*s^2 < 4*p^k."""
    rhs = 4 * p**k
    s = 1
    while n * s * s < rhs:
        a2 = rhs - n * s * s
        a = math.isqrt(a2)
        if a * a == a2 and math.gcd(a, p) == 1:
            return a, s
        s += 1
    return None


def is_reduced_form(a: int, b: int, c: int) -> bool:
    """Whether a*X^2 + b*X*Y + c*Y^2 is a Gauss-reduced positive definite
    form: b^2 - 4ac < 0 and a > 0, |b| <= a <= c, and b >= 0 when |b| = a
    or a = c."""
    if b * b - 4 * a * c >= 0 or a <= 0:
        return False
    if not abs(b) <= a <= c:
        return False
    return b >= 0 or (abs(b) != a and a != c)


def early_break_rep_exists(p: int, n: int) -> bool:
    """Whether p = x^2 + n*y^2 for some y >= 1 (early exit on first hit)."""
    y = 1
    while n * y * y < p:
        x2 = p - n * y * y
        x = math.isqrt(x2)
        if x * x == x2:
            return True
        y += 1
    return False


def naive_class_number(d: int) -> int:
    """Count primitive reduced forms straight from the definition:
    double loop over (a, b) with no enumeration shortcuts."""
    assert d < 0 and d % 4 in (0, 1)
    count = 0
    a = 1
    while a * a <= abs(d):  # wider than needed; reduction implies 3a^2 <= |d|
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b == -a:
                continue  # equivalent to the b = a form
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            count += 1
        a += 1
    return count


def euler_criterion(a: int, p: int) -> int:
    t = pow(a % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def brute_sqrt_roots(a: int, p: int) -> list[int]:
    return [t for t in range(p) if (t * t - a) % p == 0]


def classify_prime(p: int, g: int) -> str:
    """One of "pg" (representable, p != 1 mod 2g+1), "split" (representable,
    p = 1 mod 2g+1), or "out"; straight from the defining conditions."""
    n = 2 * g + 1
    if p == n or not early_break_rep_exists(p, n):
        return "out"
    return "split" if p % n == 1 else "pg"


def weil_quadruple(p: int, g: int) -> tuple[int, int] | None:
    """(a, s) = (2x, 2y) from the smallest-y p = x^2 + (2g+1)*y^2 when p
    passes (P1) and (P2), else None."""
    if classify_prime(p, g) != "pg":
        return None
    x, y = full_scan_min_y(p, 2 * g + 1)
    return 2 * x, 2 * y


def density_counts(
    g: int, primes: list[int], checkpoints: list[int]
) -> dict[int, tuple[int, int, int]]:
    """(count_pg, count_split, pi) at each checkpoint, by per-prime scan."""
    out = {}
    cps = sorted(checkpoints)
    ci = 0
    npg = nsplit = 0
    for i, p in enumerate(primes):
        while ci < len(cps) and p > cps[ci]:
            out[cps[ci]] = (npg, nsplit, i)
            ci += 1
        kind = classify_prime(p, g)
        if kind == "pg":
            npg += 1
        elif kind == "split":
            nsplit += 1
    while ci < len(cps):
        out[cps[ci]] = (npg, nsplit, len(primes))
        ci += 1
    return out


def form_values(a: int, b: int, c: int, lo: int, hi: int) -> np.ndarray:
    """marks[v - lo] for lo <= v < hi: whether v = a*X^2 + b*X*Y + c*Y^2 for
    some integers X, Y, for a positive definite form (a > 0, b^2 < 4ac).

    A window sieve over the lattice, one row of X per Y >= 0 (the form is
    even under (X, Y) -> (-X, -Y)): f(X, Y) <= t exactly when
    (2aX + bY)^2 <= 4at - (4ac - b^2)Y^2, so the X with lo <= f(X, Y) < hi
    are the integers of one interval less an inner one.
    """
    delta = 4 * a * c - b * b
    assert a > 0 and delta > 0
    marks = np.zeros(hi - lo, dtype=bool)

    def x_bounds(t: int, y: int) -> tuple[int, int]:
        """The least and the largest X with f(X, y) <= t (empty if first > last)."""
        r = 4 * a * t - delta * y * y
        if r < 0:
            return 0, -1
        s = math.isqrt(r)
        return -((s + b * y) // (2 * a)), (s - b * y) // (2 * a)

    y = 0
    while delta * y * y <= 4 * a * (hi - 1):
        first, last = x_bounds(hi - 1, y)
        in_first, in_last = x_bounds(lo - 1, y)
        if in_first > in_last:
            xs = np.arange(first, last + 1)
        else:
            xs = np.concatenate([np.arange(first, in_first), np.arange(in_last + 1, last + 1)])
        marks[a * xs * xs + b * y * xs + (c * y * y - lo)] = True
        y += 1
    return marks


def brute_force_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 (mod n), by repeated multiplication; a is
    coprime to n."""
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def trial_division_kernel(d: int) -> int:
    """The squarefree d0 with d = d0 * m^2, sign kept, for d != 0: trial
    division, keeping each prime of odd exponent."""
    kernel = -1 if d < 0 else 1
    d = abs(d)
    f = 2
    while f * f <= d:
        e = 0
        while d % f == 0:
            d //= f
            e += 1
        if e % 2:
            kernel *= f
        f += 1
    return kernel * d  # the cofactor is 1 or a prime


def lifted_root_valuations(g: int, p: int, a: int, s: int) -> tuple[int, int]:
    """Valuations of the roots p^((g-1)/2) * (-a +- s*t)/2 ((+t) first),
    read off their residues mod p^(g+1), where t^2 = -(2g+1) is lifted one
    power of p at a time from the root min(t, p-t) of t = a/s mod p."""
    n, k = 2 * g + 1, g + 1
    t = a * pow(s, -1, p) % p
    t = min(t, p - t)
    u = pow(2 * t, -1, p)
    for j in range(2, k + 1):  # t^2 = -n mod p^(j-1): one step fixes t mod p^j
        t = (t - (t * t + n) * u) % p**j
    mod = p**k
    vals = []
    for sign in (1, -1):
        root = p ** ((g - 1) // 2) * ((-a + sign * s * t) * pow(2, -1, mod)) % mod
        assert root != 0
        v = 0
        while root % p == 0:
            root //= p
            v += 1
        vals.append(v)
    return vals[0], vals[1]
