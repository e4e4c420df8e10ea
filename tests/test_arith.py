import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilcert import arith, kernels
from weilcert.arith import hensel_lift, is_perfect_square, is_prime, sqrt_mod_prime
from weilcert.errors import ResourceLimitError
from conftest import prime_windows, sieved_primes
from oracles import (
    brute_sqrt_roots,
    euler_criterion,
    primes_upto,
    trial_division_is_prime,
)

ODD_PRIMES = [p for p in range(3, 500) if trial_division_is_prime(p)]

# OEIS A014233: psi_k, the smallest odd composite that is a strong
# pseudoprime to each of the first k prime bases.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
# The largest prime below each psi_k.
PRIME_BELOW_PSI = (
    2039, 1373639, 25325981, 3215031749, 2152302898729, 3474749660329,
    341550071728289, 341550071728289, 3825123056546412979,
    3825123056546412979, 3825123056546412979, 318665857834031151167441,
    3317044064679887385961813,
)


class TestIsPrime:
    def test_small_examples(self):
        assert is_prime(23)
        assert not is_prime(1)
        assert is_prime(1997)

    def test_matches_trial_division_to_1e5(self):
        for n in range(10**5 + 1):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_matches_sieve_to_2e6(self):
        # every base tier up to psi_2 = 1373653 and the first steps of the third
        limit = 2 * 10**6
        assert [n for n in range(limit + 1) if is_prime(n)] == primes_upto(limit)

    def test_rejects_each_psi(self):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every
        # prime base up to 37, so 41 must be a base from psi_12 on
        assert 399165290221 * 798330580441 == PSI[11]
        for k, psi in enumerate(PSI, 1):
            assert not is_prime(psi), (k, psi)

    def test_accepts_prime_below_each_psi(self):
        for k, (p, psi) in enumerate(zip(PRIME_BELOW_PSI, PSI), 1):
            assert p < psi and is_prime(p), (k, p)

    def test_large_path(self):
        m89 = 2**89 - 1  # Mersenne prime, above the deterministic bound
        assert is_prime(m89)
        assert not is_prime(m89 * m89)
        assert not is_prime(m89 * (2**61 - 1))


class TestSieve:
    """The prime sieve of the pass, `conftest.prime_windows`, joined."""

    def test_counts(self, sieve_1e6):
        assert len(sieve_1e6) == 78498  # = 3 * 26166
        # pi(x) is a binary search over the ascending array
        for x, pi in ((100, 25), (10**4, 1229), (10**5, 9592)):
            assert np.searchsorted(sieve_1e6, x, side="right") == pi, x

    def test_limit_2(self):
        s = sieved_primes(2)
        assert s.tolist() == [2]
        assert s.dtype == np.int64

    def test_membership_matches_trial_division(self):
        s = set(sieved_primes(10**4).tolist())
        for n in range(10**4 + 1):
            assert (n in s) == trial_division_is_prime(n), n

    def test_iteration_ascending(self):
        got = sieved_primes(100).tolist()
        assert got == [n for n in range(101) if trial_division_is_prime(n)]

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "SIEVE_BUDGET", 10**6)
        with pytest.raises(ResourceLimitError):
            prime_windows(10**7)
        with pytest.raises(ValueError):
            prime_windows(1)

    def test_count_beyond_limit(self):
        # the windows stop exactly at the limit, so a count past it must
        # sieve further: pi(101) is not readable from the windows to 100
        assert sieved_primes(100)[-1] == 97
        assert sieved_primes(101)[-1] == 101
        assert len(sieved_primes(100)) + 1 == len(sieved_primes(101))


class TestIntegerSqrt:
    """Integer square roots: the package takes floor roots from math.isqrt
    and decides squares with is_perfect_square."""

    def test_examples(self):
        assert math.isqrt(36) == 6 and is_perfect_square(36)
        assert math.isqrt(0) == 0 and is_perfect_square(0)
        assert math.isqrt(78) == 8 and not is_perfect_square(78)

    def test_negative(self):
        with pytest.raises(ValueError):
            math.isqrt(-1)
        assert not is_perfect_square(-4)

    @given(st.integers(min_value=0, max_value=10**40))
    def test_floor_property(self, n):
        r = math.isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)
        assert is_perfect_square(n * n)
        # n^2 < n^2 + k < (n+1)^2 for n >= 1 and k in {1, n, 2n}
        assert n == 0 or not any(is_perfect_square(n * n + k) for k in (1, n, 2 * n))


def lifted_root(a, p, k):
    """The root of a mod p^k that hensel_lift makes of sqrt_mod_prime's
    canonical root mod p, or None where there is none."""
    t = sqrt_mod_prime(a, p)
    return None if t is None else hensel_lift(a, p, k, t)


class TestHenselSqrt:
    def test_base_root_mod_47(self):
        # brute force: t^2 = -11 mod 47 has roots {6, 41}; 6 is canonical
        assert brute_sqrt_roots(-11, 47) == [6, 41]
        assert sqrt_mod_prime(-11, 47) == 6
        assert lifted_root(-11, 47, 1) == 6

    def test_trivial_root(self):
        assert lifted_root(1, 97, 5) == 1

    def test_lift_consistency(self):
        for k in range(1, 12):
            t_k = lifted_root(-11, 47, k)
            t_k1 = lifted_root(-11, 47, k + 1)
            assert t_k1 % 47**k == t_k

    def test_rejects_non_residue(self):
        # None, as sqrt_mod_prime gives, so there is nothing to lift
        assert euler_criterion(5, 47) == -1
        assert lifted_root(5, 47, 3) is None
        assert lifted_root(47, 47, 2) is None  # divisible by p: symbol 0

    @settings(max_examples=150)
    @given(
        st.sampled_from(ODD_PRIMES),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=30),
    )
    def test_root_property(self, p, x, k):
        a = x * x % p
        if a == 0:
            a = 1
        t = lifted_root(a, p, k)
        assert 0 <= t < p**k
        assert (t * t - a) % p**k == 0


class TestSqrtModPrime:
    def test_none_for_non_residues(self):
        assert sqrt_mod_prime(5, 47) is None
        assert sqrt_mod_prime(47, 47) is None  # 0 mod p
        assert sqrt_mod_prime(-23, 10**12 + 177) is not None

    def test_one_primality_test(self, monkeypatch):
        # none: p is tested by the callers. p = 1 mod 8 takes the
        # Tonelli-Shanks branch, whose search for a non-residue tries
        # z = 2, 3, 4, 5 with the Euler criterion
        p = 10**12 + 177
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
        t = sqrt_mod_prime(-23, p)
        assert (t * t + 23) % p == 0 and t <= p - t
        assert [z for z in (2, 3, 4, 5) if euler_criterion(z, p) == -1] == [5]
        assert calls == []

    @given(st.sampled_from(ODD_PRIMES), st.integers(min_value=-10**4, max_value=10**4))
    def test_matches_brute_force(self, p, a):
        t = sqrt_mod_prime(a, p)
        roots = brute_sqrt_roots(a, p)
        if a % p == 0 or not roots:
            assert t is None
        else:
            assert t == min(roots)


class TestRationalContract:
    """fractions.Fraction carries the exact-rational contract."""

    @given(
        st.fractions(max_denominator=10**12),
        st.fractions(max_denominator=10**12),
    )
    def test_exact_add_sub(self, x, y):
        assert (x + y) - y == x

    @given(st.integers(), st.integers(min_value=1, max_value=10**9))
    def test_normalized(self, n, d):
        q = Fraction(n, d)
        assert math.gcd(abs(q.numerator), q.denominator) == 1
        assert q.denominator >= 1
        assert Fraction(q.numerator, q.denominator) == q
