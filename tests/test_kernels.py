import math
import tracemalloc

import numpy as np
import pytest

from weilcert import kernels
from weilcert.arith import DEFAULT_SIEVE_BUDGET, sieve_primes
from weilcert.errors import ResourceLimitError
from oracles import (
    classify_prime,
    early_break_rep_exists,
    full_scan_min_y,
    primes_upto,
)


@pytest.fixture(scope="module")
def primes_1e5():
    return sieve_primes(10**5)


class TestBackends:
    """The numpy form-value sieve against per-value Python scans."""

    def test_numpy_matches_python(self, primes_1e5):
        for n in (7, 11, 23, 47, 59):
            primes, y, _ = kernels.classified_primes(10**5, n)
            assert primes.tolist() == primes_1e5.tolist()
            want = [early_break_rep_exists(p, n) for p in primes_1e5.tolist()]
            assert (y != 0).tolist() == want, n

    def test_empty_input(self):
        # no form value below 2, and no prime: an error, not empty arrays
        assert not kernels.form_witnesses(0, 23).any()
        assert kernels.form_witnesses(1, 23).shape == (2,)
        with pytest.raises(ValueError):
            kernels.classified_primes(1, 23)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            kernels.classified_primes(100, 0)
        with pytest.raises(ValueError):
            kernels.form_witnesses(100, 0)


class TestClassifiedPrimes:
    """(primes, y, member) against the definition-direct oracles."""

    def test_matches_oracles_to_1e5(self):
        want_primes = primes_upto(10**5)
        for g in (3, 5, 11, 23):
            n = 2 * g + 1
            primes, y, member = kernels.classified_primes(10**5, n)
            assert primes.tolist() == want_primes
            for p, yp, m in zip(want_primes, y.tolist(), member.tolist()):
                kind = classify_prime(p, g)
                assert m == (kind == "pg"), (g, p)
                rep = full_scan_min_y(p, n)
                assert yp == (0 if rep is None or p == n else rep[1]), (g, p)

    def test_small_limits(self):
        for g in (3, 5, 11, 23):
            n = 2 * g + 1
            for limit in (2, n, n + 1):
                primes, y, member = kernels.classified_primes(limit, n)
                want = primes_upto(limit)
                assert primes.tolist() == want, (g, limit)
                # every form value x^2 + n*y^2 with x, y >= 1 exceeds n
                assert not y.any() and not member.any(), (g, limit)

    def test_dtypes(self):
        primes, y, member = kernels.classified_primes(1000, 23)
        assert primes.dtype == np.int64
        assert y.dtype == np.uint8
        assert member.dtype == np.bool_
        assert len(primes) == len(y) == len(member) == 168


class TestFormWitnesses:
    def test_every_value_below_3000(self):
        # composites included: any stored y must be a genuine witness
        for n in (1, 2, 7, 23):
            y_of = kernels.form_witnesses(3000, n)
            for v in range(3001):
                y = int(y_of[v])
                assert (y != 0) == early_break_rep_exists(v, n), (n, v)
                if y:
                    x2 = v - n * y * y
                    assert x2 > 0 and math.isqrt(x2) ** 2 == x2

    def test_prime_witness_is_smallest_y(self, primes_1e5):
        for n in (7, 23, 59):
            y_of = kernels.form_witnesses(10**5, n)
            for p in primes_1e5[::7].tolist():
                rep = full_scan_min_y(p, n)
                assert int(y_of[p]) == (0 if rep is None else rep[1]), (n, p)

    def test_p_equal_n_not_representable(self):
        # 23 = 0^2 + 23*1^2 needs x = 0
        primes, y, member = kernels.classified_primes(23, 23)
        assert primes[-1] == 23
        assert not y.any() and not member.any()

    def test_n1_p2(self):
        # 2 = 1^2 + 1*1^2
        primes, y, member = kernels.classified_primes(2, 1)
        assert (primes.tolist(), y.tolist(), member.tolist()) == ([2], [1], [True])

    def test_limit_is_a_form_value(self):
        # 24 = 1 + 23*1^2 and 59 = 6^2 + 23*1^2 sit exactly at the limit
        assert kernels.form_witnesses(24, 23)[24] == 1
        assert kernels.form_witnesses(59, 23)[59] == 1
        assert not kernels.form_witnesses(23, 23).any()
        primes, y, member = kernels.classified_primes(59, 23)
        assert primes[y != 0].tolist() == primes[member].tolist() == [59]

    def test_dtype_from_largest_y(self):
        assert kernels.form_witnesses(1000, 23).dtype == np.uint8
        assert kernels.form_witnesses(10**5, 1).dtype == np.uint16
        # y < sqrt(limit / n) <= sqrt(budget) keeps uint16 up to the budget
        assert math.isqrt(DEFAULT_SIEVE_BUDGET) < 2**16

    def test_over_budget_raises_before_allocating(self):
        assert kernels.form_witnesses(10**4, 23, budget=10**4).shape == (10**4 + 1,)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                kernels.form_witnesses(10**6 + 1, 23, budget=10**6)
            with pytest.raises(ResourceLimitError):
                sieve_primes(10**6 + 1, budget=10**6)
            with pytest.raises(ResourceLimitError):
                kernels.classified_primes(10**6 + 1, 23, budget=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # the sieves would allocate 0.5 MB and 1 MB
