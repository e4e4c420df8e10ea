import math
import tracemalloc

import numpy as np
import pytest

from weilcert import ResourceLimitError, sieve_primes
from weilcert import kernels
from weilcert.arith import DEFAULT_SIEVE_BUDGET
from oracles import early_break_rep_exists, full_scan_min_y


@pytest.fixture(scope="module")
def primes_1e5():
    return sieve_primes(10**5).primes


class TestBackends:
    """The numpy form-value sieve against per-value Python scans."""

    def test_numpy_matches_python(self, primes_1e5):
        for n in (7, 11, 23, 47, 59):
            flags = kernels.representable_flags(primes_1e5, n)
            assert flags.dtype == np.bool_
            want = [early_break_rep_exists(p, n) for p in primes_1e5.tolist()]
            assert flags.tolist() == want, n

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        flags = kernels.representable_flags(empty, 23)
        assert flags.shape == (0,) and flags.dtype == np.bool_

    def test_rejects_bad_n(self, primes_1e5):
        with pytest.raises(ValueError):
            kernels.representable_flags(primes_1e5[:10], 0)
        with pytest.raises(ValueError):
            kernels.form_witnesses(100, 0)


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
        assert kernels.representable_flags(np.array([2, 3, 23]), 23).tolist() == [
            False,
            False,
            False,
        ]

    def test_n1_p2(self):
        assert kernels.representable_flags(np.array([2]), 1).tolist() == [True]

    def test_limit_is_a_form_value(self):
        # 24 = 1 + 23*1^2 and 59 = 6^2 + 23*1^2 sit exactly at the limit
        assert kernels.form_witnesses(24, 23)[24] == 1
        assert kernels.form_witnesses(59, 23)[59] == 1
        assert not kernels.form_witnesses(23, 23).any()
        flags = kernels.representable_flags(np.array([2, 3, 5, 59]), 23)
        assert flags.tolist() == [False, False, False, True]

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
                kernels.representable_flags(np.array([2, 10**6 + 3]), 23, budget=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # the array would take 2 MB
