import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weilcert import arith, kernels
from weilcert.arith import DimensionParam
from weilcert.density import density_series, prime_count
from weilcert.quadforms import represent_x2_ny2
from weilcert.weil import scan_quadruples
from weilcert.errors import ResourceLimitError
from conftest import classified, prime_windows, traced_peak
from oracles import (
    classify_prime,
    early_break_rep_exists,
    full_scan_min_y,
    primes_upto,
)


def form_witnesses(lo, hi, n, dtype):
    """The form marks of the odd values of [lo, hi), in a fresh array."""
    y_of = np.zeros(len(odd_values(lo, hi)), dtype=dtype)
    kernels._odd_form_witnesses(lo, hi, n, y_of)
    return y_of


def odd_values(lo, hi):
    return list(range(lo | 1, hi, 2))


def check_witnesses(lo, hi, n, y_of):
    """y_of marks every odd value of [lo, hi) that is x^2 + n*y^2 with x, y
    >= 1, composites included, and each stored y is a genuine witness."""
    assert len(y_of) == len(odd_values(lo, hi))
    for v, y in zip(odd_values(lo, hi), y_of.tolist()):
        assert (y != 0) == early_break_rep_exists(v, n), (n, lo, v)
        if y:
            x2 = v - n * y * y
            assert x2 > 0 and math.isqrt(x2) ** 2 == x2


@pytest.fixture(scope="module")
def primes_1e5():
    return primes_upto(10**5)


@pytest.fixture(scope="module")
def oracle_1e5():
    """g -> (primes, witness y, member) to 10^5 from the per-prime oracles."""
    primes = primes_upto(10**5)
    want = {}
    for g in (3, 5, 11, 23):
        n = 2 * g + 1
        ys = []
        for p in primes:
            rep = full_scan_min_y(p, n)
            ys.append(0 if rep is None or p == n else rep[1])
        member = [classify_prime(p, g) == "pg" for p in primes]
        want[g] = (primes, ys, member)
    return want


class TestBackends:
    """The numpy form-value sieve against per-value Python scans."""

    def test_numpy_matches_python(self, primes_1e5):
        for n in (7, 11, 23, 47, 59):
            primes, y, _ = classified(10**5, n)
            assert primes.tolist() == primes_1e5
            want = [early_break_rep_exists(p, n) for p in primes_1e5]
            assert (y != 0).tolist() == want, n

    def test_empty_input(self):
        # no form value below n + 1, and no prime below 2: an error, not
        # empty windows, and raised at the call, before anything is sieved
        assert not form_witnesses(0, 24, 23, np.uint8).any()
        assert form_witnesses(0, 1, 23, np.uint8).shape == (0,)
        with pytest.raises(ValueError):
            kernels.classified_windows(1, 23)
        with pytest.raises(ValueError):
            prime_windows(1)

    def test_rejects_bad_n(self):
        # the pass takes odd n >= 3 only, as n = 2g + 1 for a prime g, and
        # raises at the call, before a window is allocated
        def bad_n():
            for n in (0, 1, 2, 4, 24):
                with pytest.raises(ValueError, match=f"odd and >= 3, got {n}"):
                    kernels.classified_windows(10**6, n)

        assert traced_peak(bad_n) < 64 * 1024  # a window would take 0.5 MB or more


class TestClassifiedPrimes:
    """(primes, y, member) against the definition-direct oracles."""

    def test_matches_oracles_to_1e5(self, oracle_1e5):
        for g, (want_primes, want_y, want_member) in oracle_1e5.items():
            primes, y, member = classified(10**5, 2 * g + 1)
            assert primes.tolist() == want_primes, g
            assert y.tolist() == want_y, g
            assert member.tolist() == want_member, g

    def test_small_limits(self):
        for g in (3, 5, 11, 23):
            n = 2 * g + 1
            for limit in (2, n, n + 1):
                primes, y, member = classified(limit, n)
                want = primes_upto(limit)
                assert primes.tolist() == want, (g, limit)
                # every form value x^2 + n*y^2 with x, y >= 1 exceeds n
                assert not y.any() and not member.any(), (g, limit)

    def test_dtypes(self):
        primes, y, member = classified(1000, 23)
        assert primes.dtype == np.int64
        assert y.dtype == np.uint8
        assert member.dtype == np.bool_
        assert len(primes) == len(y) == len(member) == 168


class TestFormWitnesses:
    def test_every_value_below_3000(self):
        # the sieve covers the odd values only, in windows of any size
        for n in (1, 2, 7, 23):
            for width in (3000, 64, 7):
                for lo in range(0, 3000, width):
                    hi = min(lo + width, 3000)
                    y_of = form_witnesses(lo, hi, n, np.uint16)
                    check_witnesses(lo, hi, n, y_of)

    def test_windows_far_from_zero(self):
        # each window finds its own least x for every y: windows at the
        # budget, and windows whose first odd value is a form value
        # k^2 + n*y^2 (least x k) or whose lower edge is one past it (k + 1)
        top = arith.SIEVE_BUDGET
        for n in (7, 23):
            starts = [top - 40, top - 41]
            for y in (1, 2, 1000, math.isqrt(top // n) - 2):
                k = math.isqrt(top - 100 - n * y * y)
                k -= (k + n * y) % 2 == 0  # an odd value
                starts += [k * k + n * y * y, k * k + n * y * y + 1]
            for lo in starts:
                hi = min(lo + 40, top + 1)
                check_witnesses(lo, hi, n, form_witnesses(lo, hi, n, np.uint16))

    def test_prime_witness_is_smallest_y(self, primes_1e5):
        for n in (7, 23, 59):
            primes, y, _ = classified(10**5, n)
            for i in range(0, len(primes), 7):
                rep = full_scan_min_y(int(primes[i]), n)
                assert int(y[i]) == (0 if rep is None else rep[1]), (n, primes[i])

    def test_p_equal_n_not_representable(self):
        # 23 = 0^2 + 23*1^2 needs x = 0
        primes, y, member = classified(23, 23)
        assert primes[-1] == 23
        assert not y.any() and not member.any()

    def test_limit_is_a_form_value(self):
        # 59 = 6^2 + 23*1^2 sits exactly at the limit, and at either edge
        # of a window; below it the odd form values are 27 and 39
        def marked(lo, hi):
            y_of = form_witnesses(lo, hi, 23, np.uint8)
            return [v for v, y in zip(odd_values(lo, hi), y_of.tolist()) if y]

        assert marked(0, 59) == [27, 39]
        assert marked(0, 60) == [27, 39, 59]
        assert marked(59, 60) == marked(58, 60) == marked(40, 60) == [59]
        primes, y, member = classified(59, 23)
        assert primes[y != 0].tolist() == primes[member].tolist() == [59]

    def test_dtype_from_largest_y(self):
        assert classified(1000, 23)[1].dtype == np.uint8
        assert classified(2 * 10**5, 3)[1].dtype == np.uint16  # y up to 258
        # y < sqrt(limit / n) <= sqrt(budget) keeps uint16 up to the budget
        assert math.isqrt(arith.SIEVE_BUDGET) < 2**16

    def test_over_budget_raises_before_allocating(self, monkeypatch):
        # a limit equal to the budget is accepted
        monkeypatch.setattr(arith, "SIEVE_BUDGET", 10**4)
        assert len(list(kernels.classified_windows(10**4, 23))) == 1
        monkeypatch.setattr(arith, "SIEVE_BUDGET", 10**6)

        def over_budget():
            with pytest.raises(ResourceLimitError):
                kernels.classified_windows(10**6 + 1, 23)
            with pytest.raises(ResourceLimitError):
                prime_windows(10**6 + 1)

        assert traced_peak(over_budget) < 64 * 1024  # a window would take 0.5 MB or more


class TestIsqrt:
    """The int64 Newton square root of the form sieve's x bounds."""

    def test_squares_and_neighbours(self):
        ks = range(1, 2**15)
        values = [0, 1, 2, 3, *(k * k + d for k in ks for d in (-1, 0, 1))]
        got = kernels._isqrt(np.array(values, dtype=np.int64))
        assert got.tolist() == [math.isqrt(v) for v in values]

    @given(st.lists(st.integers(0, arith.SIEVE_BUDGET), min_size=1, max_size=50))
    def test_up_to_the_budget(self, values):
        got = kernels._isqrt(np.array(values, dtype=np.int64))
        assert got.tolist() == [math.isqrt(v) for v in values]

    def test_whole_range(self):
        # the bounds need v <= SIEVE_BUDGET; the helper holds below 2^60
        top = 2**60 - 1
        values = [top, top - 1, math.isqrt(top) ** 2, math.isqrt(top) ** 2 - 1, 2**59]
        got = kernels._isqrt(np.array(values, dtype=np.int64))
        assert got.tolist() == [math.isqrt(v) for v in values]


class TestWorkingSet:
    """The pass holds one window's arrays at a time, whatever n."""

    @pytest.mark.parametrize("n", [11, 23, 47])
    def test_traced_peak_of_eight_windows(self, n):
        series = density_series(DimensionParam((n - 1) // 2), (8 * kernels.WINDOW - 1,))
        peak = traced_peak(lambda: series.records)
        assert series.records[0].count_p == prime_count(8 * kernels.WINDOW - 1)
        # half a byte of marks per integer, the composites crossed off in
        # the same array, and one block of form-sieve temporaries: the
        # counts are read off the slots, with no per-prime array
        assert peak <= 1.0 * kernels.WINDOW

    @pytest.mark.parametrize("n", [11, 23, 47])
    def test_traced_peak_of_eight_windows_of_scan(self, n):
        # the witness-keeping pass and its reader: a byte of uint16 witnesses
        # per integer in place of the marks, and the members' rows after
        # the window is dropped
        limit = 8 * kernels.WINDOW - 1
        counted = []
        peak = traced_peak(
            lambda: counted.append(sum(len(p) for p, _, _ in scan_quadruples(n, limit)))
        )
        series = density_series(DimensionParam((n - 1) // 2), (limit,))
        assert counted == [series.records[0].count_pg]
        assert peak <= 1.5 * kernels.WINDOW

    @pytest.mark.parametrize("block", [1, 7])
    def test_mark_blocks_match_oracles(self, oracle_1e5, monkeypatch, block):
        # a block of 1 or 7 marks cuts y-rows at every mark, or mid-row
        monkeypatch.setattr(kernels, "MARK_BLOCK", block)
        limit = 2 * 10**4
        k = len(primes_upto(limit))
        for g, (want_primes, want_y, want_member) in oracle_1e5.items():
            primes, y, member = classified(limit, 2 * g + 1)
            assert primes.tolist() == want_primes[:k], g
            assert y.tolist() == want_y[:k], g
            assert member.tolist() == want_member[:k], g


class TestPreSieve:
    """3 to 13 are zeroed with their multiples by the pre-sieve's tile, and
    keep the class the form sieve gave them, wherever the window edges fall."""

    @pytest.mark.parametrize("width", [64, 8, 5])
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_small_primes_keep_their_class(self, monkeypatch, width, n):
        # for example 11 = 2^2 + 7*1^2 at n = 7, and 13 = 1^2 + 3*2^2 at n = 3
        monkeypatch.setattr(kernels, "WINDOW", width)
        for witnesses in (True, False):
            got = {}
            for first, arr in kernels.classified_windows(60, n, witnesses):
                got.update(zip(range(first, 61, 2), arr.tolist()))
            assert got[1] == got[9] == got[15] == 0, (n, width, witnesses)
            for p in (3, 5, 7, 11, 13):
                marked = early_break_rep_exists(p, n)
                if not witnesses:
                    assert got[p] == (3 if marked else 1), (n, width, p)
                else:
                    rep = represent_x2_ny2(p, n)
                    assert got[p] == (0 if rep is None else rep.y), (n, width, p)


class TestWindowEdges:
    """Window sizes far below WINDOW put window edges at primes and at form
    values; the joined windows must not depend on where the edges fall."""

    # p^2 = 1 (mod width) for each (width, p) below, so p^2 - 1 is a window
    # edge; p becomes a base prime at the limit p^2
    EDGE_SQUARES = ((3, 101), (64, 97), (64, 223))

    @pytest.mark.parametrize(
        "width, limit",
        [(3, 10**4), (64, 10**5), (1000, 10**5)]
        + [(w, p * p + d) for w, p in EDGE_SQUARES for d in (-1, 0, 1)],
    )
    def test_tiny_windows_match_oracles(self, oracle_1e5, monkeypatch, width, limit):
        monkeypatch.setattr(kernels, "WINDOW", width)
        for g, (want_primes, want_y, want_member) in oracle_1e5.items():
            k = len(primes_upto(limit))
            primes, y, member = classified(limit, 2 * g + 1)
            assert primes.tolist() == want_primes[:k], (width, g)
            assert y.tolist() == want_y[:k], (width, g)
            assert member.tolist() == want_member[:k], (width, g)
            # members sit on the first and on the last odd slot of some window
            members = set(primes[member].tolist())
            firsts = {lo | 1 for lo in range(0, limit + 1, width)}
            lasts = {hi - 1 - hi % 2 for hi in range(width, limit + 1, width)}
            assert members & firsts and members & lasts, (width, g)

    def test_window_count(self, monkeypatch):
        monkeypatch.setattr(kernels, "WINDOW", 1000)
        # [lo, lo + 1000) has 500 odd slots from lo + 1, and [10^4, 10^4 + 1) none
        windows = kernels.classified_windows(10**4, 3, witnesses=False)
        bounds = [(first, len(arr)) for first, arr in windows]
        assert bounds == [(lo + 1, 500) for lo in range(0, 10**4, 1000)] + [(10**4 + 1, 0)]

    def test_pi_1e8(self):
        # OEIS A006880: pi(10^8) = 5761455
        windows = prime_windows(10**8)
        assert sum(len(primes) for _, primes in windows) == 5_761_455
