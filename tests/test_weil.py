import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilcert import arith, kernels, weil
from weilcert.arith import DimensionParam, is_sophie_germain
from weilcert.errors import ResourceLimitError
from weilcert.quadforms import represent_x2_ny2
from weilcert.report import CHUNK_ROWS
from weilcert.weil import (
    cm_field_discriminant,
    endomorphism_degree,
    find_smallest,
    local_invariants,
    run_certificate_checks,
    scan_quadruples,
    solve_general_p1m,
    sophie_germain_list,
    splitting_order,
    _quadruples,
    valuations_oracle,
    weil_polynomial,
)
from conftest import TABLE2, TABLE3, count_primality_tests, quadruple_rows
from oracles import (
    brute_force_order,
    classify_prime,
    general_equation_walk,
    lifted_root_valuations,
    primes_upto,
    trial_division_is_prime,
    trial_division_kernel,
    weil_quadruple,
)

G5 = DimensionParam(5)
G11 = DimensionParam(11)


def polynomial(g: int, p: int) -> tuple[int, int]:
    """(b, c) from the a of the definition-direct oracle's quadruple, as ints,
    whose arithmetic is exact where the default decimal context would round."""
    a, _ = weil_quadruple(p, g)
    return tuple(map(int, weil_polynomial(g, p, a)))


class TestSophieGermain:
    def test_list(self):
        assert sophie_germain_list(29) == [2, 3, 5, 11, 23, 29]
        big = [g for g in sophie_germain_list(509) if g >= 5]
        assert len(big) == 24
        assert big[-2:] == [491, 509]
        assert big == [row[0] for row in TABLE2]

    @pytest.mark.parametrize("width", [3, 64, 1000])
    def test_list_across_windows(self, monkeypatch, width):
        # the wheel of 11, 23 and 29 (mod 30) after 2, 3 and 5, cut at max_g;
        # the list reads no sieve window, so the window width changes nothing
        want = [
            g for g in range(10**4 + 1)
            if trial_division_is_prime(g) and trial_division_is_prime(2 * g + 1)
        ]
        monkeypatch.setattr(kernels, "WINDOW", width)
        for max_g in (2, 3, 4, 5, 10**4, 10**4 - 1, 9923):
            assert sophie_germain_list(max_g) == [g for g in want if g <= max_g]
        with pytest.raises(ResourceLimitError):  # 2g+1 past the sieve budget
            sophie_germain_list(arith.SIEVE_BUDGET // 2)

    def test_predicate(self):
        assert not is_sophie_germain(7)  # 15 = 3*5
        assert is_sophie_germain(2) and is_sophie_germain(3)
        assert not is_sophie_germain(13)

    def test_dimension_param(self):
        assert DimensionParam(3).n == 7  # admitted below the usual g >= 5 range
        assert DimensionParam(11).n == 23
        for bad in (2, 4, 7, 13):
            with pytest.raises(ValueError):
                DimensionParam(bad)


class TestConditions:
    def test_p1(self):
        r = represent_x2_ny2(47, 11)
        assert (r.x, r.y) == (6, 1)
        assert represent_x2_ny2(23, 23) is None  # p = 2g+1 excluded
        r = represent_x2_ny2(211, 23)
        assert (r.x, r.y) == (2, 3)

    def test_p2(self):
        # the first identity certify checks; 47 = 2*23 + 1
        checks, cert = run_certificate_checks(G11, 47)
        assert checks == [("p2-congruence", False, "p mod 23 = 1")] and cert is None
        assert run_certificate_checks(G5, 47)[0][0] == ("p2-congruence", True, "p mod 11 = 3")
        checks, _ = run_certificate_checks(G11, 6 * 23 + 1)  # 139 is prime
        assert checks[0][:2] == ("p2-congruence", False)

    def test_membership(self):
        # (P1) and (P2) together against the definition-direct classification;
        # 47 fails (P2) and 61 fails (P1)
        for p, member in ((59, True), (47, False), (61, False)):
            checks, _ = run_certificate_checks(G11, p)
            passed = [name for name, ok, _ in checks[:2] if ok]
            assert (passed == ["p2-congruence", "p1-representation"]) == member
            assert (classify_prime(p, 11) == "pg") == member


class TestQuadruples:
    def test_build(self):
        # the certificate chain builds the quadruple the oracle builds
        for g, p, a, s in ((5, 47, 12, 2), (11, 853, 10, 12), (239, 1997, 18, 4)):
            _, cert = run_certificate_checks(DimensionParam(g), p)
            assert cert[:4] == (g, p, a, s)
            assert (a, s) == weil_quadruple(p, g)
        for p in (47, 61):
            assert run_certificate_checks(G11, p)[1] is None
            assert weil_quadruple(p, 11) is None

    def test_find_smallest(self):
        assert find_smallest(59, 10**4)[0] == 317
        assert find_smallest(1019, 10**4) == (1163, 24, 2)
        assert find_smallest(11, 43) is None

    def test_find_smallest_matches_the_pass(self):
        # the first row of the windowed pass, for every Sophie Germain
        # g <= 10^4 (g = 3 included), at its p and just below it
        gs = [g for g in sophie_germain_list(10**4) if g >= 3]
        assert len(gs) == 189
        for g in gs:
            n = 2 * g + 1
            p = find_smallest(n, 10**6)[0]
            for p_max in (p - 1, p):
                first = next(scan_quadruples(n, p_max), None)
                want = None if first is None else tuple(int(col[0]) for col in first)
                assert find_smallest(n, p_max) == want, (g, p_max)
            assert find_smallest(n, p - 1) is None, g

    def test_find_smallest_rejects_n_below_2(self):
        # x^2 + 1*y^2 has two representations of each odd prime, and 2 = 1 + 1
        with pytest.raises(ValueError, match="n must be >= 2, got 1"):
            find_smallest(1, 100)

    @pytest.mark.slow
    def test_smallest_p_for_every_g_to_1e6(self):
        # the paper's construction past TABLE2: every Sophie Germain g in
        # [5, 10^6] has a smallest p, checked by the single-prime solve
        gs = [g for g in sophie_germain_list(10**6) if g >= 5]
        assert len(gs) == 7744
        for g in gs:
            n = 2 * g + 1
            p, a, s = find_smallest(n, 10**8)
            rep = represent_x2_ny2(p, n)  # raises unless p is prime
            assert p % n != 1 and (a, s) == (2 * rep.x, 2 * rep.y), g

    def test_scan_table3(self):
        assert quadruple_rows(scan_quadruples(23, 1117)) == list(TABLE3)

    @pytest.mark.parametrize("width", [kernels.WINDOW, 1000])
    def test_scan_matches_per_prime(self, monkeypatch, width):
        # rows built at the window edges as well as inside one window
        monkeypatch.setattr(kernels, "WINDOW", width)
        primes = primes_upto(10**5)
        for g in (3, 5, 11, 23):
            want = [(p, *qs) for p in primes if (qs := weil_quadruple(p, g)) is not None]
            chunks = list(scan_quadruples(2 * g + 1, 10**5))
            assert quadruple_rows(chunks) == want, g
            for col in (col for chunk in chunks for col in chunk):
                assert col.dtype == np.int64 and 0 < len(col) <= CHUNK_ROWS, g
            first = find_smallest(2 * g + 1, 10**5)
            assert first == want[0], g
            assert {type(v) for v in first} == {int}

    @pytest.mark.parametrize("n", [7, 23])
    def test_scan_window_below_budget(self, n):
        # the last window of a pass to the budget, with uint16 witnesses:
        # n*y^2 wraps unless y is widened to int64 before a is computed
        *_, (lo, hi, base) = kernels._windows(arith.SIEVE_BUDGET)
        dtype = np.min_scalar_type(math.isqrt(arith.SIEVE_BUDGET // n))
        assert dtype == np.uint16 and hi == arith.SIEVE_BUDGET + 1
        window = kernels._classify(lo, hi, base, n, dtype, None)
        rows = quadruple_rows(_quadruples([window], n))
        assert len(rows) > 5000
        for p, a, s in rows:
            rep = represent_x2_ny2(p, n)
            assert p % n != 1 and (a, s) == (2 * rep.x, 2 * rep.y), p

    def test_table2_rows(self):
        for g, p, a, s in TABLE2:
            assert find_smallest(2 * g + 1, 2000) == (p, a, s), g
            n = 2 * g + 1
            assert a * a - 4 * p == -n * s * s
            assert math.gcd(a, p) == 1
            assert a % 2 == 0 and s % 2 == 0


class TestWeilPolynomial:
    def test_g5_example(self):
        b, c = polynomial(5, 47)
        assert b == 12 * 47**2
        assert c == 47**5
        assert b * b - 4 * c == -11 * 4 * 47**4

    def test_g11_example(self):
        assert polynomial(11, 59) == (12 * 59**5, 59**11)

    def test_modulus_strict_for_table_rows(self):
        # complex conjugate roots, each of squared modulus c = p^g
        for g, p, _, _ in TABLE2:
            b, c = polynomial(g, p)
            assert b**2 < 4 * c


class TestCMDiscriminant:
    def test_examples(self):
        assert cm_field_discriminant(*polynomial(5, 47), 11) == -11
        assert cm_field_discriminant(*polynomial(11, 59), 23) == -23
        assert cm_field_discriminant(*polynomial(173, 383), 347) == -347
        # b^2 - 4c = -44 = -11 * 2^2, so its kernel is -11 and not -23
        assert cm_field_discriminant(12, 47, 11) == -11
        assert cm_field_discriminant(12, 47, 23) is None
        # -88 = -22 * 2^2: a multiple of 11 whose kernel is -22
        assert cm_field_discriminant(0, 22, 11) is None

    def test_rejects_nonnegative(self):
        with pytest.raises(ValueError):
            cm_field_discriminant(10, 4, 7)

    def test_matches_trial_division_kernel(self):
        # every D = 4c - b^2 < 10^6 next to the n*m^2*k with k in {1, 2, 3},
        # and every D < 2000, from two b each: k = 1 is the kernel -n, and
        # the others are multiples of n, or near ones, with another kernel
        for n in (7, 11, 23, 47):
            ds = set(range(1, 2000))
            for m in range(1, math.isqrt(10**6 // n) + 1):
                ds.update(n * m * m * k + j for k in (1, 2, 3) for j in (-1, 0, 1))
            outcomes = set()
            for d in ds:
                if d >= 10**6 or d % 4 in (1, 2):  # -d is not b^2 - 4c
                    continue
                want = -n if trial_division_kernel(-d) == -n else None
                for b in (d % 2, d % 2 + 1000):
                    assert cm_field_discriminant(b, (d + b * b) // 4, n) == want, (n, b, d)
                outcomes.add(want)
            assert outcomes == {-n, None}


class TestSplittingOrder:
    def test_examples(self):
        assert splitting_order(5, 47) == 5
        assert splitting_order(11, 59) == 11
        assert splitting_order(11, 47) == 1  # certificate would fail

    def test_rejects_p_equal_n(self):
        with pytest.raises(ValueError):
            splitting_order(11, 23)

    def test_matches_brute_force_order(self):
        # each of the candidates 1, 2, g and 2g is the order somewhere
        hit = set()
        for g in sophie_germain_list(100):
            n = 2 * g + 1
            for p in primes_upto(2000):
                if p != n:
                    order = brute_force_order(p, n)
                    assert splitting_order(g, p) == order, (g, p)
                    hit.add((1, 2, g, 2 * g).index(order))
        assert hit == {0, 1, 2, 3}

    def test_always_g_on_members_to_1e5(self):
        primes = primes_upto(10**5)
        for g in (5, 11):
            for p in primes:
                if classify_prime(p, g) == "pg":
                    assert splitting_order(g, p) == g, (g, p)


class TestLocalInvariants:
    def test_closed_form(self):
        assert local_invariants(5, 47, 12) == (Fraction(2, 5), Fraction(3, 5))
        assert local_invariants(11, 59, 12) == (Fraction(5, 11), Fraction(6, 11))

    def test_sum_integral(self):
        for g, p, _, _ in TABLE2:
            a, _ = weil_quadruple(p, g)
            lo, hi = local_invariants(g, p, a)
            assert (lo + hi) == 1

    def test_rejects_p_dividing_a(self):
        with pytest.raises(ValueError):
            local_invariants(5, 3, 6)

    def test_oracle_values(self):
        assert valuations_oracle(5, 47, *weil_quadruple(47, 5)) == (3, 2)
        assert valuations_oracle(11, 59, *weil_quadruple(59, 11)) == (6, 5)

    def test_oracle_rejects_non_residue(self):
        # -11 is not a square mod 13
        with pytest.raises(ValueError, match=r"-\(2g\+1\) = -11 is not a square mod 13"):
            valuations_oracle(5, 13, 2, 2)

    def test_oracle_matches_lift_to_p_g_plus_1(self):
        # every TABLE2 row, and every member p < 10^4 at g = 5, 11, 23
        cases = [(g, p) for g, p, _, _ in TABLE2]
        cases += [
            (g, p)
            for g in (5, 11, 23)
            for p, _, _ in quadruple_rows(scan_quadruples(2 * g + 1, 10**4))
        ]
        for g, p in cases:
            a, s = weil_quadruple(p, g)
            assert valuations_oracle(g, p, a, s) == lifted_root_valuations(g, p, a, s), (g, p)

    def test_oracle_fails_past_p_squared(self):
        # (25 + 12*sqrt(-11)) = (6 + sqrt(-11))^2 has norm 47^2, so one
        # factor has valuation 2 and its residue mod 47^2 is 0
        assert 50**2 + 11 * 24**2 == 4 * 47**2
        with pytest.raises(ValueError, match="valuation of 0"):
            valuations_oracle(5, 47, 50, 24)

    def test_oracle_agrees_with_formula_on_all_rows(self):
        for g, p, _, _ in TABLE2:
            a, s = weil_quadruple(p, g)
            vals = valuations_oracle(g, p, a, s)
            assert sorted(vals) == [(g - 1) // 2, (g + 1) // 2]
            assert sum(vals) == g
            assert tuple(sorted(Fraction(v, g) for v in vals)) == local_invariants(g, p, a)

    def test_degree(self):
        assert endomorphism_degree((Fraction(2, 5), Fraction(3, 5))) == 5
        assert endomorphism_degree((Fraction(0, 1),)) == 1
        assert endomorphism_degree((Fraction(5, 11), Fraction(6, 11))) == 11


class TestCertify:
    def test_g5(self):
        checks, cert = run_certificate_checks(G5, 47)
        assert all(ok for _, ok, _ in checks) and len(checks) == 11
        assert cert.cm_discriminant == -11
        assert cert.splitting_order == 5
        assert (cert.inv_low_num, cert.inv_low_den) == (2, 5)
        assert (cert.inv_high_num, cert.inv_high_den) == (3, 5)
        assert cert.degree_d == 5 and cert.center_degree_e == 2
        assert cert.dimension == 5 and cert.aut_order == 22

    def test_g11(self):
        _, cert = run_certificate_checks(G11, 59)
        assert cert.aut_order == 46 and cert.dimension == 11
        assert cert.cm_discriminant == -23

    def test_failure_names_identity(self):
        for p, identity in ((47, "p2-congruence"), (61, "p1-representation")):
            checks, cert = run_certificate_checks(G11, p)
            assert cert is None
            assert checks[-1][:2] == (identity, False)
            assert all(ok for _, ok, _ in checks[:-1])

    def test_primality_tests(self, monkeypatch):
        # represent_x2_ny2's, at the entry; valuations_oracle lifts the
        # root a/s of the quadruple and searches no square root
        calls = count_primality_tests(monkeypatch)
        assert run_certificate_checks(G5, 47)[1] is not None
        assert calls == [47]

    def test_refuses_non_sophie_germain(self):
        # the cm-discriminant and splitting-order tests need g and 2g+1
        # prime: 4 is not prime, and 2*7 + 1 = 15 is not
        for bad in (4, 7):
            with pytest.raises(ValueError):
                run_certificate_checks(DimensionParam(bad), 47)

    def test_every_g_to_1e4(self):
        # the paper's theorem for each Sophie Germain g in [5, 10^4], with
        # its smallest p
        gs = [g for g in sophie_germain_list(10**4) if g >= 5]
        assert len(gs) == 188
        for g in gs:
            p, a, s = find_smallest(2 * g + 1, 10**6)
            checks, cert = run_certificate_checks(DimensionParam(g), p)
            assert cert is not None, (g, p, checks[-1])
            assert cert[:4] == (g, p, a, s)
            assert (cert.cm_discriminant, cert.splitting_order) == (-2 * g - 1, g)
            assert sorted((cert.oracle_val_plus, cert.oracle_val_minus)) == [
                (g - 1) // 2, (g + 1) // 2
            ]

    def test_place_labels_deterministic(self):
        _, cert = run_certificate_checks(G5, 47)
        low = Fraction(cert.inv_low_num, cert.inv_low_den)
        high = Fraction(cert.inv_high_num, cert.inv_high_den)
        assert low < high
        # -t image has valuation 2 for this quadruple
        assert (cert.inv_low_place, cert.inv_high_place) == ("-t", "+t")
        assert (cert.oracle_val_plus, cert.oracle_val_minus) == (3, 2)


class TestDigitBudget:
    @given(st.integers(2, 10**40), st.integers(1, 100))
    @settings(max_examples=200, deadline=None)
    def test_refuses_only_past_a_bound_on_the_digits(self, p, e):
        # the bound is at least the digits of p^e and at most twice them
        digits = len(str(p**e))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(weil, "DIGIT_BUDGET", digits - 1)
            with pytest.raises(ResourceLimitError) as exc:
                weil._exact(p, e)
            bound = int(re.search(r"may have (\d+) digits", str(exc.value))[1])
            assert digits <= bound <= 2 * digits
            patch.setattr(weil, "DIGIT_BUDGET", bound)
            weil._exact(p, e)


class TestGeneralEquation:
    def test_reduces_to_p1_at_top_m(self):
        for g_val, p, a, s in TABLE2:
            g = DimensionParam(g_val)
            assert solve_general_p1m(g, p, (g_val - 1) // 2) == (a, s)
        for p, a, s in TABLE3:
            assert solve_general_p1m(DimensionParam(11), p, 5) == (a, s)

    def test_deeper_exponents(self):
        assert solve_general_p1m(G5, 47, 2) == (12, 2)
        a, s = solve_general_p1m(G5, 47, 1)
        assert (a, s) == (36, 194)
        assert a * a - 4 * 47**3 == -11 * s * s
        # s past 10^6, where the former s-walk stopped
        assert solve_general_p1m(G5, 15013, 1) == (161998, 1108188)

    def test_no_solution_is_none(self):
        # 4*13 = 52: 52 - 11 = 41, 52 - 44 = 8, neither square
        assert solve_general_p1m(G5, 13, 2) is None

    def test_one_primality_test(self, monkeypatch):
        # at its entry; a non-residue (-11 mod 13) or p = 2g+1 ends there too
        calls = count_primality_tests(monkeypatch)
        assert solve_general_p1m(G5, 47, 1) == (36, 194)
        assert solve_general_p1m(G5, 13, 1) is None
        assert solve_general_p1m(G5, 11, 1) is None
        assert calls == [47, 13, 11]

    def test_matches_walk(self):
        # every m at g in {3, 5, 11, 23} and prime p <= 3000 with
        # p^(g-2m) <= 10^9, p = 2 and p = 2g+1 included: 2295 cases
        cases = 0
        for g_val in (3, 5, 11, 23):
            g = DimensionParam(g_val)
            for m in range(1, (g_val - 1) // 2 + 1):
                k = g_val - 2 * m
                for p in primes_upto(3000):
                    if p**k > 10**9:
                        break
                    want = general_equation_walk(p, g.n, k)
                    assert solve_general_p1m(g, p, m) == want, (g_val, p, m)
                    cases += 1
        assert cases == 2295

    def test_matches_direct_solve_at_k(self):
        # the power of the element of norm p^d against the solve at the full
        # exponent k, for every m at TABLE2's (g, p): 2523 cases
        cases = 0
        for g_val, p, _, _ in TABLE2:
            g = DimensionParam(g_val)
            for m in range(1, (g_val - 1) // 2 + 1):
                want = weil._norm_element(g.n, p, g_val - 2 * m)
                assert solve_general_p1m(g, p, m) == want, (g_val, p, m)
                cases += 1
        assert cases == 2523

    @pytest.mark.slow
    @pytest.mark.parametrize("g_val, p", [(1229, 3359), (10061, 21023)])
    def test_matches_direct_solve_at_large_g(self, g_val, p):
        # a has 2164 and 21742 digits
        g = DimensionParam(g_val)
        assert solve_general_p1m(g, p, 1) == weil._norm_element(g.n, p, g_val - 2)

    def test_solves_only_at_the_exponent_of_the_class(self, monkeypatch):
        # no root is lifted to p^k and no Euclid runs on 2p^k: at g = 30269,
        # p = 62303 = x^2 + 60539*y^2 has d = 1; at g = 11 (h(-23) = 3),
        # 4*3^3 = 4^2 + 23*2^2 gives p = 3 its d = 3 below k = 9
        lifts, euclids = [], []
        lift, euclid = weil.hensel_lift, weil.cornacchia

        def logged_lift(a, p, k, t):
            lifts.append(k)
            return lift(a, p, k, t)

        def logged_euclid(n, m, r, rhs):
            euclids.append(rhs)
            return euclid(n, m, r, rhs)

        monkeypatch.setattr(weil, "hensel_lift", logged_lift)
        monkeypatch.setattr(weil, "cornacchia", logged_euclid)
        a, s = map(int, solve_general_p1m(DimensionParam(30269), 62303, 1))
        assert a * a + 60539 * s * s == 4 * 62303**30267
        assert (lifts, euclids) == ([1], [4 * 62303])
        lifts.clear()
        euclids.clear()
        a, s = map(int, solve_general_p1m(G11, 3, 1))
        assert a * a + 23 * s * s == 4 * 3**9
        assert (lifts, euclids) == ([1, 3], [4 * 3, 4 * 3**3])

    def test_m_range_validated(self):
        with pytest.raises(ValueError):
            solve_general_p1m(G5, 47, 0)
        with pytest.raises(ValueError):
            solve_general_p1m(G5, 47, 3)
