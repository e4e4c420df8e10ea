import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from weilcert import kernels
from weilcert.errors import ResourceLimitError
from weilcert.weil import (
    DimensionParam,
    WeilPolynomial,
    WeilQuadruple,
    check_p1,
    check_p2,
    cm_field_discriminant,
    endomorphism_degree,
    find_smallest,
    is_sophie_germain,
    local_invariants,
    run_certificate_checks,
    scan_quadruples,
    solve_general_p1m,
    sophie_germain_list,
    splitting_order,
    valuations_oracle,
    verify_weil_number,
    weil_polynomial,
)
from conftest import TABLE2, TABLE3, count_primality_tests
from oracles import (
    classify_prime,
    general_equation_walk,
    primes_upto,
    trial_division_is_prime,
    weil_quadruple,
)

G5 = DimensionParam(5)
G11 = DimensionParam(11)


def quadruple(g: DimensionParam, p: int) -> WeilQuadruple | None:
    """The quadruple for (g, p) built from the definition-direct oracle."""
    qs = weil_quadruple(p, g.g)
    return None if qs is None else WeilQuadruple(g=g, p=p, a=qs[0], s=qs[1])


class TestSophieGermain:
    def test_list(self):
        assert sophie_germain_list(29) == [2, 3, 5, 11, 23, 29]
        big = [g for g in sophie_germain_list(509) if g >= 5]
        assert len(big) == 24
        assert big[-2:] == [491, 509]
        assert big == [row[0] for row in TABLE2]

    @pytest.mark.parametrize("width", [3, 64, 1000])
    def test_list_across_windows(self, monkeypatch, width):
        # g-window k pairs with the 2g+1 of q-windows 2k and 2k+1
        want = [
            g for g in range(10**4 + 1)
            if trial_division_is_prime(g) and trial_division_is_prime(2 * g + 1)
        ]
        monkeypatch.setattr(kernels, "WINDOW", width)
        for max_g in (2, 3, 4, 5, 10**4, 10**4 - 1, 9923):
            assert sophie_germain_list(max_g) == [g for g in want if g <= max_g]
        with pytest.raises(ResourceLimitError):  # 2g+1 past the sieve budget
            sophie_germain_list(kernels.SIEVE_BUDGET // 2)

    def test_predicate(self):
        assert not is_sophie_germain(7)  # 15 = 3*5
        assert is_sophie_germain(2) and is_sophie_germain(3)
        assert not is_sophie_germain(13)

    def test_dimension_param(self):
        assert DimensionParam(3).n == 7  # admitted below the usual g >= 5 range
        assert G11.n == 23 and G11.aut_order == 46
        for bad in (2, 4, 7, 13):
            with pytest.raises(ValueError):
                DimensionParam(bad)


class TestConditions:
    def test_p1(self):
        r = check_p1(G5, 47)
        assert (r.x, r.y) == (6, 1)
        assert check_p1(G11, 23) is None  # p = 2g+1 excluded
        r = check_p1(G11, 211)
        assert (r.x, r.y) == (2, 3)

    def test_p2(self):
        assert not check_p2(G11, 47)  # 47 = 2*23 + 1
        assert check_p2(G5, 47)  # 47 mod 11 = 3
        assert not check_p2(G11, 24 * 23 + 1)

    def test_membership(self):
        # (P1) and (P2) together against the definition-direct classification;
        # 47 fails (P2) and 61 fails (P1)
        for p, member in ((59, True), (47, False), (61, False)):
            assert (check_p2(G11, p) and check_p1(G11, p) is not None) == member
            assert (classify_prime(p, 11) == "pg") == member


class TestQuadruples:
    def test_build(self):
        # the certificate chain builds the quadruple the oracle builds
        rows = ((G5, 47, 12, 2), (G11, 853, 10, 12), (DimensionParam(239), 1997, 18, 4))
        for g, p, a, s in rows:
            w = run_certificate_checks(g, p).quadruple
            assert (w.g, w.p, w.a, w.s) == (g, p, a, s)
            assert w == quadruple(g, p)
        for p in (47, 61):
            assert run_certificate_checks(G11, p).quadruple is None
            assert quadruple(G11, p) is None

    def test_find_smallest(self):
        assert (find_smallest(DimensionParam(29), 10**4).p) == 317
        w = find_smallest(DimensionParam(509), 10**4)
        assert (w.p, w.a, w.s) == (1163, 24, 2)
        assert find_smallest(G5, 43) is None

    def test_scan_table3(self):
        got = [(w.p, w.a, w.s) for w in scan_quadruples(G11, 1117)]
        assert got == list(TABLE3)

    def test_scan_matches_per_prime(self):
        primes = primes_upto(10**5)  # Python ints: p**g needs bignums
        for g_val in (3, 5, 11, 23):
            g = DimensionParam(g_val)
            want = [w for p in primes if (w := quadruple(g, p)) is not None]
            assert list(scan_quadruples(g, 10**5)) == want, g_val
            assert find_smallest(g, 10**5) == want[0], g_val

    def test_table2_rows(self):
        for g_val, p, a, s in TABLE2:
            w = find_smallest(DimensionParam(g_val), 2000)
            assert (w.p, w.a, w.s) == (p, a, s), g_val
            n = 2 * g_val + 1
            assert a * a - 4 * p == -n * s * s
            assert math.gcd(a, p) == 1
            assert a % 2 == 0 and s % 2 == 0


class TestWeilPolynomial:
    def test_g5_example(self):
        poly = weil_polynomial(quadruple(G5, 47))
        assert poly.b == 12 * 47**2
        assert poly.c == poly.q == 47**5
        assert poly.discriminant == -11 * 4 * 47**4
        assert verify_weil_number(poly)

    def test_g11_example(self):
        poly = weil_polynomial(quadruple(G11, 59))
        assert poly.b == 12 * 59**5 and poly.c == 59**11

    def test_verify_edges(self):
        q = 10**30
        assert verify_weil_number(WeilPolynomial(b=0, c=q, q=q))
        assert not verify_weil_number(WeilPolynomial(b=3 * q, c=q, q=q))
        assert not verify_weil_number(WeilPolynomial(b=0, c=q, q=q + 1))
        # boundary: real double root -b/2 with (b/2)^2 = q
        assert verify_weil_number(WeilPolynomial(b=6, c=9, q=9))

    def test_modulus_strict_for_table_rows(self):
        for g_val, p, _, _ in TABLE2:
            poly = weil_polynomial(quadruple(DimensionParam(g_val), p))
            assert poly.b**2 < 4 * poly.c
            assert verify_weil_number(poly)


class TestCMDiscriminant:
    def test_examples(self):
        assert cm_field_discriminant(weil_polynomial(quadruple(G5, 47))) == -11
        assert cm_field_discriminant(weil_polynomial(quadruple(G11, 59))) == -23
        w = quadruple(DimensionParam(173), 383)
        assert cm_field_discriminant(weil_polynomial(w)) == -347

    def test_rejects_nonnegative(self):
        with pytest.raises(ValueError):
            cm_field_discriminant(WeilPolynomial(b=10, c=4, q=4))


class TestSplittingOrder:
    def test_examples(self):
        assert splitting_order(G5, 47) == 5
        assert splitting_order(G11, 59) == 11
        assert splitting_order(G11, 47) == 1  # certificate would fail

    def test_rejects_p_equal_n(self):
        with pytest.raises(ValueError):
            splitting_order(G11, 23)

    def test_always_g_on_members_to_1e5(self):
        primes = primes_upto(10**5)
        for g in (G5, G11):
            for p in primes:
                if classify_prime(p, g.g) == "pg":
                    assert splitting_order(g, p) == g.g, (g.g, p)


class TestLocalInvariants:
    def test_closed_form(self):
        assert local_invariants(quadruple(G5, 47)) == (
            Fraction(2, 5),
            Fraction(3, 5),
        )
        assert local_invariants(quadruple(G11, 59)) == (
            Fraction(5, 11),
            Fraction(6, 11),
        )

    def test_sum_integral(self):
        for g_val, p, _, _ in TABLE2:
            lo, hi = local_invariants(quadruple(DimensionParam(g_val), p))
            assert (lo + hi) == 1

    def test_rejects_p_dividing_a(self):
        stub = SimpleNamespace(g=G5, p=3, a=6, s=2)
        with pytest.raises(ValueError):
            local_invariants(stub)

    def test_oracle_values(self):
        assert valuations_oracle(quadruple(G5, 47)) == (3, 2)
        assert valuations_oracle(quadruple(G11, 59)) == (6, 5)

    def test_oracle_rejects_non_residue(self):
        stub = SimpleNamespace(g=G5, p=13, a=2, s=2)  # -11 is not a square mod 13
        with pytest.raises(ValueError, match=r"-\(2g\+1\) = -11 is not a square mod 13"):
            valuations_oracle(stub)

    def test_oracle_agrees_with_formula_on_all_rows(self):
        for g_val, p, _, _ in TABLE2:
            g = DimensionParam(g_val)
            w = quadruple(g, p)
            vals = valuations_oracle(w)
            assert sorted(vals) == [(g_val - 1) // 2, (g_val + 1) // 2]
            assert sum(vals) == g_val
            assert tuple(sorted(Fraction(v, g_val) for v in vals)) == local_invariants(w)

    def test_degree(self):
        assert endomorphism_degree((Fraction(2, 5), Fraction(3, 5))) == 5
        assert endomorphism_degree((Fraction(0, 1),)) == 1
        assert endomorphism_degree((Fraction(5, 11), Fraction(6, 11))) == 11


class TestCertify:
    def test_g5(self):
        cert = run_certificate_checks(G5, 47).certificate
        assert cert.cm_discriminant == -11
        assert cert.splitting_order == 5
        assert [pi.value for pi in cert.invariants] == [Fraction(2, 5), Fraction(3, 5)]
        assert cert.degree_d == 5 and cert.center_degree_e == 2
        assert cert.dimension == 5 and cert.aut_order == 22

    def test_g11(self):
        cert = run_certificate_checks(G11, 59).certificate
        assert cert.aut_order == 46 and cert.dimension == 11
        assert cert.cm_discriminant == -23

    def test_failure_names_identity(self):
        for p, identity in ((47, "p2-congruence"), (61, "p1-representation")):
            run = run_certificate_checks(G11, p)
            assert run.certificate is None and not run.passed
            assert run.failure()[0] == identity
            assert run.checks[-1][:2] == (identity, False)

    def test_primality_tests(self, monkeypatch):
        # its own test, represent_x2_ny2's and hensel_sqrt's in
        # valuations_oracle; no Legendre pre-check before hensel_sqrt
        calls = count_primality_tests(monkeypatch)
        assert run_certificate_checks(G5, 47).passed
        assert calls == [47] * 3

    def test_place_labels_deterministic(self):
        cert = run_certificate_checks(G5, 47).certificate
        low, high = cert.invariants
        assert low.value < high.value
        # -t image has valuation 2 for this quadruple
        assert (low.place, high.place) == ("-t", "+t")


class TestGeneralEquation:
    def test_reduces_to_p1_at_top_m(self):
        for g_val, p, a, s in TABLE2:
            g = DimensionParam(g_val)
            assert solve_general_p1m(g, p, (g_val - 1) // 2) == (a, s)
        for p, a, s in TABLE3:
            assert solve_general_p1m(G11, p, 5) == (a, s)

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
        # hensel_sqrt's; a non-residue (-11 mod 13) or p = 2g+1 ends there too
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

    def test_m_range_validated(self):
        with pytest.raises(ValueError):
            solve_general_p1m(G5, 47, 0)
        with pytest.raises(ValueError):
            solve_general_p1m(G5, 47, 3)
