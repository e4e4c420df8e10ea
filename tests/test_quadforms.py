import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weilcert.arith import is_prime
from weilcert.quadforms import QuadForm, class_number, reduced_forms, represent_x2_ny2
from conftest import count_primality_tests
from oracles import (
    euler_criterion,
    full_scan_min_y,
    is_reduced_form,
    naive_class_number,
    primes_upto,
)


class TestIsReduced:
    """The definition-direct reduction oracle that checks reduced_forms."""

    def test_examples(self):
        assert is_reduced_form(1, 0, 23)
        assert is_reduced_form(3, -2, 4)
        # reduced but imprimitive: counted nowhere
        assert is_reduced_form(2, 2, 6) and not QuadForm(2, 2, 6).is_primitive

    def test_boundary_sign_rules(self):
        assert not is_reduced_form(3, -3, 5)  # |b| = a needs b >= 0
        assert is_reduced_form(3, 3, 5)
        assert not is_reduced_form(2, -1, 2)  # a = c needs b >= 0
        assert is_reduced_form(2, 1, 2)
        assert not is_reduced_form(5, 1, 3)  # a > c

    def test_rejects_indefinite(self):
        assert not is_reduced_form(1, 5, 1)
        assert not is_reduced_form(-1, 0, -3)
        assert not is_reduced_form(0, 0, 1)  # |b| <= a <= c, but b^2 - 4ac = 0


class TestClassNumber:
    def test_known_values(self):
        assert class_number(-92) == 3
        assert class_number(-44) == 3
        assert class_number(-4) == 1
        assert class_number(-3) == 1

    def test_disc_44_forms(self):
        got = sorted((f.a, f.b, f.c) for f in reduced_forms(-44))
        assert got == [(1, 0, 11), (3, -2, 4), (3, 2, 4)]

    def test_forms_are_what_they_claim(self):
        for d in range(-400, 0):
            if d % 4 not in (0, 1):
                continue
            for f in reduced_forms(d):
                assert f.b * f.b - 4 * f.a * f.c == d
                assert f.is_primitive
                assert is_reduced_form(f.a, f.b, f.c)  # reduced and positive definite

    def test_rejects_bad_discriminant(self):
        for d in (0, 4, -6, -1, -2):
            with pytest.raises(ValueError):
                class_number(d)
        assert class_number(-7) == 1  # 1 mod 4 is fine

    def test_matches_naive_double_loop(self):
        for n in range(1, 201):
            assert class_number(-4 * n) == naive_class_number(-4 * n), n

    def test_count_independent_of_order(self):
        # same multiset of forms whichever way the enumeration runs
        for d in (-44, -92, -388, -523):
            forms = reduced_forms(d)
            assert len(set(forms)) == len(forms) == class_number(d)


class TestRepresent:
    def test_known_witnesses(self):
        r = represent_x2_ny2(47, 11)
        assert (r.x, r.y) == (6, 1)
        r = represent_x2_ny2(101, 23)
        assert (r.x, r.y) == (3, 2)
        assert represent_x2_ny2(61, 23) is None

    def test_one_primality_test(self, monkeypatch):
        # p is tested once, at the entry, not again by the square root
        # on the way; counted through every module that binds is_prime
        calls = count_primality_tests(monkeypatch)
        p = 710556311324541868785229746989
        r = represent_x2_ny2(p, 23)
        assert (r.x, r.y) == (600000000000039, 123456789012346)
        assert calls == [p]
        calls.clear()
        assert represent_x2_ny2(61, 23) is None
        assert calls == [61]

    def test_composite_p_raises(self):
        with pytest.raises(ValueError):
            represent_x2_ny2(15, 11)

    def test_smallest_y_is_first_hit(self):
        # 853 - 23*y^2 is square first at y = 6 (and only there)
        r = represent_x2_ny2(853, 23)
        assert (r.x, r.y) == (5, 6)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            represent_x2_ny2(47, 0)

    def test_matches_full_scan(self):
        primes = primes_upto(10**5)
        for n in (7, 11, 23, 47, 59):
            for p in primes:
                got = represent_x2_ny2(p, n)
                want = full_scan_min_y(p, n)
                if want is None:
                    assert got is None, (p, n)
                else:
                    assert (got.x, got.y) == want, (p, n)

    def test_30_digit_prime(self):
        p = 710556311324541868785229746989  # 600000000000039^2 + 23*123456789012346^2
        start = time.perf_counter()
        r = represent_x2_ny2(p, 23)
        assert time.perf_counter() - start < 0.1
        assert (r.x, r.y) == (600000000000039, 123456789012346)

    @given(
        st.sampled_from((7, 11, 23, 47, 59)),
        st.integers(1, 10**12),
        st.integers(1, 10**12),
    )
    def test_returns_the_drawn_pair(self, n, x, y):
        # the first prime x^2 + n*y^2 at or past the drawn x, same y
        x += (x + y + 1) % 2  # x + y odd, so x^2 + n*y^2 is odd
        while not is_prime(x * x + n * y * y):
            x += 2
        r = represent_x2_ny2(x * x + n * y * y, n)
        assert (r.x, r.y) == (x, y)

    def test_witness_implies_residue(self):
        for n in (11, 23):
            for p in primes_upto(2000):
                r = represent_x2_ny2(p, n)
                if r is not None and p % (4 * n) != 0 and p not in (2, n):
                    assert r.x**2 + n * r.y**2 == p
                    assert euler_criterion(-n, p) == 1

