from fractions import Fraction

import numpy as np
import pytest

from weilcert.density import asymptotic_limit, density_series
from weilcert.errors import ResourceLimitError
from weilcert.kernels import classified_primes
from weilcert.report import decimal_string
from weilcert.weil import DimensionParam, sophie_germain_list
from conftest import CHECKPOINTS, TABLE4
from oracles import classify_prime

G5 = DimensionParam(5)
G11 = DimensionParam(11)


class TestLimit:
    def test_g11(self):
        assert asymptotic_limit(G11) == Fraction(5, 33)
        # decomposition: (1/(2*3)) * (10/11) with h(-92) = 3
        assert Fraction(1, 6) * Fraction(10, 11) == Fraction(5, 33)

    def test_g5(self):
        assert asymptotic_limit(G5) == Fraction(2, 15)

    def test_below_half(self):
        for g in sophie_germain_list(509):
            if g < 5:
                continue
            assert asymptotic_limit(DimensionParam(g)) < Fraction(1, 2)


class TestSeries:
    def test_g11_matches_reference(self, series_g11):
        assert series_g11.limit == Fraction(5, 33)
        assert [rec.x for rec in series_g11.records] == list(CHECKPOINTS)
        for rec in series_g11.records:
            npg, nsplit, pi, fn, fd, diff = TABLE4[rec.x]
            assert rec.count_pg == npg
            assert rec.count_split_all == nsplit
            assert rec.count_p == pi
            assert rec.f == Fraction(fn, fd)
            assert decimal_string(rec.diff) == diff
        assert decimal_string(series_g11.records[0].f) == "0.04000000"  # f(100) = 1/25

    def test_record_invariants(self, series_g11, series_g5):
        for series in (series_g11, series_g5):
            for rec in series.records:
                assert 0 <= rec.count_pg <= rec.count_p
                assert rec.f == Fraction(rec.count_pg, rec.count_p)
                assert rec.diff == series.limit - rec.f

    def test_x_equals_2(self):
        series = density_series(G11, (2,))
        rec = series.records[0]
        assert (rec.count_pg, rec.count_p) == (0, 1)
        assert rec.f == Fraction(0, 1)
        assert rec.f.numerator == 0 and rec.f.denominator == 1

    def test_g5_frozen_counts(self, series_g5):
        by_x = {rec.x: rec for rec in series_g5.records}
        assert (by_x[10**3].count_pg, by_x[10**3].count_split_all) == (19, 6)
        assert (by_x[10**6].count_pg, by_x[10**6].count_split_all) == (10457, 2601)
        assert by_x[10**6].count_p == 78498

    def test_convergence_trend(self, series_g11, series_g5):
        for series in (series_g11, series_g5):
            by_x = {rec.x: rec for rec in series.records}
            assert abs(by_x[10**6].diff) < abs(by_x[10**3].diff)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            density_series(G11, ())
        with pytest.raises(ValueError):
            density_series(G11, (200, 100))
        with pytest.raises(ValueError):
            density_series(G11, (1, 100))
        with pytest.raises(ResourceLimitError):
            density_series(G11, (10**6,), budget=10**4)


class TestConvergenceReport:
    def test_all_diffs_positive_at_reference_checkpoints(self, series_g11):
        for rec in series_g11.records:
            assert rec.diff > 0


class TestClassificationConsistency:
    def test_flags_match_membership(self):
        for g in (G5, G11):
            primes, _, member = classified_primes(3000, g.n)
            for p, is_member in zip(primes.tolist(), member.tolist()):
                assert is_member == (classify_prime(p, g.g) == "pg"), (g.g, p)

    def test_member_counts(self):
        series = density_series(G11, (10**4,))
        primes, counts = series.primes, series.members
        assert len(primes) == len(counts) == 1229
        assert int(counts[-1]) == 175
        # running count is nondecreasing and steps by at most one
        steps = np.diff(counts)
        assert steps.min() >= 0 and steps.max() <= 1
