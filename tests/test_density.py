import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weilcert import arith, kernels
from weilcert.arith import DimensionParam, is_prime
from weilcert.density import density_series, prime_count
from weilcert.errors import ResourceLimitError
from weilcert.quadforms import asymptotic_limit, reduced_forms, represent_x2_ny2
from weilcert.report import CHUNK_ROWS, decimal_string
from weilcert.weil import scan_quadruples, sophie_germain_list
from conftest import (
    CHECKPOINTS, TABLE4, classified, prime_windows, quadruple_rows, sieved_primes,
)
from oracles import classify_prime, density_counts, form_values, primes_upto

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

    def test_checkpoint_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            density_series(G11, ())
        with pytest.raises(ValueError):
            density_series(G11, (200, 100))
        with pytest.raises(ValueError):
            density_series(G11, (1, 100))
        monkeypatch.setattr(arith, "SIEVE_BUDGET", 10**4)
        with pytest.raises(ResourceLimitError):
            density_series(G11, (10**6,))


class TestConvergenceReport:
    def test_all_diffs_positive_at_reference_checkpoints(self, series_g11):
        for rec in series_g11.records:
            assert rec.diff > 0


class TestClassificationConsistency:
    def test_flags_match_membership(self):
        for g in (G5, G11):
            primes, _, member = classified(3000, g.n)
            for p, is_member in zip(primes.tolist(), member.tolist()):
                assert is_member == (classify_prime(p, g.g) == "pg"), (g.g, p)

    def test_member_counts(self):
        series = density_series(G11, (10**4,))
        windows = list(series)
        primes = np.concatenate([w[0] for w in windows])
        counts = np.concatenate([w[1] for w in windows])
        assert [w[2] for w in windows] == [0, 1024]  # the primes below each chunk
        assert len(primes) == len(counts) == 1229
        assert int(counts[-1]) == 175 == series.records[0].count_pg
        # running count is nondecreasing and steps by at most one
        steps = np.diff(counts)
        assert steps.min() >= 0 and steps.max() <= 1


@pytest.fixture(scope="module")
def oracle_1e5():
    """The primes to 10^5 and, for g = 5 and 11, the running count of the
    target primes at each, one prime at a time."""
    plist = primes_upto(10**5)
    counts = {}
    for g in (5, 11):
        kinds = (classify_prime(p, g) == "pg" for p in plist)
        counts[g] = list(itertools.accumulate(kinds, initial=0))[1:]
    return plist, counts


class TestWindows:
    """The fold over windows against one-prime-at-a-time counting."""

    CHECKPOINTS = (2, 3, 63, 64, 65, 127, 128, 1000, 4093, 4096, 10**4, 10**5)

    def test_records_do_not_depend_on_the_window(self, monkeypatch):
        plist = primes_upto(10**5)
        for g in (G5, G11):
            want = density_counts(g.g, plist, list(self.CHECKPOINTS))
            for width in (kernels.WINDOW, 64, 1000):
                monkeypatch.setattr(kernels, "WINDOW", width)
                records = density_series(g, self.CHECKPOINTS).records
                got = {r.x: (r.count_pg, r.count_split_all, r.count_p) for r in records}
                assert got == want, (g.g, width)

    def test_running_counts_across_windows(self, monkeypatch):
        monkeypatch.setattr(kernels, "WINDOW", 1000)
        series = density_series(G5, (10**4,))
        count = members = 0
        for primes, running, before in series:
            assert before == count
            for p, m in zip(primes.tolist(), running.tolist()):
                members += classify_prime(p, 5) == "pg"
                assert m == members, p
            count += len(primes)
        assert count == 1229
        assert series.records[0].count_pg == members

    @pytest.mark.parametrize("width", [kernels.WINDOW, 1000, 64])
    def test_whole_chunks_across_windows(self, monkeypatch, width, oracle_1e5):
        # whole CHUNK_ROWS chunks, whatever the window and block edges, and
        # only the last one shorter; 2 is the first row of the first
        monkeypatch.setattr(kernels, "WINDOW", width)
        plist, counts = oracle_1e5
        for g in (G5, G11):
            chunks = list(density_series(g, (10**5,)))
            sizes = [len(primes) for primes, _, _ in chunks]
            assert sizes[:-1] == [CHUNK_ROWS] * (len(chunks) - 1), (g.g, width)
            assert 0 < sizes[-1] <= CHUNK_ROWS
            assert [c for _, _, c in chunks] == list(range(0, len(plist), CHUNK_ROWS))
            assert (chunks[0][0][0], chunks[0][1][0]) == (2, 0)
            assert np.concatenate([c[0] for c in chunks]).tolist() == plist
            assert np.concatenate([c[1] for c in chunks]).tolist() == counts[g.g]

    def test_prime_count(self):
        # from 10^7 on: OEIS A006880
        xs = (2, 3, 100, 10**4, 10**6, 10**7, 8 * 2**20 - 1, 10**8, 10**9)
        assert [prime_count(x) for x in xs] == [
            1, 2, 25, 1229, 78498, 664_579, 564_163, 5_761_455, 50_847_534
        ]
        with pytest.raises(ValueError, match="sieve limit must be >= 2, got 1"):
            prime_count(1)
        budget = arith.SIEVE_BUDGET
        with pytest.raises(ResourceLimitError, match=f"limit {budget + 1} exceeds budget"):
            prime_count(budget + 1)
        # checked before any work: the arrays for 10^30 would not fit
        with pytest.raises(ResourceLimitError):
            prime_count(10**30)


class TestCountOnlyFold:
    """The fold counts slots and builds no per-prime array; the per-prime
    view, the witness-keeping pass and scan_quadruples list primes and
    members. With window edges every 400 or 1000 integers, all must agree at
    every checkpoint."""

    @staticmethod
    def fold_counts(g, checkpoints):
        records = density_series(DimensionParam(g), checkpoints).records
        return [(r.count_p, r.count_pg, r.count_split_all) for r in records]

    @staticmethod
    def listed_counts(g, checkpoints):
        n = 2 * g + 1
        limit = checkpoints[-1]
        blocks = list(density_series(DimensionParam(g), (limit,)))
        primes = np.concatenate([b[0] for b in blocks])
        running = np.concatenate([b[1] for b in blocks])
        members = [p for p, _, _ in quadruple_rows(scan_quadruples(n, limit))]
        # the witnesses, with (P2) as p % n, not as a class of slots
        witnessed, y, _ = classified(limit, n)
        assert witnessed.tolist() == primes.tolist()
        split = witnessed[(y != 0) & (witnessed % n == 1)]
        got = []
        for x in checkpoints:
            pi = int(np.searchsorted(primes, x, side="right"))
            pg = int(running[pi - 1])
            assert pg == int(np.searchsorted(members, x, side="right")), (g, x)
            got.append((pi, pg, int(np.searchsorted(split, x, side="right"))))
        return got

    @pytest.mark.parametrize("width", [400, 1000])
    @pytest.mark.parametrize("g", [3, 5, 11, 23])
    def test_every_window_edge(self, monkeypatch, width, g):
        monkeypatch.setattr(kernels, "WINDOW", width)
        limit = 20 * width
        edges = (e + d for e in range(width, limit + 1, width) for d in (-1, 0, 1))
        checkpoints = tuple(sorted({2, 2 * g + 1, *edges}))
        assert self.fold_counts(g, checkpoints) == self.listed_counts(g, checkpoints)

    @given(st.sampled_from([3, 5, 11, 23]), st.sampled_from([400, 1000]), st.data())
    def test_random_checkpoints(self, g, width, data):
        xs = st.lists(st.integers(2, 3 * width), min_size=1, max_size=12, unique=True)
        checkpoints = tuple(sorted(data.draw(xs)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "WINDOW", width)
            assert self.fold_counts(g, checkpoints) == self.listed_counts(g, checkpoints)


def slot_mark(v: int, n: int) -> int:
    """The mark of the odd value v in a count-only window at n: 0 at a
    composite, 3 at a prime x^2 + n*y^2 and 1 at any other prime."""
    if not is_prime(v):
        return 0
    return 1 if represent_x2_ny2(v, n) is None else 3


def sample_last_window(monkeypatch) -> dict:
    """The last window of the next pass, in the dict returned: its first
    value, its count of primes (nonzero slots) and the marks of 1000 random
    slots, by value. kernels.classified_windows is patched to read that
    window before it hands it on."""
    windows, last = kernels.classified_windows, {}

    def sampled(limit, n, witnesses):
        for first, arr in windows(limit, n, witnesses):
            if first + 2 * len(arr) > limit:  # the last window
                picks = np.random.default_rng(0).choice(len(arr), 1000, replace=False)
                marks = dict(zip((first + 2 * picks).tolist(), arr[picks].tolist()))
                last.update(first=first, primes=np.count_nonzero(arr), marks=marks)
            yield first, arr

    monkeypatch.setattr(kernels, "classified_windows", sampled)
    return last


def check_sample(last: dict, limit: int, n: int) -> None:
    """The last window below limit holds the primes from its first value up
    to limit, and its sample is 1000 slots, each with slot_mark's mark, that
    hold all three marks."""
    assert last["primes"] == prime_count(limit) - prime_count(last["first"] - 2)
    sample = last["marks"]
    assert len(sample) == 1000 and min(sample) > limit - 2 * kernels.WINDOW
    assert sample == {v: slot_mark(v, n) for v in sample}
    assert set(sample.values()) == {0, 1, 3}


class TestPrimeCountTwoWays:
    """count_p of the pass against prime_count, which shares no code with the
    window sieve beyond check_sieve_limit."""

    def test_every_window_edge_to_1e8(self, monkeypatch):
        # the same pass counts the primes of its last window, and samples 1000
        # of its slots, where the form sieve runs at its largest x and y,
        # against the single-prime tests
        width = kernels.WINDOW
        edges = (k * width + d for k in range(1, 10**8 // width + 1) for d in (-1, 0, 1))
        checkpoints = (*edges, 10**8)
        last = sample_last_window(monkeypatch)
        records = density_series(G11, checkpoints).records
        assert [r.count_p for r in records] == [prime_count(x) for x in checkpoints]
        check_sample(last, 10**8, G11.n)

    @pytest.mark.slow
    def test_pass_to_1e9(self, monkeypatch):
        last = sample_last_window(monkeypatch)
        (record,) = density_series(G11, (10**9,)).records
        assert record.count_p == 50_847_534 == prime_count(10**9)
        assert record.count_pg == 7_703_727
        check_sample(last, 10**9, G11.n)


class TestPrimeCount:
    """prime_count runs no sieve, so the sieve is its oracle."""

    def test_matches_sieve_to_3000_and_around_squares(self):
        primes = sieved_primes(200**2 + 1)
        small = primes[primes <= 200].tolist()
        xs = [*range(2, 3001), *(p * p + d for p in small for d in (-1, 0, 1))]
        want = np.searchsorted(primes, xs, side="right").tolist()
        assert [prime_count(x) for x in xs] == want

    @given(st.integers(2, 10**6))
    def test_matches_sieve_to_1e6(self, sieve_1e6, x):
        assert prime_count(x) == np.searchsorted(sieve_1e6, x, side="right")


def class_sum_gap(g: DimensionParam, checkpoints: tuple[int, ...]) -> list[int]:
    """At each checkpoint x, 2 * (sum_f w_f N_f(x) - #{odd p <= x, p != n :
    p mod n is a nonzero square}), which the theory of forms makes 0.

    Here n = 2g+1 is a prime = 3 (mod 4), f runs over the reduced forms of
    discriminant -4n and N_f(x) counts the primes p <= x, p != n, that f
    represents; the weight w_f is 1 for an ambiguous form (b = 0, b = a or
    a = c) and 1/2 otherwise, since an odd prime p != n with (-n|p) = 1 is
    represented by exactly one class pair {f, f^-1} (Cox, Primes of the
    Form x^2 + ny^2, section 2), and by reciprocity (-n|p) = (p|n). N_1 is
    count_pg + count_split_all of the production pass; every other N_f
    comes from the lattice oracle, and the right side is a congruence count.
    """
    n = g.n
    squares = sorted({k * k % n for k in range(1, n)})
    others = [
        (f, 2 if f.b in (0, f.a) or f.a == f.c else 1)  # doubled weights
        for f in reduced_forms(-4 * n)
        if (f.a, f.b, f.c) != (1, 0, n)
    ]
    gap = np.zeros(len(checkpoints), dtype=np.int64)
    for first, primes in prime_windows(checkpoints[-1]):
        odd = primes[(primes != 2) & (primes != n)]
        top = int(odd[-1]) + 1 if len(odd) else first  # past the last odd prime
        below = np.searchsorted(odd, checkpoints, side="right")

        def counted(flags):
            """How many odd primes of the window up to each checkpoint are flagged."""
            return np.concatenate(([0], np.cumsum(flags)))[below]

        for f, weight in others:
            gap += weight * counted(form_values(f.a, f.b, f.c, first, top)[odd - first])
        gap -= 2 * counted(np.isin(odd % n, squares))
    records = density_series(g, checkpoints).records
    gap += [2 * (r.count_pg + r.count_split_all) for r in records]
    return gap.tolist()


class TestClassSumIdentity:
    """An oracle-free check of the whole pass, at bounds beyond the
    per-prime oracles: the represented primes, weighted over the classes of
    forms of discriminant -4n, are the primes that are squares mod n."""

    @staticmethod
    def checkpoints(limit: int, step: int) -> tuple[int, ...]:
        """Every step up to limit, and both sides of each window edge."""
        edges = range(kernels.WINDOW, limit, kernels.WINDOW)
        return tuple(
            sorted({*range(step, limit + 1, step), *(e + d for e in edges for d in (-1, 0, 1))})
        )

    @pytest.mark.parametrize("g", [5, 11, 23])
    def test_to_1e7(self, g):
        checkpoints = self.checkpoints(10**7, 10**5)
        assert class_sum_gap(DimensionParam(g), checkpoints) == [0] * len(checkpoints)

    @pytest.mark.slow
    def test_to_1e9(self):
        checkpoints = self.checkpoints(10**9, 10**7)
        assert class_sum_gap(G11, checkpoints) == [0] * len(checkpoints)

    def test_tiny_windows(self, monkeypatch):
        monkeypatch.setattr(kernels, "WINDOW", 1000)
        checkpoints = tuple(range(100, 3 * 10**4 + 1, 100))
        for g in (G5, G11):
            assert class_sum_gap(g, checkpoints) == [0] * len(checkpoints), g.g

    def test_non_principal_forms_count(self):
        # h(-4n) = 3 for n = 11 and 23, 5 for n = 47. At n = 11, 3 = 5^2 mod 11
        # is represented by 3x^2 +- 2xy + 4y^2 alone (x = 1, y = 0): the gap
        # closes at x = 3 only through the oracle's forms
        assert [len(reduced_forms(-4 * n)) for n in (11, 23, 47)] == [3, 3, 5]
        assert form_values(3, 2, 4, 3, 4).tolist() == [True]
        assert class_sum_gap(G5, (2, 3)) == [0, 0]
