import tracemalloc

import numpy as np
import pytest

import weilcert
from weilcert import kernels
from weilcert.arith import DimensionParam, is_prime
from weilcert.density import density_series

# Reference quadruples (g, p, a, s): smallest prime p per dimension g.
TABLE2 = (
    (5, 47, 12, 2), (11, 59, 12, 2), (23, 83, 12, 2), (29, 317, 18, 4),
    (41, 227, 24, 2), (53, 251, 24, 2), (83, 311, 24, 2), (89, 503, 36, 2),
    (113, 263, 12, 2), (131, 587, 36, 2), (173, 383, 12, 2), (179, 503, 24, 2),
    (191, 419, 12, 2), (233, 503, 12, 2), (239, 1997, 18, 4), (251, 647, 24, 2),
    (281, 599, 12, 2), (293, 911, 36, 2), (359, 863, 24, 2), (419, 983, 24, 2),
    (431, 1187, 36, 2), (443, 1031, 24, 2), (491, 1019, 12, 2), (509, 1163, 24, 2),
)

# Reference triples (p, a, s) for g = 11, all p <= 1117.
TABLE3 = (
    (59, 12, 2), (101, 6, 4), (167, 24, 2), (173, 18, 4), (211, 4, 6),
    (223, 8, 6), (271, 16, 6), (307, 20, 6), (317, 30, 4), (347, 36, 2),
    (449, 18, 8), (463, 32, 6), (593, 30, 8), (607, 40, 6), (719, 24, 10),
    (809, 42, 8), (821, 54, 4), (853, 10, 12), (877, 14, 12), (883, 52, 6),
    (991, 56, 6), (997, 26, 12), (1097, 54, 8), (1117, 34, 12),
)

# Reference convergence rows for g = 11:
# x -> (count_pg, count_split, pi(x), f_num, f_den, diff_decimal)
TABLE4 = {
    100: (1, 0, 25, 1, 25, "0.11151515"),
    150: (2, 0, 35, 2, 35, "0.09437229"),
    200: (4, 0, 46, 2, 23, "0.06455863"),
    10**3: (22, 3, 168, 11, 84, "0.02056277"),
    10**4: (175, 18, 1229, 175, 1229, "0.00912296"),
    10**5: (1426, 141, 9592, 713, 4796, "0.00284960"),
    10**6: (11847, 1185, 78498, 3949, 26166, "0.00059411"),
}

CHECKPOINTS = (100, 150, 200, 10**3, 10**4, 10**5, 10**6)


def count_primality_tests(monkeypatch):
    """The arguments of every is_prime call, through any weilcert module."""
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    for module in vars(weilcert).values():
        if getattr(module, "is_prime", None) is is_prime:
            monkeypatch.setattr(module, "is_prime", counted)
    return calls


def traced_peak(command):
    """The tracemalloc peak, in bytes, of calling command()."""
    tracemalloc.start()
    try:
        command()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def prime_windows(limit):
    """(first, primes) for each window of the pass to limit, ascending: the
    odd integer of its slot 0, and its primes as ascending int64, read off
    the nonzero slots of `kernels.classified_windows` without witnesses,
    with 2 in the first window. The primes do not depend on n, so any odd
    n >= 3 serves. Checks limit against the sieve budget before any window
    is sieved."""
    windows = kernels.classified_windows(limit, 3, witnesses=False)
    return ((first, window_primes(first, arr)) for first, arr in windows)


def window_primes(first, arr):
    """The primes of a window from its slots, and 2 if it is the first."""
    primes = 2 * np.flatnonzero(arr) + first
    return np.concatenate(([2], primes)) if first == 1 else primes


def classified(limit, n):
    """The windows of one pass joined into whole per-prime (primes, y,
    member) arrays: the primes of `prime_windows`, their witnesses
    and the (P1)-and-(P2) mask that clears `kernels.split_slots`, after 2,
    which has no slot and is no x^2 + n*y^2."""
    primes, ys, members = [], [], [np.array([False])]
    windows = zip(prime_windows(limit), kernels.classified_windows(limit, n))
    for (_, window), (first, rep) in windows:
        slots = (window[window > 2] - first) // 2
        ys.append(rep[slots])
        rep[kernels.split_slots(first, n)] = 0
        members.append(rep[slots] != 0)
        primes.append(window)
    ys.insert(0, np.zeros(1, dtype=ys[0].dtype))
    return np.concatenate(primes), np.concatenate(ys), np.concatenate(members)


def quadruple_rows(chunks):
    """The (p, a, s) rows of `weil.scan_quadruples`' int64 column chunks,
    as tuples of Python ints."""
    return [row for chunk in chunks for row in zip(*(col.tolist() for col in chunk))]


def sieved_primes(limit):
    """All primes <= limit: the windows of prime_windows joined."""
    return np.concatenate([primes for _, primes in prime_windows(limit)])


@pytest.fixture(scope="session")
def sieve_1e6():
    return sieved_primes(10**6)


@pytest.fixture(scope="session")
def series_g11():
    return density_series(DimensionParam(11), CHECKPOINTS)


@pytest.fixture(scope="session")
def series_g5():
    return density_series(DimensionParam(5), CHECKPOINTS)
