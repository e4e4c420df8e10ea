"""The prime-density experiment.

One pass (`kernels.classified_windows`) sieves the primes up to the
largest checkpoint, one fixed window at a time, and classifies each prime
p by whether it is representable as x^2 + (2g+1)*y^2 and whether
p = 1 (mod 2g+1): the representable primes failing the congruence form
the target set, those satisfying it are exactly the primes splitting
completely one field higher up. `DensitySeries` folds the windows into
the checkpoint records with running pi, member and split counts, and
hands each window with its running member counts to whoever reads the
pass: `density --series` streams every prime from it and `plot` keeps
every step-th one. Nothing is held for the whole range, so memory does
not grow with the checkpoint. The counting function
f(x) = |members <= x| / pi(x) is tracked as an exact rational and
compared with its limit

    1/(2*h(-8g-4)) * (1 - 1/g),

where h is the quadratic-form class number.
"""

from __future__ import annotations

import bisect
import collections
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .quadforms import class_number
from .weil import DimensionParam

#: Checkpoints used by the convergence tables.
DEFAULT_CHECKPOINTS = (100, 150, 200, 10**3, 10**4, 10**5, 10**6)


@dataclass(frozen=True)
class DensityRecord:
    """Exact counts at one checkpoint x.

    count_pg + count_split_all equals the number of representable primes
    <= x: the two classes partition them by the mod-(2g+1) congruence.
    """

    x: int
    count_pg: int
    count_split_all: int
    count_p: int
    f: Fraction
    diff: Fraction


class DensitySeries:
    """One sieve-and-classify pass up to the last checkpoint, read once.

    Iterating yields one (primes, members, count) per window: the window's
    primes in ascending order, the running member count at each of them
    (target primes among all primes <= p) and the number of primes below
    the window, so f(primes[i]) = members[i] / (count + i + 1). `records`,
    the exact counts at each checkpoint, runs whatever part of the pass the
    iteration has not.
    """

    def __init__(self, g: DimensionParam, checkpoints: tuple[int, ...]):
        self.limit = asymptotic_limit(g)
        self._records: list[DensityRecord] = []
        windows = kernels.classified_windows(checkpoints[-1], g.n)
        self._windows = self._fold(checkpoints, windows)

    def __iter__(self):
        return self._windows

    @property
    def records(self) -> tuple[DensityRecord, ...]:
        collections.deque(self._windows, maxlen=0)  # holds no window
        return tuple(self._records)

    def _record(self, x: int, count_p: int, count_pg: int, count_split: int) -> None:
        # every checkpoint is >= 2, so count_p >= 1
        f = Fraction(count_pg, count_p)
        self._records.append(
            DensityRecord(
                x=x,
                count_pg=count_pg,
                count_split_all=count_split,
                count_p=count_p,
                f=f,
                diff=self.limit - f,
            )
        )

    def _fold(self, checkpoints: tuple[int, ...], windows):
        # count_rep counts the representable primes: the members and the split ones
        done = count_p = count_pg = count_rep = 0
        for primes, y, member in windows:
            members = np.cumsum(member)
            members += count_pg
            # checkpoints below the window's last prime have all their primes here
            top = done
            if len(primes):
                top = bisect.bisect_left(checkpoints, int(primes[-1]), done)
            ks = np.searchsorted(primes, checkpoints[done:top], side="right").tolist()
            for x, k in zip(checkpoints[done:top], ks):
                pg = int(members[k - 1]) if k else count_pg
                rep = count_rep + int(np.count_nonzero(y[:k]))
                self._record(x, count_p + k, pg, rep - pg)
            done = top
            count_rep += int(np.count_nonzero(y))
            del y, member  # used up: not held while the reader has the window
            yield primes, members, count_p
            count_p += len(primes)
            if len(primes):
                count_pg = int(members[-1])
            del primes, members  # before the next window is sieved
        for x in checkpoints[done:]:
            self._record(x, count_p, count_pg, count_rep - count_pg)


def asymptotic_limit(g: DimensionParam) -> Fraction:
    """The exact limit of the counting function: (1/(2h(-8g-4)))*(1 - 1/g)."""
    h = class_number(-8 * g.g - 4)
    return Fraction(1, 2 * h) * (1 - Fraction(1, g.g))


def density_series(
    g: DimensionParam, checkpoints: tuple[int, ...] | list[int]
) -> DensitySeries:
    """The one sieve-and-classify pass up to checkpoints[-1], checked here and
    run as the series is read."""
    checkpoints = tuple(int(x) for x in checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be >= 2")
    return DensitySeries(g, checkpoints)


def prime_count(x: int) -> int:
    """pi(x), with no sieve: Legendre's recursion on the values floor(x/k)
    (Lagarias, Miller and Odlyzko, Math. Comp. 44, 1985), in int64 on
    O(sqrt(x)) memory and O(x^(3/4)) operations.

    S(v) starts as v - 1, the count of 2..v. For each prime p <= sqrt(x) in
    turn, S(v) -= S(v // p) - S(p - 1) at every v >= p^2 drops the integers
    whose least prime factor is p; after it S(v) = pi(v) for v below the
    next prime's square. Every v // p of a value v = x // k is a value
    again: x // (k*p). Checks x as the prime sieve does, before any work.
    """
    kernels.check_sieve_limit(x)
    r = math.isqrt(x)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = S(v), v <= r
    quot = x // np.arange(1, r + 1, dtype=np.int64)  # quot[k - 1] = x // k
    large = quot - 1  # large[k - 1] = S(x // k)
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below = small[p - 1]
        top = min(r, x // (p * p))  # the k with x // k >= p^2
        inner = min(top, r // p)  # the k with k*p <= r, where x // (k*p) is large
        drop = np.empty(top, dtype=np.int64)
        drop[:inner] = large[p - 1 : inner * p : p]
        drop[inner:] = small[quot[inner:top] // p]
        drop -= below
        large[:top] -= drop
        if p * p <= r:
            v = np.arange(p * p, r + 1, dtype=np.int64)
            small[p * p :] -= small[v // p] - below
    return int(large[0])
