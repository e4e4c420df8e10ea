"""The prime-density experiment.

One pass (`kernels.classified_windows`) sieves the primes up to the
largest checkpoint, one fixed window at a time, and classifies each prime
p by whether it is representable as x^2 + (2g+1)*y^2 and whether
p = 1 (mod 2g+1): the representable primes failing the congruence form
the target set, those satisfying it are exactly the primes splitting
completely one field higher up. `DensitySeries` counts the slots of each
window into the checkpoint records, with running pi, representable and
split counts and no per-prime array, and lists the primes of a window a
block at a time, with their running member counts, to whoever reads the
pass: `density --series` streams every prime from it and `plot` keeps
every step-th one. Nothing is held for the whole range, so memory does
not grow with the checkpoint. The counting function
f(x) = |members <= x| / pi(x) is tracked as an exact rational and
compared with its limit

    1/(2*h(-8g-4)) * (1 - 1/g),

where h is the quadratic-form class number (`quadforms.asymptotic_limit`).
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import kernels
from .arith import DimensionParam, check_sieve_limit
from .quadforms import asymptotic_limit

#: Checkpoints used by the convergence tables.
DEFAULT_CHECKPOINTS = (100, 150, 200, 10**3, 10**4, 10**5, 10**6)

#: Odd slots per block of the per-prime view, a multiple of 8. The view
#: holds a window's slots as bits, and one block's primes as int64: at most
#: 6542 (pi(65535)), so a reader that renders them `report.CHUNK_ROWS` at a
#: time stays below the pass's own peak.
BLOCK_SLOTS = 1 << 15


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

    Iterating yields one (primes, members, count) per block of at most
    BLOCK_SLOTS odd slots of a window: the block's primes in
    ascending order, the running member count at each of them (target
    primes among all primes <= p) and the number of primes below the
    block, so f(primes[i]) = members[i] / (count + i + 1). `records`, the
    exact counts at each checkpoint, runs whatever part of the pass the
    iteration has not, and builds no per-prime array.
    """

    def __init__(self, g: DimensionParam, checkpoints: tuple[int, ...]):
        self.limit = asymptotic_limit(g)
        self._n = g.n
        self._records: list[DensityRecord] = []
        self._checkpoints = checkpoints
        # primes, (P1) primes and those of them = 1 (mod n), below the
        # windows counted so far: 2 has no slot, and is no x^2 + n*y^2
        self._counts = np.array([1, 0, 0], dtype=np.int64)
        self._windows = kernels.classified_windows(checkpoints[-1], g.n, witnesses=False)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
        count = members = 0
        for first, arr in self._windows:
            # one bit a slot while the reader has the window's primes
            prime_bits = np.packbits(arr)
            self._count(first, arr)  # leaves the (P1) marks
            arr[kernels.split_slots(first, self._n)] = 0  # the members are left
            member_bits = np.packbits(arr)
            del arr
            for at in range(0, len(prime_bits), BLOCK_SLOTS // 8):
                block = slice(at, at + BLOCK_SLOTS // 8)
                slots = np.flatnonzero(np.unpackbits(prime_bits[block]))
                running = np.cumsum(np.unpackbits(member_bits[block])[slots], dtype=np.int64)
                running += members
                slots *= 2
                slots += first + 16 * at
                if first == 1 and at == 0:  # 2, below every odd prime
                    slots = np.concatenate(([2], slots))
                    running = np.concatenate(([members], running))
                yield slots, running, count
                count += len(slots)
                if len(running):
                    members = int(running[-1])
            del prime_bits, member_bits  # before the next window is sieved

    @property
    def records(self) -> tuple[DensityRecord, ...]:
        # each window is counted and dropped: none is held
        collections.deque(itertools.starmap(self._count, self._windows), maxlen=0)
        return tuple(self._records)

    def _count(self, first: int, arr: np.ndarray) -> None:
        """Count one window's slots, and record the checkpoints below the
        odd integer past its last slot, whose primes are all counted then.
        Shifts arr right by one in place, which leaves the (P1) marks."""
        done = len(self._records)
        top = bisect.bisect_left(self._checkpoints, first + 2 * len(arr), done)
        xs = self._checkpoints[done:top]
        # the slots of the odd values <= each checkpoint, then the rest
        spans = list(itertools.pairwise([0, *((x - first) // 2 + 1 for x in xs), len(arr)]))
        primes = [np.count_nonzero(arr[a:b]) for a, b in spans]
        arr >>= 1
        for (a, b), count_p, x in zip(spans, primes, [*xs, None]):
            rep = arr[a:b]
            split = rep[kernels.split_slots(first + 2 * a, self._n)]
            self._counts += (count_p, np.count_nonzero(rep), np.count_nonzero(split))
            if x is not None:
                self._record(x, *self._counts.tolist())

    def _record(self, x: int, count_p: int, count_rep: int, count_split: int) -> None:
        # every checkpoint is >= 2, so count_p >= 1
        count_pg = count_rep - count_split
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
    check_sieve_limit(x)
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
