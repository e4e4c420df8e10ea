"""The batch classification kernel: primes sieved and sorted by the paper's
conditions (P1) p = x^2 + n*y^2 and (P2) p != 1 (mod n), with n = 2g+1.

`classified_windows` is the one pass every command covering many primes
reads (`density`, `plot`, `scan`, `find`, `table2`). It walks [0, limit]
in fixed windows [lo, hi) of WINDOW integers and yields, per window, the
primes, their (P1) witness y and the (P1)-and-(P2) member mask, so memory
stays O(WINDOW) whatever the limit, and a caller that has what it needs
stops early.

Per window, two integer-only sieves run over the odd integers only (2 is
the one even prime):

- the prime sieve is a segmented Eratosthenes (Bays and Hudson, BIT 17,
  1977): the odd base primes up to sqrt(limit) are sieved once, by the
  same window sieve, and each crosses off its odd multiples in the window;
- the form-value sieve (after Atkin and Bernstein, "Prime sieves using
  binary quadratic forms", Math. Comp. 73, 2004) marks, for each y, the
  odd values x^2 + n*y^2 with x in [ceil(sqrt(lo - n*y^2)),
  isqrt(hi - 1 - n*y^2)], storing y. Its work is the number of lattice
  points, about pi*(hi - lo)/(8*sqrt(n)) per window.

For a prime p and n >= 2 the representation with x, y >= 1 is unique, so
the stored y is the witness `quadforms.represent_x2_ny2` finds.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError

#: Integers per window. At n = 11 one window holds 0.5 MB of prime flags,
#: 1 MB of witnesses and about 124,000 form-sieve marks (1 MB per int64
#: array of them); 2^21 would halve the per-window Python work and double
#: the memory.
WINDOW = 1 << 20

#: The largest limit a pass accepts. It bounds the time of a pass (about
#: 8 s at n = 23 on a 2-core Xeon); the memory does not grow with the limit.
SIEVE_BUDGET = 10**9


def prime_windows(limit: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, primes) for each window [lo, hi) up to limit, ascending.

    primes holds the window's primes as ascending int64. Checks limit
    against SIEVE_BUDGET before any window is allocated.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_BUDGET:
        raise ResourceLimitError(f"sieve limit {limit} exceeds budget {SIEVE_BUDGET}")
    return _prime_windows(limit)


def _prime_windows(limit: int) -> Iterator[tuple[int, int, np.ndarray]]:
    root = math.isqrt(limit)
    # the odd base primes <= root, from one window sieved by every odd
    # c <= sqrt(root): an odd composite c crosses off only composites
    trial = np.arange(3, math.isqrt(root) + 1, 2, dtype=np.int64)
    base = _window_primes(0, root + 1, trial)[1:]
    squares = base * base
    for lo in range(0, limit + 1, WINDOW):
        hi = min(lo + WINDOW, limit + 1)
        yield lo, hi, _window_primes(lo, hi, base[: np.searchsorted(squares, hi)])


def _window_primes(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes in [lo, hi), given odd integers c >= 3 with c^2 < hi that
    include every odd prime p with p^2 < hi."""
    first = lo | 1
    # flags[i] covers the odd integer first + 2i; 1 is not prime
    flags = np.ones(max(hi - first + 1, 0) // 2, dtype=bool)
    if first == 1 and len(flags):
        flags[0] = False
    # the first odd multiple of p that is >= first and >= p^2
    start = -(-first // base) * base
    start = np.maximum(start + base * (start % 2 == 0), base * base)
    for p, i in zip(base.tolist(), ((start - first) // 2).tolist()):
        flags[i::p] = False
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += first
    if lo <= 2 < hi:
        primes = np.concatenate(([2], primes))
    return primes


def _odd_form_witnesses(lo: int, hi: int, n: int, dtype: np.dtype) -> np.ndarray:
    """y_of[i] = some y >= 1 with lo|1 + 2i = x^2 + n*y^2 (x >= 1), 0 if
    none, for the odd values lo|1 + 2i in [lo, hi)."""
    first = lo | 1
    y_of = np.zeros(max(hi - first + 1, 0) // 2, dtype=dtype)
    # x >= 1 forces n*y^2 <= hi - 2; for y <= y_in, n*y^2 < lo and x starts
    # at ceil(sqrt(lo - n*y^2)), for larger y at 1
    y_top = math.isqrt(max(hi - 2, 0) // n)
    y_in = math.isqrt(max(lo - 1, 0) // n)
    if y_top < 1:
        return y_of
    x_lo = [math.isqrt(lo - 1 - n * y * y) + 1 for y in range(1, y_in + 1)]
    x_lo += [1] * (y_top - y_in)
    x_lo = np.array(x_lo, dtype=np.int64)
    x_hi = np.array([math.isqrt(hi - 1 - n * y * y) for y in range(1, y_top + 1)])
    y = np.arange(1, y_top + 1, dtype=np.int64)
    base = n * y * y
    x_lo += (x_lo + base + 1) % 2  # x^2 + n*y^2 is odd iff x + n*y is
    counts = np.maximum((x_hi - x_lo) // 2 + 1, 0)
    # x runs x_lo, x_lo + 2, ... within each y's block of the marks
    offsets = np.cumsum(counts) - counts
    x = np.repeat(x_lo - 2 * offsets, counts)
    x += np.arange(0, 2 * len(x), 2)
    x *= x
    x += np.repeat(base - first, counts)
    x >>= 1  # the slot of the odd value x^2 + n*y^2
    y_of[x] = np.repeat(y.astype(dtype), counts)
    return y_of


def classified_windows(
    limit: int, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(primes, y, member) for the primes of each window up to limit.

    primes is ascending int64; y[i] is the (P1) witness of primes[i] (0 if
    none), in the smallest unsigned dtype that holds any y up to limit, and
    member[i] says primes[i] passes (P1) and (P2). Arguments are checked
    when called, before any window is sieved. Convert with `.tolist()`
    before big-integer arithmetic: numpy int64 wraps silently.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    windows = prime_windows(limit)
    dtype = np.min_scalar_type(math.isqrt(limit // n))
    return _classified_windows(windows, n, dtype)


def _classified_windows(windows, n: int, dtype: np.dtype):
    for lo, hi, primes in windows:
        y = _odd_form_witnesses(lo, hi, n, dtype)[(primes - (lo | 1)) // 2]
        if lo <= 2 < hi:
            # the odd-value sieve has no slot for 2, which is 1 + n*1^2 for n = 1 only
            y[0] = n == 1
        yield primes, y, (y != 0) & (primes % n != 1)
