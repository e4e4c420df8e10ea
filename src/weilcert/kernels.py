"""The batch classification kernel: primes sieved and sorted by the paper's
conditions (P1) p = x^2 + n*y^2 and (P2) p != 1 (mod n), with n = 2g+1.

`classified_primes` is the one pass every command covering many primes
reads (`density`, `plot`, `scan`, `find`, `table2`): it sieves the primes
up to a bound and reads each prime's (P1) witness off `form_witnesses`.
Rather than testing each prime, that form-value sieve marks every form
value up to the bound at once: for each y, one numpy scatter writes y at
x^2 + n*y^2 for all x >= 1 in range. The work is the number of lattice
points, about pi*limit/(4*sqrt(n)), and the arithmetic is integer-only (the
quadratic-form sieve idea of Atkin and Bernstein, "Prime sieves using
binary quadratic forms", Math. Comp. 73, 2004).

For a prime p and n >= 2 the representation with x, y >= 1 is unique, so
the stored y is the witness `quadforms.represent_x2_ny2` finds.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import DEFAULT_SIEVE_BUDGET, sieve_primes
from .errors import ResourceLimitError


def form_witnesses(
    limit: int, n: int, budget: int = DEFAULT_SIEVE_BUDGET
) -> np.ndarray:
    """y_of[v] = some y >= 1 with v = x^2 + n*y^2 (x >= 1), 0 if none.

    Covers 0 <= v <= limit. The dtype is the smallest unsigned type that
    holds the largest y (uint16 for any limit up to the default budget).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if limit > budget:
        raise ResourceLimitError(
            f"form sieve limit {limit} exceeds memory budget {budget}"
        )
    # x >= 1 forces n*y^2 <= limit - 1
    y_max = math.isqrt(max(limit - 1, 0) // n)
    y_of = np.zeros(limit + 1, dtype=np.min_scalar_type(y_max))
    squares = np.arange(1, math.isqrt(limit) + 1, dtype=np.int64) ** 2
    for y in range(1, y_max + 1):
        base = n * y * y
        y_of[squares[: math.isqrt(limit - base)] + base] = y
    return y_of


def classified_primes(
    limit: int, n: int, budget: int = DEFAULT_SIEVE_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(primes, y, member) for every prime <= limit, ascending.

    primes is int64; y[i] is the (P1) witness of primes[i] (0 if none) and
    member[i] says primes[i] passes (P1) and (P2). Both sieves obey the
    same budget. Convert with `.tolist()` before big-integer arithmetic:
    numpy int64 wraps silently.
    """
    primes = sieve_primes(limit, budget=budget)
    y = form_witnesses(limit, n, budget=budget)[primes]
    member = (y != 0) & (primes % n != 1)
    return primes, y, member
