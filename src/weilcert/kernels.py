"""The batch classification kernel: a form-value sieve for x^2 + n*y^2.

The density harness and `scan` ask, for every prime p up to a bound,
whether p = x^2 + n*y^2 with x, y >= 1. Rather than testing each prime,
`form_witnesses` marks every form value up to the bound at once: for each
y, one numpy scatter writes y at x^2 + n*y^2 for all x >= 1 in range. The
work is the number of lattice points, about pi*limit/(4*sqrt(n)), and the
arithmetic is integer-only (the quadratic-form sieve idea of Atkin and
Bernstein, "Prime sieves using binary quadratic forms", Math. Comp. 73,
2004).

For a prime p and n >= 2 the representation with x, y >= 1 is unique, so
the stored y is the witness `quadforms.represent_x2_ny2` finds.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import DEFAULT_SIEVE_BUDGET
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


def representable_flags(
    primes: np.ndarray, n: int, budget: int = DEFAULT_SIEVE_BUDGET
) -> np.ndarray:
    """flags[i] iff primes[i] = x^2 + n*y^2 for some x, y >= 1.

    `primes` must be ascending; the sieve runs up to its last entry.
    """
    limit = int(primes[-1]) if len(primes) else 0
    return form_witnesses(limit, n, budget=budget)[primes] != 0
