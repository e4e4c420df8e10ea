"""The prime-density experiment.

Sieve all primes up to a bound, classify each prime p by whether it is
representable as x^2 + (2g+1)*y^2 (one form-value sieve over the same
range, `kernels.representable_flags`), and split the representable ones by
the congruence p = 1 (mod 2g+1): those failing it form the target set,
those satisfying it are exactly the primes splitting completely one field
higher up. The counting function f(x) = |members <= x| / pi(x) is tracked
as an exact rational and compared with its limit

    1/(2*h(-8g-4)) * (1 - 1/g),

where h is the quadratic-form class number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .arith import DEFAULT_SIEVE_BUDGET, sieve_primes
from .quadforms import class_number
from .report import decimal_string
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


@dataclass(frozen=True)
class DensitySeries:
    g: DimensionParam
    checkpoints: tuple[int, ...]
    records: tuple[DensityRecord, ...]
    limit: Fraction


def asymptotic_limit(g: DimensionParam) -> Fraction:
    """The exact limit of the counting function: (1/(2h(-8g-4)))*(1 - 1/g)."""
    h = class_number(-8 * g.g - 4)
    return Fraction(1, 2 * h) * (1 - Fraction(1, g.g))


def density_series(
    g: DimensionParam,
    checkpoints: tuple[int, ...] | list[int] = DEFAULT_CHECKPOINTS,
    budget: int = DEFAULT_SIEVE_BUDGET,
) -> DensitySeries:
    """One DensityRecord per checkpoint, from a single sieve pass."""
    checkpoints = tuple(int(x) for x in checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be >= 2")

    sieve = sieve_primes(checkpoints[-1], budget=budget)
    primes = sieve.primes
    flags = kernels.representable_flags(primes, g.n, budget=budget)
    cong1 = primes % g.n == 1
    cum_pg = np.cumsum(flags & ~cong1)
    cum_split = np.cumsum(flags & cong1)

    limit = asymptotic_limit(g)
    records = []
    for x in checkpoints:
        count_p = sieve.count(x)
        count_pg = int(cum_pg[count_p - 1]) if count_p else 0
        count_split = int(cum_split[count_p - 1]) if count_p else 0
        f = Fraction(count_pg, count_p) if count_p else Fraction(0, 1)
        records.append(
            DensityRecord(
                x=x,
                count_pg=count_pg,
                count_split_all=count_split,
                count_p=count_p,
                f=f,
                diff=limit - f,
            )
        )
    return DensitySeries(
        g=g, checkpoints=checkpoints, records=tuple(records), limit=limit
    )


def prime_series(
    g: DimensionParam,
    x_max: int,
    budget: int = DEFAULT_SIEVE_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prime running counts for plotting.

    Returns (primes, member_counts) where member_counts[i] is the number
    of counted primes among primes[0..i]; f at primes[i] is
    member_counts[i] / (i+1).
    """
    sieve = sieve_primes(x_max, budget=budget)
    primes = sieve.primes
    flags = kernels.representable_flags(primes, g.n, budget=budget)
    members = flags & (primes % g.n != 1)
    return primes, np.cumsum(members)


def convergence_report(series: DensitySeries) -> list[tuple[int, str, str]]:
    """(x, f, limit - f) per checkpoint, decimals to 8 places."""
    return [
        (rec.x, decimal_string(rec.f), decimal_string(rec.diff))
        for rec in series.records
    ]
