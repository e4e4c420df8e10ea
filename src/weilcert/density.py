"""The prime-density experiment.

One pass (`kernels.classified_primes`) sieves all primes up to the largest
checkpoint and classifies each prime p by whether it is representable as
x^2 + (2g+1)*y^2 and whether p = 1 (mod 2g+1): the representable primes
failing the congruence form the target set, those satisfying it are
exactly the primes splitting completely one field higher up. The resulting
`DensitySeries` carries the running member count at every prime, so the
checkpoint table, the per-prime `--series` stream and the plot all read
the same arrays. The counting function f(x) = |members <= x| / pi(x) is
tracked as an exact rational and compared with its limit

    1/(2*h(-8g-4)) * (1 - 1/g),

where h is the quadratic-form class number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .arith import DEFAULT_SIEVE_BUDGET
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


@dataclass(frozen=True, eq=False)
class DensitySeries:
    """One sieve-and-classify pass up to the last checkpoint.

    primes holds every prime <= the last checkpoint in ascending order and
    members[i] counts the target primes among primes[0..i], so
    f(primes[i]) = members[i] / (i+1); records holds the exact counts at
    each checkpoint. Compared by identity, since it holds arrays.
    """

    g: DimensionParam
    records: tuple[DensityRecord, ...]
    limit: Fraction
    primes: np.ndarray
    members: np.ndarray


def asymptotic_limit(g: DimensionParam) -> Fraction:
    """The exact limit of the counting function: (1/(2h(-8g-4)))*(1 - 1/g)."""
    h = class_number(-8 * g.g - 4)
    return Fraction(1, 2 * h) * (1 - Fraction(1, g.g))


def density_series(
    g: DimensionParam,
    checkpoints: tuple[int, ...] | list[int] = DEFAULT_CHECKPOINTS,
    budget: int = DEFAULT_SIEVE_BUDGET,
) -> DensitySeries:
    """Sieve and classify once up to checkpoints[-1]; one DensityRecord per
    checkpoint plus the per-prime running member counts."""
    checkpoints = tuple(int(x) for x in checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be >= 2")

    primes, y, member = kernels.classified_primes(checkpoints[-1], g.n, budget=budget)
    members = np.cumsum(member)
    cum_split = np.cumsum((y != 0) & ~member)
    counts_p = np.searchsorted(primes, checkpoints, side="right").tolist()

    limit = asymptotic_limit(g)
    records = []
    for x, count_p in zip(checkpoints, counts_p):
        # every checkpoint is >= 2, so count_p >= 1
        count_pg = int(members[count_p - 1])
        count_split = int(cum_split[count_p - 1])
        f = Fraction(count_pg, count_p)
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
        g=g,
        records=tuple(records),
        limit=limit,
        primes=primes,
        members=members,
    )
