"""The batch classification kernel: primes sieved and sorted by the paper's
conditions (P1) p = x^2 + n*y^2 and (P2) p != 1 (mod n), with n = 2g+1.

`classified_windows` is the one pass every command covering many primes
reads (`density`, `plot`, `scan`, `find`, `table2`). It walks [0, limit]
in fixed windows [lo, hi) of WINDOW integers and yields, per window, the
primes, their (P1) witness y and the (P1)-and-(P2) member mask. A window's
working set is fixed, whatever the limit and n, at about 2.1 bytes per
integer of the window: no array of the pass outlives its window, so a
caller that drops each window before taking the next holds one at a time,
and a caller that has what it needs stops early.

Per window, two integer-only sieves run over the odd integers only (2 is
the one even prime):

- the prime sieve is a segmented Eratosthenes (Bays and Hudson, BIT 17,
  1977). Its flags start as a tile of the odd integers prime to
  3*5*7*11*13, a pre-sieve (Oliveira e Silva, Herzog and Pardi, Math.
  Comp. 83, 2014); the odd base primes from 17 up to sqrt(limit), sieved
  once by the same window sieve, then cross off their odd multiples in
  the window;
- the form-value sieve (after Atkin and Bernstein, "Prime sieves using
  binary quadratic forms", Math. Comp. 73, 2004) marks, for each y, the
  odd values x^2 + n*y^2 with x in [ceil(sqrt(lo - n*y^2)),
  isqrt(hi - 1 - n*y^2)], storing y. Both bounds come from integer Newton
  square roots over all y, so each window is classified from its bounds
  alone and no state passes from one window to the next. The marks, about
  pi*(hi - lo)/(8*sqrt(n)) lattice points per window, are written
  MARK_BLOCK at a time.

For a prime p and n >= 2 the representation with x, y >= 1 is unique, so
the stored y is the witness `quadforms.represent_x2_ny2` finds.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError

#: Integers per window. A window's working set peaks at about 2.1 bytes per
#: integer (2.2 MB), whatever n and the limit: 1 MB of uint16 witnesses,
#: the int64 primes (0.6 MB near the bottom of a pass) and one block of
#: form marks, after 0.5 MB of prime flags are dropped; 2^21 would halve
#: the per-window Python work and double the memory.
WINDOW = 1 << 20

#: Form-sieve marks computed at once: 2^14 marks take 0.4 MB of int64 and
#: witness temporaries, against 124,000 marks per window at n = 11. The
#: witnesses of the primes are gathered as many primes at a time.
MARK_BLOCK = 1 << 14

#: The largest limit a pass accepts. It bounds the time of a pass (about
#: 5 s at n = 23 on a 2-core Xeon); the memory does not grow with the limit.
SIEVE_BUDGET = 10**9

# _COPRIME[i] says the odd integer 2i + 1 is prime to 3*5*7*11*13, which
# repeats with i every 15015; it is held twice over, so that any rotation
# of one period is one slice.
_PRESIEVED = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_PRESIEVED)
_COPRIME = np.ones(2 * _PERIOD, dtype=bool)
for _p in _PRESIEVED:
    _COPRIME[_p // 2 :: _p] = False  # 2i + 1 = 0 (mod p) iff i = p // 2 (mod p)

# Starting points of _isqrt: floor(2^(j/4)) + 1 for 2^(j/4) <= 2^31, and
# their squares. The least seed whose square exceeds m is at most 2^(1/4)
# times sqrt(m) or sqrt(m) + 1.
_SEEDS = np.array(sorted({math.isqrt(math.isqrt(1 << j)) + 1 for j in range(125)}))
_SEED_SQUARES = _SEEDS * _SEEDS


def prime_windows(limit: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, primes) for each window [lo, hi) up to limit, ascending.

    primes holds the window's primes as ascending int64. Checks limit
    against SIEVE_BUDGET before any window is allocated.
    """
    check_sieve_limit(limit)
    return _prime_windows(limit)


def check_sieve_limit(limit: int) -> None:
    """Raise unless 2 <= limit <= SIEVE_BUDGET."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_BUDGET:
        raise ResourceLimitError(f"sieve limit {limit} exceeds budget {SIEVE_BUDGET}")


def _prime_windows(limit: int) -> Iterator[tuple[int, int, np.ndarray]]:
    root = math.isqrt(limit)
    # the base primes from 17 to root, from one window sieved by every odd
    # c >= 17 up to sqrt(root): an odd composite c crosses off only composites
    trial = np.arange(17, math.isqrt(root) + 1, 2, dtype=np.int64)
    base = _window_primes(0, root + 1, trial)
    base = base[np.searchsorted(base, 17) :]
    squares = base * base
    for lo in range(0, limit + 1, WINDOW):
        hi = min(lo + WINDOW, limit + 1)
        yield lo, hi, _window_primes(lo, hi, base[: np.searchsorted(squares, hi)])


def _window_primes(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes in [lo, hi), given odd integers c >= 17 with c^2 < hi that
    include every prime p >= 17 with p^2 < hi."""
    first = lo | 1
    # flags[i] covers the odd integer first + 2i
    flags = np.empty(max(hi - first + 1, 0) // 2, dtype=bool)
    done = min(len(flags), _PERIOD)
    rotation = first // 2 % _PERIOD
    flags[:done] = _COPRIME[rotation : rotation + done]
    while done < len(flags):  # whole periods, doubled
        more = min(done, len(flags) - done)
        flags[done : done + more] = flags[:more]
        done += more
    for p in _PRESIEVED:
        if first <= p < hi:
            flags[(p - first) // 2] = True
    if first == 1 and len(flags):
        flags[0] = False  # 1 is not prime
    # the first odd multiple of p that is >= first and >= p^2
    start = -(-first // base) * base
    start = np.maximum(start + base * (start % 2 == 0), base * base)
    for p, i in zip(base.tolist(), ((start - first) // 2).tolist()):
        flags[i::p] = False
    primes = np.flatnonzero(flags)
    del flags
    primes *= 2
    primes += first
    if lo <= 2 < hi:
        primes = np.concatenate(([2], primes))
    return primes


def _isqrt(v: np.ndarray) -> np.ndarray:
    """math.isqrt of each entry of an int64 array, 0 <= v < 2^60, exactly
    and without float.

    Integer Newton steps x -> (x + m // x) // 2 on m = 4v + 1, whose root
    2*isqrt(v) or one more is never 0, fall from an over-estimate to the
    root and no further. From a seed within 2^(1/4) of the root they take
    three or four steps on the x bounds of a pass.
    """
    m = 4 * v
    m += 1
    x = _SEEDS[np.searchsorted(_SEED_SQUARES, m, side="right")]
    while True:
        step = m // x
        step += x
        step >>= 1
        if not (step < x).any():
            x >>= 1
            return x
        np.minimum(x, step, out=x)


def _odd_form_witnesses(lo: int, hi: int, n: int, dtype: np.dtype) -> np.ndarray:
    """y_of for the odd values lo|1 + 2i in [lo, hi): y_of[i] is some y >= 1
    with lo|1 + 2i = x^2 + n*y^2 (x >= 1), 0 if none."""
    first = lo | 1
    y_of = np.zeros(max(hi - first + 1, 0) // 2, dtype=dtype)
    # x >= 1 forces n*y^2 <= hi - 2
    y_top = math.isqrt(max(hi - 2, 0) // n)
    if y_top < 1:
        return y_of
    y = np.arange(1, y_top + 1, dtype=np.int64)
    base = n * y * y
    # x runs from the least x >= 1 with x^2 + n*y^2 >= lo
    x = _isqrt(np.maximum(lo - 1 - base, 0))
    x += 1
    x += (x + base + 1) % 2  # x^2 + n*y^2 is odd iff x + n*y is
    # to the largest x_hi with x_hi^2 + n*y^2 < hi: (x_hi - x) // 2 + 1 values
    counts = _isqrt(hi - 1 - base)
    counts -= x
    counts >>= 1
    counts += 1
    np.maximum(counts, 0, out=counts)
    ends = np.cumsum(counts)
    starts = ends - counts
    # mark j of the window, counted across the y in order, is at x + 2*j
    x -= 2 * starts
    base -= first
    y = y.astype(dtype)
    total = int(ends[-1])
    for at in range(0, total, MARK_BLOCK):
        stop = min(at + MARK_BLOCK, total)
        # the y-rows of marks at .. stop - 1, the first and last one cut
        r0, r1 = np.searchsorted(ends, (at, stop - 1), side="right").tolist()
        rows = slice(r0, r1 + 1)
        taken = np.minimum(ends[rows], stop)
        taken -= np.maximum(starts[rows], at)
        marks = np.repeat(x[rows], taken)
        marks += np.arange(2 * at, 2 * stop, 2)
        marks *= marks
        marks += np.repeat(base[rows], taken)
        marks >>= 1  # the slot of the odd value x^2 + n*y^2
        y_of[marks] = np.repeat(y[rows], taken)
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
    # each window is handed over as it is classified: no frame keeps it
    return itertools.starmap(functools.partial(_classify, n=n, dtype=dtype), windows)


def _classify(
    lo: int, hi: int, primes: np.ndarray, n: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(primes, y, member) of the window [lo, hi) with the given primes, from
    nothing of any other window."""
    y_of = _odd_form_witnesses(lo, hi, n, dtype)
    # gathered MARK_BLOCK primes at a time: no slot array for the window
    y = np.empty(len(primes), dtype)
    for at in range(0, len(primes), MARK_BLOCK):
        slot = primes[at : at + MARK_BLOCK] - (lo | 1)
        slot >>= 1
        y[at : at + MARK_BLOCK] = y_of[slot]
        del slot
    del y_of  # before (P2) takes its temporaries
    if lo <= 2 < hi:
        # the odd-value sieve has no slot for 2, which is 1 + n*1^2 for n = 1 only
        y[0] = n == 1
    member = y != 0
    member &= primes % n != 1
    return primes, y, member
