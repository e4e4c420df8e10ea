"""The batch classification kernel: primes sieved and sorted by the paper's
conditions (P1) p = x^2 + n*y^2 and (P2) p != 1 (mod n), with n = 2g+1.

`classified_windows` is the one pass every command that lists all primes up
to a limit reads (`density`, `plot`, `scan`); `find` and `table2`, which
want one prime per g, read no window. It walks [0, limit] in fixed windows
[lo, hi) of WINDOW integers and classifies each in odd slots: slot i of a
window is the odd integer lo|1 + 2i. Each window is one array over its
slots. With witnesses it holds the witness y of each (P1) prime and 0 at
every other slot; without, one byte a slot, it holds 0 at the composites, 1
at the other primes and 3 at the (P1) ones, so the primes are its nonzero
slots and the (P1) marks are left by `>>= 1`. The (P2) failures are one
residue class of slots, `split_slots`. The pass builds no per-prime array:
a reader that counts counts slots, and a reader that lists primes or
members takes `np.flatnonzero` of the slots it lists. A window's working
set is about 0.8 bytes per integer of the window without witnesses and 1.3
with uint16 witnesses, plus about 32 bytes per form-sieve row
y <= sqrt(hi/n): no array of the pass outlives its window, so a caller that
drops each window before taking the next holds one at a time.

Per window, two integer-only sieves run over the odd integers only (2 is
the one even prime, and has no slot), both in the window's one array:

- the form-value sieve (after Atkin and Bernstein, "Prime sieves using
  binary quadratic forms", Math. Comp. 73, 2004) marks, for each y, the
  odd values x^2 + n*y^2 with x in [ceil(sqrt(lo - n*y^2)),
  isqrt(hi - 1 - n*y^2)], storing y or 3. Both bounds come from integer
  Newton square roots over all y, so each window is classified from its
  bounds alone and no state passes from one window to the next. The marks,
  about pi*(hi - lo)/(8*sqrt(n)) lattice points per window, are written
  MARK_BLOCK at a time;
- the prime sieve, a segmented Eratosthenes (Bays and Hudson, BIT 17,
  1977), then crosses the composites off in place. It first multiplies
  the array by a tile of the odd integers prime to 3*5*7*11*13, a
  pre-sieve (Oliveira e Silva, Herzog and Pardi, Math. Comp. 83, 2014);
  the odd base primes from 17 up to sqrt(limit), sieved once by the same
  window sieve, then zero their odd multiples in the window.

The pass takes odd n >= 3 only, as n = 2g+1 for a prime g. For a prime p
the representation with x, y >= 1 is then unique, so the stored y is the
witness `quadforms.represent_x2_ny2` finds.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .arith import check_sieve_limit

#: Integers per window. A window's working set peaks at about 0.8 bytes per
#: integer (0.8 MB): 0.5 MB for its one array of 1-byte marks and one block
#: of form-sieve temporaries; uint16 witnesses take 0.5 MB more. The int64
#: bounds of its form-sieve rows add 32 bytes a row, 0.4 MB for the 11,952
#: rows of a window near 10^9 at n = 7. 2^21 would halve the per-window
#: Python work and double the memory.
WINDOW = 1 << 20

#: Form-sieve marks computed at once: 2^14 marks take 0.3 MB of int64
#: temporaries, against 124,000 marks per window at n = 11.
MARK_BLOCK = 1 << 14

# _COPRIME[i] is 1 iff the odd integer 2i + 1 is prime to 3*5*7*11*13,
# which repeats with i every 15015; it is held twice over, so that any
# rotation of one period is one slice.
_PRESIEVED = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_PRESIEVED)
_COPRIME = np.ones(2 * _PERIOD, dtype=np.uint8)
for _p in _PRESIEVED:
    _COPRIME[_p // 2 :: _p] = 0  # 2i + 1 = 0 (mod p) iff i = p // 2 (mod p)

# Starting points of _isqrt: floor(2^(j/4)) + 1 for 2^(j/4) <= 2^31, and
# their squares. The least seed whose square exceeds m is at most 2^(1/4)
# times sqrt(m) or sqrt(m) + 1.
_SEEDS = np.array(sorted({math.isqrt(math.isqrt(1 << j)) + 1 for j in range(125)}))
_SEED_SQUARES = _SEEDS * _SEEDS


def _windows(limit: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, base) for each window [lo, hi) up to limit: base holds the
    primes p >= 17 with p^2 < hi, all a window's prime sieve needs."""
    root = math.isqrt(limit)
    # the base primes from 17 to root, from the odd integers 17..root crossed
    # off by every odd c >= 17 up to sqrt(root): an odd composite c crosses
    # off only composites
    trial = np.arange(17, math.isqrt(root) + 1, 2, dtype=np.int64)
    flags = np.ones(_slot_count(17, root + 1), dtype=bool)
    _cross_off(17, root + 1, trial, flags)
    base = 2 * np.flatnonzero(flags) + 17
    del flags
    squares = base * base
    for lo in range(0, limit + 1, WINDOW):
        hi = min(lo + WINDOW, limit + 1)
        yield lo, hi, base[: np.searchsorted(squares, hi)]


def _slot_count(lo: int, hi: int) -> int:
    """The number of odd integers in [lo, hi)."""
    return max(hi - (lo | 1) + 1, 0) // 2


def _cross_off(lo: int, hi: int, base: np.ndarray, arr: np.ndarray) -> None:
    """Zero arr[i] unless the odd integer lo|1 + 2i of [lo, hi) is prime,
    and keep it if it is, given odd integers c >= 17 with c^2 < hi that
    include every prime p >= 17 with p^2 < hi."""
    first = lo | 1
    # intp even when empty: an empty list indexes through a float64 cast,
    # whose code pages alone added 0.1 MB to the peak RSS of `scan`
    small = np.array([(p - first) // 2 for p in _PRESIEVED if first <= p < hi], dtype=np.intp)
    kept = arr[small]
    # the pre-sieve: one period of the tile per row, then the rest
    rotation = first // 2 % _PERIOD
    tile = _COPRIME[rotation : rotation + _PERIOD].astype(arr.dtype, copy=False)
    whole = len(arr) - len(arr) % _PERIOD
    rows = arr[:whole].reshape(-1, _PERIOD)
    rows *= tile
    arr[whole:] *= tile[: len(arr) - whole]
    arr[small] = kept  # 3 to 13 are prime
    if first == 1 and len(arr):
        arr[0] = 0  # 1 is not prime
    # the first odd multiple of p that is >= first and >= p^2
    start = -(-first // base) * base
    start = np.maximum(start + base * (start % 2 == 0), base * base)
    for p, i in zip(base.tolist(), ((start - first) // 2).tolist()):
        arr[i::p] = 0


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


def _odd_form_witnesses(
    lo: int, hi: int, n: int, y_of: np.ndarray, mark: int | None = None
) -> None:
    """Mark the odd values lo|1 + 2i in [lo, hi) in y_of: y_of[i] becomes
    some y >= 1 with lo|1 + 2i = x^2 + n*y^2 (x >= 1), or mark if one is
    given, and is left as it is if there is none."""
    first = lo | 1
    # x >= 1 forces n*y^2 <= hi - 2
    y_top = math.isqrt(max(hi - 2, 0) // n)
    if y_top < 1:
        return
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
    # the marks of row r, counted across the y in order, are starts[r] up to
    # ends[r], views of one array: a second would take a window near 10^9 at
    # n = 23 past glibc's trim threshold (see _classify)
    edges = np.zeros(y_top + 1, dtype=np.int64)
    np.cumsum(counts, out=edges[1:])
    del counts
    starts, ends = edges[:-1], edges[1:]
    # mark j of the window is at x + 2*j
    x -= 2 * starts
    base -= first
    y = y.astype(y_of.dtype)
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
        y_of[marks] = np.repeat(y[rows], taken) if mark is None else mark


def classified_windows(
    limit: int, n: int, witnesses: bool = True
) -> Iterator[tuple[int, np.ndarray]]:
    """(first, arr) for each window of [0, limit], ascending, in odd slots:
    slot i of a window is the odd integer first + 2i.

    With witnesses, arr[i] is nonzero iff slot i is a prime x^2 + n*y^2
    with x, y >= 1, (P1), and holds that y, in the smallest unsigned dtype
    that holds any y up to limit. Without, arr is uint8, one byte a slot:
    0 at the composites, 1 at the other primes and 3 at the (P1) primes, so
    the primes are its nonzero slots and `arr >>= 1` leaves the (P1) marks. The
    (P1) primes at `split_slots(first, n)` fail (P2); the others are the
    members. 2, the one even prime, has no slot, and is no x^2 + n*y^2.
    n must be odd and >= 3. Arguments are checked when called, before any
    window is sieved. Convert with `.tolist()` before big-integer
    arithmetic: numpy int64 wraps silently.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    check_sieve_limit(limit)
    if witnesses:
        dtype, mark = np.min_scalar_type(math.isqrt(limit // n)), None
    else:
        dtype, mark = np.dtype(np.uint8), 3
    # each window is handed over as it is classified: no frame keeps it
    classify = functools.partial(_classify, n=n, dtype=dtype, mark=mark)
    return itertools.starmap(classify, _windows(limit))


def split_slots(first: int, n: int) -> slice:
    """The slots of a window from the odd integer first whose values are
    = 1 (mod n), so p % n == 1: for odd n, first + 2i = 1 (mod n) iff
    i = (1 - first)/2 modulo n."""
    return slice((1 - first) // 2 % n, None, n)


def _classify(
    lo: int, hi: int, base: np.ndarray, n: int, dtype: np.dtype, mark: int | None
) -> tuple[int, np.ndarray]:
    """(first, arr) of the window [lo, hi), from nothing of any other
    window: the form values get y, or mark over a fill of 1, and the
    composites are then crossed off, so the form sieve scatters before any
    slot is zeroed."""
    # one allocation per window: once the first window's is freed, glibc
    # serves blocks of its size from the heap and trims the heap only past
    # twice that size, so while the working set stays below that every later
    # window reuses the same pages and none is returned and faulted in again
    arr = np.full(_slot_count(lo, hi), 0 if mark is None else 1, dtype)
    _odd_form_witnesses(lo, hi, n, arr, mark)
    _cross_off(lo, hi, base, arr)
    return lo | 1, arr
