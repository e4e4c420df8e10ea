"""Correctness checks for the outputs of weilcert CLI commands.

Two kinds of check, both applied to every command the benchmark runs:

* Structural checks, computed here independently of the package: prime
  counts come from this file's own sieve, class numbers from a direct
  enumeration of reduced forms, fractions and half-up decimals from the
  row's own counts, and certificate fields from the quadruple by exact
  big-integer arithmetic.
* Reference checks, for the default inputs only: rows that the reference
  tables (TABLE2, TABLE3 and the density acceptance CSV, copied into
  reference.json) cover must match byte for byte, and every output but a
  `plot` SVG must match the SHA-256 digest recorded by record.py.

A check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from fractions import Fraction

# q = p^g in `certify` output has far more than 4300 digits for large g.
sys.set_int_max_str_digits(0)

DEFAULT_CHECKPOINTS = (100, 150, 200, 10**3, 10**4, 10**5, 10**6)
PLACES = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decimal_string(q: Fraction) -> str:
    """Half-up (away from zero) rounding to PLACES decimals."""
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    quo, rem = divmod(n * 10**PLACES, d)
    quo += 2 * rem >= d
    return f"{sign}{quo // 10**PLACES}.{quo % 10**PLACES:0{PLACES}d}"


def class_number(d: int) -> int:
    """Primitive reduced forms (a, b, c) of discriminant d < 0, by definition."""
    h = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0) or math.gcd(a, b, c) != 1:
                continue
            h += 1
        a += 1
    return h


def density_limit(g: int) -> Fraction:
    return Fraction(1, 2 * class_number(-8 * g - 4)) * (1 - Fraction(1, g))


def option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def parse_table(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "json":
        return [{k: str(v) for k, v in row.items()} for row in json.loads(text)]
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Checker:
    """Checks command outputs; `reference` is the parsed reference.json."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._flags = bytearray()

    # -- independent primes ------------------------------------------------
    def _sieve(self, limit: int) -> bytearray:
        if len(self._flags) <= limit:
            n = max(limit + 1, 2 * len(self._flags))
            flags = bytearray([1]) * n
            flags[0:2] = b"\x00\x00"
            for p in range(2, math.isqrt(n - 1) + 1):
                if flags[p]:
                    flags[p * p :: p] = bytes(len(range(p * p, n, p)))
            self._flags = flags
        return self._flags

    def pi(self, x: int) -> int:
        return self._sieve(x).count(1, 0, x + 1)

    def primes_upto(self, x: int) -> list[int]:
        flags = self._sieve(x)
        return [p for p in range(x + 1) if flags[p]]

    def is_prime(self, p: int) -> bool:
        return bool(self._sieve(p)[p])

    # -- dispatch ----------------------------------------------------------
    def check(self, argv: list[str], outputs: dict[str, bytes], default: bool) -> list[str]:
        """Problems with one command's outputs.

        `outputs` maps "stdout" and every side-file name the command wrote to
        its bytes; `default` says whether the command belongs to the default
        inputs, which also get the reference checks.
        """
        sub = argv[0]
        try:
            problems = getattr(self, "_check_" + sub)(argv, outputs)
        except (ValueError, KeyError, IndexError, ZeroDivisionError, TypeError) as exc:
            problems = [f"unparseable {sub} output: {type(exc).__name__}: {exc}"]
        if default:
            problems += self._reference(argv, outputs)
        return problems

    def _reference(self, argv: list[str], outputs: dict[str, bytes]) -> list[str]:
        key = " ".join(argv)
        problems = []
        table = self.reference["prefixes"].get(key)
        if table is not None and not outputs["stdout"].startswith(self.reference[table].encode()):
            problems.append(f"stdout differs from reference table {table}")
        digests = self.reference["digests"].get(key)
        if digests is None:
            return problems
        for name, want in digests.items():
            if name not in outputs:
                problems.append(f"missing output {name}")
            elif sha256(outputs[name]) != want:
                problems.append(f"{name} digest differs from the recorded one")
        return problems

    # -- per-subcommand structural checks ----------------------------------
    def _check_density(self, argv, outputs) -> list[str]:
        g = int(option(argv, "--g"))
        fmt = option(argv, "--format", "csv")
        cps = option(argv, "--checkpoints")
        checkpoints = tuple(int(x) for x in cps.split(",")) if cps else DEFAULT_CHECKPOINTS
        limit = density_limit(g)
        rows = parse_table(outputs["stdout"].decode(), fmt)
        problems = []
        if [int(r["x"]) for r in rows] != list(checkpoints):
            return [f"density rows are not the checkpoints {checkpoints}"]
        last_pg = 0
        for r in rows:
            x, pg, p = int(r["x"]), int(r["count_pg"]), int(r["count_p"])
            f = Fraction(pg, p) if p else Fraction(0)
            if p != self.pi(x):
                problems.append(f"count_p({x}) = {p}, pi({x}) = {self.pi(x)}")
            if not last_pg <= pg <= p:
                problems.append(f"count_pg({x}) = {pg} breaks 0 <= count_pg <= pi(x)")
            if (int(r["f_num"]), int(r["f_den"])) != (f.numerator, f.denominator):
                problems.append(f"f({x}) = {r['f_num']}/{r['f_den']}, want {f}")
            if r["f_decimal"] != decimal_string(f):
                problems.append(f"f_decimal({x}) = {r['f_decimal']}")
            if r["diff_decimal"] != decimal_string(limit - f):
                problems.append(f"diff_decimal({x}) = {r['diff_decimal']}")
            last_pg = pg
        series = option(argv, "--series")
        if series is not None:
            problems += self._check_series(outputs[series].decode(), fmt,
                                           checkpoints[-1], last_pg)
        return problems

    def _check_series(self, text: str, fmt: str, x: int, members: int) -> list[str]:
        rows = parse_table(text, fmt)
        primes = self.primes_upto(x)
        if [int(r["p"]) for r in rows] != primes:
            return [f"series primes differ from the primes <= {x}"]
        count = 0
        for i, r in enumerate(rows):
            f = Fraction(int(r["f_num"]), int(r["f_den"]))
            c = f * (i + 1)
            if c.denominator != 1 or not count <= c <= count + 1:
                return [f"series count at p = {r['p']} is {c} after {count}"]
            count = int(c)
            if (f.numerator, f.denominator) != (int(r["f_num"]), int(r["f_den"])):
                return [f"series fraction at p = {r['p']} is not in lowest terms"]
            if r["f_decimal"] != decimal_string(f):
                return [f"series f_decimal at p = {r['p']} is {r['f_decimal']}"]
        if count != members:
            return [f"series ends at {count} members, density table says {members}"]
        return []

    def _check_plot(self, argv, outputs) -> list[str]:
        g = int(option(argv, "--g"))
        x_max = int(option(argv, "--x-max", 10**6))
        svg = outputs["stdout"].decode()
        desc = re.search(r"<desc>points=(\d+) kept=(\d+) decimation=(\d+) "
                         r"limit=(\d+)/(\d+)</desc>", svg)
        if desc is None:
            return ["svg has no points/limit <desc>"]
        points, kept, step, num, den = (int(v) for v in desc.groups())
        problems = []
        if points != self.pi(x_max):
            problems.append(f"svg points={points}, pi({x_max}) = {self.pi(x_max)}")
        if Fraction(num, den) != density_limit(g):
            problems.append(f"svg limit={num}/{den}, want {density_limit(g)}")
        if kept != len(range(0, points, step)) or svg.count("<circle ") != kept:
            problems.append(f"svg kept={kept} but draws {svg.count('<circle ')} circles")
        if svg.count('class="limit-line"') != 1:
            problems.append("svg needs exactly one limit line")
        return problems

    def _check_scan(self, argv, outputs) -> list[str]:
        n = 2 * int(option(argv, "--g")) + 1
        p_max = int(option(argv, "--p-max"))
        rows = parse_table(outputs["stdout"].decode(), option(argv, "--format", "csv"))
        last = 0
        for r in rows:
            p, a, s = int(r["p"]), int(r["a"]), int(r["s"])
            if not (last < p <= p_max and self.is_prime(p) and p != n and p % n != 1
                    and a > 0 and s > 0 and a % 2 == 0 and s % 2 == 0
                    and a * a + n * s * s == 4 * p):
                return [f"scan row {p},{a},{s} is not a quadruple for n = {n}"]
            last = p
        return []

    def _check_table2(self, argv, outputs) -> list[str]:
        g_max = int(option(argv, "--g-max", 509))
        want = "g,p,a,s\n" + "".join(f"{g},{p},{a},{s}\n"
                                     for g, p, a, s in self.reference["TABLE2"] if g <= g_max)
        return [] if outputs["stdout"] == want.encode() else ["table2 differs from TABLE2"]

    def _check_certify(self, argv, outputs) -> list[str]:
        g, p = int(option(argv, "--g")), int(option(argv, "--p"))
        rows = parse_table(outputs["stdout"].decode(), option(argv, "--format", "csv"))
        if len(rows) != 1:
            return [f"certify printed {len(rows)} rows"]
        r = rows[0]
        checks = {k: v for k, v in r.items() if k.startswith("check_")}
        problems = [f"{k} = {v}" for k, v in checks.items() if v != "pass"]
        if not checks:
            problems.append("certify printed no check_* columns")
        n, a, s = 2 * g + 1, int(r["a"]), int(r["s"])
        q = p**g
        want = {
            "g": g, "p": p, "q": q, "weil_c": q, "weil_b": a * p ** ((g - 1) // 2),
            "cm_discriminant": -n, "splitting_order": g, "degree_d": g,
            "dimension": g, "aut_order": 4 * g + 2,
        }
        problems += [f"{k} is wrong" for k, v in want.items() if int(r[k]) != v]
        if a * a + n * s * s != 4 * p:
            problems.append(f"a^2 + {n}s^2 != 4p")
        invs = sorted(Fraction(int(r[f"inv_{k}_num"]), int(r[f"inv_{k}_den"]))
                      for k in ("low", "high"))
        if invs != [Fraction((g - 1) // 2, g), Fraction((g + 1) // 2, g)]:
            problems.append(f"local invariants {invs}")
        return problems
