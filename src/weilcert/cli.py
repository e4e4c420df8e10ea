"""Command-line surface.

Subcommands cover the whole toolkit: quadruple searches (`find`, `scan`,
`table2`), the density experiment (`density`, `plot`), scalar reports
(`limit`, `classnum`), and certificate verification (`certify`). Output is
csv, json, or markdown; exit codes are 0 (success), 1 (check failure),
2 (argument error), 3 (resource limit, such as the sieve budget or the
discriminant, digit or primality bound, or I/O failure).

Each command imports the modules it runs when it runs: start-up and
imports are most of a short command, so `density` does not compile `weil`,
`scan` does not compile `density`, and a command that builds no array loads
no numpy.

When `main` is the process entry (called with no argv, as by
`python -m weilcert.cli` and the `weilcert` script), it freezes the heap as
it returns or raises, so the interpreter's final cyclic collection skips
the objects of numpy and the stdlib; stdout is still flushed at exit, and
every output file is closed before. It also sets the BLAS thread counts
that the environment leaves unset to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from typing import TYPE_CHECKING, Iterator, TextIO

from . import report
from .errors import ResourceLimitError

if TYPE_CHECKING:
    from .density import DensitySeries

DEFAULT_FIND_PMAX = 100_000
DEFAULT_G_MAX = 509
DEFAULT_PLOT_XMAX = 10**6


def _output(path: str | None):
    """The stream a command writes to: stdout, or the file at path."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _write_table(header, rows, fmt: str, path: str | None) -> None:
    with _output(path) as fh:
        report.write_table(header, rows, fmt, fh)


def _parse_checkpoints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad checkpoint list {text!r}") from None


def cmd_find(args) -> int:
    from .arith import DimensionParam
    from .weil import find_smallest, solve_general_p1m

    g = DimensionParam(args.g)
    if args.p is not None and args.m is None:
        raise ValueError("--p requires --m (find searches the smallest p otherwise)")
    if args.m is not None:
        if args.p is None:
            raise ValueError("--m requires --p")
        sol = solve_general_p1m(g, args.p, args.m)
        if sol is None:
            eq = f"a^2 - 4*{args.p}^{g.g - 2 * args.m} = -{g.n}*s^2"
            print(f"no solution of {eq} with gcd(a, p) = 1", file=sys.stderr)
            return 1
        row = [g.g, args.p, args.m, *sol]
        _write_table(["g", "p", "m", "a", "s"], [row], args.format, args.out)
        return 0
    row = find_smallest(g.n, args.p_max)
    if row is None:
        print(f"no prime found with p <= {args.p_max} for g = {g.g}", file=sys.stderr)
        return 1
    _write_table(["g", "p", "a", "s"], [(g.g, *row)], args.format, args.out)
    return 0


def cmd_scan(args) -> int:
    from .arith import DimensionParam
    from .weil import scan_quadruples

    g = DimensionParam(args.g)
    chunks = scan_quadruples(g.n, args.p_max)
    with _output(args.out) as fh:
        report.write_columns(["p", "a", "s"], chunks, args.format, fh)
    return 0


def cmd_table2(args) -> int:
    from .weil import find_smallest, sophie_germain_list

    if args.g_max < 5:
        raise ValueError(f"--g-max must be >= 5, got {args.g_max}")
    rows = []
    for g in sophie_germain_list(args.g_max):
        if g < 5:
            continue
        row = find_smallest(2 * g + 1, args.p_max)
        if row is None:
            print(f"no prime found with p <= {args.p_max} for g = {g}", file=sys.stderr)
            return 1
        rows.append((g, *row))
    _write_table(["g", "p", "a", "s"], rows, args.format, args.out)
    return 0


def cmd_density(args) -> int:
    from . import density as density_mod
    from .arith import DimensionParam

    g = DimensionParam(args.g)
    checkpoints = (
        _parse_checkpoints(args.checkpoints)
        if args.checkpoints is not None
        else density_mod.DEFAULT_CHECKPOINTS
    )
    series = density_mod.density_series(g, checkpoints)
    with _output(args.out) as out:
        if args.series is not None:
            # the stream is written as the pass runs and the table after it;
            # a --series path that cannot be opened still gets the table out
            try:
                stream = open(args.series, "w")
            except OSError:
                _write_records(series, args.format, out)
                raise
            with stream:
                header = ["p", "f_num", "f_den", "f_decimal"]
                report.write_columns(header, _stream_rows(series), args.format, stream)
        return _write_records(series, args.format, out)


def _write_records(series: DensitySeries, fmt: str, fh: TextIO) -> int:
    """Write the checkpoint table, and return 0, if pi(x) at the last checkpoint
    agrees with `density.prime_count`, which shares no code with the pass; 1 if not."""
    from .density import prime_count

    last = series.records[-1]
    if last.count_p != (want := prime_count(last.x)):
        counted = f"pi({last.x}) = {want}, the pass counted {last.count_p}"
        print(f"check failed: {counted}", file=sys.stderr)
        return 1
    rows = (
        [
            rec.x,
            rec.count_pg,
            rec.count_p,
            rec.f.numerator,
            rec.f.denominator,
            report.decimal_string(rec.f),
            report.decimal_string(rec.diff),
        ]
        for rec in series.records
    )
    header = ["x", "count_pg", "count_p", "f_num", "f_den", "f_decimal", "diff_decimal"]
    report.write_table(header, rows, fmt, fh)
    return 0


def _stream_rows(series: DensitySeries) -> Iterator[tuple]:
    """The columns p, f_num, f_den and f_decimal of each chunk of the series,
    with f(p) = members / (primes <= p) in lowest terms: int64 arrays, and
    f_decimal as the int64 pair of `report.fixed_point`."""
    import numpy as np

    for primes, members, count in series:
        den = np.arange(count + 1, count + len(members) + 1)
        common = np.gcd(members, den)
        f_num, f_den = members // common, den // common
        yield primes, f_num, f_den, report.fixed_point(f_num, f_den)


def cmd_limit(args) -> int:
    from .arith import DimensionParam
    from .quadforms import asymptotic_limit, class_number

    g = DimensionParam(args.g)
    h = class_number(-8 * g.g - 4)
    lim = asymptotic_limit(g, h)
    rows = [[g.g, h, lim.numerator, lim.denominator, report.decimal_string(lim)]]
    header = ["g", "h", "limit_num", "limit_den", "limit_decimal"]
    _write_table(header, rows, args.format, args.out)
    return 0


def cmd_classnum(args) -> int:
    from .quadforms import class_number

    rows = [[args.disc, class_number(args.disc)]]
    _write_table(["disc", "h"], rows, args.format, args.out)
    return 0


def cmd_certify(args) -> int:
    from .arith import DimensionParam
    from .weil import run_certificate_checks

    g = DimensionParam(args.g)
    checks, cert = run_certificate_checks(g, args.p)
    if cert is None:
        header = ["identity", "status", "detail"]
        rows = [
            [n, "pass" if ok else "fail", d.replace(",", ";")] for n, ok, d in checks
        ]
        _write_table(header, rows, args.format, args.out)
        name, _, detail = checks[-1]
        print(f"certificate failed [{name}]: {detail}", file=sys.stderr)
        return 1
    header = [*cert._fields, *("check_" + n.replace("-", "_") for n, _, _ in checks)]
    q, b = str(cert.q), str(cert.weil_b)  # weil_c is q
    row = [*cert._replace(q=q, weil_b=b, weil_c=q), *("pass" for _ in checks)]
    if args.format == "markdown":
        _write_table(["field", "value"], zip(header, row), "markdown", args.out)
    else:
        _write_table(header, [row], args.format, args.out)
    return 0


def cmd_plot(args) -> int:
    import numpy as np

    from . import density as density_mod
    from .arith import DimensionParam

    g = DimensionParam(args.g)
    if args.x_max < 2:
        raise ValueError(f"--x-max must be >= 2, got {args.x_max}")
    # the decimation step needs pi(x_max) before the first point is kept;
    # prime_count finds it without a sieve, so the pass below is the only one
    total = density_mod.prime_count(args.x_max)
    step = report.decimation(total)
    series = density_mod.density_series(g, (args.x_max,))
    xs: list[int] = []
    fs: list[float] = []
    for primes, members, count in series:
        keep = np.arange(-count % step, len(primes), step)
        xs += primes[keep].tolist()
        fs += (members[keep] / (count + 1 + keep)).tolist()
        del primes, members  # before the next window is sieved
    report.check_svg_points(xs, fs, total)  # before --out is opened
    with _output(args.out) as fh:
        report.emit_svg(xs, fs, total, series.limit, g.g, args.x_max, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilcert",
        description="Weil quadruple certificates and prime-density experiments "
        "for Sophie Germain prime dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=report.FORMATS, default="csv", help="output format"
        )
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("find", help="smallest-p quadruple for one g")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--p-max", type=int, default=DEFAULT_FIND_PMAX)
    p.add_argument("--p", type=int, default=None, help="with --m: solve at this p")
    p.add_argument(
        "--m",
        type=int,
        default=None,
        help="solve a^2 - 4p^(g-2m) = -(2g+1)s^2 at the given --p",
    )
    common(p)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("scan", help="all quadruples with p up to a bound")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table2", help="smallest-p quadruple per dimension g")
    p.add_argument("--g-max", type=int, default=DEFAULT_G_MAX)
    p.add_argument("--p-max", type=int, default=DEFAULT_FIND_PMAX)
    common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("density", help="exact counting function at checkpoints")
    p.add_argument("--g", type=int, required=True)
    p.add_argument(
        "--checkpoints", default=None, help="comma-separated ascending integers"
    )
    p.add_argument(
        "--series", default=None, help="also write the per-prime stream to this path"
    )
    common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("limit", help="class number and density limit for one g")
    p.add_argument("--g", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("certify", help="verify all certificate identities")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("classnum", help="class number of a negative discriminant")
    p.add_argument("--disc", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_classnum)

    p = sub.add_parser("plot", help="SVG scatter of the counting function")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--x-max", type=int, default=DEFAULT_PLOT_XMAX)
    p.add_argument("--out", default=None, help="write output to this path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # no command multiplies matrices: numpy's BLAS starts no idle threads
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if argv is None:  # the process entry: exit then skips collecting the heap
            gc.freeze()


def _run(args: argparse.Namespace) -> int:
    try:
        if getattr(args, "p_max", 2) < 2:  # find, scan and table2 search up to it
            raise ValueError(f"--p-max must be >= 2, got {args.p_max}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
