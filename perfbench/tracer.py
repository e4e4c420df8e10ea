"""Run one weilcert CLI command in-process with a span around every layer call.

Usage (started by run.py, one fresh process per command):

    python3 perfbench/tracer.py SPANS_JSON TRACE_ID -- <weilcert argv ...>

The wrapping happens here, from the benchmark's own code; nothing in
`src/weilcert` knows about it. Each public function in TARGETS is replaced
by a timing wrapper in every `weilcert.*` namespace that bound it (for
example `sieve_primes` in `arith`, `density` and `weil`), so calls through
any import path are seen. `cli.main` is the root span and the `cli.cmd_*`
handlers belong to the `cli` layer.

A span is [name, parent index, start, end, exception name or None]; spans
stay in memory and are written to SPANS_JSON when the command ends, with
the per-call counters, the in-process import time and the command's exit
code. Exit code 70 means the coverage self-check failed: a wrapped function
is still reachable unwrapped from some weilcert module.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import math
import resource
import sys
import time
import types

COVERAGE_EXIT = 70

# Public functions timed as spans, by home module; a span is named "module.function".
TARGETS = (
    ("kernels", "representable_flags"),
    ("arith", "sieve_primes"),
    ("arith", "hensel_sqrt"),
    ("arith", "squarefree_kernel"),
    ("arith", "padic_valuation"),
    ("arith", "multiplicative_order"),
    ("arith", "is_prime"),
    ("density", "density_series"),
    ("density", "prime_series"),
    ("report", "decimal_string"),
    ("report", "emit_table"),
    ("report", "emit_svg"),
    ("quadforms", "represent_x2_ny2"),
    ("quadforms", "class_number"),
    ("weil", "scan_quadruples"),
    ("weil", "find_smallest"),
    ("weil", "run_certificate_checks"),
    ("weil", "valuations_oracle"),
    ("weil", "cm_field_discriminant"),
    ("weil", "weil_polynomial"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def decimal_digits(base: int, exp: int) -> int:
    """Number of decimal digits of base**exp, for base >= 2 not a power of 10."""
    k = round(exp * math.log10(base))
    # base**exp lies within a rounding error of 10**k, so one exact compare settles it
    return k + 1 if base**exp >= 10**k else k


def _count_flags(counts, args, result):
    counts["kernels.representable_flags.primes_in"] += len(args[0])
    counts["kernels.representable_flags.members_out"] += int(result.sum())


def _count_sieve(counts, args, result):
    counts["arith.sieve_primes.primes"] += len(result)


def _count_represent(counts, args, result):
    counts["quadforms.represent_x2_ny2.hits"] += result is not None


def _count_table(counts, args, result):
    counts["report.emit_table.bytes"] += len(result.encode())


def _count_weil(counts, args, result):
    w = args[0]
    digits = decimal_digits(w.p, w.g.g)
    key = "weil.weil_polynomial.digits"
    counts[key] = max(counts[key], digits)


COUNTERS = {
    "kernels.representable_flags": _count_flags,
    "arith.sieve_primes": _count_sieve,
    "quadforms.represent_x2_ny2": _count_represent,
    "report.emit_table": _count_table,
    "weil.weil_polynomial": _count_weil,
}

# Spans whose peak-RSS growth is recorded as "<name>.rss_growth_mb".
RSS_SPANS = {"arith.sieve_primes"}


class Tracer:
    """Span recorder; one instance per traced command."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        track_rss = name in RSS_SPANS
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb() if track_rss else 0.0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if track_rss:
                counts[name + ".rss_growth_mb"] += _maxrss_mb() - rss0
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper


def weilcert_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if (k == "weilcert" or k.startswith("weilcert.")) and m is not None]


def held_objects(module, wrappers: set[int]):
    """(label, object) for what a module holds: its attributes, the items of
    attribute containers, and the defaults and closure cells of the functions
    it defines (seen through any wrapper in `wrappers`)."""
    for attr, value in vars(module).items():
        label = f"{module.__name__}.{attr}"
        yield label, value
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple, set, frozenset)):
            yield from ((label + "[]", v) for v in value)
            continue
        fn = value.__wrapped__ if id(value) in wrappers else value
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            held = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
            for cell in fn.__closure__ or ():
                try:
                    held.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
            yield from ((label + "()", v) for v in held)


def patch(tracer: Tracer) -> tuple[list[str], list[str]]:
    """Wrap every target in every weilcert namespace bound to it.

    Returns (missing, unpatched): targets absent from their home module, and
    places in any weilcert module that still hold an original function
    afterwards, so that calls through them would escape the trace.
    """
    cli = importlib.import_module("weilcert.cli")
    targets = list(TARGETS)
    targets += [("cli", k) for k, v in sorted(vars(cli).items())
                if k == "main" or (k.startswith("cmd_") and callable(v))]
    originals: dict[int, object] = {}
    wrappers: set[int] = set()
    missing = []
    for mod, fname in targets:
        home = importlib.import_module("weilcert." + mod)
        fn = getattr(home, fname, None)
        if fn is None:
            missing.append(f"{mod}.{fname}")
            continue
        wrapper = tracer.wrap(f"{mod}.{fname}", fn)
        originals[id(fn)] = fn
        wrappers.add(id(wrapper))
        for module in weilcert_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
    unpatched = [label for module in weilcert_modules()
                 for label, value in held_objects(module, wrappers)
                 if id(value) in originals and originals[id(value)] is value]
    return missing, unpatched


def main(argv: list[str]) -> int:
    spans_path, trace_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON TRACE_ID -- <weilcert argv>")
    t0 = time.perf_counter()
    importlib.import_module("weilcert.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing, unpatched = patch(tracer)
    record = {"trace_id": trace_id, "argv": cli_argv, "import_s": import_s,
              "missing": missing, "unpatched": unpatched, "rc": None}
    try:
        if unpatched:
            print("span coverage self-check failed, unwrapped: " + ", ".join(unpatched),
                  file=sys.stderr)
            record["rc"] = COVERAGE_EXIT
        else:
            record["rc"] = sys.modules["weilcert.cli"].main(cli_argv)
    finally:
        sys.stdout.flush()
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
        with open(spans_path, "w") as fh:
            json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
