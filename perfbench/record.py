#!/usr/bin/env python3
"""Write perfbench/reference.json, the reference data behind the checks.

Run from the repository root, at a commit whose outputs are known good:

    python3 perfbench/record.py

It copies the reference tables that the test suite gates on (TABLE2 and
TABLE3 from tests/conftest.py, the density acceptance CSV from
tests/test_acceptance.py), runs every command of every workload's default
inputs once, and stores the SHA-256 digest of each output of every command
that exits 0 and passes its structural and table checks; `plot` SVGs get
no digest, since their float coordinates are checked structurally only. The g = 11 row at
10^7, which no table covers, is first confirmed against the independent
per-prime classification in tests/oracles.py (minutes of pure Python).
Commands that fail get no digest and are listed as such.
"""

from __future__ import annotations

import json
import sys

from check import Checker, option, sha256
from run import BENCH, ROOT, WORK, WORKLOADS, Spawner

sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import conftest  # noqa: E402
import oracles  # noqa: E402
import test_acceptance  # noqa: E402

ORACLE_COMMAND = WORKLOADS["density"][0][0]
PREFIXES = {
    " ".join(ORACLE_COMMAND): "TABLE4_CSV",
    " ".join(WORKLOADS["series"][0][0]): "TABLE4_CSV",
    " ".join(WORKLOADS["quadruples"][0][0]): "TABLE3_CSV",
}


def confirm_oracle_row(stdout: bytes) -> str:
    """The last density row, after checking its counts against tests/oracles.py."""
    row = stdout.decode().splitlines()[-1]
    x, count_pg, count_p = (int(v) for v in row.split(",")[:3])
    g = int(option(ORACLE_COMMAND, "--g"))
    want_pg, _, want_p = oracles.density_counts(g, oracles.primes_upto(x), [x])[x]
    if (count_pg, count_p) != (want_pg, want_p):
        raise SystemExit(f"row {row} disagrees with the oracle: {want_pg}, {want_p}")
    return row


def main() -> int:
    reference = {
        "TABLE2": [list(row) for row in conftest.TABLE2],
        "TABLE3_CSV": test_acceptance.EXPECTED_TABLE3_CSV,
        "TABLE4_CSV": test_acceptance.EXPECTED_DENSITY_CSV,
        "prefixes": PREFIXES,
        "digests": {},
        "failed_at_record": {},
    }
    checker = Checker(reference)
    WORK.mkdir(exist_ok=True)
    spawner = Spawner()
    for workload, entries in WORKLOADS.items():
        for argv in entries[0]:
            key = " ".join(argv)
            side = [option(argv, "--series")] if "--series" in argv else []
            for name in side:
                (WORK / name).unlink(missing_ok=True)
            child = spawner.run([sys.executable, "-m", "weilcert.cli", *argv], 600, WORK / "rec.out")
            if child.timed_out:
                raise SystemExit(f"{key}: timed out")
            outputs = {"stdout": (WORK / "rec.out").read_bytes()}
            outputs.update({n: (WORK / n).read_bytes() for n in side})
            problems = checker.check(argv, outputs, default=True) if child.rc == 0 else []
            if child.rc != 0:
                reference["failed_at_record"][key] = f"exit {child.rc}: {child.stderr}"
                print(f"{workload}: {key}: exit {child.rc}: {child.stderr} (no digest)")
                continue
            if problems:
                raise SystemExit(f"{key}: {problems}")
            if argv == ORACLE_COMMAND:
                print(f"confirmed against tests/oracles.py: {confirm_oracle_row(outputs['stdout'])}")
            if argv[0] == "plot":
                print(f"{workload}: {key}: checked structurally, no digest")
                continue
            reference["digests"][key] = {n: sha256(b) for n, b in outputs.items()}
            print(f"{workload}: {key}: recorded {', '.join(outputs)}")
    spawner.close()
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
