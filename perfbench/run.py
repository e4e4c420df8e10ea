#!/usr/bin/env python3
"""The weilcert benchmark: whole CLI commands, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload density --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload, one table

Each workload is a fixed list of `python -m weilcert.cli` commands (a "pass").
The benchmark runs passes one after another, each command in a fresh
subprocess with stdout to a file, one process at a time (closed loop, one
client), until the next pass would overrun --seconds. Commands start
through spawn.py, so that each child's peak RSS is its own. Every output is
checked (see check.py); a command fails on a nonzero exit, a timeout, or an
output that fails its check.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       median wall time of one pass
  setup_s      median time for a fresh interpreter to `import weilcert.cli`
               and exit, sampled before every pass
  peak_rss_mb  largest child ru_maxrss (from os.wait4) in a pass, median over passes
It also prints error_rate = failed / attempted, which the result line
carries as "failed" and "attempted".

--trace 1 alternates an untraced pass with a traced one, where every
command runs under tracer.py, and reports the per-layer metrics named in
BENCHMARK.json: self time, calls and counters of the public functions of
each src/weilcert module, medians over traced passes. It fails loudly when
the span coverage self-check fails.

--seed 0 runs the default inputs, which the reference tables and recorded
digests cover. Any other seed picks one entry of the workload's pool: the
same commands with other g, sized to cost about the same.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Details (every sample, each failure's exit
code and first stderr line, the environment) go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata, util
from pathlib import Path

from check import Checker, option, sha256
from tracer import COVERAGE_EXIT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

HARD_LIMIT_S = 170.0  # the whole run, including set-up, must end within 180 s
SETUP_PER_PASS = 2
MIN_SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")

CPS = "100,150,200,1000,10000,100000,1000000"


def density(g, checkpoints=None):
    return ["density", "--g", str(g)] + (["--checkpoints", checkpoints] if checkpoints else [])


def series(g, path, fmt="csv"):
    return density(g) + (["--format", fmt] if fmt != "csv" else []) + ["--series", path]


def certify(g, p):
    return ["certify", "--g", str(g), "--p", str(p)]


# Entry 0 of each list is the default input set; the others form the pool
# that other seeds draw from. Pool entries change g and rescale the size so
# that a pass costs about the same and the peak-RSS command keeps its size.
WORKLOADS: dict[str, list[list[list[str]]]] = {
    # The kernels y-scan (about 90% of the time) at two values of n = 2g+1;
    # its cost grows like sqrt(p/n) per prime. Rendering is negligible.
    "density": [
        [density(11, CPS + ",10000000"), density(5)],
        [density(23, CPS + ",10000000"), density(5, CPS + ",3700000")],
        [density(29, CPS + ",10000000"), density(5, CPS + ",4300000")],
        [density(41, CPS + ",10000000"), density(5, CPS + ",4900000")],
        [density(11, CPS + ",10000000"), density(3)],
    ],
    # Per-prime streams: Fraction building in cli plus decimal_string and
    # emit_table, and a second sieve + classification per --series command.
    "series": [
        [series(11, "S.csv"), series(5, "S.json", "json"), ["plot", "--g", "11", "--x-max", "1000000"]],
        [series(5, "S.csv"), series(11, "S.json", "json"), ["plot", "--g", "11", "--x-max", "1000000"]],
        [series(11, "S.csv"), series(11, "S.json", "json"), ["plot", "--g", "5", "--x-max", "1000000"]],
        [series(23, "S.csv"), series(5, "S.json", "json"), ["plot", "--g", "5", "--x-max", "1000000"]],
        [series(5, "S.csv"), series(23, "S.json", "json"), ["plot", "--g", "5", "--x-max", "1000000"]],
    ],
    # The per-prime represent_x2_ny2 loop under scan_quadruples and find_smallest.
    "quadruples": [
        [["scan", "--g", "11", "--p-max", "1000000"], ["table2", "--g-max", "509"]],
        [["scan", "--g", "5", "--p-max", "820000"], ["table2", "--g-max", "419"]],
        [["scan", "--g", "23", "--p-max", "1240000"], ["table2", "--g-max", "509"]],
        [["scan", "--g", "29", "--p-max", "1340000"], ["table2", "--g-max", "293"]],
        [["scan", "--g", "41", "--p-max", "1490000"], ["table2", "--g-max", "509"]],
    ],
    # Big-integer arith/weil work for growing g; each p is the smallest for its g.
    # Not listed in BENCHMARK.json while g >= 1229 fails at str(q) (the 4300-digit
    # int-to-str limit): listed workloads must run without failures.
    "certify": [
        [certify(1013, 2063), certify(3023, 6947), certify(10061, 21023)],
        [certify(1031, 2099), certify(2969, 6263), certify(10091, 20219)],
        [certify(1019, 2939), certify(2939, 6203), certify(10163, 20903)],
        [certify(1049, 2243), certify(2963, 6827), certify(10253, 20543)],
    ],
}


def select_inputs(workload: str, seed: int) -> tuple[int, list[list[str]]]:
    entries = WORKLOADS[workload]
    index = 0 if seed == 0 else random.Random(seed).randrange(1, len(entries))
    return index, entries[index]


@dataclass
class Child:
    """One finished command: wall time, exit code, peak RSS, first stderr line."""

    wall: float
    rc: int
    rss_mb: float
    timed_out: bool
    stderr: str = ""


class Spawner:
    """Runs commands one at a time through spawn.py (see there for why)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=WORK,
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], timeout: float, stdout_path: Path) -> Child:
        request = {"cmd": cmd, "stdout": str(stdout_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("spawn.py stopped unexpectedly")
        lines = (WORK / "stderr.txt").read_text(errors="replace").splitlines()
        return Child(**json.loads(reply), stderr=lines[0] if lines else "")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                                 capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, started: float,
                 spawner: Spawner):
        self.seconds, self.trace, self.started, self.spawner = seconds, trace, started, spawner
        self.index, self.commands = select_inputs(workload, seed)
        self.checker = Checker(json.loads((BENCH / "reference.json").read_text()))
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failures: Counter = Counter()
        self.failed = 0
        self.missing: set[str] = set()  # traced functions absent from src; they read 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def time_setup(self) -> float:
        child = self.spawner.run([sys.executable, "-c", "import weilcert.cli"], self.remaining(),
                                 WORK / "setup.out")
        if child.rc != 0:
            raise SystemExit(f"import weilcert.cli failed: {child.stderr}")
        return child.wall

    def run_command(self, i: int, argv: list[str], spans: Path | None) -> Child:
        side = [option(argv, "--series")] if "--series" in argv else []
        for path in [WORK / name for name in side] + ([spans] if spans else []):
            path.unlink(missing_ok=True)
        if spans is None:
            cmd = [sys.executable, "-m", "weilcert.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(i), "--", *argv]
        child = self.spawner.run(cmd, self.remaining(), WORK / f"cmd{i}.out")
        self.attempted += 1
        problems = []
        if child.timed_out:
            problems = ["timed out"]
        elif child.rc == 0:
            outputs = {"stdout": (WORK / f"cmd{i}.out").read_bytes()}
            outputs.update({n: (WORK / n).read_bytes() for n in side if (WORK / n).exists()})
            key = (tuple(argv),) + tuple(sorted((n, sha256(b)) for n, b in outputs.items()))
            if key not in self.verdicts:
                self.verdicts[key] = self.checker.check(argv, outputs, self.index == 0)
            problems = self.verdicts[key]
        if child.rc != 0 or problems:
            self.failed += 1
            self.failures[(" ".join(argv), child.rc, child.stderr, "; ".join(problems[:3]))] += 1
        return child

    def run_pass(self, traced: bool) -> tuple[float, float, list[dict]]:
        """(wall, peak RSS, span records) of one pass over the commands."""
        wall, rss, records = 0.0, 0.0, []
        for i, argv in enumerate(self.commands):
            spans = WORK / f"spans{i}.json" if traced else None
            child = self.run_command(i, argv, spans)
            wall += child.wall
            rss = max(rss, child.rss_mb)
            if traced:
                if child.rc == COVERAGE_EXIT or not spans.exists():
                    raise SystemExit(f"traced run of {' '.join(argv)} failed the span coverage "
                                     f"self-check or wrote no spans: {child.stderr}")
                records.append(json.loads(spans.read_text()))
                self.missing.update(records[-1]["missing"])
        return wall, rss, records

    def measure(self) -> dict:
        samples = {"wall_s": [], "peak_rss_mb": [], "setup_s": [], "traced_wall_s": []}
        layers: list[dict] = []
        import_s: list[float] = []
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            if not self.trace:
                samples["setup_s"] += [self.time_setup() for _ in range(SETUP_PER_PASS)]
            wall, rss, _ = self.run_pass(traced=False)
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            if self.trace:
                wall, _, records = self.run_pass(traced=True)
                samples["traced_wall_s"].append(wall)
                layers.append(layer_metrics(records))
                import_s += [r["import_s"] for r in records]
            took = time.perf_counter() - start
            elapsed = time.perf_counter() - t0
            if elapsed + took > self.seconds or took > self.remaining() - 5:
                break
        while not self.trace and len(samples["setup_s"]) < MIN_SETUP_SAMPLES \
                and self.remaining() > 5:
            samples["setup_s"].append(self.time_setup())
        values = {k: median(v) for k, v in samples.items()}
        if self.trace:
            for name in set().union(*layers):
                values[name] = median([m.get(name, 0) for m in layers])
            values["setup.import_s"] = median(import_s)
            values["trace.overhead_s"] = values["traced_wall_s"] - values["wall_s"]
        return {"values": values, "samples": samples}


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer totals over one traced pass, plus the span self-checks.

    A span's self time is its duration minus its direct children's
    durations. The self times of all spans of a command must add up to its
    root `cli.main` span; the cli.main and cli.cmd_* self times form cli.self_s.
    """
    m: Counter = Counter()
    kinds: Counter = Counter()
    for rec in records:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for name, parent, t0, t1, exc in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        roots = [s for s in spans if s[1] is None]
        if len(roots) != 1 or roots[0][0] != "cli.main":
            raise SystemExit(f"trace {rec['trace_id']}: spans outside cli.main: "
                             f"{sorted({s[0] for s in roots})}")
        total = 0.0
        for (name, parent, t0, t1, exc), cover in zip(spans, covered):
            self_s = t1 - t0 - cover
            total += self_s
            m[("cli" if name.startswith("cli.") else name) + ".self_s"] += self_s
            m[name + ".calls"] += 1
            if exc and name.startswith("cli.cmd_"):
                m["cli.errors"] += 1
                kinds[exc] += 1
        main_s = roots[0][3] - roots[0][2]
        if abs(total - main_s) > 1e-6 + 1e-9 * len(spans):
            raise SystemExit(f"trace {rec['trace_id']}: self times add up to {total:.6f} s, "
                             f"cli.main took {main_s:.6f} s")
        for key, value in rec["counts"].items():
            m[key] = max(m[key], value) if key.endswith(".digits") else m[key] + value
    primes_in = m["kernels.representable_flags.primes_in"]
    m["kernels.representable_flags.hit_ratio"] = (
        m["kernels.representable_flags.members_out"] / primes_in if primes_in else 0.0)
    m.update({f"cli.errors.{k}": v for k, v in kinds.items()})
    return dict(m)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
                 env: dict, started: float, spawner: Spawner) -> tuple[dict, float]:
    """Measure one workload and print its block; returns (result line, error rate)."""
    bench = Bench(workload, seed, seconds, trace, started, spawner)
    measured = bench.measure()
    values = measured["values"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    error_rate = bench.failed / bench.attempted
    failures = [{"command": c, "exit": rc, "stderr": err, "problems": p, "count": n}
                for (c, rc, err, p), n in bench.failures.items()]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed, "inputs": bench.index, "seconds": seconds,
        "trace": trace, "commands": bench.commands, "result": result,
        "error_rate": error_rate, "failures": failures, "values": values,
        "samples": measured["samples"], "missing": sorted(bench.missing), "environment": env,
    }, indent=1))

    n = measured["samples"]
    print(f"{workload}: seed {seed}, inputs {'default' if bench.index == 0 else f'pool {bench.index}'}, "
          f"trace {int(trace)}")
    for argv in bench.commands:
        print("  weilcert " + " ".join(argv))
    counts = {"wall_s": f"median of {len(n['wall_s'])} passes",
              "peak_rss_mb": f"median of {len(n['peak_rss_mb'])} passes",
              "setup_s": f"median of {len(n['setup_s'])} imports"}
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6f} {m['unit']:<8} {counts.get(name, '')}")
    print(f"  {'error_rate':<42} {error_rate:>14.6f} {'fraction':<8} "
          f"{bench.failed} of {bench.attempted} commands failed")
    for name in sorted(k for k in values if k.startswith("cli.errors.")):
        print(f"  {name:<42} {values[name]:>14.6f} count    exceptions of this kind")
    if bench.missing:
        print("  not in src/weilcert, so reading 0: " + ", ".join(sorted(bench.missing)))
    for f in failures:
        print(f"  FAILED x{f['count']}: weilcert {f['command']}: exit {f['exit']}: "
              f"{f['stderr'] or f['problems']}")
    print(f"  correct: {'yes' if result['correct'] else 'no'}; details in "
          f"{out.relative_to(ROOT)}")
    return result, error_rate


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "weilcert" / "cli.py").is_file():
        print(f"no weilcert sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    for stale in WORK.iterdir():
        stale.unlink()
    probe = subprocess.run([sys.executable, "-c", "import weilcert.cli; print(weilcert.cli.__file__)"],
                           cwd=WORK, env=child_env(), capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(ROOT / "src"):
        print(f"cannot import weilcert.cli from {ROOT / 'src'}: {probe.stderr.strip()}",
              file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    spawner = Spawner()
    try:
        for w in workloads:
            started_w = time.perf_counter() if args.workload == "all" else started
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), spec, env,
                                      started_w, spawner)
    finally:
        spawner.close()
    if args.workload != "all":
        print(json.dumps(results[args.workload][0]))
        return 0
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if not args.trace:
        print(f"{'workload':<11}" + "".join(f"{n:>16}" for n in names) + f"{'error_rate':>16}  correct")
        for w, (r, error_rate) in results.items():
            print(f"{w:<11}" + "".join(f"{r['metrics'][n]['value']:>12.4f} {r['metrics'][n]['unit']:<3}"
                                       for n in names)
                  + f"{error_rate:>16.4f}  {'yes' if r['correct'] else 'no'}")
    print(json.dumps({w: r | {"error_rate": e} for w, (r, e) in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
