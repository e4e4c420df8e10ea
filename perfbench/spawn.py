"""Start the benchmark's commands from a small process, one at a time.

On Linux a child's ru_maxrss starts at the peak RSS of the process that
spawned it, because the spawner's high-water mark is carried into the
child at exec. run.py grows while it checks outputs, so it sends every
command here instead; this process stays small, and each child's peak RSS
is its own.

Protocol: one JSON request per stdin line, {"cmd": [...], "stdout": path,
"timeout": seconds}; one JSON reply per stdout line, {"wall": s, "rc": n,
"rss_mb": x, "timed_out": bool}. The child's stderr goes to stderr.txt in
the working directory; its environment is this process's environment.
"""

import json
import os
import signal
import subprocess
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def run(cmd: list[str], stdout: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open("stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        res = None
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.5))
        try:
            res = os.wait4(proc.pid, 0)
        except Timeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        timed_out = res is None
        if timed_out:
            proc.kill()
            res = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    _, status, usage = res
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024,
            "timed_out": timed_out}


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["cmd"], req["stdout"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
