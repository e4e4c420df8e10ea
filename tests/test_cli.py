import collections
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import weilcert
from weilcert import cli, density, kernels, quadforms, report, weil
from weilcert.cli import main
from weilcert.density import density_series
from weilcert.arith import DimensionParam
from weilcert.report import FORMATS, decimal_string, fixed_point
from weilcert.weil import run_certificate_checks
import oracles
from conftest import TABLE3, count_primality_tests, traced_peak


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def forbid_cap_change(limit):
    """Stands in for sys.set_int_max_str_digits where no call may reach it."""
    raise AssertionError(f"int-to-str digit cap set to {limit}")


def child_peak_rss_mb(*argv):
    """Peak RSS in MB of one weilcert command, which must exit 0.

    Linux carries the spawner's high-water mark into a child at exec, so
    the command starts from a bare interpreter rather than from this
    process, whose own peak would be read instead.
    """
    spawn = (
        "import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ); "
        "_, status, usage = os.wait4(pid, 0); "
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
    )
    src = str(Path(weilcert.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", spawn, sys.executable, "-m", "weilcert.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300, check=True,
    )
    rc, maxrss = child.stdout.split()
    assert rc == "0", child.stderr
    return int(maxrss) / 1024  # ru_maxrss is in KiB on Linux


class TestFind:
    def test_known_row(self, capsys):
        rc, out, _ = run(capsys, "find", "--g", "83")
        assert rc == 0
        assert out == "g,p,a,s\n83,311,24,2\n"

    def test_not_sophie_germain(self, capsys):
        rc, _, err = run(capsys, "find", "--g", "7")
        assert rc == 2
        assert "7 is not a Sophie Germain prime" in err

    def test_p_max_past_old_sieve_budget(self, capsys):
        # the form values stop at p = 47, far below the limit
        rc, out, err = run(capsys, "find", "--g", "5", "--p-max", "300000000")
        assert (rc, out, err) == (0, "g,p,a,s\n5,47,12,2\n", "")

    def test_exhausted_bound(self, capsys):
        rc, _, err = run(capsys, "find", "--g", "5", "--p-max", "43")
        assert rc == 1
        assert "no prime found" in err

    def test_general_equation(self, capsys, monkeypatch):
        calls = count_primality_tests(monkeypatch)
        rc, out, _ = run(capsys, "find", "--g", "5", "--p", "47", "--m", "1")
        assert rc == 0
        assert out == "g,p,m,a,s\n5,47,1,36,194\n"
        # g and 2g+1 by DimensionParam, p once by solve_general_p1m
        assert calls == [5, 11, 47]

    def test_general_equation_past_old_s_bound(self):
        # s = 1108188 lies past the 10^6 cap of the former s-walk; run as a
        # process so an escaping exception shows as a traceback
        src = str(Path(weilcert.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-m", "weilcert.cli", "find", "--g", "5", "--p", "15013",
             "--m", "1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300,
        )
        assert child.returncode == 0
        assert "Traceback" not in child.stderr
        assert child.stdout == "g,p,m,a,s\n5,15013,1,161998,1108188\n"

    def test_general_equation_past_int_str_digit_limit(self, capsys, monkeypatch):
        # a has 4323 digits, past CPython's default 4300-digit int-to-str
        # limit, and is written without touching that interpreter-wide cap
        set_cap = sys.set_int_max_str_digits
        saved = sys.get_int_max_str_digits()
        set_cap(4300)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "set_int_max_str_digits", forbid_cap_change)
                rc, out, err = run(
                    capsys, "find", "--g", "2339", "--p", "5003", "--m", "1"
                )
            assert sys.get_int_max_str_digits() == 4300
            assert rc == 0, err
            set_cap(0)  # to read the row back
            header, row = out.splitlines()
            g, p, m, a, s = (int(v) for v in row.split(","))
            digits = len(str(a))
        finally:
            set_cap(saved)
        assert header == "g,p,m,a,s" and (g, p, m) == (2339, 5003, 1)
        assert digits == 4323
        assert a * a - 4 * p ** (g - 2 * m) == -(2 * g + 1) * s * s
        assert math.gcd(a, p) == 1

    def test_general_equation_needs_prime_p(self, capsys):
        # solve_general_p1m rejects p at its entry, before any square root
        for p in ("15", "1", "-7", "4", "9"):
            rc, out, err = run(capsys, "find", "--g", "5", "--p", p, "--m", "1")
            assert rc == 2 and out == ""
            assert err == f"error: modulus {p} is not an odd prime\n"

    def test_general_equation_rejects_p_before_p_to_the_k(self, capsys):
        # p^(g-2m) would have about 6 million digits here: p is tested first
        start = time.perf_counter()
        rc, out, err = run(capsys, "find", "--g", "500333", "--p", "1000000000000", "--m", "1")
        assert (rc, out) == (2, "")
        assert err == "error: modulus 1000000000000 is not an odd prime\n"
        assert time.perf_counter() - start < 1

    def test_m_requires_p(self, capsys):
        rc, _, err = run(capsys, "find", "--g", "5", "--m", "1")
        assert rc == 2
        assert "--m requires --p" in err
        rc, _, err = run(capsys, "find", "--g", "5", "--p", "47")
        assert rc == 2
        assert "--p requires --m" in err


class TestScan:
    def test_empty_below_first_member(self, capsys):
        rc, out, _ = run(capsys, "scan", "--g", "11", "--p-max", "58")
        assert rc == 0
        assert out == "p,a,s\n"

    def test_prefix(self, capsys):
        rc, out, _ = run(capsys, "scan", "--g", "11", "--p-max", "250")
        assert rc == 0
        rows = out.strip().split("\n")[1:]
        want = [f"{p},{a},{s}" for p, a, s in TABLE3 if p <= 250]
        assert rows == want

    def test_sieved_primes_are_not_retested(self, capsys, monkeypatch):
        # DimensionParam tests g and 2g+1; every p of scan comes from the
        # sieve, and find tests each odd form value != 1 (mod 59) once, in
        # ascending order, up to its p
        calls = count_primality_tests(monkeypatch)
        rc, out, _ = run(capsys, "scan", "--g", "11", "--p-max", "100000")
        assert rc == 0 and len(out.splitlines()) == 1 + 1426
        assert calls == [11, 23]
        calls.clear()
        rc, out, _ = run(capsys, "find", "--g", "29")
        assert (rc, out) == (0, "g,p,a,s\n29,317,18,4\n")
        values = (x * x + 59 * y * y for x in range(1, 17) for y in (1, 2))
        tested = sorted(v for v in values if v <= 317 and v % 2 and v % 59 != 1)
        assert calls == [29, 59, *tested] and tested[-1] == 317

    def test_scan_peak_is_the_pass(self, capsys, tmp_path):
        # writing a window's rows adds at most a tenth of the pass's own
        # working set: no frame keeps a window's arrays while its rows are written
        argv = ["scan", "--g", "11", "--p-max", "1000000", "--out", str(tmp_path / "S.csv")]
        assert run(capsys, *argv)[0] == 0  # the modules argparse imports on first use
        bare = traced_peak(
            lambda: collections.deque(kernels.classified_windows(10**6, 23), maxlen=0)
        )
        assert traced_peak(lambda: main(argv)) <= 1.10 * bare

    def test_table2_does_not_retest_g(self, capsys, monkeypatch):
        # every g and 2g+1 comes from the Sophie Germain list, tested there
        # once: table2 validates no g again as a DimensionParam
        built = []
        validate = DimensionParam.__post_init__

        def counted(dim):
            built.append(dim.g)
            validate(dim)

        monkeypatch.setattr(DimensionParam, "__post_init__", counted)
        rc, out, _ = run(capsys, "table2")
        assert rc == 0 and len(out.splitlines()) == 1 + 24
        assert built == []
        assert run(capsys, "find", "--g", "509")[0] == 0
        assert built == [509]  # the patch reaches the command


class TestPMax:
    @pytest.mark.parametrize(
        "command", [["find", "--g", "5"], ["scan", "--g", "5"], ["table2"]]
    )
    def test_below_2_is_argument_error(self, capsys, command):
        rc, out, err = run(capsys, *command, "--p-max", "1")
        assert rc == 2
        assert out == ""
        assert "--p-max must be >= 2, got 1" in err


    @pytest.mark.parametrize(
        "command",
        [
            ["find", "--g", "5", "--p-max", "1000000001"],
            ["table2", "--p-max", "1000000001"],
            # 2g+1 = 1000000001
            ["table2", "--g-max", "500000000"],
        ],
    )
    def test_past_the_budget_exits_3(self, capsys, command):
        # the limit, or the 2g+1 of the Sophie Germain list, is refused before
        # any search
        start = time.perf_counter()
        rc, out, err = run(capsys, *command)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (3, "")
        assert err == "resource error: sieve limit 1000000001 exceeds budget 1000000000\n"


class TestTable2:
    def test_small_bound(self, capsys):
        rc, out, _ = run(capsys, "table2", "--g-max", "29")
        assert rc == 0
        assert out == (
            "g,p,a,s\n5,47,12,2\n11,59,12,2\n23,83,12,2\n29,317,18,4\n"
        )

    def test_single_row(self, capsys):
        rc, out, _ = run(capsys, "table2", "--g-max", "5")
        assert rc == 0
        assert out == "g,p,a,s\n5,47,12,2\n"

    def test_markdown_format(self, capsys):
        rc, out, _ = run(capsys, "table2", "--g-max", "5", "--format", "markdown")
        assert rc == 0
        assert "| 5 | 47 | 12 | 2 |" in out


class TestDensity:
    def test_small_checkpoints(self, capsys):
        rc, out, _ = run(capsys, "density", "--g", "11", "--checkpoints", "2,100,150")
        assert rc == 0
        assert out == (
            "x,count_pg,count_p,f_num,f_den,f_decimal,diff_decimal\n"
            "2,0,1,0,1,0.00000000,0.15151515\n"
            "100,1,25,1,25,0.04000000,0.11151515\n"
            "150,2,35,2,35,0.05714286,0.09437229\n"
        )

    def test_series_file(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        rc, out, _ = run(
            capsys, "density", "--g", "11", "--checkpoints", "100",
            "--series", str(path),
        )
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "p,f_num,f_den,f_decimal"
        assert len(lines) == 26  # header + pi(100) rows
        assert lines[-1].startswith("97,")

    def test_series_sieves_and_classifies_once(self, capsys, tmp_path, monkeypatch):
        # one pass over the windows per command that lists every prime, and
        # none for find and table2: a second pass, or a window sieved twice,
        # changes the counts
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("classified_windows", "_windows", "_odd_form_witnesses"):
            monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
        monkeypatch.setattr(kernels, "WINDOW", 400)
        commands = (
            # 1000 spans three windows of 400
            (["density", "--g", "11", "--checkpoints", "1000",
              "--series", str(tmp_path / "series.csv")], 1, 1, 3),
            (["scan", "--g", "11", "--p-max", "1000"], 1, 1, 3),
            (["find", "--g", "11"], 0, 0, 0),
            (["plot", "--g", "11", "--x-max", "1000", "--out", str(tmp_path / "f.svg")],
             1, 1, 3),
            # the smallest p of each g and the Sophie Germain list sieve nothing
            (["table2", "--g-max", "29"], 0, 0, 0),
        )
        for argv, passes, prime_passes, windows in commands:
            calls.clear()
            rc, _, _ = run(capsys, *argv)
            assert rc == 0, argv
            assert calls == collections.Counter(
                classified_windows=passes,
                _windows=prime_passes,
                _odd_form_witnesses=windows,
            ), argv

    def test_stream_rows_one_chunk_at_a_time(self, monkeypatch):
        # the per-prime columns are built per CHUNK_ROWS slice, not for the
        # whole series before the first row, and reach the writer as int64
        # column chunks
        sizes = []

        def spy(num, den):
            sizes.append(len(num))
            return fixed_point(num, den)

        monkeypatch.setattr(report, "fixed_point", spy)
        chunks = cli._stream_rows(density_series(DimensionParam(11), (10**6,)))
        chunk = next(chunks)
        assert isinstance(chunk, tuple)
        p, f_num, f_den, f_decimal = chunk
        assert (p[0], f_num[0], f_den[0], *f_decimal.whole[:1], *f_decimal.frac[:1]) == (
            2, 0, 1, 0, 0,
        )
        assert len(sizes) == 1 and sizes[0] <= report.CHUNK_ROWS
        for column in (p, f_num, f_den, *f_decimal):
            assert column.dtype == np.int64 and len(column) == sizes[0]
        assert all(len(c[0]) <= report.CHUNK_ROWS for c in chunks)
        assert sum(sizes) == 78498  # pi(10^6), one fixed_point per chunk

    def test_stream_rows_whole_chunks(self, monkeypatch):
        # one fixed_point per chunk of the series: 77 for the 78,498 primes
        # to 10^6, every one but the last of CHUNK_ROWS rows
        sizes = []

        def spy(num, den):
            sizes.append(len(num))
            return fixed_point(num, den)

        monkeypatch.setattr(report, "fixed_point", spy)
        chunks = cli._stream_rows(density_series(DimensionParam(5), (10**6,)))
        collections.deque(chunks, maxlen=0)
        assert sizes == [report.CHUNK_ROWS] * 76 + [674]

    def test_series_peak_is_the_pass(self, capsys, tmp_path):
        # writing the per-prime stream adds at most a tenth of the pass's
        # own working set: one render chunk, and no window array the fold
        # has used up
        argv = ["density", "--g", "5", "--format", "json",
                "--series", str(tmp_path / "S.json")]
        assert run(capsys, *argv)[0] == 0  # the modules argparse imports on first use
        bare = traced_peak(lambda: density_series(DimensionParam(5), (10**6,)).records)
        assert traced_peak(lambda: main(argv)) <= 1.10 * bare

    def test_series_matches_per_prime_fractions(self, capsys, tmp_path):
        # the stream as one Fraction and one decimal_string per prime, each
        # prime classified by the definition-direct oracle, rendered by
        # json.dumps and by hand-joined csv and markdown lines
        primes = oracles.primes_upto(10**5)
        header = ["p", "f_num", "f_den", "f_decimal"]
        for g in (5, 11):
            rows, count = [], 0
            for i, p in enumerate(primes):
                count += oracles.classify_prime(p, g) == "pg"
                f = Fraction(count, i + 1)
                rows.append([p, f.numerator, f.denominator, decimal_string(f)])
            want = {
                "csv": "\n".join(
                    ["p,f_num,f_den,f_decimal"] + [",".join(map(str, r)) for r in rows]
                ) + "\n",
                "json": json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n",
                "markdown": "\n".join(
                    ["| p | f_num | f_den | f_decimal |", "| --- | --- | --- | --- |"]
                    + ["| " + " | ".join(map(str, r)) + " |" for r in rows]
                ) + "\n",
            }
            for fmt in FORMATS:
                path = tmp_path / f"series.{fmt}"
                rc, _, _ = run(
                    capsys, "density", "--g", str(g), "--checkpoints", "100000",
                    "--format", fmt, "--series", str(path),
                )
                assert rc == 0
                assert path.read_text() == want[fmt], (g, fmt)

    def test_json_series_peak_rss(self, tmp_path):
        # the 7.4 MB json stream to 10^6 is written in chunks: rendered as one
        # string it peaked near 142 MB
        rss = child_peak_rss_mb(
            "density", "--g", "5", "--format", "json", "--checkpoints", "1000000",
            "--series", str(tmp_path / "series.json"), "--out", str(tmp_path / "t.json"),
        )
        assert json.loads((tmp_path / "series.json").read_text())[-1]["p"] == 999983
        assert rss < 100

    def test_peak_rss_flat_in_x(self, tmp_path):
        # the pass holds O(window) memory: to 10^8 the whole-array sieves
        # peaked at 276 MB
        rss = child_peak_rss_mb(
            "density", "--g", "11", "--checkpoints", "100000000",
            "--out", str(tmp_path / "t.csv"),
        )
        row = (tmp_path / "t.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "5761455"  # pi(10^8), OEIS A006880
        assert rss < 60

    def test_prime_count_mismatch_exits_1(self, capsys, monkeypatch):
        # pi(x) at the last checkpoint is checked against prime_count, which
        # shares no code with the pass, before the table is written
        count = density.prime_count
        monkeypatch.setattr(density, "prime_count", lambda x: count(x) + 1)
        rc, out, err = run(capsys, "density", "--g", "11", "--checkpoints", "100,1000")
        assert (rc, out) == (1, "")
        assert err == "check failed: pi(1000) = 169, the pass counted 168\n"

    def test_bad_checkpoints(self, capsys):
        for text in ("10,abc", ""):
            rc, out, err = run(capsys, "density", "--g", "11", "--checkpoints", text)
            assert (rc, out) == (2, "")
            assert err == f"error: bad checkpoint list {text!r}\n"

    def test_unopenable_series_path(self, capsys):
        # the table still reaches stdout, then the open's error exits 3
        rc, out, err = run(
            capsys, "density", "--g", "11", "--checkpoints", "100", "--series", ""
        )
        assert rc == 3
        assert out == (
            "x,count_pg,count_p,f_num,f_den,f_decimal,diff_decimal\n"
            "100,1,25,1,25,0.04000000,0.11151515\n"
        )
        assert err == "i/o error: [Errno 2] No such file or directory: ''\n"


# SHA-256 of whole outputs, each recorded before a refactor of the code
# that writes it; the first two are also perfbench/reference.json's digests
# of S.csv and S.json
WHOLE_OUTPUTS = {
    "series-csv": (
        ["density", "--g", "11", "--series"],
        "77741313c3c50785d2ff6415b3e1b67c99fca310cac3b4d3578b3a90312e0fa0",
    ),
    "series-json": (
        ["density", "--g", "5", "--format", "json", "--series"],
        "19334a781027669eba74e79ec7bcb650c6280348ebc19792191b1a43551461d4",
    ),
    "series-markdown": (
        ["density", "--g", "11", "--format", "markdown", "--series"],
        "5659c7241a89013671d6b17bcb3f5437850b489338dbe40933b8413f12ed85cf",
    ),
    "scan": (
        ["scan", "--g", "11", "--p-max", "1000000", "--out"],
        "0b97a9a35327fa5e56f400a47328458d36c9fd6a867322a131b4665af7648e1c",
    ),
    "certify-csv": (
        ["certify", "--g", "5", "--p", "47", "--out"],
        "70a2b35cadca7ec739353210d8e77ecb80d7135b43e362b48d5f930d856171f2",
    ),
    "certify-json": (
        ["certify", "--g", "11", "--p", "59", "--format", "json", "--out"],
        "22fe2551da2716a821d111e9922340d2b3add399f63de7cd2f1e8615d556b54b",
    ),
    "certify-markdown": (
        ["certify", "--g", "239", "--p", "1997", "--format", "markdown", "--out"],
        "bffd920598f70beef491b3a1d723aa65c13061accda4788f3b71f031e7321a40",
    ),
    # q = 3359^1229 has 4334 digits, past CPython's default int-to-str cap
    "certify-past-digit-limit": (
        ["certify", "--g", "1229", "--p", "3359", "--out"],
        "71cca7aaa24a385327d0c2ee7833cdced902197e20c85fe8aa7aa36c2e46d3aa",
    ),
    "certify-g10061": (
        ["certify", "--g", "10061", "--p", "21023", "--out"],
        "4a36d90ab6a43e72ea45650ff64f5add23bb1d5d19e982b6b78bc7a466ea2237",
    ),
    # a = 162613468855...: 21742 digits, past CPython's default int-to-str cap
    "find-m-g10061": (
        ["find", "--g", "10061", "--p", "21023", "--m", "1", "--out"],
        "b3d13444c57f7b64f88efe43131c2906c6fd13e953acdd808ca6f18dac219e38",
    ),
    "find-m-json": (
        ["find", "--g", "5", "--p", "47", "--m", "1", "--format", "json", "--out"],
        "488d6104f4af16e3e988b4f3c98b389bea9f2a7e7f22c52b67012221433c9a2c",
    ),
    "table2-json": (
        ["table2", "--format", "json", "--out"],
        "b030d493a09bc2e2b9cf3b6467238efc33eaf8f92c5b65ea06705ad48db45532",
    ),
}


@pytest.mark.parametrize("name", WHOLE_OUTPUTS)
def test_whole_output_digest(capsys, tmp_path, name):
    argv, digest = WHOLE_OUTPUTS[name]
    path = tmp_path / "out"
    rc, _, _ = run(capsys, *argv, str(path))
    assert rc == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_failed_certificate_digest(capsys, tmp_path):
    # 61 passes (P2) and fails (P1): the per-identity table, then exit 1
    path = tmp_path / "out"
    rc, _, err = run(
        capsys, "certify", "--g", "11", "--p", "61", "--format", "json", "--out", str(path)
    )
    assert rc == 1
    assert err == "certificate failed [p1-representation]: no p = x^2 + 23*y^2 with p != 23\n"
    digest = "8387cdff1951d842860ad655d8066c15ea6a0893b06c57f71c2a11b0dcbd2548"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestScalarCommands:
    def test_limit_g11(self, capsys):
        rc, out, _ = run(capsys, "limit", "--g", "11")
        assert rc == 0
        assert out == (
            "g,h,limit_num,limit_den,limit_decimal\n11,3,5,33,0.15151515\n"
        )

    def test_limit_g5(self, capsys):
        rc, out, _ = run(capsys, "limit", "--g", "5")
        assert rc == 0
        assert "5,3,2,15,0.13333333" in out

    def test_limit_enumerates_once(self, capsys, monkeypatch):
        # h(-8g-4) is enumerated once, for its column and for the limit
        calls = []
        forms = quadforms.reduced_forms
        monkeypatch.setattr(quadforms, "reduced_forms", lambda d: calls.append(d) or forms(d))
        rc, out, _ = run(capsys, "limit", "--g", "11")
        assert (rc, out) == (0, "g,h,limit_num,limit_den,limit_decimal\n11,3,5,33,0.15151515\n")
        assert calls == [-92]

    def test_classnum(self, capsys):
        rc, out, _ = run(capsys, "classnum", "--disc", "-92")
        assert rc == 0
        assert out == "disc,h\n-92,3\n"
        rc, out, _ = run(capsys, "classnum", "--disc", "-3")
        assert out == "disc,h\n-3,1\n"

    def test_classnum_invalid(self, capsys):
        rc, _, err = run(capsys, "classnum", "--disc", "-6")
        assert rc == 2

    def test_discriminant_past_bound_exits_3(self, capsys, monkeypatch):
        # the enumeration takes about |d|/3 steps, so it is refused up front
        start = time.perf_counter()
        rc, out, err = run(capsys, "classnum", "--disc", "-1000000000000")
        assert (rc, out) == (3, "")
        bound = "exceeds bound 100000000"
        assert err == f"resource error: |discriminant| 1000000000000 {bound}\n"
        # 12500069 is a Sophie Germain prime with 8g + 4 = 100000556
        rc, out, err = run(capsys, "limit", "--g", "12500069")
        assert (rc, out) == (3, "")
        assert err == f"resource error: |discriminant| 100000556 {bound}\n"
        assert time.perf_counter() - start < 1
        # a discriminant at the bound is enumerated
        monkeypatch.setattr(quadforms, "DISC_BOUND", 92)
        assert run(capsys, "classnum", "--disc", "-92")[:2] == (0, "disc,h\n-92,3\n")
        assert run(capsys, "classnum", "--disc", "-95")[0] == 3


class TestCertify:
    def test_pass_csv(self, capsys):
        rc, out, _ = run(capsys, "certify", "--g", "5", "--p", "47")
        assert rc == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["aut_order"] == "22"
        assert cols["dimension"] == "5"
        assert (cols["inv_low_num"], cols["inv_low_den"]) == ("2", "5")
        assert (cols["inv_high_num"], cols["inv_high_den"]) == ("3", "5")
        assert cols["weil_c"] == str(47**5)
        assert all(
            v == "pass" for k, v in cols.items() if k.startswith("check_")
        )

    def test_pass_json(self, capsys):
        rc, out, _ = run(capsys, "certify", "--g", "5", "--p", "47", "--format", "json")
        assert rc == 0
        obj = json.loads(out)[0]
        assert obj["aut_order"] == 22
        assert obj["weil_b"] == str(12 * 47**2)  # bignums serialized as strings

    def test_failure_names_identity(self, capsys):
        rc, out, err = run(capsys, "certify", "--g", "11", "--p", "47")
        assert rc == 1
        assert "p2-congruence" in err
        assert "p2-congruence,fail" in out

    def test_failure_p1(self, capsys):
        rc, out, err = run(capsys, "certify", "--g", "11", "--p", "61")
        assert rc == 1
        assert "p1-representation" in err

    def test_g11_aut_order(self, capsys):
        rc, out, _ = run(capsys, "certify", "--g", "11", "--p", "59", "--format", "json")
        assert rc == 0
        obj = json.loads(out)[0]
        assert obj["aut_order"] == 46
        assert obj["dimension"] == 11

    def test_q_past_int_str_digit_limit(self, capsys, monkeypatch):
        # q = 3359^1229 has 4334 digits, past CPython's default 4300-digit
        # int-to-str limit, and is written without touching that cap
        set_cap = sys.set_int_max_str_digits
        saved = sys.get_int_max_str_digits()
        set_cap(4300)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "set_int_max_str_digits", forbid_cap_change)
                rc, out, err = run(capsys, "certify", "--g", "1229", "--p", "3359")
            assert sys.get_int_max_str_digits() == 4300
        finally:
            set_cap(saved)
        assert rc == 0, err
        header, row = out.strip().split("\n")
        q = dict(zip(header.split(","), row.split(",")))["q"]
        assert len(q) == math.floor(1229 * math.log10(3359)) + 1 == 4334
        assert int(q[-40:]) == pow(3359, 1229, 10**40)

    def test_renders_q_once(self, capsys, monkeypatch):
        # q and weil_c are one Decimal p^g, rendered once for both columns
        _, cert = run_certificate_checks(DimensionParam(5), 47)
        assert cert.q is cert.weil_c and cert.q == 47**5
        rendered = []
        monkeypatch.setattr(cli, "str", lambda v: rendered.append(v) or str(v), raising=False)
        rc, out, _ = run(capsys, "certify", "--g", "5", "--p", "47")
        assert rc == 0
        assert rendered.count(47**5) == 1
        cols = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        assert cols["q"] == cols["weil_c"] == str(47**5)

    @pytest.mark.parametrize("name, fault, rows, identity, detail", [
        ("splitting_order", lambda g, p: 2 * g, 6, "splitting-order", "ord(p mod 11) = 10"),
        ("endomorphism_degree", lambda invs: invs[0].denominator + 1, 9,
         "degree-identity", "d = 6, e = 2"),
    ])
    def test_failure_past_p1(self, capsys, monkeypatch, name, fault, rows, identity, detail):
        # no prime p fails past (P1), so a fault is injected: the checks end
        # at the first identity that fails, and certify's table with them
        monkeypatch.setattr(weil, name, fault)
        checks, cert = run_certificate_checks(DimensionParam(5), 47)
        assert cert is None and len(checks) == rows
        assert checks[-1] == (identity, False, detail)
        assert all(ok for _, ok, _ in checks[:-1])
        rc, out, err = run(capsys, "certify", "--g", "5", "--p", "47")
        assert (rc, err) == (1, f"certificate failed [{identity}]: {detail}\n")
        table = [line.split(",") for line in out.splitlines()]
        assert len(table) == 1 + rows and all(len(row) == 3 for row in table)
        equation = "12^2 - 4*47 = -11*2^2; gcd(12; 47) = 1"  # its commas as ;
        assert table[3] == ["quadruple-equation", "pass", equation]
        assert table[-1] == [identity, "fail", detail.replace(",", ";")]

    def test_composite_p_is_argument_error(self, capsys):
        rc, _, err = run(capsys, "certify", "--g", "5", "--p", "15")
        assert rc == 2
        assert "not prime" in err


def test_powers_past_the_digit_budget_exit_3(capsys):
    # p = x^2 + 1000667 for x = 10^11 + 20 passes (P1) and (P2) at g = 500333,
    # where p^g and p^(g-2) have about 1.1e7 digits: refused before either is built
    p = "10000000004000001001067"
    start = time.perf_counter()
    rc, out, err = run(capsys, "certify", "--g", "500333", "--p", p)
    assert (rc, out) == (3, "")
    assert err == f"resource error: {p}^500333 may have 11181442 digits, past 10000000\n"
    rc, out, err = run(capsys, "find", "--g", "500333", "--p", p, "--m", "1")
    assert (rc, out) == (3, "")
    assert err == f"resource error: {p}^500331 may have 11181398 digits, past 10000000\n"
    assert time.perf_counter() - start < 1


def test_primality_past_psi_13_exit_3(capsys):
    # 2^89 - 1 is prime, but no fixed bases decide primality from psi_13 on,
    # and a certificate rests on no probable prime: refused, named by its bits
    m89 = str(2**89 - 1)
    psi_13 = 3317044064679887385961981
    refused = f"resource error: n of 89 bits reaches the primality bound psi_13 = {psi_13}\n"
    start = time.perf_counter()
    for argv in (
        ["certify", "--g", "5", "--p", m89],
        ["find", "--g", "5", "--p", m89, "--m", "1"],
        ["limit", "--g", m89],
    ):
        assert run(capsys, *argv) == (3, "", refused), argv
    p = str(10**4299 + 1)  # the most digits int() reads
    rc, out, err = run(capsys, "certify", "--g", "5", "--p", p)
    assert (rc, out) == (3, "")
    assert err.startswith("resource error: n of 14281 bits reaches the primality bound")
    assert time.perf_counter() - start < 1


class TestPlotAndOutput:
    def test_plot_svg(self, capsys, tmp_path):
        path = tmp_path / "f.svg"
        rc, _, _ = run(capsys, "plot", "--g", "11", "--x-max", "10000",
                       "--out", str(path))
        assert rc == 0
        svg = path.read_text()
        assert svg.count('class="limit-line"') == 1
        assert svg.startswith("<svg")

    def test_plot_x_max_below_2(self, capsys):
        for x_max in ("1", "-5"):
            rc, out, err = run(capsys, "plot", "--g", "11", "--x-max", x_max)
            assert (rc, out) == (2, "")
            assert err == f"error: --x-max must be >= 2, got {x_max}\n"

    def test_plot_keeps_every_step_th_point(self, capsys, tmp_path, monkeypatch):
        # 78498 primes to 10^6 thin to every 16th; the points do not depend
        # on where the windows fall
        svgs = []
        for width in (kernels.WINDOW, 1000):
            monkeypatch.setattr(kernels, "WINDOW", width)
            path = tmp_path / f"f{width}.svg"
            rc, _, _ = run(capsys, "plot", "--g", "5", "--x-max", "1000000",
                           "--out", str(path))
            assert rc == 0
            svgs.append(path.read_text())
        assert svgs[0] == svgs[1]
        assert "points=78498 kept=4907 decimation=16" in svgs[0]
        primes = oracles.primes_upto(10**6)[::16]
        assert svgs[0].count("<circle") == len(primes) == 4907

    def test_plot_point_mismatch_writes_no_file(self, capsys, tmp_path, monkeypatch):
        # a pi(x_max) one too many keeps one point too many: the check fails
        # before --out is opened
        monkeypatch.setattr(density, "prime_count", lambda x: 1230)
        path = tmp_path / "f.svg"
        rc, out, err = run(capsys, "plot", "--g", "11", "--x-max", "10000",
                           "--out", str(path))
        assert (rc, out) == (2, "")
        assert err == "error: xs and fs must be the 1230 points kept of 1230\n"
        assert not path.exists()

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        rc, out, _ = run(capsys, "table2", "--g-max", "5", "--out", str(path))
        assert rc == 0
        assert out == ""
        assert path.read_text() == "g,p,a,s\n5,47,12,2\n"

    def test_unwritable_path(self, capsys):
        rc, _, err = run(capsys, "table2", "--g-max", "5",
                         "--out", "/nonexistent-dir/t.csv")
        assert rc == 3
        assert "i/o error" in err

    def test_bad_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2
        # plot writes SVG only, and takes no --format
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--g", "11", "--format", "json"])
        assert exc.value.code == 2


class TestExitPath:
    """main() with no argv is the process entry, and freezes the heap as it
    returns or raises; main(argv) leaves the caller's heap as it was."""

    @staticmethod
    def child(tmp_path, *args):
        src = str(Path(weilcert.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300,
        )

    def test_in_process_calls_freeze_nothing(self, capsys):
        frozen = gc.get_freeze_count()
        assert run(capsys, "classnum", "--disc", "-92")[0] == 0
        assert gc.get_freeze_count() == frozen
        assert run(capsys, "find", "--g", "4")[0] == 2  # DimensionParam's ValueError
        assert gc.get_freeze_count() == frozen
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2
        assert gc.get_freeze_count() == frozen

    def test_process_entry_freezes(self, tmp_path):
        # the atexit hook runs after main has returned and sys.exit has
        # raised, in interpreter finalization
        probe = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['weilcert', *sys.argv[1:]]\n"
            "runpy.run_module('weilcert.cli', run_name='__main__', alter_sys=True)\n"
        )
        child = self.child(tmp_path, "-c", probe, "scan", "--g", "11", "--p-max", "1000000")
        assert child.returncode == 0, child.stderr
        lines = child.stdout.splitlines()
        assert (lines[0], len(lines), lines[-1]) == ("p,a,s", 11_849, "frozen True")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_process_entry_starts_no_blas_threads(self, capsys, monkeypatch, tmp_path):
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        probe = (
            "import os, sys\n"
            "from weilcert import cli\n"
            "sys.argv = ['weilcert', 'density', '--g', '5']\n"
            "print(cli.main(), len(os.listdir('/proc/self/task')))\n"
        )
        for var in blas:
            monkeypatch.delenv(var, raising=False)
        child = self.child(tmp_path, "-c", probe)
        assert child.stdout.splitlines()[-1] == "0 1", child.stderr
        assert run(capsys, "limit", "--g", "5")[0] == 0
        assert not set(blas) & set(os.environ)  # main(argv) leaves them unset

    def test_process_writes_what_main_writes(self, capsys, tmp_path):
        # the stream and the table are whole when the frozen process exits
        argv = ["density", "--g", "5", "--format", "json"]
        child = self.child(
            tmp_path, "-m", "weilcert.cli", *argv, "--series", "S.json", "--out", "D.json"
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, "", "")
        series, table = tmp_path / "series.json", tmp_path / "table.json"
        assert run(capsys, *argv, "--series", str(series), "--out", str(table)) == (0, "", "")
        assert (tmp_path / "S.json").read_bytes() == series.read_bytes()
        assert (tmp_path / "D.json").read_bytes() == table.read_bytes()
