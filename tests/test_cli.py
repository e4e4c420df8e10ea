import collections
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weilcert
from weilcert import cli, kernels, report
from weilcert.cli import main
from weilcert.report import FORMATS, decimal_string, decimal_strings
import oracles
from conftest import TABLE3


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestFind:
    def test_known_row(self, capsys):
        rc, out, _ = run(capsys, "find", "--g", "83")
        assert rc == 0
        assert out == "g,p,a,s\n83,311,24,2\n"

    def test_not_sophie_germain(self, capsys):
        rc, _, err = run(capsys, "find", "--g", "7")
        assert rc == 2
        assert "7 is not a Sophie Germain prime" in err

    def test_exhausted_bound(self, capsys):
        rc, _, err = run(capsys, "find", "--g", "5", "--p-max", "43")
        assert rc == 1
        assert "no prime found" in err

    def test_general_equation(self, capsys):
        rc, out, _ = run(capsys, "find", "--g", "5", "--p", "47", "--m", "1")
        assert rc == 0
        assert out == "g,p,m,a,s\n5,47,1,36,194\n"

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

    def test_general_equation_past_int_str_digit_limit(self, capsys):
        # a has 4323 digits, past CPython's default 4300-digit int-to-str limit
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rc, out, err = run(capsys, "find", "--g", "2339", "--p", "5003", "--m", "1")
            # the interpreter-wide cap is back where it was
            assert sys.get_int_max_str_digits() == 4300
            assert rc == 0, err
            sys.set_int_max_str_digits(0)  # to read the row back
            header, row = out.splitlines()
            g, p, m, a, s = (int(v) for v in row.split(","))
            digits = len(str(a))
        finally:
            sys.set_int_max_str_digits(saved)
        assert header == "g,p,m,a,s" and (g, p, m) == (2339, 5003, 1)
        assert digits == 4323
        assert a * a - 4 * p ** (g - 2 * m) == -(2 * g + 1) * s * s
        assert math.gcd(a, p) == 1

    def test_general_equation_needs_prime_p(self, capsys):
        for p in ("15", "1", "-7"):
            rc, out, err = run(capsys, "find", "--g", "5", "--p", p, "--m", "1")
            assert rc == 2 and out == ""
            assert err == f"error: --p must be prime, got {p}\n"

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


class TestPMax:
    @pytest.mark.parametrize(
        "command", [["find", "--g", "5"], ["scan", "--g", "5"], ["table2"]]
    )
    def test_below_2_is_argument_error(self, capsys, command):
        rc, out, err = run(capsys, *command, "--p-max", "1")
        assert rc == 2
        assert out == ""
        assert "--p-max must be >= 2, got 1" in err


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
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("classified_primes", "sieve_primes", "form_witnesses"):
            monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
        commands = (
            (["density", "--g", "11", "--checkpoints", "1000",
              "--series", str(tmp_path / "series.csv")], 1),
            (["scan", "--g", "11", "--p-max", "1000"], 1),
            (["find", "--g", "11"], 1),
            (["plot", "--g", "11", "--x-max", "1000", "--out", str(tmp_path / "f.svg")], 1),
            (["table2", "--g-max", "29"], 4),  # one pass per g in 5, 11, 23, 29
        )
        for argv, passes in commands:
            calls.clear()
            rc, _, _ = run(capsys, *argv)
            assert rc == 0, argv
            assert calls == {
                "classified_primes": passes, "sieve_primes": passes, "form_witnesses": passes,
            }, argv

    def test_stream_rows_one_chunk_at_a_time(self, series_g11, monkeypatch):
        # the per-prime columns are built per CHUNK_ROWS slice, not for the
        # whole series before the first row
        sizes = []

        def spy(num, den):
            sizes.append(len(num))
            return decimal_strings(num, den)

        monkeypatch.setattr(report, "decimal_strings", spy)
        rows = cli._stream_rows(series_g11)
        assert next(rows) == (2, 0, 1, "0.00000000")
        assert len(sizes) == 1 and sizes[0] <= report.CHUNK_ROWS

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
        src = str(Path(weilcert.__file__).resolve().parents[1])
        argv = [
            sys.executable, "-m", "weilcert.cli", "density", "--g", "5",
            "--format", "json", "--checkpoints", "1000000",
            "--series", str(tmp_path / "series.json"), "--out", str(tmp_path / "t.json"),
        ]
        env = dict(os.environ, PYTHONPATH=src)
        pid = os.posix_spawn(sys.executable, argv, env)
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert json.loads((tmp_path / "series.json").read_text())[-1]["p"] == 999983
        assert usage.ru_maxrss / 1024 < 100  # ru_maxrss is in KiB on Linux

    def test_bad_checkpoints(self, capsys):
        rc, _, err = run(capsys, "density", "--g", "11", "--checkpoints", "10,abc")
        assert rc == 2
        assert "bad checkpoint" in err


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

    def test_classnum(self, capsys):
        rc, out, _ = run(capsys, "classnum", "--disc", "-92")
        assert rc == 0
        assert out == "disc,h\n-92,3\n"
        rc, out, _ = run(capsys, "classnum", "--disc", "-3")
        assert out == "disc,h\n-3,1\n"

    def test_classnum_invalid(self, capsys):
        rc, _, err = run(capsys, "classnum", "--disc", "-6")
        assert rc == 2


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

    def test_q_past_int_str_digit_limit(self, capsys):
        # q = 3359^1229 has 4334 digits, past CPython's default 4300-digit
        # int-to-str limit
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rc, out, err = run(capsys, "certify", "--g", "1229", "--p", "3359")
            # the interpreter-wide cap is back where it was
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
        assert rc == 0, err
        header, row = out.strip().split("\n")
        q = dict(zip(header.split(","), row.split(",")))["q"]
        assert len(q) == math.floor(1229 * math.log10(3359)) + 1 == 4334
        assert int(q[-40:]) == pow(3359, 1229, 10**40)

    def test_composite_p_is_argument_error(self, capsys):
        rc, _, err = run(capsys, "certify", "--g", "5", "--p", "15")
        assert rc == 2
        assert "not prime" in err


class TestPlotAndOutput:
    def test_plot_svg(self, capsys, tmp_path):
        path = tmp_path / "f.svg"
        rc, _, _ = run(capsys, "plot", "--g", "11", "--x-max", "10000",
                       "--out", str(path))
        assert rc == 0
        svg = path.read_text()
        assert svg.count('class="limit-line"') == 1
        assert svg.startswith("<svg")

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
