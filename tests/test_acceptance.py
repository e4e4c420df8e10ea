"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line on success
(run with `pytest tests/test_acceptance.py -v -s` to see them). Reference
values are exact; decimal fields are compared at all 8 digits.
"""

import time
from fractions import Fraction

from weilcert.arith import DimensionParam, sqrt_mod_prime
from weilcert.cli import main
from weilcert.quadforms import class_number, represent_x2_ny2
from weilcert.report import decimal_string
from weilcert.weil import run_certificate_checks, solve_general_p1m

import oracles
from conftest import CHECKPOINTS, TABLE2, TABLE3, TABLE4

EXPECTED_TABLE2_CSV = "g,p,a,s\n" + "".join(
    f"{g},{p},{a},{s}\n" for g, p, a, s in TABLE2
)
EXPECTED_TABLE3_CSV = "p,a,s\n" + "".join(
    f"{p},{a},{s}\n" for p, a, s in TABLE3
)
EXPECTED_DENSITY_CSV = (
    "x,count_pg,count_p,f_num,f_den,f_decimal,diff_decimal\n"
    "100,1,25,1,25,0.04000000,0.11151515\n"
    "150,2,35,2,35,0.05714286,0.09437229\n"
    "200,4,46,2,23,0.08695652,0.06455863\n"
    "1000,22,168,11,84,0.13095238,0.02056277\n"
    "10000,175,1229,175,1229,0.14239219,0.00912296\n"
    "100000,1426,9592,713,4796,0.14866555,0.00284960\n"
    "1000000,11847,78498,3949,26166,0.15092104,0.00059411\n"
)


def _report(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def test_1_table2_reproduction(capsys):
    t0 = time.monotonic()
    rc = main(["table2", "--g-max", "509", "--format", "csv"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert out == EXPECTED_TABLE2_CSV  # byte-identical, all 24 quadruples
    assert elapsed < 10.0
    with capsys.disabled():
        _report(f"table2 --g-max 509 byte-identical ({elapsed:.2f}s)")


def test_2_table3_reproduction(capsys):
    t0 = time.monotonic()
    rc = main(["scan", "--g", "11", "--p-max", "1117", "--format", "csv"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert out == EXPECTED_TABLE3_CSV  # 24 triples, (59,12,2) .. (1117,34,12)
    assert elapsed < 5.0
    with capsys.disabled():
        _report(f"scan --g 11 --p-max 1117 byte-identical ({elapsed:.2f}s)")


def test_3_density_reproduction(capsys):
    t0 = time.monotonic()
    rc = main(["density", "--g", "11", "--format", "csv"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert out == EXPECTED_DENSITY_CSV
    assert elapsed < 60.0
    with capsys.disabled():
        _report(f"density --g 11 fractions and 8-digit diffs exact ({elapsed:.2f}s)")


def test_4_limit_values(capsys):
    rc = main(["limit", "--g", "11", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "g,h,limit_num,limit_den,limit_decimal\n11,3,5,33,0.15151515\n"
    # independent reduced-form enumeration oracle for both dimensions
    assert oracles.naive_class_number(-92) == 3
    assert oracles.naive_class_number(-44) == 3
    expected_g5 = Fraction(1, 2 * 3) * (1 - Fraction(1, 5))
    assert expected_g5 == Fraction(2, 15)
    rc = main(["limit", "--g", "5", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "g,h,limit_num,limit_den,limit_decimal\n5,3,2,15,0.13333333\n"
    with capsys.disabled():
        _report("limit values h(-92)=3, 5/33 and h(-44)=3, 2/15")


def test_5_certificate_suite(capsys):
    t0 = time.monotonic()
    for g, p, a, s in TABLE2:
        checks, cert = run_certificate_checks(DimensionParam(g), p)
        assert cert is not None, (g, p, checks[-1])
        n = 2 * g + 1
        assert (cert.a, cert.s) == (a, s)
        assert cert.a**2 - 4 * p == -n * cert.s**2
        b, c = int(cert.weil_b), int(cert.weil_c)  # exact, unlike Decimal's default context
        assert b**2 < 4 * c and c == p**g == cert.q
        assert cert.cm_discriminant == -n
        assert cert.splitting_order == g
        lo = Fraction(cert.inv_low_num, cert.inv_low_den)
        hi = Fraction(cert.inv_high_num, cert.inv_high_den)
        assert (lo, hi) == (Fraction((g - 1) // 2, g), Fraction((g + 1) // 2, g))
        vals = (cert.oracle_val_plus, cert.oracle_val_minus)
        assert sorted(vals) == [(g - 1) // 2, (g + 1) // 2]
        assert {Fraction(v, g) for v in vals} == {lo, hi}
        assert cert.degree_d == g
        assert cert.degree_d * cert.center_degree_e == 2 * g
        assert cert.dimension == g
        assert cert.aut_order == 4 * g + 2
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _report(f"all 24 certificates, every identity exact ({elapsed:.2f}s)")


def test_6_disjoint_union(capsys, series_g11, series_g5):
    plist = oracles.primes_upto(10**6)
    for g, series in ((11, series_g11), (5, series_g5)):
        oracle = oracles.density_counts(g, plist, list(CHECKPOINTS))
        for rec in series.records:
            o_pg, o_split, o_pi = oracle[rec.x]
            # independent per-prime reclassification agrees...
            assert rec.count_pg == o_pg, (g, rec.x)
            assert rec.count_split_all == o_split, (g, rec.x)
            assert rec.count_p == o_pi, (g, rec.x)
            # ...and |S| = |S'| + |S''| at every checkpoint
            s_total = sum(
                1 for p in plist
                if p <= rec.x and oracles.classify_prime(p, g) != "out"
            ) if rec.x <= 10**4 else o_pg + o_split
            assert rec.count_pg + rec.count_split_all == s_total
    with capsys.disabled():
        _report("disjoint union |S| = |S'| + |S''| at all checkpoints, g in {5,11}")


def test_7_oracle_equivalence(capsys):
    primes = oracles.primes_upto(10**5)
    for n in (7, 11, 23, 47, 59):
        for p in primes:
            got = represent_x2_ny2(p, n)
            want = oracles.full_scan_min_y(p, n)
            if want is None:
                assert got is None, (p, n)
            else:
                assert (got.x, got.y) == want, (p, n)
    for g_val in (5, 11, 23, 29, 41):  # a^2 + (2g+1)*s^2 = 4p at m = (g-1)/2
        g = DimensionParam(g_val)
        for p in primes:
            want = oracles.general_equation_walk(p, g.n, 1)
            assert solve_general_p1m(g, p, (g_val - 1) // 2) == want, (g_val, p)
    for k in range(1, 601):
        assert class_number(-4 * k) == oracles.naive_class_number(-4 * k), k
    for p in [q for q in primes if q % 2 and q < 200]:
        for a in range(-50, 51):
            has_root = sqrt_mod_prime(a, p) is not None
            assert has_root == (oracles.euler_criterion(a, p) == 1), (a, p)
    with capsys.disabled():
        _report(
            "representation, general-equation, class-number, and square-root "
            "oracles agree"
        )


def test_8_convergence_proxy(capsys, series_g11):
    # Existence and the limit statement are not directly checkable at desk
    # scale; the certificate identities (above) and the monotone-shrinking
    # gap at the reference checkpoints stand in for them.
    diffs = [rec.diff for rec in series_g11.records]
    assert all(d > 0 for d in diffs)
    assert all(a > b for a, b in zip(diffs, diffs[1:]))  # strictly shrinking
    assert [decimal_string(d) for d in diffs] == [
        TABLE4[x][5] for x in CHECKPOINTS
    ]
    with capsys.disabled():
        _report("proxy checks: certificates exact, diff shrinks monotonically")
