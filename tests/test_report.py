import io
import json
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilcert.report import (
    CHUNK_ROWS,
    FORMATS,
    FixedPoint,
    decimal_string,
    decimation,
    emit_svg,
    fixed_point,
    write_columns,
    write_table,
)


# row counts around one chunk's end, and many-chunk tables that end on a
# chunk's end, one row past it and three rows into a chunk
MANY_CHUNK_ROWS = [2048, 2049, 4099, 8192, 8193, 16387]
CHUNK_BOUNDARY_ROWS = sorted(
    {0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3, *MANY_CHUNK_ROWS}
)


def decimal_strings(num, den):
    """The f_decimal cells that write_columns renders from fixed_point columns."""
    fh = io.StringIO()
    write_columns(["d"], [(fixed_point(num, den),)], "csv", fh)
    return fh.getvalue().split("\n")[1:-1]


class TestDecimalString:
    def test_reference_values(self):
        assert decimal_string(Fraction(5, 33)) == "0.15151515"
        assert decimal_string(Fraction(92, 825)) == "0.11151515"
        assert decimal_string(Fraction(0, 1)) == "0.00000000"
        assert decimal_string(Fraction(1, 25)) == "0.04000000"
        assert decimal_string(Fraction(57, 95942)) == "0.00059411"
        assert decimal_strings([5, 92, 0, 1, 57], [33, 825, 1, 25, 95942]) == [
            "0.15151515", "0.11151515", "0.00000000", "0.04000000", "0.00059411",
        ]

    def test_round_half_up_at_ninth_place(self):
        assert decimal_string(Fraction(1, 2 * 10**8)) == "0.00000001"
        assert decimal_string(Fraction(1, 2 * 10**8 + 1)) == "0.00000000"
        assert decimal_string(Fraction(3, 2 * 10**8)) == "0.00000002"
        assert decimal_strings([1, 1, 3], [2 * 10**8, 2 * 10**8 + 1, 2 * 10**8]) == [
            "0.00000001", "0.00000000", "0.00000002",
        ]

    def test_negative_half_away_from_zero(self):
        assert decimal_string(Fraction(-1, 3)) == "-0.33333333"
        assert decimal_string(Fraction(-1, 2 * 10**8)) == "-0.00000001"

    def test_integer_and_carry(self):
        assert decimal_string(Fraction(7, 1)) == "7.00000000"
        assert decimal_string(Fraction(10**8 * 2 - 1, 10**8)) == "1.99999999"
        assert decimal_string(Fraction(4 * 10**8 - 1, 2 * 10**8)) == "2.00000000"
        assert decimal_strings(
            [7, 25, 10**8 * 2 - 1, 4 * 10**8 - 1], [1, 25, 10**8, 2 * 10**8]
        ) == ["7.00000000", "1.00000000", "1.99999999", "2.00000000"]

    def test_array_int64_guard(self):
        top = (2**63 - 1) // 10**8  # largest num whose num * 10**8 fits int64
        assert decimal_strings([top], [top]) == ["1.00000000"]
        assert decimal_strings([top], [1]) == [f"{top}.00000000"]
        for num, den in (([top + 1], [1]), ([-1], [3]), ([1], [0])):
            with pytest.raises(ValueError):
                fixed_point(num, den)


def written(header, rows, fmt, writer=write_table):
    fh = io.StringIO()
    writer(header, rows, fmt, fh)
    return fh.getvalue()


HEADER = ["x", "f_num", "f_den", "f_decimal"]
ROWS = [[100, 1, 25, "0.04000000"], [150, 2, 35, "0.05714286"]]


class TestEmitTable:
    """The table text the commands emit, as write_table writes it."""

    def test_csv(self):
        text = written(HEADER, ROWS, "csv")
        assert text == (
            "x,f_num,f_den,f_decimal\n"
            "100,1,25,0.04000000\n"
            "150,2,35,0.05714286\n"
        )

    def test_json_types(self):
        objs = json.loads(written(HEADER, ROWS, "json"))
        assert objs[0]["x"] == 100
        assert objs[0]["f_decimal"] == "0.04000000"
        for obj in objs:
            for v in obj.values():
                assert isinstance(v, (int, str))  # never a float

    def test_markdown(self):
        text = written(HEADER, ROWS, "markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| x |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert len(lines) == 4

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            written(HEADER, ROWS, "xml")


def joined_table(header, rows, fmt):
    """Reference rendering that write_table must match byte for byte:
    json.dumps over a list of dicts, or csv/markdown lines joined at the end."""
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    else:
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        lines += ["| " + " | ".join(str(c) for c in r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


# quotes, backslashes, control characters, percent signs and non-ASCII
ODD_TEXT = st.text(st.sampled_from('ab%"\\\x00\x1f\t\n\x7f\u00e9\u2212\U0001f600,'))
CELLS = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), ODD_TEXT)


@st.composite
def tables(draw, cells=CELLS):
    header = draw(st.lists(ODD_TEXT, min_size=1, max_size=5, unique=True))
    row = st.lists(cells, min_size=len(header), max_size=len(header))
    return header, draw(st.lists(row, max_size=20))


class TestWriteTable:
    @given(tables())
    def test_json_matches_json_dumps(self, table):
        header, rows = table
        assert written(header, rows, "json") == joined_table(header, rows, "json")

    @given(tables(CELLS.filter(lambda c: "," not in str(c))))
    def test_csv_matches_joined_lines(self, table):
        header, rows = table
        assert written(header, rows, "csv") == joined_table(header, rows, "csv")

    @given(tables())
    def test_markdown_matches_joined_lines(self, table):
        header, rows = table
        assert written(header, rows, "markdown") == joined_table(header, rows, "markdown")

    @pytest.mark.parametrize("n", CHUNK_BOUNDARY_ROWS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_chunk_boundaries(self, fmt, n):
        header = ["p", "f_num", "f_decimal"]
        rows = [(i, -(2**64) * i, f"0.{i:08d}") for i in range(n)]
        assert written(header, iter(rows), fmt) == joined_table(header, rows, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_generator_read_lazily(self, fmt):
        total = 3 * CHUNK_ROWS
        pulled = []

        def gen():
            for i in range(total):
                pulled.append(i)
                yield (i, str(i))

        class Probe(io.StringIO):
            pulled_at_first_write = None

            def write(self, text):
                if self.pulled_at_first_write is None:
                    self.pulled_at_first_write = len(pulled)
                return super().write(text)

        fh = Probe()
        write_table(["a", "b"], gen(), fmt, fh)
        assert fh.pulled_at_first_write is not None
        assert fh.pulled_at_first_write < total
        rows = [(i, str(i)) for i in range(total)]
        assert fh.getvalue() == joined_table(["a", "b"], rows, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_ints_past_int_str_digit_limit(self, fmt):
        # +-5000-digit integers, past CPython's default 4300-digit int-to-str
        # limit, come as Decimals and are written in full under that limit
        big = 10**5000 // 7
        rows = [[big, "x", -big], [-big - 1, "y", 7]]
        cells = [[Decimal(c) if isinstance(c, int) else c for c in row] for row in rows]
        header = ["a", "b", "c"]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            text = written(header, cells, fmt)
            sys.set_int_max_str_digits(0)  # for the reference's str and json.dumps
            want = joined_table(header, rows, fmt)
        finally:
            sys.set_int_max_str_digits(saved)
        assert text == want
        assert 10**4999 <= big < 10**5000  # 5000 digits


# the digit-count edges of the int64 digit kernel
INT64_EDGES = sorted(
    {0, 9, 10, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0)}
)
# cells that are not nonnegative int64 values: negative ints, ints past int64, strings
NOT_INT64 = st.one_of(
    st.integers(min_value=-(2**70), max_value=-1),
    st.integers(min_value=2**63, max_value=2**70),
    ODD_TEXT,
)
ROW_COUNTS = sorted({0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2048, 2049, 8192, 8193})


def lines(text):
    return text.split("\n")


def column_chunks(*columns):
    """The columns cut into chunks of CHUNK_ROWS rows."""

    def cut(c, i):
        if isinstance(c, FixedPoint):
            return FixedPoint(*(half[i : i + CHUNK_ROWS] for half in c))
        return c[i : i + CHUNK_ROWS]

    n = len(columns[0])
    return [tuple(cut(c, i) for c in columns) for i in range(0, n, CHUNK_ROWS)]


class TestColumnKernel:
    """write_columns' digit kernel, fed int64 column chunks, and
    write_table fed the same values as rows of Python ints, against the
    joined_table reference (compared line by line, so that a failure
    reports the first differing line)."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_digit_count_edges(self, fmt, n):
        up = np.resize(np.array(INT64_EDGES, dtype=np.int64), n)
        down = up[::-1].copy()
        num = up % 10**6
        den = down % 997 + 1
        frac = fixed_point(num, den)
        header = ["up", "down", "f"]
        rows = [
            [a, b, decimal_string(Fraction(c, d))]
            for a, b, c, d in zip(up.tolist(), down.tolist(), num.tolist(), den.tolist())
        ]
        want = lines(joined_table(header, rows, fmt))
        chunks = column_chunks(up, down, frac)
        assert lines(written(header, chunks, fmt, write_columns)) == want
        pairs = [r[:2] for r in rows]
        want = lines(joined_table(header[:2], pairs, fmt))
        assert lines(written(header[:2], pairs, fmt)) == want

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(NOT_INT64, min_size=1, max_size=8),
        st.sampled_from(ROW_COUNTS),
        st.sampled_from(FORMATS),
    )
    def test_mixed_with_other_cells(self, others, n, fmt):
        ints = np.resize(np.array(INT64_EDGES, dtype=np.int64), n)
        cells = (others * n)[:n]
        negative = -ints - 1
        header = ["i", "other", "neg"]
        rows = list(zip(ints.tolist(), cells, negative.tolist()))
        want = lines(joined_table(header, rows, fmt))
        assert lines(written(header, rows, fmt)) == want

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_lone_surrogates_pass_through(self, fmt):
        rows = [["\ud83d", 1], ["\ude00x", 2]]
        assert written(["\udfff", "n"], rows, fmt) == joined_table(["\udfff", "n"], rows, fmt)

    def test_mismatched_columns(self):
        with pytest.raises(ValueError):
            written(["a", "b"], [(np.arange(3), np.arange(1))], "csv", write_columns)
        with pytest.raises(ValueError):
            written(["a", "b"], [(np.arange(3),)], "csv", write_columns)
        with pytest.raises(ValueError):
            written(["a", "b"], [[1, 2], [3]], "csv")
        with pytest.raises(ValueError):
            written(["a", "b"], [[1, 2], [3, 4, 5]], "csv")

    def test_columns_are_nonnegative_int64(self):
        # a column that is not nonnegative int64 is refused, not written wrong
        for col in (np.array([3, -1]), np.array([3, 1], dtype=np.uint16)):
            with pytest.raises(ValueError, match="nonnegative int64"):
                written(["a"], [(col,)], "csv", write_columns)


def svg(*args):
    """The text emit_svg writes."""
    fh = io.StringIO()
    emit_svg(*args, fh)
    return fh.getvalue()


class TestEmitSvg:
    def test_single_limit_line(self):
        text = svg([10, 20, 30], [0.1, 0.12, 0.14], 3, Fraction(5, 33), 11, 100)
        assert text.count('class="limit-line"') == 1
        assert 'stroke-dasharray' in text
        assert "f_11(x)" in text
        assert text.startswith("<svg ") and text.endswith("\n</svg>\n")

    def test_decimation_above_threshold(self):
        n = 12000
        step = decimation(n)
        assert step == 3  # ceil(12000/5000)
        xs = list(range(1, n + 1))[::step]
        text = svg(xs, [0.1] * len(xs), n, Fraction(1, 10), 5, n)
        assert "points=12000 kept=4000 decimation=3" in text
        assert text.count("<circle") == len(range(0, n, 3))
        assert decimation(10000) == 2 and decimation(10001) == 3

    def test_no_decimation_below_threshold(self):
        text = svg([1, 2], [0.5, 0.5], 2, Fraction(1, 2), 5, 10)
        assert "decimation=1" in text
        assert text.count("<circle") == 2
        assert decimation(0) == decimation(5000) == 1

    def test_length_mismatch(self):
        # checked before any byte is written
        fh = io.StringIO()
        with pytest.raises(ValueError):
            emit_svg([1, 2], [0.5], 2, Fraction(1, 2), 5, 10, fh)
        # two points kept are every 3rd of 6 or fewer, not of 12000
        with pytest.raises(ValueError):
            emit_svg([1, 2], [0.5, 0.5], 12000, Fraction(1, 2), 5, 10, fh)
        assert fh.getvalue() == ""
