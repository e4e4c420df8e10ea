"""Serialization helpers: exact decimal rendering, CSV/JSON/markdown
tables, and the SVG scatter plot.

Every numeric field is rendered from exact integers or rationals; binary
floating point only ever appears in SVG coordinates. `write_table` writes
Python rows in pure Python, each number through str; `write_columns` writes
chunks of int64 columns as ASCII digits made in numpy, which only it imports,
so the per-prime density stream builds no Python object per row or cell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, TextIO

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

FORMATS = ("csv", "json", "markdown")

DECIMAL_PLACES = 8
SVG_MAX_POINTS = 5000
#: Rows rendered at once. A chunk's text is held three times over while it
#: is rendered (the padded block, its keep mask and the kept bytes): 0.34 MB
#: with its column blocks at 1024 rows of the json series stream, against
#: 0.7 MB at 2048, so the window pass it is drawn from (0.8 MB) stays the
#: peak. Each halving halves that and doubles the chunks, each a few numpy
#: calls per column.
CHUNK_ROWS = 1024
_INT64_MAX = 2**63 - 1


def _half_up(n, d):
    """n/d scaled by 10**DECIMAL_PLACES, rounded half up, for n >= 0 and d > 0.

    The one rounding rule of the package: it runs on Python ints and,
    elementwise, on int64 arrays (where rem < d keeps d - rem in range).
    """
    quo, rem = divmod(n * 10**DECIMAL_PLACES, d)
    return quo + (rem >= d - rem)


def decimal_string(q: Fraction) -> str:
    """DECIMAL_PLACES-digit fixed-point decimal of an exact rational,
    round-half-up at the next digit (half away from zero for negatives)."""
    sign = "-" if q < 0 else ""
    scaled = _half_up(abs(q.numerator), q.denominator)
    whole, frac = divmod(scaled, 10**DECIMAL_PLACES)
    return f"{sign}{whole}.{frac:0{DECIMAL_PLACES}d}"


class FixedPoint(NamedTuple):
    """A column of exact decimals as decimal_string writes them, from two
    int64 columns: whole.frac per row, frac zero-padded to DECIMAL_PLACES
    digits."""

    whole: np.ndarray
    frac: np.ndarray


def fixed_point(num: np.ndarray, den: np.ndarray) -> FixedPoint:
    """The column of decimal_string(Fraction(num[i], den[i])), computed on
    int64 columns; num must be nonnegative and den positive.

    Raises ValueError instead of wrapping when num * 10**DECIMAL_PLACES
    could exceed int64.
    """
    import numpy as np

    places = DECIMAL_PLACES
    num = np.asarray(num, dtype=np.int64)
    den = np.asarray(den, dtype=np.int64)
    top = _INT64_MAX // 10**places
    if num.size and (num.min() < 0 or num.max() > top or den.min() < 1):
        raise ValueError(f"fixed_point needs 0 <= num <= {top} and den >= 1 to stay exact")
    return FixedPoint(*np.divmod(_half_up(num, den), 10**places))


def _layout(header: Sequence[str], fmt: str) -> tuple[str, list[str], str, str, str]:
    """(head, around, separator, tail, empty) of one table: the text is
    head, then the rows joined by separator, then tail; with no rows it is
    empty.

    A row is its cells interleaved with the len(header) + 1 literals of
    around. JSON follows json.dumps(indent=2) with its default
    ensure_ascii, so the keys are encoded here and the string cells by
    write_table.
    """
    k = len(header)
    if not k:
        raise ValueError("a table needs at least one column")
    if fmt == "csv":
        head = ",".join(header) + "\n"
        return head, ["", *[","] * (k - 1), ""], "\n", "\n", head
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as quote

        keys = ["    " + quote(key) + ": " for key in header]
        around = ["  {\n" + keys[0], *[",\n" + key for key in keys[1:]], "\n  }"]
        return "[\n", around, ",\n", "\n]\n", "[]\n"
    if fmt == "markdown":
        head = "| " + " | ".join(header) + " |\n|" + "|".join([" --- "] * k) + "|\n"
        return head, ["| ", *[" | "] * (k - 1), " |"], "\n", "\n", head
    raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")


def write_table(
    header: Sequence[str], rows: Iterable[Sequence], fmt: str, fh: TextIO
) -> None:
    """Write rows under a header to fh as csv, json, or markdown, each row
    as it is read.

    Cells are integers (ints, or integral Decimals where they may pass the
    int-to-str digit cap) or already-canonical strings; JSON keeps integers
    as numbers and everything else as strings, so no float ever appears. A
    cell is written through str, or a string in JSON encoded as json.dumps
    does, between the layout's literals.
    """
    head, around, sep, tail, empty = _layout(header, fmt)
    quote = str
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as quote
    written = False
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"a row of {len(row)} cells under a header of {len(header)}")
        parts = [sep if written else head, around[0]]
        for cell, after in zip(row, around[1:]):
            parts += (quote(cell) if isinstance(cell, str) else str(cell), after)
        fh.write("".join(parts))
        written = True
    fh.write(tail if written else empty)


def write_columns(
    header: Sequence[str], chunks: Iterable[tuple], fmt: str, fh: TextIO
) -> None:
    """Write a table under a header to fh as csv, json, or markdown, from
    tuples of columns of one length: nonnegative int64 arrays, or FixedPoint
    pairs. Each chunk is rendered and written before the next is read: each
    column (and each half of a FixedPoint) becomes digits through repeated
    divmod by 10 into one uint8 block, the layout's ASCII literals are
    broadcast between them, and one mask drops each number's padding.
    """
    import numpy as np

    def literal(text: str) -> tuple[np.ndarray, bool]:  # the same in every row
        return np.frombuffer(text.encode("ascii"), np.uint8), True

    head, around, sep, tail, empty = _layout(header, fmt)
    quote = '"' if fmt == "json" else ""
    written = False
    for chunk in chunks:
        lengths = {len(c.whole if isinstance(c, FixedPoint) else c) for c in chunk}
        if len(chunk) != len(header) or len(lengths) != 1:
            raise ValueError(
                f"{len(chunk)} columns of lengths {sorted(lengths)} "
                f"under a header of {len(header)}"
            )
        (n,) = lengths
        if not n:
            continue
        parts, before = [], sep + around[0]
        for col, after in zip(chunk, around[1:]):
            if isinstance(col, FixedPoint):
                frac = _digits(col.frac, DECIMAL_PLACES)
                parts += [literal(before + quote), _digits(col.whole), literal("."), frac]
                before = quote + after
            elif col.dtype != "int64" or col.min() < 0:
                raise ValueError("write_columns takes nonnegative int64 columns")
            else:
                parts += [literal(before), _digits(col)]
                before = after
        parts.append(literal(before))
        # the parts side by side, literals broadcast down the rows, and of
        # them the bytes the masks keep
        widths = [block.shape[-1] for block, _ in parts]
        out = np.empty((n, sum(widths)), np.uint8)
        keep = np.empty(out.shape, bool)
        at = 0
        for (block, mask), w in zip(parts, widths):
            out[:, at : at + w] = block
            keep[:, at : at + w] = mask
            at += w
        text = out[keep]
        del out, keep  # before the text is copied to bytes and to str
        if not written:  # the table's first row follows head, not sep
            fh.write(head)
            text = text[len(sep) :]
            written = True
        fh.write(text.tobytes().decode("ascii"))
        del chunk, col, parts, text  # columns may be views of a window of a pass
    fh.write(tail if written else empty)


def _digits(col: np.ndarray, width: int = 0) -> tuple[np.ndarray, np.ndarray | bool]:
    """The decimal digits of a nonnegative int64 column as a (rows x w)
    ASCII block, right-aligned, with the mask of the digits each number
    keeps; with a width they are zero-padded to it and the mask is True."""
    import numpy as np

    w = width or len(str(int(col.max())))
    block = np.empty((len(col), w), np.uint8)
    keep = True if width else np.empty((len(col), w), bool)
    for j in range(w - 1, -1, -1):
        if not width:
            keep[:, j] = col > 0  # a digit left of the number's first is padding
        col, block[:, j] = np.divmod(col, 10)
    if not width:
        keep[:, -1] = True  # 0 is written "0"
    block += ord("0")
    return block, keep


def decimation(total: int) -> int:
    """The step that thins a series of total points to at most SVG_MAX_POINTS."""
    return max(1, -(-total // SVG_MAX_POINTS))  # ceil division


def check_svg_points(xs: Sequence[int], fs: Sequence[float], total: int) -> None:
    """ValueError unless xs and fs are the points kept from a series of total
    points: every `decimation(total)`-th one, from the first."""
    kept = len(range(0, total, decimation(total)))
    if not len(xs) == len(fs) == kept:
        raise ValueError(f"xs and fs must be the {kept} points kept of {total}")


def emit_svg(
    xs: Sequence[int],
    fs: Sequence[float],
    total: int,
    limit: Fraction,
    g: int,
    x_max: int,
    fh: TextIO,
) -> None:
    """Write to fh a scatter of (x, f) points with a single dashed
    horizontal limit line, one element a line, each point as it is made.

    xs and fs are the points kept from a series of total points, checked by
    `check_svg_points` before anything is written. The decimation factor and
    raw point count are recorded in the <desc> metadata element.
    """
    check_svg_points(xs, fs, total)
    step = decimation(total)

    width, height = 840, 520
    margin_l, margin_r, margin_t, margin_b = 70, 20, 20, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    limit_f = limit.numerator / limit.denominator
    y_top = max([limit_f, *fs]) * 1.1 or 1.0

    def sx(x: float) -> float:
        return margin_l + plot_w * x / x_max

    def sy(y: float) -> float:
        return margin_t + plot_h * (1 - y / y_top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<desc>points={total} kept={len(xs)} decimation={step} "
        f"limit={limit.numerator}/{limit.denominator}</desc>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        # axes
        f'<line x1="{margin_l}" y1="{sy(0)}" x2="{width - margin_r}" '
        f'y2="{sy(0)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{sy(0)}" stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        xt = x_max * (i + 1) / 5
        parts.append(
            f'<line x1="{sx(xt)}" y1="{sy(0)}" x2="{sx(xt)}" y2="{sy(0) + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(xt)}" y="{sy(0) + 20}" text-anchor="middle" '
            f'font-size="12">{int(xt)}</text>'
        )
        yt = y_top * (i + 1) / 5
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{sy(yt)}" x2="{margin_l}" '
            f'y2="{sy(yt)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{sy(yt) + 4}" text-anchor="end" '
            f'font-size="12">{yt:.3f}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2}" y="{height - 10}" '
        'text-anchor="middle" font-size="14">x</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + plot_h / 2}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 18 {margin_t + plot_h / 2})">'
        f"f_{g}(x)</text>"
    )
    fh.write("\n".join(parts) + "\n")
    for x, f in zip(xs, fs):
        fh.write(f'<circle cx="{sx(x):.2f}" cy="{sy(f):.2f}" r="1.5" fill="red"/>\n')
    fh.write(
        f'<line class="limit-line" x1="{margin_l}" y1="{sy(limit_f):.2f}" '
        f'x2="{width - margin_r}" y2="{sy(limit_f):.2f}" stroke="blue" '
        'stroke-width="1.5" stroke-dasharray="6 4"/>\n</svg>\n'
    )
