"""Serialization helpers: exact decimal rendering, CSV/JSON/markdown
tables, and the SVG scatter plot.

Every numeric field is rendered from exact integers or rationals; binary
floating point only ever appears in SVG coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Sequence, TextIO

import numpy as np

Cell = int | str

FORMATS = ("csv", "json", "markdown")

DECIMAL_PLACES = 8
SVG_MAX_POINTS = 5000
CHUNK_ROWS = 8192


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


def decimal_strings(num: np.ndarray, den: np.ndarray) -> list[str]:
    """decimal_string(Fraction(num[i], den[i])) for every i, computed on
    int64 columns; num must be nonnegative and den positive.

    Raises ValueError instead of wrapping when num * 10**DECIMAL_PLACES
    could exceed int64.
    """
    places = DECIMAL_PLACES
    num = np.asarray(num, dtype=np.int64)
    den = np.asarray(den, dtype=np.int64)
    top = np.iinfo(np.int64).max // 10**places
    if num.size and (num.min() < 0 or num.max() > top or den.min() < 1):
        raise ValueError(
            f"decimal_strings needs 0 <= num <= {top} and den >= 1 "
            "to stay exact in int64"
        )
    whole, frac = np.divmod(_half_up(num, den), 10**places)
    return list(map(f"%d.%0{places}d".__mod__, zip(whole.tolist(), frac.tolist())))


def _layout(header: Sequence[str], fmt: str) -> tuple[str, str, str, str, str]:
    """(head, row, separator, tail, empty) of one table: the text is head,
    then the rows joined by separator, then tail; with no rows it is empty.

    row is a %-template with one %s per column. JSON follows
    json.dumps(indent=2) with its default ensure_ascii, so the keys are
    encoded here and the string cells by write_table.
    """
    k = len(header)
    if fmt == "csv":
        head = ",".join(header) + "\n"
        return head, ",".join(["%s"] * k), "\n", "\n", head
    if fmt == "json":
        fields = ",\n".join(
            "    " + _json_str(key).replace("%", "%%") + ": %s" for key in header
        )
        return "[\n", "  {\n" + fields + "\n  }", ",\n", "\n]\n", "[]\n"
    if fmt == "markdown":
        head = "| " + " | ".join(header) + " |\n|" + "|".join([" --- "] * k) + "|\n"
        return head, "| " + " | ".join(["%s"] * k) + " |", "\n", "\n", head
    raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")


def write_table(
    header: Sequence[str], rows: Iterable[Sequence[Cell]], fmt: str, fh: TextIO
) -> None:
    """Write rows under a header to fh as csv, json, or markdown.

    Cells are ints or already-canonical strings; JSON keeps ints as
    numbers and everything else as strings, so no float ever appears.
    rows may be any iterable: it is read CHUNK_ROWS rows at a time and
    each chunk is rendered by one % format and written before the next is
    read, so at most one chunk of text is ever held.
    """
    head, row, sep, tail, empty = _layout(header, fmt)
    rows = iter(rows)
    written = 0
    while chunk := list(islice(rows, CHUNK_ROWS)):
        cells = chain.from_iterable(chunk)
        if fmt == "json":
            cells = [_json_str(c) if isinstance(c, str) else c for c in cells]
        fh.write((sep if written else head) + sep.join([row] * len(chunk)) % tuple(cells))
        written += len(chunk)
    fh.write(tail if written else empty)


def decimation(total: int) -> int:
    """The step that thins a series of total points to at most SVG_MAX_POINTS."""
    return max(1, -(-total // SVG_MAX_POINTS))  # ceil division


def emit_svg(
    xs: Sequence[int],
    fs: Sequence[float],
    total: int,
    limit: Fraction,
    g: int,
    x_max: int,
) -> str:
    """Scatter of (x, f) points with a single dashed horizontal limit line.

    xs and fs are the points kept from a series of total points: every
    `decimation(total)`-th one, from the first. The decimation factor and
    raw point count are recorded in the <desc> metadata element.
    """
    step = decimation(total)
    kept = len(range(0, total, step))
    if not len(xs) == len(fs) == kept:
        raise ValueError(f"xs and fs must be the {kept} points kept of {total}")

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
    for x, f in zip(xs, fs):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(f):.2f}" r="1.5" fill="red"/>'
        )
    parts.append(
        f'<line class="limit-line" x1="{margin_l}" y1="{sy(limit_f):.2f}" '
        f'x2="{width - margin_r}" y2="{sy(limit_f):.2f}" stroke="blue" '
        'stroke-width="1.5" stroke-dasharray="6 4"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
