"""Reference datasets as schema-fixed CSV artifacts, plus a small SVG renderer.

Value tables carry both a full-precision column (%.17g, round-trips exactly
through float) and a display column rounded to one decimal, halves away from
zero.  Files are UTF-8 with LF endings on every platform, so byte equality is
meaningful.
"""

from __future__ import annotations

import math
import numbers
import os
import stat
import sys
from dataclasses import dataclass
from decimal import MAX_PREC, ROUND_HALF_UP, Context, Decimal
from pathlib import Path

from .asymptotics import centred_mean_prediction, variance_bounds
from .coupon import InvalidSpecError, _default_means, _shown

__all__ = [
    "TABLE_A",
    "TABLE_Q",
    "SD_A",
    "FIG_LOW_Q",
    "FIG_HIGH_Q",
    "TABLE_NAMES",
    "FIGURE_NAMES",
    "TableArtifact",
    "round_half_away",
    "build_table",
    "render_figure_svg",
]

TABLE_A = (5, 10, 20)
TABLE_Q = (1, 5, 10, 20, 50, 100, 200)
SD_A = (2, 3, 4, 5, 10, 20)
FIG_LOW_Q = tuple(range(1, 21))
FIG_HIGH_Q = tuple(range(1, 21)) + (25, 30, 35, 40, 42, 44, 45, 46, 48, 50, 60, 80, 100, 150, 200)

TABLE_NAMES = ("en_q", "centred", "sd_bounds", "fig_low", "fig_high")
FIGURE_NAMES = ("fig_low", "fig_high")

_VALUE_HEADER = ("a", "q", "value", "value_rounded")
_SD_HEADER = ("a", "sd_min", "sd_max")
# the display column's quantum: one decimal
_TENTH = Decimal("0.1")
# quantize raises where its result has more digits than its context keeps (28
# by default); at one decimal the float maximum needs 311 characters, so this
# context keeps as many digits as decimal can
_EXACT = Context(prec=MAX_PREC, rounding=ROUND_HALF_UP)


def round_half_away(value: float) -> str:
    """Decimal string rounded to one decimal, halves away from zero.

    ``value`` is a real number (``numbers.Real``: a float, a numpy float,
    an int, a bool or a Fraction, not a Decimal), rounded as its float: a
    Python float keeps its bits, an int above 2**53 rounds as the float
    nearest to it.  That float's shortest repr is rounded once, in a
    decimal context that keeps every digit of the result, so the rounding
    is exact at any magnitude, and written out in plain digits, never in
    exponent notation: ``1e22`` gives ``'10000000000000000000000.0'`` and
    ``1e-7`` ``'0.0'``.  A value that is not a real number, or lies beyond
    the float range or is not finite, raises ``InvalidSpecError``.

    A table rounds one value a row, so a Python float skips the
    ``numbers.Real`` check and the conversion.
    """
    if type(value) is not float:
        if not isinstance(value, numbers.Real):
            raise InvalidSpecError(f"cannot round {value!r}: the value must be a real number")
        try:
            value = float(value)
        except OverflowError:
            raise InvalidSpecError("cannot round a value beyond the float range: "
                                   "the value must be finite") from None
    if not math.isfinite(value):
        raise InvalidSpecError(f"cannot round {value!r}: the value must be finite")
    return format(Decimal(repr(value)).quantize(_TENTH, context=_EXACT), "f")


@dataclass(frozen=True)
class TableArtifact:
    """One named CSV dataset with a fixed header and typed rows."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        """The header and the rows as comma-separated lines, each ending in
        LF: a float cell in ``%.17g``, which round-trips, any other cell as
        its ``str``.  Each row is one join of f-string cells, with no
        function of ours called per cell."""
        lines = [",".join(self.header)]
        lines += [",".join([f"{cell:.17g}" if isinstance(cell, float) else f"{cell}" for cell in row])
                  for row in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write :meth:`to_csv` to ``path`` and return it as a ``Path``.

        A file that already holds exactly these bytes keeps its data and
        gets a new modification time (see :func:`_write_text`).  A ``path``
        that is neither a ``str`` nor an ``os.PathLike`` raises
        ``InvalidSpecError``.
        """
        return _write_text(path, self.to_csv())


def _write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 with LF endings, and return the path.

    A regular file that already holds exactly these bytes keeps its data,
    inode, mode and owner, and gets a new modification time, as a rewrite
    would give it: truncating and rewriting it would change nothing but
    cost a flush on close on filesystems that guard replace-via-truncate
    (ext4's ``auto_da_alloc``).  Only a regular file of the same size is
    opened, to read and write, before the write: any other target (a
    device, a FIFO) is only written, and a file that cannot be read or
    written is truncated and written as by the plain write, which raises
    each error (a missing directory, a directory at the path, a read-only
    file).  A ``path`` that is neither a ``str`` nor an ``os.PathLike``
    raises ``InvalidSpecError``.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidSpecError(f"a table is written to a str or os.PathLike path, got {_shown(path)}")
    path = Path(path)
    data = text.encode("utf-8")
    try:
        info = os.stat(path)
        if stat.S_ISREG(info.st_mode) and info.st_size == len(data):
            fd = os.open(path, os.O_RDWR)  # neither creates nor truncates
            try:
                same = os.read(fd, len(data) + 1) == data
            finally:
                os.close(fd)
            if same:
                os.utime(path)
                return path
    except OSError:
        pass  # the write below creates the file, rewrites it or raises
    path.write_bytes(data)
    return path


def _value_rows(a_values, q_values, values) -> tuple[tuple, ...]:
    """Rows (a, q, value, rounded); ``values(a, q_values)`` gives one bank size's values."""
    rows = []
    for a in a_values:
        for q, value in zip(q_values, values(a, q_values)):
            rows.append((a, q, value, round_half_away(value)))
    return tuple(rows)


def build_table(name: str) -> TableArtifact:
    """Construct one of the named reference datasets.

    ``en_q``       exact mean coverage times on the small grid
    ``centred``    asymptotic mean predictions on the same grid
    ``sd_bounds``  standard deviation band per bank size
    ``fig_low``    exact means, dense low-q grid (one series per bank size)
    ``fig_high``   exact means, wide q grid up to 200

    Any other name raises ``InvalidSpecError``.
    """

    def centred(a: int, qs: tuple[int, ...]) -> list[float]:
        return [centred_mean_prediction(a, q) for q in qs]

    if name == "en_q":
        return TableArtifact(name, _VALUE_HEADER, _value_rows(TABLE_A, TABLE_Q, _default_means))
    if name == "centred":
        return TableArtifact(name, _VALUE_HEADER, _value_rows(TABLE_A, TABLE_Q, centred))
    if name == "sd_bounds":
        rows = []
        for a in SD_A:
            bounds = variance_bounds(a)
            rows.append((a, bounds.sd_lo, bounds.sd_hi))
        return TableArtifact(name, _SD_HEADER, tuple(rows))
    if name == "fig_low":
        return TableArtifact(name, _VALUE_HEADER, _value_rows(TABLE_A, FIG_LOW_Q, _default_means))
    if name == "fig_high":
        return TableArtifact(name, _VALUE_HEADER, _value_rows(TABLE_A, FIG_HIGH_Q, _default_means))
    raise InvalidSpecError(f"unknown table {name!r}; expected one of {TABLE_NAMES}")


_SERIES_COLORS = ("#3465a4", "#cc0000", "#4e9a06", "#75507b", "#c17d11")
_SVG_WIDTH = 720
_SVG_HEIGHT = 480
_FLOAT_MAX = sys.float_info.max


def _placeable(x) -> bool:
    """Whether a figure can place ``x``: an int or a float (a bool, a numpy
    float64) within the float range, which it compares and scales without
    an error; an int is compared exactly, never converted."""
    return isinstance(x, (int, float)) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def render_figure_svg(artifact: TableArtifact) -> str:
    """Line-and-marker SVG for a value table, one series per bank size.

    Deterministic output: same artifact, same bytes.  Axes are labelled with
    the question count ``q`` and the mean coverage time ``E N_q``.  A table
    without the value header, or without rows, or with a row that is not a
    tuple (or list) (a, q, value, rounded) whose a and q are finite ints or
    floats, or whose values are not all finite ints or floats with the
    largest above 0, raises ``InvalidSpecError``, as does an ``artifact``
    that is not a :class:`TableArtifact`.
    """
    if not isinstance(artifact, TableArtifact):
        raise InvalidSpecError(f"a figure needs a TableArtifact, got {_shown(artifact)}")
    if artifact.header != _VALUE_HEADER or not artifact.rows:
        raise InvalidSpecError(
            f"cannot draw table {artifact.name!r}: a figure needs the header "
            f"{','.join(_VALUE_HEADER)} and at least one row")
    series: dict[int, list[tuple[int, float]]] = {}
    for i, row in enumerate(artifact.rows):
        if not (isinstance(row, (tuple, list)) and len(row) == 4
                and _placeable(row[0]) and _placeable(row[1])):
            raise InvalidSpecError(
                f"cannot draw table {artifact.name!r}: row {i} is not (a, q, value, rounded) "
                "with a and q finite ints or floats")
        a, q, value, _rounded = row
        series.setdefault(a, []).append((q, value))

    xs = [q for pts in series.values() for q, _ in pts]
    ys = [v for pts in series.values() for _, v in pts]
    x_lo, x_hi = min(xs), max(xs)
    # the y axis must scale; a value that is not placeable makes y_hi nan
    y_lo, y_hi = 0.0, max(ys) * 1.05 if all(map(_placeable, ys)) else math.nan
    if not 0.0 < y_hi < math.inf:
        raise InvalidSpecError(
            f"cannot draw table {artifact.name!r}: a figure needs finite values "
            "with the largest above 0")
    if x_hi == x_lo:
        x_hi = x_lo + 1

    width, height = _SVG_WIDTH, _SVG_HEIGHT
    left, right, top, bottom = 64, 16, 16, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    def px(q: float) -> float:
        return left + (q - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black" stroke-width="1"/>',
    ]

    x_ticks = sorted({x_lo, x_hi, *(round(x_lo + (x_hi - x_lo) * i / 4) for i in (1, 2, 3))})
    for t in x_ticks:
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" y2="{top + plot_h + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{t:g}</text>'
        )
    y_step = y_hi / 5
    for i in range(6):
        v = y_lo + i * y_step
        y = py(v)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{v:.0f}</text>'
        )

    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 10}" font-size="14" '
        'text-anchor="middle" font-family="sans-serif">q</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {top + plot_h / 2:.2f})">'
        "E N_q</text>"
    )

    for idx, (a, pts) in enumerate(sorted(series.items())):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        # each point's x and y formatted once, for its polyline vertex and its circle
        points = [(f"{px(q):.2f}", f"{py(v):.2f}") for q, v in pts]
        coords = " ".join([f"{x},{y}" for x, y in points])
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts += [f'<circle cx="{x}" cy="{y}" r="2.5" fill="{color}"/>' for x, y in points]
        last_q, last_v = pts[-1]
        parts.append(
            f'<text x="{px(last_q) - 4:.2f}" y="{py(last_v) - 8:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif" fill="{color}">a={a}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
