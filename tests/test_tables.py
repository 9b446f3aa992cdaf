"""CSV artifacts: schemas, rounding, round-trips, figure rendering."""

from __future__ import annotations

import csv
import hashlib
import math
import os
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bankcover import tables, validate
from bankcover.asymptotics import centred_mean_prediction
from bankcover.coupon import InvalidSpecError, _series
from bankcover.tables import (
    FIG_HIGH_Q,
    FIG_LOW_Q,
    SD_A,
    TABLE_A,
    TABLE_Q,
    TableArtifact,
    _write_text,
    build_table,
    render_figure_svg,
    round_half_away,
)
from bankcover.validate import MEAN_TABLE_PRINTED, SD_PRINTED, format_report, run_checks

# sha256 of every table CSV and figure SVG as first released; refactors of
# the arithmetic must leave these bytes alone
CSV_SHA256 = {
    "en_q": "5f1e11b59c6361909d572ccd96c5cfd96c238bb3113ea4e9694e6e29b3c0e26c",
    "centred": "410460dbcbd36f72c09ff0cbba6d774d3eb9f1e60b221469a41e3ee39a92872a",
    "sd_bounds": "dd65105fa4df2b3c0936af5bcbb5fe5602a857741121ef9083b49bd3c8b0a9f1",
    "fig_low": "7971eece36b42215159b4fddaae60b58d97797bbe695b8f129d45144da849391",
    "fig_high": "c4a61b279672d36364ade12a1290062abd85fdc063edd238b4c1e5c6255d6979",
}
SVG_SHA256 = {
    "fig_low": "534c43dd35bbe6c60e5bf3ead9c249e7f4271cee269037bb65b9eec2ae1a542d",
    "fig_high": "404dc078025ad3b21e10d3fe94cd5de781fa4588d4e38490e6516b59e4ca91cc",
}
# sha256 of the `validate --level quick` report; it prints the multi-sum and
# the series means next to their references, so it moves if their sums do
QUICK_REPORT_SHA256 = "7e217eed6a343d0d3fccd071866ac8b1642e2ed36dfee49b5e204627c7af787f"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (11.416666666666666, "11.4"),
            (30.955995, "31.0"),
            (71.95479314287364, "72.0"),
            (117.14998725165937, "117.1"),
            (0.05, "0.1"),  # halves away from zero
            (-0.05, "-0.1"),
            (2.25, "2.3"),
            (14.0, "14.0"),
            # any real number rounds as its float; numpy 2's repr of these is
            # not a decimal literal, so rounding the repr raised
            pytest.param(np.float64(2.25), "2.3", id="np.float64(2.25)"),
            pytest.param(np.float32(0.1), "0.1", id="np.float32(0.1)"),
            pytest.param(True, "1.0", id="True"),
            pytest.param(Fraction(1, 3), "0.3", id="Fraction(1, 3)"),
            pytest.param(Fraction(1, 8), "0.1", id="Fraction(1, 8)"),
            # an int above 2**53 rounds as its float
            pytest.param(2 ** 53 + 1, "9007199254740992.0", id="2**53 + 1"),
        ],
    )
    def test_one_decimal(self, value, expected):
        assert round_half_away(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            pytest.param(np.float64(2.25), "2.3", id="np.float64(2.25)"),
            pytest.param(2 ** 53 + 1, "9007199254740992.0", id="2**53 + 1"),
            pytest.param(Fraction(1, 8), "0.1", id="Fraction(1, 8)"),
            pytest.param(True, "1.0", id="True"),
        ],
    )
    def test_other_reals_round_as_their_float(self, value, expected):
        # the string of a non-float real is the string of float(value)
        assert round_half_away(value) == round_half_away(float(value)) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (1e27, "1" + "0" * 27 + ".0"),
            (1e30, "1" + "0" * 30 + ".0"),
            (-1e30, "-1" + "0" * 30 + ".0"),
            (9.96, "10.0"),  # the carry adds a digit
            (sys.float_info.max, "17976931348623157" + "0" * 292 + ".0"),
        ],
        ids=["1e27", "1e30", "-1e30", "carry", "float max"],
    )
    def test_exact_at_any_magnitude(self, value, expected):
        # past the default 28-digit decimal context, quantize raised
        # InvalidOperation; the float maximum needs 311 characters
        assert round_half_away(value) == expected

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10 ** 400, -10 ** 400,
                                       Fraction(10 ** 400, 3)],
                             ids=["inf", "-inf", "nan", "1e400", "-1e400", "Fraction 1e400/3"])
    def test_non_finite_raises_typed_error(self, value):
        # a value beyond the float range raised a bare OverflowError
        with pytest.raises(InvalidSpecError, match="must be finite"):
            round_half_away(value)

    @pytest.mark.parametrize("value", [Decimal("2.5"), "2.5", None], ids=["Decimal", "str", "None"])
    def test_not_a_real_number_raises_typed_error(self, value):
        with pytest.raises(InvalidSpecError, match="must be a real number"):
            round_half_away(value)

    @pytest.mark.parametrize(
        "value,expected",
        [
            (1e-7, "0.0"),
            (-1e-7, "-0.0"),
            (2.5e-8, "0.0"),
            (1e22, "1" + "0" * 22 + ".0"),
        ],
    )
    def test_never_in_exponent_notation(self, value, expected):
        # the repr of each is in exponent notation; the rounded string never is
        assert round_half_away(value) == expected


class TestBuildTable:
    def test_mean_table_schema_and_values(self):
        table = build_table("en_q")
        assert table.header == ("a", "q", "value", "value_rounded")
        assert len(table.rows) == len(TABLE_A) * len(TABLE_Q)
        printed = [p for a in TABLE_A for p in MEAN_TABLE_PRINTED[a]]
        for (a, q, value, rounded), want in zip(table.rows, printed):
            assert rounded == want
            assert abs(value - float(want)) <= 0.05

    def test_centred_table_schema(self):
        table = build_table("centred")
        assert table.header == ("a", "q", "value", "value_rounded")
        assert [(row[0], row[1]) for row in table.rows] == [
            (a, q) for a in TABLE_A for q in TABLE_Q
        ]

    def test_sd_table(self):
        table = build_table("sd_bounds")
        assert table.header == ("a", "sd_min", "sd_max")
        assert tuple(row[0] for row in table.rows) == SD_A
        for a, sd_min, sd_max in table.rows:
            want_min, want_max = SD_PRINTED[a]
            assert sd_min == pytest.approx(want_min, abs=0.002)
            assert sd_max == pytest.approx(want_max, abs=0.002)

    def test_fig_low_has_twenty_rows_per_series(self):
        table = build_table("fig_low")
        for a in TABLE_A:
            rows = [row for row in table.rows if row[0] == a]
            assert len(rows) == 20
            assert tuple(row[1] for row in rows) == FIG_LOW_Q

    def test_fig_high_strictly_increasing_per_series(self):
        table = build_table("fig_high")
        for a in TABLE_A:
            values = [row[2] for row in table.rows if row[0] == a]
            assert len(values) == len(FIG_HIGH_Q)
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_table("nope")


class TestCsvRoundTrip:
    def test_bytes_shape(self):
        text = build_table("sd_bounds").to_csv()
        assert text.startswith("a,sd_min,sd_max\n")
        assert text.endswith("\n") and "\r" not in text

    @staticmethod
    def _parse(table: TableArtifact) -> list[list[str]]:
        header, *rows = csv.reader(table.to_csv().splitlines())
        assert tuple(header) == table.header
        assert len(rows) == len(table.rows)
        return rows

    def test_full_precision_round_trips(self):
        table = build_table("en_q")
        for (a, q, value, rounded), cells in zip(table.rows, self._parse(table)):
            assert (int(cells[0]), int(cells[1]), cells[3]) == (a, q, rounded)
            assert float(cells[2]) == value

    def test_sd_round_trips(self):
        table = build_table("sd_bounds")
        for (a, sd_min, sd_max), cells in zip(table.rows, self._parse(table)):
            assert int(cells[0]) == a
            assert float(cells[1]) == sd_min and float(cells[2]) == sd_max

    def test_value_column_keeps_sig_digits(self):
        line = build_table("en_q").to_csv().splitlines()[1]
        value_text = line.split(",")[2]
        digits = len(value_text.replace(".", "").replace("-", "").lstrip("0"))
        assert digits >= 12

    def test_write_is_lf_only(self, tmp_path):
        path = tmp_path / "t.csv"
        build_table("sd_bounds").write(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8") == build_table("sd_bounds").to_csv()


class TestWriteText:
    """A file that already holds the bytes keeps its data and gets a new
    mtime; every other target is truncated and written as by a plain write,
    which raises what a plain write raises."""

    TEXT = build_table("sd_bounds").to_csv()

    def test_identical_bytes_keep_the_file_and_get_a_new_mtime(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_bytes(self.TEXT.encode())
        path.chmod(0o640)
        os.utime(path, (0, 0))
        before = path.stat()
        marker = tmp_path / "marker"  # stamped by the kernel just before the call
        marker.write_bytes(b"")

        def refuse(target, data):
            raise AssertionError(f"rewrote {target}")
        monkeypatch.setattr(Path, "write_bytes", refuse)
        assert _write_text(str(path), self.TEXT) == path
        after = path.stat()
        assert path.read_bytes() == self.TEXT.encode()
        assert (after.st_ino, after.st_mode, after.st_uid) == (
            before.st_ino, before.st_mode, before.st_uid)
        assert after.st_mtime_ns > 0 and after.st_mtime_ns >= marker.stat().st_mtime_ns

    @pytest.mark.parametrize("old", [
        # the same size with one byte changed, a shorter file and a longer one
        TEXT.replace("2,", "7,", 1), TEXT[:-9], TEXT + "64,0.5,0.6\n"],
        ids=["same-size", "shorter", "longer"])
    def test_changed_bytes_are_rewritten(self, tmp_path, old):
        path = tmp_path / "t.csv"
        path.write_bytes(old.encode())
        path.chmod(0o640)
        os.utime(path, (0, 0))
        before = path.stat()
        _write_text(path, self.TEXT)
        after = path.stat()
        assert path.read_bytes() == self.TEXT.encode()  # no stale tail
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert after.st_mtime_ns > 0

    @pytest.mark.parametrize("same", [True, False])
    def test_a_symlink_is_followed(self, tmp_path, same):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(self.TEXT.encode() if same else b"old\n")
        link.symlink_to(target)
        inode = target.stat().st_ino
        os.utime(target, (0, 0))
        _write_text(link, self.TEXT)
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == self.TEXT.encode()
        assert target.stat().st_ino == inode and target.stat().st_mtime_ns > 0

    def test_a_read_only_file_with_the_bytes_raises(self, tmp_path, unprivileged):
        path = tmp_path / "t.csv"
        path.write_bytes(self.TEXT.encode())
        path.chmod(0o444)
        os.utime(path, (0, 0))
        done = unprivileged(tmp_path, f"""
            try:
                bankcover.tables._write_text("t.csv", {self.TEXT!r})
            except PermissionError:
                print("PermissionError")
        """)
        assert done.stdout == "PermissionError\n", done.stderr
        assert path.read_bytes() == self.TEXT.encode() and path.stat().st_mtime_ns == 0

    @pytest.mark.parametrize("same", [True, False])
    def test_a_write_only_file_is_written(self, tmp_path, unprivileged, same):
        path = tmp_path / "t.csv"
        path.write_bytes(self.TEXT.encode() if same else b"old\n")
        path.chmod(0o222)
        os.utime(path, (0, 0))
        done = unprivileged(tmp_path, f"""
            bankcover.tables._write_text("t.csv", {self.TEXT!r})
        """)
        assert done.returncode == 0, done.stderr
        assert path.read_bytes() == self.TEXT.encode() and path.stat().st_mtime_ns > 0

    def test_a_directory_at_the_path_raises(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            _write_text(tmp_path, self.TEXT)
        assert tmp_path.is_dir()

    def test_a_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            _write_text(tmp_path / "missing" / "t.csv", self.TEXT)

    @pytest.mark.parametrize("text", ["", TEXT], ids=["empty", "table"])
    def test_a_device_is_written_unread(self, monkeypatch, text):
        # /dev/null is empty, so the empty text has its size; it is still not read
        def refuse(fd, n):
            raise AssertionError("read a device")
        written = []
        monkeypatch.setattr(tables.os, "read", refuse)
        monkeypatch.setattr(Path, "write_bytes",
                            lambda path, data: written.append((str(path), data)))
        _write_text(os.devnull, text)
        assert written == [(os.devnull, text.encode())]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_a_fifo_is_written_to_its_reader(self, tmp_path, monkeypatch):
        # an open of the FIFO before the write would wake the reader waiting
        # in its open and, once closed, hand it EOF; the write would then
        # wait for a reader that never comes
        fifo = tmp_path / "t.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        write_bytes = Path.write_bytes

        def write_after_a_done_reader(target, data):  # a reader handed EOF ends first
            reader.join(0.2)
            return write_bytes(target, data)
        monkeypatch.setattr(Path, "write_bytes", write_after_a_done_reader)
        writer = threading.Thread(target=_write_text, args=(fifo, self.TEXT), daemon=True)
        reader.start()
        time.sleep(0.1)  # the reader waits in its open
        writer.start()
        reader.join(10)
        if writer.is_alive():  # free a write left waiting for a reader
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
        assert received == [self.TEXT.encode()]

    def test_a_new_file_is_created_with_the_plain_mode(self, tmp_path):
        _write_text(tmp_path / "new.csv", self.TEXT)
        with open(tmp_path / "plain.csv", "w"):
            pass
        assert (tmp_path / "new.csv").read_bytes() == self.TEXT.encode()
        assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode


class TestFigureSvg:
    def test_axes_labelled(self):
        svg = render_figure_svg(build_table("fig_low"))
        assert ">q</text>" in svg
        assert "E N_q</text>" in svg

    def test_deterministic(self):
        table = build_table("fig_low")
        assert render_figure_svg(table) == render_figure_svg(table)

    def test_one_series_per_bank_size(self):
        svg = render_figure_svg(build_table("fig_high"))
        assert svg.count("<polyline") == len(TABLE_A)
        for a in TABLE_A:
            assert f"a={a}" in svg

    def test_undrawable_table_raises_typed_error(self):
        # a table of another header, and a value table with no rows
        no_rows = TableArtifact("fig_low", build_table("fig_low").header, ())
        for table in (build_table("sd_bounds"), no_rows):
            with pytest.raises(InvalidSpecError) as got:
                render_figure_svg(table)
            assert str(got.value) == (f"cannot draw table {table.name!r}: a figure needs the "
                                      "header a,q,value,value_rounded and at least one row")
        # values the y axis cannot scale to: none above 0, or one not finite
        header = build_table("fig_low").header
        for values in ((0.0, 0.0), (-1.0, 0.0), (1.0, math.nan), (math.nan, 1.0),
                       (1.0, math.inf), (-math.inf, 1.0)):
            table = TableArtifact("flat", header, tuple(
                (5, q, value, round_half_away(value) if math.isfinite(value) else "nan")
                for q, value in enumerate(values, 1)))
            with pytest.raises(InvalidSpecError) as got:
                render_figure_svg(table)
            assert str(got.value) == ("cannot draw table 'flat': a figure needs finite "
                                      "values with the largest above 0")


class TestOutputBytes:
    @pytest.mark.parametrize("name", list(CSV_SHA256))
    def test_csv_digest(self, name):
        assert sha256(build_table(name).to_csv()) == CSV_SHA256[name]

    @pytest.mark.parametrize("name", list(SVG_SHA256))
    def test_svg_digest(self, name):
        assert sha256(render_figure_svg(build_table(name))) == SVG_SHA256[name]

    def test_quick_report_digest(self):
        assert sha256(format_report(run_checks("quick"))) == QUICK_REPORT_SHA256

    def test_empty_report_is_the_summary_alone(self):
        assert format_report([]) == "0/0 checks passed"


class TestSharedMeanPass:
    """``run_checks`` judges the mean table, the centred band and the plot
    prints from one ``fig_high`` table, which holds every q they read."""

    @staticmethod
    def _lines(name: str) -> list[str]:
        return build_table(name).to_csv().splitlines()[1:]

    @pytest.mark.parametrize("name", ["en_q", "fig_low"])
    def test_mean_tables_are_fig_high_lines(self, name):
        high = {tuple(line.split(",")[:2]): line for line in self._lines("fig_high")}
        lines = self._lines(name)
        assert len(lines) == len(TABLE_A) * len(TABLE_Q if name == "en_q" else FIG_LOW_Q)
        for line in lines:
            assert line == high[tuple(line.split(",")[:2])]

    def test_centred_band_matches_its_own_series(self):
        qs = (20, 50, 100, 200)
        diffs = [mean.value - centred_mean_prediction(a, q) for a in TABLE_A
                 for q, (mean,) in zip(qs, _series(a, qs, False))]
        band = validate.centred_diff_band(build_table("fig_high").rows)
        assert band == (min(diffs), max(diffs))

    def test_band_judges_every_q_from_20(self, monkeypatch):
        # fig_high holds q = 25..48, 60, 80 and 150 between the four mean
        # table q >= 20; a cell there moved by 0.2 leaves the band
        # [0.45, 0.65], while a moved q = 19 cell lies outside its domain
        rows = build_table("fig_high").rows
        lo, hi = validate.centred_diff_band(rows)
        assert 0.45 <= lo and hi <= 0.65
        for a in TABLE_A:
            for q, step, inside in ((25, 0.2, False), (25, -0.2, False), (19, 0.2, True)):
                moved = tuple((a_, q_, value + step if (a_, q_) == (a, q) else value, rounded)
                              for a_, q_, value, rounded in rows)
                lo, hi = validate.centred_diff_band(moved)
                assert (0.45 <= lo and hi <= 0.65) == inside, (a, q, step)

        def moved_table(name):
            table = build_table(name)
            if name != "fig_high":
                return table
            return TableArtifact(table.name, table.header, tuple(
                (a, q, value + 0.2 if (a, q) == (10, 25) else value, rounded)
                for a, q, value, rounded in table.rows))

        monkeypatch.setattr(validate, "build_table", moved_table)
        failed = {r.name for r in run_checks("quick") if not r.passed}
        assert "centred_diff_band" in failed

    @pytest.mark.parametrize("check", [validate.mean_table_deviation, validate.figure_deviation])
    def test_a_moved_mean_cell_fails(self, check):
        rows = build_table("fig_high").rows
        assert check(rows)[0] <= 0.05
        for cell in [(a, q) for a in TABLE_A for q in TABLE_Q]:
            moved = tuple(
                # 0.06 away from the print, so the cell is off by more than 0.05
                (a, q, value + math.copysign(0.06, value - float(rounded)), rounded)
                if (a, q) == cell else (a, q, value, rounded)
                for a, q, value, rounded in rows
            )
            assert check(moved)[0] > 0.05, cell

    def test_run_checks_judges_the_table_it_builds(self, monkeypatch):
        def moved(name):
            table = build_table(name)
            if name != "fig_high":
                return table
            rows = tuple((a, q, value + 0.06 if (a, q) == (20, 20) else value, rounded)
                         for a, q, value, rounded in table.rows)
            return TableArtifact(table.name, table.header, rows)

        monkeypatch.setattr(validate, "build_table", moved)
        failed = {r.name for r in run_checks("quick") if not r.passed}
        assert failed == {"mean_table", "centred_diff_band", "figure_data"}
