"""CSV artifacts: schemas, rounding, round-trips, figure rendering."""

from __future__ import annotations

import csv
import hashlib
import math

import pytest

from bankcover import validate
from bankcover.asymptotics import centred_mean_prediction
from bankcover.coupon import _mean_series
from bankcover.tables import (
    FIG_HIGH_Q,
    FIG_LOW_Q,
    SD_A,
    TABLE_A,
    TABLE_Q,
    TableArtifact,
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
        ],
    )
    def test_one_decimal(self, value, expected):
        assert round_half_away(value) == expected

    def test_three_decimals(self):
        assert round_half_away(0.6405, 3) == "0.641"
        assert round_half_away(24.3615, 3) == "24.362"


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


class TestOutputBytes:
    @pytest.mark.parametrize("name", list(CSV_SHA256))
    def test_csv_digest(self, name):
        assert sha256(build_table(name).to_csv()) == CSV_SHA256[name]

    @pytest.mark.parametrize("name", list(SVG_SHA256))
    def test_svg_digest(self, name):
        assert sha256(render_figure_svg(build_table(name))) == SVG_SHA256[name]

    def test_quick_report_digest(self):
        assert sha256(format_report(run_checks("quick"))) == QUICK_REPORT_SHA256


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
        diffs = [estimate.value - centred_mean_prediction(a, q) for a in TABLE_A
                 for q, estimate in zip(qs, _mean_series(a, qs))]
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
