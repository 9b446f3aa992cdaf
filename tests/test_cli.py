"""Command line contract: outputs, exit codes, determinism, tamper canary."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bankcover
import bankcover.asymptotics as asymptotics
import bankcover.cli as cli
from bankcover.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from bankcover.validate import run_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_value_table(path: Path) -> list[tuple[int, int, float, str]]:
    """The (a, q, value, value_rounded) rows of a value-table CSV."""
    _header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
    return [(int(a), int(q), float(value), rounded) for a, q, value, rounded in rows]


class TestExpect:
    @pytest.mark.parametrize(
        "a,q,reference",
        [("10", "200", 78.1), ("1", "7", 1.0), ("5", "50", 27.9)],
    )
    def test_reference_values(self, capsys, a, q, reference):
        code, out, _ = run_cli(capsys, "expect", "--a", a, "--q", q)
        assert code == EXIT_OK
        assert float(out.split()[0]) == pytest.approx(reference, abs=0.05)

    def test_removed_policy_eps_flag_exits_2(self, capsys):
        # every series stops at the one threshold: the flag that set it is gone
        code, out, err = run_cli(capsys, "expect", "--a", "10", "--q", "10", "--policy-eps", "1e-8")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --policy-eps 1e-8" in err

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "expect", "--a", "0", "--q", "5")
        assert code == EXIT_USAGE and "error" in err

    def test_gate_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "expect", "--a", "65", "--q", "1")
        assert code == EXIT_USAGE

    def test_bad_flags_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "expect", "--a", "ten", "--q", "1")
        assert code == EXIT_USAGE

    def test_bank_count_beyond_float_range_exits_2(self, capsys):
        # a q that no float can hold is refused as a domain error, naming the limit
        code, out, err = run_cli(capsys, "expect", "--a", "2", "--q", str(10 ** 400))
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: q is beyond the float range "
                       "(q must be below 2**1024 - 2**970)\n")

    def test_large_bank_size_answers(self, capsys):
        # a = 41..64 once crashed in the series: F(n) rounds to 0 near n = a
        code, out, err = run_cli(capsys, "expect", "--a", "50", "--q", "3")
        assert code == EXIT_OK and err == ""
        assert float(out.split()[0]) > 50 * 4.4

    def test_internal_error_exits_5(self, capsys, monkeypatch):
        def blow_up(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr("bankcover.cli.expected_tests", blow_up)
        code, out, err = run_cli(capsys, "expect", "--a", "10", "--q", "10")
        assert code == EXIT_INTERNAL and out == ""
        assert err == "error: internal: RuntimeError: boom\n"


class TestTable:
    def test_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        code, printed, _ = run_cli(capsys, "table", "en_q", "--out", str(out))
        assert code == EXIT_OK and str(out) in printed
        rounded = {(r[0], r[1]): r[3] for r in read_value_table(out)}
        assert rounded[(10, 10)] == "49.9"
        assert rounded[(20, 200)] == "173.5"

    def test_env_var_sets_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BANKCOVER_OUT_DIR", str(tmp_path))
        code, printed, _ = run_cli(capsys, "table", "sd_bounds")
        assert code == EXIT_OK
        assert (tmp_path / "sd_bounds.csv").exists()

    def test_out_accepts_directory(self, capsys, tmp_path):
        code, printed, _ = run_cli(capsys, "table", "en_q", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert (tmp_path / "en_q.csv").exists()

    def test_out_with_trailing_separator_makes_directory(self, capsys, tmp_path):
        for target in (tmp_path / "tables", tmp_path / "deep" / "er"):
            code, printed, _ = run_cli(capsys, "table", "en_q", "--out", f"{target}{os.sep}")
            assert code == EXIT_OK and printed == f"{target / 'en_q.csv'}\n"
            assert target.is_dir() and (target / "en_q.csv").is_file()
        # an existing directory named with the separator is used as it is
        code, printed, _ = run_cli(capsys, "table", "sd_bounds", "--out", f"{tmp_path}{os.sep}")
        assert code == EXIT_OK and (tmp_path / "sd_bounds.csv").is_file()

    def test_unknown_table_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "table", "wat")
        assert code == EXIT_USAGE

    def test_unwritable_path_exits_4(self, capsys, tmp_path):
        target = tmp_path / "missing" / "deep" / "t.csv"
        code, _, err = run_cli(capsys, "table", "en_q", "--out", str(target))
        assert code == EXIT_IO and "error" in err

    def test_unchanged_output_keeps_its_file_and_gets_a_new_mtime(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli(capsys, "table", "en_q", "--out", str(out))[0] == EXIT_OK
        written = out.read_bytes()
        os.utime(out, (0, 0))
        inode = out.stat().st_ino
        code, printed, _ = run_cli(capsys, "table", "en_q", "--out", str(out))
        assert code == EXIT_OK and printed == f"{out}\n"
        assert out.read_bytes() == written
        assert out.stat().st_ino == inode and out.stat().st_mtime_ns > 0

    def test_read_only_output_with_the_bytes_exits_4(self, capsys, tmp_path, unprivileged):
        out = tmp_path / "m.csv"
        assert run_cli(capsys, "table", "en_q", "--out", str(out))[0] == EXIT_OK
        out.chmod(0o444)
        done = unprivileged(tmp_path, """
            import sys
            sys.exit(bankcover.cli.main(["table", "en_q", "--out", "m.csv"]))
        """)
        assert done.returncode == EXIT_IO and done.stderr.startswith("error: [Errno 13]")


class TestSimulate:
    def test_repeat_runs_are_byte_identical(self, capsys):
        args = ("simulate", "--a", "10", "--q", "10", "--reps", "2000", "--seed", "42")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_worker_split_is_byte_identical(self, capsys):
        base = ("simulate", "--a", "5", "--q", "5", "--reps", "3000", "--seed", "7")
        _, out_one, _ = run_cli(capsys, *base)
        _, out_four, _ = run_cli(capsys, *base, "--workers", "4")
        assert out_one == out_four

    def test_record_fields_and_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--a", "2", "--q", "1", "--reps", "100000", "--seed", "1"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert set(record) == {
            "spec", "reps", "seed", "mean", "variance",
            "std_error_mean", "min", "max", "generator_id",
        }
        assert record["spec"] == {"a": 2, "q": 1}
        assert abs(record["mean"] - 3.0) <= 3 * record["std_error_mean"]
        assert record["min"] >= 2

    def test_invalid_reps_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--a", "2", "--q", "1", "--reps", "0", "--seed", "1")
        assert code == EXIT_USAGE

    def test_run_past_the_draw_budget_exits_2(self, capsys):
        # 2**32 + 1 stage waits at a = 2: refused before any draw
        code, out, err = run_cli(capsys, "simulate", "--a", "2", "--q", str(2 ** 32 + 1),
                                 "--reps", "1", "--seed", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("error: reps * q * (a - 1) stage waits exceed the simulator's "
                       "budget of 2**32 draws\n")


class TestValidate:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--level", "quick")
        assert code == EXIT_OK
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in out
        assert [line.split()[1] for line in out.splitlines() if line.startswith("PASS")] == [
            "single_bank_mean", "mean_table", "centred_table", "centred_diff_band",
            "sd_bound_table", "exp_integral_value", "oracle_agreement",
            "multisum_agreement", "figure_data",
        ]

    def test_quick_runs_without_scipy(self):
        # the library needs numpy only; scipy is a test dependency
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None  # any scipy import now fails
            import bankcover, bankcover.cli

            def scipy_loaded():
                return [m for m, v in sys.modules.items() if m.startswith("scipy") and v]

            assert not scipy_loaded(), scipy_loaded()
            code = bankcover.cli.main(["validate", "--level", "quick"])
            assert not scipy_loaded(), scipy_loaded()
            sys.exit(code)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(bankcover.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert "checks passed" in done.stdout

    def test_quick_builds_no_row_of_values(self):
        # the checks want curve probabilities alone: they read the blocks'
        # cells, and no row of ProbValues is built, cached or kept in the
        # survival reads' memo for them
        script = textwrap.dedent("""
            from bankcover import coupon
            from bankcover.validate import run_checks

            assert all(result.passed for result in run_checks("quick"))
            assert coupon._survival_block.cache_info().currsize > 0
            assert coupon._point_row.cache_info().currsize == 0, coupon._point_row.cache_info()
            assert coupon._last_s is coupon._NO_ROW
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(bankcover.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_level_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--level", "paranoid")
        assert code == EXIT_USAGE

    def test_gamma_tamper_trips_centred_checks(self, monkeypatch):
        # nudging the stored Euler-Mascheroni constant by -1e-3 must break
        # the centred prediction comparisons (the +1e-3 direction lands
        # inside the table tolerances, so the canary tampers downward)
        monkeypatch.setattr(asymptotics, "EULER_GAMMA", asymptotics.EULER_GAMMA - 1e-3)
        results = {r.name: r for r in run_checks("quick")}
        assert not (
            results["centred_table"].passed and results["centred_diff_band"].passed
        )

    def test_e1_drift_trips_its_check(self, monkeypatch):
        # the check reads the constant the variance band adds in
        monkeypatch.setattr(asymptotics, "_E1_ONE", 0.2196)
        results = {r.name: r for r in run_checks("quick")}
        assert not results["exp_integral_value"].passed
        assert results["exp_integral_value"].observed.startswith("E1(1) = 0.2196000")

    def test_tampered_run_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(asymptotics, "EULER_GAMMA", asymptotics.EULER_GAMMA - 1e-3)
        code, out, _ = run_cli(capsys, "validate", "--level", "quick")
        assert code == EXIT_VALIDATION
        assert "FAIL" in out


class TestFigure:
    def test_out_with_trailing_separator_makes_directory(self, capsys, tmp_path):
        target = tmp_path / "figs"
        code, printed, _ = run_cli(capsys, "figure", "fig_high", "--out", f"{target}{os.sep}")
        assert code == EXIT_OK and printed == f"{target / 'fig_high.svg'}\n"
        assert (target / "fig_high.svg").read_text(encoding="utf-8").startswith("<svg")

    def test_svg_axes(self, capsys, tmp_path):
        out = tmp_path / "f.svg"
        code, _, _ = run_cli(capsys, "figure", "fig_low", "--out", str(out))
        assert code == EXIT_OK
        svg = out.read_text(encoding="utf-8")
        assert ">q</text>" in svg and "E N_q</text>" in svg
        assert svg.count("<polyline") == 3

    # a figure's data is the table of the same name
    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "table", "fig_high", "--out", str(out))
        assert code == EXIT_OK
        rows = read_value_table(out)
        by_cell = {(r[0], r[1]): r[3] for r in rows}
        assert by_cell[(20, 200)] == "173.5"
        low_cells = [r for r in rows if r[0] == 10]
        values = [r[2] for r in low_cells]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_fig_low_row_count(self, capsys, tmp_path):
        out = tmp_path / "low.csv"
        run_cli(capsys, "table", "fig_low", "--out", str(out))
        rows = read_value_table(out)
        for a in (5, 10, 20):
            assert sum(1 for r in rows if r[0] == a) == 20

    def test_csv_format_is_rejected(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        code, _, err = run_cli(capsys, "figure", "fig_high", "--format", "csv", "--out", str(out))
        assert code == EXIT_USAGE and "--format" in err
        assert not out.exists()

    def test_only_figure_names_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "en_q")
        assert code == EXIT_USAGE

    def test_env_var_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BANKCOVER_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "figure", "fig_low")
        assert code == EXIT_OK
        assert (tmp_path / "fig_low.svg").exists()


class TestHelp:
    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0
        assert "expect" in out + err


class TestParserReuse:
    def test_one_parser_serves_a_mixed_sequence(self, capsys, tmp_path):
        # one process, one cached parser: each call answers as a fresh parser does
        sequence = [
            ("expect", "--a", "10", "--q", "50"),
            ("table", "en_q", "--out", str(tmp_path)),
            ("expect", "--a", "10"),
            ("simulate", "--a", "5", "--q", "3", "--reps", "200", "--seed", "7"),
            ("figure", "fig_low", "--out", str(tmp_path)),
            ("--help",),
            ("expect", "--a", "0", "--q", "5"),
        ]
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 2]
        reused = [run_cli(capsys, *argv) for argv in sequence]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh
