"""Public surface: the export lists agree, and bad inputs of any size raise one typed error."""

from __future__ import annotations

import importlib
import pkgutil
import types
from fractions import Fraction

import numpy as np
import pytest

import bankcover
from bankcover import (
    BankSpec,
    InvalidSpecError,
    ProbValue,
    SeriesEstimate,
    SimulationConfig,
    TableArtifact,
    build_table,
    cdf_oracle,
    centred_mean_prediction,
    centring,
    decay_rate,
    expected_single_bank,
    expected_tests,
    expected_tests_multisum,
    local_pmf_approx,
    render_figure_svg,
    run_checks,
    run_experiment,
    single_bank_cdf,
    single_bank_survival,
    test_count_cdf,
    test_count_pmf,
    variance_bounds,
    variance_tests,
)
from bankcover.cli import EXIT_OK, EXIT_USAGE, main
from bankcover.validate import format_report

SUBMODULES = {
    info.name: importlib.import_module(f"bankcover.{info.name}")
    for info in pkgutil.iter_modules(bankcover.__path__)
}
EXPORTING = {name: module for name, module in SUBMODULES.items() if hasattr(module, "__all__")}


class TestPublicNames:
    def test_every_submodule_with_public_names_is_seen(self):
        assert set(EXPORTING) == {"asymptotics", "coupon", "simulate", "tables", "validate"}

    @pytest.mark.parametrize("name", ["bankcover", *sorted(EXPORTING)])
    def test_every_listed_name_resolves_once(self, name):
        module = bankcover if name == "bankcover" else EXPORTING[name]
        assert len(module.__all__) == len(set(module.__all__)), name
        assert [n for n in module.__all__ if not hasattr(module, n)] == []

    def test_package_names_come_from_a_submodule(self):
        exported = {n for module in EXPORTING.values() for n in module.__all__}
        assert [n for n in bankcover.__all__ if n not in exported and n != "__version__"] == []

    def test_package_exports_every_public_attribute(self):
        # a name imported into the package but left out of __all__ shows here
        public = {
            n for n, value in vars(bankcover).items()
            if not n.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == set(bankcover.__all__) - {"__version__"}


# An int of 5001 digits: past the 4300 digits Python prints by default.
HUGE = -10 ** 5000
SPEC = BankSpec(10, 10)

# Every guard that puts a bad integer argument into its message.
HUGE_SITES = {
    "BankSpec a": lambda: BankSpec(HUGE, 1),
    "BankSpec q": lambda: BankSpec(2, HUGE),
    "BankSpec a too large": lambda: BankSpec(-HUGE, 1),
    "single_bank_survival a": lambda: single_bank_survival(HUGE, 5),
    "single_bank_survival y": lambda: single_bank_survival(5, HUGE),
    "single_bank_cdf a": lambda: single_bank_cdf(HUGE, 5),
    "single_bank_cdf y": lambda: single_bank_cdf(5, HUGE),
    "test_count_cdf n": lambda: test_count_cdf(SPEC, HUGE),
    "test_count_pmf n": lambda: test_count_pmf(SPEC, HUGE),
    "expected_single_bank a": lambda: expected_single_bank(HUGE),
    "expected_single_bank a too large": lambda: expected_single_bank(-HUGE),
    "cdf_oracle a": lambda: cdf_oracle(HUGE, 3),
    "cdf_oracle y": lambda: cdf_oracle(3, HUGE),
    "decay_rate a": lambda: decay_rate(HUGE),
    "centring q": lambda: centring(10, HUGE),
    "local_pmf_approx q": lambda: local_pmf_approx(10, HUGE, 0),
    "centred_mean_prediction q": lambda: centred_mean_prediction(10, HUGE),
    "SimulationConfig reps": lambda: SimulationConfig(SPEC, HUGE, 1),
    "SimulationConfig seed": lambda: SimulationConfig(SPEC, 1, HUGE),
    "SimulationConfig seed too large": lambda: SimulationConfig(SPEC, 1, -HUGE),
    "SimulationConfig workers": lambda: SimulationConfig(SPEC, 1, 1, HUGE),
    "SimulationConfig spec": lambda: SimulationConfig(HUGE, 1, 1),
    "expected_tests spec": lambda: expected_tests(HUGE),
    "variance_tests spec": lambda: variance_tests(HUGE),
    "expected_tests_multisum spec": lambda: expected_tests_multisum(HUGE),
    "test_count_cdf spec": lambda: test_count_cdf(HUGE, 5),
    "test_count_pmf spec": lambda: test_count_pmf(HUGE, 5),
}


@pytest.mark.parametrize("site", HUGE_SITES)
def test_an_integer_too_long_to_print_is_a_typed_error(site):
    # the message gives the value's size, not its 5001 digits
    with pytest.raises(InvalidSpecError, match=r"<int of 16610 bits>"):
        HUGE_SITES[site]()


@pytest.mark.parametrize("sign", [1, -1])
def test_a_fraction_too_long_to_print_is_a_typed_error(sign):
    # not an int either way; the message gives the sizes of both parts
    with pytest.raises(InvalidSpecError,
                       match="got " + "-" * (sign < 0) + "<Fraction of 16610 bits over 2 bits>"):
        SimulationConfig(Fraction(sign * 10 ** 5000, 3), 1, 1)


# The least q that no float can hold, and BankSpec's one refusal of it.
LIMIT_Q = 2 ** 1024 - 2 ** 970
LIMIT_MESSAGE = "q is beyond the float range (q must be below 2**1024 - 2**970)"

# Every reader of a BankSpec, each called as its callers call it.
SPEC_CONSUMERS = {
    "BankSpec": lambda spec: spec,
    "expected_tests": expected_tests,
    "variance_tests": variance_tests,
    "test_count_cdf": lambda spec: test_count_cdf(spec, 1025),
    "test_count_pmf": lambda spec: test_count_pmf(spec, 1025),
    "expected_tests_multisum": expected_tests_multisum,
    "SimulationConfig": lambda spec: SimulationConfig(spec, 1, 1),
}


class TestFloatLimit:
    """BankSpec is the one place that knows the q domain."""

    @pytest.mark.parametrize("consumer", SPEC_CONSUMERS)
    @pytest.mark.parametrize("a", [1, 2, 64])
    def test_every_spec_consumer_gets_the_one_refusal(self, consumer, a):
        with pytest.raises(InvalidSpecError) as got:
            SPEC_CONSUMERS[consumer](BankSpec(a, LIMIT_Q))
        assert type(got.value) is InvalidSpecError and str(got.value) == LIMIT_MESSAGE

    @pytest.mark.parametrize("consumer", SPEC_CONSUMERS)
    def test_one_less_answers(self, consumer):
        # q - 1 rounds to the float maximum and answers as any q does: the
        # point reads with a bound far below 1 (a q past the float range once
        # read 1.0 for the cdf and 2.0 for the pmf), the multi-sum with its
        # trusted-range refusal, the simulator with its draw budget's, which
        # a = 1, with no stage to draw, passes
        spec = BankSpec(2, LIMIT_Q - 1)
        if consumer == "expected_tests_multisum":
            with pytest.raises(InvalidSpecError, match="multi-sum trusted only"):
                expected_tests_multisum(spec)
            return
        if consumer == "SimulationConfig":
            with pytest.raises(InvalidSpecError) as got:
                SimulationConfig(spec, 1, 1)
            assert str(got.value) == ("reps * q * (a - 1) stage waits exceed the "
                                      "simulator's budget of 2**32 draws")
            assert SimulationConfig(BankSpec(1, LIMIT_Q - 1), 1, 1).spec.q == LIMIT_Q - 1
            return
        got = SPEC_CONSUMERS[consumer](spec)
        if isinstance(got, ProbValue):
            assert 0.0 < got.p < 1.0 and got.abs_err < 1e-12, got
        elif isinstance(got, SeriesEstimate):
            assert 0.0 < got.value < 2000.0 and 0.0 < got.tail_bound <= 1e-11, got
        else:
            assert got == spec

    @pytest.mark.parametrize("command", [["expect"], ["simulate", "--reps", "1", "--seed", "1"]],
                             ids=["expect", "simulate"])
    def test_cli_refuses_the_limit(self, capsys, command):
        code = main([command[0], "--a", "10", "--q", str(LIMIT_Q), *command[1:]])
        out, err = capsys.readouterr()
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {LIMIT_MESSAGE}\n")

    def test_cli_answers_one_less(self, capsys):
        code = main(["expect", "--a", "2", "--q", str(LIMIT_Q - 1)])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "") and out.startswith("1026.33274738 ")


def test_an_unknown_check_level_is_a_typed_error():
    # it was a bare ValueError; an unknown table name, once a KeyError, is
    # tests/test_tables.py's
    with pytest.raises(InvalidSpecError) as got:
        run_checks("slow")
    assert str(got.value) == "level must be one of ('quick', 'full'), got 'slow'"


# Each entry point with a fast path for valid int arguments, called with one
# odd argument in one position and valid ones elsewhere.  The outcome is the
# value's bits as float.hex (p and abs_err; a CentringData's four fields) or
# the InvalidSpecError message, "{}" standing for the repr of the odd
# argument: the outcomes of the checked paths, pinned before the fast paths
# were added.  np.int64(5) is refused wherever an int is asked for.
ODD_ARGS = {"np.int64(5)": np.int64(5), "True": True, "5.0": 5.0, "0": 0, "-1": -1, "65": 65,
            "2**70": 2 ** 70, "10**400": 10 ** 400}
PARITY_CALLS = {
    "single_bank_survival": (single_bank_survival, (12, 100)),
    "single_bank_cdf": (single_bank_cdf, (12, 100)),
    "test_count_cdf": (test_count_cdf, (BankSpec(12, 1000), 120)),
    "test_count_pmf": (test_count_pmf, (BankSpec(12, 1000), 120)),
    "local_pmf_approx": (local_pmf_approx, (13, 3625, 0)),
    "centring": (centring, (13, 3625)),
    "centred_mean_prediction": (centred_mean_prediction, (13, 3625)),
}
PARITY = {
    ('single_bank_survival', 0): (
        'a must be an integer, got {}',
        '0x0.0p+0 0x0.0p+0',
        'a must be an integer, got {}',
        'need a >= 1, got {}',
        'need a >= 1, got {}',
        'a={} exceeds the supported maximum of 64 alternatives',
        'a={} exceeds the supported maximum of 64 alternatives',
        'a={} exceeds the supported maximum of 64 alternatives',
    ),
    ('single_bank_survival', 1): (
        'test count must be an integer, got {}',
        '0x1.0000000000000p+0 0x0.0p+0',
        'test count must be an integer, got {}',
        '0x1.0000000000000p+0 0x0.0p+0',
        'test count must be >= 0, got {}',
        '0x1.53f6e94fd95f1p-5 0x1.0f8fefe13764ap-51',
        '0x0.0p+0 0x0.0000000000040p-1022',
        '0x0.0p+0 0x0.0000000000040p-1022',
    ),
    ('single_bank_cdf', 0): (
        'a must be an integer, got {}',
        '0x1.0000000000000p+0 0x0.0p+0',
        'a must be an integer, got {}',
        'need a >= 1, got {}',
        'need a >= 1, got {}',
        'a={} exceeds the supported maximum of 64 alternatives',
        'a={} exceeds the supported maximum of 64 alternatives',
        'a={} exceeds the supported maximum of 64 alternatives',
    ),
    ('single_bank_cdf', 1): (
        'test count must be an integer, got {}',
        '0x0.0p+0 0x0.0p+0',
        'test count must be an integer, got {}',
        '0x0.0p+0 0x0.0p+0',
        'test count must be >= 0, got {}',
        '0x1.eac0916b026a1p-1 0x1.4f8fefe13764ap-51',
        '0x1.0000000000000p+0 0x1.0000000000000p-53',
        '0x1.0000000000000p+0 0x1.0000000000000p-53',
    ),
    ('test_count_cdf', 0): (
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
    ),
    ('test_count_cdf', 1): (
        'test count must be an integer, got {}',
        '0x0.0p+0 0x0.0p+0',
        'test count must be an integer, got {}',
        '0x0.0p+0 0x0.0p+0',
        'test count must be >= 0, got {}',
        '0x1.cdc1039e14d59p-62 0x1.0000000000008p-53',
        '0x1.0000000000000p+0 0x1.0000000000000p-53',
        '0x1.0000000000000p+0 0x1.0000000000000p-53',
    ),
    ('test_count_pmf', 0): (
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
        'spec must be a BankSpec, got {}',
    ),
    ('test_count_pmf', 1): (
        'test count must be an integer, got {}',
        '0x0.0p+0 0x0.0p+0',
        'test count must be an integer, got {}',
        'test count must be >= 1, got {}',
        'test count must be >= 1, got {}',
        '0x1.c4513e23c5af0p-62 0x1.0000000000004p-52',
        '0x0.0p+0 0x1.0000000000000p-52',
        '0x0.0p+0 0x1.0000000000000p-52',
    ),
    ('local_pmf_approx', 0): (
        'a must be an integer, got {}',
        'asymptotics need a >= 2, got {}',
        'a must be an integer, got {}',
        'asymptotics need a >= 2, got {}',
        'asymptotics need a >= 2, got {}',
        '0x1.75c95ce92ff40p-8',
        'asymptotics need a <= 2**53, got an a of 71 bits',
        'asymptotics need a <= 2**53, got an a of 1329 bits',
    ),
    ('local_pmf_approx', 1): (
        'need q >= 1, got {}',
        '0x1.e2010d31c2860p-6',
        'need q >= 1, got {}',
        'need q >= 1, got {}',
        'need q >= 1, got {}',
        '0x1.e22d8679f92a0p-6',
        '0x1.e233d197f76c0p-6',
        '0x1.e2252e9a868f0p-6',
    ),
    ('local_pmf_approx', 2): (
        '0x1.c0d0455b78330p-6',
        '0x1.e0a07df7fba30p-6',
        '0x1.c0d0455b78330p-6',
        '0x1.e24f4de57b020p-6',
        '0x1.e0ec3314d9410p-6',
        '0x1.c8f3926fe8000p-12',
        '0x0.0p+0',
        '0x0.0p+0',
    ),
    ('centring', 0): (
        'a must be an integer, got {}',
        'asymptotics need a >= 2, got {}',
        'a must be an integer, got {}',
        'asymptotics need a >= 2, got {}',
        'asymptotics need a >= 2, got {}',
        '0x1.fc0a8b0fc03e4p-7 0x1.8eeca5ee8530dp+9 798 0x1.b297ba14c3400p-1',
        'asymptotics need a <= 2**53, got an a of 71 bits',
        'asymptotics need a <= 2**53, got an a of 1329 bits',
    ),
    ('centring', 1): (
        'need q >= 1, got {}',
        '0x1.47dadcbbdba83p-4 0x1.005bab2207abdp+5 33 0x1.6eac881eaf400p-5',
        'need q >= 1, got {}',
        'need q >= 1, got {}',
        'need q >= 1, got {}',
        '0x1.47dadcbbdba83p-4 0x1.50c97b62fe093p+6 85 0x1.92f6c5fc12600p-3',
        '0x1.47dadcbbdba83p-4 0x1.3f1ccab5717b2p+9 639 0x1.ccab5717b2000p-3',
        '0x1.47dadcbbdba83p-4 0x1.68969e7753227p+13 11539 0x1.a79dd4c89c000p-1',
    ),
    ('centred_mean_prediction', 0): (
        'a must be an integer, got {}',
        'asymptotics need a >= 2, got {}',
        'a must be an integer, got {}',
        'asymptotics need a >= 2, got {}',
        'asymptotics need a >= 2, got {}',
        '0x1.a18a0b94f7d99p+9',
        'asymptotics need a <= 2**53, got an a of 71 bits',
        'asymptotics need a <= 2**53, got an a of 1329 bits',
    ),
    ('centred_mean_prediction', 1): (
        'need q >= 1, got {}',
        '0x1.3a0c8156821cep+5',
        'need q >= 1, got {}',
        'need q >= 1, got {}',
        'need q >= 1, got {}',
        '0x1.6da1e67d3b41bp+6',
        '0x1.42b7d818b9223p+9',
        '0x1.68d04f4d879cep+13',
    ),
}


def parity_outcome(fn, args) -> str:
    try:
        got = fn(*args)
    except InvalidSpecError as exc:
        return str(exc)
    if isinstance(got, ProbValue):
        return f"{got.p.hex()} {got.abs_err.hex()}"
    if isinstance(got, float):
        return got.hex()
    return f"{got.decay_rate.hex()} {got.centre.hex()} {got.centre_ceil} {got.centre_frac.hex()}"


@pytest.mark.parametrize("call,position", PARITY)
def test_odd_arguments_keep_their_outcomes(call, position):
    fn, valid = PARITY_CALLS[call]
    got, want = [], []
    for (label, odd), expected in zip(ODD_ARGS.items(), PARITY[call, position], strict=True):
        args = list(valid)
        args[position] = odd
        # twice, so a memo left by the first call cannot change the second
        got += [parity_outcome(fn, args), parity_outcome(fn, args)]
        want += [expected.replace("{}", repr(odd))] * 2
    assert got == want


def fig_low_with(row) -> TableArtifact:
    """The ``fig_low`` table named 'odd', its row 3 replaced by ``row``."""
    table = build_table("fig_low")
    rows = list(table.rows)
    rows[3] = row
    return TableArtifact("odd", table.header, tuple(rows))


_ROW_MESSAGE = ("cannot draw table 'odd': row 3 is not (a, q, value, rounded) "
                "with a and q finite ints or floats")

# Entry points that once raised a bare TypeError, ValueError or
# AttributeError for an argument of the wrong type or shape; each now says
# what it expects.
WRONG_TYPES = {
    "variance_bounds": (lambda: variance_bounds([2]), "a must be an integer, got [2]"),
    "render_figure_svg": (lambda: render_figure_svg(None),
                          "a figure needs a TableArtifact, got None"),
    "render_figure_svg str value": (
        lambda: render_figure_svg(fig_low_with((5, 4, "49.9", "49.9"))),
        "cannot draw table 'odd': a figure needs finite values with the largest above 0"),
    "render_figure_svg None q": (
        lambda: render_figure_svg(fig_low_with((5, None, 49.9, "49.9"))), _ROW_MESSAGE),
    "render_figure_svg 3-tuple": (
        lambda: render_figure_svg(fig_low_with((5, 4, 49.9))), _ROW_MESSAGE),
    "TableArtifact.write None": (lambda: build_table("sd_bounds").write(None),
                                 "a table is written to a str or os.PathLike path, got None"),
    "TableArtifact.write int": (lambda: build_table("sd_bounds").write(123),
                                "a table is written to a str or os.PathLike path, got 123"),
    "run_experiment": (lambda: run_experiment(None),
                       "config must be a SimulationConfig, got None"),
    "format_report": (lambda: format_report(None),
                      "results must be a list of CheckResult, got None"),
}


@pytest.mark.parametrize("site", WRONG_TYPES)
def test_a_wrong_type_is_a_typed_error(site):
    call, message = WRONG_TYPES[site]
    with pytest.raises(InvalidSpecError) as got:
        call()
    assert type(got.value) is InvalidSpecError and str(got.value) == message
    # raised as the first error, not while handling another
    assert got.value.__context__ is None and got.value.__cause__ is None
