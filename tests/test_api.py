"""Public surface: the export lists agree, and bad inputs of any size raise one typed error."""

from __future__ import annotations

import importlib
import pkgutil
import types
from fractions import Fraction

import pytest

import bankcover
from bankcover import (
    BankSpec,
    InvalidSpecError,
    ProbValue,
    SeriesEstimate,
    SimulationConfig,
    cdf_oracle,
    centred_mean_prediction,
    centring,
    decay_rate,
    expected_single_bank,
    expected_tests,
    expected_tests_multisum,
    local_pmf_approx,
    run_checks,
    single_bank_cdf,
    single_bank_survival,
    test_count_cdf,
    test_count_pmf,
    variance_tests,
)
from bankcover.cli import EXIT_OK, EXIT_USAGE, main

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
