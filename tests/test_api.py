"""Public surface: the export lists agree, and bad integers of any size raise typed errors."""

from __future__ import annotations

import importlib
import pkgutil
import types

import pytest

import bankcover
from bankcover import (
    BankSpec,
    InvalidSpecError,
    SimulationConfig,
    TruncationPolicy,
    cdf_oracle,
    centred_mean_prediction,
    centring,
    decay_rate,
    expected_single_bank,
    local_pmf_approx,
    single_bank_cdf,
    single_bank_survival,
    test_count_cdf,
    test_count_pmf,
)

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
    "TruncationPolicy n_cap": lambda: TruncationPolicy(n_cap=HUGE),
    "TruncationPolicy eps_term": lambda: TruncationPolicy(eps_term=HUGE),
}


@pytest.mark.parametrize("site", HUGE_SITES)
def test_an_integer_too_long_to_print_is_a_typed_error(site):
    # the message gives the value's size, not its 5001 digits
    with pytest.raises(InvalidSpecError, match=r"<int of 16610 bits>"):
        HUGE_SITES[site]()
