"""Coverage times for randomized tests drawn from question banks.

Exact distributions with certified error bounds, large-q Gumbel asymptotics,
and seeded Monte Carlo, for the time until every alternative of every
question bank has appeared in a generated test.
"""

from .asymptotics import (
    EULER_GAMMA,
    CentringData,
    MomentBounds,
    VarianceBoundSummary,
    band_second_moment,
    centred_mean_prediction,
    centring,
    decay_rate,
    gumbel_cdf,
    local_pmf_approx,
    mean_bounds,
    sandwich_bounds,
    variance_bounds,
)
from .coupon import (
    MAX_ALTERNATIVES,
    BankSpec,
    InvalidSpecError,
    ProbValue,
    SeriesEstimate,
    cdf_oracle,
    expected_single_bank,
    expected_tests,
    expected_tests_multisum,
    single_bank_cdf,
    single_bank_survival,
    test_count_cdf,
    test_count_pmf,
    variance_tests,
)
from .simulate import GENERATOR_ID, SimulationConfig, SimulationResult, run_experiment
from .tables import TableArtifact, build_table, render_figure_svg, round_half_away
from .validate import CheckResult, format_report, run_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EULER_GAMMA",
    "GENERATOR_ID",
    "MAX_ALTERNATIVES",
    "BankSpec",
    "ProbValue",
    "SeriesEstimate",
    "CentringData",
    "MomentBounds",
    "VarianceBoundSummary",
    "SimulationConfig",
    "SimulationResult",
    "TableArtifact",
    "CheckResult",
    "InvalidSpecError",
    "expected_single_bank",
    "single_bank_survival",
    "single_bank_cdf",
    "cdf_oracle",
    "test_count_cdf",
    "test_count_pmf",
    "expected_tests",
    "expected_tests_multisum",
    "variance_tests",
    "decay_rate",
    "centring",
    "gumbel_cdf",
    "sandwich_bounds",
    "local_pmf_approx",
    "mean_bounds",
    "band_second_moment",
    "variance_bounds",
    "centred_mean_prediction",
    "run_experiment",
    "build_table",
    "render_figure_svg",
    "round_half_away",
    "run_checks",
    "format_report",
]
