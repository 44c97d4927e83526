"""Subsampling mechanisms for adaptive data analysis.

Answering queries on random subsamples with small output ranges keeps
adaptively chosen analyses from overfitting the sample. This package
implements the statistical-query and approximate-median mechanisms built on
that principle, exact small-instance oracles that verify the underlying
stability facts numerically, and an adversarial-analyst harness measuring
realized bias.
"""

from .core import (
    Dataset,
    EnumerationCapExceeded,
    GroundTruth,
    Query,
    TestQuery,
    error_metric,
    error_value,
    query_expectation_on_population,
    query_expectation_on_sample,
    variance_on_population,
)
from .engine import (
    RandomSource,
    ResponsePMF,
    exact_response_pmf,
    leave_one_out_pmfs,
    population_response_pmf,
    subsample_answer,
    uniformize,
)
from .divergence import (
    InequalityCheck,
    StabilityReport,
    alkl_bound_general,
    alkl_bound_uniform,
    chi2_divergence,
    chi2_stability_bound,
    kl_divergence,
    measure_leave_one_out_chi2,
    measure_leave_one_out_kl,
    sample_exceeds_mean_exact,
    sample_exceeds_mean_probe,
    verify_kl_chi2_inequality,
    verify_kl_mixture_inequality,
    verify_variance_contraction,
)
from .mechanisms import (
    BudgetExhausted,
    BudgetLedger,
    MedianParams,
    MedianSession,
    SqParams,
    SqSession,
    approximate_median_check,
    cost_basic,
    cost_hp,
    cost_uniform,
    median_params,
    mi_upper_bound,
    sq_accuracy_threshold,
    sq_answer_cost,
    sq_params,
    sq_vote_budget,
    squash,
    std_binary,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    naive_answer,
    population_generators,
    run_experiment,
)

__version__ = "0.1.0"
