"""Query-adapted conformal prediction intervals for tabular regression.

For one unlabeled query the pipeline emits three intervals with the
same miscoverage level: one calibrated on all rows, one on the rows
most similar to the query, and one on synthetic controls cloned from
those rows. Three conformal constructions (split, full, jackknife) and
three regression engines (OLS, LASSO, Nadaraya-Watson kernel) can be
combined freely; a grid runner runs every combination over built-in
simulation suites and writes deterministic CSV tables.
"""

from .core import (
    ARTIFACT_VERSION,
    ConfigError,
    ConformalMethod,
    DataError,
    Dataset,
    ExperimentConfig,
    IntervalPath,
    PredictionInterval,
    Query,
    Regressor,
    Similarity,
    load_csv,
    save_csv,
    subseed,
    transform_features,
)
from .regress import (
    FittedModel,
    fit,
    fit_kernel,
    fit_lasso,
    fit_ols,
    kernel_weights,
    lasso_kkt_residual,
    loo_residuals,
    predict,
    predict_many,
)
from .conformal import (
    ConformalSpec,
    ceil_guarded,
    conformal_interval,
    full_conformal,
    full_conformal_accepted,
    jackknife_conformal,
    loo_quantile,
    split_conformal,
    split_quantile,
)
from .individualize import (
    ControlMode,
    RelevanceSelection,
    select,
    select_cosine,
    select_percentile,
    simulate_controls,
)
from .dgp import SUITES, SuiteOutput, gen_long, gen_setting, gen_small
from .evaluate import Cell, MetricRow, aggregate, score, summary_table, variant_code
from .runner import RunManifest, run_algorithm1, run_grid

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "ConfigError",
    "ConformalMethod",
    "DataError",
    "Dataset",
    "ExperimentConfig",
    "IntervalPath",
    "PredictionInterval",
    "Query",
    "Regressor",
    "Similarity",
    "load_csv",
    "save_csv",
    "subseed",
    "transform_features",
    "FittedModel",
    "fit",
    "fit_kernel",
    "fit_lasso",
    "fit_ols",
    "kernel_weights",
    "lasso_kkt_residual",
    "loo_residuals",
    "predict",
    "predict_many",
    "ConformalSpec",
    "ceil_guarded",
    "conformal_interval",
    "full_conformal",
    "full_conformal_accepted",
    "jackknife_conformal",
    "loo_quantile",
    "split_conformal",
    "split_quantile",
    "ControlMode",
    "RelevanceSelection",
    "select",
    "select_cosine",
    "select_percentile",
    "simulate_controls",
    "SUITES",
    "SuiteOutput",
    "gen_long",
    "gen_setting",
    "gen_small",
    "Cell",
    "MetricRow",
    "aggregate",
    "score",
    "summary_table",
    "variant_code",
    "RunManifest",
    "run_algorithm1",
    "run_grid",
    "__version__",
]
