"""thintail: operational-risk capital for aggregated conduct-risk losses.

Severity is modeled with very-thin-tailed power-exponential
distributions (Exp4 and the power-n family ExpN), fitted and validated
with an enclosed-area goodness-of-fit statistic, and convolved with a
frequency model by Monte Carlo to obtain the 99.9% value-at-risk.
"""

from .dist import (
    Exp4Params,
    ExpNParams,
    LogNormalParams,
    NormalParams,
    ParetoParams,
    PointMassParams,
    SeverityModel,
    SeverityParams,
    WeibullParams,
)
from .fit import FitResult, fit_expn, fit_expn_many, scale_losses
from .ingest import (
    AggregatedLossSet,
    LossCsvError,
    LossRecord,
    LossTable,
    aggregate,
    parse_csv,
    parse_pre_aggregated,
    summary,
    write_csv,
)
from .lda import (
    CapitalResult,
    LdaConfig,
    NegativeBinomialFreq,
    NormalApproxFreq,
    PoissonFreq,
    annual_frequency,
    compare_models,
    percentile_vs_n,
    run_lda,
    run_lda_many,
)
from .tna import (
    TnaResult,
    critical_value,
    decisions_for_area,
    empirical_from_losses,
    enclosed_area,
    invert_significance,
    null_critical_value,
    significance_area,
    tna_test,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dist
    "SeverityParams",
    "Exp4Params",
    "ExpNParams",
    "NormalParams",
    "LogNormalParams",
    "WeibullParams",
    "ParetoParams",
    "PointMassParams",
    "SeverityModel",
    # tna
    "TnaResult",
    "empirical_from_losses",
    "enclosed_area",
    "significance_area",
    "critical_value",
    "invert_significance",
    "decisions_for_area",
    "null_critical_value",
    "tna_test",
    # fit
    "FitResult",
    "scale_losses",
    "fit_expn",
    "fit_expn_many",
    # lda
    "PoissonFreq",
    "NegativeBinomialFreq",
    "NormalApproxFreq",
    "LdaConfig",
    "CapitalResult",
    "annual_frequency",
    "run_lda",
    "run_lda_many",
    "compare_models",
    "percentile_vs_n",
    # ingest
    "LossRecord",
    "LossTable",
    "AggregatedLossSet",
    "LossCsvError",
    "parse_csv",
    "parse_pre_aggregated",
    "write_csv",
    "aggregate",
    "summary",
]
