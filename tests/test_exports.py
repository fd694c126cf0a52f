"""The package's public names: one door per concept.

An ExpN operation is a method of its family record (``ExpNParams(s, n).cdf(x)``,
``Exp4Params(s).sample(count, rng)``) and a single-power fit is ``fit_expn``.  The
export list is pinned, so a function that duplicates one of them is a visible change.
"""

import pytest

import thintail as tt
from thintail import dist, fit

EXPORTS = [
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

REMOVED = [
    "expn_pdf",
    "expn_cdf",
    "expn_quantile",
    "expn_sample",
    "exp4_pdf",
    "exp4_cdf",
    "exp4_quantile",
    "exp4_sample",
    "fit_exp4",
]


def test_all_is_the_pinned_list():
    assert tt.__all__ == EXPORTS


def test_every_export_resolves():
    assert [name for name in tt.__all__ if not hasattr(tt, name)] == []


@pytest.mark.parametrize("module", [tt, dist, fit], ids=["thintail", "dist", "fit"])
def test_removed_wrappers_are_gone(module):
    present = [name for name in REMOVED if hasattr(module, name)]
    if module is fit:
        # fit binds the unchecked CDF kernel under the name the benchmark's dist.cdf span wraps
        assert fit.expn_cdf is dist._expn_cdf
        present.remove("expn_cdf")
    assert present == []
