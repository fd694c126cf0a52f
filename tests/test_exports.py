"""The package's public names: one door per concept.

An ExpN operation is a method of its one record class (``ExpNParams(s, n).cdf(x)``,
``ExpNParams(s).sample(count, rng, out=...)``; ``Exp4Params`` is an alias of ``ExpNParams``,
whose n defaults to 4) and a single-power fit is ``fit_expn``.  The export list is
pinned, so a function that duplicates one of them is a visible change.  Each name is
declared once, in its module's ``__all__``, and the package joins those lists.
"""

import pytest

import thintail as tt
from thintail import dist, fit, ingest, lda, tna

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
    "null_critical_value",
    "tna_test",
    "tna_test_samples",
    # fit
    "FitResult",
    "scale_losses",
    "fit_expn",
    "fit_expn_many",
    "fit_expn_samples",
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
    "expn_params",
    "decisions_for_area",
]


def test_all_is_the_pinned_list():
    assert tt.__all__ == EXPORTS


def test_all_joins_the_module_lists():
    assert tt.__all__ == ["__version__", *dist.__all__, *tna.__all__, *fit.__all__, *lda.__all__, *ingest.__all__]


def test_exp4_params_is_the_expn_record():
    assert tt.Exp4Params is tt.ExpNParams


def test_every_export_resolves():
    assert [name for name in tt.__all__ if not hasattr(tt, name)] == []


@pytest.mark.parametrize("module", [tt, dist, fit, tna], ids=["thintail", "dist", "fit", "tna"])
def test_removed_wrappers_are_gone(module):
    present = [name for name in REMOVED if hasattr(module, name)]
    if module is fit:
        # fit binds the unchecked CDF kernel under the name the benchmark's dist.cdf span wraps
        assert fit.expn_cdf is dist._expn_cdf
        present.remove("expn_cdf")
    assert present == []
