"""Tests for the frequency models and the Monte Carlo capital engine."""

import math

import numpy as np
import pytest

import thintail as tt
from thintail.lda import _chunk_rng, _resolve_workers, parse_model_spec


def poisson_quantile_by_summation(lam: float, p: float) -> int:
    """Direct CDF summation, independent of any sampling."""
    k = 0
    term = math.exp(-lam)
    cdf = term
    while cdf < p:
        k += 1
        term *= lam / k
        cdf += term
    return k


class TestAnnualFrequency:
    def test_thirty_over_five(self):
        assert tt.annual_frequency(30, 5.0) == 6.0

    def test_example_dataset_rate(self):
        assert tt.annual_frequency(29, 5.0) == pytest.approx(5.8)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            tt.annual_frequency(0, 5.0)

    def test_bad_years(self):
        with pytest.raises(ValueError):
            tt.annual_frequency(10, 0.0)


class TestFrequencyModels:
    def test_poisson_mean(self):
        rng = np.random.default_rng(0)
        draws = tt.PoissonFreq(6.0).draw(rng, 200_000)
        assert draws.mean() == pytest.approx(6.0, rel=0.01)

    def test_negative_binomial_moments(self):
        rng = np.random.default_rng(1)
        freq = tt.NegativeBinomialFreq(mean=6.0, dispersion=3.0)
        draws = freq.draw(rng, 400_000)
        assert draws.mean() == pytest.approx(6.0, rel=0.02)
        assert draws.var() == pytest.approx(6.0 + 36.0 / 3.0, rel=0.03)

    def test_negative_binomial_nests_poisson(self):
        rng = np.random.default_rng(2)
        freq = tt.NegativeBinomialFreq(mean=6.0, dispersion=1e7)
        draws = freq.draw(rng, 400_000)
        assert draws.var() == pytest.approx(6.0, rel=0.03)

    def test_normal_approx_rounding(self):
        rng = np.random.default_rng(3)
        freq = tt.NormalApproxFreq(2.0)
        draws = freq.draw(rng, 100_000)
        assert draws.dtype == np.int64
        assert (draws >= 0).all()
        assert draws.mean() == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("make", [
        lambda mean: tt.NegativeBinomialFreq(mean=mean, dispersion=3.0),
        tt.NormalApproxFreq,
    ], ids=["negbin", "normal"])
    @pytest.mark.parametrize("mean", [0.0, -1.0])
    def test_nonpositive_mean_rejected(self, make, mean):
        with pytest.raises(ValueError, match="must be > 0"):
            make(mean)

    def test_invariants(self):
        with pytest.raises(ValueError):
            tt.PoissonFreq(0.0)
        with pytest.raises(ValueError):
            tt.NegativeBinomialFreq(mean=1.0, dispersion=0.0)


class TestLdaConfig:
    def test_trials_floor(self):
        with pytest.raises(ValueError):
            tt.LdaConfig(trials=500)

    def test_percentile_range(self):
        with pytest.raises(ValueError):
            tt.LdaConfig(percentile=1.0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            tt.LdaConfig(seed=seed)

    @pytest.mark.parametrize("field, value", [("trials", 1500.7), ("trials", 2000.0), ("seed", 1.5)])
    def test_non_integer_trials_or_seed_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tt.LdaConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = tt.LdaConfig(trials=np.int64(2_000), seed=np.uint64(3))
        assert (cfg.trials, cfg.seed) == (2_000, 3)

    def test_seed_key_range_ends_accepted(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.0))
        for seed in (0, 2**128 - 1):
            assert tt.run_lda(sev, tt.PoissonFreq(2.0), tt.LdaConfig(trials=1_000, seed=seed)).seed == seed


class TestChunkStreams:
    def test_first_draws_distinct_across_chunks_and_seeds(self):
        firsts = [
            _chunk_rng(seed, chunk).random()
            for seed in (0, 1, 2, 2**128 - 1)
            for chunk in range(6)
        ]
        assert len(set(firsts)) == len(firsts)


# 99.9% quantiles of a Poisson(lam) sum of ExpN(0.9, n) severities, computed once with
# bench/workloads.py: compound_poisson_quantile(lam, 0.9, n, 0.999, points=2**18).
FFT_CAPITAL = {
    (4, 6.0): 8.990882756979868,
    (4, 60.0): 47.492897830007365,
    (100, 6.0): 7.522581303123858,
    (100, 60.0): 40.4258063600955,
}


@pytest.mark.parametrize("power, lam", list(FFT_CAPITAL))
def test_capital_agrees_with_fft_compound_quantile(power, lam):
    sev = tt.SeverityModel(tt.ExpNParams(0.9, power))
    res = tt.run_lda(sev, tt.PoissonFreq(lam), tt.LdaConfig(trials=200_000, seed=7))
    assert abs(res.capital - FFT_CAPITAL[power, lam]) <= 5.0 * res.stderr_estimate


class TestRunLda:
    def test_zero_frequency_limit_gives_zero_capital(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.0))
        res = tt.run_lda(sev, tt.PoissonFreq(1e-9), tt.LdaConfig(trials=10_000, seed=1))
        assert res.capital == 0.0
        assert res.converged

    def test_point_mass_poisson_oracle(self):
        sev = tt.SeverityModel(tt.PointMassParams(2.0))
        res = tt.run_lda(sev, tt.PoissonFreq(6.0), tt.LdaConfig(trials=100_000, seed=42))
        expected = 2.0 * poisson_quantile_by_summation(6.0, 0.999)
        assert abs(res.capital - expected) <= 2.0

    def test_reproducible_across_worker_counts(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.2), scaling_mean=30.0)
        cfg = tt.LdaConfig(trials=10_000, seed=123)
        capitals = {
            workers: tt.run_lda(sev, tt.PoissonFreq(5.0), cfg, workers=workers).capital
            for workers in (1, 2, 8)
        }
        assert capitals[1] == capitals[2] == capitals[8]

    @pytest.mark.parametrize("threads, workers", [("0", 1), ("-3", 1), ("2", 2)])
    def test_threads_env_below_one_is_one_worker(self, monkeypatch, threads, workers):
        monkeypatch.setenv("THINTAIL_THREADS", threads)
        assert _resolve_workers(None) == workers

    def test_seed_changes_result(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.2))
        a = tt.run_lda(sev, tt.PoissonFreq(5.0), tt.LdaConfig(trials=5_000, seed=1)).capital
        b = tt.run_lda(sev, tt.PoissonFreq(5.0), tt.LdaConfig(trials=5_000, seed=2)).capital
        assert a != b

    def test_capital_monotone_in_percentile(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.2), scaling_mean=10.0)
        lo = tt.run_lda(sev, tt.PoissonFreq(5.0), tt.LdaConfig(trials=20_000, seed=9, percentile=0.99))
        hi = tt.run_lda(sev, tt.PoissonFreq(5.0), tt.LdaConfig(trials=20_000, seed=9, percentile=0.999))
        assert hi.capital >= lo.capital

    def test_linearity_in_loss_scale_binary_exact(self):
        losses = tt.exp4_sample(25, 1.0, np.random.default_rng(5)) * 40.0
        cfg = tt.LdaConfig(trials=5_000, seed=77)
        freq = tt.PoissonFreq(5.0)
        base = tt.run_lda(tt.fit_exp4(losses).model, freq, cfg).capital
        doubled = tt.run_lda(tt.fit_exp4(2.0 * losses).model, freq, cfg).capital
        assert doubled == 2.0 * base

    def test_stderr_shrinks_like_root_trials(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.0), scaling_mean=10.0)
        freq = tt.PoissonFreq(6.0)
        errs = {}
        for trials in (10_000, 100_000):
            errs[trials] = tt.run_lda(sev, freq, tt.LdaConfig(trials=trials, seed=3)).stderr_estimate
        ratio = errs[10_000] / errs[100_000]
        assert math.sqrt(10.0) / 2.0 < ratio < math.sqrt(10.0) * 2.0

    def test_convergence_flag_tracks_half_width(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.0), scaling_mean=10.0)
        res = tt.run_lda(sev, tt.PoissonFreq(6.0), tt.LdaConfig(trials=200_000, seed=3))
        assert res.converged == (1.96 * res.stderr_estimate < 0.01 * res.capital)

    def test_overflow_guard(self):
        sev = tt.SeverityModel(tt.PointMassParams(1e308))
        with pytest.raises(RuntimeError):
            tt.run_lda(sev, tt.PoissonFreq(6.0), tt.LdaConfig(trials=1_000, seed=0))

    def test_result_records_inputs(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.0))
        res = tt.run_lda(sev, tt.PoissonFreq(4.5), tt.LdaConfig(trials=2_000, seed=11))
        assert res.lam == 4.5
        assert res.trials == 2_000
        assert res.seed == 11


class TestParseModelSpec:
    def test_known_specs(self):
        assert parse_model_spec("exp4") == ("exp4", 4)
        assert parse_model_spec("normal") == ("normal", None)
        assert parse_model_spec("expn:100") == ("expn", 100)

    @pytest.mark.parametrize("bad", ["gamma", "expn:", "expn:3", "expn:abc", "", "expn:0", "expn:-2",
                                     "normal:3"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_model_spec(bad)


@pytest.fixture(scope="module")
def compare_losses():
    return tt.exp4_sample(22, 1.1, np.random.default_rng(6)) * 60.0


@pytest.fixture(scope="module")
def curve_losses():
    return tt.exp4_sample(25, 1.0, np.random.default_rng(12)) * 50.0


class TestCompareModels:

    def test_row_structure(self, compare_losses):
        cfg = tt.LdaConfig(trials=5_000, seed=1)
        row = tt.compare_models(compare_losses, 5.0, ["exp4", "normal", "expn:100"], cfg, label="ds1")
        assert row.label == "ds1"
        assert row.count == 22
        assert row.total == pytest.approx(math.fsum(compare_losses.tolist()))
        assert [e.name for e in row.entries] == ["exp4", "normal", "expn"]
        for entry in row.entries:
            assert entry.capital > 0.0
            assert entry.tna_area >= 0.0

    def test_multiple_expn_named_by_power(self, compare_losses):
        cfg = tt.LdaConfig(trials=5_000, seed=1)
        row = tt.compare_models(compare_losses, 5.0, ["expn:12", "expn:100"], cfg)
        assert [e.name for e in row.entries] == ["expn12", "expn100"]

    def test_exp4_is_expn_power_four(self, compare_losses):
        cfg = tt.LdaConfig(trials=5_000, seed=1)
        row = tt.compare_models(compare_losses, 5.0, ["exp4", "expn:4"], cfg)
        assert [e.name for e in row.entries] == ["exp4", "expn"]
        exp4, expn4 = row.entries
        assert (exp4.capital, exp4.tna_area) == (expn4.capital, expn4.tna_area)

    def test_repeated_specs_fitted_once(self, compare_losses):
        cfg = tt.LdaConfig(trials=5_000, seed=1)
        row = tt.compare_models(
            compare_losses, 5.0, ["exp4", "normal", "normal", "expn:8", "expn:8", "exp4"], cfg
        )
        assert row == tt.compare_models(compare_losses, 5.0, ["exp4", "normal", "expn:8"], cfg)
        assert [e.name for e in row.entries] == ["exp4", "normal", "expn"]

    def test_empty_model_list_rejected(self, compare_losses):
        with pytest.raises(ValueError):
            tt.compare_models(compare_losses, 5.0, [], tt.LdaConfig(trials=5_000))

    def test_unknown_model_rejected(self, compare_losses):
        with pytest.raises(ValueError):
            tt.compare_models(compare_losses, 5.0, ["cauchy"], tt.LdaConfig(trials=5_000))

    def test_too_few_losses(self):
        with pytest.raises(ValueError):
            tt.compare_models([1.0], 5.0, ["exp4"], tt.LdaConfig(trials=5_000))


class TestPercentileVsN:
    def test_rows_ordered_and_decreasing(self, curve_losses):
        rows = tt.percentile_vs_n(
            curve_losses, 5.0, [8, 4, 6], tt.LdaConfig(trials=5_000, seed=2), with_capital=False
        )
        assert [n for n, _, _ in rows] == [4, 6, 8]
        qs = [q for _, q, _ in rows]
        assert qs[0] > qs[1] > qs[2]

    def test_full_range_shrinking_decrements(self, curve_losses):
        rows = tt.percentile_vs_n(
            curve_losses, 5.0, list(range(4, 21, 2)), tt.LdaConfig(trials=5_000), with_capital=False
        )
        qs = [q for _, q, _ in rows]
        decs = [a - b for a, b in zip(qs, qs[1:])]
        assert all(d > 0 for d in decs)
        assert all(d1 > d2 for d1, d2 in zip(decs, decs[1:]))

    def test_capital_column_present_when_requested(self, curve_losses):
        rows = tt.percentile_vs_n(curve_losses, 5.0, [4], tt.LdaConfig(trials=5_000, seed=2))
        assert rows[0][2] > 0.0

    def test_numpy_integer_powers_accepted(self, curve_losses):
        rows = tt.percentile_vs_n(curve_losses, 5.0, np.array([6, 4]), with_capital=False)
        assert [n for n, _, _ in rows] == [4, 6]

    @pytest.mark.parametrize("bad", [[], [3], [0], [5, 7], [4.5], [4, 6.5]])
    def test_bad_powers(self, curve_losses, bad):
        with pytest.raises(ValueError):
            tt.percentile_vs_n(curve_losses, 5.0, bad, tt.LdaConfig(trials=5_000))
