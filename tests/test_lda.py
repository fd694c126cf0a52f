"""Tests for the frequency models and the Monte Carlo capital engine."""

import dataclasses
import json
import math
import re
import sys
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import thintail as tt
from thintail import lda
from thintail.dist import _chunk_rng, _resolve_workers
from thintail.lda import _TRIAL_CHUNK, _chunk_losses, _Counts, parse_model_spec


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

    @pytest.mark.parametrize("count", [3.0, True])
    def test_count_that_is_not_an_integer_rejected(self, count):
        with pytest.raises(ValueError, match=f"^loss_count must be an integer >= 1, got {count!r}$"):
            tt.annual_frequency(count, 5.0)

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

    def test_negative_binomial_refuses_a_dispersion_that_moves_numpy_s_mean(self):
        # numpy draws counts of mean r(1 - p)/p: at mean 6 that is 6.0000005 at r = 1e10 and 0 at 1e17
        for dispersion in (1e7, 1e10):
            assert tt.NegativeBinomialFreq(6.0, dispersion).dispersion == dispersion
        for dispersion, drawn in [(1e14, 5.995204332976205), (1e17, 0.0)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"dispersion must let numpy draw counts of mean 6.0 to within 1e-06, got {dispersion!r} "
                    f"(numpy's mean is {drawn!r})")):
                tt.NegativeBinomialFreq(6.0, dispersion)

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
        with pytest.raises(ValueError, match="must be finite and > 0"):
            make(mean)

    def test_invariants(self):
        with pytest.raises(ValueError):
            tt.PoissonFreq(0.0)
        with pytest.raises(ValueError):
            tt.NegativeBinomialFreq(mean=1.0, dispersion=0.0)

    @pytest.mark.parametrize("make", [tt.PoissonFreq, tt.NormalApproxFreq], ids=["poisson", "normal"])
    def test_largest_rate_draws_and_the_next_is_refused(self, make):
        # numpy's Poisson limit, which numpy itself accepts, and the largest mean whose counts ten sd up
        # still fit int64
        limit = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)
        assert np.random.default_rng(3).poisson(limit, 4).min() > 0
        counts = make(limit).draw(np.random.default_rng(4), 1000)
        assert counts.dtype == np.int64 and (counts > 0.99 * limit).all()
        for lam in (math.nextafter(limit, math.inf), 3e301):
            with pytest.raises(ValueError, match=re.escape(f"lam must lie in (0, 9.22337e+18], got {lam!r}")):
                make(lam)

    @pytest.mark.parametrize("dispersion", [1e-10, 0.5, 3.0, 1e6, 1e18])
    def test_negative_binomial_refuses_exactly_the_means_numpy_refuses(self, dispersion):
        def numpy_draws(mean):
            try:
                np.random.default_rng(5).negative_binomial(dispersion, dispersion / (dispersion + mean), 4)
            except ValueError as exc:
                assert "n too large or p too small" in str(exc)
                return False
            return True

        lo, hi = 1.0, 1e300  # numpy draws at lo and refuses hi: bisect to adjacent floats
        while True:
            mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4 * lo else 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if numpy_draws(mid) else (lo, mid)
        assert tt.NegativeBinomialFreq(lo, dispersion).draw(np.random.default_rng(6), 4).min() >= 0
        with pytest.raises(ValueError, match=r"^mean must lie in \(0, [^\]]+\] at dispersion ") as exc:
            tt.NegativeBinomialFreq(hi, dispersion)
        assert str(exc.value).endswith(f" at dispersion {dispersion:g}, got {hi!r}")


class TestLdaConfig:
    def test_trials_floor(self):
        with pytest.raises(ValueError):
            tt.LdaConfig(trials=500)

    def test_percentile_range(self):
        with pytest.raises(ValueError):
            tt.LdaConfig(percentile=1.0)

    def test_percentile_array_refused_naming_it(self):
        with pytest.raises(ValueError, match=r"^percentile must be a scalar, got shape \(2,\)$"):
            tt.LdaConfig(percentile=np.array([0.5, 0.9]))

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            tt.LdaConfig(seed=seed)

    @pytest.mark.parametrize("field, value", [("trials", 1500.7), ("trials", 2000.0), ("seed", 1.5), ("seed", True)])
    def test_non_integer_trials_or_seed_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tt.LdaConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = tt.LdaConfig(trials=np.int64(2_000), percentile=np.float64(0.99), seed=np.uint64(3))
        assert (cfg.trials, cfg.seed) == (2_000, 3)
        # stored as the checks return them
        assert [type(v) for v in (cfg.trials, cfg.percentile, cfg.seed)] == [int, float, int]

    def test_result_of_a_numpy_seed_is_json_serializable(self):
        cfg = tt.LdaConfig(trials=1_000, seed=np.int64(3))
        result = tt.run_lda(tt.SeverityModel(tt.Exp4Params(1.0)), tt.PoissonFreq(2.0), cfg)
        assert json.loads(json.dumps(dataclasses.asdict(result)))["seed"] == 3

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

    def test_reproducible_across_worker_counts(self, monkeypatch):
        sev = tt.SeverityModel(tt.Exp4Params(1.2), scaling_mean=30.0)
        cfg = tt.LdaConfig(trials=10_000, seed=123)
        capitals = {}
        for workers in (1, 2, 8):
            monkeypatch.setenv("THINTAIL_THREADS", str(workers))
            capitals[workers] = tt.run_lda(sev, tt.PoissonFreq(5.0), cfg).capital
        assert capitals[1] == capitals[2] == capitals[8]

    @pytest.mark.parametrize("threads, workers", [(None, 1), ("1", 1), ("2", 2), (" 8 ", 8)])
    def test_threads_env_is_the_worker_count(self, monkeypatch, threads, workers):
        if threads is None:
            monkeypatch.delenv("THINTAIL_THREADS", raising=False)
        else:
            monkeypatch.setenv("THINTAIL_THREADS", threads)
        assert _resolve_workers() == workers

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_env_below_one_is_refused(self, monkeypatch, threads):
        monkeypatch.setenv("THINTAIL_THREADS", threads)
        with pytest.raises(ValueError, match=f"^THINTAIL_THREADS must be an integer >= 1, got {threads}$"):
            _resolve_workers()

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
        losses = tt.Exp4Params(1.0).sample(25, np.random.default_rng(5)) * 40.0
        cfg = tt.LdaConfig(trials=5_000, seed=77)
        freq = tt.PoissonFreq(5.0)
        base = tt.run_lda(tt.fit_expn(losses).model, freq, cfg).capital
        doubled = tt.run_lda(tt.fit_expn(2.0 * losses).model, freq, cfg).capital
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

    def test_stderr_stays_finite_at_any_loss_scale(self):
        # 2^665 is about 4e200, where the squares of the block percentiles overflow; a power of two
        # scales every draw exactly, so the stderr is the unit run's times that power
        cfg, freq = tt.LdaConfig(trials=10_000, seed=3), tt.PoissonFreq(6.0)
        unit = tt.run_lda(tt.SeverityModel(tt.Exp4Params(1.0)), freq, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = tt.run_lda(tt.SeverityModel(tt.Exp4Params(1.0), scaling_mean=2.0**665), freq, cfg)
        assert big.stderr_estimate == unit.stderr_estimate * 2.0**665
        assert big.converged == unit.converged

    @pytest.mark.parametrize("freq, message", [
        (tt.PoissonFreq(1e12), "event rate 1e+12 needs a draws buffer of 8e+12 bytes"),
        (tt.NegativeBinomialFreq(1e18, 3.0), "event rate 1e+18 needs a draws buffer of 5.42e+19 bytes"),
    ], ids=["poisson", "negbin"])
    def test_rate_whose_one_trial_outgrows_the_bound_is_refused_before_any_draw(self, freq, message, monkeypatch):
        monkeypatch.setattr(lda, "_run_chunks", None)  # a draw would call it
        with pytest.raises(ValueError, match=f"^{re.escape(message)} for one trial "
                                             r"\(8 bytes x \(mean \+ 10 sd \+ 1\) events\), "
                                             "above the 1073741824 bytes allowed$"):
            tt.run_lda(tt.SeverityModel(tt.Exp4Params(1.0)), freq, tt.LdaConfig(trials=1_000))

    def test_rate_at_the_trial_bound_runs(self, monkeypatch):
        sev, cfg = tt.SeverityModel(tt.Exp4Params(1.0)), tt.LdaConfig(trials=1_000)
        monkeypatch.setattr(lda, "_TRIAL_BYTES_MAX", 8.0 * (6.0 + 10.0 * math.sqrt(6.0) + 1.0))
        assert tt.run_lda(sev, tt.PoissonFreq(6.0), cfg).trials == 1_000
        with pytest.raises(ValueError, match="^event rate 6.001 needs a draws buffer"):
            tt.run_lda(sev, tt.PoissonFreq(6.001), cfg)

    def test_result_records_inputs(self):
        sev = tt.SeverityModel(tt.Exp4Params(1.0))
        res = tt.run_lda(sev, tt.PoissonFreq(4.5), tt.LdaConfig(trials=2_000, seed=11))
        assert res.lam == 4.5
        assert res.trials == 2_000
        assert res.seed == 11


SEVERITIES = {
    "exp4": tt.Exp4Params(1.3),
    "expn1": tt.ExpNParams(1.3, 1),
    "expn100": tt.ExpNParams(0.9, 100),
    "normal": tt.NormalParams(mu=1.0, sigma=0.4),
    "lognormal": tt.LogNormalParams(mu=0.0, sigma=0.8),
    "weibull": tt.WeibullParams(tau=0.7, theta=2.0),
    "pareto": tt.ParetoParams(theta=1.5, alpha=3.0),
    "pointmass": tt.PointMassParams(2.0),
}
MODELS = [tt.SeverityModel(params, scaling_mean=37.5) for params in SEVERITIES.values()]
FREQUENCIES = {
    "poisson": tt.PoissonFreq(6.0),
    "negbin": tt.NegativeBinomialFreq(mean=6.0, dispersion=3.0),
    "normal": tt.NormalApproxFreq(6.0),
    "poisson300": tt.PoissonFreq(300.0),  # counts above 255, kept at 2 bytes a trial
}


def chunk_sizes(freq) -> list[int]:
    """Two full chunks and a short one; at lambda = 300, whose chunks draw 50 times the
    severities, one full chunk and a short one."""
    return [_TRIAL_CHUNK, 1_000] if freq.mean > 100 else [_TRIAL_CHUNK, _TRIAL_CHUNK, 1_000]


def own_chunk(severity, freq, seed: int, chunk: int, size: int) -> np.ndarray:
    """One chunk's annual losses as a run of ``severity`` alone draws them: its own counts, then
    one ``sample`` block per group of trials whose first draws lie in the same 2^17 draws, each
    group summed per trial."""
    rng = _chunk_rng(seed, chunk)
    counts = freq.draw(rng, size)
    stretch = (np.cumsum(counts) - counts) // 2**17
    sums = []
    for k in np.unique(stretch):
        group = counts[stretch == k]
        draws = np.append(severity.sample(int(group.sum()), rng), 0.0)
        sums.append(np.add.reduceat(draws, np.concatenate(([0], np.cumsum(group)[:-1]))))
    sums = np.concatenate(sums)
    sums[counts == 0] = 0.0
    return sums


def shared_chunk(severity, counts, seed: int, chunk: int, size: int) -> np.ndarray:
    """One chunk's annual losses as ``run_lda`` draws them with the record ``counts``, a trial group at a time."""
    rng = _chunk_rng(seed, chunk)
    drawn = counts.stream(chunk, rng, size)
    out = np.full(size, np.nan)
    for lo, hi in lda._trial_groups(drawn):
        _chunk_losses(severity, rng, drawn[lo:hi], out[lo:hi], np.full(int(drawn[lo:hi].sum()) + 1, np.nan))
    return out


@pytest.fixture
def records(monkeypatch):
    """Every ``_Counts`` record a run makes during the test, each with the draws buffers its
    chunks used, one entry a chunk."""
    made = []

    class Recording(_Counts):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.used = []
            made.append(self)

        @contextmanager
        def draws(self, size):
            with super().draws(size) as draws:
                self.used.append(draws.base)
                yield draws

    monkeypatch.setattr(lda, "_Counts", Recording)
    return made


class TestSharedPass:
    """run_lda_many draws each chunk's counts once; each model's losses are its own run's."""

    @pytest.mark.parametrize("freq", list(FREQUENCIES.values()), ids=list(FREQUENCIES))
    def test_chunks_equal_each_models_own_draws(self, freq):
        sizes = chunk_sizes(freq)  # the last chunk is short
        counts = _Counts(freq)
        for chunk, size in enumerate(sizes):
            for model in MODELS:  # the first model draws the counts, the others restore them
                expected = own_chunk(model, freq, 5, chunk, size)
                assert shared_chunk(model, counts, 5, chunk, size).tobytes() == expected.tobytes()
        assert [counts.kept[chunk][1].size for chunk in range(len(sizes))] == sizes
        lone = _Counts(freq)
        assert shared_chunk(MODELS[0], lone, 5, 0, _TRIAL_CHUNK).tobytes() == shared_chunk(
            MODELS[0], counts, 5, 0, _TRIAL_CHUNK).tobytes()
        assert list(lone.kept) == [0] and lone.kept[0][1].tobytes() == counts.kept[0][1].tobytes()

    @pytest.mark.parametrize("freq", list(FREQUENCIES.values()), ids=list(FREQUENCIES))
    def test_results_equal_run_lda_per_model(self, freq, monkeypatch):
        cfg = tt.LdaConfig(trials=sum(chunk_sizes(freq)), seed=5)
        monkeypatch.setenv("THINTAIL_THREADS", "1")
        expected = [tt.run_lda(model, freq, cfg) for model in MODELS]
        for workers in ("1", "2"):
            monkeypatch.setenv("THINTAIL_THREADS", workers)
            assert tt.run_lda_many(MODELS, freq, cfg) == expected

    def test_run_lda_draws_a_chunk_one_trial_group_at_a_time(self, monkeypatch):
        # lambda = 60 draws about 246,000 severities a chunk: two groups of trials
        freq, cfg = tt.PoissonFreq(60.0), tt.LdaConfig(trials=_TRIAL_CHUNK + 1_000, seed=3)
        assert len(lda._trial_groups(freq.draw(_chunk_rng(3, 0), _TRIAL_CHUNK))) == 2
        monkeypatch.setenv("THINTAIL_THREADS", "2")
        for model in MODELS:
            annual = np.concatenate([own_chunk(model, freq, 3, 0, _TRIAL_CHUNK), own_chunk(model, freq, 3, 1, 1_000)])
            assert tt.run_lda(model, freq, cfg) == lda._capital(annual, freq, cfg)

    def test_chunks_without_events(self):
        freq, trials = tt.PoissonFreq(1e-4), 2 * _TRIAL_CHUNK + 1_808
        sizes = [_TRIAL_CHUNK, _TRIAL_CHUNK, 1_808]
        events = [int(freq.draw(_chunk_rng(0, chunk), size).sum()) for chunk, size in enumerate(sizes)]
        assert events == [0, 1, 0]  # chunks 0 and 2 have no events at all
        counts = _Counts(freq)
        for chunk, size in enumerate(sizes):
            for model in MODELS:
                row = shared_chunk(model, counts, 0, chunk, size)
                assert row.tobytes() == own_chunk(model, freq, 0, chunk, size).tobytes()
                assert (row == 0.0).all() == (events[chunk] == 0)
        cfg = tt.LdaConfig(trials=trials, seed=0)
        assert tt.run_lda_many(MODELS, freq, cfg) == [tt.run_lda(m, freq, cfg) for m in MODELS]

    def test_kept_counts_take_their_narrowest_width(self, records, monkeypatch):
        # int64 counts would take 8 bytes a trial; lambda = 60 keeps 1, lambda = 300 keeps 2
        cfg = tt.LdaConfig(trials=_TRIAL_CHUNK + 1_000, seed=2)
        monkeypatch.setenv("THINTAIL_THREADS", "1")
        for lam, width in [(60.0, 1), (300.0, 2)]:
            tt.run_lda_many(MODELS[:2], tt.PoissonFreq(lam), cfg)
            kept = [counts for _, counts in records[-1].kept.values()]
            assert sum(map(len, kept)) == cfg.trials
            assert [counts.itemsize for counts in kept] == [width] * len(kept)

    def test_models_of_a_run_reuse_its_draws_buffers(self, records, monkeypatch):
        # three full chunks at lambda = 60 draw two trial groups each, none past 2^17 draws plus
        # one trial's, far inside a buffer's eighth of headroom, so no buffer is regrown once it is made
        cfg, freq = tt.LdaConfig(trials=3 * _TRIAL_CHUNK, seed=4), tt.PoissonFreq(60.0)
        monkeypatch.setenv("THINTAIL_THREADS", "2")
        results = tt.run_lda_many(MODELS[:3], freq, cfg)
        (record,) = records
        used = {id(buffer) for buffer in record.used}  # record.used keeps each buffer, so ids stay unique
        assert len(record.used) == 3 * 3 and len(used) <= 2
        free = [record.buffers.get() for _ in range(record.buffers.qsize())]
        assert 1 <= len(free) <= 2 and {id(buffer) for buffer in free} <= used
        monkeypatch.setenv("THINTAIL_THREADS", "1")
        assert results == [tt.run_lda(model, freq, cfg) for model in MODELS[:3]]

    def test_shared_buffers_under_frequent_thread_switches(self, records, monkeypatch):
        # four workers on two cores, switching every microsecond: a buffer handed to two chunks
        # at once would mix their draws and change the capitals
        cfg, freq = tt.LdaConfig(trials=8 * _TRIAL_CHUNK, seed=6), tt.PoissonFreq(8.0)
        monkeypatch.setenv("THINTAIL_THREADS", "1")
        expected = [tt.run_lda(model, freq, cfg) for model in MODELS[:3]]
        monkeypatch.setenv("THINTAIL_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = tt.run_lda_many(MODELS[:3], freq, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert results == expected
        assert records[-1].buffers.qsize() <= 4

    @pytest.mark.parametrize("name", ["exp4", "expn100", "normal"])
    def test_chunk_memory_peaks_near_one_draws_array(self, name):
        # lambda = 60 draws about 246,000 severities (1.96 MB) per chunk.  Its buffer peaks at
        # 1.10 draws arrays (exp4) and 1.06 (expn100) with the ziggurat's rejects and the trial
        # offsets, and at 1.15 with Normal, whose redraw mask is per draw; a full-length uniform
        # array, or a copy of the draws for reduceat, would add a whole draws array and reach
        # about 2.05.  The ziggurat's block buffers (0.56 MB a thread) are made by the warm-up.
        freq, model = tt.PoissonFreq(60.0), tt.SeverityModel(SEVERITIES[name], 30.0)
        draws_bytes = 8 * int(freq.draw(_chunk_rng(42, 3), _TRIAL_CHUNK).sum())
        out = np.empty(_TRIAL_CHUNK)

        def simulate():
            rng = _chunk_rng(42, 3)
            counts = freq.draw(rng, _TRIAL_CHUNK)
            _chunk_losses(model, rng, counts, out, np.empty(int(counts.sum()) + 1))

        simulate()  # warm up: first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            simulate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * draws_bytes

    def test_many_models_hold_one_annual_array_at_a_time(self, monkeypatch):
        # 9 models at 40,000 trials: a (models, trials) array alone would be 9 trials' worth
        # of 8-byte values.  The kept counts, one model's annual losses and np.quantile's
        # copy of them peak at about 2.45, as nine run_lda calls, each keeping its own counts, do.
        trials, freq = 40_000, tt.PoissonFreq(2.0)
        cfg = tt.LdaConfig(trials=trials, seed=1)
        models = [tt.SeverityModel(tt.ExpNParams(1.0, n), 10.0) for n in range(2, 20, 2)]
        monkeypatch.setenv("THINTAIL_THREADS", "1")
        tt.run_lda_many(models[:1], freq, cfg)  # warm up
        tracemalloc.start()
        try:
            tt.run_lda_many(models, freq, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * trials


class TestTrialGroups:
    """A chunk's trials are drawn in groups whose first draws start in the same 2^17 draws."""

    def test_groups_split_where_a_trial_starts_in_the_next_stretch(self, monkeypatch):
        monkeypatch.setattr(lda, "_GROUP_DRAWS", 10)
        # trials start at draws 0, 3, 7, 12, 12, 14, 34: stretches 0, 0, 0, 1, 1, 1, 3
        counts = np.array([3, 4, 5, 0, 2, 20, 1])
        assert lda._trial_groups(counts) == [(0, 3), (3, 6), (6, 7)]
        assert lda._trial_groups(np.zeros(5, dtype=np.int64)) == [(0, 5)]
        assert lda._trial_groups(np.array([25])) == [(0, 1)]

    @pytest.mark.parametrize("lam", [0.5, 60.0, 300.0, 5_000.0])
    def test_groups_cover_the_chunk_in_order_and_stay_bounded(self, lam):
        counts = tt.PoissonFreq(lam).draw(_chunk_rng(1, 0), _TRIAL_CHUNK)
        groups = lda._trial_groups(counts)
        assert groups[0][0] == 0 and groups[-1][1] == counts.size
        assert all(hi > lo for lo, hi in groups) and all(a[1] == b[0] for a, b in zip(groups, groups[1:]))
        for lo, hi in groups:
            assert counts[lo:hi].sum() <= lda._GROUP_DRAWS + counts[hi - 1]
        assert len(groups) == -(-int(counts.sum()) // lda._GROUP_DRAWS) or len(groups) < 2


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
    return tt.Exp4Params(1.1).sample(22, np.random.default_rng(6)) * 60.0


@pytest.fixture(scope="module")
def curve_losses():
    return tt.Exp4Params(1.0).sample(25, np.random.default_rng(12)) * 50.0


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

    def test_row_equals_each_model_fitted_and_run_alone(self, compare_losses):
        cfg = tt.LdaConfig(trials=9_000, seed=4)
        row = tt.compare_models(compare_losses, 5.0, ["expn:12", "normal", "expn:100", "exp4"], cfg)
        freq = tt.PoissonFreq(tt.annual_frequency(len(compare_losses), 5.0))
        scaled, mean = tt.scale_losses(compare_losses)
        normal = tt.NormalParams(mu=1.0, sigma=float(np.std(scaled, ddof=1)))
        expected = []
        for fr in (tt.fit_expn(compare_losses, 12), None, tt.fit_expn(compare_losses, 100),
                   tt.fit_expn(compare_losses, 4)):
            if fr is None:
                model, area = tt.SeverityModel(normal, mean), tt.tna_test(scaled, normal).area
            else:
                model, area = fr.model, fr.tna.area
            expected.append((tt.run_lda(model, freq, cfg).capital, area))
        assert [(e.capital, e.tna_area) for e in row.entries] == expected

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

    def test_capitals_equal_run_lda_per_power(self, curve_losses):
        cfg = tt.LdaConfig(trials=9_000, seed=2)
        rows = tt.percentile_vs_n(curve_losses, 5.0, [4, 10, 30], cfg)
        freq = tt.PoissonFreq(tt.annual_frequency(len(curve_losses), 5.0))
        models = [tt.fit_expn(curve_losses, n).model for n in (4, 10, 30)]
        assert [c for _, _, c in rows] == [tt.run_lda(model, freq, cfg).capital for model in models]
        # the one quantile-kernel call gives each power's q999 as its own model does
        assert [type(q) for _, q, _ in rows] == [float] * 3
        assert [q for _, q, _ in rows] == [model.quantile(0.999) for model in models]

    def test_numpy_integer_powers_accepted(self, curve_losses):
        rows = tt.percentile_vs_n(curve_losses, 5.0, np.array([6, 4]), with_capital=False)
        assert [n for n, _, _ in rows] == [4, 6]

    @pytest.mark.parametrize("bad", [[], [3], [0], [5, 7], [4.5], [4, 6.5]])
    def test_bad_powers(self, curve_losses, bad):
        with pytest.raises(ValueError):
            tt.percentile_vs_n(curve_losses, 5.0, bad, tt.LdaConfig(trials=5_000))
