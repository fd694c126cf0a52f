"""Tests for mean-scaling and the enclosed-area scale search."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thintail as tt
from thintail import fit
from thintail.dist import ExpNParams

# population mean of ExpN(1, n): 2^(1/n) * Gamma(2/n) / Gamma(1/n); for n=4
# this is the quadrature-checked constant below, so the scale of the
# mean-scaled population is its reciprocal.
EXP4_UNIT_MEAN = 0.5813683170191185818416


def quantile_matched(n_points: int, s: float, power: int = 4) -> np.ndarray:
    ps = (np.arange(1, n_points + 1) - 0.5) / n_points
    return tt.ExpNParams(s, power).quantile(ps)


class TestScaleLosses:
    def test_two_values(self):
        scaled, mean = tt.scale_losses([2.0, 4.0])
        assert mean == 3.0
        assert scaled == pytest.approx([2 / 3, 4 / 3])

    def test_single_value(self):
        # every caller fits, tests or takes a sample sd, so one loss is refused
        with pytest.raises(ValueError, match="^need at least 2 losses, got 1$"):
            tt.scale_losses([5.0])

    def test_identity(self):
        scaled, mean = tt.scale_losses([1.0, 1.0, 1.0])
        assert mean == 1.0
        assert np.array_equal(scaled, [1.0, 1.0, 1.0])

    def test_scaled_mean_is_one(self):
        rng = np.random.default_rng(0)
        scaled, _ = tt.scale_losses(rng.uniform(1.0, 100.0, 57))
        assert scaled.mean() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0, 2.0], [float("inf")]])
    def test_invalid_inputs(self, bad):
        with pytest.raises(ValueError):
            tt.scale_losses(bad)


class TestFitExp4:
    def test_quantile_matched_recovery(self):
        fr = tt.fit_expn(quantile_matched(30, 1.0))
        assert fr.s_hat_raw == pytest.approx(1.0, abs=0.01)
        assert fr.converged
        assert not fr.at_boundary

    def test_random_sample_recovery_reasonable(self):
        rng = np.random.default_rng(14)
        fr = tt.fit_expn(tt.Exp4Params(0.8).sample(200, rng))
        assert fr.s_hat_raw == pytest.approx(0.8, rel=0.10)

    def test_evaluation_budget(self):
        fr = tt.fit_expn(quantile_matched(30, 1.0))
        assert fr.evaluations <= 200

    def test_returned_scale_beats_prescan_grid(self):
        losses = tt.Exp4Params(1.0).sample(25, np.random.default_rng(3))
        fr = tt.fit_expn(losses)
        scaled, _ = tt.scale_losses(losses)
        for s in np.geomspace(0.05, 10.0, 16):
            grid_area = tt.tna_test(scaled, ExpNParams(float(s), 4)).area
            assert fr.tna.area <= grid_area + 1e-15

    def test_determinism_bit_identical(self):
        losses = tt.Exp4Params(1.0).sample(30, np.random.default_rng(8))
        a = tt.fit_expn(losses)
        b = tt.fit_expn(losses)
        assert a == b

    def test_scale_equivariance_binary_exact(self):
        losses = tt.Exp4Params(1.3).sample(30, np.random.default_rng(21)) * 7.0
        base = tt.fit_expn(losses)
        for k in (2.0, 4.0, 0.5):
            scaled_fit = tt.fit_expn(k * losses)
            assert scaled_fit.s_hat == base.s_hat
            assert scaled_fit.scaling_mean == k * base.scaling_mean

    def test_scale_equivariance_general(self):
        losses = tt.Exp4Params(1.3).sample(30, np.random.default_rng(22)) * 7.0
        base = tt.fit_expn(losses)
        tripled = tt.fit_expn(3.0 * losses)
        assert tripled.s_hat == pytest.approx(base.s_hat, rel=1e-9)

    def test_equal_losses_find_interior_minimum(self):
        # With the endpoint-augmented polyline the tied-data area is a smooth
        # function of F(1, s) with its minimum where F(1, s) = 1/2, i.e. at the
        # reciprocal of the unit-scale median: an interior point, no boundary
        # warning.  (A boundary hit was conceivable a priori; it does not occur.)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fr = tt.fit_expn([3.0, 3.0, 3.0, 3.0])
        median_unit = tt.Exp4Params(1.0).quantile(0.5)
        assert fr.s_hat == pytest.approx(1.0 / median_unit, abs=1e-3)
        assert not fr.at_boundary

    def test_boundary_warning_when_minimum_outside_bracket(self):
        # one loss 1e6 times the rest: the area keeps falling below the bracket bottom
        with pytest.warns(RuntimeWarning):
            fr = tt.fit_expn([0.001] * 29 + [1000.0])
        assert fr.at_boundary
        assert fr.s_hat == 0.05

    @pytest.mark.parametrize("entry", [
        lambda x: tt.fit_expn(x, 4),
        lambda x: tt.fit_expn_many(x, [4]),
    ], ids=["fit_expn", "fit_expn_many"])
    def test_boundary_warning_points_at_the_caller(self, entry):
        with pytest.warns(RuntimeWarning, match="search boundary") as caught:
            entry([0.001] * 29 + [1000.0])
        assert [w.filename for w in caught] == [__file__]

    def test_requires_two_losses(self):
        with pytest.raises(ValueError):
            tt.fit_expn([5.0])

    def test_result_model_roundtrip(self):
        fr = tt.fit_expn(quantile_matched(30, 2.0))
        model = fr.model
        assert isinstance(model.params, tt.Exp4Params)
        assert model.params.s == fr.s_hat
        assert model.params == ExpNParams(fr.s_hat, 4) == tt.Exp4Params(fr.s_hat)
        assert model.scaling_mean == fr.scaling_mean
        # tna field reflects the scaled-data test at s_hat
        scaled, _ = tt.scale_losses(quantile_matched(30, 2.0))
        recomputed = tt.tna_test(scaled, tt.SeverityModel(tt.Exp4Params(fr.s_hat)))
        assert recomputed.area == fr.tna.area


class TestFitExpN:
    def test_n4_is_the_default_power(self):
        losses = tt.Exp4Params(1.0).sample(30, np.random.default_rng(4))
        assert tt.fit_expn(losses, 4) == tt.fit_expn(losses)

    def test_quantile_matched_n12_recovery(self):
        fr = tt.fit_expn(quantile_matched(30, 1.0, power=12), 12)
        assert fr.s_hat_raw == pytest.approx(1.0, abs=0.01)

    def test_n100_on_exp4_data_fits_worse(self):
        # quantile-matched Exp4 data: the n=4 fit is near-perfect by
        # construction, so the n=100 misspecification must show a larger area
        # (random samples are noisier: the ordering holds only in the majority
        # of cases there).
        losses = quantile_matched(30, 1.0)
        area4 = tt.fit_expn(losses).tna.area
        fr100 = tt.fit_expn(losses, 100)
        assert fr100.converged
        assert fr100.tna.area > area4

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
            tt.fit_expn([1.0, 2.0], 0)


# Samples the pinned fits run on, written out so that the pins hold the fit, not the
# sampler.  They are the float reprs of ExpNParams(2.5, 8).sample(12, default_rng(7)) and
# ExpNParams(1.0, 4).sample(30, default_rng(101)) as drawn from Gamma(1/n) variates; repr
# round-trips a double exactly, so each literal is that draw bit for bit.
SEEDED12 = [
    1.7041785999659667, 2.114728108325428, 0.8183341369527355, 0.014354638358992306,
    2.173025938812965, 0.8261480117369504, 0.6948431403950714, 1.3755344447411022,
    1.6962281520232487, 0.4367811544700189, 0.11979774867681718, 1.4037255999220535,
]
SEEDED30 = [
    1.3342296638453797, 0.9364762952104599, 0.3500176191239008, 0.9665303155867975,
    1.1492439694775571, 0.46415735704547373, 0.7753309535321212, 0.6036176382034206,
    0.06564762668247834, 1.026382148838875, 0.7935881449019189, 1.5207263509963753,
    0.2914359685783821, 1.4080699461818866, 0.4392339805854091, 0.6158033473464274,
    0.8494453450589702, 0.5494628604515546, 0.5851314726496828, 0.11075327027906592,
    0.2566611720684239, 0.2130859659650125, 0.7166388722200818, 0.5448945194844331,
    0.041496574398878515, 1.1879802328386975, 0.07309531874142375, 1.1682796280677756,
    0.787003406960035, 0.34934260745783136,
]


def _pinned_losses(name):
    if name == "boundary":  # one loss far above the rest: the area is least at the lower end
        return [0.001] * 29 + [1000.0]
    if name == "upper":  # three such losses: power 100 is least at the upper end
        return [0.001] * 27 + [1000.0] * 3
    if name == "two_losses":
        return [1.0, 3.0]
    if name == "tied":
        return [3.0, 3.0, 3.0, 3.0]
    if name == "tied_mixed":
        return [2.0, 2.0, 5.0, 5.0, 5.0, 9.0]
    if name == "seeded12":
        return np.array(SEEDED12)
    return np.array(SEEDED30)


# (losses, power) -> (repr(s_hat), evaluations, repr(tna.area), crossings, at_boundary),
# recorded from the one-power-at-a-time search so that any rewrite of it is held to the
# same floating-point results.
PINNED_FITS = {
    ("seeded30", 1): ("0.6389909665752721", 42, "0.0605637214099463", 5, False),
    ("seeded30", 2): ("1.3258877986495077", 43, "0.033101269862357625", 5, False),
    ("seeded30", 4): ("1.7245115417930008", 44, "0.015732348949141887", 13, False),
    ("seeded30", 100): ("1.946163706122585", 44, "0.02075345140114802", 8, False),
    ("seeded12", 8): ("1.97522876508225", 44, "0.027332754624796098", 8, False),
    ("two_losses", 4): ("1.7793712431365427", 44, "0.004100662961177925", 1, False),
    ("tied", 4): ("1.8394472137697835", 44, "0.18750000000000783", 1, False),
    ("tied_mixed", 6): ("1.838040049232022", 44, "0.07043767125574377", 4, False),
    ("boundary", 4): ("0.05", 35, "0.46642059945166703", 1, True),
    ("upper", 100): ("10.0", 46, "0.40682441710201706", 1, True),
}


class TestPinnedFits:
    @pytest.mark.parametrize("key", sorted(PINNED_FITS), ids=lambda k: f"{k[0]}-n{k[1]}")
    def test_fit_matches_pinned_result(self, key):
        name, power = key
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fr = tt.fit_expn(_pinned_losses(name), power)
        got = (repr(fr.s_hat), fr.evaluations, repr(fr.tna.area), fr.tna.crossings, fr.at_boundary)
        assert got == PINNED_FITS[key]

    @pytest.mark.parametrize("name, converged", [("seeded30", True), ("boundary", False)])
    def test_converged_means_an_interior_minimum(self, name, converged):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fr = tt.fit_expn(_pinned_losses(name), 4)
        assert fr.converged is converged
        assert fr.at_boundary is not converged


class TestLockstepSearch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 40),
        powers=st.lists(st.integers(1, 8) | st.integers(9, 120), min_size=1, max_size=6),
    )
    @example(seed=0, size=30, powers=[2, 4, 100])
    @settings(max_examples=40, deadline=None)
    def test_each_row_equals_its_own_fit(self, seed, size, powers):
        rng = np.random.default_rng(seed)
        losses = np.round(rng.lognormal(0.0, 1.0, size), int(rng.integers(0, 4))) + 0.01
        scaled, _ = tt.scale_losses(losses)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = tt.fit_expn_many(losses, powers)
            assert results == [tt.fit_expn(losses, n) for n in powers]
        for fr, n in zip(results, powers):
            # the batched TN-A evaluation gives the bits of a test of its own
            assert fr.tna == tt.tna_test(scaled, tt.SeverityModel(ExpNParams(fr.s_hat, n)))
            assert fr.evaluations <= 47  # 16 grid points, 2 probes, 28 golden steps, 1 midpoint

    def test_rows_may_hold_their_own_samples(self):
        rng = np.random.default_rng(5)
        samples = [tt.Exp4Params(s).sample(25, rng) for s in (0.5, 1.0, 3.0)]
        scaled = [tt.scale_losses(x)[0] for x in samples]
        xs, ys = zip(*(tt.empirical_from_losses(x) for x in scaled))
        powers = np.array([4, 8, 100])
        s_hats, evaluations = fit._search(np.stack(xs), ys[0], powers)
        singles = [tt.fit_expn(x, int(n)) for x, n in zip(samples, powers)]
        assert s_hats.tolist() == [fr.s_hat for fr in singles]
        assert evaluations.tolist() == [fr.evaluations for fr in singles]

    def test_one_boundary_row_warns_for_itself_only(self):
        # two losses far above the rest: power 1 has an interior minimum, power 4 does not
        with pytest.warns(RuntimeWarning, match="search boundary") as caught:
            results = tt.fit_expn_many([0.001] * 28 + [1000.0] * 2, [1, 4])
        assert [fr.at_boundary for fr in results] == [False, True]
        assert len(caught) == 1

    def test_needs_at_least_one_power(self):
        with pytest.raises(ValueError, match="at least one"):
            tt.fit_expn_many([1.0, 2.0], [])
