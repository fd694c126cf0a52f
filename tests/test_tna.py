"""Tests for the enclosed-area statistic and its significance machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import thintail as tt
from thintail.tna import _checked_polyline_areas, _polyline_areas, decisions_for_area


def dense_area_oracle(points, step=1e-5):
    """Trapezoid integration of |polyline - diagonal| on a fine grid.

    Independent of the production formula: builds the polyline with
    numpy interpolation and integrates the absolute deviation.
    """
    pts = np.asarray(points, dtype=float)
    xs = np.concatenate(([0.0], pts[:, 0], [1.0]))
    ys = np.concatenate(([0.0], pts[:, 1], [1.0]))
    grid = np.arange(0.0, 1.0 + step, step)
    # np.interp handles repeated x (vertical segments) by taking one value,
    # which changes the integral by O(step) * jump; refine by integrating
    # each segment separately instead.
    total = 0.0
    for (x1, x2, y1, y2) in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
        if x2 == x1:
            continue
        seg = np.linspace(x1, x2, max(int((x2 - x1) / step), 2) + 1)
        vals = y1 + (seg - x1) * (y2 - y1) / (x2 - x1)
        total += trapezoid(np.abs(vals - seg), seg)
    return total


class TestEmpirical:
    def test_formula_example(self):
        x, y = tt.empirical_from_losses([3.0, 1.0, 2.0])
        assert np.array_equal(x, [1.0, 2.0, 3.0])
        assert y == pytest.approx([1 / 6, 1 / 2, 5 / 6])

    def test_single_loss_rejected(self):
        with pytest.raises(ValueError, match="at least 2 losses, got 1"):
            tt.empirical_from_losses([1.0])

    def test_ties_keep_rank_positions(self):
        x, y = tt.empirical_from_losses([1.0, 1.0])
        assert np.array_equal(x, [1.0, 1.0])
        assert y == pytest.approx([0.25, 0.75])

    @pytest.mark.parametrize("bad", [[1.0, -2.0], [0.0, 1.0], [1.0, float("nan")], [[1.0, 2.0], [3.0, 4.0]]])
    def test_invalid_losses(self, bad):
        message = "finite and > 0" if np.ndim(bad) == 1 else r"1-d sequence, got shape \(2, 2\)"
        with pytest.raises(ValueError, match=message):
            tt.empirical_from_losses(bad)


class TestProbabilitySpace:
    """``tna_test`` measures the polyline through (F(x_i), y_i)."""

    def test_true_model_lands_on_diagonal(self):
        n = 25
        ys = (np.arange(1, n + 1) - 0.5) / n
        losses = tt.Exp4Params(1.3).quantile(ys)
        model = tt.SeverityModel(tt.Exp4Params(1.3))
        x, y = tt.empirical_from_losses(losses)
        assert model.cdf(x) == pytest.approx(y, abs=1e-9)
        assert tt.tna_test(losses, model).area < 1e-9

    def test_two_point_case(self):
        model = tt.SeverityModel(tt.Exp4Params(1.0))
        losses = [tt.Exp4Params(1.0).quantile(0.25), tt.Exp4Params(1.0).quantile(0.75)]
        x, y = tt.empirical_from_losses(losses)
        assert np.abs(model.cdf(x) - [0.25, 0.75]).max() < 1e-9
        assert np.array_equal(y, [0.25, 0.75])
        result = tt.tna_test(losses, model)
        assert result.n_points == 2
        assert result.area < 1e-9

    def test_positive_losses_map_above_zero(self):
        model = tt.SeverityModel(tt.Exp4Params(1.0))
        x, _ = tt.empirical_from_losses([1e-6, 2e-6, 5.0])
        assert (model.cdf(x) > 0.0).all()
        assert tt.tna_test(x, model).n_points == 3


class TestEnclosedArea:
    def test_diagonal_is_zero(self):
        pts = [[0.2, 0.2], [0.5, 0.5], [0.9, 0.9]]
        assert tt.enclosed_area(pts) == 0.0

    def test_single_point_above(self):
        assert tt.enclosed_area([[0.5, 0.9]]) == pytest.approx(0.2, abs=1e-12)

    def test_single_point_below_reflection(self):
        assert tt.enclosed_area([[0.5, 0.1]]) == pytest.approx(0.2, abs=1e-12)
        assert tt.enclosed_area([[0.5, 0.1]]) == pytest.approx(
            tt.enclosed_area([[0.5, 0.9]]), abs=1e-15
        )

    def test_single_point_against_dense_oracle(self):
        pts = [[0.5, 0.9]]
        assert tt.enclosed_area(pts) == pytest.approx(dense_area_oracle(pts), abs=1e-8)

    def test_vertical_segment_contributes_zero_width(self):
        # two tied X values: the jump itself has no width
        area = tt.enclosed_area([[0.5, 0.2], [0.5, 0.8]])
        assert area == pytest.approx(0.15, abs=1e-12)

    def test_random_monotone_sets_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            pts = np.column_stack((np.sort(rng.random(n)), np.sort(rng.random(n))))
            assert tt.enclosed_area(pts) == pytest.approx(
                dense_area_oracle(pts), abs=1e-6
            )

    def test_reflection_invariance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            pts = np.column_stack((np.sort(rng.random(n)), np.sort(rng.random(n))))
            reflected = pts[:, ::-1]
            assert tt.enclosed_area(pts) == pytest.approx(
                tt.enclosed_area(reflected), abs=1e-12
            )

    def test_outside_unit_square_rejected(self):
        with pytest.raises(ValueError):
            tt.enclosed_area([[0.5, 1.2]])
        with pytest.raises(ValueError):
            tt.enclosed_area([[-0.1, 0.5]])

    def test_decreasing_x_rejected(self):
        with pytest.raises(ValueError):
            tt.enclosed_area([[0.8, 0.5], [0.2, 0.6]])

    @given(
        x=st.floats(min_value=0.01, max_value=0.99),
        y=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_point_reflection_property(self, x, y):
        assert tt.enclosed_area([[x, y]]) == pytest.approx(
            tt.enclosed_area([[y, x]]), abs=1e-12
        )


class TestSignificance:
    def test_reference_value_at_0025(self):
        assert round(tt.significance_area(0.025), 4) == 0.0682

    def test_standard_critical_levels(self):
        assert tt.significance_area(0.005) == pytest.approx(0.014, abs=5e-4)
        assert tt.significance_area(0.05) == pytest.approx(0.131, abs=5e-4)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.0 / math.sqrt(2.0), 0.9])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            tt.significance_area(p)


class TestCriticalValue:
    def test_two_tailed_standards(self):
        assert tt.critical_value(5.0) == pytest.approx(0.068, abs=5e-4)
        assert tt.critical_value(1.0) == pytest.approx(0.014, abs=5e-4)
        assert tt.critical_value(10.0) == pytest.approx(0.131, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            tt.critical_value(0.0)
        with pytest.raises(ValueError):
            tt.critical_value(100.0)


class TestInvertSignificance:
    def test_zero_area(self):
        assert tt.invert_significance(0.0) == 0.0

    def test_standard_critical_inverses(self):
        assert tt.invert_significance(0.068) == pytest.approx(0.025, abs=2e-4)
        assert tt.invert_significance(0.131) == pytest.approx(0.05, abs=2e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            tt.invert_significance(0.51)
        with pytest.raises(ValueError):
            tt.invert_significance(-0.01)

    @pytest.mark.parametrize("area", [float("nan"), -0.01, 0.51, "0.1"])
    def test_decisions_refuse_what_inversion_refuses(self, area):
        # a NaN area compares false with every critical value, so it read "accept" at every level
        for decide in (tt.invert_significance, decisions_for_area, lambda a: tt.TnaResult(a, 30, 0).reject):
            with pytest.raises(ValueError, match="^area must"):
                decide(area)

    @given(p=st.floats(min_value=1e-6, max_value=0.35))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, p):
        assert tt.invert_significance(tt.significance_area(p)) == pytest.approx(p, rel=1e-9)


class TestTnaTest:
    def test_perfect_fit_accepts_everywhere(self):
        n = 30
        ys = (np.arange(1, n + 1) - 0.5) / n
        losses = tt.Exp4Params(1.0).quantile(ys)
        result = tt.tna_test(losses, tt.SeverityModel(tt.Exp4Params(1.0)))
        assert result.area < 1e-8
        assert not any(result.reject.values())
        assert result.n_points == n

    def test_grossly_wrong_scale_rejected_at_1pc(self):
        n = 30
        ys = (np.arange(1, n + 1) - 0.5) / n
        losses = tt.Exp4Params(1.0).quantile(ys)
        result = tt.tna_test(losses, tt.SeverityModel(tt.Exp4Params(100.0)))
        assert result.area > 0.014
        assert result.rejected_at(1.0)

    def test_boundary_area_accepts(self):
        # the null survives a statistic exactly equal to the critical value
        t5 = tt.critical_value(5.0)
        decisions = decisions_for_area(t5)
        assert decisions[5.0] is False
        assert tt.TnaResult(t5, 30, 0).reject == decisions
        assert decisions_for_area(np.nextafter(t5, 1.0))[5.0] is True

    @pytest.mark.parametrize("area", [0.0, 0.01, 0.0282, 0.05, 0.0682, 0.08, 0.5])
    def test_rejected_at_any_level_compares_with_its_critical_value(self, area):
        result = tt.TnaResult(area, 30, 3)
        assert {level: result.rejected_at(level) for level in (1.0, 5.0, 10.0)} == result.reject
        for level in (0.5, 2.5, 7.5, 50.0):
            assert result.rejected_at(level) is (area > tt.critical_value(level))
        assert tt.TnaResult(0.05, 30, 3).rejected_at(2.5)

    @pytest.mark.parametrize("level", [0.0, 100.0, -5.0, 150.0, math.nan])
    def test_rejected_at_refuses_a_level_outside_0_100(self, level):
        with pytest.raises(ValueError, match="^level_percent must lie in \\(0, 100\\)"):
            tt.TnaResult(0.05, 30, 3).rejected_at(level)

    @pytest.mark.parametrize("area", [-0.1, 0.6, math.nan])
    def test_rejected_at_refuses_an_area_decisions_refuse(self, area):
        with pytest.raises(ValueError, match="^area must lie in \\[0, 1/2\\]"):
            tt.TnaResult(area, 30, 3).rejected_at(2.5)

    def test_statistic_scale_invariance_binary_exact(self):
        rng = np.random.default_rng(31)
        losses = tt.Exp4Params(1.2).sample(25, rng) * 40.0
        base = tt.tna_test(losses, tt.SeverityModel(tt.Exp4Params(0.9), scaling_mean=50.0))
        doubled = tt.tna_test(
            2.0 * losses, tt.SeverityModel(tt.Exp4Params(0.9), scaling_mean=100.0)
        )
        assert doubled.area == base.area

    def test_statistic_scale_invariance_general(self):
        rng = np.random.default_rng(32)
        losses = tt.Exp4Params(1.2).sample(25, rng) * 40.0
        base = tt.tna_test(losses, tt.SeverityModel(tt.Exp4Params(0.9), scaling_mean=50.0))
        tripled = tt.tna_test(
            3.0 * losses, tt.SeverityModel(tt.Exp4Params(0.9), scaling_mean=150.0)
        )
        assert tripled.area == pytest.approx(base.area, rel=1e-12)

    def test_crossings_counted(self):
        X = np.array([0.3, 0.7])
        # (0.3, 0.45) lies above the diagonal, (0.7, 0.55) below: one crossing
        assert _checked_polyline_areas(X, np.array([0.45, 0.55]))[1] == 1
        # all points on one side: no strict crossing
        assert _checked_polyline_areas(X, np.array([0.5, 0.9]))[1] == 0

    @pytest.mark.parametrize("params", [tt.ExpNParams(0.9, 8), tt.NormalParams(1.0, 0.4)])
    def test_bare_record_tests_like_its_unit_model(self, params):
        losses = tt.scale_losses(tt.Exp4Params(1.0).sample(30, np.random.default_rng(9)))[0]
        assert tt.tna_test(losses, params) == tt.tna_test(losses, tt.SeverityModel(params, 1.0))


class TestNullCriticalValue:
    def test_deterministic_whatever_the_rng_states(self):
        from thintail.tna import _null_areas

        values = []
        saved = np.random.get_state()
        try:
            for seed in (1, 2):
                _null_areas.cache_clear()
                np.random.seed(seed)
                np.random.default_rng(seed).random(1000)
                state = np.random.get_state()[1].copy()
                values.append(tt.null_critical_value(5.0, 12))
                assert np.array_equal(np.random.get_state()[1], state)
        finally:
            np.random.set_state(saved)
        values.append(tt.null_critical_value(5.0, 12))
        assert values[0] == values[1] == values[2]

    def test_every_level_at_one_n_reads_one_simulation(self):
        from thintail.tna import _null_areas

        _null_areas.cache_clear()
        values = [tt.null_critical_value(level, 17) for level in (1.0, 5.0, 10.0)]
        info = _null_areas.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert info.maxsize == 8  # 0.8 MB of areas per n
        assert values == [float(np.quantile(_null_areas(17), 1.0 - level / 100.0)) for level in (1.0, 5.0, 10.0)]
        assert not _null_areas(17).flags.writeable

    def test_same_for_any_worker_count(self, monkeypatch):
        from thintail.tna import _null_areas

        values = []
        for workers in ("1", "3"):
            monkeypatch.setenv("THINTAIL_THREADS", workers)
            _null_areas.cache_clear()
            values.append(tt.null_critical_value(5.0, 12))
        assert values[0] == values[1]

    def test_bad_threads_env_names_itself(self, monkeypatch):
        from thintail.tna import _null_areas

        monkeypatch.setenv("THINTAIL_THREADS", "abc")
        _null_areas.cache_clear()
        with pytest.raises(ValueError, match="^THINTAIL_THREADS must be an integer, got 'abc'$"):
            tt.null_critical_value(5.0, 12)

    @pytest.mark.parametrize("n", [10, 30, 100])
    def test_root_n_scaling_at_5pc(self, n):
        assert 0.55 <= math.sqrt(n) * tt.null_critical_value(5.0, n) <= 0.59

    def test_falls_as_n_grows(self):
        values = [tt.null_critical_value(5.0, n) for n in (10, 30, 100)]
        assert values[0] > values[1] > values[2]

    def test_falls_as_level_grows(self):
        assert tt.null_critical_value(1.0, 30) > tt.null_critical_value(5.0, 30) > \
            tt.null_critical_value(10.0, 30)

    @pytest.mark.parametrize("level, n", [(5.0, 1), (5.0, 0), (0.0, 30), (100.0, 30), (-1.0, 30)])
    def test_domain(self, level, n):
        with pytest.raises(ValueError):
            tt.null_critical_value(level, n)

    def test_batched_geometry_matches_single_samples(self):
        rng = np.random.default_rng(41)
        X = np.sort(rng.random((50, 7)), axis=-1)
        Y = (np.arange(1, 8) - 0.5) / 7
        areas, crossings = _polyline_areas(X, Y)
        for row, area, count in zip(X, areas, crossings):
            assert area == tt.enclosed_area(np.column_stack((row, Y)))
            assert (area, count) == _checked_polyline_areas(row, Y)
