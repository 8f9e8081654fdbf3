from __future__ import annotations

import csv
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumcast.corpus import MarketSeries
from forumcast.econometrics import (
    CORPUS_FEATURE_COLUMNS,
    DEFAULT_MODELS,
    PREDICTOR_COLUMNS,
    BASELINE_MODEL,
    COMBINED_MODEL,
    AnalysisReport,
    ModelSpec,
    ModelTerm,
    Series,
    build_panel,
    durbin_watson,
    first_difference,
    granger_test,
    lag,
    ols,
    pearson,
    run_battery,
    series_from_values,
    significance_stars,
    write_correlations_csv,
    write_granger_csv,
    write_regression_models_csv,
    write_regression_terms_csv,
    write_summary_md,
)
from forumcast.config import PipelineConfig
from forumcast.econometrics import _chi2_tail, _t_tail
from forumcast.errors import (
    AnalysisError,
    DataError,
    InsufficientDataError,
    RankDeficiencyError,
    UndefinedCorrelationError,
)

from oracles import normal_equations_ols, textbook_pearson, two_ols_granger


class TestSeries:
    def test_none_becomes_nan(self):
        s = series_from_values("x", [1.0, None, 3.0])
        assert math.isnan(s.values[1])
        assert s.values[0] == 1.0

    def test_rejects_inf(self):
        with pytest.raises(DataError, match="infinite"):
            Series("x", np.array([1.0, math.inf]))

    def test_rejects_matrix(self):
        with pytest.raises(DataError):
            Series("x", np.zeros((2, 2)))


class TestLagDiff:
    def test_lag_zero_is_copy(self):
        s = Series("x", np.array([1.0, 2.0, 3.0]))
        out = lag(s, 0)
        assert out.name == "x"
        assert np.array_equal(out.values, s.values)
        assert out.values is not s.values

    def test_lag_shifts_forward(self):
        s = Series("x", np.array([1.0, 2.0, 3.0, 4.0]))
        out = lag(s, 2)
        assert out.name == "x_lag2"
        assert math.isnan(out.values[0]) and math.isnan(out.values[1])
        assert list(out.values[2:]) == [1.0, 2.0]

    def test_lag_composition(self):
        s = Series("x", np.arange(8.0))
        twice = lag(lag(s, 1), 1)
        direct = lag(s, 2)
        assert np.array_equal(np.isnan(twice.values), np.isnan(direct.values))
        mask = ~np.isnan(direct.values)
        assert np.array_equal(twice.values[mask], direct.values[mask])

    def test_lag_bounds(self):
        s = Series("x", np.array([1.0, 2.0]))
        with pytest.raises(AnalysisError):
            lag(s, -1)
        with pytest.raises(InsufficientDataError):
            lag(s, 2)

    def test_first_difference(self):
        s = Series("x", np.array([1.0, 3.0, 6.0]))
        out = first_difference(s)
        assert out.name == "x_diff"
        assert math.isnan(out.values[0])
        assert list(out.values[1:]) == [2.0, 3.0]

    def test_difference_inverts_cumsum(self):
        rng = np.random.default_rng(11)
        steps = rng.normal(size=30)
        walk = Series("w", np.cumsum(steps))
        diffed = first_difference(walk)
        assert diffed.values[1:] == pytest.approx(steps[1:], rel=1e-12)

    def test_difference_too_short(self):
        with pytest.raises(InsufficientDataError):
            first_difference(Series("x", np.array([1.0])))


class TestPearson:
    def test_perfect_correlation(self):
        # this fixture evaluates to r = 1.0 exactly, hitting the p = 0 shortcut
        x = Series("x", np.array([0.0, 1.0, 2.0]))
        y = Series("y", np.array([0.0, 3.0, 6.0]))
        res = pearson(x, y)
        assert res.r == 1.0 and res.p == 0.0 and res.n == 3

    def test_perfect_anticorrelation(self):
        x = Series("x", np.array([0.0, 1.0, 2.0]))
        y = Series("y", np.array([6.0, 3.0, 0.0]))
        res = pearson(x, y)
        assert res.r == -1.0 and res.p == 0.0

    def test_near_perfect_correlation_clipped(self):
        x = Series("x", np.array([1.0, 2.0, 3.0, 4.0]))
        y = Series("y", np.array([2.0, 4.0, 6.0, 8.0]))
        res = pearson(x, y)
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert res.r <= 1.0
        assert res.p == pytest.approx(0.0, abs=1e-8)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(42)
        xv = rng.normal(size=50)
        yv = 0.6 * xv + rng.normal(size=50)
        res = pearson(Series("x", xv), Series("y", yv))
        r_ref, p_ref = textbook_pearson(xv, yv)
        assert res.r == pytest.approx(r_ref, abs=1e-10)
        assert res.p == pytest.approx(p_ref, abs=1e-10)

    def test_missing_rows_excluded(self):
        x = series_from_values("x", [1.0, None, 3.0, 4.0, 5.0])
        y = series_from_values("y", [1.0, 2.0, 3.0, None, 5.0])
        res = pearson(x, y)
        assert res.n == 3

    def test_zero_variance_refused(self):
        x = Series("x", np.array([2.0, 2.0, 2.0]))
        y = Series("y", np.array([1.0, 2.0, 3.0]))
        with pytest.raises(UndefinedCorrelationError, match="'x'"):
            pearson(x, y)

    def test_too_few_pairs(self):
        x = Series("x", np.array([1.0, 2.0]))
        y = Series("y", np.array([2.0, 1.0]))
        with pytest.raises(InsufficientDataError):
            pearson(x, y)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = Series("x", rng.normal(size=20))
        y = Series("y", rng.normal(size=20))
        assert pearson(x, y).r == pytest.approx(pearson(y, x).r, abs=1e-15)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=25)
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(9)
        xv = rng.normal(size=25)
        yv = rng.normal(size=25) + 0.4 * xv
        base = pearson(Series("x", xv), Series("y", yv))
        moved = pearson(Series("x", scale * xv + shift), Series("y", yv))
        assert moved.r == pytest.approx(base.r, abs=1e-9)


class TestDurbinWatson:
    def test_hand_cases(self):
        assert durbin_watson([1.0, 1.0, 1.0, 1.0]) == 0.0
        assert durbin_watson([1.0, -1.0, 1.0, -1.0]) == 3.0

    def test_white_noise_near_two(self):
        rng = np.random.default_rng(77)
        assert 1.7 < durbin_watson(rng.normal(size=500)) < 2.3

    def test_needs_two_residuals(self):
        with pytest.raises(InsufficientDataError):
            durbin_watson([1.0])


class TestOls:
    def test_exact_line_r2_is_one(self):
        x = Series("x", np.arange(10.0))
        y = Series("y", 1.0 + 2.0 * np.arange(10.0))
        fit = ols(y, [x])
        assert fit.r2 == 1.0
        assert fit.coefficient("intercept") == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficient("x") == pytest.approx(2.0, abs=1e-10)

    def test_intercept_only_r2_zero(self):
        y = Series("y", np.array([1.0, 4.0, 2.0, 5.0]))
        fit = ols(y, [])
        assert fit.r2 == pytest.approx(0.0, abs=1e-12)
        assert fit.adj_r2 == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficient("intercept") == pytest.approx(3.0)

    def test_planted_coefficients_recovered(self):
        rng = np.random.default_rng(123)
        n = 200
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        yv = 3.0 + 0.5 * x1 - 2.0 * x2 + rng.normal(scale=0.1, size=n)
        fit = ols(Series("y", yv), [Series("x1", x1), Series("x2", x2)])
        for name, true in [("intercept", 3.0), ("x1", 0.5), ("x2", -2.0)]:
            i = fit.names.index(name)
            assert abs(fit.params[i] - true) < 3.0 * fit.bse[i]

        design = np.column_stack([np.ones(n), x1, x2])
        ref = normal_equations_ols(yv, design)
        assert fit.params == pytest.approx(ref, rel=1e-8)

    def test_adjusted_r2_identity(self):
        rng = np.random.default_rng(5)
        n, k = 60, 3
        X = [Series(f"x{i}", rng.normal(size=n)) for i in range(k)]
        y = Series("y", rng.normal(size=n))
        fit = ols(y, X)
        expected = 1.0 - (1.0 - fit.r2) * (n - 1) / (n - k - 1)
        assert fit.adj_r2 == pytest.approx(expected, abs=1e-12)

    def test_rank_deficiency_refused(self):
        rng = np.random.default_rng(6)
        xv = rng.normal(size=30)
        x1 = Series("a", xv)
        x2 = Series("b", 2.0 * xv)
        y = Series("y", rng.normal(size=30))
        with pytest.raises(RankDeficiencyError, match="rank"):
            ols(y, [x1, x2])

    def test_insufficient_rows(self):
        y = Series("y", np.array([1.0, 2.0, 3.0]))
        x = Series("x", np.array([1.0, 0.0, 1.0]))
        with pytest.raises(InsufficientDataError):
            ols(y, [x, Series("z", np.array([0.0, 1.0, 1.0]))])

    def test_regressor_rescaling(self):
        rng = np.random.default_rng(8)
        xv = rng.normal(size=80)
        yv = 1.0 + 2.0 * xv + rng.normal(scale=0.5, size=80)
        base = ols(Series("y", yv), [Series("x", xv)])
        scaled = ols(Series("y", yv), [Series("x", 10.0 * xv)])
        i = base.names.index("x")
        assert scaled.params[i] == pytest.approx(base.params[i] / 10.0, rel=1e-10)
        assert scaled.tvalues[i] == pytest.approx(base.tvalues[i], rel=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(14)
        n = 100
        X = [Series(f"x{i}", rng.normal(size=n)) for i in range(3)]
        y = Series("y", rng.normal(size=n))
        fit = ols(y, X)
        design = np.column_stack([np.ones(n)] + [x.values for x in X])
        moments = design.T @ fit.residuals
        assert np.abs(moments).max() < 1e-8 * max(1.0, np.abs(y.values).max())

    def test_missing_rows_dropped_listwise(self):
        rng = np.random.default_rng(21)
        n = 50
        xv = rng.normal(size=n)
        yv = 1.0 + xv + rng.normal(scale=0.2, size=n)
        xg = xv.copy()
        yg = yv.copy()
        xg[3] = math.nan
        yg[7] = math.nan
        fit = ols(Series("y", yg), [Series("x", xg)])
        assert fit.dropped_rows == 2
        assert fit.nobs == n - 2

        keep = np.ones(n, dtype=bool)
        keep[[3, 7]] = False
        clean = ols(Series("y", yv[keep]), [Series("x", xv[keep])])
        assert fit.params == pytest.approx(clean.params, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            ols(Series("y", np.arange(5.0)), [Series("x", np.arange(4.0))])

    def test_diagnostics_match_separate_factorizations(self):
        rng = np.random.default_rng(31)
        n = 40
        X = [Series(f"x{i}", rng.normal(size=n) * 10.0 ** i) for i in range(3)]
        y = Series("y", rng.normal(size=n))
        fit = ols(y, X)
        design = np.column_stack([np.ones(n)] + [x.values for x in X])
        sigma2 = fit.rss / fit.df_resid
        bse = np.sqrt(np.diag(np.linalg.inv(design.T @ design)) * sigma2)
        assert fit.condition_number == pytest.approx(np.linalg.cond(design), rel=1e-12)
        assert fit.bse == pytest.approx(bse, rel=1e-9)
        beta, *_ = np.linalg.lstsq(design, y.values, rcond=None)
        assert fit.params == pytest.approx(beta, rel=1e-9)


def _mp_t_tail(df: int, t: float):
    """P(T > t) at 40 digits: I_x(df/2, 1/2) / 2 with x = df / (df + t^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        df, t = mpmath.mpf(df), mpmath.mpf(t)
        return mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2


def _mp_chi2_tail(df: int, x: float):
    """P(X > x) for chi-square(df) at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, regularized=True)


def _assert_close(got: float, want, rel: float) -> None:
    # A reference below the smallest normal float may underflow to 0.0 or
    # to a subnormal, whose relative precision is lost.
    if want < sys.float_info.min:
        assert got <= sys.float_info.min
    else:
        assert abs(got - want) <= rel * want, (got, want)


# P(T > x) and P(X > x) as _mp_t_tail and _mp_chi2_tail give them (mpmath
# 1.3.0), kept here so that these cases run where mpmath is not installed.
T_TAIL_REFERENCE = {
    (1, 0.7): 0.30559988778578522,
    (1, 40.0): 0.0079560899120258133183,
    (7, 0.7): 0.25325877609779990085,
    (7, 40.0): 7.9510899924251852343e-10,
    (90, 0.7): 0.24286640520238133449,
    (90, 40.0): 2.0903157918353797507e-59,
}
CHI2_TAIL_REFERENCE = {
    (1, 0.7): 0.40278369424647569665,
    (1, 40.0): 2.5396285894708649707e-10,
    (3, 0.7): 0.87320394906395413235,
    (3, 40.0): 1.0655090334255860815e-8,
    (12, 0.7): 0.99999810677504869667,
    (12, 40.0): 0.000071908840528428925983,
}
T_TAIL_DFS = [*range(1, 41), 58, 90, 92, 200, 500, 1035, 1038]
T_TAIL_TS = [1e-8, 1e-4, 0.01, 0.1, *(k / 2 for k in range(1, 121))]


class TestPValues:
    """The two tail probabilities are computed with ``math`` alone. They
    must match 40-digit references (1e-11 relative at the fixed points,
    1e-12 over the grids), the closed forms, and the edge values exactly."""

    @pytest.mark.parametrize("x", [0.0, math.inf, -math.inf, math.nan, 0.7, 40.0])
    @pytest.mark.parametrize("df", [1, 7, 90])
    def test_t_tail(self, x, df):
        got = _t_tail(df, -x)
        if x == 0.0:
            assert got == 0.5
        elif math.isinf(x):
            assert got == 0.0
        elif math.isnan(x):
            assert math.isnan(got)
        else:
            _assert_close(got, T_TAIL_REFERENCE[df, x], 1e-11)
            assert _t_tail(df, x) == got

    # The Granger statistic is clamped at zero, so -inf is outside its domain.
    @pytest.mark.parametrize("x", [0.0, math.inf, math.nan, 0.7, 40.0])
    @pytest.mark.parametrize("df", [1, 3, 12])
    def test_chi2_tail(self, x, df):
        got = _chi2_tail(df, x)
        if x == 0.0:
            assert got == 1.0
        elif math.isinf(x):
            assert got == 0.0
        elif math.isnan(x):
            assert math.isnan(got)
        else:
            _assert_close(got, CHI2_TAIL_REFERENCE[df, x], 1e-11)

    @pytest.mark.parametrize("df", T_TAIL_DFS)
    def test_t_tail_matches_mpmath(self, df):
        for t in T_TAIL_TS:
            _assert_close(_t_tail(df, t), _mp_t_tail(df, t), 1e-12)

    @pytest.mark.parametrize("df", range(1, 13))
    def test_chi2_tail_matches_mpmath(self, df):
        for x in (1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 700.0, 1400.0):
            _assert_close(_chi2_tail(df, x), _mp_chi2_tail(df, x), 1e-12)

    def test_closed_forms(self):
        for t in (1e-8, 1e-3, 0.3, 1.0, 2.5, 7.0, 60.0, 1e6):
            # 1/2 - atan(t)/pi, written as atan(1/t)/pi to keep its digits in
            # the far tail.
            assert _t_tail(1, t) == pytest.approx(math.atan2(1.0, t) / math.pi, rel=1e-13)
        for x in (1e-8, 0.3, 1.0, 2.5, 7.0, 60.0, 700.0):
            assert _chi2_tail(2, x) == math.exp(-x / 2)

    def test_negative_chi2_is_nan(self):
        assert math.isnan(_chi2_tail(2, -1.0))

    def test_reported_p_values_match_scipy_stats(self):
        from scipy import stats

        rng = np.random.default_rng(17)
        n = 60
        x = Series("x", rng.normal(size=n))
        y = Series("y", 0.3 * x.values + rng.normal(size=n))
        corr = pearson(x, y)
        t = corr.r * math.sqrt((n - 2) / (1.0 - corr.r ** 2))
        assert corr.p == pytest.approx(2.0 * stats.t.sf(abs(t), n - 2), rel=1e-11)
        fit = ols(y, [x])
        assert fit.pvalues == pytest.approx(
            2.0 * stats.t.sf(np.abs(fit.tvalues), fit.df_resid), rel=1e-11
        )
        granger = granger_test(y, x, 2)
        assert granger.p == pytest.approx(stats.chi2.sf(granger.chi2, 2), rel=1e-11)


class TestGranger:
    def test_planted_lagged_driver_detected(self):
        rng = np.random.default_rng(2)
        n = 200
        x = rng.normal(size=n)
        y = np.zeros(n)
        for t in range(1, n):
            y[t] = 0.9 * x[t - 1] + rng.normal(scale=0.1)
        res = granger_test(Series("y", y), Series("x", x), max_lag=2)
        assert res.p < 0.01
        assert res.df == 2

    def test_self_prediction_is_collinear(self):
        rng = np.random.default_rng(4)
        s = Series("y", np.cumsum(rng.normal(size=100)))
        with pytest.raises(RankDeficiencyError):
            granger_test(s, Series("x", s.values.copy()), max_lag=2)

    def test_matches_two_ols_construction(self):
        rng = np.random.default_rng(31)
        n = 120
        x = rng.normal(size=n)
        y = np.zeros(n)
        for t in range(2, n):
            y[t] = 0.3 * y[t - 1] + 0.5 * x[t - 2] + rng.normal(scale=0.5)
        for difference in (False, True):
            res = granger_test(
                Series("y", y), Series("x", x), max_lag=3, difference_dependent=difference
            )
            chi2_ref, p_ref = two_ols_granger(y, x, max_lag=3, difference=difference)
            assert res.chi2 == pytest.approx(chi2_ref, rel=1e-8)
            assert res.p == pytest.approx(p_ref, rel=1e-8, abs=1e-12)

    def test_nobs_accounts_for_lags_and_differencing(self):
        rng = np.random.default_rng(17)
        y = Series("y", rng.normal(size=200))
        x = Series("x", rng.normal(size=200))
        assert granger_test(y, x, max_lag=3).nobs == 197
        assert granger_test(y, x, max_lag=3, difference_dependent=True).nobs == 196

    def test_conditioning_column_narrows_rows(self):
        rng = np.random.default_rng(19)
        y = Series("y", rng.normal(size=100))
        x = Series("x", rng.normal(size=100))
        zv = rng.normal(size=100)
        zv[:10] = math.nan
        res = granger_test(y, x, max_lag=2, conditioning=[Series("z", zv)])
        # rows 0..9 lost to the conditioning column, which subsumes the lag burn-in
        assert res.nobs == 90

    def test_chi2_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            y = Series("y", rng.normal(size=40))
            x = Series("x", rng.normal(size=40))
            assert granger_test(y, x, max_lag=1).chi2 >= 0.0

    def test_lag_order_validated(self):
        y = Series("y", np.arange(20.0))
        with pytest.raises(AnalysisError):
            granger_test(y, y, max_lag=0)

    def test_too_few_rows(self):
        rng = np.random.default_rng(29)
        y = Series("y", rng.normal(size=7))
        x = Series("x", rng.normal(size=7))
        with pytest.raises(InsufficientDataError):
            granger_test(y, x, max_lag=3)


def _synthetic_panel(weeks: int = 60, seed: int = 99):
    rng = np.random.default_rng(seed)
    features = {}
    for name in CORPUS_FEATURE_COLUMNS:
        features[name] = list(rng.normal(loc=10.0, scale=2.0, size=weeks))
    control = MarketSeries("control", {w: 100.0 + float(rng.normal()) for w in range(weeks)})
    price = MarketSeries(
        "price",
        {w: 50.0 + 0.5 * features["activity"][w] + float(rng.normal()) for w in range(weeks)},
    )
    return build_panel(features, price, control)


class TestPanel:
    def test_panel_columns(self):
        panel = _synthetic_panel()
        assert panel.week_count == 60
        assert set(panel.columns) == set(PREDICTOR_COLUMNS) | {"price"}
        assert len(panel.column("activity")) == 60

    def test_unknown_column_lists_available(self):
        panel = _synthetic_panel()
        with pytest.raises(AnalysisError, match="price"):
            panel.column("bogus")

    def test_missing_feature_column(self):
        rng = np.random.default_rng(1)
        features = {name: list(rng.normal(size=10)) for name in CORPUS_FEATURE_COLUMNS}
        del features["sentiment"]
        market = MarketSeries("m", {w: 1.0 * w for w in range(10)})
        with pytest.raises(DataError, match="sentiment"):
            build_panel(features, market, market)

    def test_mismatched_grid(self):
        rng = np.random.default_rng(1)
        features = {name: list(rng.normal(size=10)) for name in CORPUS_FEATURE_COLUMNS}
        features["activity"] = features["activity"][:7]
        market = MarketSeries("m", {w: 1.0 * w for w in range(10)})
        with pytest.raises(DataError, match="disagree"):
            build_panel(features, market, market)

    def test_market_gaps_become_nan(self):
        rng = np.random.default_rng(1)
        features = {name: list(rng.normal(size=10)) for name in CORPUS_FEATURE_COLUMNS}
        price = MarketSeries("price", {w: 1.0 * w for w in range(10) if w != 4})
        control = MarketSeries("control", {w: 1.0 for w in range(10)})
        panel = build_panel(features, price, control)
        assert math.isnan(panel.column("price").values[4])


class TestBattery:
    def test_stars(self):
        assert significance_stars(0.2) == ""
        assert significance_stars(0.04) == "*"
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.05) == ""

    def test_report_shape(self):
        report = run_battery(_synthetic_panel(), PipelineConfig())
        assert len(report.correlations) == len(PREDICTOR_COLUMNS) * 3
        assert len(report.granger) == len(PREDICTOR_COLUMNS)
        assert [m.spec.name for m in report.models] == [s.name for s in DEFAULT_MODELS]
        by_name = {m.spec.name: m.result for m in report.models}
        assert (BASELINE_MODEL, COMBINED_MODEL) == ("model_1", "model_8")
        assert report.incremental_adj_r2 == (
            by_name[COMBINED_MODEL].adj_r2 - by_name[BASELINE_MODEL].adj_r2
        )

    def test_failed_cells_carry_errors(self):
        panel = _synthetic_panel()
        columns = dict(panel.columns)
        nan = np.full(panel.week_count, math.nan)
        columns["focal_degree"] = Series("focal_degree", nan)
        broken = type(panel)(week_count=panel.week_count, columns=columns)
        report = run_battery(broken, PipelineConfig())
        focal_corr = [c for c in report.correlations if c.predictor == "focal_degree"]
        assert all(c.result is None and c.error for c in focal_corr)
        model_7 = next(m for m in report.models if m.spec.name == "model_7")
        assert model_7.result is None and model_7.error
        # other cells still computed
        assert any(c.result is not None for c in report.correlations)

    def test_granger_settings_come_from_the_config(self):
        panel = _synthetic_panel()
        conditioning = ("control",)
        config = PipelineConfig(
            granger_max_lag=2, granger_difference_dependent=False,
            granger_conditioning=conditioning,
        )
        report = run_battery(panel, config)
        for cell in report.granger:
            try:
                expected = granger_test(
                    panel.column("price"), panel.column(cell.predictor), 2,
                    difference_dependent=False,
                    conditioning=[panel.column(name) for name in conditioning],
                )
            except AnalysisError as exc:
                assert cell.result is None and cell.error == str(exc)
            else:
                assert cell.result == expected and expected.lag_order == 2

    def test_incremental_requires_both_models(self):
        config = PipelineConfig(models=(DEFAULT_MODELS[0],))
        report = run_battery(_synthetic_panel(), config)
        assert report.incremental_adj_r2 is None

    def test_custom_model_terms_lagged(self):
        spec = ModelSpec("probe", (ModelTerm("activity", 1),))
        config = PipelineConfig(models=(spec,))
        report = run_battery(_synthetic_panel(), config)
        result = report.models[0].result
        assert result is not None
        assert "activity_lag1" in result.names
        assert result.dropped_rows == 1


class TestReportWriters:
    @pytest.fixture()
    def report(self) -> AnalysisReport:
        return run_battery(_synthetic_panel(), PipelineConfig())

    def _rows(self, path) -> list[list[str]]:
        with open(path, newline="") as handle:
            return list(csv.reader(handle))

    def test_correlations_csv(self, report, tmp_path):
        path = tmp_path / "c.csv"
        write_correlations_csv(report, str(path))
        rows = self._rows(path)
        assert rows[0] == ["predictor", "lag", "r", "n", "p", "stars", "error"]
        assert len(rows) == 1 + len(report.correlations)
        assert float(rows[1][2]) == report.correlations[0].result.r

    def test_granger_csv(self, report, tmp_path):
        path = tmp_path / "g.csv"
        write_granger_csv(report, str(path))
        rows = self._rows(path)
        assert rows[0] == ["predictor", "chi2", "df", "p", "nobs", "stars", "error"]
        assert len(rows) == 1 + len(PREDICTOR_COLUMNS)

    def test_model_csvs(self, report, tmp_path):
        terms = tmp_path / "t.csv"
        models = tmp_path / "m.csv"
        write_regression_terms_csv(report, str(terms))
        write_regression_models_csv(report, str(models))
        term_rows = self._rows(terms)
        model_rows = self._rows(models)
        assert term_rows[0][:2] == ["model", "term"]
        # every fitted model contributes one row per coefficient incl intercept
        fitted = [m for m in report.models if m.result is not None]
        assert len(term_rows) == 1 + sum(len(m.result.names) for m in fitted)
        assert len(model_rows) == 1 + len(report.models)
        assert model_rows[1][0] == "model_1"

    def test_summary_markdown(self, report, tmp_path):
        path = tmp_path / "s.md"
        write_summary_md(report, str(path))
        text = path.read_text()
        assert "| predictor |" in text
        assert "model_8" in text

    def test_failed_cells_written_blank_with_error(self, tmp_path):
        collinear = ModelSpec("collinear", (ModelTerm("activity", 0), ModelTerm("activity", 0)))
        config = PipelineConfig(correlation_lags=(0, 99), models=(collinear,))
        report = run_battery(_synthetic_panel(), config)
        write_correlations_csv(report, str(tmp_path / "c.csv"))
        write_regression_terms_csv(report, str(tmp_path / "t.csv"))
        write_regression_models_csv(report, str(tmp_path / "m.csv"))
        corr = self._rows(tmp_path / "c.csv")[2]
        assert corr[:6] == ["activity_words", "99", "", "", "", ""] and "lag 99" in corr[6]
        term = self._rows(tmp_path / "t.csv")[1]
        assert term[:7] == ["collinear"] + [""] * 6 and "rank" in term[7]
        model = self._rows(tmp_path / "m.csv")[1]
        assert model[:8] == ["collinear"] + [""] * 7 and "rank" in model[8]

    def test_writers_deterministic(self, report, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_correlations_csv(report, str(a))
        write_correlations_csv(report, str(b))
        assert a.read_bytes() == b.read_bytes()
