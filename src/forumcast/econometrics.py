"""Statistical kernel: lagged Pearson correlation, OLS with classical
diagnostics, Durbin-Watson, first differencing, and Granger causality,
plus the weekly feature panel and the standard analysis battery run over it.

Missing values are NaN. Every analysis applies listwise deletion over the
columns it touches and reports how many rows were dropped. All functions are
pure; reports are bit-identical across reruns of the same inputs.

The battery needs only two tail probabilities, Student t and chi-square
with integer degrees of freedom, and computes both with ``math`` alone, so
the analysis loads no SciPy. The t tail is half the regularized incomplete
beta function I_x(df/2, 1/2) at x = df / (df + t^2), by the continued
fraction of Numerical Recipes (Press et al., 3rd ed., section 6.4) under
the modified Lentz method; the chi-square tail is its finite closed form.
Both agree with 40-digit references to 1e-12 relative or better.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import PREDICTOR_COLUMNS, ModelSpec, PipelineConfig
from .errors import (
    AnalysisError,
    DataError,
    InsufficientDataError,
    RankDeficiencyError,
    UndefinedCorrelationError,
)
from .tables import replacing, write_csv

DEPENDENT_COLUMN = "price"
# The models whose adjusted R2 difference is the report's incremental fit.
BASELINE_MODEL = "model_1"
COMBINED_MODEL = "model_8"

CORPUS_FEATURE_COLUMNS = tuple(c for c in PREDICTOR_COLUMNS if c != "control")


@dataclass(frozen=True)
class Series:
    """Weekly series on the 0-based week grid: a one-dimensional float array
    in which NaN marks missing weeks."""

    name: str
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def series_from_values(name: str, values: Iterable[float | None]) -> Series:
    return Series(name, np.array([math.nan if v is None else float(v) for v in values]))


def lag(s: Series, k: int) -> Series:
    """Shift forward by k weeks: week t takes the value from week t-k."""
    if k < 0:
        raise AnalysisError(f"lag must be nonnegative, got {k}")
    if k >= len(s):
        raise InsufficientDataError(f"lag {k} >= series length {len(s)}")
    if k == 0:
        return Series(s.name, s.values.copy())
    out = np.full(len(s), math.nan)
    out[k:] = s.values[:-k]
    return Series(f"{s.name}_lag{k}", out)


def first_difference(s: Series) -> Series:
    """Week-over-week change; the first week becomes missing, and so does a
    week whose own or previous value is missing. A change beyond the float
    range is an AnalysisError."""
    if len(s) < 2:
        raise InsufficientDataError(f"series {s.name!r} too short to difference")
    out = np.full(len(s), math.nan)
    out[1:] = s.values[1:] - s.values[:-1]
    if np.isinf(out).any():
        raise AnalysisError(f"series {s.name!r}: a week-over-week change overflows")
    return Series(f"{s.name}_diff", out)


# The continued fraction stops once a step moves it by less than a rounding.
_CF_EPS = sys.float_info.epsilon
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10_000


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method;
    it converges fast for x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        # Two terms per m: the even coefficient, then the odd one.
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = d * c
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise AnalysisError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln(2 pi) / 2]: Stirling's series
    to the z**-7 term, good to 1e-15 for z >= 20."""
    w = 1.0 / (z * z)
    return (1 / 12 - (1 / 360 - (1 / 1260 - w / 1680) * w) * w) / z


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2) = ln Gamma(1/2) - [ln Gamma(a + 1/2) - ln Gamma(a)].

    The difference of two ``math.lgamma`` values loses digits as a grows
    (3e-13 at a = 519, 1e-10 at a = 1e5), so from a = 20 on it comes from
    Stirling's series instead, where the large terms cancel analytically.
    """
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    ratio = (
        a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
        + _stirling_tail(a + 0.5) - _stirling_tail(a)
    )
    return 0.5 * math.log(math.pi) - ratio


def _t_tail(df: int, t: float) -> float:
    """P(T > |t|) for Student's t with ``df`` degrees of freedom: half the
    two-sided p-value. It is 0.5 at t = 0 and 0.0 at t = +-inf; NaN stays NaN.

    P(T > |t|) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2). Both x and
    1 - x = t^2 / (df + t^2) are formed directly, so neither loses digits
    to a subtraction near 0 or 1.
    """
    t = abs(t)
    if not t < math.inf:
        return 0.0 if t == math.inf else math.nan
    t2 = t * t
    if t2 == 0.0:  # t = 0, or so small that the tail rounds to 1/2
        return 0.5
    a, b = 0.5 * df, 0.5
    if t2 < math.inf:
        x, y = df / (df + t2), t2 / (df + t2)
        log_x = -math.log1p(t2 / df)
    else:  # t above 1e154: x underflows, its logarithm does not
        x, y = 0.0, 1.0
        log_x = math.log(df) - 2.0 * math.log(t)
    log_y = -math.log1p(df / t2)
    front = math.exp(a * log_x + b * log_y - _log_beta_half(a))  # x^a (1-x)^b / B(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * (front * _beta_cf(a, b, x) / a)
    return 0.5 * (1.0 - front * _beta_cf(b, a, y) / b)


def _chi2_tail(df: int, x: float) -> float:
    """P(X > x) for chi-square with an integer ``df`` >= 1: 1.0 at x = 0,
    0.0 at x = inf, NaN for NaN or negative x.

    Even df: exp(-x/2) sum_{i < df/2} (x/2)^i / i!. Odd df: erfc(sqrt(x/2))
    plus exp(-x/2) sum_{i = 1}^{(df-1)/2} (x/2)^(i-1/2) / Gamma(i + 1/2).
    """
    if not x >= 0.0:
        return math.nan
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    if df % 2 == 0:
        term = math.exp(-h)
        total = term
        for i in range(1, df // 2):
            term *= h / i
            total += term
        return total
    total = math.erfc(math.sqrt(h))
    if df > 1:
        term = math.exp(-h) * math.sqrt(h) * (2.0 / math.sqrt(math.pi))
        total += term
        for i in range(1, (df - 1) // 2):
            term *= h / (i + 0.5)
            total += term
    return total


class CorrelationResult(NamedTuple):
    r: float
    n: int
    p: float


def pearson(x: Series, y: Series) -> CorrelationResult:
    """Product-moment correlation over weeks where both series are present.

    Two-sided p via t = r*sqrt((n-2)/(1-r^2)) against Student t(n-2);
    |r| = 1 maps to p = 0.
    """
    if len(x) != len(y):
        raise DataError(f"length mismatch: {x.name!r} has {len(x)}, {y.name!r} has {len(y)}")
    mask = np.isfinite(x.values) & np.isfinite(y.values)
    n = int(mask.sum())
    if n < 3:
        raise InsufficientDataError(f"pearson({x.name!r}, {y.name!r}): {n} paired observations, need >= 3")
    xv = x.values[mask]
    yv = y.values[mask]
    dx = xv - xv.mean()
    dy = yv - yv.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0:
        raise UndefinedCorrelationError(f"series {x.name!r} has zero variance")
    if sy == 0.0:
        raise UndefinedCorrelationError(f"series {y.name!r} has zero variance")
    sxy, scale = float(dx @ dy), sx * sy
    if not (math.isfinite(sxy) and math.isfinite(scale)):
        raise AnalysisError(f"pearson({x.name!r}, {y.name!r}): the sums of squares overflow")
    r = float(np.clip(sxy / scale, -1.0, 1.0))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * _t_tail(n - 2, t)
    return CorrelationResult(r=r, n=n, p=p)


class OlsResult(NamedTuple):
    names: tuple[str, ...]
    params: np.ndarray
    bse: np.ndarray
    tvalues: np.ndarray
    pvalues: np.ndarray
    r2: float
    adj_r2: float
    residuals: np.ndarray
    rss: float
    durbin_watson: float
    nobs: int
    df_resid: int
    condition_number: float
    dropped_rows: int

    def coefficient(self, name: str) -> float:
        return float(self.params[self.names.index(name)])


def durbin_watson(residuals: Sequence[float] | np.ndarray) -> float:
    """Sum of squared consecutive residual changes over the residual sum of
    squares. Near 2 for white noise, 0 under perfect positive autocorrelation."""
    arr = np.asarray(residuals, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise InsufficientDataError("durbin_watson needs at least 2 residuals")
    denom = float(arr @ arr)
    if denom == 0.0:
        return 0.0
    return float(np.square(np.diff(arr)).sum() / denom)


def ols(y: Series, X: Sequence[Series]) -> OlsResult:
    """Least squares on an intercept and ``X``, with classical standard
    errors and diagnostics.

    Rows with any missing value among y and X are dropped listwise.
    Refuses rank-deficient designs; reports the design condition number.
    """
    for x in X:
        if len(x) != len(y):
            raise DataError(f"length mismatch: {x.name!r} has {len(x)}, {y.name!r} has {len(y)}")
    mask = np.isfinite(y.values)
    for x in X:
        mask &= np.isfinite(x.values)
    n = int(mask.sum())
    k = len(X)
    dropped = len(y) - n
    if n <= k + 1:
        raise InsufficientDataError(
            f"ols({y.name!r}): {n} usable rows for {k} regressors, need > {k + 1}"
        )
    yv = y.values[mask]
    design = np.column_stack([np.ones(n), *(x.values[mask] for x in X)])
    p = design.shape[1]
    # One thin SVD gives the condition number, the rank (with matrix_rank's
    # tolerance), beta = V (U'y / s) and diag((X'X)^-1) = sum_j (V_ij / s_j)^2.
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    condition_number = float(s[0] / s[-1]) if s[-1] > 0.0 else math.inf
    rank = int(np.count_nonzero(s > s[0] * max(n, p) * np.finfo(float).eps))
    if rank < p:
        raise RankDeficiencyError(
            f"ols({y.name!r}): design matrix rank {rank} < {p} columns"
            f" (condition number {condition_number:.3g}); drop collinear regressors"
        )
    scaled_v = vt.T / s
    beta = scaled_v @ (u.T @ yv)
    fitted = design @ beta
    resid = yv - fitted
    rss = float(resid @ resid)
    df_resid = n - p
    sigma2 = rss / df_resid
    bse = np.sqrt(np.square(scaled_v).sum(axis=1) * sigma2)
    with np.errstate(divide="ignore", invalid="ignore"):
        tvalues = np.where(bse > 0, beta / bse, np.inf * np.sign(beta))
    pvalues = np.array([2.0 * _t_tail(df_resid, t) for t in tvalues.tolist()])
    centered = yv - yv.mean()
    tss = float(centered @ centered)
    dw = durbin_watson(resid)
    if not (np.isfinite(beta).all() and np.isfinite(bse).all()
            and math.isfinite(tss) and math.isfinite(dw)):
        raise AnalysisError(f"ols({y.name!r}): the fit overflows")
    r2 = 1.0 - rss / tss if tss > 0.0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    return OlsResult(
        names=("intercept", *(x.name for x in X)),
        params=beta,
        bse=bse,
        tvalues=np.asarray(tvalues, dtype=float),
        pvalues=np.asarray(pvalues, dtype=float),
        r2=r2,
        adj_r2=adj_r2,
        residuals=resid,
        rss=rss,
        durbin_watson=dw,
        nobs=n,
        df_resid=df_resid,
        condition_number=condition_number,
        dropped_rows=dropped,
    )


class GrangerResult(NamedTuple):
    chi2: float
    df: int
    p: float
    nobs: int


def granger_test(
    y: Series,
    x: Series,
    max_lag: int,
    difference_dependent: bool = False,
    conditioning: Sequence[Series] = (),
) -> GrangerResult:
    """Does x help predict y beyond y's own history?

    Restricted model: dep_t ~ dep lags 1..max_lag (+ conditioning columns at
    lag 0). Unrestricted adds x lags 1..max_lag. Both fit on the same rows.
    Statistic: chi2 = n_eff * (RSS_r - RSS_u) / RSS_u with df = max_lag.
    The dependent is first-differenced when ``difference_dependent`` is set.
    """
    if max_lag < 1:
        raise AnalysisError(f"max_lag must be >= 1, got {max_lag}")
    dep = first_difference(y) if difference_dependent else y
    own_lags = [lag(dep, i) for i in range(1, max_lag + 1)]
    cross_lags = [lag(x, i) for i in range(1, max_lag + 1)]
    extra = list(conditioning)

    mask = np.isfinite(dep.values)
    for s in (*own_lags, *cross_lags, *extra):
        if len(s) != len(dep):
            raise DataError(f"length mismatch between {s.name!r} and {dep.name!r}")
        mask &= np.isfinite(s.values)
    n_eff = int(mask.sum())
    if n_eff <= 2 * max_lag + 1 + len(extra):
        raise InsufficientDataError(
            f"granger_test({y.name!r} ~ {x.name!r}): {n_eff} usable rows,"
            f" need > {2 * max_lag + 1 + len(extra)}"
        )

    def masked(s: Series) -> Series:
        return Series(s.name, s.values[mask])

    dep_m = masked(dep)
    restricted_x = [masked(s) for s in (*own_lags, *extra)]
    unrestricted_x = [masked(s) for s in (*own_lags, *cross_lags, *extra)]
    restricted = ols(dep_m, restricted_x)
    unrestricted = ols(dep_m, unrestricted_x)
    if unrestricted.rss == 0.0:
        raise AnalysisError(
            f"granger_test({y.name!r} ~ {x.name!r}): the unrestricted model fits"
            " exactly (RSS 0), so the statistic is undefined"
        )
    chi2 = max(n_eff * (restricted.rss - unrestricted.rss) / unrestricted.rss, 0.0)
    return GrangerResult(chi2=chi2, df=max_lag, p=_chi2_tail(max_lag, chi2), nobs=n_eff)


def _on_grid(name: str, values: Mapping[int, float], week_count: int) -> Series:
    """A market series on the week grid, NaN in its gaps."""
    out = np.full(week_count, math.nan)
    for week, value in values.items():
        if not 0 <= week < week_count:
            raise DataError(f"{name}: week {week} outside the 0..{week_count - 1} grid")
        out[week] = value
    return Series(name, out)


def build_panel(
    features: Mapping[str, Sequence[float | None]],
    price: Mapping[int, float],
    control: Mapping[int, float],
) -> dict[str, Series]:
    """The analysis panel, column name to series: the per-window features
    (``read_features_csv``'s columns) and the two market series
    (``{week: value}``) on one week grid."""
    week_count = len(features[CORPUS_FEATURE_COLUMNS[0]])
    market = {"control": control, DEPENDENT_COLUMN: price}
    return {
        name: _on_grid(name, market[name], week_count) if name in market
        else series_from_values(name, features[name])
        for name in (*PREDICTOR_COLUMNS, DEPENDENT_COLUMN)
    }


class CorrelationCell(NamedTuple):
    predictor: str
    lag: int
    result: CorrelationResult | None = None
    error: str | None = None


class GrangerCell(NamedTuple):
    predictor: str
    result: GrangerResult | None = None
    error: str | None = None


class ModelReport(NamedTuple):
    spec: ModelSpec
    result: OlsResult | None = None
    error: str | None = None


class AnalysisReport(NamedTuple):
    correlations: tuple[CorrelationCell, ...]
    granger: tuple[GrangerCell, ...]
    models: tuple[ModelReport, ...]
    incremental_adj_r2: float | None


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@np.errstate(all="ignore")
def run_battery(panel: Mapping[str, Series], config: PipelineConfig) -> AnalysisReport:
    """Correlation table, Granger table, and declarative regression models
    over ``build_panel``'s columns, as ``config``'s battery settings ask
    (``config.validate`` checks that every column they name is a predictor).

    A failing cell carries its error message; the rest of the report still
    completes. Cell order is fixed, so reports are byte-stable. NumPy's
    floating-point warnings are off: an overflow is the failing cell's
    error, raised by ``pearson``, ``ols`` or ``first_difference``.
    """
    price = panel[DEPENDENT_COLUMN]

    correlations: list[CorrelationCell] = []
    for predictor in PREDICTOR_COLUMNS:
        for k in config.correlation_lags:
            try:
                result = pearson(lag(panel[predictor], k), price)
                correlations.append(CorrelationCell(predictor, k, result=result))
            except AnalysisError as exc:
                correlations.append(CorrelationCell(predictor, k, error=str(exc)))

    conditioning = [panel[name] for name in config.granger_conditioning]
    granger_cells: list[GrangerCell] = []
    for predictor in PREDICTOR_COLUMNS:
        try:
            result = granger_test(
                price,
                panel[predictor],
                config.granger_max_lag,
                difference_dependent=config.granger_difference_dependent,
                conditioning=conditioning,
            )
            granger_cells.append(GrangerCell(predictor, result=result))
        except AnalysisError as exc:
            granger_cells.append(GrangerCell(predictor, error=str(exc)))

    models: list[ModelReport] = []
    for spec in config.models:
        try:
            regressors = [lag(panel[term.column], term.lag) for term in spec.terms]
            models.append(ModelReport(spec, result=ols(price, regressors)))
        except AnalysisError as exc:
            models.append(ModelReport(spec, error=str(exc)))

    by_name = {report.spec.name: report for report in models}
    incremental = None
    baseline = by_name.get(BASELINE_MODEL)
    combined = by_name.get(COMBINED_MODEL)
    if baseline and combined and baseline.result and combined.result:
        incremental = combined.result.adj_r2 - baseline.result.adj_r2

    return AnalysisReport(
        correlations=tuple(correlations),
        granger=tuple(granger_cells),
        models=tuple(models),
        incremental_adj_r2=incremental,
    )


def _result_cells(result, fields: Sequence[str]) -> list:
    """The named fields of a cell's result and its stars; blanks if it failed."""
    if result is None:
        return [None] * (len(fields) + 1)
    return [getattr(result, name) for name in fields] + [significance_stars(result.p)]


def write_correlations_csv(report: AnalysisReport, path: str) -> None:
    write_csv(
        path,
        ("predictor", "lag", "r", "n", "p", "stars", "error"),
        (
            [cell.predictor, cell.lag, *_result_cells(cell.result, ("r", "n", "p")), cell.error]
            for cell in report.correlations
        ),
    )


def write_granger_csv(report: AnalysisReport, path: str) -> None:
    write_csv(
        path,
        ("predictor", "chi2", "df", "p", "nobs", "stars", "error"),
        (
            [cell.predictor, *_result_cells(cell.result, ("chi2", "df", "p", "nobs")), cell.error]
            for cell in report.granger
        ),
    )


def write_regression_terms_csv(report: AnalysisReport, path: str) -> None:
    rows: list[list] = []
    for model in report.models:
        res = model.result
        if res is None:
            rows.append([model.spec.name, *[None] * 6, model.error])
            continue
        for i, name in enumerate(res.names):
            p = float(res.pvalues[i])
            rows.append(
                [model.spec.name, name, res.params[i], res.bse[i], res.tvalues[i], p,
                 significance_stars(p), None]
            )
    write_csv(
        path, ("model", "term", "coefficient", "std_error", "t", "p", "stars", "error"), rows
    )


def write_regression_models_csv(report: AnalysisReport, path: str) -> None:
    rows: list[list] = []
    for model in report.models:
        res = model.result
        if res is None:
            rows.append([model.spec.name, *[None] * 7, model.error])
            continue
        rows.append(
            [model.spec.name, res.nobs, len(model.spec.terms), res.r2, res.adj_r2,
             res.durbin_watson, res.condition_number, res.dropped_rows, None]
        )
    header = ("model", "nobs", "regressors", "r2", "adj_r2", "durbin_watson",
              "condition_number", "dropped_rows", "error")
    write_csv(path, header, rows)


def _md_num(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}f}"


def write_summary_md(report: AnalysisReport, path: str) -> None:
    """Human-readable digest of the three report tables."""
    lines: list[str] = ["# Analysis summary", ""]

    lines.append("## Correlations with price")
    lines.append("")
    lags = sorted({cell.lag for cell in report.correlations})
    header = "| predictor | " + " | ".join(f"lag {k}" for k in lags) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(lags) + 1))
    by_predictor: dict[str, dict[int, CorrelationCell]] = {}
    for cell in report.correlations:
        by_predictor.setdefault(cell.predictor, {})[cell.lag] = cell
    for predictor, cells in by_predictor.items():
        row = [predictor]
        for k in lags:
            cell = cells.get(k)
            if cell is None or cell.result is None:
                row.append("err")
            else:
                row.append(_md_num(cell.result.r, 3) + significance_stars(cell.result.p))
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")

    lines.append("## Granger causality vs price")
    lines.append("")
    lines.append("| predictor | chi2 | df | p | n |")
    lines.append("|---|---|---|---|---|")
    for cell in report.granger:
        if cell.result is None:
            lines.append(f"| {cell.predictor} | err | | | |")
        else:
            res = cell.result
            lines.append(
                f"| {cell.predictor} | {_md_num(res.chi2, 3)}{significance_stars(res.p)}"
                f" | {res.df} | {_md_num(res.p, 4)} | {res.nobs} |"
            )
    lines.append("")

    lines.append("## Regression models")
    lines.append("")
    lines.append("| model | terms | adj R2 | DW | n |")
    lines.append("|---|---|---|---|---|")
    for model in report.models:
        terms = ", ".join(term.label for term in model.spec.terms)
        if model.result is None:
            lines.append(f"| {model.spec.name} | {terms} | err: {model.error} | | |")
        else:
            res = model.result
            lines.append(
                f"| {model.spec.name} | {terms} | {_md_num(res.adj_r2, 3)}"
                f" | {_md_num(res.durbin_watson, 2)} | {res.nobs} |"
            )
    lines.append("")

    if report.incremental_adj_r2 is not None:
        lines.append(
            "Combined model improves adjusted R2 over the baseline by "
            f"{_md_num(report.incremental_adj_r2, 4)}."
        )
        lines.append("")

    with replacing(path, encoding="utf-8") as handle:
        handle.write("\n".join(lines))
