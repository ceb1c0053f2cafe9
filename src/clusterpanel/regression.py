"""OLS fitting, cluster-robust covariance, confidence intervals, response curves.

The covariance estimator is the one-way clustered sandwich
(X'X)^-1 [sum_g s_g s_g'] (X'X)^-1 with per-cluster scores s_g = X_g' r_g.
CR1 rescales the middle factor by G/(G-1) * (n-1)/(n-p); CR0 leaves it
uncorrected.  Interval quantiles use Student t with G-1 degrees of freedom.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import stats as sstats

from .panel import ClusterAssignment, ClusterScheme, DesignMatrix, TermSpec, term_label

FEW_CLUSTERS_THRESHOLD = 40


def check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")


def check_correction(correction: str) -> None:
    if correction not in ("CR0", "CR1"):
        raise ValueError(f"unknown correction {correction!r}; use 'CR0' or 'CR1'")


class RankDeficientError(ValueError):
    """Design matrix is numerically rank deficient."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(
            "rank-deficient design; offending columns: " + ", ".join(self.columns)
        )


@dataclass(frozen=True)
class FitResult:
    beta: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    r_squared: float
    n: int
    p: int
    column_labels: tuple

    def __post_init__(self):
        self.beta.setflags(write=False)
        self.residuals.setflags(write=False)
        self.fitted.setflags(write=False)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(lab.name for lab in self.column_labels)


@dataclass(frozen=True)
class CovarianceEstimate:
    cov: np.ndarray
    scheme: ClusterScheme
    correction: str
    G: int

    def __post_init__(self):
        self.cov.setflags(write=False)

    @property
    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))


def ols_fit(design: DesignMatrix) -> FitResult:
    """Least squares via pivoted QR; reports offending columns on rank deficiency."""
    X, y = design.X, design.y
    n, p = X.shape
    if n <= p:
        raise ValueError(f"need more rows than columns to fit (n={n}, p={p})")
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank < p:
        names = design.column_names
        raise RankDeficientError([names[j] for j in piv[rank:]])
    beta = np.empty(p)
    beta[piv] = sla.solve_triangular(R, Q.T @ y)
    fitted = X @ beta
    residuals = y - fitted
    ssr = float(residuals @ residuals)
    centered = any(lab.kind in ("intercept", "dummy") for lab in design.column_labels)
    if centered:
        dev = y - y.mean()
        sst = float(dev @ dev)
    else:
        sst = float(y @ y)
    if sst == 0.0:
        warnings.warn("total sum of squares is zero; defining R^2 = 0")
        r2 = 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ssr / sst))
    return FitResult(
        beta=beta,
        residuals=residuals,
        fitted=fitted,
        r_squared=r2,
        n=n,
        p=p,
        column_labels=design.column_labels,
    )


def clustered_cov(
    fit: FitResult,
    design: DesignMatrix,
    clusters: ClusterAssignment,
    correction: str = "CR1",
) -> CovarianceEstimate:
    """Clustered sandwich covariance of the coefficient estimator.

    With singleton clusters and CR0 this coincides with the HC0
    heteroskedasticity-robust estimator.  G = 1 is degenerate (the score sums
    to ~0 by orthogonality): a warning is emitted and, since the CR1 factor
    is undefined there, no small-sample correction is applied.
    """
    check_correction(correction)
    if clusters.n_rows != fit.n or design.n != fit.n:
        raise ValueError("fit, design and clusters disagree on the row count")
    X = design.X
    n, p = X.shape
    G = clusters.n_clusters
    assert int(clusters.sizes.sum()) == n and np.all(clusters.sizes > 0)
    if G == 1:
        warnings.warn("G=1 degenerate clustering: covariance collapses to ~0")
    elif G < FEW_CLUSTERS_THRESHOLD:
        warnings.warn(f"only G={G} clusters; uncertainty estimates may be unreliable")
    XtX = X.T @ X
    try:
        cho = sla.cho_factor(XtX)
    except np.linalg.LinAlgError:
        raise ValueError("X'X is singular") from None
    bread = sla.cho_solve(cho, np.eye(p))
    scores = np.zeros((G, p))
    np.add.at(scores, clusters.row_cluster, X * fit.residuals[:, None])
    meat = scores.T @ scores
    if correction == "CR1" and G > 1:
        meat = meat * (G / (G - 1.0)) * ((n - 1.0) / (n - p))
    cov = bread @ meat @ bread
    cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(cov=cov, scheme=clusters.scheme, correction=correction, G=G)


@functools.lru_cache(maxsize=None)
def _t_quantile(level: float, G: int) -> float:
    check_level(level)
    if G < 2:
        raise ValueError("confidence intervals need at least 2 clusters")
    return float(sstats.t.ppf(0.5 + level / 2.0, G - 1))


def confidence_intervals(
    fit: FitResult, cov: CovarianceEstimate, level: float = 0.95
) -> np.ndarray:
    """Per-coefficient (lower, upper) at the given two-sided level.

    Quantile: Student t with G-1 degrees of freedom.
    """
    q = _t_quantile(level, cov.G)
    d = np.diag(cov.cov)
    if np.any(d <= 0):
        bad = [fit.column_names[j] for j in np.flatnonzero(d <= 0)]
        raise ValueError(f"nonpositive variance for columns {bad}; covariance is broken")
    half = q * np.sqrt(d)
    return np.column_stack([fit.beta - half, fit.beta + half])


@dataclass(frozen=True)
class CurvePoint:
    lag: int
    effect: float
    se: float
    lower: float
    upper: float


@dataclass(frozen=True)
class ResponseCurve:
    term: str
    moderator: str | None
    moderator_value: float
    level: float
    points: tuple[CurvePoint, ...]


def term_response_curve(
    fit: FitResult,
    cov: CovarianceEstimate,
    term: TermSpec,
    moderator_value: float = 0.0,
    horizon: int | None = None,
    level: float = 0.95,
) -> ResponseCurve:
    """Cumulative per-lag effect of a term with a clustered CI band.

    effect(l) = sum_{j<=l} (beta_base_j + moderator_value * beta_inter_j);
    the variance comes from c' Cov c with the matching contrast vector.
    """
    lbl = term_label(term)
    base_cols = {
        lab.lag: j
        for j, lab in enumerate(fit.column_labels)
        if lab.kind == "base" and lab.term == lbl and lab.moderator == term.moderator
    }
    inter_cols = {
        lab.lag: j
        for j, lab in enumerate(fit.column_labels)
        if lab.kind == "interaction" and lab.term == lbl and lab.moderator == term.moderator
    }
    if not base_cols:
        raise ValueError(f"term {lbl!r} not in the fitted model")
    max_present = max(base_cols)
    if horizon is None:
        horizon = max_present
    if horizon > max_present:
        raise ValueError(f"horizon {horizon} exceeds fitted lags 0..{max_present}")
    q = _t_quantile(level, cov.G)
    points = []
    contrast = np.zeros(fit.p)
    for lag in range(horizon + 1):
        contrast[base_cols[lag]] = 1.0
        if inter_cols:
            contrast[inter_cols[lag]] = moderator_value
        effect = float(contrast @ fit.beta)
        var = float(contrast @ cov.cov @ contrast)
        se = math.sqrt(max(var, 0.0))
        points.append(
            CurvePoint(lag=lag, effect=effect, se=se, lower=effect - q * se, upper=effect + q * se)
        )
    return ResponseCurve(
        term=lbl,
        moderator=term.moderator,
        moderator_value=moderator_value,
        level=level,
        points=tuple(points),
    )
