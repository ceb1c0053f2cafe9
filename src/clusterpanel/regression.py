"""OLS fitting, cluster-robust covariance, confidence intervals, response curves.

The covariance estimator is the one-way clustered sandwich
(X'X)^-1 [sum_g s_g s_g'] (X'X)^-1 with per-cluster scores s_g = X_g' r_g.
CR1 rescales the middle factor by G/(G-1) * (n-1)/(n-p); CR0 leaves it
uncorrected.  Interval quantiles use Student t with G-1 degrees of freedom.

A region effect is absorbed (``Absorbed``): the fit runs on the partialled
columns and recovers each region's effect afterwards, and the sandwich gets
the region effects' variances exactly from the rows of the estimator's
linear map, without forming a region dummy column.  Every count (p, the CR1
factor, R^2) still includes the region dummies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg as sla
from scipy import special

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


class Absorbed:
    """``design`` ready for least squares: its rows with positive integer
    ``weights`` (all rows when None), the region effect partialled out in one
    exact pass and the columns scaled by sqrt(weight).  Weights stand for
    repeated rows: a CV training split (0/1) or a bootstrap replicate
    (cluster multiplicities).

    Each region's weighted mean is subtracted from its rows, except the
    reference region's (its first level with weight): the residual of a
    regression on the non-reference region dummies.  By Frisch-Waugh-Lovell,
    least squares on ``X`` and ``y`` gives the dummy-coded coefficients, with
    and without an intercept, and region r's effect is ``ymeans[r] -
    means[r] @ coefficients`` (0 for the reference).  Columns are partialled
    one by one, so column subsets are exact.

    Levels without weight drop out: their region means are NaN and their
    year dummy is not ``kept``.  An effect whose reference level has no
    weight is re-referenced to its first level with weight, as dummies
    rebuilt on the rows would be, and listed in ``re_referenced``.
    """

    def __init__(self, design: DesignMatrix, weights: np.ndarray | None = None):
        rows = slice(None) if weights is None else np.flatnonzero(weights)
        X, y = design.X[rows], design.y[rows]
        w = None if weights is None else weights[rows].astype(float)
        codes = {effect: code[rows] for effect, code in design.fe_codes.items()}
        self.present = {effect: np.bincount(code, minlength=len(design.fe_levels[effect])) > 0
                        for effect, code in codes.items()}
        self.re_referenced = tuple(e for e in codes if not self.present[e][0])
        self.kept = np.ones(X.shape[1], dtype=bool)
        self.means = self.ymeans = None
        if "year" in codes:
            present = self.present["year"][1:].copy()
            if "year" in self.re_referenced:
                present[np.argmax(present)] = False
            years = [j for j, lab in enumerate(design.x_labels) if lab.effect == "year"]
            self.kept[years] = present
        if "region" in codes:
            w = np.ones(len(y)) if w is None else w
            code, present = codes["region"], self.present["region"]
            L = len(present)
            total = np.bincount(code, w, L)[present]
            self.means = np.full((L, X.shape[1]), math.nan)
            self.ymeans = np.full(L, math.nan)
            for j in range(X.shape[1]):
                self.means[present, j] = np.bincount(code, w * X[:, j], L)[present] / total
            self.ymeans[present] = np.bincount(code, w * y, L)[present] / total
            self.means[np.argmax(present)] = self.ymeans[np.argmax(present)] = 0.0
            X, y = X - self.means[code], y - self.ymeans[code]
        if weights is not None:
            X, y = X * np.sqrt(w)[:, None], y * np.sqrt(w)
        self.X, self.y = X, y

    def solve(self, cols: Sequence[int]):
        """Minimum-norm least squares on the kept ones of the ``X`` columns
        ``cols``: (those columns, coefficients, rank, region effects by
        level code, None without a region effect).

        The norm is that of the dummy-coded coefficients, region effects
        included: a rank-deficient fit moves the coefficients within the
        null space of ``X`` to minimize |beta|^2 + |alpha|^2."""
        cols = [j for j in cols if self.kept[j]]
        X = np.take(self.X, cols, axis=1)
        beta, _, rank, _ = np.linalg.lstsq(X, self.y, rcond=None)
        if self.means is None:
            return cols, beta, int(rank), None
        means = np.take(self.means, cols, axis=1)
        if rank < len(cols):
            null = np.linalg.svd(X, full_matrices=False)[2][rank:].T
            seen = ~np.isnan(self.ymeans)
            A = np.vstack([null, -means[seen] @ null])
            b = np.concatenate([beta, self.ymeans[seen] - means[seen] @ beta])
            beta = beta - null @ np.linalg.lstsq(A, b, rcond=None)[0]
        return cols, beta, int(rank), self.ymeans - means @ beta


def ols_fit(design: DesignMatrix) -> FitResult:
    """Least squares via pivoted QR; reports offending columns on rank deficiency.

    With a region effect the QR runs on the partialled columns, and region
    r's coefficient is its mean of y - X beta; a rank deficiency names
    columns of ``X``, never a region dummy.
    """
    fe = Absorbed(design)
    X, y = fe.X, fe.y
    n, p = X.shape[0], design.p
    if n <= p:
        raise ValueError(f"need more rows than columns to fit (n={n}, p={p})")
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        names = [lab.name for lab in design.x_labels]
        raise RankDeficientError([names[j] for j in piv[rank:]])
    theta = np.empty(X.shape[1])
    theta[piv] = sla.solve_triangular(R, Q.T @ y)
    if fe.means is None:
        beta = theta
        fitted = X @ beta
        residuals = y - fitted
    else:
        beta = np.empty(p)
        beta[list(design.x_slots)] = theta
        beta[list(design.region_slots)] = (fe.ymeans - fe.means @ theta)[1:]
        residuals = y - X @ theta
        fitted = design.y - residuals
    ssr = float(residuals @ residuals)
    centered = any(lab.kind in ("intercept", "dummy") for lab in design.column_labels)
    if centered:
        dev = design.y - design.y.mean()
        sst = float(dev @ dev)
    else:
        sst = float(design.y @ design.y)
    if sst == 0.0:
        warnings.warn("total sum of squares is zero; defining R^2 = 0")
        r2 = 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ssr / sst))
    return FitResult(beta=beta, residuals=residuals, fitted=fitted, r_squared=r2, n=n, p=p,
                     column_labels=design.column_labels)


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

    With a region effect, the sandwich of the columns of ``X`` runs on the
    partialled columns, and a region dummy gets its variance alone: region
    r's row of the estimator's linear map is 1_r'/n_r - m_r' bread X~', so
    its variance is sum_g (a_rg - m_r' bread s_g)^2, with a_rg the sum of
    cluster g's residuals in region r over n_r and m_r the region's column
    means.  Its covariances with other columns are not formed and are NaN.
    A region variance whose square root is at most n eps max|residual| is
    roundoff of a structural zero and set to 0.
    """
    check_correction(correction)
    if clusters.n_rows != fit.n or design.n != fit.n:
        raise ValueError("fit, design and clusters disagree on the row count")
    fe = Absorbed(design)
    X, means = fe.X, fe.means
    n, k = X.shape
    p = design.p
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
    bread = sla.cho_solve(cho, np.eye(k))
    scores = np.zeros((G, k))
    np.add.at(scores, clusters.row_cluster, X * fit.residuals[:, None])

    def corrected(m):
        return m * (G / (G - 1.0)) * ((n - 1.0) / (n - p)) if correction == "CR1" and G > 1 else m

    meat = corrected(scores.T @ scores)
    cov = bread @ meat @ bread
    cov = 0.5 * (cov + cov.T)
    if means is not None:
        # sum_g (a_rg - c_rg)^2 with c_rg = m_r' bread s_g, as squares: over the
        # (region, cluster) pairs with rows directly, and over the other
        # clusters, where a_rg = 0, as sum_g c_rg^2 (= ||R m_r||^2 for W = QR
        # with rows W_g = bread s_g) less the pairs' share
        code = design.fe_codes["region"]
        pairs, at = np.unique(code * G + clusters.row_cluster, return_inverse=True)
        r, g = np.divmod(pairs, G)
        a = np.bincount(at, fit.residuals) / np.bincount(code)[r]
        W = scores @ bread
        c = np.einsum("ij,ij->i", means[r], W[g])
        unpaired = np.square(means @ np.linalg.qr(W, mode="r").T).sum(axis=1)
        unpaired -= np.bincount(r, c * c, len(means))
        var = corrected(np.bincount(r, np.square(a - c), len(means)) + np.maximum(unpaired, 0.0))
        var[np.sqrt(var) <= n * np.finfo(float).eps * np.abs(fit.residuals).max()] = 0.0
        full = np.full((p, p), math.nan)
        full[np.ix_(design.x_slots, design.x_slots)] = cov
        full[design.region_slots, design.region_slots] = var[1:]
        cov = full
    return CovarianceEstimate(cov=cov, scheme=clusters.scheme, correction=correction, G=G)


@functools.lru_cache(maxsize=None)
def _t_quantile(level: float, G: int) -> float:
    check_level(level)
    if G < 2:
        raise ValueError("confidence intervals need at least 2 clusters")
    return float(special.stdtrit(G - 1, 0.5 + level / 2.0))


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
        raise ValueError(f"nonpositive variance for columns {bad} under the "
                         f"{cov.scheme.label} scheme")
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
        nz = np.flatnonzero(contrast)
        var = float(contrast[nz] @ cov.cov[np.ix_(nz, nz)] @ contrast[nz])
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
