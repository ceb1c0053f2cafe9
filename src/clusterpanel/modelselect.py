"""Cluster-respecting cross-validation and correlation-adjusted information criteria.

Folds keep whole clusters together.  The CV and IC scans score the models
of one ``model_sequence``, each a column subset of one union design; the CV
scan's fold loop is ``cv_loss``, which takes any design and columns.  The
adjusted AIC/BIC replace the iid Gaussian log-likelihood with an
equicorrelated block covariance (variance sigma^2 on the diagonal, covariance
rho within a block, blocks independent) whose log-determinant and quadratic
form have closed per-block forms, and estimate rho by one-dimensional
golden-section search with the coefficients and sigma^2 held at their least
squares values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .panel import (ClusterAssignment, ClusterScheme, DesignMatrix, ModelSpec, PanelDataset,
                    RankDeficientError, TermSpec, assign_clusters, build_design, term_label)
from .regression import Absorbed, ClusterMoments, FitResult

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Folds and cross-validated loss
# ---------------------------------------------------------------------------


def make_folds(clusters: ClusterAssignment, K: int, seed: int) -> np.ndarray:
    """The (G,) fold of each cluster code, in [0, K): the codes shuffled with a
    seeded RNG and dealt round-robin, so fold sizes differ by at most one."""
    G = clusters.n_clusters
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    if K > G:
        raise ValueError(f"K={K} exceeds the number of clusters G={G} "
                         f"under the {clusters.scheme.label} scheme")
    fold = np.empty(G, dtype=np.intp)
    fold[np.random.default_rng(seed).permutation(G)] = np.arange(G) % K
    return fold


@dataclass(frozen=True)
class CvResult:
    loss: float
    unseen_levels: int
    rank_deficient: bool


def cv_loss(
    design: DesignMatrix,
    scheme: ClusterScheme,
    K: int,
    seed: int,
    models: Sequence[Sequence[int]],
) -> list[CvResult]:
    """Mean squared validation loss under cluster-respecting K-fold CV of
    every model, each a list of columns of ``design.X`` fitted with the fixed
    effects, on one set of folds.

    The design's ``ClusterMoments`` are keyed by fold, K Grams whatever the
    cluster count, and one ``weighted`` call weighs them 0/1 into every
    training split; each model solves its columns on all K splits in one
    call, as on a design built for it alone up to rounding.  The fixed effects
    take the training split's levels: a validation row whose level is unseen
    in training, or is the training reference, gets no effect, as rebuilt
    all-zero dummies would give, and is counted in ``unseen_levels``.  A
    rank-deficient training split is solved at minimum norm and flags its
    model ``rank_deficient``.  Validation errors come from the rows, X beta
    with beta 0 outside the model.
    """
    clusters = assign_clusters(design, scheme)
    fold = make_folds(clusters, K, seed)
    row_folds = fold[clusters.row_cluster]
    counts = np.bincount(row_folds, minlength=K)
    if not counts.all():
        raise ValueError(f"empty validation fold {int(np.argmin(counts))}")
    folds = ClusterMoments(design, row_folds).weighted([np.arange(K) != k for k in range(K)])
    fits = [folds.solve(model) for model in models]  # each over all K folds
    collinear = np.array([fit[1] for fit in fits]).reshape(-1, K)
    sse, unseen = np.zeros((len(models), K)), 0
    for k in range(K):
        va = row_folds == k
        X_va, codes = design.X[va], {e: c[va] for e, c in design.fe_codes.items()}
        unseen += sum(int((~folds.present[e][k][c]).sum()) for e, c in codes.items())
        for m, (beta, _, effects) in enumerate(fits):
            err = design.y[va] - X_va @ beta[k]
            for effect, values in effects.items():
                err -= np.nan_to_num(values[k])[codes[effect]]
            sse[m, k] = err @ err
    return [CvResult(loss=sum(map(float, e)) / design.n, unseen_levels=unseen, rank_deficient=flag)
            for e, flag in zip(sse, collinear.any(1).tolist())]


# ---------------------------------------------------------------------------
# Model sequences and CV scans
# ---------------------------------------------------------------------------


def term_display(term: TermSpec) -> str:
    lbl = term_label(term)
    return f"{lbl}*{term.moderator}" if term.moderator else lbl


Depths = tuple[int | None, ...]


@dataclass(frozen=True)
class ModelSequence:
    """The models one scan scores, all nested in ``union``.

    A model is a tuple of lag depths, one per union term: the term enters at
    lags 0..depth, or not at all when the depth is None.  Each variant is
    (displayed term, lag depth or None for a removal, depths).
    """

    union: ModelSpec
    reference: Depths
    variants: tuple[tuple[str, int | None, Depths], ...]


def model_sequence(
    base: ModelSpec, candidates: Sequence[TermSpec], direction: str
) -> ModelSequence:
    """The model sequence shared by the CV and IC scans.

    Forward: ``base`` plus each candidate at lag depths 0..max_lag, against
    ``base``; a candidate is rejected when another candidate or a term of
    ``base`` has its displayed name, as the union would hold one term twice.
    Backward: each term of ``base`` truncated stepwise toward removal, then the
    trivial model (no terms), against ``base`` itself; it takes no candidates.
    """
    kept = tuple(t.max_lag for t in base.terms)
    if direction == "forward":
        if not candidates:
            raise ValueError("forward scan needs candidates")
        names, terms = [term_display(c) for c in candidates], set(map(term_display, base.terms))
        for j, name in enumerate(names):  # a name labels its candidate's scan entries
            if name in terms:
                raise ValueError(f"candidate {name!r} is already a term of the model")
            if name in names[:j]:
                raise ValueError(f"candidate {name!r} is listed twice")
        union = replace(base, terms=base.terms + tuple(candidates))
        absent = (None,) * len(candidates)
        variants = [
            (names[j], depth, kept + absent[:j] + (depth,) + absent[j + 1 :])
            for j, c in enumerate(candidates)
            for depth in range(c.max_lag + 1)
        ]
        return ModelSequence(union, kept + absent, tuple(variants))
    if direction != "backward":
        raise ValueError(f"unknown scan direction {direction!r}; use 'forward' or 'backward'")
    if not base.terms:
        raise ValueError("backward scan needs a model with at least one term")
    if candidates:
        raise ValueError("backward scan takes no candidates; it shrinks the model's own terms")
    variants = [
        (term_display(term), depth, kept[:i] + (depth,) + kept[i + 1 :])
        for i, term in enumerate(base.terms)
        for depth in (*range(term.max_lag - 1, -1, -1), None)
    ]
    variants.append(("(trivial)", None, (None,) * len(kept)))
    return ModelSequence(base, kept, tuple(variants))


def _columns(union: ModelSpec, depths: Depths) -> list[int]:
    """Core columns of ``union``'s design that the model ``depths`` keeps, in
    ``build_design``'s layout: intercept, then per term the base lags 0..L
    and the interaction lags 0..L."""
    cols = [0] if union.intercept else []
    start = len(cols)
    for term, depth in zip(union.terms, depths):
        width = term.max_lag + 1
        if depth is not None:
            cols += range(start, start + depth + 1)
            if term.moderator is not None:
                cols += range(start + width, start + width + depth + 1)
        start += 2 * width if term.moderator is not None else width
    return cols


@dataclass(frozen=True)
class ScanEntry:
    term: str
    lag_depth: int | None  # None marks full removal of the term
    loss: float
    delta_loss: float
    collinear: bool


@dataclass(frozen=True)
class ScanResult:
    reference_loss: float
    entries: tuple[ScanEntry, ...]
    rows_used: int


def cv_scan(
    dataset: PanelDataset,
    base: ModelSpec,
    candidates: Sequence[TermSpec],
    schemes: Sequence[ClusterScheme],
    K: int,
    seed: int,
    *,
    direction: str = "forward",
) -> list[ScanResult]:
    """Delta CV loss over ``model_sequence(base, candidates, direction)``,
    one scan per scheme of ``schemes``, in their order.

    The union design follows ``base``'s moderator alignment and lag ceiling,
    which bound the candidates too; it is built once and every scheme scores
    it.  All models are evaluated on the rows usable under the union model,
    so deltas are not confounded by lag trimming, and on the scheme's shared
    folds (``cv_loss``).  A rank-deficient training fold flags the entry
    collinear.
    """
    seq = model_sequence(base, candidates, direction)
    design = build_design(dataset, seq.union)
    models = [seq.reference] + [depths for _, _, depths in seq.variants]
    columns = [_columns(seq.union, depths) for depths in models]
    scans = []
    for scheme in schemes:
        ref, *results = cv_loss(design, scheme, K, seed, columns)
        entries = tuple(ScanEntry(term=name, lag_depth=depth, loss=cv.loss,
                                  delta_loss=cv.loss - ref.loss, collinear=cv.rank_deficient)
                        for (name, depth, _), cv in zip(seq.variants, results))
        scans.append(ScanResult(reference_loss=ref.loss, entries=entries, rows_used=design.n))
    return scans


# ---------------------------------------------------------------------------
# Gaussian log-likelihoods
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def loglik_iid(residuals: np.ndarray) -> float:
    """Maximized iid Gaussian log-likelihood -(n/2)(log 2pi + log sigma^2 + 1)
    with sigma^2 the mean squared residual."""
    r = np.asarray(residuals, dtype=float)
    n = r.size
    if n < 1:
        raise ValueError("need at least one residual")
    s2 = float(r @ r) / n
    if s2 <= 0.0:
        raise ValueError("zero residual variance; log-likelihood undefined")
    return -0.5 * n * (_LOG_2PI + math.log(s2) + 1.0)


@dataclass(frozen=True)
class EquicorrParams:
    """Equicorrelated block covariance: sigma^2 on the diagonal, rho within a
    block.  a = sigma^2 - rho; every block of size s needs a > 0 and
    1 + s*rho/a > 0 for positive definiteness."""

    sigma2: float
    rho: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.a <= 0:
            raise ValueError(f"rho={self.rho} must be below sigma2={self.sigma2}")

    @property
    def a(self) -> float:
        return self.sigma2 - self.rho

    def check_blocks(self, n_max: int) -> None:
        if 1.0 + n_max * self.rho / self.a <= 0.0:
            raise ValueError(
                f"covariance not positive definite for block size {n_max} "
                f"(sigma2={self.sigma2}, rho={self.rho})"
            )


def loglik_equicorr(
    residuals: np.ndarray, clusters: ClusterAssignment, params: EquicorrParams
) -> float:
    """Gaussian log-likelihood under the equicorrelated block covariance,
    evaluated with per-block closed forms.

    log det Sigma = sum_b [log(1 + s_b rho/a) + s_b log a] and
    r' Sigma^-1 r = sum_b [||r_b||^2/a - (rho/a^2) (1'r_b)^2 / (1 + s_b rho/a)],
    so the cost is linear in n.
    """
    return _block_loglik(residuals, clusters)(params)


def _block_loglik(residuals: np.ndarray, clusters: ClusterAssignment):
    """``loglik_equicorr`` of these residuals and blocks as a function of the
    parameters: the block sums and squared sums are taken once, and each call
    costs one pass over the blocks."""
    r = np.asarray(residuals, dtype=float)
    n = r.size
    if clusters.n_rows != n:
        raise ValueError("residuals and clusters disagree on the row count")
    sizes = clusters.sizes.astype(float)
    n_max = int(sizes.max())
    block_sums = np.bincount(clusters.row_cluster, weights=r, minlength=clusters.n_clusters)
    block_sqsums = np.bincount(clusters.row_cluster, weights=r * r, minlength=clusters.n_clusters)

    def loglik(params: EquicorrParams) -> float:
        params.check_blocks(n_max)
        a = params.a
        rho = params.rho
        denom = 1.0 + sizes * rho / a
        logdet = float(np.sum(np.log(denom) + sizes * math.log(a)))
        quad = float(np.sum(block_sqsums / a - (rho / a**2) * block_sums**2 / denom))
        return -0.5 * n * _LOG_2PI - 0.5 * logdet - 0.5 * quad

    return loglik


@dataclass(frozen=True)
class RhoFit:
    """Result of the rho-only likelihood maximization.

    ``rho_hat`` is None when every block has size one, where the likelihood
    does not depend on rho at all.
    """

    rho_hat: float | None
    loglik: float
    identified: bool
    at_boundary: bool
    sigma2: float
    n_max: int


def _golden_max(f, lo: float, hi: float, xtol: float):
    a, b = lo, hi
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def fit_rho(residuals: np.ndarray, clusters: ClusterAssignment) -> RhoFit:
    """Maximize the equicorrelated block log-likelihood over rho alone.

    sigma2 is held at the mean squared residual (its least squares value).
    The search runs by golden section over the open admissible interval
    (-sigma2/(n_max - 1), sigma2), shrunk by 1e-9 at both ends, to an
    absolute tolerance of 1e-8 * sigma2; proximity to an endpoint is warned.
    """
    r = np.asarray(residuals, dtype=float)
    sigma2 = float(r @ r) / r.size
    if sigma2 <= 0:
        raise ValueError("zero residual variance; rho undefined")
    n_max = int(clusters.sizes.max())
    if n_max == 1:
        warnings.warn("all blocks have size one; rho is unidentified")
        return RhoFit(rho_hat=None, loglik=loglik_iid(r), identified=False, at_boundary=False,
                      sigma2=sigma2, n_max=1)
    eps = 1e-9
    lo = -sigma2 / (n_max - 1) * (1.0 - eps)
    hi = sigma2 * (1.0 - eps)

    loglik = _block_loglik(r, clusters)

    def objective(rho: float) -> float:
        return loglik(EquicorrParams(sigma2=sigma2, rho=rho))

    xtol = 1e-8 * sigma2
    rho_hat, ll = _golden_max(objective, lo, hi, xtol)
    ll_zero = objective(0.0)
    if ll_zero >= ll:
        rho_hat, ll = 0.0, ll_zero
    boundary = min(rho_hat - lo, hi - rho_hat) <= 10.0 * xtol
    if boundary:
        warnings.warn(f"rho estimate {rho_hat:.6g} is at the admissible boundary")
    return RhoFit(rho_hat=float(rho_hat), loglik=float(ll), identified=True,
                  at_boundary=boundary, sigma2=sigma2, n_max=n_max)


# ---------------------------------------------------------------------------
# Information criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ICResult:
    criterion: str
    adjusted: bool
    value: float
    k: int
    log_lik: float
    rho_hat: float | None
    sigma2: float


def information_criterion(
    fit: FitResult,
    clusters: ClusterAssignment | None = None,
    criterion: str = "AIC",
    adjusted: bool = False,
) -> ICResult:
    """AIC/BIC value gamma(n) * k - 2 * log L, optionally correlation-adjusted.

    Non-adjusted uses the iid log-likelihood; adjusted estimates rho on the
    given blocks and evaluates the equicorrelated likelihood.  k counts the
    regression coefficients plus sigma^2 (and rho when adjusted).
    """
    if adjusted and clusters is None:
        raise ValueError("adjusted criteria need a cluster assignment for the blocks")
    likelihood = _log_likelihood(fit.residuals, clusters if adjusted else None)
    return _criterion(fit.residuals, fit.p, criterion, adjusted, likelihood)


def _log_likelihood(r: np.ndarray, blocks: ClusterAssignment | None):
    """(log L, rho_hat, sigma^2) of the residuals ``r``: iid without ``blocks``,
    else equicorrelated with rho fitted on them, iid where rho_hat is None or 0."""
    s2 = float(r @ r) / len(r)
    if blocks is None:
        return loglik_iid(r), None, s2
    rf = fit_rho(r, blocks)
    ll = loglik_iid(r) if rf.rho_hat is None or rf.rho_hat == 0.0 else rf.loglik
    return ll, rf.rho_hat, s2


def _criterion(r: np.ndarray, p: int, criterion: str, adjusted: bool, likelihood) -> ICResult:
    """``information_criterion`` of a fit of ``p`` coefficients from its residuals'
    ``_log_likelihood``."""
    if criterion not in ("AIC", "BIC"):
        raise ValueError(f"unknown criterion {criterion!r}; use 'AIC' or 'BIC'")
    ll, rho_hat, s2 = likelihood
    gamma = 2.0 if criterion == "AIC" else math.log(len(r))
    k = p + 1 + adjusted
    return ICResult(criterion=criterion, adjusted=adjusted, value=gamma * k - 2.0 * ll, k=k,
                    log_lik=ll, rho_hat=rho_hat, sigma2=s2)


@dataclass(frozen=True)
class ICScanEntry:
    term: str
    lag_depth: int | None
    criterion: str
    adjusted: bool
    value: float
    delta: float
    rho_hat: float | None
    collinear: bool


@dataclass(frozen=True)
class ICScanResult:
    reference: dict
    entries: tuple[ICScanEntry, ...]
    rows_used: int


def ic_scan(
    dataset: PanelDataset,
    base: ModelSpec,
    candidates: Sequence[TermSpec],
    block_scheme: ClusterScheme,
    *,
    direction: str = "forward",
    criteria: Sequence[str] = ("AIC", "BIC"),
    adjusted_flags: Sequence[bool] = (False, True),
) -> ICScanResult:
    """Information criteria over ``model_sequence(base, candidates, direction)``,
    the same models the CV scan scores, on a union design that follows
    ``base``'s moderator alignment and lag ceiling.

    The union design is absorbed and factored once, and each model fits its
    columns from that triangle (``Absorbed.fit``, as ``ols_fit``), on the rows
    usable under the union model, with the blocks assigned once; rank-deficient
    fits are flagged collinear with NaN values.  Deltas are against the reference.
    """
    seq = model_sequence(base, candidates, direction)
    design = build_design(dataset, seq.union)
    clusters = assign_clusters(design, block_scheme)
    fe = Absorbed(design)

    def scores(depths):  # one likelihood, and so one rho fit, per flag
        _, _, r, p = fe.fit(_columns(seq.union, depths))
        likelihoods = {adj: _log_likelihood(r, clusters if adj else None) for adj in adjusted_flags}
        return {(crit, adj): _criterion(r, p, crit, adj, likelihoods[adj])
                for adj in adjusted_flags for crit in criteria}

    # a rank-deficient reference model fails the scan, naming its columns
    ref = scores(seq.reference)
    entries = []
    for name, depth, depths in seq.variants:
        try:
            res = scores(depths)
        except RankDeficientError:
            res = None
        for adj in adjusted_flags:
            for crit in criteria:
                ic = None if res is None else res[(crit, adj)]
                value = math.nan if ic is None else ic.value
                entries.append(ICScanEntry(
                    term=name, lag_depth=depth, criterion=crit, adjusted=adj, value=value,
                    delta=value - ref[(crit, adj)].value, rho_hat=None if ic is None else ic.rho_hat,
                    collinear=ic is None))
    reference = {(crit, adj): ref[(crit, adj)].value for adj in adjusted_flags for crit in criteria}
    return ICScanResult(reference=reference, entries=tuple(entries), rows_used=design.n)
