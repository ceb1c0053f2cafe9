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


def _levels(design: DesignMatrix, present: dict) -> tuple[tuple, np.ndarray]:
    """Effects whose reference level is absent, and the kept columns of ``X``."""
    re_referenced = tuple(e for e in present if not present[e][0])
    kept = np.ones(design.X.shape[1], dtype=bool)
    if "year" in present:
        years = present["year"][1:].copy()
        if "year" in re_referenced:
            years[np.argmax(years)] = False
        kept[[j for j, lab in enumerate(design.x_labels) if lab.effect == "year"]] = years
    return re_referenced, kept


class Absorbed:
    """``design`` ready for least squares: its rows with positive integer
    ``weights`` (all rows when None; a CV training split or a bootstrap
    replicate's multiplicities), the region effect partialled out in one
    exact pass and the columns scaled by sqrt(weight).

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
        self.re_referenced, self.kept = _levels(design, self.present)
        self.means = self.ymeans = None
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


# A fit comes from the Gram only when Cholesky of the equilibrated Gram less
# tau I succeeds, which certifies its smallest eigenvalue above tau: tau is
# _PIVOT_MIN (the normal equations then lose little precision) or, if larger,
# least squares' rank threshold, (k eps max(n, k))^2, times _RANK_MARGIN times
# the spread of the squared column norms.  Every pivot of a Cholesky of the
# Gram is at least its smallest eigenvalue, so a pivoted Cholesky would keep
# every pivot above both bounds too.  Other fits use the rows, as do all when
# G (k+1) > _MOMENT_RATIO n, where the Grams would outgrow the rows.
# _BLOCK_FLOATS bounds a block's temporaries.
_PIVOT_MIN, _RANK_MARGIN, _MOMENT_RATIO, _BLOCK_FLOATS = 1e-7, 1e4, 8, 2 ** 18


class ClusterMoments:
    """What a weighted, region-absorbed least-squares fit of ``design``
    depends on when each row weighs its cluster's weight (Roodman, Nielsen,
    MacKinnon & Webb 2019; MacKinnon 2023): per cluster g the Gram A_g of
    Z = [X y], and per (region, cluster) pair the sums s_rc and counts n_rc.
    Under weights w, with S_r = sum_c w_c s_rc and N_r = sum_c w_c n_rc,
    ``Absorbed``'s partialled Gram is sum_g w_g A_g - sum_{r != ref} S_r
    S_r'/N_r, with Z centred at the regions' full-sample means so that the
    subtraction cancels little.  The A_g are built here; Z is not kept.
    ``weighted(W)`` gives each row of W a view with ``Absorbed``'s
    ``present``, ``re_referenced`` and ``solve``.  Each entry of the Gram
    depends on its two columns alone, so a view solves a column subset from
    a sub-block, as a build on those columns would up to rounding.
    """

    def __init__(self, design: DesignMatrix, row_cluster: np.ndarray):
        self.design, self.row_cluster, self.G = design, row_cluster, int(row_cluster.max()) + 1
        G, k1 = self.G, design.X.shape[1] + 1
        self.sizes, self.block, self.center = np.bincount(row_cluster), 1, None
        self.rows_only = G * k1 > _MOMENT_RATIO * design.n
        if self.rows_only:
            return
        Z, floats = np.column_stack([design.X, design.y]), G + k1 * k1
        if "region" in design.fe_codes:
            code, L = design.fe_codes["region"], len(design.fe_levels["region"])
            # (region, cluster) pairs padded per region; a pad reads cluster G's zero weight
            pair, at = np.unique(code * G + row_cluster, return_inverse=True)
            region, cluster = np.divmod(pair, G)
            sums, counts = np.column_stack([np.bincount(at, z) for z in Z.T]), np.bincount(at)
            self.center = np.column_stack([np.bincount(region, s, L) for s in sums.T])
            self.center /= np.bincount(region, counts, L)[:, None]
            Z -= self.center[code]
            slot = np.arange(len(pair)) - np.searchsorted(region, region)
            width = slot.max() + 1
            self.pair_cluster, self.pair_counts = np.full((L, width), G), np.zeros((L, width))
            self.pair_sums = np.zeros((L, width, k1))
            self.pair_cluster[region, slot], self.pair_counts[region, slot] = cluster, counts
            self.pair_sums[region, slot] = sums - counts[:, None] * self.center[region]
            floats += self.pair_counts.size * (k1 + 1) + L * k1
            del sums  # up to n x k1, as large as Z: free it before the Grams are built
        Z, self.block = Z[np.argsort(row_cluster, kind="stable")], max(1, _BLOCK_FLOATS // floats)
        # the clusters of one size in one stacked product
        self.grams, starts = np.empty((G, k1 * k1)), np.cumsum(self.sizes) - self.sizes
        for size in np.unique(self.sizes):
            rows = Z[starts[self.sizes == size, None] + np.arange(size)]
            self.grams[self.sizes == size] = (rows.transpose(0, 2, 1) @ rows).reshape(-1, k1 * k1)

    def weighted(self, W) -> list:
        """One fit view per row of the cluster weights ``W`` (``block`` rows at a
        time).  Each row's sums are products of their own on C-ordered operands:
        BLAS rounds a row of a stacked or strided product by the stack."""
        W = np.asarray(W, dtype=float).reshape(-1, self.G)
        if self.rows_only:
            return [Absorbed(self.design, w[self.row_cluster]) for w in W]
        B, k1, codes = len(W), self.design.X.shape[1] + 1, self.design.fe_codes
        grams = np.stack([w @ self.grams for w in W]).reshape(B, k1, k1)
        present, means = {}, [None] * B
        if self.center is not None:
            Wp = np.take(np.hstack([W, np.zeros((B, 1))]), self.pair_cluster, axis=1)
            N = np.einsum("blt,lt->bl", Wp, self.pair_counts)
            S = np.stack([np.matmul(wp[:, None], self.pair_sums)[:, 0] for wp in Wp])
            seen = present["region"] = N > 0
            b, ref = np.arange(B), np.argmax(seen, axis=1)
            grams -= np.stack([t.T @ t for t in S / np.sqrt(np.where(seen, N, 1.0))[..., None]])
            # the reference region is not demeaned: its term takes its sum about 0, S + N c
            raw = (S[b, ref] + N[b, ref, None] * self.center[ref]) / np.sqrt(N[b, ref, None])
            grams += raw[:, :, None] * raw[:, None, :]
            with np.errstate(invalid="ignore"):
                means = self.center + S / N[..., None]
            means[b, ref] = 0.0
        if "year" in codes:
            present["year"] = [np.bincount(codes["year"][w[self.row_cluster] > 0],
                                           minlength=len(self.design.fe_levels["year"])) > 0 for w in W]
        return [_Partialled(self, W[i], grams[i], means[i],
                            {e: present[e][i] for e in codes if e in present}) for i in range(B)]


def _gram_accepted(A: np.ndarray, spread: float, n: int) -> bool:
    """Whether the equilibrated (unit-diagonal) Gram ``A`` of ``n`` weighted
    rows, whose squared column norms spread by the ratio ``spread``, is well
    enough inside full rank to solve the normal equations."""
    k = len(A)
    tau = max(_PIVOT_MIN, _RANK_MARGIN * (k * np.finfo(float).eps * n) ** 2 * spread)
    try:
        np.linalg.cholesky(A - tau * np.eye(k))
    except np.linalg.LinAlgError:
        return False
    return True


class _Partialled:
    """``ClusterMoments`` under weights ``w``; ``means``: [X y]'s region means (reference 0)."""

    def __init__(self, moments: ClusterMoments, w, gram, means, present):
        self.moments, self.w, self.gram, self.means, self.present = moments, w, gram, means, present
        self.re_referenced, self.kept = _levels(moments.design, present)

    @functools.cached_property
    def rows(self) -> Absorbed:
        """The row path under ``w``, built on first need and shared by every solve."""
        return Absorbed(self.moments.design, self.w[self.moments.row_cluster])

    def solve(self, cols: Sequence[int]):
        """``Absorbed.solve``, from the rows unless the Gram is well inside full rank."""
        cols = [j for j in cols if self.kept[j]]
        A, k = self.gram[np.ix_(cols, cols)], len(cols)
        d = np.diag(A).copy()
        if k and d.min() > 0.0:
            root = np.sqrt(d)
            A = A / root / root[:, None]
            if _gram_accepted(A, d.max() / d.min(), max(int(self.moments.sizes @ (self.w > 0)), k)):
                theta = np.linalg.solve(A, self.gram[cols, -1] / root) / root
                alpha = None if self.means is None else self.means[:, -1] - self.means[:, cols] @ theta
                return cols, theta, k, alpha
        return self.rows.solve(cols)


def _pivoted_triangle(T: np.ndarray):
    """Householder QR with column pivoting of the k x (k+1) upper trapezoid
    ``T``, its last column carried along unpivoted: (R, piv) with
    T[:, [*piv, k]] = Q R.  ``T`` is the triangle of an unpivoted QR of the
    rows [X y], so this pivots as a pivoted QR of X would, in a k-step loop on
    k x k instead of on the rows (Demmel, Grigori, Hoemmen & Langou 2012).
    Each step takes the column of largest remaining norm.  A squared norm
    within 4 k eps of the column's own squared norm of the largest ties with
    it, as copies of one column of X differ in T's rounding, and a tie goes
    to the column first in the current order, as in LAPACK's dgeqp3."""
    R, k = T.copy(), T.shape[0]
    piv = np.arange(k)
    slack = np.einsum("ij,ij->j", R[:, :k], R[:, :k]) * (4 * k * np.finfo(float).eps)
    for j in range(k):
        norms = np.einsum("ij,ij->j", R[j:, j:k], R[j:, j:k])
        m = j + int(np.argmax(norms >= norms.max() - slack[j:]))
        if m != j:
            for a in (R.T, piv, slack):
                a[[j, m]] = a[[m, j]]
        v = R[j:, j].copy()
        norm = math.sqrt(v @ v)
        if norm == 0.0:  # every remaining column is zero
            break
        alpha = -math.copysign(norm, v[0])
        v[0] -= alpha
        R[j:, j:] -= np.outer(v, (v @ R[j:, j:]) * (2.0 / (v @ v)))
        R[j, j], R[j + 1:, j] = alpha, 0.0
    return R, piv


def ols_fit(design: DesignMatrix) -> FitResult:
    """Least squares via pivoted QR; reports offending columns on rank deficiency.

    The rows are factored once, unpivoted, as [X y] = Q T, and the pivoting
    runs on the small triangle T (``_pivoted_triangle``).  With a region
    effect the QR runs on the partialled columns, and region r's coefficient
    is its mean of y - X beta; a rank deficiency names columns of ``X``,
    never a region dummy.
    """
    fe = Absorbed(design)
    X, y = fe.X, fe.y
    n, p = X.shape[0], design.p
    if n <= p:
        raise ValueError(f"need more rows than columns to fit (n={n}, p={p})")
    k = X.shape[1]
    R, piv = _pivoted_triangle(np.linalg.qr(np.column_stack([X, y]), mode="r")[:k])
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank < k:
        names = [lab.name for lab in design.x_labels]
        raise RankDeficientError([names[j] for j in piv[rank:]])
    theta = np.empty(k)
    theta[piv] = np.linalg.solve(R[:, :k], R[:, k])
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
    try:
        U = np.linalg.cholesky(X.T @ X).T
    except np.linalg.LinAlgError:
        raise ValueError("X'X is singular") from None
    U_inv = np.linalg.solve(U, np.eye(k))  # LU of the triangle U is I U: back substitution
    bread = U_inv @ U_inv.T
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


def _abs_t_density_at_zero(nu: int) -> float:
    """2 Gamma((nu + 1)/2) / (sqrt(pi nu) Gamma(nu/2)), the density of |T| at 0."""
    if nu >= 64:  # Stirling series of log Gamma(a + 1/2)/Gamma(a); the next term is < 1e-16
        a = nu / 2.0
        return math.sqrt(2.0 / math.pi) * math.exp(
            -1 / (8 * a) + 1 / (192 * a**3) - 1 / (640 * a**5) + 17 / (14336 * a**7))
    n = nu // 2  # Gamma(n + 1/2) = sqrt(pi) (2n)! / (4^n n!), the integer ratio rounded once
    c = math.comb(2 * n, n)
    return c / 4**n * math.sqrt(nu) if nu % 2 == 0 else 2 * 4**n / c / math.pi / math.sqrt(nu)


@functools.lru_cache(maxsize=None)
def _t_quantile(level: float, G: int) -> float:
    """The t with P(|T| <= t) = level, T Student t on G - 1 degrees of freedom.

    Solved at the double p = 0.5 + level/2 for whichever of P(|T| <= t) = 2p - 1
    and P(|T| > t) = 2(1 - p) is at most one half; both targets are exact, so
    the smaller probability keeps its relative accuracy.  With f the density
    of |T| and a = nu/2, P(|T| <= t) = t f(t) 2F1(a + 1/2, 1; 3/2; t^2/(nu + t^2))
    and P(|T| > t) = (1/t + t/nu) f(t) 2F1(1/2, 1; a + 1; -nu/t^2) (the
    incomplete beta, DLMF 8.17.8, with a Pfaff transformation): a power series
    and Gauss's continued fraction whose terms are all positive, so neither
    cancels.  Newton's method runs on log P against log t, concave for both
    probabilities.  nu = 1 and 2 have closed forms.
    """
    check_level(level)
    if G < 2:
        raise ValueError("confidence intervals need at least 2 clusters")
    nu, p = G - 1, 0.5 + level / 2.0
    upper = p > 0.75
    target = 2.0 * (1.0 - p) if upper else 2.0 * p - 1.0
    if target == 0.0:  # level within half an ulp of 0 or 1
        return math.inf if upper else 0.0
    if nu == 1:
        q = math.tan(math.pi / 2.0 * target)
        return 1.0 / q if upper else q
    if nu == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    a, f0 = nu / 2.0, _abs_t_density_at_zero(nu)
    # P(|T| <= t) <= f0 t, so the lower start is left of the root, where the
    # Newton steps on a concave function rise monotonically
    t, step = (1.0 if upper else target / f0), math.inf
    while abs(step) >= 1e-10:  # Newton converges quadratically: the error is now ~step^2
        if upper:
            z, c, d, terms = nu / (t * t), 1.0, 0.0, []
            while abs(c * d - 1.0) >= 3e-16:  # modified Lentz, only to find the depth
                n = len(terms)
                terms.append(z * (n + 1) * (nu + n) / ((nu + 2 * n) * (nu + 2 * n + 2)))
                d = 1.0 / (1.0 + terms[-1] * d)
                c = 1.0 + terms[-1] / c
            fraction = 1.0
            for term in reversed(terms):  # backward: each rounding is damped, not summed
                fraction = 1.0 + term / fraction
            ratio = (1.0 / (t * t) + 1.0 / nu) / fraction
        else:
            y, term, rest, m = t * t / (nu + t * t), 1.0, 0.0, 0
            while term > 1e-17 * (1.0 + rest):
                term *= (a + 0.5 + m) / (1.5 + m) * y
                rest += term
                m += 1
            ratio = 1.0 + rest
        prob = t * ratio * f0 * math.exp(-(a + 0.5) * math.log1p(t * t / nu))
        step = math.log(prob / target) * (ratio if upper else -ratio)  # ratio = prob / (t f(t))
        # from below the root the tail's first step overshoots; a factor e
        # up at a time keeps f(t) from underflowing
        t += t * math.expm1(min(step, 1.0))
    return t


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
