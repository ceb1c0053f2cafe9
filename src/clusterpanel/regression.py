"""OLS fitting, cluster-robust covariance, confidence intervals, response curves.

The covariance estimator is the one-way clustered sandwich: the Gram
sum_g J_g J_g' of each cluster's influence J_g = R^-1 R^-T X_g' r_g, R the
triangle of the fit's partialled columns (R'R = X'X, never formed), linear in the rows,
so a coarser partition's influence is the sum of its clusters'
(``cluster_influence``).  CR1 rescales it by G/(G-1) * (n-1)/(n-p), CR0 not.

Every SE and interval is a ``Readout`` of (estimate, variance, G): ``readout``
alone holds the rule, estimate -+ the Student t quantile on G-1 d.o.f. times
the SE.  Coefficients are read with their own variances
(``confidence_intervals``), contrasts of them, a response curve's cumulative
sums among them, through the (m, p) contrast matrix of ``linear_readout``.

Both fixed effects are absorbed (``Absorbed``), which factors the partialled
[X y] once, and ``Absorbed.solve`` is the one least-squares solve: a model is
a column subset of that triangle, pivoted under one rank rule, its
coefficients in the design's coordinates (0 outside it), each region's and
year's effect recovered afterwards.  It serves the fit and every IC model
(``Absorbed.fit``), and every CV fold and bootstrap replicate that the
moments' Gram (``ClusterMoments``) does not accept.  The influence on the
year effects comes from the joint scores of the term and year columns, the
region effects' variances exactly from the rows of the estimator's linear
map: no dummy column and no (p, p) array is formed.  Every count (p, the CR1
factor, R^2) includes the dummies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .panel import (ClusterAssignment, ClusterScheme, DesignMatrix, RankDeficientError, TermSpec,
                    check_correction, check_level, term_label)

FEW_CLUSTERS_THRESHOLD = 40


@dataclass(frozen=True)
class FitResult:
    """Coefficients in design order, residuals and R^2 of a fit, and ``absorbed``,
    the partialled design X~ it was solved on, whose triangle is the sandwich's
    bread.  Its ``design`` alone holds the row count, the column layout and the
    names: ``n`` and ``p`` are the design's."""

    beta: np.ndarray
    residuals: np.ndarray
    r_squared: float
    absorbed: Absorbed = field(repr=False)

    def __post_init__(self):
        for a in (self.beta, self.residuals):
            a.setflags(write=False)

    design = property(lambda self: self.absorbed.design)
    n = property(lambda self: self.design.n)
    p = property(lambda self: self.design.p)


@dataclass(frozen=True)
class CovarianceEstimate:
    """``cov``: the joint covariance of the columns of ``X`` and the year effects,
    in design order (all p without a region effect); ``variances``: one per column."""

    cov: np.ndarray
    variances: np.ndarray
    scheme: ClusterScheme
    correction: str
    G: int

    def __post_init__(self):
        self.cov.setflags(write=False)
        self.variances.setflags(write=False)

    def read(self, estimate, variance, level: float) -> Readout:
        """The ``readout`` on this scheme's G; below 2 it is an error naming the scheme."""
        if self.G < 2:
            raise ValueError(f"confidence intervals need at least 2 clusters; the "
                             f"{self.scheme.label} scheme has G={self.G}")
        return readout(estimate, variance, self.G, level)


def _year_gram(C, N_r, N_t):
    """The Gram Ẽ'Ẽ of all year dummies after the region partialling, that is
    diag(N_t) less sum_{r != ref} C_r C_r' / N_r with C the weighted (region,
    year) counts (no rows without a region effect), and the shares C / N_r (0
    in the reference region's row, not demeaned, and in an absent one's)."""
    scale = np.divide(1.0, N_r, out=np.zeros(N_r.shape), where=N_r > 0)
    scale[(scale > 0) & (np.cumsum(scale > 0, axis=-1) == 1)] = 0.0
    root = C * np.sqrt(scale)[..., None]
    H = N_t[..., None] * np.eye(N_t.shape[-1]) - root.swapaxes(-1, -2) @ root
    return H, C * scale[..., None]


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x over any leading axes, each product one BLAS matrix-vector call."""
    return (A @ x[..., None])[..., 0]


def _pinv_solve(H: np.ndarray, F: np.ndarray, n: int):
    """(H^+ F, a basis of the null space of the symmetric ``H``), from its
    eigenvalues; one at most max(n, len(H)) eps times the largest is 0."""
    lam, V = np.linalg.eigh(H)
    keep = lam > max(n, len(H)) * np.finfo(float).eps * lam.max(initial=0.0)
    return V[:, keep] @ ((V[:, keep].T @ F) / lam[keep, None]), V[:, ~keep]


class _Effects:
    """What a weighted fit on the partialled columns needs to recover the
    absorbed effects, with the row weights' levels:

    - ``present``: per effect, the levels with weight; an effect whose
      reference level has none is re-referenced to its first level with
      weight, as dummies rebuilt on the rows would be;
    - ``years``: the year levels that P has rows for: those that keep a dummy,
      with weight but the reference (``Absorbed``), or all (``_Views``);
    - ``means``: [X y]'s weighted region means, 0 for the reference region
      and NaN for an absent one, whose effect is then NaN too;
    - ``shares``: C / N_r (``_year_gram``);
    - ``P``: the coefficients of [X y] region-partialled on the year
      dummies, one row per year of ``years``, and ``null`` the null space of
      the year block (empty unless the dummies are collinear).

    An absent effect has no levels, so these are empty.  The year effects of
    coefficients beta on columns ``cols`` are P[:, y] - P[:, cols] beta, and
    the region effects means[:, y] - means[:, cols] beta - shares gamma
    (Frisch-Waugh-Lovell), also over a stack of views.
    """

    def effects(self, cols: Sequence[int], beta: np.ndarray, gamma=None) -> dict:
        """Each absorbed effect by level code, NaN for a level without weight
        and 0 for the reference; ``gamma``, the kept years' effects, when
        given, else recovered from ``beta``."""
        P, M = self.P, self.means
        year = np.zeros((*np.shape(beta)[:-1], self.shares.shape[-1]))
        year[..., self.years] = P[..., -1] - _mv(P[..., cols], beta) if gamma is None else gamma
        out = {"region": M[..., -1] - _mv(M[..., cols], beta) - _mv(self.shares, year)}
        if "year" in self.present:
            year[~self.present["year"]] = math.nan
        out["year"] = year
        return {effect: out[effect] for effect in self.present}


class Absorbed(_Effects):
    """``design`` ready for least squares: its rows with positive integer
    ``weights`` (all rows when None; a CV training split or a bootstrap
    replicate's multiplicities), both fixed effects partialled out exactly
    and the columns scaled by sqrt(weight).

    First each region's weighted mean is subtracted from its rows, except
    the reference region's (its first level with weight): the residual of a
    regression on the non-reference region dummies.  Then the year block is
    eliminated through the partitioned normal equations: with Ẽ the
    region-partialled non-reference year dummies, Ẽ'Ẽ comes from the
    (region, year) counts (``_year_gram``) and Ẽ'Z from per-year sums, and
    row i of Ẽ P is P[t_i] - (shares P)[r_i], so no dummy column is formed.
    By Frisch-Waugh-Lovell, least squares on ``X`` and ``y`` gives the
    dummy-coded coefficients, with and without an intercept, and
    ``effects`` the dummies'.  Columns are partialled one by one, so column
    subsets agree up to rounding.  Levels without weight drop out (``_Effects``).
    Every model ``solve``s from ``triangle``, the R of [X y]'s unpivoted QR.
    """

    def __init__(self, design: DesignMatrix, weights: np.ndarray | None = None):
        self.design = design
        rows = slice(None) if weights is None else np.flatnonzero(weights)
        Z = np.column_stack([design.X[rows], design.y[rows]])
        w = np.ones(len(Z)) if weights is None else weights[rows].astype(float)
        codes = {effect: code[rows] for effect, code in design.fe_codes.items()}
        counts = {effect: np.bincount(code, w, len(design.fe_levels[effect]))
                  for effect, code in codes.items()}
        self.present = present = {effect: N > 0 for effect, N in counts.items()}
        self.years = np.flatnonzero(present.get("year", ()))[1:]
        L, T = (len(present.get(e, ())) for e in ("region", "year"))
        self.means, self.shares = np.zeros((L, Z.shape[1])), np.zeros((L, T))
        self.P, self.null = np.zeros((0, Z.shape[1])), np.zeros((0, 0))

        def sums(code, L):
            return np.column_stack([np.bincount(code, w * z, L) for z in Z.T])

        if L:
            r = codes["region"]
            with np.errstate(invalid="ignore"):
                self.means = sums(r, L) / counts["region"][:, None]
            self.means[np.argmax(self.present["region"])] = 0.0
            Z -= self.means[r]
        if T:
            t = codes["year"]
            C = np.bincount(r * T + t, w, L * T).reshape(L, T) if L else np.zeros((0, T))
            H, self.shares = _year_gram(C, counts.get("region", np.zeros(0)), counts["year"])
            self.H = H[np.ix_(self.years, self.years)]
            self.P, self.null = _pinv_solve(self.H, sums(t, T)[self.years], len(Z))
            at = np.zeros((T, Z.shape[1]))
            at[self.years] = self.P
            Z -= at[t]
            if L:
                Z += (self.shares @ at)[r]
        if weights is not None:
            Z *= np.sqrt(w)[:, None]
        self.X, self.y = Z[:, :-1], Z[:, -1]
        self.triangle = np.linalg.qr(Z, mode="r")

    def fit(self, cols):
        """``solve`` of a full-rank model: (coefficients, ``effects``, residuals, the
        parameter count p with the dummies).  n <= p raises, and so does a rank
        deficiency, naming the columns."""
        n, p = len(self.X), len(cols) + self.design.p - self.X.shape[1]
        if n <= p:
            raise ValueError(f"need more rows than columns to fit (n={n}, p={p})")
        theta, dependent, effects = self.solve(cols)
        if dependent.size:
            raise RankDeficientError(self.design.column_names[j] for j in dependent)
        return theta, effects, self.y - self.X @ theta, p

    def solve(self, cols: Sequence[int]):
        """Least squares on the ``X`` columns ``cols``: (coefficients over every
        column of ``X``, 0 outside ``cols``, the dependent columns as design
        positions, ``effects``).

        The model's triangle T is that of the QR of ``triangle``'s columns
        ``cols`` and y, a (k+1) x (|cols|+1) problem that in exact arithmetic
        gives [X_cols y]'s, and the pivoting runs on T (``_pivoted_triangle``).
        The one rank rule: a pivot at most the first times max(n, p) eps is
        dependent, n the rows and p the model's columns, dummies included.
        The dependent columns are those pivoted out, or the year dummies when
        the year effect is collinear with the region effect, never a region
        dummy.  A full-rank fit solves the triangle; any other moves the basic
        solution within the null space of the full dummy design to the least
        |beta|^2 + |alpha|^2 + |gamma|^2, the effects' norms included."""
        cols, k, design = list(cols), len(cols), self.design
        n, p = len(self.X), k + design.p - self.X.shape[1]
        T = np.linalg.qr(self.triangle[:, cols + [-1]], mode="r")[:k]
        T = np.pad(T, ((0, k - len(T)), (0, 0)))  # a view of fewer than k + 1 rows
        R, piv = _pivoted_triangle(T)
        diag = np.abs(np.diag(R))
        rank = int(np.sum(diag > diag[:1].sum() * max(n, p) * np.finfo(float).eps))
        beta = np.zeros(k)
        beta[piv[:rank]] = np.linalg.solve(R[:rank, :rank], R[:rank, k])
        dependent = np.asarray(cols, dtype=int)[piv[rank:]]
        if self.null.size:
            # pivot a square root of the year block, its null space exactly zero
            lam, V = np.linalg.eigh(self.H)  # ascending: the null space comes first
            lam[: self.null.shape[1]] = 0.0
            years = _pivoted_triangle(np.column_stack([np.sqrt(lam)[:, None] * V.T, lam * 0.0]))[1]
            dependent = design.fe_slots["year"].start - 1 + self.years[years[-self.null.shape[1]:]]
        theta = np.zeros(self.X.shape[1])
        if not dependent.size:
            theta[cols] = beta
            return theta, dependent, self.effects(cols, beta)
        # the null directions of the full design in the coordinates (beta,
        # gamma): (v, -P v) for v in the null space of the partialled
        # columns, (0, u) for u in that of the year block; and in (beta,
        # alpha of the regions with weight, gamma), with alpha's rows
        # -means v - shares gamma
        v = np.linalg.svd(T[:, :k])[2][rank:].T
        Pc, seen = self.P[:, cols], np.flatnonzero(~np.isnan(self.means[:, -1]))
        S, M = self.shares[np.ix_(seen, self.years)], self.means[seen]
        B = np.block([[v, np.zeros((k, self.null.shape[1]))], [-Pc @ v, self.null]])
        N = np.vstack([B[:k], -M[:, cols] @ B[:k] - S @ B[k:], B[k:]])
        gamma = self.P[:, -1] - Pc @ beta
        sol = np.concatenate([beta, M[:, -1] - M[:, cols] @ beta - S @ gamma, gamma])
        sol -= N @ np.linalg.lstsq(N, sol, rcond=None)[0]
        theta[cols] = sol[:k]
        return theta, dependent, self.effects(cols, sol[:k], sol[k + len(seen):])


# A fit comes from the Gram only when Cholesky of the equilibrated Gram less
# tau I succeeds, which certifies its smallest eigenvalue above tau: tau is
# _PIVOT_MIN (the normal equations then lose little precision) or, if larger,
# (k eps max(n, k))^2 times _RANK_MARGIN times the spread of the squared column
# norms.  The rows' rank rule (``Absorbed.solve``) calls a pivot dependent at
# most the first, the largest norm, times max(n, p) eps; every pivot is at least
# the smallest singular value, whose square is at least the smallest eigenvalue
# times the smallest squared norm, so tau stays above that rule's bound, (max(n,
# p) eps)^2 times the spread, when 100 k n >= p.  The year block must pass too.
# Other fits use the rows, as do all when G (k + 1 + T) > _MOMENT_RATIO n,
# where the moments would outgrow the rows.  _BLOCK_FLOATS bounds a block's
# temporaries.
_PIVOT_MIN, _RANK_MARGIN, _MOMENT_RATIO, _BLOCK_FLOATS = 1e-7, 1e4, 8, 2 ** 18
_PAIR_BLOCK = 256  # (region, cluster) pairs per block of the sandwich's gathers


class ClusterMoments:
    """What a weighted, absorbed least-squares fit of ``design`` depends on
    when each row weighs its group's weight, the groups ``row_cluster``'s
    codes: a bootstrap replicate's clusters, or the K folds of CV, whose
    training splits weigh the folds 0/1 (Roodman, Nielsen, MacKinnon & Webb
    2019; MacKinnon 2023).  For Z = [X y]: per group g the Gram A_g,
    per (region, group) pair the sums s_rc and counts n_rc, per (group,
    year) the sums y_gt and counts, and each (region, year) cell's group.
    Under weights w, with S_r = sum_c w_c s_rc and N_r = sum_c w_c n_rc,
    the region-partialled Gram is sum_g w_g A_g - sum_{r != ref} S_r
    S_r'/N_r, with Z centred at the regions' full-sample means so that the
    subtraction cancels little.  The year block is eliminated from it as in
    ``Absorbed``, its per-year sums F_t = sum_g w_g y_gt less the cells'
    weighted counts times the region means.  The moments are built here; Z
    is not kept.  ``weighted(W)`` stacks the views of the rows of W
    (``_Views``).  Each entry of the Gram depends on its two columns alone,
    so a view solves a column subset from a sub-block, as a build on those
    columns would up to rounding.
    """

    def __init__(self, design: DesignMatrix, row_cluster: np.ndarray):
        self.design, self.row_cluster, self.G = design, row_cluster, int(row_cluster.max()) + 1
        G, k1, codes = self.G, design.X.shape[1] + 1, design.fe_codes
        L, T = (len(design.fe_levels.get(effect, ())) for effect in ("region", "year"))
        self.sizes, self.block, self.center = np.bincount(row_cluster), 1, None
        self.rows_only = G * (k1 + T) > _MOMENT_RATIO * design.n
        if self.rows_only:
            return
        Z, floats = np.column_stack([design.X, design.y]), G + k1 * k1
        if L:
            code = codes["region"]
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
            floats += self.pair_counts.size * (k1 + 1) + L * (k1 + T)
            del sums  # up to n x k1, as large as Z: free it before the Grams are built
        if T:
            at = row_cluster * T + codes["year"]
            self.year_counts = np.bincount(at, minlength=G * T).reshape(G, T).astype(float)
            self.year_sums = np.column_stack([np.bincount(at, z, G * T) for z in Z.T]).reshape(G, -1)
            self.cell_cluster = np.full((L, T), G)  # no rows without a region effect
            if L:
                self.cell_cluster[code, codes["year"]] = row_cluster
            floats += T * (k1 + T + 1)
        Z, self.block = Z[np.argsort(row_cluster, kind="stable")], max(1, _BLOCK_FLOATS // floats)
        # the clusters of one size in one stacked product
        self.grams, starts = np.empty((G, k1 * k1)), np.cumsum(self.sizes) - self.sizes
        for size in np.unique(self.sizes):
            rows = Z[starts[self.sizes == size, None] + np.arange(size)]
            self.grams[self.sizes == size] = (rows.transpose(0, 2, 1) @ rows).reshape(-1, k1 * k1)

    def weighted(self, W) -> "_Views":
        """Every row of the cluster weights ``W`` in one stack of views; callers choose how many."""
        return _Views(self, np.asarray(W, dtype=float).reshape(-1, self.G))


def _gram_accepted(A: np.ndarray, spread, n) -> np.ndarray:
    """Whether each equilibrated (unit-diagonal) Gram of the stack ``A``, of ``n``
    weighted rows whose squared column norms spread by the ratio ``spread``, is
    well inside full rank: one stacked Cholesky, rerun Gram by Gram if it fails."""
    k = A.shape[-1]
    tau = np.maximum(_PIVOT_MIN, _RANK_MARGIN * (k * np.finfo(float).eps * n) ** 2 * spread)
    shifted = A - np.multiply.outer(tau, np.eye(k))
    try:
        np.linalg.cholesky(shifted)
        return np.ones(shifted.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        return A.ndim > 2 and np.array([_gram_accepted(*one) for one in zip(A, spread, n)], bool)


def _equilibrated(A: np.ndarray):
    """Per Gram of the stack ``A``: (it scaled to a unit diagonal, the square roots and
    the spread of its diagonal, whether that is positive, else the rest is void)."""
    d = np.diagonal(A, axis1=-2, axis2=-1)
    fine = (d > 0.0).all(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(d)
        return A / root[..., None, :] / root[..., None], root, d.max(-1) / d.min(-1), fine


class _Views(_Effects):
    """``ClusterMoments`` under each row of the cluster weights ``W``: one stack
    of fit views and their ``_Effects``, ``present`` as ``Absorbed``'s per view.
    Each view's year block is padded to every year level: a year it does not
    keep (its reference, or one without weight) has a zero row of F, and in H
    a diagonal entry alone, the kept block's largest, so the acceptance test
    sees the kept block's eigenvalues (and 1s) and its spread.  LU never
    pivots on nor eliminates through such a row: its row of P is exactly 0.
    A view's weighted sums are products of their own, as BLAS rounds a row of
    a stacked product by the stack, but a stacked matmul or LAPACK call rounds
    each matrix alone: no number of a view depends on its stack.  A view whose
    year block fails the acceptance test solves from the rows."""

    def __init__(self, moments: ClusterMoments, W: np.ndarray):
        design, B, self.rows = moments.design, len(W), {}
        self.moments, self.W, self.ok = moments, W, np.zeros(B, dtype=bool)
        self.n, k1, codes = (W > 0) @ moments.sizes, design.X.shape[1] + 1, design.fe_codes
        if moments.rows_only:
            self.rows = {i: Absorbed(design, w[moments.row_cluster]) for i, w in enumerate(W)}
            self.present = {e: np.array([r.present[e] for r in self.rows.values()]) for e in codes}
            return
        gram = np.matmul(W[:, None], moments.grams)[:, 0].reshape(B, k1, k1)
        Wp = np.hstack([W, np.zeros((B, 1))])
        present, N, means, shift = {}, np.zeros((B, 0)), np.zeros((B, 0, k1)), np.zeros((B, 0, k1))
        if moments.center is not None:
            Wr = np.take(Wp, moments.pair_cluster, axis=1)
            N = np.einsum("blt,lt->bl", Wr, moments.pair_counts)
            S = np.matmul(Wr[:, :, None], moments.pair_sums)[:, :, 0]
            seen = present["region"] = N > 0
            b, ref = np.arange(B), np.argmax(seen, axis=1)
            root = S / np.sqrt(np.where(seen, N, 1.0))[..., None]
            gram -= root.swapaxes(1, 2) @ root
            # the reference region is not demeaned: its term takes its sum about 0, S + N c
            raw = (S[b, ref] + N[b, ref, None] * moments.center[ref]) / np.sqrt(N[b, ref, None])
            gram += raw[:, :, None] * raw[:, None, :]
            with np.errstate(invalid="ignore"):
                means = moments.center + S / N[..., None]
                shift = np.where(seen[..., None], S / N[..., None], 0.0)  # demeaned Z less centred Z
            means[b, ref], shift[b, ref] = 0.0, -moments.center[ref]
        self.ok[:], P, shares = True, np.zeros((B, 0, k1)), np.zeros((B, N.shape[1], 0))
        if "year" in codes:
            N_t = np.matmul(W[:, None], moments.year_counts)[:, 0]
            F = np.matmul(W[:, None], moments.year_sums)[:, 0].reshape(B, -1, k1)
            present["year"] = N_t > 0
            # every year with weight but the first, the reference
            kept = present["year"] & (np.cumsum(present["year"], axis=1) > 1)
            C = np.take(Wp, moments.cell_cluster, axis=1)
            H, shares = _year_gram(C, N, N_t)
            F -= C.swapaxes(1, 2) @ shift
            pad = np.max(np.diagonal(H, axis1=1, axis2=2), axis=1, where=kept, initial=0.0)
            v, t = np.nonzero(~kept)
            F[v, t], H[v, t], H[v, :, t] = 0.0, 0.0, 0.0
            H[v, t, t] = np.where(pad > 0.0, pad, 1.0)[v]  # 1 when no year is kept
            A, _, spread, self.ok = _equilibrated(H)
            self.ok[self.ok] = _gram_accepted(A[self.ok], spread[self.ok], self.n[self.ok])
            H[~self.ok] = np.eye(H.shape[1])  # a failed view solves from its rows: keep LU off it
            P = np.linalg.solve(H, F)
            gram -= F.swapaxes(1, 2) @ P
        self.present, self.years = present, np.arange(P.shape[1])
        self.means, self.shares, self.P = means, shares, P
        self.gram = 0.5 * (gram + gram.swapaxes(1, 2)) if "year" in codes else gram

    def solve(self, cols: Sequence[int]):
        """``Absorbed.solve`` of every view, stacked over the views.  A view whose
        Gram is not well inside full rank solves from its rows, built once."""
        cols, B, design = list(cols), len(self.W), self.moments.design
        beta, deficient = np.zeros((B, len(cols))), np.zeros(B, dtype=bool)
        solved = self.ok & bool(cols)
        if solved.any():
            gram = self.gram[solved]
            A, root, spread, fine = _equilibrated(gram[:, np.array(cols)[:, None], cols])
            fine[fine] = _gram_accepted(A[fine], spread[fine],
                                        np.maximum(self.n[solved][fine], len(cols)))
            solved[solved], root = fine, root[fine]
            rhs = gram[fine][:, cols, -1] / root
            beta[solved] = np.linalg.solve(A[fine], rhs[..., None])[..., 0] / root
        effects = self.effects(cols, beta) if solved.any() else {
            e: np.zeros((B, len(design.fe_levels[e]))) for e in self.present}
        theta = np.zeros((B, design.X.shape[1]))
        theta[:, cols] = beta
        for i in np.flatnonzero(~solved):
            if i not in self.rows:
                self.rows[i] = Absorbed(design, self.W[i][self.moments.row_cluster])
            theta[i], dependent, fixed = self.rows[i].solve(cols)
            deficient[i] = dependent.size > 0
            for effect, values in fixed.items():
                effects[effect][i] = values
        return theta, deficient, effects


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
    """Least squares on the term columns with both effects partialled out
    (``Absorbed.fit``, as every IC model), the effects recovered from the
    coefficients."""
    fe = Absorbed(design)
    theta, effects, residuals, p = fe.fit(range(design.X.shape[1]))
    beta = np.concatenate([theta, *(values[1:] for values in effects.values())])
    ssr = float(residuals @ residuals)
    # R^2 is centred when the design has an intercept or any dummy (p > k)
    centered = p > len(theta) or any(lab.kind == "intercept" for lab in design.column_labels)
    dev = design.y - design.y.mean() if centered else design.y
    sst = float(dev @ dev)
    if sst == 0.0:
        warnings.warn("total sum of squares is zero; defining R^2 = 0")
        r2 = 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ssr / sst))
    return FitResult(beta=beta, residuals=residuals, r_squared=r2, absorbed=fe)


def cluster_influence(fit: FitResult, codes: np.ndarray, G: int):
    """The influence of each cluster of the row ``codes``, in [0, G), on the fit's
    coefficients, linear in the rows: a coarser partition's is the sum of its
    clusters'.  On the fit's partialled columns X~ (``fit.absorbed``), cluster g's
    influence on the term coefficients is J_g = R^-1 R^-T X~_g' r_g, R X~'s block of
    ``fit.absorbed.triangle``: no second factorization, and no X~'X~ to square cond(X~).  On the
    year effects gamma = P_y - P_X beta it is H^-1 Ẽ_g' r_g - P_X J_g, with Ẽ_g' r_g
    its per-year residual sums less its regions' shares of them.  Region r's row
    of the estimator's linear map is 1_r'/n_r - m_r' [J; gamma's], so g's
    influence on the region's effect is a_rg - m_r' J_g, a_rg the sum of g's
    residuals in region r over n_r.  Returns J (G, k + T - 1, design order), each
    (region, cluster) pair with rows, its a_rg, and every region's m_r."""
    if len(codes) != fit.n:
        raise ValueError("fit and clusters disagree on the row count")
    fe, design = fit.absorbed, fit.design
    X, e, g, k = fe.X, fit.residuals, codes, fe.X.shape[1]
    R_inv = np.linalg.solve(fe.triangle[:k, :k], np.eye(k))  # LU of a triangle: back substitution
    J = np.array([np.bincount(g, x * e, G) for x in X.T]).reshape(k, G).T @ R_inv @ R_inv.T
    L, T = fe.shares.shape
    r, pair_g, a = np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    if L:
        code = design.fe_codes["region"]
        pairs, at = np.unique(code * G + g, return_inverse=True)
        r, pair_g = np.divmod(pairs, G)
        sums = np.bincount(at, e)
        a = sums / np.bincount(code)[r]
    if T:
        Ee = np.bincount(g * T + design.fe_codes["year"], e, G * T).reshape(G, T)[:, fe.years]
        if L:
            Ee -= np.column_stack([np.bincount(pair_g, sums * s[r], G)
                                   for s in fe.shares[:, fe.years].T])
        J = np.hstack([J, np.linalg.solve(fe.H, Ee.T).T - J @ fe.P[:, :k].T])
    return J, r, pair_g, a, np.hstack([fe.means[:, :k], fe.shares[:, fe.years]])


def clustered_cov(fit: FitResult, clusters: ClusterAssignment,
                  correction: str = "CR1") -> CovarianceEstimate:
    """Clustered sandwich covariance of the coefficient estimator, the Gram of the
    clusters' influence J (``cluster_influence``): J'J for the term and year
    columns, and for a region dummy its variance alone, sum_g (a_rg - m_r' J_g)^2
    (``CovarianceEstimate``).  A region variance whose square root is at most
    n eps max|residual| is roundoff of a structural zero and set to 0.

    With singleton clusters and CR0 this coincides with the HC0
    heteroskedasticity-robust estimator.  G = 1 is degenerate (the score sums
    to ~0 by orthogonality): a warning is emitted and, since the CR1 factor
    is undefined there, no small-sample correction is applied.
    """
    check_correction(correction)
    (n, k), p, e, G = fit.design.X.shape, fit.p, fit.residuals, clusters.n_clusters
    if G == 1:
        warnings.warn(f"G=1 degenerate clustering under the {clusters.scheme.label} scheme: "
                      "covariance collapses to ~0")
    elif G < FEW_CLUSTERS_THRESHOLD:
        warnings.warn(f"only G={G} clusters under the {clusters.scheme.label} scheme; "
                      "uncertainty estimates may be unreliable")
    J, r, pair_g, a, means = cluster_influence(fit, clusters.row_cluster, G)

    def corrected(m):
        return m * (G / (G - 1.0)) * ((n - 1.0) / (n - p)) if correction == "CR1" and G > 1 else m

    cov = corrected(J.T @ J)
    cov = 0.5 * (cov + cov.T)
    variances = np.diag(cov)
    if len(means):
        # sum_g (a_rg - c_rg)^2 with c_rg = m_r' J_g, as squares: over the
        # (region, cluster) pairs with rows directly, and over the other
        # clusters, where a_rg = 0, as sum_g c_rg^2 (= ||R m_r||^2 for J = QR)
        # less the pairs' share; c is gathered _PAIR_BLOCK pairs at a time
        c = np.concatenate([np.einsum("ij,ij->i", means[r[b:b + _PAIR_BLOCK]],
                                      J[pair_g[b:b + _PAIR_BLOCK]])
                            for b in range(0, len(r), _PAIR_BLOCK)])
        unpaired = np.square(means @ np.linalg.qr(J, mode="r").T).sum(axis=1)
        unpaired -= np.bincount(r, c * c, len(means))
        var = corrected(np.bincount(r, np.square(a - c), len(means)) + np.maximum(unpaired, 0.0))
        var[np.sqrt(var) <= n * np.finfo(float).eps * np.abs(e).max()] = 0.0
        variances = np.concatenate([variances[:k], var[1:], variances[k:]])  # design order
    return CovarianceEstimate(cov, variances, clusters.scheme, correction, G)


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

    Solved for whichever of P(|T| <= t) = level and P(|T| > t) = 1 - level is
    at most one half; both targets are exact (1 - level by Sterbenz), so the
    smaller probability keeps its relative accuracy.  With f the density
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
    nu, upper = G - 1, level > 0.5
    target = 1.0 - level if upper else level
    if nu == 1:
        q = math.tan(math.pi / 2.0 * target)
        return 1.0 / q if upper else q
    if nu == 2:
        return level / math.sqrt((1.0 + level) * (1.0 - level) / 2.0)
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


class Readout(NamedTuple):
    """Per entry of a read-out: its estimate, standard error and two-sided interval."""

    estimate: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def readout(estimate: np.ndarray, variance: np.ndarray, G: int, level: float) -> Readout:
    """The one interval rule: SE = sqrt(variance), 0 where rounding left the
    variance negative, and estimate -+ t SE, t the two-sided ``level`` quantile
    of Student t on G - 1 degrees of freedom (``_t_quantile``)."""
    se = np.sqrt(np.maximum(variance, 0.0))
    half = _t_quantile(level, G) * se
    return Readout(estimate, se, estimate - half, estimate + half)


def confidence_intervals(
    fit: FitResult, cov: CovarianceEstimate, level: float = 0.95
) -> Readout:
    """Every coefficient's ``readout`` at the two-sided ``level``, in design order;
    a variance that is not positive is an error."""
    out = cov.read(fit.beta, cov.variances, level)
    bad = [fit.design.column_names[j] for j in np.flatnonzero(cov.variances <= 0)]
    if bad:
        raise ValueError(f"nonpositive variance for columns {bad} under the "
                         f"{cov.scheme.label} scheme")
    return out


def linear_readout(fit: FitResult, cov: CovarianceEstimate, A: np.ndarray,
                   level: float = 0.95) -> Readout:
    """The ``readout`` of the contrasts a @ beta, one per row a of the (m, p) ``A``
    in design order.  A row's estimate is its own dot product and its variance
    a' V a over its own nonzero columns, V their block of ``cov.cov``; that holds
    no region block, so a row that reads a region column is an error."""
    A, design = np.atleast_2d(np.asarray(A, dtype=float)), fit.design
    if A.shape[1] != fit.p:
        raise ValueError(f"contrasts have {A.shape[1]} columns; the design has {fit.p}")
    region = np.isin(np.arange(fit.p), design.fe_slots.get("region", ()))
    bad = [design.column_names[j] for j in np.flatnonzero(region & (A != 0).any(axis=0))]
    if bad:
        raise ValueError(f"contrasts read region columns {bad}; cov.cov has no region block")
    at, var = np.cumsum(~region) - 1, np.empty(len(A))  # cov.cov's column of each other column
    for i, a in enumerate(A):
        nz = np.flatnonzero(a)
        var[i] = a[nz] @ cov.cov[np.ix_(at[nz], at[nz])] @ a[nz]
    return cov.read(np.array([a @ fit.beta for a in A]), var, level)


@dataclass(frozen=True)
class ResponseCurve:
    """A term's cumulative effect at lags 0..horizon: entry l of each array of
    ``points`` is lag l's."""

    term: str
    moderator: str | None
    moderator_value: float
    level: float
    points: Readout


def term_response_curve(
    fit: FitResult,
    cov: CovarianceEstimate,
    term: TermSpec,
    moderator_value: float = 0.0,
    horizon: int | None = None,
    level: float = 0.95,
) -> ResponseCurve:
    """Cumulative per-lag effect of a term with a clustered CI band.

    effect(l) = sum_{j<=l} (beta_base_j + moderator_value * beta_inter_j), the
    ``linear_readout`` of a lower-triangular cumulative contrast matrix.
    """
    lbl = term_label(term)
    base_cols, inter_cols = ({lab.lag: j for j, lab in enumerate(fit.design.column_labels)
                              if lab.kind == kind and lab.term == lbl
                              and lab.moderator == term.moderator}
                             for kind in ("base", "interaction"))
    if not base_cols:
        raise ValueError(f"term {lbl!r} not in the fitted model")
    max_present = max(base_cols)
    horizon = max_present if horizon is None else horizon
    if not 0 <= horizon <= max_present:
        raise ValueError(f"horizon {horizon} outside the fitted lags 0..{max_present}")
    lags, steps = range(horizon + 1), np.tri(horizon + 1)
    A = np.zeros((horizon + 1, fit.p))
    A[:, [base_cols[lag] for lag in lags]] = steps
    if inter_cols:
        A[:, [inter_cols[lag] for lag in lags]] = moderator_value * steps
    return ResponseCurve(term=lbl, moderator=term.moderator, moderator_value=moderator_value,
                         level=level, points=linear_readout(fit, cov, A, level))
