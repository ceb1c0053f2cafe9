"""Synthetic panel generators and Monte Carlo studies of interval validity.

The generator plants shared components with variance-share weights so the
implied pairwise correlations are analytic: a component shared at level L
with weight w gives correlation w between any two observations in the same
L cell.  Defaults: predictor shared within region (high temporal, low
spatial correlation), noise shared within year (high spatial, low temporal
correlation).

The studies run every replication through one batched kernel, its streams
seeded together: a block of replications gets the fields of
``generate_panel(config, (seed, rep))`` from one draw call each, is fitted in
closed form at once, and each scheme's sandwich sums scores over rows sorted
by one panel's clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .panel import (
    ClusterAssignment,
    ClusterScheme,
    ModelSpec,
    PanelDataset,
    TermSpec,
    assign_clusters,
    build_design,
    check_correction,
    check_level,
)
from .bootstrap import _replicate_streams, check_seed
from .regression import readout

_SHARING_LEVELS = ("region", "year", "country_year")

SLOPE_SPEC = ModelSpec(
    terms=(TermSpec(variable="x", differenced=False, max_lag=0),),
    fixed_effects=(),
    intercept=True,
)


@dataclass(frozen=True)
class DgpConfig:
    """Synthetic panel configuration.

    ``predictor_shared_weight`` / ``noise_shared_weight`` are the variance
    shares of the shared components; the implied pairwise correlation within
    a sharing cell equals the weight.  ``predictor_spatial_weight`` adds a
    second, within-year shared component to the predictor (its "low but
    nonzero spatial correlation"); without it the slope scores are exactly
    uncorrelated and every clustering scheme covers equally well.
    ``countries`` splits regions into that many contiguous country blocks
    (None = one country), which matters for the "country_year" sharing level
    and the country-keyed cluster schemes.
    """

    n_regions: int
    n_years: int
    beta_true: float = 1.0
    predictor_shared_weight: float = 0.9
    noise_shared_weight: float = 0.9
    noise_scale: float = 1.0
    countries: int | None = None
    predictor_sharing: str = "region"
    noise_sharing: str = "year"
    predictor_spatial_weight: float = 0.0
    with_centroids: bool = True

    def __post_init__(self):
        if self.n_regions < 2 or self.n_years < 2:
            raise ValueError("need at least 2 regions and 2 years")
        for name in ("predictor_shared_weight", "noise_shared_weight", "predictor_spatial_weight"):
            w = getattr(self, name)
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {w}")
        if self.predictor_shared_weight + self.predictor_spatial_weight > 1.0:
            raise ValueError("predictor component weights exceed 1")
        if self.predictor_spatial_weight > 0.0 and self.predictor_sharing == "year":
            raise ValueError(
                "predictor_spatial_weight duplicates a 'year' predictor_sharing component"
            )
        for name in ("beta_true", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_scale <= 0:
            raise ValueError(f"noise_scale must be positive, got {self.noise_scale}")
        if self.countries is not None and not 1 <= self.countries <= self.n_regions:
            raise ValueError("countries must be between 1 and n_regions")
        for name in ("predictor_sharing", "noise_sharing"):
            if getattr(self, name) not in _SHARING_LEVELS:
                raise ValueError(f"{name} must be one of {_SHARING_LEVELS}")

    @property
    def n_countries(self) -> int:
        return self.countries if self.countries is not None else 1


def _draw_fields(config: DgpConfig, streams, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y as (rows, n_regions, n_years) grids, one per generator taken from ``streams``.

    Each row's generator fills its row of the draws in one call, laid out in
    the fixed order shared_x, optional spatial_x, idio_x, shared_e, idio_e;
    one call of m normals gives the values of consecutive calls summing to m.
    """
    R, T, C = config.n_regions, config.n_years, config.n_countries
    wx, wxs = config.predictor_shared_weight, config.predictor_spatial_weight
    we = config.noise_shared_weight
    shapes = {"region": (R, 1), "year": (1, T), "country_year": (C, T), "idio": (R, T)}
    spatial = ["year"] if wxs > 0.0 else []
    order = [config.predictor_sharing, *spatial, "idio", config.noise_sharing, "idio"]
    sizes = [math.prod(shapes[part]) for part in order]
    draws = np.empty((rows, sum(sizes)))
    for row, gen in zip(draws, streams):  # takes no generator past the last row
        gen.standard_normal(out=row)
    rows = {"country_year": np.arange(R) * C // R}  # contiguous country blocks
    fields = iter(block.reshape(-1, *shapes[part])[:, rows.get(part, slice(None))]
                  for block, part in zip(np.split(draws, np.cumsum(sizes)[:-1], axis=1), order))
    shared_x = next(fields)
    spatial_x = next(fields) if wxs > 0.0 else 0.0
    idio_x = next(fields)
    # weights summing to 1 can leave 1 - wx - wxs at -3e-17: no idiosyncratic part
    idio_w = max(0.0, 1.0 - wx - wxs)
    x = math.sqrt(wx) * shared_x + math.sqrt(wxs) * spatial_x + math.sqrt(idio_w) * idio_x
    shared_e, idio_e = fields
    e = config.noise_scale * (math.sqrt(we) * shared_e + math.sqrt(1.0 - we) * idio_e)
    return x, config.beta_true * x + e


def _dataset(config: DgpConfig, x: np.ndarray, y: np.ndarray) -> PanelDataset:
    """The panel of (n_regions, n_years) grids ``x`` and ``y``, unchecked: the zero-padded
    region names sort in row order, each region has one country and every centroid is in range."""
    R, T = config.n_regions, config.n_years
    country_of = np.arange(R) * config.n_countries // R
    region_width, country_width = max(3, len(str(R - 1))), max(2, len(str(config.n_countries - 1)))
    centroids = np.full((R, 2), math.nan)
    if config.with_centroids:
        # deterministic synthetic geography: countries along the equator,
        # regions spread around their country's center, wrapped into [-180, 180)
        within = np.arange(R) - np.searchsorted(country_of, country_of, side="left")
        lon = -170.0 + 24.0 * (country_of % 15) + 2.0 * (within // 11)
        centroids = np.column_stack([-10.0 + 2.0 * (within % 11), (lon + 180.0) % 360.0 - 180.0])
    return PanelDataset._from_grids(
        [f"R{i:0{region_width}d}" for i in range(R)],
        [f"C{c:0{country_width}d}" for c in country_of],
        2000, np.ones((R, T), dtype=bool), y, {"x": x}, {}, centroids, (frozenset(),) * R)


def generate_panel(config: DgpConfig, seed) -> PanelDataset:
    """Generate y = beta_true * x + e with the configured shared components.

    x = sqrt(w_p) * shared_x [+ sqrt(w_s) * year_shared_x] + sqrt(1 - w_p - w_s) * idio;
    e = noise_scale * (sqrt(w_e) * shared_e + sqrt(1 - w_e) * idio).
    Draw order is fixed (shared_x, optional spatial_x, idio_x, shared_e,
    idio_e) so results are reproducible from (config, seed), a non-negative
    int or a tuple of them: the draws of ``np.random.default_rng(seed)``.
    """
    x, y = _draw_fields(config, _replicate_streams(seed), 1)
    return _dataset(config, x[0], y[0])


# panel cells (replications x rows) fitted at once, one replication at
# least: the kernel's arrays stay near 64 KB at any study size, small enough
# for the allocator to reuse, and blocks this small run no slower
_BLOCK_CELLS = 1 << 13


def _scheme_clusters(config: DgpConfig, schemes) -> list[ClusterAssignment]:
    """Each scheme's clusters of the rows every replication shares.  A scheme
    that cannot give intervals (a column the panel lacks, G < 2) fails here."""
    zeros = np.zeros((config.n_regions, config.n_years))
    design = build_design(_dataset(config, zeros, zeros), SLOPE_SPEC)
    assignments = []
    for scheme in schemes:
        try:
            clusters = assign_clusters(design, scheme)
        except ValueError as exc:
            raise ValueError(f"scheme {scheme.label!r} cannot cluster the simulated panel: {exc}")
        if clusters.n_clusters < 2:
            raise ValueError(f"scheme {scheme.label!r} has G={clusters.n_clusters} on the "
                             "simulated panel; intervals need at least 2 clusters")
        assignments.append(clusters)
    return assignments


def _slope_sandwiches(config: DgpConfig, seed: int, reps: int, assignments, correction: str):
    """The (reps,) slope estimates and the (schemes, reps, 2) sandwich
    variances, intercept then slope, of intercept + x on every replication.

    Both are NaN where the design is rank deficient by ``ols_fit``'s pivoted
    QR rule: the pivots are R11 = max(sqrt(n), |x|) and sqrt(n Sxx) / R11,
    and the second must exceed R11 n eps.  The estimator's linear map has
    rows a_i = (x_i - xbar) / Sxx (slope) and 1/n - xbar a_i (intercept), so
    a variance is the sum over clusters of (sum_i a_i r_i)^2, times
    G/(G-1) (n-1)/(n-2) under CR1.
    """
    n = config.n_regions * config.n_years
    slope = np.full(reps, math.nan)
    variances = np.full((len(assignments), reps, 2), math.nan)
    sorted_rows = [(np.argsort(c.row_cluster, kind="stable"), np.cumsum(c.sizes) - c.sizes)
                   for c in assignments]
    block, streams = max(1, _BLOCK_CELLS // n), _replicate_streams(seed, range(reps))
    for start in range(0, reps, block):
        stop = min(reps, start + block)
        x, y = _draw_fields(config, streams, stop - start)
        x, y = x.reshape(-1, n), y.reshape(-1, n)
        xbar = x.mean(axis=1, keepdims=True)
        xc, yc = x - xbar, y - y.mean(axis=1, keepdims=True)
        sxx = np.einsum("ij,ij->i", xc, xc)
        r11_sq = np.maximum(n, np.einsum("ij,ij->i", x, x))
        fitted = np.sqrt(n * sxx) > r11_sq * n * np.finfo(float).eps
        a = xc / np.where(fitted, sxx, 1.0)[:, None]
        b = np.einsum("ij,ij->i", a, yc)
        r = yc - b[:, None] * xc
        scores = np.stack([(1.0 / n - xbar * a) * r, a * r])
        slope[start:stop] = np.where(fitted, b, math.nan)
        for var, (order, starts) in zip(variances, sorted_rows):
            s = np.add.reduceat(scores[:, :, order], starts, axis=2)
            var[start:stop] = np.where(fitted[:, None], np.einsum("kig,kig->ik", s, s), math.nan)
    if correction == "CR1":
        G = np.array([c.n_clusters for c in assignments], dtype=float)
        variances *= (G / (G - 1.0) * ((n - 1.0) / (n - 2.0)))[:, None, None]
    return slope, variances


# ---------------------------------------------------------------------------
# Coverage study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    scheme: str
    nominal_level: float
    coverage: float
    mean_ci_width: float
    replications: int
    failed: int


@dataclass(frozen=True)
class CoverageReport:
    rows: tuple[CoverageRow, ...]
    config: DgpConfig
    seed: int
    correction: str


def coverage_study(config: DgpConfig, schemes: list[ClusterScheme], reps: int,
                   level: float = 0.95, seed: int = 0, correction: str = "CR1") -> CoverageReport:
    """Empirical coverage of the slope CI per clustering scheme.

    Replication ``rep`` fits intercept + x to ``generate_panel(config,
    (seed, rep))`` and checks whether each scheme's t interval (G-1 degrees of
    freedom) covers the true slope.  A bad level, correction or scheme fails
    the study up front.  A replication fails under a scheme when its design
    is rank deficient or that scheme's variance of either coefficient is not
    positive, and counts under the others.
    """
    check_seed(seed)
    if reps < 100:
        raise ValueError(f"coverage study needs at least 100 replications, got {reps}")
    check_level(level)
    check_correction(correction)
    assignments = _scheme_clusters(config, schemes)
    slope, variances = _slope_sandwiches(config, seed, reps, assignments, correction)

    rows = []
    for scheme, clusters, var in zip(schemes, assignments, variances):
        usable = (var > 0.0).all(axis=1)  # False for NaN: rank-deficient replications
        _, _, lo, hi = readout(slope[usable], var[usable, 1], clusters.n_clusters, level)
        hits = (lo <= config.beta_true) & (config.beta_true <= hi)
        coverage, width = (float(np.mean(hits)), float(np.mean(hi - lo))) if hits.size else (
            math.nan, math.nan)
        rows.append(CoverageRow(scheme.label, level, coverage, width, int(hits.size),
                                reps - int(hits.size)))
    return CoverageReport(rows=tuple(rows), config=config, seed=seed, correction=correction)


# ---------------------------------------------------------------------------
# Bias study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiasReport:
    scheme: str
    mean_estimated_variance: float
    empirical_variance: float
    ratio: float
    replications: int
    correction: str


def bias_study(config: DgpConfig, scheme: ClusterScheme, reps: int, seed: int = 0,
               correction: str = "CR0") -> BiasReport:
    """Mean clustered variance estimate of the slope vs. its Monte Carlo variance.

    Contract: iid errors, i.e. noise_shared_weight must be 0.  Replications
    are fitted as in ``coverage_study``; the report has no failure count, so
    a rank-deficient replication fails the study.
    """
    check_seed(seed)
    if config.noise_shared_weight != 0.0:
        raise ValueError("bias study requires iid errors (noise_shared_weight = 0)")
    if reps < 500:
        raise ValueError(f"bias study needs at least 500 replications, got {reps}")
    check_correction(correction)
    slope, variances = _slope_sandwiches(config, seed, reps, _scheme_clusters(config, [scheme]),
                                         correction)
    if np.isnan(slope).any():
        raise ValueError(f"{int(np.isnan(slope).sum())} replications have a rank-deficient design")
    empirical = float(slope.var(ddof=1))
    mean_est = float(variances[0, :, 1].mean())
    return BiasReport(scheme.label, mean_est, empirical, mean_est / empirical, reps, correction)
