"""Synthetic panel generators and Monte Carlo studies of interval validity.

The generator plants shared components with variance-share weights so the
implied pairwise correlations are analytic: a component shared at level L
with weight w gives correlation w between any two observations in the same
L cell.  Defaults: predictor shared within region (high temporal, low
spatial correlation), noise shared within year (high spatial, low temporal
correlation).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .panel import (
    ClusterScheme,
    ModelSpec,
    PanelDataset,
    TermSpec,
    assign_clusters,
    build_design,
)
from .regression import (check_correction, check_level, clustered_cov, confidence_intervals,
                         ols_fit)

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


def _shared_field(rng, sharing, n_regions, n_years, country_of):
    """Draw the shared component as an (n_regions, n_years) field."""
    if sharing == "region":
        u = rng.standard_normal(n_regions)
        return np.repeat(u[:, None], n_years, axis=1)
    if sharing == "year":
        v = rng.standard_normal(n_years)
        return np.repeat(v[None, :], n_regions, axis=0)
    n_countries = int(country_of.max()) + 1
    f = rng.standard_normal((n_countries, n_years))
    return f[country_of, :]


def generate_panel(config: DgpConfig, seed) -> PanelDataset:
    """Generate y = beta_true * x + e with the configured shared components.

    x = sqrt(w_p) * shared_x [+ sqrt(w_s) * year_shared_x] + sqrt(1 - w_p - w_s) * idio;
    e = noise_scale * (sqrt(w_e) * shared_e + sqrt(1 - w_e) * idio).
    Draw order is fixed (shared_x, optional spatial_x, idio_x, shared_e,
    idio_e) so results are reproducible from (config, seed).
    """
    rng = np.random.default_rng(seed)
    R, T = config.n_regions, config.n_years
    country_of = np.arange(R) * config.n_countries // R  # contiguous country blocks
    wx = config.predictor_shared_weight
    wxs = config.predictor_spatial_weight
    we = config.noise_shared_weight

    shared_x = _shared_field(rng, config.predictor_sharing, R, T, country_of)
    spatial_x = _shared_field(rng, "year", R, T, country_of) if wxs > 0.0 else 0.0
    idio_x = rng.standard_normal((R, T))
    x = (
        math.sqrt(wx) * shared_x
        + math.sqrt(wxs) * spatial_x
        + math.sqrt(1.0 - wx - wxs) * idio_x
    )

    shared_e = _shared_field(rng, config.noise_sharing, R, T, country_of)
    idio_e = rng.standard_normal((R, T))
    e = config.noise_scale * (math.sqrt(we) * shared_e + math.sqrt(1.0 - we) * idio_e)

    y = config.beta_true * x + e
    country_width = max(2, len(str(config.n_countries - 1)))
    region_width = max(3, len(str(R - 1)))
    lat = lon = None
    if config.with_centroids:
        # deterministic synthetic geography: countries along the equator,
        # regions spread around their country's center
        within = np.arange(R) - np.searchsorted(country_of, country_of, side="left")
        lat = np.repeat(-10.0 + 2.0 * (within % 11), T)
        lon = np.repeat(-170.0 + 24.0 * (country_of % 15) + 2.0 * (within // 11), T)
    return PanelDataset(
        np.repeat([f"R{i:0{region_width}d}" for i in range(R)], T),
        np.repeat([f"C{c:0{country_width}d}" for c in country_of], T),
        np.tile(np.arange(2000, 2000 + T), R),
        y.ravel(),
        {"x": x.ravel()},
        lat=lat,
        lon=lon,
    )


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


def _run_reps(run, reps: int, threads: int) -> list:
    """``run(rep)`` for every rep, in order, with warnings silenced.

    The warning filters are process-global before Python 3.14, so they are
    set once here, in the calling thread, around the whole pool; setting
    them per worker races and can leave them changed after the study.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(run, range(reps)))
        return [run(rep) for rep in range(reps)]


def _coverage_rep(config, seed, rep, schemes, level, correction):
    dataset = generate_panel(config, (seed, rep))
    design = build_design(dataset, SLOPE_SPEC)
    fit = ols_fit(design)
    slope = design.column_names.index("x.l0")
    out = {}
    for scheme in schemes:
        clusters = assign_clusters(design, scheme)
        cov = clustered_cov(fit, design, clusters, correction=correction)
        ci = confidence_intervals(fit, cov, level=level)
        lo, hi = ci[slope]
        out[scheme.label] = (bool(lo <= config.beta_true <= hi), float(hi - lo))
    return out


def coverage_study(
    config: DgpConfig,
    schemes: list[ClusterScheme],
    reps: int,
    level: float = 0.95,
    seed: int = 0,
    correction: str = "CR1",
    threads: int = 1,
) -> CoverageReport:
    """Empirical coverage of the slope CI per clustering scheme.

    Each replication generates a fresh panel, fits intercept + x, and checks
    whether each scheme's interval covers the true slope.  Fit failures are
    counted per scheme, not fatal; a bad level or correction fails up front.
    """
    if reps < 100:
        raise ValueError(f"coverage study needs at least 100 replications, got {reps}")
    check_level(level)
    check_correction(correction)

    def run(rep):
        try:
            return _coverage_rep(config, seed, rep, schemes, level, correction)
        except (ValueError, np.linalg.LinAlgError):
            return None

    results = _run_reps(run, reps, threads)

    rows = []
    for scheme in schemes:
        hits = []
        widths = []
        failed = 0
        for res in results:
            if res is None or scheme.label not in res:
                failed += 1
                continue
            covered, width = res[scheme.label]
            hits.append(covered)
            widths.append(width)
        rows.append(
            CoverageRow(
                scheme=scheme.label,
                nominal_level=level,
                coverage=float(np.mean(hits)) if hits else math.nan,
                mean_ci_width=float(np.mean(widths)) if widths else math.nan,
                replications=len(hits),
                failed=failed,
            )
        )
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


def bias_study(
    config: DgpConfig,
    scheme: ClusterScheme,
    reps: int,
    seed: int = 0,
    correction: str = "CR0",
    threads: int = 1,
) -> BiasReport:
    """Mean clustered variance estimate of the slope vs. its Monte Carlo variance.

    Contract: iid errors, i.e. noise_shared_weight must be 0.
    """
    if config.noise_shared_weight != 0.0:
        raise ValueError("bias study requires iid errors (noise_shared_weight = 0)")
    if reps < 500:
        raise ValueError(f"bias study needs at least 500 replications, got {reps}")

    def run(rep):
        dataset = generate_panel(config, (seed, rep))
        design = build_design(dataset, SLOPE_SPEC)
        fit = ols_fit(design)
        slope = design.column_names.index("x.l0")
        clusters = assign_clusters(design, scheme)
        cov = clustered_cov(fit, design, clusters, correction=correction)
        return float(fit.beta[slope]), float(cov.cov[slope, slope])

    results = _run_reps(run, reps, threads)

    betas = np.array([b for b, _ in results])
    variances = np.array([v for _, v in results])
    empirical = float(betas.var(ddof=1))
    mean_est = float(variances.mean())
    return BiasReport(
        scheme=scheme.label,
        mean_estimated_variance=mean_est,
        empirical_variance=empirical,
        ratio=mean_est / empirical,
        replications=reps,
        correction=correction,
    )
