"""Cluster block bootstrap of regression coefficients and scenario projections.

Each replicate draws G cluster keys with replacement and refits the
original design by least squares with each row weighted by its cluster's
multiplicity in the draw: the same fit as stacking the drawn clusters' rows
(duplicates kept) and rebuilding the fixed-effect dummies on them
(Cameron, Gelbach & Miller 2008), without copying rows or forming dummies.
Replicate b's randomness derives from (seed, b), so draws are identical
under any execution order.  Replicates are solved from ``ClusterMoments``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .panel import (
    DEFAULT_MAX_LAG_CEILING,
    ClusterScheme,
    DesignMatrix,
    ModelSpec,
    PanelDataset,
    assign_clusters,
    build_design,
    dummy_columns,
)
from .regression import ClusterMoments, FitResult, check_level, ols_fit


@dataclass(frozen=True)
class BootstrapSample:
    """Coefficient draws aligned to the original design's columns.

    Entries are NaN for columns whose meaning changed in a replicate: dummy
    levels absent from the resample, and the intercept plus the dummies of
    any effect whose reference level was absent (forcing re-referencing).
    ``failed_refits`` counts rank-deficient resamples (excluded from draws).
    ``design``, when known, is the refitted design, a scenario path template.
    """

    draws: np.ndarray
    column_names: tuple[str, ...]
    scheme: ClusterScheme
    B: int
    seed: int
    failed_refits: int
    base_fit: FitResult
    design: DesignMatrix | None = None

    def __post_init__(self):
        self.draws.setflags(write=False)

    def sd(self) -> np.ndarray:
        """Column-wise standard deviation over finite draws."""
        with np.errstate(invalid="ignore"):
            return np.array(
                [np.nanstd(self.draws[:, j], ddof=1) for j in range(self.draws.shape[1])]
            )


def block_bootstrap(
    dataset: PanelDataset,
    spec: ModelSpec,
    scheme: ClusterScheme,
    B: int,
    seed: int,
    *,
    moderator_alignment: str = "contemporaneous",
    max_lag_ceiling: int = DEFAULT_MAX_LAG_CEILING,
) -> BootstrapSample:
    """Pairs-cluster bootstrap: resample whole clusters of observations and refit.

    Aborts when more than half of the replicates fail to refit (persistent
    rank deficiency).
    """
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    design = build_design(dataset, spec, moderator_alignment=moderator_alignment,
                          max_lag_ceiling=max_lag_ceiling)
    base_fit = ols_fit(design)
    clusters = assign_clusters(design, scheme)
    G = clusters.n_clusters
    if G < 2:
        raise ValueError(f"block bootstrap needs at least 2 clusters, got G={G}")
    moments, kept = ClusterMoments(design, clusters.row_cluster), []
    for start in range(0, B, moments.block):
        counts = [np.bincount(np.random.default_rng((seed, b)).integers(0, G, size=G), minlength=G)
                  for b in range(start, min(B, start + moments.block))]
        views = moments.weighted(counts)[::-1]
        while views:  # each view, and the row-path refit it may hold, is freed once solved
            refit = views.pop()
            cols, theta, rank, alpha = refit.solve(range(design.X.shape[1]))
            if rank < len(cols):
                continue
            vec = np.full(design.p, math.nan)
            vec[np.array(design.x_slots, dtype=int)[cols]] = theta
            if alpha is not None:
                vec[list(design.region_slots)] = alpha[1:]
            if refit.re_referenced:
                vec[[j for j, lab in enumerate(design.column_labels)
                     if lab.effect in refit.re_referenced or lab.kind == "intercept"]] = math.nan
            kept.append(vec)
    failed = B - len(kept)
    if failed > B / 2:
        raise RuntimeError(
            f"block bootstrap aborted: {failed}/{B} replicates were rank deficient "
            f"under scheme {scheme.label} (G={G})"
        )
    draws = np.array(kept) if kept else np.empty((0, design.p))
    return BootstrapSample(
        draws=draws,
        column_names=design.column_names,
        scheme=scheme,
        B=B,
        seed=seed,
        failed_refits=failed,
        base_fit=base_fit,
        design=design,
    )


@dataclass(frozen=True)
class PercentileInterval:
    lower: float
    median: float
    upper: float
    level: float
    used_draws: int
    dropped_draws: int


def _contrast_values(draws: np.ndarray, contrast: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(contrast)
    if nz.size == 0:
        return np.zeros(draws.shape[0])
    return draws[:, nz] @ contrast[nz]


@functools.lru_cache(maxsize=None)
def min_draws(level: float) -> int:
    """Fewest finite draws that resolve a two-sided ``level`` interval:
    max(20, ceil(2/(1-level))), with ``level`` taken as the decimal it prints
    as, so that level 0.9 needs 20 draws, not the 21 that the binary
    rounding of 1 - 0.9 would give."""
    check_level(level)
    return max(20, math.ceil(2 / (1 - Fraction(repr(float(level))))))


def percentile_interval(
    sample: BootstrapSample, contrast: np.ndarray, level: float
) -> PercentileInterval:
    """Empirical two-sided percentile interval and median of c'beta* over draws.

    Quantiles use linear interpolation between order statistics.  Requires
    at least ``min_draws(level)`` finite draws so the requested tails are
    resolvable; draws where the contrast touches a NaN column are dropped
    and counted.
    """
    needed = min_draws(level)
    contrast = np.asarray(contrast, dtype=float)
    if contrast.shape != (sample.draws.shape[1],):
        raise ValueError(
            f"contrast length {contrast.shape} does not match {sample.draws.shape[1]} columns"
        )
    values = _contrast_values(sample.draws, contrast)
    finite = np.isfinite(values)
    dropped = int((~finite).sum())
    values = values[finite]
    if values.size < needed:
        raise ValueError(
            f"B={values.size} usable draws too small for level {level}; need at least {needed}"
        )
    lo, med, hi = np.quantile(values, [0.5 - level / 2.0, 0.5, 0.5 + level / 2.0])
    return PercentileInterval(
        lower=float(lo),
        median=float(med),
        upper=float(hi),
        level=level,
        used_draws=int(values.size),
        dropped_draws=dropped,
    )


@dataclass(frozen=True)
class ScenarioPath:
    """Future design rows for one scenario; columns match a fitted model.

    Row i is the region ``row_regions[i]`` in the year ``row_years[i]``.  ``X``
    holds the columns at ``x_slots`` of ``column_names`` (all of them when
    None).  A region effect is read by index instead: ``region_slot`` gives
    each row's column of its region dummy, -1 for the reference level or a
    level unseen when the model was fitted.
    """

    label: str
    X: np.ndarray
    row_regions: np.ndarray
    row_years: np.ndarray
    column_names: tuple[str, ...]
    unseen_levels: int
    x_slots: tuple[int, ...] | None = None
    region_slot: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.X, self.row_regions, self.row_years):
            a.setflags(write=False)


def _level_codes(values: np.ndarray, levels: tuple) -> np.ndarray:
    """Index of each value in the sorted ``levels``, -1 where it is not one."""
    lv = np.asarray(levels)
    i = np.minimum(np.searchsorted(lv, values), len(lv) - 1)
    return np.where(lv[i] == values, i, -1)


def build_scenario_path(
    future: PanelDataset,
    spec: ModelSpec,
    template: DesignMatrix,
    label: str,
    *,
    moderator_alignment: str = "contemporaneous",
    max_lag_ceiling: int = DEFAULT_MAX_LAG_CEILING,
    start_year: int | None = None,
) -> ScenarioPath:
    """Design rows for future predictor paths, encoded against a fitted design.

    Term columns are built as usual (the file must include enough history
    for differences and lags); fixed effects use the template's levels, so
    levels unseen when the model was fitted contribute through the
    reference level and are counted.
    """
    core_spec = ModelSpec(terms=spec.terms, fixed_effects=(), intercept=spec.intercept)
    core = build_design(future, core_spec, moderator_alignment=moderator_alignment,
                        max_lag_ceiling=max_lag_ceiling, require_outcome=False)
    ri, ti = core.cells
    regions, years = np.array(future.regions)[ri], ti + future.first_year
    keep = np.ones(core.n, dtype=bool) if start_year is None else years >= start_year
    if not keep.any():
        raise ValueError(f"no scenario rows at or after {start_year}")
    regions, years = regions[keep], years[keep]
    codes = {effect: _level_codes(regions if effect == "region" else years, levels)
             for effect, levels in template.fe_levels.items()}
    X = core.X[keep]
    if "year" in codes:
        X = np.hstack([X, dummy_columns(codes["year"], len(template.fe_levels["year"]))])
    region_slot = None
    if "region" in codes:  # code 0 (the reference) and -1 (unseen) read no column
        region_slot = np.array((-1, *template.region_slots))[np.maximum(codes["region"], 0)]
    dummy_labels = [lab for lab in template.column_labels if lab.kind == "dummy"]
    names = core.column_names + tuple(lab.name for lab in dummy_labels)
    if names != template.column_names:
        raise ValueError(
            f"scenario columns {names} do not match the fitted design {template.column_names}"
        )
    return ScenarioPath(
        label=label,
        X=X,
        row_regions=regions,
        row_years=years,
        column_names=names,
        unseen_levels=sum(int((c < 0).sum()) for c in codes.values()),
        x_slots=template.x_slots,
        region_slot=region_slot,
    )


@dataclass(frozen=True)
class Projection:
    """Per-draw, per-year aggregated outcome under one scenario."""

    label: str
    years: tuple[int, ...]
    values: np.ndarray  # (draws, years)

    def __post_init__(self):
        self.values.setflags(write=False)


def project_scenarios(
    sample: BootstrapSample,
    path: ScenarioPath,
    aggregation: str = "mean",
    weights: dict[str, float] | None = None,
) -> Projection:
    """Aggregate x'beta* over regions per year for every coefficient draw.

    A static linear read-out: no growth accumulation or discounting.  A
    region without a weight weighs 0; a weight for a region without rows
    in the path raises.
    """
    if aggregation not in ("mean", "weighted"):
        raise ValueError(f"unknown aggregation {aggregation!r}; use 'mean' or 'weighted'")
    if aggregation == "weighted":
        if not weights:
            raise ValueError("weighted aggregation needs region weights")
        names, at = np.unique(path.row_regions, return_inverse=True)
        unknown = sorted(set(weights).difference(names.tolist()))
        if unknown:
            raise ValueError(f"weight for region {unknown[0]!r}, which has no rows "
                             f"in scenario {path.label!r}")
        row_weights = np.array([weights.get(r, 0.0) for r in names.tolist()], dtype=float)[at]
    if path.column_names != sample.column_names:
        ours = set(sample.column_names)
        theirs = set(path.column_names)
        raise ValueError(
            "scenario columns do not match the bootstrap sample; "
            f"missing {sorted(ours - theirs)}, extra {sorted(theirs - ours)}"
        )
    draws = sample.draws
    x_draws = draws if path.x_slots is None else draws[:, list(path.x_slots)]
    if np.isnan(x_draws).any():
        # columns the path never touches must not poison the product with
        # NaN draw entries (x * 0 would still be NaN)
        untouched = np.all(path.X == 0.0, axis=0)
        x_draws = x_draws.copy()
        cols = x_draws[:, untouched]
        cols[np.isnan(cols)] = 0.0
        x_draws[:, untouched] = cols
    per_row = path.X @ x_draws.T  # (rows, draws)
    if path.region_slot is not None:
        seen = np.flatnonzero(path.region_slot >= 0)
        alpha = draws[:, path.region_slot[seen]]
        per_row[seen] += alpha.T
        # like a touched column in the product, a missing region effect the
        # path reads drops the whole draw
        per_row[:, np.isnan(alpha).any(axis=1)] = math.nan
    years = tuple(np.unique(path.row_years).tolist())
    values = np.empty((sample.draws.shape[0], len(years)))
    for j, year in enumerate(years):
        mask = path.row_years == year
        block = per_row[mask]
        if aggregation == "mean":
            values[:, j] = block.mean(axis=0)
        else:
            w = row_weights[mask]
            total = w.sum()
            if total <= 0:
                raise ValueError(f"no positive weights for year {year}")
            values[:, j] = (w[None, :] @ block).ravel() / total
    return Projection(label=path.label, years=years, values=values)


def first_discernible_year(
    outcomes_a: Projection, outcomes_b: Projection, alpha: float = 0.05
) -> int | None:
    """Earliest year whose paired-difference percentile interval excludes zero.

    Differences pair draws by index; the two-sided interval has coverage
    1 - alpha.  Returns None when no year is discernible.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if outcomes_a.years != outcomes_b.years:
        raise ValueError("projections cover different years")
    if outcomes_a.values.shape != outcomes_b.values.shape:
        raise ValueError("projections carry different draw counts")
    for j, year in enumerate(outcomes_a.years):
        d = outcomes_a.values[:, j] - outcomes_b.values[:, j]
        d = d[np.isfinite(d)]
        if d.size == 0:
            continue
        lo, hi = np.quantile(d, [alpha / 2.0, 1.0 - alpha / 2.0])
        if lo > 0.0 or hi < 0.0:
            return int(year)
    return None
