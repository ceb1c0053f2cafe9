"""Cluster block bootstrap of regression coefficients and scenario projections.

Each replicate draws G cluster keys with replacement and refits the
original design by least squares with each row weighted by its cluster's
multiplicity in the draw: the same fit as stacking the drawn clusters' rows
(duplicates kept) and rebuilding the fixed-effect dummies on them
(Cameron, Gelbach & Miller 2008), without copying rows or forming dummies.
Replicate b's randomness derives from (seed, b), so draws are identical
under any execution order.  Replicates are solved from ``ClusterMoments``, a
block of them as one stack of views, and their draws scattered into place.
Read-outs (intervals, ``sd``, projections, discernibility) take every column
at once (``column_quantiles``), with the bits of a column read alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .panel import (DEFAULT_MAX_LAG_CEILING, ClusterScheme, DesignMatrix, ModelSpec, PanelDataset,
                    assign_clusters, build_design)
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
        """Column-wise standard deviation over finite draws, as ``nanstd``
        of each column alone: a contiguous reduction per row of the transpose.
        NaN, without numpy's degrees-of-freedom warning, below 2 finite draws."""
        columns = np.ascontiguousarray(self.draws.T)
        usable = (~np.isnan(columns)).sum(axis=1) > 1
        sd = np.full(len(columns), math.nan)
        with np.errstate(invalid="ignore"):
            sd[usable] = np.nanstd(columns[usable], axis=1, ddof=1)
        return sd


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
    moments, cols = ClusterMoments(design, clusters.row_cluster), range(design.X.shape[1])
    # each effect's dummy columns, and the columns whose meaning changes when it is re-referenced
    columns = {effect: (np.array(design.fe_slots[effect], dtype=int),
                        np.flatnonzero([lab.effect == effect or lab.kind == "intercept"
                                        for lab in design.column_labels]))
               for effect in design.fixed_effects}
    draws, deficient = np.full((B, design.p), math.nan), np.zeros(B, dtype=bool)
    for start in range(0, B, moments.block):
        block = slice(start, min(B, start + moments.block))
        draw = [np.random.default_rng((seed, b)).integers(0, G, size=G) for b in range(B)[block]]
        views = moments.weighted([np.bincount(d, minlength=G) for d in draw])
        theta, deficient[block], effects = views.solve(cols)
        out = draws[block]  # a view of draws, filled by the scatters below
        out[:, : len(cols)] = theta
        for effect, (slots, unresolved) in columns.items():
            out[:, slots] = effects[effect][:, 1:]
            out[np.ix_(~views.present[effect][:, 0], unresolved)] = math.nan
    failed = int(deficient.sum())
    if failed > B / 2:
        raise RuntimeError(
            f"block bootstrap aborted: {failed}/{B} replicates were rank deficient "
            f"under scheme {scheme.label} (G={G})"
        )
    return BootstrapSample(draws=draws[~deficient], column_names=design.column_names, scheme=scheme,
                           B=B, seed=seed, failed_refits=failed, base_fit=base_fit, design=design)


@dataclass(frozen=True)
class PercentileInterval:
    lower: float
    median: float
    upper: float
    level: float
    used_draws: int
    dropped_draws: int


@functools.lru_cache(maxsize=None)
def min_draws(level: float) -> int:
    """Fewest finite draws that resolve a two-sided ``level`` interval:
    max(20, ceil(2/(1-level))), with ``level`` taken as the decimal it prints
    as, so that level 0.9 needs 20 draws, not the 21 that the binary
    rounding of 1 - 0.9 would give."""
    check_level(level)
    return max(20, math.ceil(2 / (1 - Fraction(repr(float(level))))))


def column_quantiles(values: np.ndarray, qs) -> tuple[np.ndarray, np.ndarray]:
    """Each column's quantiles ``qs`` over its finite entries, (len(qs),
    columns) and NaN for a column without any, and the finite counts.  The
    columns are sorted once, non-finite entries last, and those of one count
    share an ``np.quantile(axis=0)`` of their finite heads: the same order
    statistics and interpolation as ``np.quantile`` of one column's finite
    entries, so the same bits."""
    finite = np.isfinite(values)
    counts = finite.sum(axis=0)
    ordered = np.sort(np.where(finite, values, math.nan), axis=0)
    out = np.full((len(qs), values.shape[1]), math.nan)
    for count in np.unique(counts[counts > 0]):
        cols = counts == count
        out[:, cols] = np.quantile(ordered[:count, cols], qs, axis=0)
    return out, counts


def interval_qs(levels) -> list[float]:
    """The lower, median and upper quantile of each two-sided ``level``."""
    return [q for level in levels for q in (0.5 - level / 2.0, 0.5, 0.5 + level / 2.0)]


def check_draws(used: int, level: float) -> None:
    """Raise unless ``used`` finite draws resolve a ``level`` interval (``min_draws``)."""
    if used < min_draws(level):
        raise ValueError(f"B={used} usable draws too small for level {level}; "
                         f"need at least {min_draws(level)}")


def percentile_interval(
    sample: BootstrapSample, contrast: np.ndarray, level: float
) -> PercentileInterval:
    """Empirical two-sided percentile interval and median of c'beta* over draws.

    Quantiles use linear interpolation between order statistics.  Requires
    at least ``min_draws(level)`` finite draws so the requested tails are
    resolvable; draws where the contrast touches a NaN column are dropped
    and counted.
    """
    contrast = np.asarray(contrast, dtype=float)
    if contrast.shape != (sample.draws.shape[1],):
        raise ValueError(
            f"contrast length {contrast.shape} does not match {sample.draws.shape[1]} columns"
        )
    values = sample.draws[:, contrast != 0] @ contrast[contrast != 0]
    quantiles, counts = column_quantiles(values[:, None], interval_qs([level]))
    used = int(counts[0])
    check_draws(used, level)
    return PercentileInterval(*quantiles[:, 0].tolist(), level, used, len(values) - used)


@dataclass(frozen=True)
class ScenarioPath:
    """Future design rows for one scenario; columns match a fitted model.

    Row i is the region ``row_regions[i]`` in the year ``row_years[i]``.  ``X``
    holds the first columns of ``column_names``, the intercept and the term
    columns.  The fixed effects are read by index instead: ``effect_slots``
    gives, per effect, each row's column of its level's dummy, -1 for the
    reference level or a level unseen when the model was fitted.
    """

    label: str
    X: np.ndarray
    row_regions: np.ndarray
    row_years: np.ndarray
    column_names: tuple[str, ...]
    unseen_levels: int
    effect_slots: Mapping[str, np.ndarray] = field(default_factory=dict)

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
    # code 0 (the reference) and -1 (unseen) read no column
    slots = {effect: np.array((-1, *template.fe_slots[effect]))[np.maximum(code, 0)]
             for effect, code in codes.items()}
    dummy_labels = [lab for lab in template.column_labels if lab.kind == "dummy"]
    names = core.column_names + tuple(lab.name for lab in dummy_labels)
    if names != template.column_names:
        raise ValueError(
            f"scenario columns {names} do not match the fitted design {template.column_names}"
        )
    return ScenarioPath(label=label, X=core.X[keep], row_regions=regions, row_years=years,
                        column_names=names, effect_slots=slots,
                        unseen_levels=sum(int((c < 0).sum()) for c in codes.values()))


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
    """Aggregate x'beta* over regions per year for every coefficient draw, a
    static linear read-out: year t is ``M[t] @ draw``, with ``M[t]`` the year's
    weighted mean design row.  A draw with a NaN in a column the path reads
    (the intercept and terms, and each effect column some row reads, whatever
    its weight) is NaN in every year, and a warning counts those.  A region
    without a weight weighs 0; a weight for a region without rows, a negative
    or non-finite one, and weights under ``mean`` raise."""
    if aggregation not in ("mean", "weighted"):
        raise ValueError(f"unknown aggregation {aggregation!r}; use 'mean' or 'weighted'")
    if aggregation == "mean" and weights is not None:
        raise ValueError("region weights need aggregation 'weighted', not 'mean'")
    row_weights = np.ones(len(path.row_years))
    if aggregation == "weighted":
        if not weights:
            raise ValueError("weighted aggregation needs region weights")
        names, at = np.unique(path.row_regions, return_inverse=True)
        unknown = sorted(set(weights).difference(names.tolist()))
        if unknown:
            raise ValueError(f"weight for region {unknown[0]!r}, which has no rows "
                             f"in scenario {path.label!r}")
        for r, w in weights.items():
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"weight for region {r!r} must be finite and >= 0, got {w}")
        row_weights = np.array([weights.get(r, 0.0) for r in names.tolist()], dtype=float)[at]
    if path.column_names != sample.column_names:
        ours, theirs = set(sample.column_names), set(path.column_names)
        raise ValueError("scenario columns do not match the bootstrap sample; "
                         f"missing {sorted(ours - theirs)}, extra {sorted(theirs - ours)}")
    years, at = np.unique(path.row_years, return_inverse=True)
    total = np.bincount(at, row_weights)
    if (total <= 0).any():
        raise ValueError(f"no positive weights for year {years[np.argmax(total <= 0)]}")
    # each row's columns (-1: no dummy, read as column 0 with entry 0) and entries
    k, p = path.X.shape[1], len(path.column_names)
    cols = np.column_stack([np.tile(np.arange(k), (len(at), 1)), *path.effect_slots.values()])
    x = np.column_stack([path.X, cols[:, k:] >= 0]) * row_weights[:, None]
    read = np.unique(cols[cols >= 0])
    draws = sample.draws[:, read]
    M = np.bincount((at[:, None] * p + np.maximum(cols, 0)).ravel(), x.ravel(), len(years) * p)
    values = draws @ (M.reshape(-1, p)[:, read] / total[:, None]).T
    dropped = np.isnan(draws).any(axis=1)
    values[dropped] = math.nan
    if dropped.any():
        warnings.warn(f"scenario {path.label!r}: {dropped.sum()} of {len(dropped)} draws dropped; "
                      "each lacks the intercept or a fixed effect that the path reads")
    return Projection(label=path.label, years=tuple(years.tolist()), values=values)


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
    (lo, hi), counts = column_quantiles(outcomes_a.values - outcomes_b.values,
                                        [alpha / 2.0, 1.0 - alpha / 2.0])
    hits = np.flatnonzero((counts > 0) & ((lo > 0.0) | (hi < 0.0)))
    return int(outcomes_a.years[hits[0]]) if len(hits) else None
