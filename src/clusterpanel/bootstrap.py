"""Cluster block bootstrap of regression coefficients and scenario projections.

Each replicate draws G cluster keys with replacement, concatenates all rows
of the drawn clusters (duplicates kept as distinct copies), rebuilds the
fixed-effect dummies on the resampled rows, and refits by least squares.
Replicate b's randomness derives from (seed, b), so draws are identical
under any execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .panel import (
    ClusterScheme,
    DesignMatrix,
    ModelSpec,
    PanelDataset,
    assign_clusters,
    build_design,
    fixed_effect_dummies,
)
from .regression import FitResult, check_level, ols_fit


@dataclass(frozen=True)
class BootstrapSample:
    """Coefficient draws aligned to the original design's columns.

    Entries are NaN for columns whose meaning changed in a replicate: dummy
    levels absent from the resample, and the intercept plus the dummies of
    any effect whose reference level was absent (forcing re-referencing).
    ``failed_refits`` counts rank-deficient resamples (excluded from draws).
    """

    draws: np.ndarray
    column_names: tuple[str, ...]
    scheme: ClusterScheme
    B: int
    seed: int
    failed_refits: int
    base_fit: FitResult

    def __post_init__(self):
        self.draws.setflags(write=False)

    def sd(self) -> np.ndarray:
        """Column-wise standard deviation over finite draws."""
        with np.errstate(invalid="ignore"):
            return np.array(
                [np.nanstd(self.draws[:, j], ddof=1) for j in range(self.draws.shape[1])]
            )


def _replicate(b, seed, G, cluster_rows, X_core, y, regions, years, fixed_effects,
               fe_levels, slot_of, p, core_slots):
    rng = np.random.default_rng((seed, b))
    drawn = rng.integers(0, G, size=G)
    rows = np.concatenate([cluster_rows[g] for g in drawn])
    Xc = X_core[rows]
    yb = y[rows]
    if fixed_effects:
        D, labels, _, _, re_referenced = fixed_effect_dummies(
            list(regions[rows]), list(years[rows]), fixed_effects,
            levels=fe_levels, restrict_to_present=True,
        )
        Xb = np.hstack([Xc, D])
    else:
        D = None
        labels = []
        re_referenced = ()
        Xb = Xc
    beta, _, rank, _ = np.linalg.lstsq(Xb, yb, rcond=None)
    if rank < Xb.shape[1]:
        return None
    vec = np.full(p, math.nan)
    vec[core_slots] = beta[: len(core_slots)]
    bad_effects = set(re_referenced)
    for j, lab in enumerate(labels):
        if lab.effect not in bad_effects:
            vec[slot_of[lab.name]] = beta[len(core_slots) + j]
    if bad_effects and "intercept" in slot_of:
        vec[slot_of["intercept"]] = math.nan
    return vec


def block_bootstrap(
    dataset: PanelDataset,
    spec: ModelSpec,
    scheme: ClusterScheme,
    B: int,
    seed: int,
    *,
    threads: int = 1,
    moderator_alignment: str = "contemporaneous",
) -> BootstrapSample:
    """Pairs-cluster bootstrap: resample whole clusters of observations and refit.

    Aborts when more than half of the replicates fail to refit (persistent
    rank deficiency).
    """
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    design = build_design(dataset, spec, moderator_alignment=moderator_alignment)
    base_fit = ols_fit(design)
    clusters = assign_clusters(design, scheme)
    G = clusters.n_clusters
    if G < 2:
        raise ValueError(f"block bootstrap needs at least 2 clusters, got G={G}")
    cluster_rows = clusters.rows_by_cluster()
    core_slots = list(design.core_column_indices)
    X_core = design.X[:, core_slots]
    regions = np.array([r for r, _ in design.row_index])
    years = np.array([t for _, t in design.row_index])
    names = design.column_names
    slot_of = {name: j for j, name in enumerate(names)}
    p = design.p

    args = (seed, G, cluster_rows, X_core, design.y, regions, years,
            design.fixed_effects, design.fe_levels, slot_of, p, core_slots)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: _replicate(b, *args), range(B)))
    else:
        results = [_replicate(b, *args) for b in range(B)]

    kept = [v for v in results if v is not None]
    failed = B - len(kept)
    if failed > B / 2:
        raise RuntimeError(
            f"block bootstrap aborted: {failed}/{B} replicates were rank deficient "
            f"under scheme {scheme.label} (G={G})"
        )
    draws = np.array(kept) if kept else np.empty((0, p))
    return BootstrapSample(
        draws=draws,
        column_names=names,
        scheme=scheme,
        B=B,
        seed=seed,
        failed_refits=failed,
        base_fit=base_fit,
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
    """Future design rows for one scenario; columns match a fitted model."""

    label: str
    X: np.ndarray
    row_index: tuple[tuple[str, int], ...]
    column_names: tuple[str, ...]
    unseen_levels: int

    def __post_init__(self):
        self.X.setflags(write=False)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(sorted({t for _, t in self.row_index}))


def build_scenario_path(
    future: PanelDataset,
    spec: ModelSpec,
    template: DesignMatrix,
    label: str,
    *,
    moderator_alignment: str = "contemporaneous",
    start_year: int | None = None,
) -> ScenarioPath:
    """Design rows for future predictor paths, encoded against a fitted design.

    Term columns are built as usual (the file must include enough history
    for differences and lags); dummies use the template's levels, so levels
    unseen when the model was fitted contribute through the reference level
    and are counted.
    """
    core_spec = ModelSpec(terms=spec.terms, fixed_effects=(), intercept=spec.intercept)
    core = build_design(
        future, core_spec, moderator_alignment=moderator_alignment, require_outcome=False
    )
    keep = np.ones(core.n, dtype=bool)
    if start_year is not None:
        keep = np.array([t >= start_year for _, t in core.row_index])
        if not keep.any():
            raise ValueError(f"no scenario rows at or after {start_year}")
    regions = [r for (r, _), k in zip(core.row_index, keep) if k]
    years = [t for (_, t), k in zip(core.row_index, keep) if k]
    D, _, _, unseen, _ = fixed_effect_dummies(
        regions, years, template.fixed_effects, levels=template.fe_levels
    )
    X = np.hstack([core.X[keep], D]) if D.shape[1] else core.X[keep]
    core_names = [core.column_labels[j].name for j in range(core.p)]
    dummy_names = [
        template.column_labels[j].name
        for j in range(template.p)
        if template.column_labels[j].kind == "dummy"
    ]
    names = tuple(core_names + dummy_names)
    if names != template.column_names:
        raise ValueError(
            f"scenario columns {names} do not match the fitted design {template.column_names}"
        )
    return ScenarioPath(
        label=label,
        X=X,
        row_index=tuple((r, t) for r, t in zip(regions, years)),
        column_names=names,
        unseen_levels=unseen,
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

    A static linear read-out: no growth accumulation or discounting.
    """
    if aggregation not in ("mean", "weighted"):
        raise ValueError(f"unknown aggregation {aggregation!r}; use 'mean' or 'weighted'")
    if aggregation == "weighted" and not weights:
        raise ValueError("weighted aggregation needs region weights")
    if path.column_names != sample.column_names:
        ours = set(sample.column_names)
        theirs = set(path.column_names)
        raise ValueError(
            "scenario columns do not match the bootstrap sample; "
            f"missing {sorted(ours - theirs)}, extra {sorted(theirs - ours)}"
        )
    draws = sample.draws
    if np.isnan(draws).any():
        # columns the path never touches must not poison the product with
        # NaN draw entries (x * 0 would still be NaN)
        untouched = np.all(path.X == 0.0, axis=0)
        draws = draws.copy()
        cols = draws[:, untouched]
        cols[np.isnan(cols)] = 0.0
        draws[:, untouched] = cols
    per_row = path.X @ draws.T  # (rows, draws)
    years = path.years
    values = np.empty((sample.draws.shape[0], len(years)))
    row_years = np.array([t for _, t in path.row_index])
    if aggregation == "weighted":
        row_weights = np.array([weights.get(r, 0.0) for r, _ in path.row_index])
    for j, year in enumerate(years):
        mask = row_years == year
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
