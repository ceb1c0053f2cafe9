"""Pairwise residual correlation diagnostics.

Spatial kind: one residual series per region, indexed by year; a Pearson
correlation per unordered region pair over their common years.  Temporal
kind: one series per year, indexed by region, over their common regions.

Both kinds run one kernel, :func:`pair_statistics`, over a NaN-masked grid
(the residual grid for the spatial kind, its transpose for the temporal
one).  It centres each series on its own mean, zero-fills the missing cells
into X and marks the present ones in M, and forms N = MMᵀ (common cells),
Sx = XMᵀ, Sxx = X²Mᵀ and Sxy = XXᵀ.  Every pair's centred sums over its
common cells follow in one pass, e.g. Cxy = Sxy - Sx ∘ Sxᵀ / N.

A series is constant over a pair's common cells, and the pair is skipped as
``zero_variance``, when its centred sum of squares there is at most
N · 2⁻⁴⁴ · s², with s the series' largest absolute residual: a standard
deviation below about 2.4e-7 · s is rounding, not signal.

Groups are declarative (:class:`GroupSpec`): each becomes a boolean mask
over the upper triangle of pairs, taken in (a < b, row-major) order, so the
statistics are computed once per kind and every group selects from them.
Group summaries aggregate to mean and quartiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .panel import DesignMatrix, haversine_km
from .regression import FitResult

DEFAULT_MIN_OVERLAP = 10
# centred sum of squares at or below N * ZERO_VARIANCE_TOL * max|x|^2 is rounding
ZERO_VARIANCE_TOL = 2.0**-44

SKIP_NO_COORDINATES = "no_coordinates"
SKIP_SHORT_OVERLAP = "short_overlap"
SKIP_ZERO_VARIANCE = "zero_variance"

KINDS = ("spatial", "temporal")
SPATIAL_KEYS = ("same_country", "different_country", "country", "group", "below_km", "above_km")
TEMPORAL_KEYS = ("consecutive",)


class ResidualPanel:
    """(R, T) residual grid, NaN where a cell has no residual, plus per-region
    country, centroid ((R, 2) lat/lon, NaN for none) and group tags.

    Only regions and years with at least one residual are kept, so every
    series takes part in its kind's pairs.
    """

    __slots__ = ("values", "regions", "years", "countries", "centroids", "groups", "_distances")

    def __init__(
        self,
        values,
        regions: Sequence[str],
        years: Sequence[int],
        countries: Sequence[str],
        centroids=None,
        groups: Sequence[Iterable[str]] | None = None,
    ):
        values = np.asarray(values, dtype=float)
        R, T = values.shape
        if len(regions) != R or len(countries) != R or len(years) != T:
            raise ValueError(f"residual grid is {R}x{T}, labels do not match")
        centroids = np.full((R, 2), math.nan) if centroids is None else np.asarray(centroids, float)
        groups = [frozenset()] * R if groups is None else [frozenset(g) for g in groups]
        present = ~np.isnan(values)
        rows, cols = present.any(axis=1), present.any(axis=0)
        if not rows.any():
            raise ValueError("residual panel is empty")
        self.values = values[rows][:, cols]
        self.regions = tuple(np.asarray(regions, dtype=object)[rows].tolist())
        self.years = tuple(np.asarray(years)[cols].tolist())
        self.countries = np.asarray(countries, dtype=str)[rows]
        self.centroids = centroids[rows]
        self.groups = tuple(g for g, keep in zip(groups, rows) if keep)
        self._distances = None

    @classmethod
    def from_fit(cls, fit: FitResult, design: DesignMatrix) -> "ResidualPanel":
        """The fit's residuals at their cells of the grid of the design's dataset."""
        dataset = design.dataset
        grid = np.full(dataset.present.shape, math.nan)
        grid[design.cells] = fit.residuals
        years = range(dataset.first_year, dataset.first_year + grid.shape[1])
        return cls(grid, dataset.regions, years, dataset.countries, dataset.centroids,
                   dataset.groups)

    def distances_km(self) -> np.ndarray:
        """(R, R) great-circle distances between region centroids, computed on
        first use; meaningless where either region has no centroid."""
        if self._distances is None:
            ll = np.nan_to_num(self.centroids)
            self._distances = haversine_km(ll[:, None, :], ll[None, :, :])
        return self._distances


def pair_statistics(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlap, Pearson rho and degenerate flag of every pair of rows of a
    NaN-masked grid, as (S, S) matrices over the S series (rows).

    rho is over each pair's common cells, clipped to [-1, 1]; it is NaN or
    meaningless where the overlap is below 2 or the pair is degenerate (either
    series constant over the common cells, see the module docstring).
    """
    present = ~np.isnan(values)
    M = present.astype(float)
    centred = values - np.nanmean(values, axis=1, keepdims=True)
    X = np.where(present, centred, 0.0)
    N = M @ M.T
    Sx = X @ M.T
    Sxx = (X * X) @ M.T
    scale = np.nanmax(np.abs(values), axis=1) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_x = Sx / N
        cxx = Sxx - Sx * mean_x
        cxy = X @ X.T - Sx * mean_x.T
        flat = cxx <= N * ZERO_VARIANCE_TOL * scale[:, None]
        rho = np.clip(cxy / np.sqrt(cxx * cxx.T), -1.0, 1.0)
    return N.astype(np.int64), rho, flat | flat.T


@dataclass(frozen=True)
class GroupSpec:
    """One summary row: a label, the kind, and the pair conditions it keeps.

    Spatial conditions (all must hold): both regions in one country
    (``same_country``) or in two (``different_country``), both in
    ``country``, both tagged ``group``, and centroids closer than
    ``below_km`` or farther than ``above_km``.  A pair that no other
    condition rejects but that lacks a centroid for a distance condition is
    skipped as ``no_coordinates``.  Temporal: ``consecutive`` keeps pairs of
    adjacent calendar years.  No condition keeps every pair.
    """

    label: str
    kind: str = "spatial"
    same_country: bool = False
    different_country: bool = False
    country: str | None = None
    group: str | None = None
    below_km: float | None = None
    above_km: float | None = None
    consecutive: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        foreign = TEMPORAL_KEYS if self.kind == "spatial" else SPATIAL_KEYS
        for f in fields(self):
            if f.name in foreign and getattr(self, f.name) != f.default:
                raise ValueError(f"key {f.name!r} does not apply to a {self.kind} group")


def _upper(square: np.ndarray) -> np.ndarray:
    return square[np.triu_indices(square.shape[0], 1)]


def pair_masks(panel: ResidualPanel, group: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """(passes, no_coordinates) masks of a group over its kind's upper-triangle
    pairs; a rejection by any condition dominates a missing centroid."""
    n = len(panel.regions) if group.kind == "spatial" else len(panel.years)
    ok = np.ones((n, n), dtype=bool)
    missing = np.zeros((n, n), dtype=bool)
    if group.consecutive:
        years = np.asarray(panel.years)
        ok &= np.abs(years[:, None] - years[None, :]) == 1
    c = panel.countries
    if group.same_country:
        ok &= c[:, None] == c[None, :]
    if group.different_country:
        ok &= c[:, None] != c[None, :]
    if group.country:
        member = c == str(group.country)
        ok &= member[:, None] & member[None, :]
    if group.group:
        member = np.array([str(group.group) in g for g in panel.groups], dtype=bool)
        ok &= member[:, None] & member[None, :]
    if group.below_km is not None or group.above_km is not None:
        located = ~np.isnan(panel.centroids[:, 0])
        both = located[:, None] & located[None, :]
        d = panel.distances_km()
        if group.below_km is not None:
            ok &= ~both | (d < float(group.below_km))
        if group.above_km is not None:
            ok &= ~both | (d > float(group.above_km))
        missing = ok & ~both
        ok &= both
    return _upper(ok), _upper(missing)


@dataclass(frozen=True)
class PairCorrelations:
    """One group's pairs in (a < b, row-major) order, plus skips by reason."""

    a: np.ndarray
    b: np.ndarray
    rho: np.ndarray
    overlap: np.ndarray
    skipped: dict[str, int] = field(default_factory=dict)

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped.values())


@dataclass(frozen=True)
class _KindPairs:
    """Upper-triangle statistics of one kind: labels, overlap, rho, degenerate."""

    a: np.ndarray
    b: np.ndarray
    overlap: np.ndarray
    rho: np.ndarray
    degenerate: np.ndarray


def _kind_pairs(panel: ResidualPanel, kind: str) -> _KindPairs:
    if kind == "spatial":
        grid, labels = panel.values, np.asarray(panel.regions, dtype=object)
    else:
        grid, labels = panel.values.T, np.asarray(panel.years)
    ia, ib = np.triu_indices(grid.shape[0], 1)
    N, rho, degenerate = pair_statistics(grid)
    return _KindPairs(labels[ia], labels[ib], N[ia, ib], rho[ia, ib], degenerate[ia, ib])


def _select(panel: ResidualPanel, pairs: _KindPairs, group: GroupSpec,
            min_overlap: int) -> PairCorrelations:
    passes, no_coordinates = pair_masks(panel, group)
    short = passes & (pairs.overlap < min_overlap)
    flat = passes & ~short & pairs.degenerate
    keep = passes & ~short & ~pairs.degenerate
    counts = {SKIP_NO_COORDINATES: no_coordinates, SKIP_SHORT_OVERLAP: short,
              SKIP_ZERO_VARIANCE: flat}
    skipped = {reason: int(m.sum()) for reason, m in counts.items() if m.any()}
    return PairCorrelations(pairs.a[keep], pairs.b[keep], pairs.rho[keep], pairs.overlap[keep],
                            skipped)


def _check_min_overlap(min_overlap: int) -> None:
    if min_overlap < 2:
        raise ValueError(f"min_overlap must be at least 2 (a correlation needs two points), "
                         f"got {min_overlap}")


def pair_correlations(
    panel: ResidualPanel,
    group: GroupSpec,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> PairCorrelations:
    """One group's pair correlations.

    Pairs the group rejects are excluded silently; pairs it cannot evaluate
    (missing centroids), and pairs with fewer than ``min_overlap`` common
    cells or a constant series, are counted under ``skipped``.
    """
    _check_min_overlap(min_overlap)
    return _select(panel, _kind_pairs(panel, group.kind), group, min_overlap)


@dataclass(frozen=True)
class CorrelationSummary:
    """Mean and quartiles of a group's pair correlations.

    An empty group yields pair_count = 0 and None statistics (an explicit
    "no pairs" result rather than NaN).
    """

    group_label: str
    kind: str
    mean: float | None
    q25: float | None
    q75: float | None
    pair_count: int
    skipped_count: int = 0


def summarize(
    correlations: Sequence[float] | np.ndarray,
    group_label: str = "",
    kind: str = "spatial",
    skipped_count: int = 0,
) -> CorrelationSummary:
    """Aggregate pair correlations: mean plus quartiles by linear interpolation."""
    rhos = np.asarray(correlations, dtype=float)
    if rhos.size == 0:
        return CorrelationSummary(
            group_label=group_label,
            kind=kind,
            mean=None,
            q25=None,
            q75=None,
            pair_count=0,
            skipped_count=skipped_count,
        )
    q25, q75 = np.quantile(rhos, [0.25, 0.75])
    return CorrelationSummary(
        group_label=group_label,
        kind=kind,
        mean=float(rhos.mean()),
        q25=float(q25),
        q75=float(q75),
        pair_count=int(rhos.size),
        skipped_count=skipped_count,
    )


def correlation_table(
    panel: ResidualPanel,
    groups: Sequence[GroupSpec],
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> list[CorrelationSummary]:
    """Group summaries over the panel, one row per group spec; the pair
    statistics are computed once per kind and each group masks them."""
    _check_min_overlap(min_overlap)
    by_kind = {kind: _kind_pairs(panel, kind) for kind in {g.kind for g in groups}}
    rows = []
    for g in groups:
        res = _select(panel, by_kind[g.kind], g, min_overlap)
        rows.append(summarize(res.rho, group_label=g.label, kind=g.kind,
                              skipped_count=res.skipped_total))
    return rows
