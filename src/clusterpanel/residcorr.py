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

Groups are declarative (:class:`GroupSpec`): each becomes a square boolean
mask over its kind's series, True only in the strict upper triangle
(a < b), so the square statistics are computed once per kind and every
group selects its pairs from them, in row-major order.  Group summaries
aggregate to mean and quartiles.
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
        if self.same_country and self.different_country:
            raise ValueError("same_country and different_country together keep no pair")
        for name in ("below_km", "above_km"):
            bound = getattr(self, name)
            if bound is not None and not bound >= 0:
                raise ValueError(f"{name} must be a distance >= 0 km, got {bound!r}")


def pair_masks(panel: ResidualPanel, group: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """(passes, no_coordinates) (n, n) masks of a group over its kind's n
    series, True only for pairs a < b; a rejection by any condition dominates
    a missing centroid."""
    n = len(panel.regions) if group.kind == "spatial" else len(panel.years)
    ok = np.triu(np.ones((n, n), dtype=bool), 1)
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
    return ok, missing


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


def _grid(panel: ResidualPanel, kind: str) -> np.ndarray:
    return panel.values if kind == "spatial" else panel.values.T


def _select(panel: ResidualPanel, group: GroupSpec, overlap: np.ndarray, degenerate: np.ndarray,
            min_overlap: int) -> tuple[np.ndarray, dict[str, int]]:
    """The (n, n) mask of the group's kept pairs and its skips by reason."""
    passes, no_coordinates = pair_masks(panel, group)
    short = passes & (overlap < min_overlap)
    flat = passes & ~short & degenerate
    keep = passes & ~short & ~degenerate
    counts = {SKIP_NO_COORDINATES: no_coordinates, SKIP_SHORT_OVERLAP: short,
              SKIP_ZERO_VARIANCE: flat}
    return keep, {reason: int(m.sum()) for reason, m in counts.items() if m.any()}


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
    overlap, rho, degenerate = pair_statistics(_grid(panel, group.kind))
    keep, skipped = _select(panel, group, overlap, degenerate, min_overlap)
    labels = (np.asarray(panel.regions, dtype=object) if group.kind == "spatial"
              else np.asarray(panel.years))
    a, b = np.nonzero(keep)
    return PairCorrelations(labels[a], labels[b], rho[keep], overlap[keep], skipped)


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
    mean = q25 = q75 = None
    if rhos.size:
        mean, (q25, q75) = float(rhos.mean()), np.quantile(rhos, [0.25, 0.75]).tolist()
    return CorrelationSummary(group_label, kind, mean, q25, q75, int(rhos.size), skipped_count)


def correlation_table(
    panel: ResidualPanel,
    groups: Sequence[GroupSpec],
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> list[CorrelationSummary]:
    """Group summaries over the panel, one row per group spec; the pair
    statistics are computed once per kind and each group masks them."""
    _check_min_overlap(min_overlap)
    by_kind = {kind: pair_statistics(_grid(panel, kind)) for kind in {g.kind for g in groups}}
    rows = []
    for g in groups:
        overlap, rho, degenerate = by_kind[g.kind]
        keep, skipped = _select(panel, g, overlap, degenerate, min_overlap)
        rows.append(summarize(rho[keep], group_label=g.label, kind=g.kind,
                              skipped_count=sum(skipped.values())))
    return rows
