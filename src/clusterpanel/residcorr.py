"""Pairwise residual correlation diagnostics.

Spatial kind: one residual series per region, indexed by year; a Pearson
correlation per unordered region pair over their common years.  Temporal
kind: one series per year, indexed by region, over their common regions.
A :class:`ResidualPanel` is a residual grid over a dataset's cells, labelled by it.

Both kinds run one pair walk, :func:`_walk`, over a NaN-masked grid (the
residual grid for the spatial kind, its transpose for the temporal one).  It
centres each series on its own mean, zero-fills the missing cells into X and
marks the present ones in M.  Each block of at most ``_BLOCK`` series a meets
the series b from the block's first on: N = M_a M_bᵀ (common cells),
Sx = X_a M_bᵀ, Syx = (X_b M_aᵀ)ᵀ, Sxx = X²_a M_bᵀ and its transpose, and
Sxy = X_a X_bᵀ give every pair's centred sums over its common cells, e.g.
Cxy = Sxy - Sx ∘ Syx / N.  Memory grows with ``_BLOCK`` times the series.

A series is constant over a pair's common cells, and the pair is skipped as
``zero_variance``, when its centred sum of squares there is at most
N · 2⁻⁴⁴ · s², with s the series' largest absolute residual: a standard
deviation below about 2.4e-7 · s is rounding, not signal.

Groups are declarative (:class:`GroupSpec`): :func:`pair_masks` gives a
group's masks over a block, True only where a < b, so each group masks each
block once, keeps only its rho, and its pairs come in row-major (a, b) order.
Distances are computed per block, only when some group has a km bound.
Group summaries aggregate to mean and quartiles.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .panel import PanelDataset, haversine_km
from .regression import FitResult

DEFAULT_MIN_OVERLAP = 10
# centred sum of squares at or below N * ZERO_VARIANCE_TOL * max|x|^2 is rounding
ZERO_VARIANCE_TOL = 2.0**-44
_BLOCK = 256  # series a per block of the pair walk

SKIP_NO_COORDINATES = "no_coordinates"
SKIP_SHORT_OVERLAP = "short_overlap"
SKIP_ZERO_VARIANCE = "zero_variance"

KINDS = ("spatial", "temporal")
SPATIAL_KEYS = ("same_country", "different_country", "country", "group", "below_km", "above_km")
TEMPORAL_KEYS = ("consecutive",)


class ResidualPanel:
    """(R, T) residual grid over a dataset's cells, NaN where a cell has no
    residual, with the dataset's per-region countries, centroids ((R, 2)
    lat/lon, NaN latitude for none) and group tags.

    Only regions and years with at least one residual are kept, so every
    series takes part in its kind's pairs; the labels are the dataset's,
    sliced by the kept rows and columns.
    """

    __slots__ = ("values", "regions", "years", "countries", "centroids", "groups")

    def __init__(self, dataset: PanelDataset, values):
        values = np.asarray(values, dtype=float)
        if values.shape != dataset.present.shape:
            raise ValueError(f"residual grid is {values.shape}, expected the dataset's "
                             f"{dataset.present.shape}")
        present = ~np.isnan(values)
        rows, cols = present.any(axis=1), present.any(axis=0)
        if not rows.any():
            raise ValueError("residual panel is empty")
        self.values = values[rows][:, cols]
        self.regions = tuple(np.asarray(dataset.regions, dtype=object)[rows].tolist())
        self.years = tuple((dataset.first_year + np.flatnonzero(cols)).tolist())
        self.countries = np.asarray(dataset.countries, dtype=str)[rows]
        self.centroids = dataset.centroids[rows]
        self.groups = tuple(g for g, keep in zip(dataset.groups, rows) if keep)

    @classmethod
    def from_fit(cls, fit: FitResult) -> "ResidualPanel":
        """The fit's residuals at their cells of the grid of its design's dataset."""
        grid = np.full(fit.design.dataset.present.shape, math.nan)
        grid[fit.design.cells] = fit.residuals
        return cls(fit.design.dataset, grid)


def _walk(values: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Per block of at most ``_BLOCK`` rows a of a NaN-masked grid, against
    the rows b from the block's first on: the index arrays a and b and the
    (len(a), len(b)) overlap, Pearson rho (clipped to [-1, 1], meaningless
    where the overlap is below 2) and degenerate flag (module docstring).
    Only these outlive a block's arithmetic: its centred sums are freed before
    the yield, not held while the consumer masks the block."""
    present = ~np.isnan(values)
    M = present.astype(float)
    centred = values - np.nanmean(values, axis=1, keepdims=True)
    X = np.where(present, centred, 0.0)
    X2 = X * X
    scale = np.nanmax(np.abs(values), axis=1) ** 2
    S = len(values)
    for first in range(0, S, _BLOCK):
        A, B = slice(first, first + _BLOCK), slice(first, S)
        N = M[A] @ M[B].T
        sx, syx = X[A] @ M[B].T, (X[B] @ M[A].T).T
        sxx, syy = X2[A] @ M[B].T, (X2[B] @ M[A].T).T
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_x, mean_y = sx / N, syx / N
            cxx, cyy = sxx - sx * mean_x, syy - syx * mean_y
            cxy = X[A] @ X[B].T - sx * mean_y
            flat = ((cxx <= N * ZERO_VARIANCE_TOL * scale[A, None])
                    | (cyy <= N * ZERO_VARIANCE_TOL * scale[None, B]))
            rho = np.clip(cxy / np.sqrt(cxx * cyy), -1.0, 1.0)
        del sx, syx, sxx, syy, mean_x, mean_y, cxx, cyy, cxy
        N = N.astype(np.int64)
        yield np.arange(S)[A], np.arange(S)[B], N, rho, flat


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


def _distances(panel: ResidualPanel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) great-circle km between the regions' centroids;
    meaningless where either region has no centroid."""
    ll = np.nan_to_num(panel.centroids)
    return haversine_km(ll[a][:, None, :], ll[b][None, :, :])


def pair_masks(panel: ResidualPanel, group: GroupSpec, a: np.ndarray, b: np.ndarray,
               d: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(passes, no_coordinates) (len(a), len(b)) masks of a group over the
    pairs of its kind's series indices a and b, True only where a < b; a
    rejection by any condition dominates a missing centroid.  ``d`` is the
    block's km distances, computed here if a km bound needs them."""
    ok = np.less.outer(a, b)
    missing = np.zeros_like(ok)
    if group.consecutive:
        years = np.asarray(panel.years)
        ok &= np.abs(np.subtract.outer(years[a], years[b])) == 1
    c = panel.countries
    if group.same_country:
        ok &= np.equal.outer(c[a], c[b])
    if group.different_country:
        ok &= np.not_equal.outer(c[a], c[b])
    if group.country:
        member = c == str(group.country)
        ok &= np.logical_and.outer(member[a], member[b])
    if group.group:
        member = np.array([str(group.group) in g for g in panel.groups], dtype=bool)
        ok &= np.logical_and.outer(member[a], member[b])
    if group.below_km is not None or group.above_km is not None:
        located = ~np.isnan(panel.centroids[:, 0])
        both = np.logical_and.outer(located[a], located[b])
        d = _distances(panel, a, b) if d is None else d
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


def _group_pairs(panel: ResidualPanel, groups: Sequence[GroupSpec], min_overlap: int,
                 with_pairs: bool = False) -> list[tuple[tuple[np.ndarray, ...], dict[str, int]]]:
    """Per group, from one walk per kind: its kept rho in (a < b, row-major)
    order, preceded with ``with_pairs`` by the pairs' series indices a and b
    and followed by their overlap, and its skips by reason."""
    if min_overlap < 2:
        raise ValueError(f"min_overlap must be at least 2 (a correlation needs two points), "
                         f"got {min_overlap}")
    kept, skipped = [[] for _ in groups], [Counter() for _ in groups]
    for kind in dict.fromkeys(g.kind for g in groups):
        mine = [i for i, g in enumerate(groups) if g.kind == kind]
        km = any(groups[i].below_km is not None or groups[i].above_km is not None for i in mine)
        for a, b, overlap, rho, degenerate in _walk(panel.values if kind == "spatial"
                                                    else panel.values.T):
            d = _distances(panel, a, b) if km else None
            short = overlap < min_overlap
            for i in mine:
                passes, no_coordinates = pair_masks(panel, groups[i], a, b, d)
                keep = passes & ~short & ~degenerate
                skipped[i].update({SKIP_NO_COORDINATES: int(no_coordinates.sum()),
                                   SKIP_SHORT_OVERLAP: int((passes & short).sum()),
                                   SKIP_ZERO_VARIANCE: int((passes & ~short & degenerate).sum())})
                if with_pairs:
                    rows, cols = np.nonzero(keep)
                    kept[i].append((a[rows], b[cols], rho[keep], overlap[keep]))
                else:
                    kept[i].append((rho[keep],))
    for i, skips in enumerate(skipped):  # a group's pieces are dropped before the next join
        kept[i] = (tuple(map(np.concatenate, zip(*kept[i]))), dict(+skips))
    return kept


def pair_correlations(panel: ResidualPanel, group: GroupSpec,
                      min_overlap: int = DEFAULT_MIN_OVERLAP) -> PairCorrelations:
    """One group's pair correlations.

    Pairs the group rejects are excluded silently; pairs it cannot evaluate
    (missing centroids), and pairs with fewer than ``min_overlap`` common
    cells or a constant series, are counted under ``skipped``.
    """
    [((a, b, rho, overlap), skipped)] = _group_pairs(panel, [group], min_overlap, with_pairs=True)
    labels = (np.asarray(panel.regions, dtype=object) if group.kind == "spatial"
              else np.asarray(panel.years))
    return PairCorrelations(labels[a], labels[b], rho, overlap, skipped)


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


def correlation_table(panel: ResidualPanel, groups: Sequence[GroupSpec],
                      min_overlap: int = DEFAULT_MIN_OVERLAP) -> list[CorrelationSummary]:
    """Group summaries over the panel, one row per group spec, from one pair
    walk per kind that every group masks block by block; only the kept rho
    values are stored."""
    return [summarize(rho, g.label, g.kind, sum(skipped.values()))
            for g, ((rho,), skipped) in zip(groups, _group_pairs(panel, groups, min_overlap))]
