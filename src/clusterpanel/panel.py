"""Region-country-year panel data model, design matrices, and cluster assignment.

Datasets are stored as columns: one region x calendar-year grid per
variable, plus per-region country membership, optional centroids and
free-form group tags.  Design matrices are built from term specifications
(first differences, distributed lags, moderator interactions) as shifts along
the year axis, plus fixed-effect dummies; every row keeps its (region, year)
provenance so residuals can be traced back to observations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
DEFAULT_MAX_LAG_CEILING = 10

_MISSING_TOKENS = ("", "NA")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _shift(grid: np.ndarray, lag: int) -> np.ndarray:
    """``grid`` moved ``lag`` years later along the year axis, NaN-filled."""
    out = np.full(grid.shape, math.nan)
    if lag < grid.shape[1]:
        out[:, lag:] = grid[:, : grid.shape[1] - lag]
    return out


class PanelDataset:
    """Validated region x year panel stored as columns.

    Sorted regions index the rows of every grid and the calendar years
    ``first_year`` .. ``first_year + T - 1`` its columns, so a lag is a shift
    along the year axis and a missing year is a NaN cell.  ``present`` marks
    the observed cells; ``outcome`` and each ``predictors[name]`` are (R, T)
    float grids with NaN for absent or missing cells; ``custom[name]`` holds
    a free string column per cell ("" where absent).  ``countries``,
    ``centroids`` ((R, 2) lat/lon, NaN for none) and ``groups`` (tag sets)
    are per region.

    The constructor takes long-format columns, one entry per observation:
    region, country and year, the outcome, predictor values by name, and
    optionally lat/lon (NaN for no centroid), tag sets and custom strings.
    It enforces at least one observation, equal column lengths, unique
    (region, year) keys, a single country per region, and consistent
    centroids and group tags per region.
    """

    __slots__ = (
        "regions",
        "countries",
        "first_year",
        "present",
        "outcome",
        "predictors",
        "predictor_names",
        "custom",
        "custom_names",
        "centroids",
        "groups",
        "_index",
    )

    def __init__(
        self,
        region: Sequence[str],
        country: Sequence[str],
        year: Sequence[int],
        outcome: Sequence[float],
        predictors: Mapping[str, Sequence[float]],
        *,
        lat: Sequence[float] | None = None,
        lon: Sequence[float] | None = None,
        tags: Sequence[Iterable[str]] | None = None,
        custom: Mapping[str, Sequence[str]] | None = None,
    ):
        n = len(region)
        if n == 0:
            raise ValueError("dataset needs at least one observation")
        if (lat is None) != (lon is None):
            raise ValueError("lat and lon must be given together")
        custom = {name: custom[name] for name in sorted(custom or {})}
        columns = [("country", country), ("year", year), ("outcome", outcome), ("lat", lat),
                   ("lon", lon), ("tags", tags), *predictors.items(), *custom.items()]
        for name, values in columns:
            if values is not None and len(values) != n:
                raise ValueError(f"column {name!r} has {len(values)} values, expected {n}")

        names, rcode = np.unique(np.asarray(region, dtype=str), return_inverse=True)
        year = np.asarray(year, dtype=np.int64)
        first = int(year.min())
        R, T = len(names), int(year.max()) - first + 1
        key = rcode * T + (year - first)
        order = np.argsort(key, kind="stable")
        dup = np.flatnonzero(key[order][1:] == key[order][:-1])
        if dup.size:
            r, t = divmod(int(key[order][dup[0]]), T)
            raise ValueError(f"duplicate (region, year) observation: {(str(names[r]), first + t)}")

        # per-region values come from the region's first row in (region, year)
        # order; ``head`` maps each sorted row to that row
        rs = rcode[order]
        starts = np.flatnonzero(np.r_[True, rs[1:] != rs[:-1]])
        head = starts[rs]
        cs = np.asarray(country, dtype=str)[order]
        ll = np.full((n, 2), math.nan) if lat is None else np.column_stack([lat, lon]).astype(float)
        ll = ll[order]
        groups = np.fromiter(
            (frozenset(t) for t in tags) if tags is not None else (frozenset(),) * n,
            dtype=object, count=n,
        )[order]
        differs = (
            ("country", cs != cs[head]),
            ("centroids", ((ll != ll[head]) & ~(np.isnan(ll) & np.isnan(ll[head]))).any(axis=1)),
            ("group tags", groups != groups[head]),
        )
        for what, bad in differs:
            if bad.any():
                i = int(np.argmax(bad))
                region_id = str(names[rs[i]])
                if what == "country":
                    raise ValueError(
                        f"region {region_id!r} maps to multiple countries: "
                        f"{str(cs[head[i]])!r} and {str(cs[i])!r}"
                    )
                raise ValueError(f"region {region_id!r} carries inconsistent {what}")

        cells = (rcode, year - first)

        def grid(values, fill, dtype):
            g = np.full((R, T), fill, dtype=dtype)
            g[cells] = np.asarray(values, dtype=dtype)
            g.setflags(write=False)
            return g

        self.regions: tuple[str, ...] = tuple(names.tolist())
        self.countries: tuple[str, ...] = tuple(cs[starts].tolist())
        self.first_year = first
        self.present = grid(np.ones(n, dtype=bool), False, bool)
        self.outcome = grid(outcome, math.nan, float)
        self.predictors = {name: grid(v, math.nan, float) for name, v in predictors.items()}
        self.predictor_names = tuple(predictors)
        self.custom = {name: grid(v, "", object) for name, v in custom.items()}
        self.custom_names = tuple(custom)
        self._index = {r: i for i, r in enumerate(self.regions)}
        self.centroids = ll[starts]
        self.centroids.setflags(write=False)
        self.groups = tuple(groups[starts])

    @property
    def n_observations(self) -> int:
        return int(self.present.sum())

    @property
    def years(self) -> tuple[int, ...]:
        """Calendar years with at least one observation."""
        return tuple((self.first_year + np.flatnonzero(self.present.any(axis=0))).tolist())

    def country_of(self, region_id: str) -> str:
        return self.countries[self._index[region_id]]

    def centroid_of(self, region_id: str) -> tuple[float, float] | None:
        lat, lon = self.centroids[self._index[region_id]].tolist()
        return None if math.isnan(lat) else (lat, lon)

    def groups_of(self, region_id: str) -> frozenset[str]:
        return self.groups[self._index[region_id]]

    def cell_keys(self, mask: np.ndarray) -> list[tuple[str, int]]:
        """(region, year) keys of the cells of a grid mask, in (region, year) order."""
        ri, ti = np.nonzero(mask)
        regions = np.array(self.regions, dtype=object)[ri].tolist()
        return list(zip(regions, (ti + self.first_year).tolist()))

    def cell_mask(self, keys: Iterable[tuple[str, int]]) -> np.ndarray:
        """Grid mask of the observed cells among (region, year) keys."""
        mask = np.zeros_like(self.present)
        keys = list(keys)
        if keys:
            names = np.array(self.regions)
            region, year = (np.asarray(column) for column in zip(*keys))
            i = np.minimum(np.searchsorted(names, region), len(names) - 1)
            t = year - self.first_year
            ok = (names[i] == region) & (t >= 0) & (t < mask.shape[1])
            mask[i[ok], t[ok]] = True
        return mask & self.present

    def predictor_median(self, name: str) -> float:
        """Median of a predictor over all non-missing cells."""
        grid = self.predictors[name]
        vals = grid[np.isfinite(grid)]
        if not vals.size:
            raise ValueError(f"predictor {name!r} has no finite values")
        return float(np.median(vals))

    def year_gaps(self) -> dict[str, tuple[int, ...]]:
        """Missing interior years per region (empty tuples omitted).

        Differences and lags align on calendar years, so these are the years
        whose absence makes neighboring derived values missing.
        """
        gaps: dict[str, tuple[int, ...]] = {}
        for region, row in zip(self.regions, self.present):
            seen = np.flatnonzero(row)
            missing = np.setdiff1d(np.arange(seen[0], seen[-1] + 1), seen)
            if missing.size:
                gaps[region] = tuple((missing + self.first_year).tolist())
        return gaps


@dataclass(frozen=True)
class TermSpec:
    """One regression term: a variable, optionally first-differenced, with a
    distributed lag 0..max_lag and an optional moderator interaction."""

    variable: str
    differenced: bool = True
    moderator: str | None = None
    max_lag: int = 0


@dataclass(frozen=True)
class ModelSpec:
    """Terms plus fixed effects and intercept.  An empty term list is the
    trivial model (intercept/fixed effects only)."""

    terms: tuple[TermSpec, ...] = ()
    fixed_effects: tuple[str, ...] = ()
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        fe = tuple(self.fixed_effects)
        bad = set(fe) - {"region", "year"}
        if bad:
            raise ValueError(f"unknown fixed effects {sorted(bad)}; use 'region' and/or 'year'")
        if len(set(fe)) != len(fe):
            raise ValueError("duplicate fixed effect")
        # canonical order: region before year
        object.__setattr__(
            self, "fixed_effects", tuple(e for e in ("region", "year") if e in fe)
        )


def term_label(term: TermSpec) -> str:
    """Canonical short label: 'd.<var>' for differenced variables, else '<var>'."""
    return f"d.{term.variable}" if term.differenced else term.variable


_SCHEME_KINDS = ("region", "region_year", "country", "country_year", "year", "custom")


@dataclass(frozen=True)
class ClusterScheme:
    """A rule partitioning design rows into clusters."""

    kind: str
    column: str | None = None

    def __post_init__(self):
        if self.kind not in _SCHEME_KINDS:
            raise ValueError(f"unknown cluster scheme {self.kind!r}; use one of {_SCHEME_KINDS}")
        if self.kind == "custom" and not self.column:
            raise ValueError("custom cluster scheme needs a column name")
        if self.kind != "custom" and self.column is not None:
            raise ValueError("column only applies to the custom scheme")

    @property
    def label(self) -> str:
        return f"custom:{self.column}" if self.kind == "custom" else self.kind

    @classmethod
    def parse(cls, text: str) -> "ClusterScheme":
        if text.startswith("custom:"):
            return cls("custom", text.split(":", 1)[1])
        return cls(text)


REGION = ClusterScheme("region")
REGION_YEAR = ClusterScheme("region_year")
COUNTRY = ClusterScheme("country")
COUNTRY_YEAR = ClusterScheme("country_year")
YEAR = ClusterScheme("year")


@dataclass(frozen=True)
class ColumnLabel:
    """Provenance of one design column."""

    kind: str  # intercept | base | interaction | dummy
    term: str | None = None
    lag: int | None = None
    moderator: str | None = None
    effect: str | None = None
    level: str | None = None

    @property
    def name(self) -> str:
        if self.kind == "intercept":
            return "intercept"
        if self.kind == "base":
            return f"{self.term}.l{self.lag}"
        if self.kind == "interaction":
            return f"{self.term}.l{self.lag}:{self.moderator}"
        return f"{self.effect}={self.level}"


@dataclass(frozen=True)
class DesignMatrix:
    """Built predictor matrix with row provenance.

    Rows requiring unavailable lagged or differenced values are dropped and
    recorded in ``dropped_rows``.  ``fe_levels`` keeps the dummy levels per
    effect, reference level first.
    """

    X: np.ndarray
    y: np.ndarray
    row_index: tuple[tuple[str, int], ...]
    column_labels: tuple[ColumnLabel, ...]
    countries: tuple[str, ...]
    custom: Mapping[str, tuple[str, ...]]
    fixed_effects: tuple[str, ...]
    fe_levels: Mapping[str, tuple]
    dropped_rows: tuple[tuple[str, int], ...]

    def __post_init__(self):
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(lab.name for lab in self.column_labels)

    @property
    def core_column_indices(self) -> tuple[int, ...]:
        """Indices of non-dummy columns (intercept and term columns)."""
        return tuple(j for j, lab in enumerate(self.column_labels) if lab.kind != "dummy")


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of design rows under a scheme; keys sorted canonically."""

    scheme: ClusterScheme
    keys: tuple
    row_cluster: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        self.row_cluster.setflags(write=False)
        self.sizes.setflags(write=False)

    @property
    def n_clusters(self) -> int:
        return len(self.keys)

    @property
    def n_rows(self) -> int:
        return len(self.row_cluster)

    def rows_by_cluster(self) -> list[np.ndarray]:
        order = np.argsort(self.row_cluster, kind="stable")
        bounds = np.searchsorted(self.row_cluster[order], np.arange(self.n_clusters + 1))
        return [order[bounds[g] : bounds[g + 1]] for g in range(self.n_clusters)]


# ---------------------------------------------------------------------------
# CSV input / output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion.

    ``predictors`` maps predictor names to CSV columns.  ``groups`` lists
    columns holding semicolon-separated tags.  ``custom`` maps custom key
    names to string columns.  ``outcome`` may be None for files without an
    outcome column (scenario predictor paths).
    """

    region: str
    country: str
    year: str
    outcome: str | None
    predictors: Mapping[str, str]
    lat: str | None = None
    lon: str | None = None
    groups: Sequence[str] = ()
    custom: Mapping[str, str] = field(default_factory=dict)
    delimiter: str = ","

    @classmethod
    def canonical(
        cls,
        predictor_names: Sequence[str],
        with_centroids: bool = False,
        with_groups: bool = False,
        custom_names: Sequence[str] = (),
    ) -> "CsvSchema":
        """Schema matching save_csv's canonical layout."""
        return cls(
            region="region",
            country="country",
            year="year",
            outcome="outcome",
            predictors={name: name for name in predictor_names},
            lat="lat" if with_centroids else None,
            lon="lon" if with_centroids else None,
            groups=("groups",) if with_groups else (),
            custom={name: name for name in custom_names},
        )


def _parse_float(cell: str, row_no: int, column: str) -> float:
    text = cell.strip()
    if text in _MISSING_TOKENS:
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unparseable numeric cell {cell!r} in column {column!r}, row {row_no}") from None


def load_csv(path, schema: CsvSchema) -> PanelDataset:
    """Load a panel from a delimited UTF-8 file with a header row.

    Missing numeric cells (empty or 'NA') become NaN.  Errors report the
    CSV row number (header is row 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=schema.delimiter)
        header = reader.fieldnames or []
        needed = [schema.region, schema.country, schema.year]
        if schema.outcome is not None:
            needed.append(schema.outcome)
        needed.extend(schema.predictors.values())
        if schema.lat is not None or schema.lon is not None:
            if schema.lat is None or schema.lon is None:
                raise ValueError("lat and lon must be mapped together")
            needed.extend([schema.lat, schema.lon])
        needed.extend(schema.groups)
        needed.extend(schema.custom.values())
        missing = [c for c in needed if c not in header]
        if missing:
            raise ValueError(f"columns missing from {path}: {missing}")

        region, country, year, outcome, tags = [], [], [], [], []
        predictors: dict[str, list[float]] = {name: [] for name in schema.predictors}
        lat: list[float] = []
        lon: list[float] = []
        custom: dict[str, list[str]] = {name: [] for name in schema.custom}
        for row_no, row in enumerate(reader, start=2):
            # DictReader pads a short row with None and files a long row's
            # extra cells under the key None
            if None in row or None in row.values():
                cells = len(header) + len(row.get(None, ())) - list(row.values()).count(None)
                raise ValueError(f"row {row_no} has {cells} cells, expected {len(header)}")
            year_text = (row[schema.year] or "").strip()
            try:
                year.append(int(year_text))
            except ValueError:
                raise ValueError(
                    f"unparseable year {year_text!r} in row {row_no}"
                ) from None
            outcome.append(
                _parse_float(row[schema.outcome], row_no, schema.outcome)
                if schema.outcome is not None
                else math.nan
            )
            for name, col in schema.predictors.items():
                predictors[name].append(_parse_float(row[col], row_no, col))
            if schema.lat is not None:
                la = _parse_float(row[schema.lat], row_no, schema.lat)
                lo = _parse_float(row[schema.lon], row_no, schema.lon)
                if math.isfinite(la) != math.isfinite(lo):
                    raise ValueError(f"half-missing centroid in row {row_no}")
                if math.isfinite(la):
                    _check_coordinates(la, lo)
                lat.append(la)
                lon.append(lo)
            row_tags: set[str] = set()
            for col in schema.groups:
                row_tags.update(t.strip() for t in (row[col] or "").split(";") if t.strip())
            tags.append(row_tags)
            for name, col in schema.custom.items():
                custom[name].append((row[col] or "").strip())
            region.append((row[schema.region] or "").strip())
            country.append((row[schema.country] or "").strip())
    with_centroids = schema.lat is not None
    return PanelDataset(
        region, country, year, outcome, predictors,
        lat=lat if with_centroids else None, lon=lon if with_centroids else None,
        tags=tags, custom=custom,
    )


def _fmt(x: float) -> str:
    return "NA" if not math.isfinite(x) else repr(float(x))


def save_csv(dataset: PanelDataset, path, delimiter: str = ",") -> CsvSchema:
    """Write a dataset in the canonical column layout; returns the matching schema.

    Floats are written with full repr precision so save/load round-trips
    bit-identically.
    """
    with_centroids = any(dataset.centroid_of(r) is not None for r in dataset.regions)
    with_groups = any(dataset.groups_of(r) for r in dataset.regions)
    schema = replace(
        CsvSchema.canonical(
            dataset.predictor_names,
            with_centroids=with_centroids,
            with_groups=with_groups,
            custom_names=dataset.custom_names,
        ),
        delimiter=delimiter,
    )
    header = ["region", "country", "year", "outcome", *dataset.predictor_names]
    if with_centroids:
        header += ["lat", "lon"]
    if with_groups:
        header += ["groups"]
    header += list(dataset.custom_names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        present = dataset.present
        for (region, year), i, t in zip(dataset.cell_keys(present), *np.nonzero(present)):
            row = [region, dataset.countries[i], str(year), _fmt(dataset.outcome[i, t])]
            row += [_fmt(dataset.predictors[name][i, t]) for name in dataset.predictor_names]
            if with_centroids:
                centroid = dataset.centroid_of(region)
                row += ["NA", "NA"] if centroid is None else [_fmt(centroid[0]), _fmt(centroid[1])]
            if with_groups:
                row += [";".join(sorted(dataset.groups_of(region)))]
            row += [dataset.custom[name][i, t] for name in dataset.custom_names]
            writer.writerow(row)
    return schema


# ---------------------------------------------------------------------------
# Design matrix construction
# ---------------------------------------------------------------------------


def _validate_spec(dataset: PanelDataset, spec: ModelSpec, max_lag_ceiling: int) -> None:
    known = set(dataset.predictor_names)
    for term in spec.terms:
        if term.variable not in known:
            raise ValueError(f"unknown predictor {term.variable!r} in term spec")
        if term.moderator is not None and term.moderator not in known:
            raise ValueError(f"unknown moderator {term.moderator!r} in term spec")
        if not 0 <= term.max_lag <= max_lag_ceiling:
            raise ValueError(
                f"max_lag {term.max_lag} outside 0..{max_lag_ceiling} for {term.variable!r}"
            )


def fixed_effect_dummies(
    regions: Sequence[str],
    years: Sequence[int],
    effects: Sequence[str],
    levels: Mapping[str, tuple] | None = None,
    restrict_to_present: bool = False,
):
    """Dummy-encode fixed effects with the first level (sort order) as reference.

    With ``levels`` given, encodes against that template: rows whose level is
    not in the template get all-zero dummies for that effect and are counted
    as unseen.  With ``restrict_to_present`` the template is filtered to the
    levels actually present (refit on resampled rows); if the template's
    reference level is absent the effect is re-referenced to the first
    present level and reported in ``re_referenced``.

    Returns (matrix, labels, levels_out, unseen_count, re_referenced).
    """
    n = len(regions)
    columns: list[np.ndarray] = []
    labels: list[ColumnLabel] = []
    levels_out: dict[str, tuple] = {}
    unseen = 0
    re_referenced: list[str] = []
    for effect in effects:
        values = regions if effect == "region" else years
        if levels is None:
            lv = tuple(sorted(set(values)))
        else:
            lv = tuple(levels[effect])
            if restrict_to_present:
                present = set(values)
                kept = [x for x in lv if x in present]
                if not kept:
                    raise ValueError(f"no known {effect} level present in rows")
                if kept[0] != lv[0]:
                    re_referenced.append(effect)
                lv = tuple(sorted(kept)) if kept[0] != lv[0] else tuple(kept)
        levels_out[effect] = lv
        arr = np.asarray(values)
        for x in lv[1:]:
            columns.append((arr == x).astype(float))
            labels.append(ColumnLabel(kind="dummy", effect=effect, level=str(x)))
        if levels is not None and not restrict_to_present:
            known = set(lv)
            unseen += sum(1 for v in values if v not in known)
    matrix = np.column_stack(columns) if columns else np.empty((n, 0))
    return matrix, labels, levels_out, unseen, tuple(re_referenced)


def build_design(
    dataset: PanelDataset,
    spec: ModelSpec,
    *,
    moderator_alignment: str = "contemporaneous",
    max_lag_ceiling: int = DEFAULT_MAX_LAG_CEILING,
    keep_rows: Iterable[tuple[str, int]] | None = None,
    require_outcome: bool = True,
) -> DesignMatrix:
    """Build the design matrix for a model spec.

    Per term, columns are the base value at lags 0..max_lag and, when a
    moderator is given, the base value times the moderator.  The moderator
    enters undifferenced; ``moderator_alignment`` picks its year: the row's
    own year ("contemporaneous", default) or the lagged year ("lag_aligned").
    Rows with any missing required value are dropped and recorded.
    ``keep_rows`` restricts the result to a caller-chosen subset of
    (region, year) keys without recording the exclusions as drops.
    """
    if moderator_alignment not in ("contemporaneous", "lag_aligned"):
        raise ValueError(f"unknown moderator_alignment {moderator_alignment!r}")
    _validate_spec(dataset, spec, max_lag_ceiling)
    rows = dataset.present if keep_rows is None else dataset.cell_mask(keep_rows)
    ok = np.isfinite(dataset.outcome) if require_outcome else np.ones_like(rows)

    labels: list[ColumnLabel] = []
    grids: list[np.ndarray] = []
    if spec.intercept:
        labels.append(ColumnLabel(kind="intercept"))
        grids.append(np.ones(rows.shape))
    for term in spec.terms:
        lbl = term_label(term)
        lags = range(term.max_lag + 1)
        v = dataset.predictors[term.variable]
        # base value: the variable, or its difference against calendar year-1
        base = v - _shift(v, 1) if term.differenced else v
        lagged = [_shift(base, lag) for lag in lags]
        for lag, b in zip(lags, lagged):
            ok = ok & np.isfinite(b)
            labels.append(ColumnLabel(kind="base", term=lbl, lag=lag, moderator=term.moderator))
        grids += lagged
        if term.moderator is not None:
            m = dataset.predictors[term.moderator]
            for lag, b in zip(lags, lagged):
                # the moderator enters undifferenced, at the row's year or the lagged one
                mod = m if moderator_alignment == "contemporaneous" else _shift(m, lag)
                ok = ok & np.isfinite(mod)
                labels.append(
                    ColumnLabel(kind="interaction", term=lbl, lag=lag, moderator=term.moderator)
                )
                grids.append(b * mod)

    used = rows & ok
    ri, ti = np.nonzero(used)
    if not ri.size:
        raise ValueError("empty design after lag trimming")
    X_core = np.stack(grids, axis=-1)[ri, ti] if grids else np.empty((ri.size, 0))
    y = dataset.outcome[ri, ti]
    regions = np.array(dataset.regions, dtype=object)[ri].tolist()
    years = (ti + dataset.first_year).tolist()

    fe = spec.fixed_effects
    D, fe_labels, fe_levels, _, _ = fixed_effect_dummies(regions, years, fe)
    X = np.hstack([X_core, D]) if D.shape[1] else X_core
    labels.extend(fe_labels)

    return DesignMatrix(
        X=X,
        y=y,
        row_index=tuple(zip(regions, years)),
        column_labels=tuple(labels),
        countries=tuple(np.array(dataset.countries, dtype=object)[ri].tolist()),
        custom={name: tuple(grid[ri, ti].tolist()) for name, grid in dataset.custom.items()},
        fixed_effects=fe,
        fe_levels=fe_levels,
        dropped_rows=tuple(dataset.cell_keys(rows & ~ok)),
    )


def assign_clusters(design: DesignMatrix, scheme: ClusterScheme) -> ClusterAssignment:
    """Partition design rows into clusters under a scheme.

    Deterministic: cluster keys are sorted and indexed canonically.
    """
    if design.n == 0:
        raise ValueError("design is empty")
    if scheme.kind == "region":
        keys = [r for r, _ in design.row_index]
    elif scheme.kind == "region_year":
        keys = list(design.row_index)
    elif scheme.kind == "country":
        keys = list(design.countries)
    elif scheme.kind == "country_year":
        keys = [(c, t) for c, (_, t) in zip(design.countries, design.row_index)]
    elif scheme.kind == "year":
        keys = [t for _, t in design.row_index]
    else:
        if scheme.column not in design.custom:
            raise ValueError(f"custom cluster column {scheme.column!r} not in dataset")
        keys = list(design.custom[scheme.column])
    uniq = sorted(set(keys))
    index = {k: i for i, k in enumerate(uniq)}
    row_cluster = np.fromiter((index[k] for k in keys), dtype=np.intp, count=len(keys))
    sizes = np.bincount(row_cluster, minlength=len(uniq))
    return ClusterAssignment(
        scheme=scheme, keys=tuple(uniq), row_cluster=row_cluster, sizes=sizes
    )


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def _check_coordinates(lat: float, lon: float) -> None:
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} outside [-180, 180]")


def haversine_km(a, b):
    """Great-circle distance in km between (lat, lon) points, R = 6371 km.

    ``a`` and ``b`` are (lat, lon) pairs, or arrays whose last axis is
    (lat, lon); they broadcast, and a pair of points gives a float.
    """
    (lat1, lon1), (lat2, lon2) = (np.moveaxis(np.asarray(p, dtype=float), -1, 0) for p in (a, b))
    for lat, lon in ((lat1, lon1), (lat2, lon2)):
        bad = ~((np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0))
        if bad.any():
            i = int(np.argmax(bad))
            _check_coordinates(float(np.ravel(lat)[i]), float(np.ravel(lon)[i]))
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    return float(d) if d.ndim == 0 else d
