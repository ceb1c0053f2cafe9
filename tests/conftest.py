"""Shared builders for the test suite."""

import csv
import math

import numpy as np
import pytest
from scipy import linalg as sla

from clusterpanel.panel import (
    ColumnLabel,
    CsvSchema,
    DesignMatrix,
    PanelDataset,
)
from clusterpanel.regression import Absorbed, FitResult


def obs(region, country, year, outcome, predictors=None, centroid=None, groups=(), custom=None):
    """One observation as a plain record; ``panel_from`` turns records into a dataset."""
    return {
        "region": region,
        "country": country,
        "year": year,
        "outcome": outcome,
        "predictors": predictors or {},
        "centroid": centroid,
        "groups": frozenset(groups),
        "custom": custom or {},
    }


def panel_from(records, predictor_names=None):
    """PanelDataset from obs() records through its long-format constructor.

    Predictor names default to the sorted union over the records; a record
    without a predictor or custom value gets NaN or "".
    """
    if predictor_names is None:
        predictor_names = sorted({name for r in records for name in r["predictors"]})
    custom_names = {name for r in records for name in r["custom"]}
    centroids = [r["centroid"] or (math.nan, math.nan) for r in records]
    with_centroids = any(r["centroid"] is not None for r in records)
    return PanelDataset(
        [r["region"] for r in records],
        [r["country"] for r in records],
        [r["year"] for r in records],
        [r["outcome"] for r in records],
        {name: [r["predictors"].get(name, math.nan) for r in records] for name in predictor_names},
        lat=[c[0] for c in centroids] if with_centroids else None,
        lon=[c[1] for c in centroids] if with_centroids else None,
        tags=[r["groups"] for r in records],
        custom={name: [r["custom"].get(name, "") for r in records] for name in custom_names},
    )


def near_copy_panel(ds, scale):
    """The balanced ``ds`` with a second predictor z = x + scale max|x| noise,
    the noise standard normal from seed 1: z is nearly collinear with x at
    small scales."""
    x = ds.predictors["x"]
    z = x + scale * np.abs(x).max() * np.random.default_rng(1).standard_normal(x.shape)
    ri, ti = np.nonzero(ds.present)
    return PanelDataset(np.array(ds.regions)[ri], np.array(ds.countries)[ri], ds.first_year + ti,
                        ds.outcome[ri, ti], {"x": x[ri, ti], "z": z[ri, ti]})


def grid_dataset(values, outcome=None, countries=None, centroids=None, predictor="v"):
    """Rectangular dataset from {region: {year: value}}; outcome defaults to 0."""
    observations = []
    for region, series in values.items():
        country = (countries or {}).get(region, "C0")
        centroid = (centroids or {}).get(region)
        for year, v in series.items():
            y = 0.0 if outcome is None else outcome[region][year]
            observations.append(
                obs(region, country, year, y, {predictor: v}, centroid=centroid)
            )
    return panel_from(observations, predictor_names=(predictor,))


def cell(dataset, name, region, year):
    """Grid value of a predictor (or "outcome") at (region, year)."""
    grid = dataset.outcome if name == "outcome" else dataset.predictors[name]
    return grid[dataset.regions.index(region), year - dataset.first_year]


def design_from_arrays(X, y, cluster_keys=None, labels=None):
    """DesignMatrix around raw arrays, row i the cell (R<i>, 2000) of a
    one-year panel; cluster_keys land in its custom column 'g'."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if labels is None:
        labels = tuple(ColumnLabel(kind="base", term=f"c{j}", lag=0) for j in range(p))
    custom = {} if cluster_keys is None else {"g": [str(k) for k in cluster_keys]}
    dataset = PanelDataset([f"R{i:04d}" for i in range(n)], ["C0"] * n, [2000] * n, y, {},
                           custom=custom)
    return DesignMatrix(
        X=X,
        y=y,
        cells=(np.arange(n), np.zeros(n, dtype=np.intp)),
        dataset=dataset,
        column_labels=tuple(labels),
        fe_levels={},
        dropped_rows=(),
    )


def fit_on(design, beta=None, residuals=None, r_squared=0.0):
    """A fit on ``design`` with the given coefficients and residuals (zeros
    by default), solved on ``Absorbed(design)`` as ``ols_fit`` would be, its
    triangle that of the unpivoted QR of the partialled columns."""
    beta = np.zeros(design.p) if beta is None else np.asarray(beta, dtype=float)
    residuals = np.zeros(design.n) if residuals is None else np.asarray(residuals, dtype=float)
    fe = Absorbed(design)
    return FitResult(beta=beta, residuals=residuals, r_squared=r_squared, absorbed=fe,
                     triangle=np.linalg.qr(fe.X, mode="r"))


def row_keys(design):
    """The (region, year) key of every design row, read from its grid cell."""
    ds = design.dataset
    return [(ds.regions[i], ds.first_year + t) for i, t in zip(*(c.tolist() for c in design.cells))]


def keep_grid(dataset, keys):
    """Boolean grid shaped like ``dataset.present``, True at each (region,
    year) key inside the grid; other keys are ignored."""
    grid = np.zeros(dataset.present.shape, dtype=bool)
    for region, year in keys:
        t = year - dataset.first_year
        if region in dataset.regions and 0 <= t < grid.shape[1]:
            grid[dataset.regions.index(region), t] = True
    return grid


def dense_dummies(regions, years, effects, levels=None, restrict_to_present=False):
    """Dummy-encode fixed effects with the first level (sort order) as
    reference, as designs did before the region effect was absorbed; kept as
    the oracle of the absorbed path.

    With ``levels`` given, encodes against that template: rows whose level is
    not in the template get all-zero dummies for that effect and are counted
    as unseen.  With ``restrict_to_present`` the template is filtered to the
    levels actually present (refit on resampled rows); if the template's
    reference level is absent the effect is re-referenced to the first
    present level and reported in ``re_referenced``.

    Returns (matrix, names, levels_out, unseen_count, re_referenced), each
    column named ``effect=level``.
    """
    n = len(regions)
    columns, names, levels_out, re_referenced = [], [], {}, []
    unseen = 0
    for effect in effects:
        values = regions if effect == "region" else years
        if levels is None:
            lv = tuple(sorted(set(values)))
        else:
            lv = tuple(levels[effect])
            if restrict_to_present:
                present = set(values)
                kept = [x for x in lv if x in present]
                if kept[0] != lv[0]:
                    re_referenced.append(effect)
                lv = tuple(sorted(kept)) if kept[0] != lv[0] else tuple(kept)
        levels_out[effect] = lv
        arr = np.asarray(values)
        for x in lv[1:]:
            columns.append((arr == x).astype(float))
            names.append(f"{effect}={x}")
        if levels is not None and not restrict_to_present:
            known = set(lv)
            unseen += sum(1 for v in values if v not in known)
    matrix = np.column_stack(columns) if columns else np.empty((n, 0))
    return matrix, names, levels_out, unseen, tuple(re_referenced)


def dense_X(design):
    """``design``'s full matrix in ``column_names`` order: ``X`` plus the
    absorbed region and year dummies built as 0/1 columns."""
    X = np.empty((design.n, design.p))
    X[:, : design.X.shape[1]] = design.X
    for effect, slots in design.fe_slots.items():
        levels = np.arange(1, len(slots) + 1)
        X[:, list(slots)] = design.fe_codes[effect][:, None] == levels
    return X


def dense_bread(X):
    """(X'X)^-1 as R^-1 R^-T, R the triangle of the QR of ``X``: X'X, whose
    condition number is cond(X)^2, is never formed."""
    R_inv = sla.solve_triangular(np.linalg.qr(X, mode="r"), np.eye(X.shape[1]))
    return R_inv @ R_inv.T


def clustered_sandwich(X, e, clusters, correction="CR1"):
    """The clustered sandwich of the dense design ``X`` and residuals ``e``
    under ``clusters``, its bread ``dense_bread``."""
    n, p = X.shape
    G = clusters.n_clusters
    bread = dense_bread(X)
    scores = np.zeros((G, p))
    np.add.at(scores, clusters.row_cluster, X * e[:, None])
    factor = (G / (G - 1.0)) * ((n - 1.0) / (n - p)) if correction == "CR1" else 1.0
    return bread @ scores.T @ scores @ bread * factor


def _rowwise_float(cell, row_no, column):
    text = cell.strip()
    if text in ("", "NA"):
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"unparseable numeric cell {cell!r} in column {column!r}, row {row_no}"
        ) from None


def rowwise_load_csv(path, schema: CsvSchema) -> PanelDataset:
    """The row-wise CSV loader that ``load_csv`` replaced, kept as its oracle:
    one ``csv.DictReader`` dict per row, one parse and check per cell."""
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
        predictors = {name: [] for name in schema.predictors}
        lat, lon = [], []
        custom = {name: [] for name in schema.custom}
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
                raise ValueError(f"unparseable year {year_text!r} in row {row_no}") from None
            outcome.append(
                _rowwise_float(row[schema.outcome], row_no, schema.outcome)
                if schema.outcome is not None
                else math.nan
            )
            for name, col in schema.predictors.items():
                predictors[name].append(_rowwise_float(row[col], row_no, col))
            if schema.lat is not None:
                la = _rowwise_float(row[schema.lat], row_no, schema.lat)
                lo = _rowwise_float(row[schema.lon], row_no, schema.lon)
                if math.isfinite(la) != math.isfinite(lo):
                    raise ValueError(f"half-missing centroid in row {row_no}")
                if math.isfinite(la):
                    if not -90.0 <= la <= 90.0:
                        raise ValueError(f"latitude {la} outside [-90, 90]")
                    if not -180.0 <= lo <= 180.0:
                        raise ValueError(f"longitude {lo} outside [-180, 180]")
                lat.append(la)
                lon.append(lo)
            row_tags = set()
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


def assert_same_dataset(got: PanelDataset, expected: PanelDataset):
    """Bit-for-bit equality of two datasets: every grid's bytes, labels, tags,
    centroids and custom column."""
    assert got.regions == expected.regions and got.countries == expected.countries
    assert got.first_year == expected.first_year
    assert got.predictor_names == expected.predictor_names
    assert got.custom_names == expected.custom_names
    assert got.present.tobytes() == expected.present.tobytes()
    assert got.outcome.tobytes() == expected.outcome.tobytes()
    for name in expected.predictor_names:
        assert got.predictors[name].tobytes() == expected.predictors[name].tobytes(), name
    for name in expected.custom_names:
        assert got.custom[name].tolist() == expected.custom[name].tolist(), name
    assert got.centroids.tobytes() == expected.centroids.tobytes()
    assert got.groups == expected.groups


@pytest.fixture(autouse=True)
def _cold_cache(tmp_path, monkeypatch):
    """Every test starts with an empty dataset cache of its own, which the
    subprocesses it launches inherit; no test writes into the real home."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
