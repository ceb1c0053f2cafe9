"""Shared builders for the test suite."""

import math

import numpy as np
import pytest

from clusterpanel.panel import (
    ColumnLabel,
    DesignMatrix,
    PanelDataset,
)


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
    """DesignMatrix around raw arrays; cluster_keys land in a custom column 'g'."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if labels is None:
        labels = tuple(ColumnLabel(kind="base", term=f"c{j}", lag=0) for j in range(p))
    row_index = tuple((f"R{i:04d}", 2000) for i in range(n))
    custom = {}
    if cluster_keys is not None:
        custom["g"] = tuple(str(k) for k in cluster_keys)
    return DesignMatrix(
        X=X,
        y=y,
        row_index=row_index,
        column_labels=tuple(labels),
        countries=tuple("C0" for _ in range(n)),
        custom=custom,
        fixed_effects=(),
        fe_levels={},
        dropped_rows=(),
    )


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

    Returns (matrix, labels, levels_out, unseen_count, re_referenced).
    """
    n = len(regions)
    columns, labels, levels_out, re_referenced = [], [], {}, []
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
            labels.append(ColumnLabel(kind="dummy", effect=effect, level=str(x)))
        if levels is not None and not restrict_to_present:
            known = set(lv)
            unseen += sum(1 for v in values if v not in known)
    matrix = np.column_stack(columns) if columns else np.empty((n, 0))
    return matrix, labels, levels_out, unseen, tuple(re_referenced)


def dense_X(design):
    """``design``'s full matrix in ``column_labels`` order: ``X`` plus the
    absorbed region dummies built as 0/1 columns."""
    X = np.empty((design.n, design.p))
    X[:, list(design.x_slots)] = design.X
    if design.region_slots:
        code = design.fe_codes["region"]
        levels = np.arange(1, len(design.region_slots) + 1)
        X[:, list(design.region_slots)] = code[:, None] == levels
    return X


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
