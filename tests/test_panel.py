import codecs
import csv
import importlib.util
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from clusterpanel.panel import (
    COUNTRY,
    COUNTRY_YEAR,
    REGION,
    REGION_YEAR,
    YEAR,
    ClusterAssignment,
    ClusterScheme,
    CsvSchema,
    ModelSpec,
    PanelDataset,
    TermSpec,
    assign_clusters,
    build_design,
    haversine_km,
    load_csv,
    save_csv,
)
from clusterpanel.bootstrap import build_scenario_path
from clusterpanel.regression import ols_fit
from clusterpanel.simstudy import DgpConfig, generate_panel

from conftest import (assert_same_dataset, cell, dense_X, dense_dummies, grid_dataset, keep_grid,
                      obs, panel_from, row_keys, rowwise_load_csv)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BASIC_SCHEMA = CsvSchema(
    region="region", country="country", year="year", outcome="growth",
    predictors={"temp": "temp"},
)


def test_load_csv_minimal(tmp_path):
    p = write_csv(
        tmp_path / "panel.csv",
        "region,country,year,growth,temp\n"
        "R1,A,2000,0.1,10.0\n"
        "R1,A,2001,0.2,11.0\n"
        "R2,A,2000,0.3,12.0\n"
        "R2,A,2001,0.4,13.0\n",
    )
    ds = load_csv(p, BASIC_SCHEMA)
    assert ds.present.sum() == 4
    assert ds.regions == ("R1", "R2")
    assert cell(ds, "temp", "R2", 2001) == 13.0


def test_load_csv_region_in_two_countries(tmp_path):
    p = write_csv(
        tmp_path / "panel.csv",
        "region,country,year,growth,temp\nR1,A,2000,0.1,1\nR1,B,2001,0.1,1\n",
    )
    with pytest.raises(ValueError, match="multiple countries"):
        load_csv(p, BASIC_SCHEMA)


def test_load_csv_duplicate_region_year(tmp_path):
    p = write_csv(
        tmp_path / "panel.csv",
        "region,country,year,growth,temp\nR1,A,2000,0.1,1\nR1,A,2000,0.2,2\n",
    )
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(p, BASIC_SCHEMA)


def test_load_csv_unparseable_cell_reports_row(tmp_path):
    p = write_csv(
        tmp_path / "panel.csv",
        "region,country,year,growth,temp\nR1,A,2000,0.1,1\nR1,A,2001,oops,1\n",
    )
    with pytest.raises(ValueError, match="row 3"):
        load_csv(p, BASIC_SCHEMA)


@pytest.mark.parametrize(
    "row, cells", [("R1,A,2001", 3), ("R1,A,2001,0.2,1,extra", 6)], ids=["short", "long"]
)
def test_load_csv_ragged_row_reports_row_and_counts(row, cells, tmp_path):
    p = write_csv(
        tmp_path / "panel.csv", f"region,country,year,growth,temp\nR1,A,2000,0.1,1\n{row}\n"
    )
    with pytest.raises(ValueError, match=f"row 3 has {cells} cells, expected 5"):
        load_csv(p, BASIC_SCHEMA)


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path / "panel.csv", "region,country,year,growth\nR1,A,2000,0.1\n")
    with pytest.raises(ValueError, match="missing"):
        load_csv(p, BASIC_SCHEMA)


def test_load_csv_missing_cells_and_tags(tmp_path):
    schema = CsvSchema(
        region="region", country="country", year="year", outcome="growth",
        predictors={"temp": "temp"}, lat="lat", lon="lon", groups=("tags",),
    )
    p = write_csv(
        tmp_path / "panel.csv",
        "region,country,year,growth,temp,lat,lon,tags\n"
        "R1,A,2000,NA,,52.0,13.0,EU28;EU95\n"
        "R1,A,2001,0.2,11.0,52.0,13.0,EU28;EU95\n",
    )
    ds = load_csv(p, schema)
    assert math.isnan(cell(ds, "outcome", "R1", 2000))
    assert math.isnan(cell(ds, "temp", "R1", 2000))
    assert ds.groups == (frozenset({"EU28", "EU95"}),)
    assert ds.centroid_of("R1") == (52.0, 13.0)


def _tagged_panel():
    """Tags, custom strings that need quoting, and a region without a centroid."""
    return PanelDataset(
        ["R1", "R1", "R2", "R2", "R3"], ["A", "A", "B", "B", "B"],
        [2000, 2002, 2000, 2001, 2001],
        [0.1, np.nan, 1 / 3, -2.5e-300, 7.0], {"x": [1.0, 2.0, np.nan, 4.0, 5.0]},
        lat=[52.0, 52.0, -33.9, -33.9, np.nan], lon=[13.4, 13.4, 151.2, 151.2, np.nan],
        tags=[{"EU", "G7"}, {"EU", "G7"}, set(), set(), {"OECD"}],
        custom={"note": ['a, "quoted" b', "c", "", "d;e", "f"]},
    )


def _inner_spaces_panel():
    """Strings with inner whitespace, which load_csv keeps."""
    return PanelDataset(
        ["New York", "New York", "Rio de Janeiro"], ["United States", "United States", "Brazil"],
        [2000, 2001, 2000], [1.0, 2.0, 3.0], {"x": [0.5, 0.25, 0.125]},
        tags=[{"G 7", "EU"}, {"G 7", "EU"}, {"BRICS  plus"}],
        custom={"note": ["a b", "tab\tinside", ""], "other": ["x  y", "z", "w"]},
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_panel(DgpConfig(n_regions=200, n_years=21, countries=10), seed=99),
        _tagged_panel,
        # 100 regions per country, so the synthetic longitudes wrap past 180
        lambda: generate_panel(DgpConfig(n_regions=1500, n_years=2, countries=15), seed=5),
        _inner_spaces_panel,
    ],
    ids=["generated", "tags_custom_no_centroid", "wrapped_longitude", "inner_spaces"],
)
def test_save_load_round_trip(make, tmp_path):
    ds = make()
    path = tmp_path / "panel.csv"
    schema = save_csv(ds, path)
    assert_same_dataset(load_csv(path, schema), ds)  # bit-identical float round trip


def _oracle_case(name, tmp_path):
    """(path, schema) of a CSV that both loaders read."""
    if name == "sample":
        return SAMPLE_DIR / "panel.csv", SAMPLE_SCHEMA
    if name == "scenario_no_outcome":
        return SAMPLE_DIR / "scenario_low.csv", replace(SAMPLE_SCHEMA, outcome=None)
    gappy = CsvSchema(region="region", country="country", year="year", outcome="growth",
                      predictors={"temp": "temp"}, lat="lat", lon="lon",
                      groups=("tags", "more_tags"), custom={"note": "note"})
    texts = {
        "gappy": (gappy, "region,country,year,growth,temp,lat,lon,tags,more_tags,note\n"
                         "R2,B,2001, 0.5 ,NA,48.9,2.4,EU;,G7,b\n"
                         " R1 ,A,2000,NA,,52.0,13.0,EU28; EU95,, a \n"
                         "R1,A,2003,,1e-3,52.0,13.0,EU28; EU95,,\n"
                         "R3,B,1999,-2,NA,NA,,,,c\n"
                         "R3,B,2001,1.5e300,-0.0,,NA,,,\n"),
        "quoted_delimiter": (replace(gappy, delimiter=";"),
                             "region;country;year;growth;temp;lat;lon;tags;more_tags;note\n"
                             '"R;1";A;2000;0.1;1;1.5;2.5;"EU;G7";;"x;y"\n'
                             '"R;1";A;2001;0.2;2;1.5;2.5;"EU;G7";;"say ""hi"""\n'),
        # a column without missing tokens goes through numpy's cast, one with
        # them through the cell-by-cell parse; both strip and take underscores
        "padded_cells": (replace(BASIC_SCHEMA, lat="lat", lon="lon"),
                         "region,country,year,growth,temp,lat,lon\n"
                         "R1,A, 2000 , NA ,\t1_0,1.5 , 2.5\n"
                         "R1,A,2_001,1_0.5,-.5e1_0 ,1.5,2.5\n"
                         "R2,B,2000,\tNA\t, +0.25,-1_0,3_0\n"
                         "R2,B,2001 , 2.5 ,1e-3_0,-1_0,3_0\n"),
        "blank_lines": (BASIC_SCHEMA, "region,country,year,growth,temp\n\n"
                                      "R1,A,2000,0.1,10.0\n\n\nR1,A,2001,0.2,11.0\n\n"),
        "header_only": (BASIC_SCHEMA, "region,country,year,growth,temp\n"),
    }
    schema, text = texts[name]
    return write_csv(tmp_path / f"{name}.csv", text), schema


def _load_or_message(loader, path, schema):
    try:
        return loader(path, schema)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["sample", "scenario_no_outcome", "gappy", "quoted_delimiter",
                                  "padded_cells", "blank_lines", "header_only"])
def test_load_csv_matches_rowwise_oracle(name, tmp_path):
    path, schema = _oracle_case(name, tmp_path)
    got = _load_or_message(load_csv, path, schema)
    expected = _load_or_message(rowwise_load_csv, path, schema)
    if name == "header_only":
        assert got == expected == "dataset needs at least one observation"
    else:
        assert_same_dataset(got, expected)


_HEADER = "region,country,year,growth,temp,lat,lon\n"
_ROWS = "".join(f"R{i},A,2000,0.1,1,1.0,2.0\n" for i in range(5000))


@pytest.mark.parametrize(
    "text, message",
    [
        (_HEADER + "R1,A,2000,0.1,1,1,2\n\nR1,A,2001,oops,1,1,2\n",
         "unparseable numeric cell 'oops' in column 'growth', row 3"),
        (_HEADER + "\nR1,A,2000,0.1,1,1,2\nR1,A, 20x1 ,0.2,1,1,2\n",
         "unparseable year '20x1' in row 3"),
        (_HEADER + "R1,A,2000,0.1,1,1,2\n\n\nR1,A,2001\n", "row 3 has 3 cells, expected 7"),
        (_HEADER + "\nR1,A,2001,0.2,1,1,2,extra\n", "row 2 has 8 cells, expected 7"),
        (_HEADER + _ROWS + "R9,A,2000,0.1,1,1.0,2.0\nR9,A,2001,0.1,x1,1.0,2.0\n",
         "unparseable numeric cell 'x1' in column 'temp', row 5003"),
        (_HEADER + "R1,A,2000,0.1,1,91.0,2.0\n", r"latitude 91.0 outside [-90, 90]"),
        (_HEADER + "R1,A,2000,0.1,1,1.0,-180.5\n", r"longitude -180.5 outside [-180, 180]"),
    ],
    ids=["number", "year", "short_row", "long_row", "second_block", "latitude", "longitude"],
)
def test_load_csv_errors_match_rowwise_oracle(text, message, tmp_path):
    path = write_csv(tmp_path / "bad.csv", text)
    schema = replace(BASIC_SCHEMA, lat="lat", lon="lon")
    assert _load_or_message(load_csv, path, schema) == message
    assert _load_or_message(rowwise_load_csv, path, schema) == message


# ---------------------------------------------------------------------------
# Dataset invariants
# ---------------------------------------------------------------------------


def test_inconsistent_centroid_rejected():
    rows = [
        obs("R1", "A", 2000, 0.0, {"v": 1.0}, centroid=(1.0, 2.0)),
        obs("R1", "A", 2001, 0.0, {"v": 1.0}, centroid=(1.0, 2.5)),
    ]
    with pytest.raises(ValueError, match="centroid"):
        panel_from(rows)


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"region": []}, "at least one observation"),
        ({"outcome": [0.0]}, "column 'outcome' has 1 values, expected 2"),
        ({"predictors": {"v": [1.0, 2.0, 3.0]}}, "column 'v' has 3 values, expected 2"),
        ({"year": [2001, 2001]}, r"duplicate \(region, year\) observation: \('R1', 2001\)"),
        ({"country": ["A", "B"]}, "region 'R1' maps to multiple countries: 'B' and 'A'"),
        ({"tags": [{"EU"}, set()]}, "region 'R1' carries inconsistent group tags"),
        ({"lat": [1.0, 1.0]}, "lat and lon must be given together"),
        ({"lat": [1.0, np.nan], "lon": [2.0, np.nan]}, "region 'R1' carries inconsistent centroids"),
        ({"lat": [1.0, 1.0], "lon": [2.0, np.nan]}, "region 'R1' has a half-missing centroid"),
        ({"lat": [91.0, 91.0], "lon": [2.0, 2.0]}, r"latitude 91.0 outside \[-90, 90\]"),
        ({"lat": [1.0, 1.0], "lon": [182.0, 182.0]}, r"longitude 182.0 outside \[-180, 180\]"),
        # load_csv strips string cells, so a padded string could not round-trip
        ({"region": [" R1", " R1"], "tags": [{" t"}, {" t"}], "custom": {"k": [" a ", "b"]}},
         "region ' R1' has leading or trailing whitespace"),
        ({"country": ["A ", "A "]}, "country 'A ' has leading or trailing whitespace"),
        ({"tags": [{"EU", " t"}, {"EU", " t"}]}, "tag ' t' has leading or trailing whitespace"),
        ({"custom": {"k": ["a", "b\n"]}}, r"custom 'k' value 'b\\n' has leading or trailing whitespace"),
        # load_csv splits tag cells on ';' and drops empty tags
        ({"tags": [{"a;b"}, {"a;b"}]}, "tag 'a;b' is empty or holds ';', the CSV tag separator"),
        ({"tags": [{""}, {""}]}, "tag '' is empty or holds ';', the CSV tag separator"),
    ],
)
def test_constructor_validation(columns, message):
    args = {"region": ["R1", "R1"], "country": ["A", "A"], "year": [2001, 2000],
            "outcome": [0.0, 0.0], "predictors": {"v": [1.0, 2.0]}, **columns}
    with pytest.raises(ValueError, match=message):
        PanelDataset(**args)


def test_constructor_lays_out_region_year_grids():
    # rows arrive unsorted; regions sort, years span the calendar range, and
    # the interior gap (R2, 2001) is an absent NaN cell
    ds = PanelDataset(
        ["R2", "R1", "R2", "R1"], ["B", "A", "B", "A"], [2002, 2001, 2000, 2000],
        [4.0, 2.0, 3.0, 1.0], {"v": [40.0, 20.0, 30.0, 10.0]},
        custom={"k": ["d", "b", "c", "a"]},
    )
    assert ds.regions == ("R1", "R2") and ds.countries == ("A", "B")
    assert ds.first_year == 2000 and ds.years == (2000, 2001, 2002)
    np.testing.assert_array_equal(ds.present, [[True, True, False], [True, False, True]])
    np.testing.assert_array_equal(ds.outcome, [[1.0, 2.0, np.nan], [3.0, np.nan, 4.0]])
    np.testing.assert_array_equal(ds.predictors["v"], 10.0 * ds.outcome)
    assert ds.custom["k"].tolist() == [["a", "b", ""], ["c", "", "d"]]
    assert ds.present.sum() == 4
    assert np.argwhere(ds.present).tolist() == [[0, 0], [0, 1], [1, 0], [1, 2]]


def test_predictor_median():
    ds = grid_dataset({"R1": {2000: 1.0, 2001: 5.0}, "R2": {2000: 3.0, 2001: float("nan")}})
    assert ds.predictor_median("v") == 3.0


# ---------------------------------------------------------------------------
# Design construction
# ---------------------------------------------------------------------------


def test_build_design_single_region_differenced_lag():
    ds = grid_dataset({"R1": {2000: 1.0, 2001: 3.0, 2002: 6.0, 2003: 10.0}})
    spec = ModelSpec(terms=(TermSpec("v", differenced=True, max_lag=1),))
    d = build_design(ds, spec)
    assert d.dataset is ds
    assert [c.tolist() for c in d.cells] == [[0, 0], [2, 3]]
    assert row_keys(d) == [("R1", 2002), ("R1", 2003)]
    assert d.column_names == ("intercept", "d.v.l0", "d.v.l1")
    np.testing.assert_array_equal(d.X, [[1.0, 3.0, 2.0], [1.0, 4.0, 3.0]])
    assert d.dropped_rows == (("R1", 2000), ("R1", 2001))


def test_build_design_trivial_with_fixed_effects():
    ds = grid_dataset({f"R{i}": {y: 1.0 for y in (2000, 2001, 2002)} for i in range(3)})
    spec = ModelSpec(terms=(), fixed_effects=("region", "year"))
    d = build_design(ds, spec)
    assert d.n == 9
    assert d.p == 1 + 2 + 2
    names = d.column_names
    assert names[0] == "intercept"
    assert names[1:3] == ("region=R1", "region=R2")  # reference R0 dropped
    assert names[3:] == ("year=2001", "year=2002")


def test_build_design_cell_recompute_oracle(rng):
    # 5 terms (with and without moderators) against a straightforward
    # per-cell recomputation from the raw observations
    R, T = 40, 30
    names = ["a", "b", "c", "m"]
    data = {}
    for i in range(R):
        for t in range(T):
            data[(f"R{i:02d}", 2000 + t)] = {
                nm: float(rng.standard_normal()) for nm in names
            }
    observations = [
        obs(r, f"C{int(r[1:]) % 4}", y, float(rng.standard_normal()), vals)
        for (r, y), vals in data.items()
    ]
    ds = panel_from(observations, predictor_names=tuple(names))
    terms = (
        TermSpec("a", differenced=True, max_lag=3),
        TermSpec("b", differenced=True, moderator="m", max_lag=2),
        TermSpec("c", differenced=False, max_lag=1),
        TermSpec("a", differenced=False, moderator="b", max_lag=0),
        TermSpec("m", differenced=True, max_lag=4),
    )
    spec = ModelSpec(terms=terms, fixed_effects=("year",))
    d = build_design(ds, spec)
    # deepest term needs 5 years of history, so T - 5 usable year levels
    expected_p = 1 + (4 + 3 * 2 + 2 + 1 * 2 + 5) + (T - 5 - 1)
    assert d.p == expected_p

    def cell(term, r, y, lag):
        v = data[(r, y - lag)][term.variable]
        if term.differenced:
            v = v - data[(r, y - lag - 1)][term.variable]
        return v

    col = {lab.name: j for j, lab in enumerate(d.column_labels)}
    for i, (r, y) in enumerate(row_keys(d)):
        assert d.X[i, col["intercept"]] == 1.0
        assert d.X[i, col["d.a.l2"]] == cell(terms[0], r, y, 2)
        assert d.X[i, col["d.b.l1"]] == cell(terms[1], r, y, 1)
        assert d.X[i, col["d.b.l1:m"]] == cell(terms[1], r, y, 1) * data[(r, y)]["m"]
        assert d.X[i, col["c.l1"]] == data[(r, y - 1)]["c"]
        assert d.X[i, col["a.l0:b"]] == data[(r, y)]["a"] * data[(r, y)]["b"]
        assert d.X[i, col["d.m.l4"]] == cell(terms[4], r, y, 4)


def test_differencing_of_linear_series_is_constant():
    ds = grid_dataset({"R1": {2000 + t: 3.0 * t + 1.0 for t in range(8)}})
    d = build_design(ds, ModelSpec(terms=(TermSpec("v", differenced=True, max_lag=2),)))
    for j in range(1, 4):
        np.testing.assert_allclose(d.X[:, j], 3.0)


def test_lag_consistency(rng):
    ds = grid_dataset(
        {f"R{i}": {2000 + t: float(rng.standard_normal()) for t in range(12)} for i in range(4)}
    )
    d = build_design(ds, ModelSpec(terms=(TermSpec("v", differenced=True, max_lag=3),)))
    col = {lab.name: j for j, lab in enumerate(d.column_labels)}
    rows = {key: i for i, key in enumerate(row_keys(d))}
    for (r, y), i in rows.items():
        for lag in (1, 2, 3):
            if (r, y - lag) in rows:
                assert d.X[i, col[f"d.v.l{lag}"]] == d.X[rows[(r, y - lag)], col["d.v.l0"]]


def test_year_gap_makes_value_missing():
    ds = grid_dataset({"R1": {2000: 1.0, 2001: 2.0, 2003: 4.0, 2004: 8.0}})
    d = build_design(ds, ModelSpec(terms=(TermSpec("v", differenced=True, max_lag=0),)))
    # 2003 lacks 2002, so only 2001 and 2004 difference cleanly
    assert row_keys(d) == [("R1", 2001), ("R1", 2004)]
    assert ("R1", 2003) in d.dropped_rows


def test_moderator_alignment_switch():
    series = {2000: 1.0, 2001: 2.0, 2002: 4.0}
    observations = [
        obs("R1", "A", y, 0.0, {"v": v, "m": 10.0 + y - 2000}) for y, v in series.items()
    ]
    ds = panel_from(observations, predictor_names=("v", "m"))
    spec = ModelSpec(terms=(TermSpec("v", differenced=True, moderator="m", max_lag=1),))
    contemporaneous = build_design(ds, spec)
    lag_aligned = build_design(ds, replace(spec, moderator_alignment="lag_aligned"))
    col = {lab.name: j for j, lab in enumerate(contemporaneous.column_labels)}
    # row is (R1, 2002): lag-1 base value is 1.0
    assert contemporaneous.X[0, col["d.v.l1:m"]] == 1.0 * 12.0
    assert lag_aligned.X[0, col["d.v.l1:m"]] == 1.0 * 11.0


def test_build_design_rejects_unknown_names():
    ds = grid_dataset({"R1": {2000: 1.0, 2001: 2.0}})
    with pytest.raises(ValueError, match="unknown predictor"):
        build_design(ds, ModelSpec(terms=(TermSpec("w"),)))
    with pytest.raises(ValueError, match="max_lag"):
        build_design(ds, ModelSpec(terms=(TermSpec("v", max_lag=11),)))


def test_model_spec_checks_alignment_and_lag_ceiling_when_built():
    with pytest.raises(ValueError, match="unknown moderator_alignment 'lagged'"):
        ModelSpec(moderator_alignment="lagged")
    spec = ModelSpec(terms=(TermSpec("v", moderator="v"),))
    with pytest.raises(ValueError, match="unknown moderator_alignment 'lagged'"):
        replace(spec, moderator_alignment="lagged")
    deep = (TermSpec("v", max_lag=11),)
    with pytest.raises(ValueError, match=r"max_lag 11 outside 0\.\.10 for 'v'"):
        ModelSpec(terms=deep)
    with pytest.raises(ValueError, match=r"max_lag -1 outside 0\.\.10 for 'v'"):
        ModelSpec(terms=(TermSpec("v", max_lag=-1),))
    assert ModelSpec(terms=deep, max_lag_ceiling=12).terms == deep
    with pytest.raises(ValueError, match=r"max_lag 11 outside 0\.\.10 for 'v'"):
        replace(ModelSpec(terms=deep, max_lag_ceiling=12), max_lag_ceiling=10)
    # the lag is checked with the spec, before any dataset names its predictors
    with pytest.raises(ValueError, match=r"max_lag 11 outside 0\.\.10 for 'w'"):
        ModelSpec(terms=(TermSpec("w", max_lag=11),))


def test_empty_design_after_trimming():
    ds = grid_dataset({"R1": {2000: 1.0, 2001: 2.0}})
    with pytest.raises(ValueError, match="empty design"):
        build_design(ds, ModelSpec(terms=(TermSpec("v", differenced=True, max_lag=5),)))


def test_build_design_deterministic():
    cfg = DgpConfig(n_regions=12, n_years=9, countries=3)
    ds = generate_panel(cfg, seed=5)
    spec = ModelSpec(terms=(TermSpec("x", differenced=True, max_lag=2),), fixed_effects=("region",))
    a = build_design(ds, spec)
    b = build_design(ds, spec)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert row_keys(a) == row_keys(b) and a.column_labels == b.column_labels


def _naming_panel(regions):
    """A gappy panel of ``regions`` regions over 2000-2006."""
    gen = np.random.default_rng(4)
    return panel_from([obs(f"R{i}", f"C{i % 2}", 2000 + t, float(gen.standard_normal()),
                           {"x": float(gen.standard_normal())})
                       for i in range(regions) for t in range(7) if (i + t) % 5])


@pytest.mark.parametrize("regions, effects", [
    (6, ("region", "year")), (6, ("region",)), (6, ("year",)), (6, ()),
    (1, ("region",)),
], ids=["both", "region", "year", "none", "one_region"])
def test_absorbed_dummies_are_named_and_placed_as_the_dense_encoder_does(regions, effects):
    ds = _naming_panel(regions)
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), fixed_effects=effects,
                     intercept=False)
    design = build_design(ds, spec)
    k = design.X.shape[1]
    regions_at, years_at = zip(*row_keys(design))
    D, names, _, _, _ = dense_dummies(regions_at, years_at, effects)
    assert len(design.column_labels) == k == 1
    assert design.p == k + D.shape[1] == len(design.column_names)
    assert design.column_names[k:] == tuple(names)
    assert {e: list(s) for e, s in design.fe_slots.items()} == {
        e: [k + j for j, name in enumerate(names) if name.startswith(f"{e}=")] for e in effects}
    assert (dense_X(design) == np.hstack([design.X, D])).all()
    # R^2 is centred when the design has any dummy, and a region effect of
    # one level has none
    fit = ols_fit(design)
    Xd = np.hstack([design.X, D])
    e = design.y - Xd @ np.linalg.lstsq(Xd, design.y, rcond=None)[0]
    dev = design.y - design.y.mean() if D.shape[1] else design.y
    assert fit.r_squared == pytest.approx(1.0 - (e @ e) / (dev @ dev), rel=1e-10)
    assert fit.design is design
    # a scenario path takes the template's names, and rejects a core that differs
    future = panel_from([obs(r, "C0", 2030 + t, math.nan, {"x": 1.0})
                         for r in ds.regions for t in range(2)])
    assert build_scenario_path(future, spec, design, "same").column_names == design.column_names
    with pytest.raises(ValueError, match="do not match the fitted design"):
        build_scenario_path(future, replace(spec, intercept=True), design, "other")


# ---------------------------------------------------------------------------
# Cluster assignment
# ---------------------------------------------------------------------------


def _simple_panel(n_regions_per_country, n_years):
    values = {}
    countries = {}
    i = 0
    for c, n_regions in enumerate(n_regions_per_country):
        for _ in range(n_regions):
            region = f"R{i}"
            values[region] = {2000 + t: float(i + t) for t in range(n_years)}
            countries[region] = f"C{c}"
            i += 1
    return grid_dataset(values, countries=countries)


def test_assign_clusters_region():
    ds = _simple_panel([3], 4)
    d = build_design(ds, ModelSpec())
    a = assign_clusters(d, REGION)
    assert a.n_clusters == 3
    np.testing.assert_array_equal(a.sizes, [4, 4, 4])


def test_assign_clusters_country_year():
    ds = _simple_panel([3, 2], 4)
    d = build_design(ds, ModelSpec())
    a = assign_clusters(d, COUNTRY_YEAR)
    assert a.n_clusters == 8
    np.testing.assert_array_equal(a.sizes, [3, 3, 3, 3, 2, 2, 2, 2])


def test_assign_clusters_region_year_is_singletons():
    ds = _simple_panel([2, 2], 3)
    d = build_design(ds, ModelSpec())
    a = assign_clusters(d, REGION_YEAR)
    assert a.n_clusters == d.n
    assert set(a.sizes) == {1}


def test_custom_column_matches_year_partition(rng):
    observations = []
    for i in range(6):
        for t in range(5):
            year = 2000 + t
            observations.append(
                obs(f"R{i}", f"C{i % 2}", year, float(rng.standard_normal()),
                    {"v": float(rng.standard_normal())}, custom={"year_str": str(year)})
            )
    ds = panel_from(observations, predictor_names=("v",))
    d = build_design(ds, ModelSpec())
    by_year = assign_clusters(d, YEAR)
    by_custom = assign_clusters(d, ClusterScheme.parse("custom:year_str"))

    def partition(a):
        groups = {}
        for row, g in enumerate(a.row_cluster):
            groups.setdefault(g, set()).add(row)
        return {frozenset(v) for v in groups.values()}

    assert partition(by_year) == partition(by_custom)


def test_custom_column_missing():
    ds = _simple_panel([2], 3)
    d = build_design(ds, ModelSpec())
    with pytest.raises(ValueError, match="custom cluster column"):
        assign_clusters(d, ClusterScheme.parse("custom:nope"))



ARGLESS_KINDS = ("region", "region_year", "country", "country_year", "year")


@pytest.mark.parametrize("scheme", [*map(ClusterScheme, ARGLESS_KINDS),
                                    ClusterScheme("custom", "g"), ClusterScheme("custom", "a:b")],
                         ids=lambda s: s.label)
def test_scheme_label_parses_back(scheme):
    assert ClusterScheme.parse(scheme.label) == scheme


@pytest.mark.parametrize("kind", ARGLESS_KINDS)
def test_scheme_kind_without_argument_rejects_one(kind):
    message = f"cluster scheme {kind!r} takes no argument"
    for text in (f"{kind}:x", f"{kind}:"):
        with pytest.raises(ValueError, match=re.escape(f"{message}, got {text!r}")):
            ClusterScheme.parse(text)
    with pytest.raises(ValueError, match=message):
        ClusterScheme(kind, "x")


@pytest.mark.parametrize("make", [lambda: ClusterScheme.parse("custom"),
                                  lambda: ClusterScheme.parse("custom:"),
                                  lambda: ClusterScheme("custom"),
                                  lambda: ClusterScheme("custom", "")],
                         ids=["custom", "custom:", "no_arg", "empty_arg"])
def test_custom_scheme_needs_a_column(make):
    with pytest.raises(ValueError, match="cluster scheme 'custom' needs a custom column"):
        make()


@pytest.mark.parametrize("arg", ["a/b", "/", "a\0b"], ids=["slash", "only_slash", "nul"])
def test_scheme_argument_that_cannot_name_a_file_is_rejected(arg):
    message = f"cluster scheme {'custom:' + arg!r}: an argument may not hold '/' or NUL"
    for make in (lambda: ClusterScheme.parse(f"custom:{arg}"), lambda: ClusterScheme("custom", arg)):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


@pytest.mark.parametrize("text", ["continent", "Region", "country-year", ":g", ""])
def test_unknown_scheme_kind_lists_the_kinds(text):
    with pytest.raises(ValueError, match="unknown cluster scheme") as info:
        ClusterScheme.parse(text)
    assert str(info.value).endswith(f"use one of {(*ARGLESS_KINDS, 'custom')}")

@pytest.mark.parametrize(
    "codes, message",
    [
        ([0, 0, 2, 2], "cluster 1 of 3 has no rows"),
        ([0, 1, 3, 2], "row_cluster must be a 1-D array of codes in [0, 3)"),
        ([0, -1, 1, 2], "row_cluster must be a 1-D array of codes in [0, 3)"),
        ([[0, 1], [2, 2]], "row_cluster must be a 1-D array of codes in [0, 3)"),
    ],
    ids=["empty_cluster", "code_above", "code_below", "two_dimensional"],
)
def test_cluster_assignment_checks_its_codes(codes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ClusterAssignment(ClusterScheme("custom", "g"), np.array(codes), 3)


def test_partition_property_all_schemes():
    ds = generate_panel(DgpConfig(n_regions=15, n_years=7, countries=4), seed=3)
    d = build_design(ds, ModelSpec(terms=(TermSpec("x", differenced=False),)))
    for scheme in (REGION, REGION_YEAR, COUNTRY, COUNTRY_YEAR, YEAR):
        a = assign_clusters(d, scheme)
        assert int(a.sizes.sum()) == d.n
        assert a.n_clusters >= 1
        counts = np.bincount(a.row_cluster, minlength=a.n_clusters)
        np.testing.assert_array_equal(counts, a.sizes)


def _dict_clusters(design, scheme):
    """(keys, row_cluster, sizes) with every row's key looked up in a dict,
    as ``assign_clusters`` coded them before it used integer codes.  Each
    row's key is read off the dataset at the row's (region, year)."""
    ds, rows = design.dataset, row_keys(design)
    countries = [ds.country_of(r) for r, _ in rows]
    keys = {
        "region": [r for r, _ in rows],
        "region_year": rows,
        "country": countries,
        "country_year": [(c, t) for c, (_, t) in zip(countries, rows)],
        "year": [t for _, t in rows],
    }.get(scheme.kind) or [str(ds.custom[scheme.arg][ds.regions.index(r), t - ds.first_year])
                           for r, t in rows]
    uniq = sorted(set(keys))
    index = {k: i for i, k in enumerate(uniq)}
    row_cluster = np.fromiter((index[k] for k in keys), dtype=np.intp, count=len(keys))
    return tuple(uniq), row_cluster, np.bincount(row_cluster, minlength=len(uniq))


@pytest.mark.parametrize("effects", [(), ("region",), ("year",), ("region", "year")])
def test_assign_clusters_matches_dict_oracle(effects):
    # names that sort differently as text and as numbers, upper before lower
    # case, non-ASCII; late entry, gaps, a custom column with empty values
    gen = np.random.default_rng(4)
    regions = ["a9", "a10", "B", "b", "é1", "Z0", "z", "a1"]
    records = [
        obs(region, f"C{i % 3}" if i != 5 else "c", year, float(gen.standard_normal()),
            {"v": float(gen.standard_normal())},
            custom={"tag": ("", "x", "X", "10", "9")[(i + year) % 5]})
        for i, region in enumerate(regions) for year in range(1998 + i % 3, 2007)
        if gen.random() > 0.2
    ]
    design = build_design(panel_from(records), ModelSpec(terms=(TermSpec("v", max_lag=1),),
                                                         fixed_effects=effects))
    schemes = (REGION, REGION_YEAR, COUNTRY, COUNTRY_YEAR, YEAR, ClusterScheme.parse("custom:tag"))
    for scheme in schemes:
        got = assign_clusters(design, scheme)
        keys, row_cluster, sizes = _dict_clusters(design, scheme)
        assert got.n_clusters == len(keys)
        assert got.row_cluster.dtype == np.intp
        np.testing.assert_array_equal(got.row_cluster, row_cluster)
        np.testing.assert_array_equal(got.sizes, sizes)


# ---------------------------------------------------------------------------
# Haversine
# ---------------------------------------------------------------------------


def test_haversine_identity_and_antipode():
    assert haversine_km((12.3, 45.6), (12.3, 45.6)) == 0.0
    assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
        math.pi * 6371.0, rel=1e-12
    )


def test_haversine_symmetry():
    a, b = (52.52, 13.405), (48.8566, 2.3522)
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-15)


def test_haversine_against_law_of_cosines():
    # independent spherical law-of-cosines evaluation
    a, b = (52.52, 13.405), (48.8566, 2.3522)
    p1, p2 = math.radians(a[0]), math.radians(b[0])
    dl = math.radians(b[1] - a[1])
    oracle = 6371.0 * math.acos(
        math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    )
    assert haversine_km(a, b) == pytest.approx(oracle, rel=0.005)
    assert 850.0 < haversine_km(a, b) < 900.0  # Berlin-Paris ballpark


def test_haversine_rejects_bad_coordinates():
    with pytest.raises(ValueError, match="latitude"):
        haversine_km((91.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="longitude"):
        haversine_km((0.0, 0.0), (0.0, 181.0))
    with pytest.raises(ValueError, match=r"latitude -95.0 outside \[-90, 90\]"):
        haversine_km(np.array([[0.0, 0.0], [-95.0, 0.0]]), (0.0, 0.0))


def test_haversine_broadcasts_like_scalar_calls(rng):
    points = np.column_stack([rng.uniform(-89, 89, 12), rng.uniform(-179, 179, 12)])
    d = haversine_km(points[:, None, :], points[None, :, :])
    assert d.shape == (12, 12)
    for i, j in np.ndindex(12, 12):
        assert d[i, j] == haversine_km(tuple(points[i]), tuple(points[j]))
    assert isinstance(haversine_km((0.0, 0.0), (1.0, 1.0)), float)


def test_load_csv_custom_delimiter(tmp_path):
    schema = CsvSchema(
        region="region", country="country", year="year", outcome="growth",
        predictors={"temp": "temp"}, delimiter=";",
    )
    p = write_csv(
        tmp_path / "panel.csv",
        "region;country;year;growth;temp\nR1;A;2000;0.1;10.0\nR1;A;2001;0.2;11.0\n",
    )
    ds = load_csv(p, schema)
    assert ds.present.sum() == 2
    assert cell(ds, "temp", "R1", 2001) == 11.0


def test_year_gaps_recorded():
    ds = grid_dataset({"R1": {2000: 1.0, 2001: 2.0, 2004: 3.0}, "R2": {2000: 1.0, 2001: 2.0}})
    assert ds.first_year == 2000
    np.testing.assert_array_equal(ds.present, [[True, True, False, False, True],
                                               [True, True, False, False, False]])


def test_save_csv_delimiter_round_trip(tmp_path):
    ds = grid_dataset({"R1": {2000: 1.5, 2001: 2.5}})
    path = tmp_path / "panel.csv"
    schema = save_csv(ds, path, delimiter=";")
    assert schema.delimiter == ";"
    back = load_csv(path, schema)
    assert back.present.sum() == 2


# ---------------------------------------------------------------------------
# Columnar build_design against the per-row oracle
# ---------------------------------------------------------------------------


def _rows_design(records, spec, keep_rows=None, require_outcome=True):
    """The per-row design build, kept as the oracle of ``build_design``: it walks
    the records in (region, year) order and reads every value from its own
    {(region, year): record} dict, never from a dataset's grids."""
    by_key = {(r["region"], r["year"]): r for r in records}
    keep = None if keep_rows is None else set(keep_rows)

    def value(region, year, name):
        rec = by_key.get((region, year))
        return math.nan if rec is None else float(rec["predictors"].get(name, math.nan))

    def base(term, region, year):
        v = value(region, year, term.variable)
        return v - value(region, year - 1, term.variable) if term.differenced else v

    rows, y, row_index, countries, dropped = [], [], [], [], []
    for key in sorted(by_key):
        rec = by_key[key]
        region, year = key
        if keep is not None and key not in keep:
            continue
        ok = not (require_outcome and not math.isfinite(rec["outcome"]))
        vec = [1.0] if spec.intercept else []
        for term in spec.terms if ok else ():
            base_vals = [base(term, region, year - lag) for lag in range(term.max_lag + 1)]
            ok = all(math.isfinite(b) for b in base_vals)
            if not ok:
                break
            vec.extend(base_vals)
            if term.moderator is not None:
                lagged = spec.moderator_alignment == "lag_aligned"
                for lag, b in enumerate(base_vals):
                    m = value(region, year - (lag if lagged else 0), term.moderator)
                    ok = ok and math.isfinite(m)
                    vec.append(b * m)
            if not ok:
                break
        if not ok:
            dropped.append(key)
            continue
        rows.append(vec)
        y.append(rec["outcome"])
        row_index.append(key)
        countries.append(rec["country"])
    X_core = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    D, fe_labels, _, _, _ = dense_dummies(
        [r for r, _ in row_index], [t for _, t in row_index], spec.fixed_effects
    )
    X = np.hstack([X_core, D]) if D.shape[1] else X_core
    return X, np.asarray(y, dtype=float), tuple(row_index), tuple(countries), tuple(dropped), fe_labels


def _assert_matches_oracle(records, dataset, spec, **kwargs):
    keys = kwargs.get("keep_rows")
    grid = {} if keys is None else {"keep_rows": keep_grid(dataset, keys)}
    got = build_design(dataset, spec, **{**kwargs, **grid})
    X, y, row_index, countries, dropped, fe_labels = _rows_design(records, spec, **kwargs)
    assert got.X.flags.c_contiguous and got.X.shape == (X.shape[0], len(got.column_labels))
    # the absorbed region effect expands to the oracle's dummy columns
    dense = dense_X(got)
    assert dense.shape == X.shape
    assert (dense == X).all() and dense.tobytes() == X.tobytes()
    assert got.y.tobytes() == y.tobytes()  # bitwise, so NaN outcomes compare too
    assert got.dataset is dataset
    assert tuple(row_keys(got)) == row_index
    assert got.dropped_rows == dropped
    assert tuple(dataset.country_of(r) for r, _ in row_keys(got)) == countries
    assert got.column_names[got.X.shape[1]:] == tuple(fe_labels)
    return got


def _csv_records(path):
    """obs() records read from a sample CSV with the csv module alone."""
    def num(text):
        return math.nan if text == "NA" else float(text)

    with open(path, newline="", encoding="utf-8") as fh:
        return [
            obs(row["region"], row["country"], int(row["year"]), num(row["outcome"]),
                {"x": num(row["x"]), "xbar": num(row["xbar"])})
            for row in csv.DictReader(fh)
        ]


SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"
SAMPLE_SCHEMA = CsvSchema.canonical(("x", "xbar"), with_centroids=True, with_groups=True,
                                    custom_names=("year_str",))
SAMPLE_SPEC = ModelSpec(
    terms=(
        TermSpec("x", differenced=True, moderator="xbar", max_lag=2),
        TermSpec("xbar", differenced=False, moderator="x", max_lag=1),
    ),
    fixed_effects=("region", "year"),
)


@pytest.mark.parametrize("alignment", ["contemporaneous", "lag_aligned"])
def test_columnar_design_matches_rows_on_sample(alignment):
    records = _csv_records(SAMPLE_DIR / "panel.csv")
    ds = load_csv(SAMPLE_DIR / "panel.csv", SAMPLE_SCHEMA)
    d = _assert_matches_oracle(records, ds, replace(SAMPLE_SPEC, moderator_alignment=alignment))
    assert d.n == 30 * 15 and len(d.dropped_rows) == 30 * 3


def _gappy_records(rng):
    """Late entry, interior year gaps and NaN outcomes and predictors."""
    records = []
    for i in range(9):
        for t in range(i % 3, 14):
            if (i, t) in {(0, 5), (1, 6), (1, 7), (4, 9), (8, 12)}:
                continue
            outcome = math.nan if (i + t) % 11 == 0 else float(rng.standard_normal())
            m = math.nan if (i, t) == (6, 10) else float(rng.standard_normal())
            records.append(obs(f"R{i}", f"C{i % 3}", 1990 + t, outcome,
                               {"v": float(rng.standard_normal()), "m": m}))
    rng.shuffle(records)
    return records


GAPPY_SPEC = ModelSpec(
    terms=(
        TermSpec("v", differenced=True, moderator="m", max_lag=2),
        TermSpec("m", differenced=False, max_lag=1),
    ),
    fixed_effects=("region", "year"),
)


@pytest.mark.parametrize("alignment", ["contemporaneous", "lag_aligned"])
def test_columnar_design_matches_rows_on_gappy_panel(rng, alignment):
    records = _gappy_records(rng)
    d = _assert_matches_oracle(records, panel_from(records),
                               replace(GAPPY_SPEC, moderator_alignment=alignment))
    assert d.dropped_rows and d.n > 50


def test_columnar_design_matches_rows_on_keep_rows_subset(rng):
    records = _gappy_records(rng)
    ds = panel_from(records)
    keep = [(r["region"], r["year"]) for r in records[::3]] + [("R99", 2000), ("R0", 1900)]
    d = _assert_matches_oracle(records, ds, replace(GAPPY_SPEC, moderator_alignment="lag_aligned"),
                               keep_rows=keep)
    assert set(row_keys(d)) | set(d.dropped_rows) < set(keep)


def test_keep_rows_must_be_a_grid_of_the_dataset_shape(rng):
    ds = panel_from(_gappy_records(rng))
    spec = ModelSpec(terms=(TermSpec("v", differenced=False),))
    keep = np.ones(ds.present.shape, dtype=bool)
    assert build_design(ds, spec, keep_rows=keep).n == build_design(ds, spec).n
    wrong = (keep[:, 1:], keep.astype(int), [("R1", 1995)])
    for bad in wrong:
        with pytest.raises(ValueError, match=r"keep_rows must be a \(9, 14\) boolean grid"):
            build_design(ds, spec, keep_rows=bad)


def test_columnar_design_matches_rows_on_scenario_rows():
    records = _csv_records(SAMPLE_DIR / "scenario_low.csv")
    ds = load_csv(SAMPLE_DIR / "scenario_low.csv", SAMPLE_SCHEMA)
    spec = replace(SAMPLE_SPEC, fixed_effects=())
    d = _assert_matches_oracle(records, ds, spec, require_outcome=False)
    assert np.isnan(d.y).all() and d.n == 30 * 10


@pytest.mark.parametrize("name", ["panel.csv", "scenario_low.csv"])
def test_load_csv_reads_past_a_byte_order_mark(name, tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + (SAMPLE_DIR / name).read_bytes())
    assert_same_dataset(load_csv(path, SAMPLE_SCHEMA), load_csv(SAMPLE_DIR / name, SAMPLE_SCHEMA))


def test_sample_data_regenerates_byte_for_byte(tmp_path):
    script = SAMPLE_DIR.parent / "scripts" / "make_sample.py"
    module_spec = importlib.util.spec_from_file_location("make_sample", script)
    make_sample = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(make_sample)
    ds = make_sample.build_panel()
    low, high = make_sample.build_scenarios(ds)
    for name, dataset in (("panel.csv", ds), ("scenario_low.csv", low), ("scenario_high.csv", high)):
        save_csv(dataset, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (SAMPLE_DIR / name).read_bytes(), name
