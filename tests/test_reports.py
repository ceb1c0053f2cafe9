import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from clusterpanel import reports
from clusterpanel.bootstrap import Projection
from clusterpanel.panel import (
    COUNTRY_YEAR,
    REGION,
    ClusterScheme,
    ColumnLabel,
    ModelSpec,
    TermSpec,
    assign_clusters,
    build_design,
)
from clusterpanel.regression import (
    CovarianceEstimate,
    clustered_cov,
    confidence_intervals,
    ols_fit,
)
from clusterpanel.reports import (
    fmt,
    load_config,
    write_coefficients,
    write_csv,
    write_json,
    write_manifest,
)

from conftest import design_from_arrays, fit_on, obs, panel_from


def test_fmt_edge_cases():
    assert fmt(None) == "NA"
    assert fmt(float("nan")) == "NA"
    assert fmt(float("inf")) == "NA"
    assert fmt(True) == "true" and fmt(False) == "false"
    assert fmt(0.1) == "0.1"
    assert fmt(np.float64(0.25)) == "0.25"
    assert fmt(np.int64(7)) == "7"
    assert fmt("year=2001") == "year=2001"


def test_write_csv_is_deterministic(tmp_path):
    rows = [["a", 1.5, None], ["b", float("nan"), 2]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["k", "x", "y"], rows)
    write_csv(p2, ["k", "x", "y"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == "k,x,y\na,1.5,NA\nb,NA,2\n"


def test_write_json_cleans_non_finite(tmp_path):
    p = tmp_path / "x.json"
    write_json(p, {"a": float("nan"), "b": [1.0, float("inf")], "c": (1, 2)})
    assert json.loads(p.read_text()) == {"a": None, "b": [1.0, None], "c": [1, 2]}


def test_write_json_writes_the_streamed_bytes_at_once(tmp_path, monkeypatch):
    # the bytes of json.dump streamed with indent=2 plus a newline: the
    # document in one write, then the newline
    payload = {"name": "r\u00e9gion \"q\"", "nested": [{"x": 0.1, "y": [1, 2, []]}, {}],
               "big": 1e300, "tiny": -2.5e-300, "flag": True, "none": None}
    want = tmp_path / "want.json"
    with open(want, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    writes, real_open = [], open

    def counting_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(text) or write(text)
        return fh

    monkeypatch.setattr("builtins.open", counting_open)
    write_json(tmp_path / "got.json", payload)
    monkeypatch.undo()
    assert (tmp_path / "got.json").read_bytes() == want.read_bytes()
    assert len(writes) == 2 and writes[1] == "\n"


def coefficient_table(fit, covs, level):
    """Oracle of ``write_coefficients``: the coefficient table as a dict,
    which ``write_json`` must encode to the writer's bytes."""
    per_scheme_ci = {label: confidence_intervals(fit, cov, level) for label, cov in covs.items()}
    per_scheme_se = {label: cov.standard_errors.tolist() for label, cov in covs.items()}
    coefficients = []
    for j, name in enumerate(fit.design.column_names):
        est = float(fit.beta[j])
        entry = {"label": name, "estimate": est, "se": {}, "t": {}, "ci": {}}
        for label in covs:
            se = per_scheme_se[label][j]
            entry["se"][label] = se
            entry["t"][label] = est / se if se > 0 else None
            lo, hi = per_scheme_ci[label][j]
            entry["ci"][label] = [float(lo), float(hi)]
        coefficients.append(entry)
    return {
        "n": fit.n,
        "p": fit.p,
        "r_squared": fit.r_squared,
        "level": level,
        "schemes": {
            label: {"correction": cov.correction, "clusters": cov.G} for label, cov in covs.items()
        },
        "coefficients": coefficients,
        "dropped_rows": len(fit.design.dropped_rows),
    }


# a custom cluster column whose name needs JSON escapes and holds a % sign
ODD_COLUMN = 'blk "\u00e9t\u00e9" %s 100%'


@pytest.fixture(scope="module")
def fitted():
    """A two-way fixed-effect fit of 9 regions in 3 countries over 8 years,
    and its CR1 covariances under region, country_year and ODD_COLUMN."""
    gen = np.random.default_rng(3)
    records = [obs(f"R{i}", f"C{i % 3}", 2000 + t, float(gen.standard_normal()),
                   {"x": float(gen.standard_normal())}, custom={ODD_COLUMN: f"b{(i + t) % 4}"})
               for i in range(9) for t in range(8)]
    design = build_design(panel_from(records), ModelSpec(
        terms=(TermSpec("x", differenced=False, max_lag=1),), fixed_effects=("region", "year")))
    fit = ols_fit(design)
    schemes = (REGION, COUNTRY_YEAR, ClusterScheme("custom", ODD_COLUMN))
    with warnings.catch_warnings():  # few clusters
        warnings.simplefilter("ignore")
        return fit, {s.label: clustered_cov(fit, assign_clusters(design, s))
                     for s in schemes}


def _written(tmp_path, fit, covs, level=0.95):
    """The bytes of write_coefficients and of write_json on the oracle's table."""
    write_coefficients(tmp_path / "got.json", fit, covs, level)
    write_json(tmp_path / "want.json", coefficient_table(fit, covs, level))
    return (tmp_path / "got.json").read_bytes(), (tmp_path / "want.json").read_bytes()


def test_write_coefficients_writes_the_oracles_bytes(tmp_path, fitted):
    fit, covs = fitted
    got, want = _written(tmp_path, fit, covs)
    assert got == want
    assert len(json.loads(got)["coefficients"]) == fit.p
    assert list(json.loads(got)["schemes"]) == ["region", "country_year", f"custom:{ODD_COLUMN}"]
    assert b"\\u00e9" in got and b'\\"' in got  # escaped as json escapes them


@pytest.mark.parametrize("labels", [["region"], [f"custom:{ODD_COLUMN}"], []],
                         ids=["one scheme", "odd label", "no scheme"])
def test_write_coefficients_over_fewer_schemes(tmp_path, fitted, labels):
    fit, covs = fitted
    got, want = _written(tmp_path, fit, {label: covs[label] for label in labels}, level=0.9)
    assert got == want
    if not labels:
        entry = json.loads(got)["coefficients"][0]
        assert entry["se"] == entry["t"] == entry["ci"] == {} and json.loads(got)["schemes"] == {}


def test_write_coefficients_writes_an_absent_level_as_null(tmp_path, fitted):
    # a level without rows: NaN estimate and variance give null estimate, SE, t and bounds
    fit, covs = fitted
    j = fit.p - 1
    beta = fit.beta.copy()
    beta[j] = np.nan
    absent = {label: replace(cov, variances=np.where(np.arange(fit.p) == j, np.nan,
                                                    cov.variances))
              for label, cov in covs.items()}
    got, want = _written(tmp_path, replace(fit, beta=beta), absent)
    assert got == want
    entry = json.loads(got)["coefficients"][j]
    assert entry["estimate"] is None
    assert all(v is None for key in ("se", "t") for v in entry[key].values())
    assert all(bound is None for ci in entry["ci"].values() for bound in ci)


def test_write_coefficients_takes_each_schemes_standard_errors_once(tmp_path, monkeypatch):
    p = 30
    labels = tuple(ColumnLabel(kind="base", term="x", lag=j) for j in range(p))
    fit = fit_on(design_from_arrays(np.zeros((40, p)), np.zeros(40), labels=labels),
                 np.arange(1.0, p + 1))
    covs = {label: CovarianceEstimate(cov=np.diag(np.full(p, 4.0)), variances=np.full(p, 4.0),
                                      scheme=REGION, correction="CR1", G=12) for label in ("a", "b")}
    calls = []
    original = CovarianceEstimate.standard_errors

    def counted(self):
        calls.append(self)
        return original.fget(self)

    monkeypatch.setattr(CovarianceEstimate, "standard_errors", property(counted))
    write_coefficients(tmp_path / "c.json", fit, covs, 0.95)
    assert len(calls) == len(covs)
    table = json.loads((tmp_path / "c.json").read_text())
    assert all(row["se"] == {"a": 2.0, "b": 2.0} for row in table["coefficients"])


def test_write_coefficients_zero_se_yields_null_t(tmp_path):
    labels = (ColumnLabel(kind="intercept"),)
    fit = fit_on(design_from_arrays(np.zeros((5, 1)), np.zeros(5), labels=labels), [2.0])
    cov = CovarianceEstimate(cov=np.array([[1.0]]), variances=np.array([1.0]), scheme=REGION,
                             correction="CR0", G=5)
    zero = CovarianceEstimate(cov=np.array([[0.0]]), variances=np.array([0.0]), scheme=REGION,
                              correction="CR0", G=5)
    write_coefficients(tmp_path / "c.json", fit, {"a": cov}, 0.9)
    assert json.loads((tmp_path / "c.json").read_text())["coefficients"][0]["t"]["a"] == (
        pytest.approx(2.0))
    # zero-variance covariance: the interval computation rejects it upstream,
    # so the writer only ever writes t for positive diagonals, and writes nothing
    with pytest.raises(ValueError, match="nonpositive"):
        write_coefficients(tmp_path / "z.json", fit, {"a": zero}, 0.9)
    assert not (tmp_path / "z.json").exists()


def test_manifest_round_trip(tmp_path):
    config = {"data": {"path": "panel.csv"}, "seed": 4}
    path = write_manifest(tmp_path, "fit", config)
    assert yaml.safe_load(path.read_text()) == {"command": "fit", "config": config}
    assert load_config(path) == (config, "fit")
    # plain configs pass through untouched
    plain = tmp_path / "plain.yaml"
    plain.write_text(yaml.safe_dump(config))
    assert load_config(plain) == (config, None)
    # older files: a header is ignored and a top-level threads key dropped
    old = tmp_path / "old.yaml"
    old.write_text(yaml.safe_dump({"command": "fit", "seed": 4, "threads": 2,
                                   "config": {**config, "threads": 2}}))
    assert load_config(old) == (config, "fit")
    plain.write_text(yaml.safe_dump({**config, "threads": 2}))
    assert load_config(plain) == (config, None)


def test_load_config_rejects_non_mapping(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="not a mapping"):
        load_config(p)


SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def test_libyaml_reads_and_writes_like_the_safe_classes(tmp_path):
    # configs and manifests load as the pure-Python safe loader reads them,
    # and every golden manifest re-dumps byte for byte, with either dumper
    assert reports._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert reports._DUMPER is getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    manifests = sorted(SAMPLE.glob("golden/*/manifest.yaml"))
    assert len(manifests) == 7
    for path in [SAMPLE / "config.yaml", *manifests]:
        text = path.read_text()
        assert yaml.load(text, Loader=reports._LOADER) == yaml.safe_load(text)
    for path in manifests:
        payload = yaml.safe_load(path.read_text())
        assert list(payload) == ["command", "config"] and "threads" not in payload["config"]
        out = tmp_path / path.parent.name
        out.mkdir()
        written = write_manifest(out, payload["command"], payload["config"])
        assert written.read_bytes() == path.read_bytes()
        safe = yaml.dump(payload, Dumper=yaml.SafeDumper, sort_keys=True, default_flow_style=False)
        assert safe == path.read_text()


def test_write_projections_formats_given_bounds(tmp_path):
    # the writer computes nothing: each scenario's (levels, lower/median/upper,
    # years) bounds become one row per year and level, median first, in order
    rng = np.random.default_rng(4)
    levels, years = [0.9, 0.5], (2040, 2041, 2042)
    projections = [Projection(label, years, np.zeros((2, len(years)))) for label in ("low", "high")]
    bounds = [rng.standard_normal((len(levels), 3, len(years))) for _ in projections]
    bounds[1][1, :, 2] = np.nan  # an unresolved interval is written as NA
    reports.write_projections(tmp_path / "p.csv", projections, levels, bounds)
    want = [",".join([proj.label, str(year), fmt(level), *map(fmt, scenario[i, [1, 0, 2], t])])
            for proj, scenario in zip(projections, bounds) for t, year in enumerate(years)
            for i, level in enumerate(levels)]
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines == ["scenario,year,level,median,lower,upper", *want]
    assert lines[-1] == "high,2042,0.5,NA,NA,NA"
    reports.write_projections(tmp_path / "q.csv", projections, [], [np.empty((0, 3, 3))] * 2)
    assert (tmp_path / "q.csv").read_text() == "scenario,year,level,median,lower,upper\n"
