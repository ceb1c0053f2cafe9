import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from clusterpanel import reports
from clusterpanel.bootstrap import Projection
from clusterpanel.panel import REGION, ColumnLabel
from clusterpanel.regression import CovarianceEstimate, FitResult
from clusterpanel.reports import (
    coefficient_table,
    fmt,
    load_config,
    write_csv,
    write_json,
    write_manifest,
)


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


def test_coefficient_table_takes_each_schemes_standard_errors_once(monkeypatch):
    p = 30
    labels = tuple(ColumnLabel(kind="base", term="x", lag=j) for j in range(p))
    fit = FitResult(beta=np.arange(1.0, p + 1), residuals=np.zeros(40), fitted=np.zeros(40),
                    r_squared=0.0, n=40, p=p, column_labels=labels)
    covs = {label: CovarianceEstimate(cov=np.diag(np.full(p, 4.0)), variances=np.full(p, 4.0),
                                      scheme=REGION, correction="CR1", G=12) for label in ("a", "b")}
    calls = []
    original = CovarianceEstimate.standard_errors

    def counted(self):
        calls.append(self)
        return original.fget(self)

    monkeypatch.setattr(CovarianceEstimate, "standard_errors", property(counted))
    table = coefficient_table(fit, covs, level=0.95)
    assert len(calls) == len(covs)
    assert all(row["se"] == {"a": 2.0, "b": 2.0} for row in table["coefficients"])


def test_coefficient_table_zero_se_yields_null_t():
    labels = (ColumnLabel(kind="intercept"),)
    fit = FitResult(beta=np.array([2.0]), residuals=np.zeros(5), fitted=np.zeros(5),
                    r_squared=0.0, n=5, p=1, column_labels=labels)
    cov = CovarianceEstimate(cov=np.array([[1.0]]), variances=np.array([1.0]), scheme=REGION,
                             correction="CR0", G=5)
    zero = CovarianceEstimate(cov=np.array([[0.0]]), variances=np.array([0.0]), scheme=REGION,
                              correction="CR0", G=5)
    table = coefficient_table(fit, {"a": cov}, level=0.9)
    assert table["coefficients"][0]["t"]["a"] == pytest.approx(2.0)
    # zero-variance covariance: the interval computation rejects it upstream,
    # so the table builder is only reachable with positive diagonals
    with pytest.raises(ValueError, match="nonpositive"):
        coefficient_table(fit, {"a": zero}, level=0.9)


def test_manifest_round_trip(tmp_path):
    config = {"data": {"path": "panel.csv"}, "seed": 4}
    path = write_manifest(tmp_path, "fit", seed=4, threads=2, config=config)
    loaded, command, seed, threads = load_config(path)
    assert (command, seed, threads) == ("fit", 4, 2)
    assert loaded == config
    # plain configs pass through untouched
    plain = tmp_path / "plain.yaml"
    plain.write_text(yaml.safe_dump(config))
    loaded2, command2, _, _ = load_config(plain)
    assert command2 is None and loaded2 == config


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
        out = tmp_path / path.parent.name
        out.mkdir()
        written = write_manifest(out, payload["command"], payload["seed"], payload["threads"],
                                 payload["config"])
        assert written.read_bytes() == path.read_bytes()
        safe = yaml.dump(payload, Dumper=yaml.SafeDumper, sort_keys=True, default_flow_style=False)
        assert safe == path.read_text()


def test_write_projections_matches_per_year_quantiles(tmp_path):
    # the oracle: np.quantile of each year's finite draws alone, the median
    # once and each level's bounds; ragged NaN columns and tied values
    rng = np.random.default_rng(4)
    values = np.round(rng.standard_normal((50, 6)), 1)
    for j, missing in enumerate((0, 1, 17, 30, 49, 25)):
        values[rng.permutation(50)[:missing], j] = np.nan
    proj = Projection(label="low", years=tuple(range(2040, 2046)), values=values)
    levels = [0.9, 0.5]
    reports.write_projections(tmp_path / "p.csv", [proj], levels)
    want = []
    for j, year in enumerate(proj.years):
        draws = values[np.isfinite(values[:, j]), j]
        med = float(np.quantile(draws, 0.5))
        for level in levels:
            lo, hi = np.quantile(draws, [0.5 - level / 2.0, 0.5 + level / 2.0])
            want.append(",".join(["low", str(year), fmt(level), fmt(med), fmt(lo), fmt(hi)]))
    assert (tmp_path / "p.csv").read_text().splitlines()[1:] == want
    values = values.copy()
    values[:, 3] = np.nan
    with pytest.raises(ValueError, match="no finite projection draws for 'low' in 2043"):
        reports.write_projections(tmp_path / "q.csv", [proj, replace(proj, values=values)], levels)
