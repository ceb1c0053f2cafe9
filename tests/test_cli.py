import csv
import math
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
import yaml

from clusterpanel.cli import COMMANDS, main
from clusterpanel.panel import PanelDataset, save_csv
from clusterpanel.simstudy import DgpConfig, generate_panel

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = "sample/config.yaml"


@pytest.fixture(autouse=True)
def _in_repo_root(monkeypatch):
    # sample configs address data files relative to the repository root
    monkeypatch.chdir(ROOT)


def run(*argv):
    return main(list(argv))


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_missing_config_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("fit")
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate", "--config", SAMPLE_CONFIG)
    assert exc.value.code == 2


def test_nonexistent_config_exits_one(capsys, tmp_path):
    assert run("fit", "--config", str(tmp_path / "nope.yaml")) == 1
    assert "error:" in capsys.readouterr().err


def test_manifest_command_mismatch(capsys, tmp_path):
    out = tmp_path / "fit"
    assert run("fit", "--config", SAMPLE_CONFIG, "--out", str(out)) == 0
    assert run("corr", "--config", str(out / "manifest.yaml"), "--out", str(tmp_path / "x")) == 1
    assert "manifest was written by" in capsys.readouterr().err


def _first_difference(name: str, got: bytes, expected: bytes) -> str:
    pairs = zip_longest(got.splitlines(keepends=True), expected.splitlines(keepends=True))
    for lineno, (got_line, expected_line) in enumerate(pairs, 1):
        if got_line != expected_line:
            return f"{name} line {lineno}:\n  expected {expected_line!r}\n  got      {got_line!r}"
    return name


def _compare_dirs(got: Path, expected: Path):
    got_files = sorted(p.name for p in got.iterdir())
    expected_files = sorted(p.name for p in expected.iterdir())
    assert got_files == expected_files
    for name in expected_files:
        got_bytes = (got / name).read_bytes()
        expected_bytes = (expected / name).read_bytes()
        assert got_bytes == expected_bytes, _first_difference(name, got_bytes, expected_bytes)


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_outputs(command, tmp_path):
    out = tmp_path / command
    assert run(command, "--config", SAMPLE_CONFIG, "--out", str(out)) == 0
    _compare_dirs(out, ROOT / "sample" / "golden" / command)


def test_manifest_round_trip(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run("bootstrap", "--config", SAMPLE_CONFIG, "--out", str(first)) == 0
    assert run("bootstrap", "--config", str(first / "manifest.yaml"), "--out", str(second)) == 0
    _compare_dirs(second, first)


def test_seed_override_changes_resampling(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("bootstrap", "--config", SAMPLE_CONFIG, "--out", str(a)) == 0
    assert run("bootstrap", "--config", SAMPLE_CONFIG, "--out", str(b), "--seed", "99") == 0
    assert (a / "bootstrap_coefficients.csv").read_bytes() != (b / "bootstrap_coefficients.csv").read_bytes()
    manifest = yaml.safe_load((b / "manifest.yaml").read_text())
    assert manifest["seed"] == 99


def test_threads_flag_does_not_change_outputs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("simulate", "--config", SAMPLE_CONFIG, "--out", str(a)) == 0
    assert run("simulate", "--config", SAMPLE_CONFIG, "--out", str(b), "--threads", "4") == 0
    assert (a / "coverage.csv").read_bytes() == (b / "coverage.csv").read_bytes()


def test_invalid_threads_rejected(capsys):
    assert run("fit", "--config", SAMPLE_CONFIG, "--threads", "0") == 1
    assert "threads" in capsys.readouterr().err


def test_corr_empty_group_reports_no_pairs(tmp_path):
    config = yaml.safe_load((ROOT / SAMPLE_CONFIG).read_text())
    config["corr"] = {"groups": [{"label": "ghost country", "kind": "spatial", "country": "ZZ"}]}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "corr"
    assert run("corr", "--config", str(cfg_path), "--out", str(out)) == 0
    lines = (out / "correlations.csv").read_text().splitlines()
    assert lines[1] == "spatial,ghost country,NA,NA,NA,0,0"


@pytest.mark.parametrize(
    "corr, message",
    [
        ({"groups": [{"label": "near", "kind": "spatial", "below_kms": 1000}]},
         "unknown corr group key 'below_kms'"),
        ({"groups": [{"label": "c", "kind": "spatial", "consecutive": True}]},
         "corr group key 'consecutive' does not apply to a spatial group"),
        ({"groups": [{"label": "s", "kind": "temporal", "same_country": True}]},
         "corr group key 'same_country' does not apply to a temporal group"),
        ({"min_overlap": 1},
         "min_overlap must be at least 2 (a correlation needs two points), got 1"),
    ],
    ids=["unknown_key", "consecutive_on_spatial", "same_country_on_temporal", "min_overlap_1"],
)
def test_corr_config_errors_named(corr, message, capsys, tmp_path):
    config = yaml.safe_load((ROOT / SAMPLE_CONFIG).read_text())
    config["corr"].update(corr)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert run("corr", "--config", str(cfg_path), "--out", str(tmp_path / "corr")) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_fit_trivial_model_reports_only_intercept_and_dummies(tmp_path):
    import json

    config = yaml.safe_load((ROOT / SAMPLE_CONFIG).read_text())
    config["model"]["terms"] = []
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "fit"
    assert run("fit", "--config", str(cfg_path), "--out", str(out)) == 0
    table = json.loads((out / "coefficients.json").read_text())
    kinds = {c["label"].split("=")[0] for c in table["coefficients"]}
    assert kinds == {"intercept", "region", "year"}
    assert not list(out.glob("response_curves_*"))


def test_fit_estimates_identical_across_schemes():
    import json

    table = json.loads((ROOT / "sample/golden/fit/coefficients.json").read_text())
    for coef in table["coefficients"]:
        assert set(coef["se"]) == {"region", "country_year"}
        # point estimates are scheme-independent by construction; the golden
        # table carries one estimate with per-scheme uncertainty around it
        assert coef["se"]["region"] > 0 and coef["se"]["country_year"] > 0


@pytest.mark.parametrize("command", ["cv", "ic"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"direction": "forward", "candidates": None}, "forward scan needs candidates"),
        ({"direction": "sideways"}, "unknown scan direction 'sideways'"),
        ({"direction": "backward"}, "backward scan takes no candidates"),
    ],
    ids=["no_candidates", "unknown_direction", "backward_candidates"],
)
def test_scan_config_errors_named_alike(command, change, message, capsys, tmp_path):
    # cv and ic share one model sequence, so they reject a bad scan alike
    config = yaml.safe_load((ROOT / SAMPLE_CONFIG).read_text())
    section = config[command]
    for key, value in change.items():
        if value is None:
            section.pop(key, None)
        else:
            section[key] = value
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert run(command, "--config", str(cfg_path), "--out", str(tmp_path / command)) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_ic_rank_deficient_reference_names_columns(capsys, tmp_path):
    # xbar is constant within each region, so its lags 0 and 1 coincide
    config = yaml.safe_load((ROOT / SAMPLE_CONFIG).read_text())
    config["model"]["terms"].append({"variable": "xbar", "differenced": False, "max_lag": 1})
    config["ic"]["direction"] = "backward"
    del config["ic"]["candidates"]
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert run("ic", "--config", str(cfg_path), "--out", str(tmp_path / "ic")) == 1
    err = capsys.readouterr().err
    assert "offending columns: " in err and "xbar.l" in err.split("offending columns: ")[1]
    assert "<reference model>" not in err


def test_bootstrap_reports_unresolved_year_dummies_as_na(tmp_path):
    # a gappy panel clustered by year: resamples that miss a year leave its
    # dummy (or, missing the reference year, the intercept and every year
    # dummy) NaN in too many draws to resolve at level 0.9
    ds = generate_panel(DgpConfig(n_regions=8, n_years=12, countries=4), seed=4)
    ri, ti = np.nonzero(ds.present & (np.arange(12) >= np.arange(8)[:, None] % 3))
    ri, ti = ri[(ri + ti) % 7 != 0], ti[(ri + ti) % 7 != 0]
    outcome = ds.outcome[ri, ti].copy()
    outcome[::13] = np.nan
    gappy = PanelDataset(np.array(ds.regions)[ri], np.array(ds.countries)[ri], ti + 2000,
                         outcome, {"x": ds.predictors["x"][ri, ti]})
    save_csv(gappy, tmp_path / "panel.csv")
    config = {
        "data": {"path": str(tmp_path / "panel.csv"),
                 "columns": {"region": "region", "country": "country", "year": "year",
                             "outcome": "outcome"},
                 "predictors": {"x": "x"}},
        "model": {"fixed_effects": ["region", "year"],
                  "terms": [{"variable": "x", "differenced": True, "max_lag": 1}]},
        "bootstrap": {"scheme": "year", "b": 30, "levels": [0.9]},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "bootstrap"
    assert run("bootstrap", "--config", str(cfg_path), "--out", str(out)) == 0
    with open(out / "bootstrap_coefficients.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    unresolved = [r for r in rows if r["lower"] == "NA"]
    assert unresolved
    for r in unresolved:
        assert r["label"] == "intercept" or r["label"].startswith("year="), r
        assert r["upper"] == "NA" and r["median"] == "NA" and 0 < int(r["used_draws"]) < 20
    for r in rows:
        if r["label"].startswith("d.x"):
            assert math.isfinite(float(r["lower"])) and math.isfinite(float(r["upper"]))
            assert int(r["used_draws"]) >= 20
