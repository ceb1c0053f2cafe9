import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
import yaml

from clusterpanel import cli, reports
from clusterpanel.bootstrap import min_draws
from clusterpanel.cli import COMMANDS, main
from clusterpanel.panel import (ClusterScheme, ModelSpec, PanelDataset, TermSpec, assign_clusters,
                                build_design, save_csv)
from clusterpanel.regression import Absorbed
from clusterpanel.simstudy import DgpConfig, generate_panel

from conftest import clustered_sandwich, dense_X, near_copy_panel

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
    assert manifest["config"]["seed"] == 99


def test_parser_is_built_once_and_each_call_resolves_its_own_seed(tmp_path, capsys):
    # the parser is cached for the process: a flag given to one call must
    # not leak into the next, and usage errors still exit 2
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "--config", SAMPLE_CONFIG, "--out", str(a), "--seed", "5") == 0
    assert run("simulate", "--config", SAMPLE_CONFIG, "--out", str(b)) == 0
    assert yaml.safe_load((a / "manifest.yaml").read_text())["config"]["seed"] == 5
    assert yaml.safe_load((b / "manifest.yaml").read_text())["config"]["seed"] == 11  # the config's
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--seed", "5")
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def _kinds(sample):
    """Each column's kind: its label's for a column of ``X``, else "dummy"."""
    kinds = [lab.kind for lab in sample.design.column_labels]
    return kinds + ["dummy"] * (len(sample.design.column_names) - len(kinds))


def _crafted_draws(monkeypatch, edit):
    """Make ``cmd_bootstrap`` read out the sample bootstrap with its draws
    edited by ``edit(draws, column kinds)``; the edited samples are listed."""
    real, made = cli.block_bootstrap, []

    def crafted(*args, **kwargs):
        sample = real(*args, **kwargs)
        draws = np.array(sample.draws)
        edit(draws, _kinds(sample))
        made.append(replace(sample, draws=draws))
        return made[-1]

    monkeypatch.setattr(cli, "block_bootstrap", crafted)
    return made


def test_bootstrap_table_matches_the_per_column_read_out(tmp_path, monkeypatch):
    # the oracle is the per-column read-out: np.quantile and np.nanstd of a
    # column's finite draws; an intercept or dummy column with fewer than
    # min_draws of them is unresolved (NA interval, draws still counted)
    def edit(draws, kinds):
        dummies = [j for j, kind in enumerate(kinds) if kind == "dummy"]
        draws[:, kinds.index("intercept")] = math.nan
        draws[5:, dummies[0]] = math.nan
        draws[::3, dummies[1]] = math.nan
        draws[:9, kinds.index("base")] = math.nan
        draws[:, dummies[2]] = np.round(draws[:, dummies[2]], 2)  # tied order statistics

    made = _crafted_draws(monkeypatch, edit)
    config = yaml.safe_load((ROOT / SAMPLE_CONFIG).read_text())
    config["bootstrap"]["levels"] = [0.9, 0.5, 0.9]
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "boot"
    assert run("bootstrap", "--config", str(cfg_path), "--out", str(out)) == 0
    (sample,) = made
    kinds = _kinds(sample)
    want, sd = [], {}
    for j, name in enumerate(sample.design.column_names):
        finite = sample.draws[np.isfinite(sample.draws[:, j]), j]
        for level in (0.9, 0.5):
            bounds = np.quantile(finite, [0.5 - level / 2, 0.5, 0.5 + level / 2]) \
                if finite.size >= min_draws(level) else [math.nan] * 3
            want.append([name, str(level), *map(reports.fmt, bounds), str(finite.size)])
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sd[name] = float(np.nanstd(sample.draws[:, j], ddof=1))
        assert finite.size >= min_draws(0.9) or kinds[j] in ("intercept", "dummy")
    with open(out / "bootstrap_coefficients.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == want
    summary = json.loads((out / "bootstrap_summary.json").read_text())
    assert summary["sd"] == {k: None if math.isnan(v) else v for k, v in sd.items()}
    assert any(row[2] == "NA" for row in want) and any(row[5] == "5" for row in want)


def test_bootstrap_term_column_below_min_draws_fails(tmp_path, monkeypatch, capsys):
    def edit(draws, kinds):
        draws[:, kinds.index("dummy")] = math.nan  # unresolved, not an error
        draws[19:, [j for j, kind in enumerate(kinds) if kind == "base"][1]] = math.nan

    _crafted_draws(monkeypatch, edit)
    assert run("bootstrap", "--config", SAMPLE_CONFIG, "--out", str(tmp_path / "boot")) == 1
    assert "B=19 usable draws too small for level 0.9; need at least 20" in capsys.readouterr().err


def test_threads_flag_does_not_change_outputs(tmp_path):
    # --threads is accepted and ignored: any value leaves every output byte,
    # the manifest's included, as the golden run wrote it
    for threads in ("4", "0"):
        out = tmp_path / threads
        assert run("simulate", "--config", SAMPLE_CONFIG, "--out", str(out), "--threads", threads) == 0
        _compare_dirs(out, ROOT / "sample" / "golden" / "simulate")


@pytest.mark.parametrize("command", ["fit", "bootstrap", "simulate"])
def test_negative_seed_fails_by_name_and_writes_nothing(command, tmp_path, capsys):
    out = tmp_path / command
    assert run(command, "--config", SAMPLE_CONFIG, "--seed", "-1", "--out", str(out)) == 1
    assert "seed must be a non-negative integer or a tuple of them: -1" in capsys.readouterr().err
    assert not out.exists()


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
         "unknown key 'below_kms' in section 'corr.groups[0]'"),
        ({"groups": [{"label": "c", "kind": "spatial", "consecutive": True}]},
         "key 'consecutive' in section 'corr.groups[0]' does not apply to kind 'spatial'"),
        ({"groups": [{"label": "s", "kind": "temporal", "same_country": True}]},
         "key 'same_country' in section 'corr.groups[0]' does not apply to kind 'temporal'"),
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
    # region clusters leave the region effects no variance without terms
    # (test_fit_names_structurally_zero_region_variances)
    config["fit"]["schemes"] = ["country_year"]
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


def _xz_config(ds, tmp_path, schemes) -> dict:
    """``ds`` saved under ``tmp_path`` and a config fitting its x and z,
    undifferenced, with the region effect, under the fit ``schemes``."""
    save_csv(ds, tmp_path / "panel.csv")
    return {
        "seed": 0,
        "data": {"path": str(tmp_path / "panel.csv"),
                 "columns": {"region": "region", "country": "country", "year": "year",
                             "outcome": "outcome"},
                 "predictors": {"x": "x", "z": "z"}},
        "model": {"fixed_effects": ["region"],
                  "terms": [{"variable": "x", "differenced": False},
                            {"variable": "z", "differenced": False}]},
        "fit": {"schemes": schemes},
        "bootstrap": {"scheme": "region", "b": 40, "levels": [0.9]},
    }


def test_fit_and_bootstrap_both_run_on_a_near_collinear_design(tmp_path, capsys):
    # z = x + 5.74e-15 max|x| noise: the fit keeps both columns under the
    # pivoted-QR rank rule, and the bootstrap refits every replicate under it
    ds = generate_panel(DgpConfig(n_regions=20, n_years=10, countries=4), 0)
    config = _xz_config(near_copy_panel(ds, 5.74e-15), tmp_path, ["region"])
    for command in ("fit", "bootstrap"):
        assert _run_config(config, command, tmp_path) == 0, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scale", [1e-7, 1e-9, 1e-11, 1e-13, 5.74e-15])
def test_near_collinear_fit_writes_the_ses_of_a_dense_triangle_bread(scale, tmp_path, capsys):
    # z = x + scale max|x| noise, so cond(X~) grows as 1/scale: every term SE
    # written is within 10 cond(X~) eps of the dense design's sandwich, whose
    # residuals are y less its projection on the columns and whose bread comes
    # from the columns' QR triangle, never from X'X
    ds = near_copy_panel(generate_panel(DgpConfig(n_regions=20, n_years=10, countries=4), 0),
                         scale)
    config = _xz_config(ds, tmp_path, ["region", "country"])
    assert _run_config(config, "fit", tmp_path) == 0, capsys.readouterr().err
    table = json.loads((tmp_path / "fit" / "coefficients.json").read_text())
    spec = ModelSpec((TermSpec("x", differenced=False), TermSpec("z", differenced=False)),
                     ("region",))
    design = build_design(ds, spec)
    X, k = dense_X(design), design.X.shape[1]
    Q = np.linalg.qr(X)[0]
    e = design.y - Q @ (Q.T @ design.y)
    rtol = 10 * np.linalg.cond(Absorbed(design).X) * np.finfo(float).eps
    for label in config["fit"]["schemes"]:
        V = clustered_sandwich(X, e, assign_clusters(design, ClusterScheme.parse(label)))
        got = [c["se"][label] for c in table["coefficients"][:k]]
        np.testing.assert_allclose(got, np.sqrt(np.diag(V)[:k]), rtol=rtol, err_msg=label)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_too_few_clusters_name_their_scheme(tmp_path, capsys):
    # one country: the country scheme has G=1, and fit and cv say so by name
    ds = near_copy_panel(generate_panel(DgpConfig(n_regions=20, n_years=10, countries=1), 0), 1.0)
    config = _xz_config(ds, tmp_path, ["region", "country"])
    config["cv"] = {"schemes": ["region", "country"], "k": 2, "direction": "forward",
                    "candidates": [{"variable": "x", "differenced": False}]}
    for command, message in (("fit", "the country scheme has G=1"),
                             ("cv", "G=1 under the country scheme")):
        capsys.readouterr()
        assert _run_config(config, command, tmp_path) == 1
        assert message in capsys.readouterr().err, command


def _sample_config() -> dict:
    return yaml.safe_load((ROOT / SAMPLE_CONFIG).read_text())


def _run_config(config: dict, command: str, tmp_path: Path) -> int:
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    return run(command, "--config", str(cfg_path), "--out", str(tmp_path / command))


# (command, path to the section in the sample config, key, value, section named)
TYPOS = [
    ("fit", (), "sead", 3, "top level"),
    ("fit", ("data",), "delimeter", ";", "data"),
    ("fit", ("data", "columns"), "regoin", "region", "data.columns"),
    ("fit", ("model",), "fixed_effect", ["year"], "model"),
    ("fit", ("model", "terms", 0), "max_lags", 1, "model.terms[0]"),
    ("fit", ("fit",), "response_curve", False, "fit"),
    ("corr", ("corr",), "min_overlaps", 50, "corr"),
    ("corr", ("corr", "groups", 1), "same_countries", True, "corr.groups[1]"),
    ("cv", ("cv",), "directon", "backward", "cv"),
    ("cv", ("cv",), "scheme", "year", "cv"),  # no longer an alias of schemes
    ("cv", ("cv", "candidates", 0), "max_lags", 1, "cv.candidates[0]"),
    ("ic", ("ic",), "critera", ["AIC"], "ic"),
    ("ic", ("ic", "candidates", 0), "moderater", "xbar", "ic.candidates[0]"),
    ("bootstrap", ("bootstrap",), "B", 10, "bootstrap"),
    ("project", ("project",), "aplha", 0.1, "project"),
    ("project", ("project", "scenarios", 1), "file", "x.csv", "project.scenarios[1]"),
    ("simulate", ("simulate",), "n_region", 5, "simulate"),
]


@pytest.mark.parametrize("command, where, key, value, section", TYPOS,
                         ids=[f"{t[4]}.{t[2]}" for t in TYPOS])
def test_unknown_key_names_key_and_section(command, where, key, value, section, capsys, tmp_path):
    config = _sample_config()
    target = config
    for step in where:
        target = target[step]
    target[key] = value
    assert _run_config(config, command, tmp_path) == 1
    assert f"error: unknown key {key!r} in section {section!r}" in capsys.readouterr().err
    assert not (tmp_path / command / "manifest.yaml").exists()


# every bool key of the schema: (command, path to the key, section)
BOOL_KEYS = [
    ("fit", ("model", "intercept"), "model"),
    ("fit", ("model", "terms", 0, "differenced"), "model.terms[0]"),
    ("fit", ("fit", "response_curves"), "fit"),
    ("ic", ("ic", "adjusted", 1), "ic"),
    ("ic", ("ic", "count_variance_params"), "ic"),
    ("simulate", ("simulate", "with_centroids"), "simulate"),
]


@pytest.mark.parametrize("value", ["false", "yes", 0, 1])
@pytest.mark.parametrize("command, where, section", BOOL_KEYS,
                         ids=[".".join(map(str, t[1])) for t in BOOL_KEYS])
def test_bool_keys_take_only_yaml_booleans(command, where, section, value, capsys, tmp_path):
    config = _sample_config()
    config["ic"]["adjusted"] = [False, True]
    target = config
    for step in where[:-1]:
        target = target[step]
    target[where[-1]] = value
    assert _run_config(config, command, tmp_path) == 1
    key = where[-1] if isinstance(where[-1], str) else where[-2]
    assert (f"error: bad {key!r} in section {section!r}: expected true or false, got {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "model",
    [{"terms": []}, {"terms": [], "intercept": False, "fixed_effects": ["region"]}],
    ids=["two_way_no_terms", "region_only_no_intercept"],
)
def test_fit_names_structurally_zero_region_variances(model, capsys, tmp_path):
    # without terms, region clusters leave each region effect a clustered
    # variance that is zero but for roundoff (SEs of 1e-18 to 2.5e-16)
    config = _sample_config()
    config["model"].update(model)
    config["fit"]["schemes"] = ["region"]
    assert _run_config(config, "fit", tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: nonpositive variance for columns ['region=R001', 'region=R002'" in err
    assert "'region=R029'] under the region scheme" in err


def test_max_lag_ceiling_reaches_every_command(tmp_path):
    config = _sample_config()
    config["model"]["terms"][0]["max_lag"] = 11
    config["model"]["max_lag_ceiling"] = 12
    for command in ("fit", "corr", "cv", "ic", "bootstrap", "project"):
        assert _run_config(config, command, tmp_path) == 0, command


@pytest.mark.parametrize(
    "section, key, value, message",
    [("model", "fixed_effects", "region",
      "bad 'fixed_effects' in section 'model': expected a list, got 'region'"),
     ("data", "predictors", "x", "bad 'predictors' in section 'data': expected a mapping, got 'x'"),
     ("model", "moderator_alignment", "lagged", "unknown moderator_alignment 'lagged'")],
    ids=["fixed_effects", "predictors", "alignment"],
)
def test_model_and_data_errors_named(section, key, value, message, capsys, tmp_path):
    config = _sample_config()
    config[section][key] = value
    assert _run_config(config, "fit", tmp_path) == 1
    assert message in capsys.readouterr().err


def test_tuple_defaults_pass_as_lists():
    config = _sample_config()
    for key in ("criteria", "adjusted"):
        del config["ic"][key]
    ic = cli.resolve(config, "ic")["ic"]
    assert (ic["criteria"], ic["adjusted"]) == (["AIC", "BIC"], [False, True])


def test_unknown_key_in_an_unread_section_is_an_error(capsys, tmp_path):
    config = _sample_config()
    config["corr"]["min_overlaps"] = 50
    assert _run_config(config, "fit", tmp_path) == 1
    assert "unknown key 'min_overlaps' in section 'corr'" in capsys.readouterr().err


def test_simulate_needs_no_data_section(tmp_path):
    config = _sample_config()
    assert _run_config({"seed": 3, "simulate": config["simulate"]}, "simulate", tmp_path) == 0


@pytest.mark.parametrize(
    "scheme, message",
    [("country", "scheme 'country' has G=1 on the simulated panel"),
     ("custom:foo", "scheme 'custom:foo' cannot cluster the simulated panel")],
    ids=["one_country", "missing_custom_column"],
)
def test_simulate_unusable_scheme_exits_one(scheme, message, capsys, tmp_path):
    # one unusable scheme fails the run by name, not as every scheme's reps failing
    simulate = _sample_config()["simulate"] | {"schemes": ["region", scheme]}
    assert _run_config({"seed": 3, "simulate": simulate}, "simulate", tmp_path) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "simulate" / "coverage.csv").exists()



def test_simulate_takes_predictor_weights_summing_to_one(tmp_path):
    simulate = _sample_config()["simulate"] | {"predictor_shared_weight": 0.9,
                                               "predictor_spatial_weight": 0.1}
    assert _run_config({"seed": 3, "simulate": simulate}, "simulate", tmp_path) == 0


def test_fit_rejects_an_argument_to_a_kind_without_one(capsys, tmp_path):
    config = _sample_config()
    config["fit"]["schemes"] = ["region:x"]
    assert _run_config(config, "fit", tmp_path) == 1
    assert "cluster scheme 'region' takes no argument, got 'region:x'" in capsys.readouterr().err
    assert not list((tmp_path / "fit").glob("*"))


def test_fit_rejects_two_schemes_that_write_one_file(capsys, tmp_path):
    # custom:a_b and custom:a:b both name response_curves_custom_a_b.csv
    config = _sample_config()
    config["data"]["custom_columns"] = {"a_b": "year_str", "a:b": "groups"}
    config["fit"]["schemes"] = ["custom:a_b", "custom:a:b"]
    assert _run_config(config, "fit", tmp_path) == 1
    err = capsys.readouterr().err
    assert ("fit schemes 'custom:a_b' and 'custom:a:b' both write "
            "response_curves_custom_a_b.csv") in err
    assert not list((tmp_path / "fit").glob("**/*"))


def test_project_rejects_two_scenarios_with_one_label(capsys, tmp_path):
    # the second would overwrite the first's unseen levels and pair with it
    config = _sample_config()
    config["project"]["scenarios"][1]["label"] = "low"
    assert _run_config(config, "project", tmp_path) == 1
    assert "project scenario label 'low' is listed twice" in capsys.readouterr().err
    assert not list((tmp_path / "project").glob("**/*"))


@pytest.mark.parametrize("command", ["cv", "ic"])
def test_a_scan_rejects_a_candidate_listed_twice(command, capsys, tmp_path):
    # a table list is not de-duplicated: each entry would be scanned twice
    config = _sample_config()
    config[command]["candidates"] *= 2
    assert _run_config(config, command, tmp_path) == 1
    assert "candidate 'd.x' is listed twice" in capsys.readouterr().err
    assert not list((tmp_path / command).glob("**/*"))


# (command, section, key, values listing one value twice); the run matches
# the run over each value once, byte for byte, manifest included
REPEATS = [
    ("fit", "fit", "schemes", ["region", "country_year", "region"]),
    ("fit", "model", "fixed_effects", ["region", "year", "region"]),
    ("cv", "cv", "schemes", ["region", "region"]),
    ("ic", "ic", "criteria", ["AIC", "AIC"]),
    ("ic", "ic", "adjusted", [False, True, True]),
    ("bootstrap", "bootstrap", "levels", [0.9, 0.5, 0.9]),
    ("project", "project", "levels", [0.65, 0.9, 0.65]),
]


@pytest.mark.parametrize("command, section, key, values", REPEATS,
                         ids=[f"{s}.{k}" for _, s, k, _ in REPEATS])
def test_a_listed_value_runs_once(command, section, key, values, tmp_path):
    once, twice = _sample_config(), _sample_config()
    once[section][key] = list(dict.fromkeys(values))
    twice[section][key] = values
    (tmp_path / "once").mkdir(), (tmp_path / "twice").mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # project's dropped draws
        assert _run_config(once, command, tmp_path / "once") == 0
        assert _run_config(twice, command, tmp_path / "twice") == 0
    _compare_dirs(tmp_path / "twice" / command, tmp_path / "once" / command)
    manifest = yaml.safe_load((tmp_path / "twice" / command / "manifest.yaml").read_text())
    assert manifest["config"][section][key] == list(dict.fromkeys(values))


def test_fit_rejects_a_scheme_label_that_cannot_name_a_file(capsys, tmp_path):
    # response_curves_custom_a/b.csv would fail only after coefficients.json is written
    config = _sample_config()
    config["data"]["custom_columns"] = {"a/b": "year_str"}
    config["fit"]["schemes"] = ["custom:a/b"]
    assert _run_config(config, "fit", tmp_path) == 1
    err = capsys.readouterr().err
    assert "cluster scheme 'custom:a/b': an argument may not hold '/' or NUL" in err
    assert not list((tmp_path / "fit").glob("**/*"))

DROP = object()  # a change that removes the key


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("simulate", {"level": 1.5}, "level must be in (0, 1), got 1.5"),
        ("simulate", {"correction": "CR2"}, "unknown correction 'CR2'; use 'CR0' or 'CR1'"),
        ("simulate", {"noise_scale": math.nan}, "noise_scale must be finite, got nan"),
        ("simulate", {"noise_scale": math.inf}, "noise_scale must be finite, got inf"),
        ("simulate", {"beta_true": math.nan}, "beta_true must be finite, got nan"),
        ("simulate", {"scheme": "year"},
         "key 'scheme' in section 'simulate' does not apply to study 'coverage'"),
        ("simulate", {"study": "bias", "noise_shared_weight": 0.0, "reps": 500, "level": DROP},
         "key 'schemes' in section 'simulate' does not apply to study 'bias'"),
        ("project", {"levels": [0.9, 1.5]}, "level must be in (0, 1), got 1.5"),
        ("project", {"alpha": 1.5},
         "bad 'alpha' in section 'project': level must be in (0, 1), got 1.5"),
        ("project", {"weights": {"R000": 2.0}},
         "key 'weights' in section 'project' does not apply to aggregation 'mean'"),
        ("project", {"aggregation": "weighted"}, "key 'weights' is missing from section 'project'"),
        ("project", {"aggregation": "weighted", "weights": {"R000": 2.0, "R0O1": 1.0}},
         "weight for region 'R0O1', which has no rows in scenario 'low'"),
        ("project", {"aggregation": "weighted", "weights": {"R000": -1.0, "R001": 3.0}},
         "weight for region 'R000' must be finite and >= 0, got -1.0"),
        ("project", {"aggregation": "weighted", "weights": {"R000": 1.0, "R001": math.nan}},
         "weight for region 'R001' must be finite and >= 0, got nan"),
        ("project", {"aggregation": "weighted", "weights": {"R000": math.inf}},
         "weight for region 'R000' must be finite and >= 0, got inf"),
        ("bootstrap", {"b": "many"},
         "bad 'b' in section 'bootstrap': invalid literal for int() with base 10: 'many'"),
        ("bootstrap", {"scheme": None}, "bad 'scheme' in section 'bootstrap': it may not be null"),
        ("bootstrap", {"levels": 0.9}, "bad 'levels' in section 'bootstrap': expected a list, got 0.9"),
        ("fit", {"schemes": "region"}, "bad 'schemes' in section 'fit': expected a list, got 'region'"),
        ("cv", {"candidates": [{"variable": "x", "max_lag": 11}]},
         "max_lag 11 outside 0..10 for 'x'"),
        ("corr", {"groups": [{"label": "near", "kind": "spatial", "below_km": math.nan}]},
         "below_km must be a distance >= 0 km, got nan"),
    ],
    ids=["simulate_level", "simulate_correction", "nan_noise_scale", "inf_noise_scale",
         "nan_beta_true", "scheme_on_coverage", "schemes_on_bias",
         "project_levels", "project_alpha", "weights_with_mean", "weighted_without_weights",
         "weight_without_rows", "negative_weight", "nan_weight", "inf_weight", "bad_int", "null",
         "scalar_levels", "scalar_schemes", "candidate_above_ceiling", "nan_below_km"],
)
def test_setting_errors_named(command, change, message, capsys, tmp_path):
    section = _sample_config()[command]
    for key, value in change.items():
        if value is DROP:
            del section[key]
        else:
            section[key] = value
    assert _run_config({"seed": 1, "data": _sample_config()["data"], command: section}, command,
                       tmp_path) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / command).exists() or not any((tmp_path / command).iterdir())


DROPPED = "draws dropped; each lacks the intercept or a fixed effect that the path reads"


@pytest.mark.parametrize("scheme, dropped, code", [("year", 26, 0), ("region", 80, 1)],
                         ids=["year", "region"])
def test_project_warns_of_dropped_draws(scheme, dropped, code, capsys, tmp_path):
    # year-scheme replicates without the reference year lack the intercept;
    # every region-scheme replicate leaves out some region that the paths
    # read, so no draw is left
    config = _sample_config()
    config["project"]["scheme"] = scheme
    with pytest.warns(UserWarning) as caught:
        assert _run_config(config, "project", tmp_path) == code
    assert [str(w.message) for w in caught if DROPPED in str(w.message)] == [
        f"scenario 'low': {dropped} of 80 {DROPPED}", f"scenario 'high': {dropped} of 80 {DROPPED}"]
    if code:
        assert ("error: scenario 'low': B=0 usable draws too small for level 0.65; "
                "need at least 20") in capsys.readouterr().err
        assert not (tmp_path / "project" / "projection.csv").exists()


def test_project_below_min_draws_fails_before_writing(capsys, tmp_path):
    # B=19 year-scheme replicates leave 10 usable draws per scenario, fewer
    # than the 20 that levels 0.65 and 0.9 need
    config = _sample_config()
    config["project"]["b"] = 19
    with pytest.warns(UserWarning, match=DROPPED):
        assert _run_config(config, "project", tmp_path) == 1
    assert ("error: scenario 'low': B=10 usable draws too small for level 0.65; "
            "need at least 20") in capsys.readouterr().err
    assert not (tmp_path / "project" / "projection.csv").exists()


def test_project_reads_out_a_repeated_level_once(tmp_path):
    config = _sample_config()
    config["project"]["levels"] = [0.9, 0.9]
    with pytest.warns(UserWarning, match=DROPPED):
        assert _run_config(config, "project", tmp_path) == 0
    rows = (tmp_path / "project" / "projection.csv").read_text().splitlines()
    golden = (ROOT / "sample/golden/project/projection.csv").read_text().splitlines()
    assert rows == [row for row in golden if row.split(",")[2] in ("level", "0.9")]


@pytest.mark.parametrize("command, table, header", [
    ("bootstrap", "bootstrap_coefficients.csv", "label,level,lower,median,upper,used_draws"),
    ("project", "projection.csv", "scenario,year,level,median,lower,upper"),
])
def test_no_levels_write_header_only_tables(command, table, header, tmp_path):
    config = _sample_config()
    config[command]["levels"] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # project's dropped draws
        assert _run_config(config, command, tmp_path) == 0
    assert (tmp_path / command / table).read_text() == header + "\n"


def test_minimal_config_manifest_holds_resolved_defaults(tmp_path):
    config = {
        "data": {"path": "sample/panel.csv", "predictors": {"x": "x"},
                 "columns": {"region": "region", "country": "country", "year": "year",
                             "outcome": "outcome"}},
        "model": {"terms": [{"variable": "x"}]},
    }
    assert _run_config(config, "fit", tmp_path) == 0
    first, second = tmp_path / "fit", tmp_path / "rerun"
    manifest = yaml.safe_load((first / "manifest.yaml").read_text())
    assert list(manifest) == ["command", "config"] and manifest["command"] == "fit"
    assert manifest["config"] == {
        "seed": 0,
        "out": "out/fit",
        "data": {
            "path": "sample/panel.csv",
            "delimiter": ",",
            "columns": {"region": "region", "country": "country", "year": "year",
                        "outcome": "outcome", "lat": None, "lon": None},
            "predictors": {"x": "x"},
            "group_columns": [],
            "custom_columns": {},
        },
        "model": {
            "intercept": True,
            "fixed_effects": [],
            "moderator_alignment": "contemporaneous",
            "max_lag_ceiling": 10,
            "terms": [{"variable": "x", "differenced": True, "moderator": None, "max_lag": 0}],
        },
        "fit": {"schemes": ["region"], "correction": "CR1", "level": 0.95, "response_curves": True},
    }
    assert run("fit", "--config", str(first / "manifest.yaml"), "--out", str(second)) == 0
    _compare_dirs(second, first)


@pytest.mark.parametrize("command", COMMANDS)
def test_as_given_manifest_reruns_like_resolved(command, tmp_path):
    # manifests used to echo the config as given under a seed and threads
    # header, and later the resolved config holding threads; both rerun to
    # the goldens, whose manifests are the command and the resolved config
    golden = ROOT / "sample" / "golden" / command
    resolved = yaml.safe_load((golden / "manifest.yaml").read_text())["config"]
    old = {"as_given": {"command": command, "seed": 11, "threads": 1, "config": _sample_config()},
           "resolved": {"command": command, "seed": 11, "threads": 1,
                        "config": {**resolved, "threads": 1}}}
    for name, manifest in old.items():
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(manifest))
        assert run(command, "--config", str(tmp_path / f"{name}.yaml"),
                   "--out", str(tmp_path / name)) == 0
        _compare_dirs(tmp_path / name, golden)


def _schema_keys(table: dict) -> set:
    keys = set()
    for key, (kind, _) in table.items():
        keys.add(key)
        if isinstance(kind, cli.Variants):
            keys |= set().union(*(_schema_keys(t) for t in kind.values()))
        elif isinstance(kind, (dict, list)):
            keys |= _schema_keys(kind if isinstance(kind, dict) else kind[0])
    return keys


def test_readme_config_block_matches_schema():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Config file", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    config = yaml.safe_load(block)
    for command in COMMANDS:  # no unknown key, and every command's sections resolve
        cli.resolve(config, command)
    undocumented = {key for key in _schema_keys(cli.SCHEMA) if f"{key}:" not in block}
    assert not undocumented, f"keys missing from the README schema: {sorted(undocumented)}"


def test_cli_never_imports_scipy(tmp_path):
    # scipy once cost about half of every command's start-up; the program now
    # computes its one special function, the Student-t quantile, itself.
    # Importing the CLI and running all seven commands in one fresh
    # interpreter loads no scipy module.
    script = (
        "import sys\n"
        "from clusterpanel import cli\n"
        "for command in sys.argv[1:]:\n"
        f"    out = {str(tmp_path)!r} + '/' + command\n"
        f"    assert cli.main([command, '--config', {SAMPLE_CONFIG!r}, '--out', out]) == 0\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    assert not loaded, (command, loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *COMMANDS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
