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


def test_parser_is_built_once_and_each_call_resolves_its_own_seed(tmp_path, capsys):
    # the parser is cached for the process: a flag given to one call must
    # not leak into the next, and usage errors still exit 2
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "--config", SAMPLE_CONFIG, "--out", str(a), "--seed", "5") == 0
    assert run("simulate", "--config", SAMPLE_CONFIG, "--out", str(b)) == 0
    assert yaml.safe_load((a / "manifest.yaml").read_text())["seed"] == 5
    assert yaml.safe_load((b / "manifest.yaml").read_text())["seed"] == 11  # the config's
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--seed", "5")
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def _crafted_draws(monkeypatch, edit):
    """Make ``cmd_bootstrap`` read out the sample bootstrap with its draws
    edited by ``edit(draws, column kinds)``; the edited samples are listed."""
    real, made = cli.block_bootstrap, []

    def crafted(*args, **kwargs):
        sample = real(*args, **kwargs)
        draws = np.array(sample.draws)
        edit(draws, [lab.kind for lab in sample.base_fit.column_labels])
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
    kinds = [lab.kind for lab in sample.base_fit.column_labels]
    want, sd = [], {}
    for j, name in enumerate(sample.column_names):
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
    ],
    ids=["simulate_level", "simulate_correction", "nan_noise_scale", "inf_noise_scale",
         "nan_beta_true", "scheme_on_coverage", "schemes_on_bias",
         "project_levels", "weights_with_mean", "weighted_without_weights",
         "weight_without_rows", "negative_weight", "nan_weight", "inf_weight", "bad_int", "null"],
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
        assert "error: no finite projection draws for 'low' in 2021" in capsys.readouterr().err


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
    assert manifest["command"] == "fit" and (manifest["seed"], manifest["threads"]) == (0, 1)
    assert manifest["config"] == {
        "seed": 0,
        "threads": 1,
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
    # manifests used to echo the config as given; they rerun to the goldens,
    # whose manifests hold the resolved configuration
    old = tmp_path / "manifest.yaml"
    old.write_text(yaml.safe_dump(
        {"command": command, "seed": 11, "threads": 1, "config": _sample_config()}))
    assert run(command, "--config", str(old), "--out", str(tmp_path / command)) == 0
    _compare_dirs(tmp_path / command, ROOT / "sample" / "golden" / command)


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
