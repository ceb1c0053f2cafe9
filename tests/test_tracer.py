"""The benchmark's tracer still finds what it times and counts.

``bench/tracer.py`` rebinds public functions by name and reads fields of
their results; a rename or a dropped field in the program would break
``bench/run.py --trace 1`` without any other test noticing.  The tracer is
loaded from its file, without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from clusterpanel.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_function(tracer_module):
    names = {(mod, func) for mod, func, _ in tracer_module.TARGETS}
    assert {("panel", "fixed_effect_dummies"), ("modelselect", "cv_loss")} <= names
    for mod, func in sorted(names):
        assert callable(getattr(importlib.import_module(f"clusterpanel.{mod}"), func)), (mod, func)


def test_traced_fit_and_bootstrap_count_their_work(tracer_module, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)  # the sample config names its data relative to the root
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # few clusters
            for command in ("fit", "bootstrap"):
                assert main([command, "--config", "sample/config.yaml",
                             "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["regression.ols_fit.gflop"] > 0
    assert summary["bootstrap.replicates"] == 80


def test_traced_cv_runs_the_fold_loop_once_per_scheme(tracer_module, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    config = yaml.safe_load(Path("sample/config.yaml").read_text(encoding="utf-8"))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # few clusters
            assert main(["cv", "--config", "sample/config.yaml", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary.get("modelselect.cv_loss.calls", 0) == len(config["cv"]["schemes"])
    assert summary["panel.build_design.calls"] == 1  # one union design serves every scheme
