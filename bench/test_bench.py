"""Smoke tests of the benchmark at the tiny scale.

Run from the root of a source checkout:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

# sha256 of the tiny-scale inputs for seed 0: the generator must not drift
INPUT_SHA256 = {
    "panel_fe": {
        "panel.csv": "65a7a9a8064ec47586cc5af0b26e6d1370d76892b68c73b9af696d4079b072d9",
        "scenario_low.csv": "9669b732eaef51488d091cf31da3eed25d4fc5fed0ab840878a29f67d2e4921e",
        "scenario_high.csv": "76eb865a8f8207c4aefc4f8007e0f7f6b9c159dd0eb2e443bc9383e3c21d50c0",
        "config.yaml": "a5a34b2c9f59ba06f5afe1250daed5c285e892a117bc1b2db53a46ae45c779de",
    },
    "panel_gappy": {
        "panel.csv": "343f4e4e1273e60f344bf9b930f2ac7565338cd6786c7864cd48ab57856990bb",
        "config.yaml": "d500da4009ef82fdcdb684b52c62f8e934ff922f02173ec64248d29bbda11dd9",
    },
    "montecarlo": {
        "config.yaml": "b238069ea95524b899ff101b6152d5ce5f407d51e2c9176eda3b101c32dd8db2",
    },
}


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0.1", "--scale", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_inputs_hash_identically(workload, tmp_path):
    first = workloads.prepare(workload, 0, tmp_path / "a", "tiny").inputs
    again = workloads.prepare(workload, 0, tmp_path / "b", "tiny").inputs
    assert first == again == INPUT_SHA256[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report = _result(_run("--workload", workload, "--seed", "0", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    passes = result["attempted"] // len(workloads.COMMANDS[workload])
    # the known bootstrap abort is the only failure, once per pass
    assert result["failed"] == (passes if workload == "panel_gappy" else 0), report
    for name in run.END_TO_END:
        assert re.search(rf"^# {name} = \S+ \S+", report, re.M), name
    if trace:
        m = re.search(r"traced pass (\S+) s, main-thread self time (\S+) s", report)
        traced, main_self = float(m.group(1)), float(m.group(2))
        assert abs(traced - main_self) <= 0.01 * traced + 1e-3


def test_gate_fires_on_a_perturbed_reference(tmp_path):
    references = json.loads((BENCH / "references.json").read_text())
    table = references["digests"]["panel_fe"]["tiny"]
    key = "coefficients.json.coefficients[1].estimate"
    j = table["keys"]["fit"].index(key)
    table["seeds"]["0"]["fit"][j] *= 1.0 + 1e-4
    perturbed = tmp_path / "references.json"
    perturbed.write_text(json.dumps(references))
    result, report = _result(_run("--workload", "panel_fe", "--seed", "0",
                                  "--references", str(perturbed)))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert key in report


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "montecarlo", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
