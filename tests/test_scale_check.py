"""scripts/scale_check.py reaches into the package by name (stages swap
``cli`` functions, call writers and read-outs), so a rename there breaks it
without any other test noticing.  Run its per-size stages once, tiny."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each per-size stage and the key of its time (build_design always runs)
STAGE_KEYS = {
    "generate_panel": "generate_panel_s",
    "load_csv": "load_csv_s",
    "build_design": "build_design_s",
    "fit_cr1": "fit_cr1_s",
    "assign_clusters": "assign_clusters_region_s",
    "coefficients_json": "coefficients_json_s",
    "cv_model": "cv_model_s",
    "cv_scan": "cv_scan_s",
    "bootstrap": "bootstrap_b1000_s",
    "corr_all_pairs": "corr_all_pairs_s",
    "corr_groups": "corr_groups_s",
    "bootstrap_readout": "bootstrap_readout_s",
    "project_readout": "project_readout_s",
}
# extrapolated from a difference of two timings, which can fall below zero
# when a few replicates cost less than the timer's noise
DIFFERENCES = ("_replicate_s", "_b1000_s")


def test_every_per_size_stage_runs_on_this_tree(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_check.py"), "--label", "tree",
                    "--out", str(out), "--sizes", "40x12", "--replicates", "3",
                    "--stages", ",".join(STAGE_KEYS)],
                   cwd=tmp_path, check=True, capture_output=True, text=True, timeout=300)
    run = json.loads(out.read_text())["runs"]["tree"]["40x12"]
    assert {key for key in STAGE_KEYS.values() if key not in run} == set()
    for key, value in run.items():
        if key.endswith("_s"):
            assert math.isfinite(value), key
            assert key.endswith(DIFFERENCES) or value > 0, key
