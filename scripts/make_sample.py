"""Regenerate the bundled sample dataset, configs, and golden CLI outputs.

Run from anywhere, installed or not:  python3 scripts/make_sample.py
The script puts the repository's src/ on sys.path and runs the CLI in-process.
"""

import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from clusterpanel.cli import COMMANDS  # noqa: E402
from clusterpanel.cli import main as cli_main  # noqa: E402
from clusterpanel.panel import PanelDataset, save_csv  # noqa: E402
from clusterpanel.simstudy import DgpConfig, generate_panel  # noqa: E402

SEED = 20240901


def build_panel() -> PanelDataset:
    cfg = DgpConfig(
        n_regions=30,
        n_years=18,
        beta_true=0.5,
        countries=5,
        predictor_sharing="country_year",
        predictor_shared_weight=0.6,
        noise_sharing="country_year",
        noise_shared_weight=0.6,
        noise_scale=0.8,
    )
    ds = generate_panel(cfg, SEED)
    x = ds.predictors["x"]
    xbar = np.array([np.mean(row) for row in x])
    return _sample_panel(ds, ds.first_year, ds.outcome, x, xbar)


def _sample_panel(ds: PanelDataset, first_year: int, outcome, x, xbar) -> PanelDataset:
    """Panel over the regions of ``ds`` from (region, year) grids of the
    outcome and x starting at ``first_year``, with the per-region xbar, a
    bloc_a tag on countries C00 and C01, and a year_str column."""
    R, T = x.shape
    years = np.tile(np.arange(first_year, first_year + T), R)
    countries = np.repeat(ds.countries, T)
    centroids = np.repeat([ds.centroid_of(r) for r in ds.regions], T, axis=0)
    return PanelDataset(
        np.repeat(ds.regions, T),
        countries,
        years,
        np.ravel(outcome),
        {"x": np.ravel(x), "xbar": np.repeat(xbar, T)},
        lat=centroids[:, 0],
        lon=centroids[:, 1],
        tags=[{"bloc_a"} if c in ("C00", "C01") else set() for c in countries],
        custom={"year_str": years.astype(str)},
    )


def build_scenarios(ds: PanelDataset):
    """Two future predictor paths sharing 2018-2020 history for lag spin-up."""
    xbar = ds.predictors["xbar"][:, 0]
    shape = (len(ds.regions), 2031 - 2018)

    def scenario(ramp_per_year: float) -> PanelDataset:
        x = np.broadcast_to(ramp_per_year * np.maximum(0, np.arange(2018, 2031) - 2022), shape)
        return _sample_panel(ds, 2018, np.full(shape, math.nan), x, xbar)

    return scenario(0.0), scenario(0.4)


CONFIG = """\
seed: 11
out: out

data:
  path: sample/panel.csv
  delimiter: ","
  columns:
    region: region
    country: country
    year: year
    outcome: outcome
    lat: lat
    lon: lon
  predictors:
    x: x
    xbar: xbar
  group_columns: [groups]
  custom_columns:
    year_str: year_str

model:
  intercept: true
  fixed_effects: [region, year]
  moderator_alignment: contemporaneous
  terms:
    - {variable: x, differenced: true, moderator: xbar, max_lag: 2}

fit:
  schemes: [region, country_year]
  correction: CR1
  level: 0.95

corr:
  min_overlap: 10
  groups:
    - {label: all, kind: spatial}
    - {label: same country, kind: spatial, same_country: true}
    - {label: different country, kind: spatial, different_country: true}
    - {label: bloc_a, kind: spatial, group: bloc_a}
    - {label: "<1000km same country", kind: spatial, same_country: true, below_km: 1000}
    - {label: all, kind: temporal}
    - {label: consecutive, kind: temporal, consecutive: true}

cv:
  schemes: [region, country, year]
  k: 4
  direction: forward
  candidates:
    - {variable: x, differenced: true, max_lag: 2}

ic:
  block_scheme: country_year
  direction: forward
  criteria: [AIC, BIC]
  adjusted: [false, true]
  candidates:
    - {variable: x, differenced: true, max_lag: 2}

bootstrap:
  scheme: year
  b: 80
  levels: [0.9]

project:
  scheme: year
  b: 80
  alpha: 0.05
  levels: [0.65, 0.9]
  aggregation: mean
  scenarios:
    - {label: low, path: sample/scenario_low.csv}
    - {label: high, path: sample/scenario_high.csv}

simulate:
  study: coverage
  n_regions: 10
  n_years: 10
  beta_true: 1.0
  predictor_shared_weight: 0.75
  predictor_spatial_weight: 0.15
  noise_shared_weight: 0.9
  reps: 100
  level: 0.95
  schemes: [region, year]
"""


def write_goldens(sample: Path) -> None:
    """Run every CLI command in-process into a staging directory beside
    sample/golden and swap it in only once all of them have succeeded, so a
    failing command leaves the existing goldens untouched."""
    golden = sample / "golden"
    staging = Path(tempfile.mkdtemp(prefix=".golden-", dir=sample))
    retired = staging.with_name(staging.name + "-old")
    try:
        for command in COMMANDS:
            argv = [command, "--config", "sample/config.yaml", "--out", str(staging / command)]
            if cli_main(argv) != 0:
                raise SystemExit(f"{command} failed; {golden} left untouched")
        if golden.exists():
            golden.rename(retired)
        staging.rename(golden)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(retired, ignore_errors=True)


def main():
    os.chdir(ROOT)  # the sample config addresses its data relative to the repository root
    sample = ROOT / "sample"
    sample.mkdir(exist_ok=True)
    ds = build_panel()
    save_csv(ds, sample / "panel.csv")
    low, high = build_scenarios(ds)
    save_csv(low, sample / "scenario_low.csv")
    save_csv(high, sample / "scenario_high.csv")
    (sample / "config.yaml").write_text(CONFIG, encoding="utf-8")
    write_goldens(sample)
    print(f"sample data and golden outputs written under {sample}")


if __name__ == "__main__":
    main()
