"""Seeded inputs and command lists of the benchmark workloads.

The generator here is the benchmark's own numpy code, deliberately not
``clusterpanel.simstudy.generate_panel``: a change to the program must not
change the inputs it is measured on.  Inputs for a given (workload, seed,
scale) hash identically on every commit.

Each workload writes its CSV inputs and one YAML config into a work
directory and lists the CLI invocations of one pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# the commands of one pass, in order
COMMANDS = {
    "panel_fe": ("fit", "corr", "cv", "ic", "bootstrap", "project"),
    "panel_gappy": ("fit", "corr", "cv", "ic", "bootstrap"),
    "montecarlo": ("simulate",),
}
WORKLOAD_NAMES = tuple(COMMANDS)
START_YEAR = 2000

# Full sizes are what the timed runs use; "tiny" is the smoke scale used by
# the warm-up and by the benchmark's own tests.
SIZES = {
    "panel_fe": {
        "full": {"regions": 150, "years": 24, "countries": 10, "b": 24},
        "tiny": {"regions": 24, "years": 14, "countries": 4, "b": 24},
    },
    "panel_gappy": {
        "full": {"regions": 120, "years": 40, "countries": 12, "b": 40},
        "tiny": {"regions": 24, "years": 24, "countries": 6, "b": 40},
    },
    "montecarlo": {
        "full": {"reps": 500},
        "tiny": {"reps": 100},
    },
}

MODEL = {
    "intercept": True,
    "fixed_effects": ["region", "year"],
    "terms": [{"variable": "x", "differenced": True, "moderator": "xbar", "max_lag": 2}],
}
CANDIDATES = [{"variable": "x", "differenced": True, "max_lag": 2}]
SAMPLE_GROUPS = [
    {"label": "all", "kind": "spatial"},
    {"label": "same country", "kind": "spatial", "same_country": True},
    {"label": "different country", "kind": "spatial", "different_country": True},
    {"label": "bloc_a", "kind": "spatial", "group": "bloc_a"},
    {"label": "<1000km same country", "kind": "spatial", "same_country": True, "below_km": 1000},
    {"label": "all", "kind": "temporal"},
    {"label": "consecutive", "kind": "temporal", "consecutive": True},
]
CSV_HEADER = ["region", "country", "year", "outcome", "x", "xbar", "lat", "lon", "groups", "year_str"]


@dataclass(frozen=True)
class Panel:
    """A generated panel as (R, T) arrays; NaN outcome = missing, absent = no row."""

    countries: np.ndarray  # (R,) country index per region
    x: np.ndarray  # (R, T)
    y: np.ndarray  # (R, T), NaN where the outcome is missing
    present: np.ndarray  # (R, T) bool, False where the row is absent
    years: np.ndarray  # (T,)

    @property
    def xbar(self) -> np.ndarray:
        """Regional mean of x over the region's present years."""
        x = np.where(self.present, self.x, 0.0)
        return x.sum(axis=1) / self.present.sum(axis=1)

    def region_id(self, i: int) -> str:
        return f"R{i:04d}"

    def country_id(self, i: int) -> str:
        return f"C{self.countries[i]:02d}"

    def centroid(self, i: int) -> tuple[float, float]:
        """Countries along the equator, regions on an 11-wide grid around them."""
        c = int(self.countries[i])
        within = i - int(np.searchsorted(self.countries, c, side="left"))
        return -10.0 + 2.0 * (within % 11), -170.0 + 24.0 * (c % 15) + 2.0 * (within // 11)


def _fmt(v: float) -> str:
    return "NA" if not math.isfinite(v) else repr(float(v))


def _panel(rng, regions, years, countries, *, beta=0.5, shared=0.6) -> Panel:
    """y = beta*x + region effect + year effect + e; x and e share a country_year part."""
    country_of = np.arange(regions) * countries // regions
    fx = rng.standard_normal((countries, years))[country_of]
    x = math.sqrt(shared) * fx + math.sqrt(1.0 - shared) * rng.standard_normal((regions, years))
    fe = rng.standard_normal((countries, years))[country_of]
    e = 0.8 * (math.sqrt(shared) * fe + math.sqrt(1.0 - shared) * rng.standard_normal((regions, years)))
    alpha = rng.standard_normal(regions)[:, None]
    gamma = 0.5 * rng.standard_normal(years)[None, :]
    y = beta * x + alpha + gamma + e
    return Panel(
        countries=country_of,
        x=x,
        y=y,
        present=np.ones((regions, years), dtype=bool),
        years=START_YEAR + np.arange(years),
    )


def _gappy(panel: Panel, rng) -> Panel:
    """A third of the regions enter late, 5% of the other cells are absent,
    2.5% of the remaining outcomes are NaN.  Every region keeps enough years
    for the lag-2 difference model."""
    R, T = panel.x.shape
    present = np.ones((R, T), dtype=bool)
    late = rng.choice(R, size=R // 3, replace=False)
    for i in late:
        present[i, : rng.integers(T // 5, T // 2)] = False
    present &= rng.random((R, T)) >= 0.05
    present[:, -1] = True  # every region is observed in the final year
    y = panel.y.copy()
    y[present & (rng.random((R, T)) < 0.025)] = math.nan
    return Panel(countries=panel.countries, x=panel.x, y=y, present=present, years=panel.years)


def write_panel_csv(panel: Panel, path: Path) -> None:
    xbar = panel.xbar
    lines = [",".join(CSV_HEADER)]
    for i in range(panel.x.shape[0]):
        region, country = panel.region_id(i), panel.country_id(i)
        lat, lon = panel.centroid(i)
        tag = "bloc_a" if panel.countries[i] < 2 else ""
        for t, year in enumerate(panel.years):
            if not panel.present[i, t]:
                continue
            lines.append(",".join([
                region, country, str(year), _fmt(panel.y[i, t]), _fmt(panel.x[i, t]),
                _fmt(xbar[i]), repr(lat), repr(lon), tag, str(year),
            ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_scenario_csv(panel: Panel, path: Path, ramp: float, history: int = 3, horizon: int = 13) -> None:
    """A future x path: flat for the shared history years, then rising by ``ramp``
    a year.  It starts ``history`` years before the panel ends, for lag spin-up."""
    xbar = panel.xbar
    first = int(panel.years[-1]) - history + 1
    lines = [",".join(CSV_HEADER)]
    for i in range(panel.x.shape[0]):
        lat, lon = panel.centroid(i)
        tag = "bloc_a" if panel.countries[i] < 2 else ""
        for year in range(first, first + horizon):
            x = ramp * max(0, year - first - history - 1)
            lines.append(",".join([
                panel.region_id(i), panel.country_id(i), str(year), "NA", _fmt(x),
                _fmt(xbar[i]), repr(lat), repr(lon), tag, str(year),
            ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _data_section(csv_path: Path) -> dict:
    return {
        "path": csv_path.name,
        "delimiter": ",",
        "columns": {
            "region": "region", "country": "country", "year": "year",
            "outcome": "outcome", "lat": "lat", "lon": "lon",
        },
        "predictors": {"x": "x", "xbar": "xbar"},
        "group_columns": ["groups"],
        "custom_columns": {"year_str": "year_str"},
    }


@dataclass(frozen=True)
class Prepared:
    """The written inputs of one workload and the commands of one pass."""

    config: Path
    commands: tuple[str, ...]
    inputs: dict  # file name -> sha256
    panel: Panel | None  # the generated data, for the fit oracle
    sizes: dict


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])


def prepare(name: str, seed: int, workdir: Path, scale: str = "full") -> Prepared:
    """Generate the inputs of workload ``name`` from ``seed`` and write them with
    the config into ``workdir``."""
    if name not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {name!r}; use one of {WORKLOAD_NAMES}")
    size = SIZES[name][scale]
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(name, seed)
    panel = None
    files = []
    if name == "montecarlo":
        config = {
            "seed": seed,
            "simulate": {
                "study": "coverage", "n_regions": 10, "n_years": 10, "beta_true": 1.0,
                "predictor_shared_weight": 0.75, "predictor_spatial_weight": 0.15,
                "noise_shared_weight": 0.9, "reps": size["reps"], "level": 0.95,
                "schemes": ["region", "year"],
            },
        }
    else:
        panel = _panel(rng, size["regions"], size["years"], size["countries"])
        data = workdir / "panel.csv"
        config = {"seed": seed, "data": _data_section(data), "model": dict(MODEL)}
        if name == "panel_fe":
            write_panel_csv(panel, data)
            low, high = workdir / "scenario_low.csv", workdir / "scenario_high.csv"
            write_scenario_csv(panel, low, 0.0)
            write_scenario_csv(panel, high, 0.4)
            files = [data, low, high]
            config.update({
                "fit": {"schemes": ["region", "country_year"], "correction": "CR1", "level": 0.95},
                "corr": {"min_overlap": 10, "groups": SAMPLE_GROUPS},
                "cv": {"schemes": ["region", "country", "year"], "k": 4, "direction": "forward",
                       "candidates": CANDIDATES},
                "ic": {"block_scheme": "country_year", "direction": "forward",
                       "criteria": ["AIC", "BIC"], "adjusted": [False, True],
                       "candidates": CANDIDATES},
                "bootstrap": {"scheme": "country_year", "b": size["b"], "levels": [0.9]},
                "project": {"scheme": "country_year", "b": size["b"], "alpha": 0.05,
                            "levels": [0.65, 0.9], "aggregation": "mean",
                            "scenarios": [{"label": "low", "path": low.name},
                                          {"label": "high", "path": high.name}]},
            })
        else:
            panel = _gappy(panel, rng)
            write_panel_csv(panel, data)
            files = [data]
            config["model"]["moderator_alignment"] = "lag_aligned"
            config.update({
                "fit": {"schemes": ["region", "country", "year", "country_year", "custom:year_str"],
                        "correction": "CR1", "level": 0.95},
                "corr": {"min_overlap": 10},
                "cv": {"schemes": ["region"], "k": 4, "direction": "backward"},
                "ic": {"block_scheme": "country_year", "direction": "backward",
                       "criteria": ["AIC", "BIC"], "adjusted": [False, True]},
                "bootstrap": {"scheme": "year", "b": size["b"], "levels": [0.9]},
            })
    cfg_path = workdir / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    inputs = {p.name: sha256_file(p) for p in files + [cfg_path]}
    return Prepared(config=cfg_path, commands=COMMANDS[name], inputs=inputs,
                    panel=panel, sizes=dict(size))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
