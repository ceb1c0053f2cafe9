"""Deterministic CSV/JSON emission and run manifests.

All floats are written with full repr precision and rows in canonical order,
so identical inputs produce byte-identical files.  Missing values appear as
"NA" in CSV and null in JSON.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import yaml

from .bootstrap import BootstrapSample, PercentileInterval, Projection
from .modelselect import ICScanResult
from .regression import CovarianceEstimate, FitResult, ResponseCurve, confidence_intervals
from .residcorr import CorrelationSummary
from .simstudy import BiasReport, CoverageReport


def fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # includes numpy float scalars
        return "NA" if not math.isfinite(value) else repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(path, payload) -> None:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return _jsonable(obj)

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean(payload), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Fit outputs
# ---------------------------------------------------------------------------


def coefficient_table(
    fit: FitResult, covs: Mapping[str, CovarianceEstimate], level: float
) -> dict:
    """JSON-ready coefficient table: estimate plus per-scheme SE, t and CI."""
    per_scheme_ci = {label: confidence_intervals(fit, cov, level) for label, cov in covs.items()}
    coefficients = []
    for j, name in enumerate(fit.column_names):
        est = float(fit.beta[j])
        entry = {"label": name, "estimate": est, "se": {}, "t": {}, "ci": {}}
        for label, cov in covs.items():
            se = float(cov.standard_errors[j])
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
    }


def write_response_curves(path, curves: Sequence[ResponseCurve]) -> None:
    rows = []
    for curve in curves:
        for pt in curve.points:
            rows.append([curve.term, pt.lag, pt.effect, pt.lower, pt.upper])
    write_csv(path, ["term", "lag", "effect", "lower", "upper"], rows)


# ---------------------------------------------------------------------------
# Correlation table
# ---------------------------------------------------------------------------


def write_correlation_table(path, summaries: Sequence[CorrelationSummary]) -> None:
    rows = [
        [s.kind, s.group_label, s.mean, s.q25, s.q75, s.pair_count, s.skipped_count]
        for s in summaries
    ]
    write_csv(path, ["kind", "group", "mean", "q25", "q75", "pair_count", "skipped_count"], rows)


# ---------------------------------------------------------------------------
# Scan tables
# ---------------------------------------------------------------------------


def write_ic_scan(path, scan: ICScanResult, scheme_label: str) -> None:
    rows = [
        [
            e.term,
            "removed" if e.lag_depth is None else e.lag_depth,
            scheme_label,
            e.criterion,
            e.adjusted,
            e.value,
            e.rho_hat,
        ]
        for e in scan.entries
    ]
    write_csv(
        path,
        ["term", "lag_depth", "scheme", "criterion", "adjusted", "value", "rho_hat"],
        rows,
    )


# ---------------------------------------------------------------------------
# Bootstrap outputs
# ---------------------------------------------------------------------------


def write_bootstrap_table(
    path, sample: BootstrapSample, intervals: Mapping[str, Mapping[float, PercentileInterval]]
) -> None:
    rows = []
    for name in sample.column_names:
        for level, iv in intervals[name].items():
            rows.append([name, level, iv.lower, iv.median, iv.upper, iv.used_draws])
    write_csv(path, ["label", "level", "lower", "median", "upper", "used_draws"], rows)


def write_projections(
    path,
    projections: Sequence[Projection],
    levels: Sequence[float],
) -> None:
    import numpy as np

    rows = []
    for proj in projections:
        for j, year in enumerate(proj.years):
            draws = proj.values[:, j]
            draws = draws[np.isfinite(draws)]
            if draws.size == 0:
                raise ValueError(f"no finite projection draws for {proj.label!r} in {year}")
            med = float(np.quantile(draws, 0.5))
            for level in levels:
                lo, hi = np.quantile(draws, [0.5 - level / 2.0, 0.5 + level / 2.0])
                rows.append([proj.label, year, level, med, float(lo), float(hi)])
    write_csv(path, ["scenario", "year", "level", "median", "lower", "upper"], rows)


# ---------------------------------------------------------------------------
# Simulation outputs
# ---------------------------------------------------------------------------


def write_coverage_report(path, report: CoverageReport) -> None:
    rows = [
        [r.scheme, r.nominal_level, r.coverage, r.mean_ci_width, r.replications, r.failed]
        for r in report.rows
    ]
    write_csv(
        path,
        ["scheme", "nominal_level", "coverage", "mean_ci_width", "replications", "failed"],
        rows,
    )


def write_bias_report(path, report: BiasReport) -> None:
    write_csv(
        path,
        ["scheme", "correction", "mean_estimated_variance", "empirical_variance", "ratio", "replications"],
        [[
            report.scheme,
            report.correction,
            report.mean_estimated_variance,
            report.empirical_variance,
            report.ratio,
            report.replications,
        ]],
    )


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_manifest(out_dir, command: str, seed: int, threads: int, config: dict) -> Path:
    """Write the run's command, seed, threads and ``config``, the resolved
    configuration it ran on; rerunning from this file reproduces the outputs."""
    path = Path(out_dir) / "manifest.yaml"
    payload = {"command": command, "seed": seed, "threads": threads, "config": config}
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(payload, fh, sort_keys=True, default_flow_style=False)
    return path


def load_config(path) -> tuple[dict, str | None, int | None, int | None]:
    """Load a config file; manifests are accepted and unwrapped.

    Returns (config, manifest_command, manifest_seed, manifest_threads); the
    manifest fields are None for plain configs.
    """
    with open(path, encoding="utf-8") as fh:
        payload = yaml.safe_load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"config {path} is not a mapping")
    if "config" in payload and "command" in payload:
        return (
            payload["config"],
            str(payload["command"]),
            payload.get("seed"),
            payload.get("threads"),
        )
    return payload, None, None, None
