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

import numpy as np
import yaml

# libyaml's safe classes when PyYAML has them: the same documents, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

from .bootstrap import Projection, column_quantiles, interval_qs
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
    per_scheme_se = {label: cov.standard_errors.tolist() for label, cov in covs.items()}
    coefficients = []
    for j, name in enumerate(fit.column_names):
        est = float(fit.beta[j])
        entry = {"label": name, "estimate": est, "se": {}, "t": {}, "ci": {}}
        for label in covs:
            se = per_scheme_se[label][j]
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
    write_csv(path, ["term", "lag_depth", "scheme", "criterion", "adjusted", "value", "rho_hat"],
              [[e.term, "removed" if e.lag_depth is None else e.lag_depth, scheme_label,
                e.criterion, e.adjusted, e.value, e.rho_hat] for e in scan.entries])


# ---------------------------------------------------------------------------
# Bootstrap outputs
# ---------------------------------------------------------------------------


def write_bootstrap_table(
    path, names: Sequence[str], levels: Sequence[float], bounds: np.ndarray, used: np.ndarray
) -> None:
    """One row per column and level; ``bounds`` is (levels, lower/median/upper, columns)."""
    per_column = np.moveaxis(bounds, -1, 0).tolist()
    write_csv(path, ["label", "level", "lower", "median", "upper", "used_draws"],
              [[name, level, *bound, n] for name, column, n in zip(names, per_column, used.tolist())
               for level, bound in zip(levels, column)])


def write_projections(
    path,
    projections: Sequence[Projection],
    levels: Sequence[float],
) -> None:
    rows = []
    for proj in projections:
        quantiles, counts = column_quantiles(proj.values, interval_qs(levels))
        if not counts.all():
            year = proj.years[int(np.argmin(counts))]
            raise ValueError(f"no finite projection draws for {proj.label!r} in {year}")
        cells = quantiles.T.reshape(len(proj.years), len(levels), 3).tolist()
        rows += [[proj.label, year, level, med, lo, hi] for year, column in zip(proj.years, cells)
                 for level, (lo, med, hi) in zip(levels, column)]
    write_csv(path, ["scenario", "year", "level", "median", "lower", "upper"], rows)


# ---------------------------------------------------------------------------
# Simulation outputs
# ---------------------------------------------------------------------------


def write_coverage_report(path, report: CoverageReport) -> None:
    write_csv(path,
              ["scheme", "nominal_level", "coverage", "mean_ci_width", "replications", "failed"],
              [[r.scheme, r.nominal_level, r.coverage, r.mean_ci_width, r.replications, r.failed]
               for r in report.rows])


def write_bias_report(path, report: BiasReport) -> None:
    write_csv(path, ["scheme", "correction", "mean_estimated_variance", "empirical_variance",
                     "ratio", "replications"],
              [[report.scheme, report.correction, report.mean_estimated_variance,
                report.empirical_variance, report.ratio, report.replications]])


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_manifest(out_dir, command: str, seed: int, threads: int, config: dict) -> Path:
    """Write the run's command, seed, threads and ``config``, the resolved
    configuration it ran on; rerunning from this file reproduces the outputs."""
    path = Path(out_dir) / "manifest.yaml"
    payload = {"command": command, "seed": seed, "threads": threads, "config": config}
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(payload, fh, Dumper=_DUMPER, sort_keys=True, default_flow_style=False)
    return path


def load_config(path) -> tuple[dict, str | None, int | None, int | None]:
    """Load a config file; manifests are accepted and unwrapped.

    Returns (config, manifest_command, manifest_seed, manifest_threads); the
    manifest fields are None for plain configs.
    """
    with open(path, encoding="utf-8") as fh:
        payload = yaml.load(fh, Loader=_LOADER)
    if not isinstance(payload, dict):
        raise ValueError(f"config {path} is not a mapping")
    if "config" in payload and "command" in payload:
        return (payload["config"], str(payload["command"]), payload.get("seed"),
                payload.get("threads"))
    return payload, None, None, None
