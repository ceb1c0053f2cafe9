"""Deterministic CSV/JSON emission and run manifests.

All floats are written with full repr precision and rows in canonical order,
so identical inputs produce byte-identical files.  Missing values appear as
"NA" in CSV and null in JSON.  ``coefficients.json``, which grows with the
design, is filled in from its columns (``write_coefficients``), not encoded.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

# libyaml's safe classes when PyYAML has them: the same documents, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

from .bootstrap import Projection
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


def write_json(path, payload) -> None:
    def clean(obj):  # tuples as lists, a non-finite float as null
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return None if isinstance(obj, float) and not math.isfinite(obj) else obj

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(clean(payload), indent=2))  # one write, not one per token
        fh.write("\n")  # apart, so that the document is not copied to append it


# ---------------------------------------------------------------------------
# Fit outputs
# ---------------------------------------------------------------------------


def _scalar(value) -> str:
    """``value`` as ``write_json`` writes it: JSON, null for a non-finite float."""
    return "null" if isinstance(value, float) and not math.isfinite(value) else json.dumps(value)


def _nested(depth: int, items: Sequence[str], brackets: str = "{}") -> str:
    """Encoded items as a JSON object (items "key: value") or array at nesting
    ``depth``, indented as ``json.dumps(indent=2)`` indents them."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + ",".join(pad + item for item in items) + pad[:-2] + brackets[1]


def write_coefficients(path, fit: FitResult, covs: Mapping[str, CovarianceEstimate],
                       level: float) -> None:
    """coefficients.json: n, p, R^2, the level, per scheme its correction and
    clusters, per column its estimate and per scheme its ``confidence_intervals``
    SE, t and interval (null for a NaN variance), and the design's dropped rows,
    in the bytes ``write_json`` gives them; each column of numbers is formatted
    once and fills one template."""
    keys = [encode_basestring_ascii(label) for label in covs]
    slots = [key.replace("%", "%%") + ": " for key in keys]
    template = _nested(2, ['"label": %s', '"estimate": %s', *(
        f'"{name}": ' + _nested(3, [slot + value for slot in slots])
        for name, value in (("se", "%s"), ("t", "%s"), ("ci", _nested(4, ["%s", "%s"], "[]"))))])
    reads = [confidence_intervals(fit, cov, level) for cov in covs.values()]
    numbers = [fit.beta, *(r.se for r in reads), *(r.estimate / r.se for r in reads)]
    numbers += [bound for r in reads for bound in (r.lower, r.upper)]
    columns = [map(encode_basestring_ascii, fit.design.column_names)] + [
        [repr(v) if math.isfinite(v) else "null" for v in c.tolist()] for c in numbers]
    schemes = [f"{key}: " + _nested(2, [f'"correction": {_scalar(cov.correction)}',
                                        f'"clusters": {_scalar(cov.G)}'])
               for key, cov in zip(keys, covs.values())]
    document = _nested(0, [f'"n": {_scalar(fit.n)}', f'"p": {_scalar(fit.p)}',
                           f'"r_squared": {_scalar(fit.r_squared)}', f'"level": {_scalar(level)}',
                           '"schemes": ' + _nested(1, schemes),
                           '"coefficients": ' + _nested(1, [template % row
                                                            for row in zip(*columns)], "[]"),
                           f'"dropped_rows": {_scalar(len(fit.design.dropped_rows))}'])
    Path(path).write_text(document + "\n", encoding="utf-8")


def write_response_curves(path, curves: Sequence[ResponseCurve]) -> None:
    write_csv(path, ["term", "lag", "effect", "lower", "upper"],
              [[curve.term, lag, *row] for curve in curves for lag, row in
               enumerate(zip(curve.points.estimate, curve.points.lower, curve.points.upper))])


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
    path, projections: Sequence[Projection], levels: Sequence[float], bounds: Sequence[np.ndarray]
) -> None:
    """One row per scenario, year and level; a scenario's bounds are (levels, 3, years)."""
    write_csv(path, ["scenario", "year", "level", "median", "lower", "upper"],
              [[proj.label, year, level, med, lo, hi] for proj, scenario in zip(projections, bounds)
               for year, column in zip(proj.years, np.moveaxis(scenario, -1, 0).tolist())
               for level, (lo, med, hi) in zip(levels, column)])


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


def write_manifest(out_dir, command: str, config: dict) -> Path:
    """Write the run's command and ``config``, the resolved configuration it
    ran on; rerunning from this file reproduces the outputs."""
    path = Path(out_dir) / "manifest.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump({"command": command, "config": config}, fh, Dumper=_DUMPER, sort_keys=True,
                  default_flow_style=False)
    return path


def load_config(path) -> tuple[dict, str | None]:
    """Load a config file or a manifest: (config, the manifest's command or
    None).  An older manifest's header is ignored, as is a top-level
    ``threads`` key, which older configs and manifests hold."""
    with open(path, encoding="utf-8") as fh:
        payload, command = yaml.load(fh, Loader=_LOADER), None
    if isinstance(payload, dict) and "config" in payload and "command" in payload:
        payload, command = payload["config"], str(payload["command"])
    if not isinstance(payload, dict):
        raise ValueError(f"config {path} is not a mapping")
    payload.pop("threads", None)
    return payload, command
