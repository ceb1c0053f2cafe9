"""The output correctness gate.

Three kinds of check, each reported as a list of mismatch strings (empty =
pass):

- ``compare_digest``: the command's outputs against a stored reference digest
  for the same workload and seed, at stated tolerances;
- ``fit_oracle`` / ``corr_oracle``: ``fit`` coefficients and cluster-robust
  SEs, and the all-pairs residual correlation, on ``panel_fe``, against an
  independent dense numpy computation from the generated arrays;
- ``coverage_band``: ``simulate`` coverage against a stored reference
  coverage, inside a binomial band.

``tree_hash`` covers the determinism check: every repeated invocation of a
command must write byte-identical files, ``manifest.yaml`` included.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# stored digests are compared at these tolerances; they absorb BLAS kernel
# differences between CPUs, not changes in the statistics
RTOL = 1e-6
ATOL = 1e-9
# oracle tolerances: pivoted QR against lstsq and a dense sandwich
ORACLE_RTOL = 1e-7
# binomial band half-width in standard errors for the coverage check
COVERAGE_SIGMAS = 4.5


def tree_hash(directory: Path) -> str:
    """sha256 over the relative paths and bytes of every file under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _value(v):
    if isinstance(v, bool) or v is None:
        return v
    try:
        return float(f"{float(v):.10g}")
    except ValueError:
        return v


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        if "=" in str(obj.get("label", "")):
            return
        for k, v in obj.items():
            if "=" not in str(k):
                _flatten(v, f"{prefix}.{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = _value(obj)


def digest(outdir: Path) -> dict:
    """Flatten every JSON and CSV output into {key: value}.

    Fixed-effect dummy entries (labels with '=') and the manifest are left
    out; the determinism check covers their bytes.
    """
    out: dict = {}
    for path in sorted(Path(outdir).iterdir()):
        if path.suffix == ".json":
            _flatten(json.loads(path.read_text(encoding="utf-8")), path.name, out)
        elif path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            header = rows[0]
            out[f"{path.name}:header"] = ",".join(header)
            kept = [r for r in rows[1:] if "=" not in r[0]]
            for i, row in enumerate(kept):
                for h, cell in zip(header, row):
                    out[f"{path.name}:{i}:{h}"] = _value(cell)
    return out


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= ATOL + RTOL * abs(b)
    return a == b


def compare_digest(actual: dict, reference: dict, limit: int = 5) -> list[str]:
    bad = []
    for key in sorted(set(actual) | set(reference)):
        if key not in actual:
            bad.append(f"{key}: missing (reference {reference[key]!r})")
        elif key not in reference:
            bad.append(f"{key}: unexpected {actual[key]!r}")
        elif not _close(actual[key], reference[key]):
            bad.append(f"{key}: {actual[key]!r} != reference {reference[key]!r}")
    return bad[:limit] + ([f"... {len(bad) - limit} more"] if len(bad) > limit else [])


# ---------------------------------------------------------------------------
# Dense oracle on the balanced panel
# ---------------------------------------------------------------------------

LAGS = 2  # the workloads' model: d.x * xbar at lags 0..LAGS, region + year effects


def _dense_fit(panel):
    """Two-way dummies, d.x lags and d.x*xbar interactions, fitted by lstsq."""
    R, T = panel.x.shape
    first = LAGS + 1  # first year index with every lagged difference defined
    dx = np.diff(panel.x, axis=1)  # dx[:, t-1] = x[:, t] - x[:, t-1]
    rows_t = np.arange(first, T)
    base = np.stack([dx[:, rows_t - 1 - lag] for lag in range(LAGS + 1)], axis=-1)
    inter = base * panel.xbar[:, None, None]
    n_t = len(rows_t)
    core = np.concatenate([np.ones((R, n_t, 1)), base, inter], axis=-1).reshape(R * n_t, -1)
    region = np.repeat(np.arange(R), n_t)
    year = np.tile(np.arange(n_t), R)
    D_region = (region[:, None] == np.arange(1, R)[None, :]).astype(float)
    D_year = (year[:, None] == np.arange(1, n_t)[None, :]).astype(float)
    X = np.hstack([core, D_region, D_year])
    y = panel.y[:, rows_t].reshape(-1)
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    return X, resid, beta, core.shape[1], region, year, rows_t


def _cr1_se(X, resid, keys):
    n, p = X.shape
    _, cluster = np.unique(keys, return_inverse=True)
    G = int(cluster.max()) + 1
    scores = np.zeros((G, p))
    np.add.at(scores, cluster, X * resid[:, None])
    bread = np.linalg.inv(X.T @ X)
    cov = bread @ (scores.T @ scores) @ bread * (G / (G - 1.0)) * ((n - 1.0) / (n - p))
    return np.sqrt(np.diag(cov))


def fit_oracle(coefficients: dict, panel) -> list[str]:
    """Core β and CR1 SEs (region, country_year) of ``fit`` against the dense oracle."""
    X, resid, beta, k, region, year, _ = _dense_fit(panel)
    keys = {
        "region": region,
        "country_year": panel.countries[region] * 10_000 + year,
    }
    rows = [c for c in coefficients["coefficients"] if "=" not in c["label"]]
    bad = []
    if len(rows) != k:
        return [f"fit reports {len(rows)} core coefficients, oracle has {k}"]
    if (coefficients["n"], coefficients["p"]) != X.shape:
        bad.append(f"fit design {coefficients['n']}x{coefficients['p']} != oracle {X.shape}")
    ses = {scheme: _cr1_se(X, resid, kv) for scheme, kv in keys.items()}
    for j, row in enumerate(rows):
        if not math.isclose(row["estimate"], beta[j], rel_tol=ORACLE_RTOL, abs_tol=1e-12):
            bad.append(f"beta[{row['label']}] {row['estimate']!r} != oracle {beta[j]!r}")
        for scheme, se in ses.items():
            if not math.isclose(row["se"][scheme], se[j], rel_tol=ORACLE_RTOL):
                bad.append(f"se[{row['label']}, {scheme}] {row['se'][scheme]!r} != oracle {se[j]!r}")
    return bad


def corr_oracle(correlations_csv: Path, panel) -> list[str]:
    """Pair count and mean of the all-pairs spatial group against numpy."""
    _, resid, _, _, _, _, rows_t = _dense_fit(panel)
    E = resid.reshape(panel.x.shape[0], len(rows_t))
    rho = np.corrcoef(E)
    iu = np.triu_indices_from(rho, k=1)
    with open(correlations_csv, newline="", encoding="utf-8") as fh:
        rows = {(r["kind"], r["group"]): r for r in csv.DictReader(fh)}
    row = rows.get(("spatial", "all"))
    if row is None:
        return ["no spatial 'all' group in correlations.csv"]
    bad = []
    if int(row["pair_count"]) != len(iu[0]):
        bad.append(f"all-pairs count {row['pair_count']} != oracle {len(iu[0])}")
    mean = float(np.clip(rho[iu], -1.0, 1.0).mean())
    if not math.isclose(float(row["mean"]), mean, rel_tol=ORACLE_RTOL, abs_tol=1e-10):
        bad.append(f"all-pairs mean rho {row['mean']} != oracle {mean!r}")
    return bad


def coverage_band(coverage_csv: Path, reference: dict, reps: int) -> list[str]:
    """Each scheme's coverage within COVERAGE_SIGMAS binomial SEs of the reference."""
    bad = []
    with open(coverage_csv, newline="", encoding="utf-8") as fh:
        rows = {r["scheme"]: r for r in csv.DictReader(fh)}
    for scheme, ref in reference.items():
        if scheme not in rows:
            bad.append(f"coverage row {scheme!r} missing")
            continue
        cov = float(rows[scheme]["coverage"])
        half = COVERAGE_SIGMAS * math.sqrt(ref * (1.0 - ref) / reps)
        if not abs(cov - ref) <= half:
            bad.append(f"{scheme} coverage {cov} outside {ref} +/- {half:.4f}")
        if int(rows[scheme]["replications"]) + int(rows[scheme]["failed"]) != reps:
            bad.append(f"{scheme} replications + failed != {reps}")
    return bad
