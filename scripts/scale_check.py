"""Time the fixed-effect workflow stages at 300x30 and 1000x40 against the aim-1 targets.

Opt-in and slow (minutes at 1000x40 on older code), so the test suite does
not run it.  It builds balanced panels with ``simstudy.generate_panel``,
adds ``xbar`` (each region's mean of x) and fits two-way fixed effects with
``d.x*xbar`` at lags 0..2, then times each stage on its own:

- build_design;
- fit plus CR1 sandwich (ols_fit, assign_clusters, clustered_cov, region);
- one cv model at K=4 (cv_loss, region folds);
- one bootstrap replicate, as (t(B=1+k) - t(B=1)) / k of block_bootstrap,
  and B=1000 extrapolated as t(B=1) + 999 replicates;
- the corr all-pairs group (ResidualPanel.from_fit, correlation_table).

Each run is stored under a label in the output JSON, so the same script run
on two source trees gives before and after numbers from one machine:

    python3 scripts/scale_check.py --label after
    python3 scripts/scale_check.py --label before --src /path/to/other/checkout/src

BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((300, 30), (1000, 40))
# aim-1 targets at 1000x40, in seconds
TARGETS = {"fit_cr1_s": 1.0, "cv_model_s": 1.0, "bootstrap_b1000_s": 60.0, "corr_all_pairs_s": 1.0}


def _panel(cp, regions, years):
    """A balanced generate_panel panel plus xbar, each region's mean of x."""
    from clusterpanel.simstudy import DgpConfig, generate_panel

    import numpy as np

    ds = generate_panel(DgpConfig(n_regions=regions, n_years=years, countries=regions // 25), 3)
    ri, ti = np.nonzero(ds.present)
    x = ds.predictors["x"]
    xbar = np.repeat(x.mean(axis=1), years)
    return cp.PanelDataset(np.array(ds.regions)[ri], np.array(ds.countries)[ri],
                           ti + ds.first_year, ds.outcome[ri, ti],
                           {"x": x[ri, ti], "xbar": xbar})


def _timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def measure(cp, regions, years, extra_replicates):
    spec = cp.ModelSpec(terms=(cp.TermSpec("x", differenced=True, moderator="xbar", max_lag=2),),
                        fixed_effects=("region", "year"))
    ds = _panel(cp, regions, years)
    out = {}
    out["build_design_s"], design = _timed(lambda: cp.build_design(ds, spec))
    out["n"], out["p"] = design.n, design.p

    def fit_cr1():
        fit = cp.ols_fit(design)
        cp.clustered_cov(fit, design, cp.assign_clusters(design, cp.REGION))
        return fit

    out["fit_cr1_s"], fit = _timed(fit_cr1)
    out["cv_model_s"], _ = _timed(lambda: cp.cv_loss(ds, spec, cp.REGION, K=4, seed=0))
    one, _ = _timed(lambda: cp.block_bootstrap(ds, spec, cp.REGION, 1, seed=0))
    more, _ = _timed(lambda: cp.block_bootstrap(ds, spec, cp.REGION, 1 + extra_replicates, seed=0))
    out["bootstrap_replicate_s"] = (more - one) / extra_replicates
    out["bootstrap_b1000_s"] = one + 999 * out["bootstrap_replicate_s"]
    out["corr_all_pairs_s"], _ = _timed(lambda: cp.correlation_table(
        cp.ResidualPanel.from_fit(fit, design, ds), [cp.GroupSpec("all", "spatial")]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the output, e.g. before")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to time")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_7.json")
    parser.add_argument("--replicates", type=int, default=4,
                        help="extra bootstrap replicates timed for the per-replicate figure")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    warnings.simplefilter("ignore")
    import numpy as np
    import scipy

    import clusterpanel as cp

    measure(cp, 25, 8, 1)  # warm-up: imports, BLAS and first-call set-up
    run = {}
    for regions, years in SIZES:
        key = f"{regions}x{years}"
        run[key] = {k: round(v, 4) if isinstance(v, float) else v
                    for k, v in measure(cp, regions, years, args.replicates).items()}
        print(key, json.dumps(run[key]), flush=True)
    largest = run[f"{SIZES[-1][0]}x{SIZES[-1][1]}"]
    run["meets_targets_at_1000x40"] = {k: largest[k] < limit for k, limit in TARGETS.items()}
    run["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["about"] = ("scripts/scale_check.py: stage times in seconds, single runs, balanced "
                       "generate_panel panels, two-way fixed effects, d.x*xbar at lags 0..2")
    report["targets_s_at_1000x40"] = TARGETS
    report["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__, "blas_threads": 1}
    report.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(run["meets_targets_at_1000x40"]))


if __name__ == "__main__":
    main()
