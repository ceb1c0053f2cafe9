"""Time the fixed-effect workflow stages and the coverage study against the aim-1 targets.

Opt-in and slow (minutes at 1000x40 on older code), so the test suite does
not run it.  It builds balanced panels with ``simstudy.generate_panel``,
centroids included, adds ``xbar`` (each region's mean of x) and fits
two-way fixed effects with ``d.x*xbar`` at lags 0..2, then times each stage
on its own:

- generate_panel of the size's DgpConfig (countries R // 25, centroids
  included; median of LOAD_RUNS);
- load_csv of the panel written once by save_csv (median of LOAD_RUNS),
  and load_cached_hit_s, the median of LOAD_RUNS hits of ``load_cached``
  on an entry in a temporary cache directory (``XDG_CACHE_HOME``; a tree
  without ``load_cached`` has no such key);
- build_design (median of LOAD_RUNS);
- fit plus CR1 sandwich (ols_fit, assign_clusters, clustered_cov; median
  of LOAD_RUNS): key fit_cr1_s under the region scheme,
  fit_cr1_country_year_s under country_year, the two schemes a ``fit`` of
  the sample config runs;
- assign_clusters on that design under each of CLUSTER_SCHEMES (median of
  LOAD_RUNS; key assign_clusters_<scheme>_s);
- coefficients_json: ``reports.write_coefficients`` of that fit under the
  region and country_year schemes, as ``fit`` writes coefficients.json
  (median of LOAD_RUNS; a tree without the writer runs the
  ``coefficient_table`` and ``write_json`` that ``fit`` ran before it);
- one cv model at K=4 (cv_loss, region folds);
- a forward cv scan at K=4 from the fixed-effect-only base, with the
  candidates d.x*xbar at lags 0..2 and x (undifferenced) at lags 0..1: six
  models counting the reference, on one set of folds (cv_scan, the median
  of CV_SCAN_RUNS; keys cv_scan_s for region folds, cv_scan_country_year_s);
- one bootstrap replicate under each of the region, year and country_year
  schemes, as the median of (t(B=1+k) - t(B=1)) / k over BOOTSTRAP_PAIRS
  alternating timings of block_bootstrap, and B=1000 extrapolated as the
  median t(B=1) + 999 replicates (keys bootstrap_replicate_s and
  bootstrap_b1000_s for region, bootstrap_<scheme>_... for the others).
  k starts at ``--replicates`` and doubles, up to MAX_EXTRA_REPLICATES,
  until one B=1+k call takes twice one B=1 call, so that the k replicates
  take longer than the set-up and their difference stands clear of the
  timer's noise (key bootstrap_extra_replicates, the k used);
- the corr all-pairs group (ResidualPanel.from_fit, correlation_table),
  and corr_groups: the same over the CLI's default groups
  (``cli._groups(None, ...)``: both temporal groups and the seven spatial
  ones, four of them distance groups on the panel's centroids);
- bootstrap_readout_s: the read-out of ``cli.cmd_bootstrap`` (the 0.9
  intervals and ``sd`` of every column, with their CSV and JSON) on a
  year-scheme sample of READOUT_B draws computed beforehand, the median of
  READOUT_RUNS calls;
- project_readout_s: ``build_scenario_path`` plus ``project_scenarios`` on
  that sample with a scenario of PROJECT_YEARS future years for every
  region, the median of READOUT_RUNS calls, and project_readout_peak_mb;
  project_intervals_s: the read-out of that projection as ``cli.cmd_project``
  makes it, its PROJECT_LEVELS intervals and projection.csv, the median of
  READOUT_RUNS calls.

After the sizes, trending_agreement is the largest relative deviation,
per column scaled by its largest draw, of TRENDING_REPLICATES region-scheme
bootstrap draws from the row path's (``Absorbed`` under each replicate's
weights) on a 40x20 panel whose x and y trend by 100 and 1000 a year, the
case where the year effect carries most of the variance: over the intercept
and term columns ("terms") and over the region and year effects ("effects").

It also times ``coverage_study`` for 1000 replications of 10x10 and of
100x30, on the benchmark's montecarlo design (schemes region and year), each
figure the median of COLD_RUNS studies.
Last, it times the cold start of a command on the ``--src`` tree, each
figure the median of COLD_RUNS fresh interpreters:

- import_s: ``import clusterpanel.cli``, timed inside the interpreter;
- cold_fit_s: a ``fit`` of sample/config.yaml through ``cli.main``,
  timed from process launch to exit, with a temporary dataset cache
  (``XDG_CACHE_HOME``), so the first run misses and the later ones hit;
- cold_fit_rss_mb: the peak resident set of that fit process;
- cold_corr_s: the same as cold_fit_s for ``corr``, a command that computes
  no interval.

and, in this process, t_quantile_s: the slowest of the interval quantiles
``regression._t_quantile`` computes afresh over T_LEVELS at G = 10, 1000
and 100000 clusters, each the median of COLD_RUNS uncached calls.

Every stage also gets its ``tracemalloc`` peak in MB (key ``<stage>_peak_mb``),
taken in one more call of the stage with tracing on, so that tracing does
not slow the timed calls; a bootstrap peak is that of a B=1+k call.

``--sizes`` replaces the default sizes (300x30 and 1000x40), for example
``--sizes 5000x50``, and ``--stages`` keeps only the named stages, for
example ``--stages fit_cr1,bootstrap`` to leave out the corr stages,
which keep every kept pair's rho (about 400 MB for the default groups at
5000 regions).  The figures outside the sizes are stages too: cold_start,
t_quantile, coverage_study and trending_agreement, so ``--stages
project_readout`` times that stage alone (with build_design and fit_cr1,
which always run).

Each run is stored under a label in the output JSON, so the same script run
on two source trees gives before and after numbers from one machine:

    python3 scripts/scale_check.py --label after --out BENCH_14.json
    python3 scripts/scale_check.py --label before --out BENCH_14.json \
        --src /path/to/other/checkout/src

Runs already in ``--out`` under other labels are kept.

BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from importlib import metadata
from pathlib import Path
from unittest import mock

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SIZES = "300x30,1000x40"
STAGES = ("generate_panel", "load_csv", "build_design", "fit_cr1", "assign_clusters",
          "coefficients_json", "cv_model", "cv_scan", "bootstrap", "corr_all_pairs", "corr_groups",
          "bootstrap_readout", "project_readout",  # per size
          "cold_start", "t_quantile", "coverage_study", "trending_agreement")  # once per run
# aim-1 targets at 1000x40, in seconds
TARGETS = {"fit_cr1_s": 1.0, "cv_model_s": 1.0, "bootstrap_b1000_s": 60.0,
           "bootstrap_year_b1000_s": 60.0, "bootstrap_country_year_b1000_s": 60.0,
           "corr_all_pairs_s": 1.0}
LOAD_RUNS = 5  # generate_panel, load_csv, build_design, fit_cr1, assign_clusters timings
CLUSTER_SCHEMES = ("region", "country", "year", "country_year", "region_year")
BOOTSTRAP_PAIRS = 5  # alternating B=1 and B=1+k timings per size
MAX_EXTRA_REPLICATES = 999  # k at most: B=1+k is then the B=1000 of the target
CV_SCAN_RUNS = 3  # cv_scan timings per size and scheme, of which the median is kept
READOUT_B, READOUT_RUNS = 1000, 5  # the read-outs' sample size, and their timings per size
PROJECT_YEARS = 20  # future years of the project read-out's scenario
PROJECT_LEVELS = [0.65, 0.9]  # the intervals it reads out, project's default levels
TRENDING_REPLICATES = 30
# coverage studies: (regions, years) at SIMULATE_REPS replications, and the
# target for the 10x10 one, in seconds
SIMULATE_SIZES = ((10, 10), (100, 30))
SIMULATE_REPS = 1000
SIMULATE_TARGET_S = 0.1
COLD_RUNS = 5  # fresh interpreters per cold-start figure, of which the median is kept
T_LEVELS = (0.01, 0.1, 0.5, 0.68, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9999)
T_CLUSTERS = (10, 1000, 100000)


def _panel(cp, regions, years):
    """A balanced generate_panel panel, centroids included, plus xbar, each
    region's mean of x."""
    from clusterpanel.simstudy import DgpConfig, generate_panel

    import numpy as np

    ds = generate_panel(DgpConfig(n_regions=regions, n_years=years, countries=regions // 25), 3)
    ri, ti = np.nonzero(ds.present)
    x = ds.predictors["x"]
    xbar = np.repeat(x.mean(axis=1), years)
    return cp.PanelDataset(np.array(ds.regions)[ri], np.array(ds.countries)[ri],
                           ti + ds.first_year, ds.outcome[ri, ti],
                           {"x": x[ri, ti], "xbar": xbar},
                           lat=ds.centroids[ri, 0], lon=ds.centroids[ri, 1])


def _sig(value: float) -> float:
    """``value`` to 4 significant digits, so a 1 ms stage keeps as many as a 1 s one."""
    return float(f"{value:.4g}")


def _timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def _median_timed(func, runs=LOAD_RUNS):
    """The median seconds of ``runs`` calls of ``func``, and the last call's result."""
    seconds = []
    for _ in range(runs):
        elapsed, result = _timed(func)
        seconds.append(elapsed)
    return statistics.median(seconds), result


def _peak_mb(func) -> float:
    """The tracemalloc peak of one call of ``func``, in MB."""
    tracemalloc.start()
    try:
        func()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 1)
    finally:
        tracemalloc.stop()


def measure(cp, regions, years, extra_replicates, stages=STAGES):
    spec = cp.ModelSpec(terms=(cp.TermSpec("x", differenced=True, moderator="xbar", max_lag=2),),
                        fixed_effects=("region", "year"))
    ds = _panel(cp, regions, years)
    out = {}
    if "generate_panel" in stages:
        config = cp.DgpConfig(n_regions=regions, n_years=years, countries=regions // 25)
        out["generate_panel_s"], _ = _median_timed(lambda: cp.generate_panel(config, 3))
        out["generate_panel_peak_mb"] = _peak_mb(lambda: cp.generate_panel(config, 3))
    if "load_csv" in stages:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            schema = cp.save_csv(ds, path)
            out["load_csv_s"] = statistics.median(
                _timed(lambda: cp.load_csv(path, schema))[0] for _ in range(LOAD_RUNS))
            out["load_csv_peak_mb"] = _peak_mb(lambda: cp.load_csv(path, schema))
            if hasattr(cp, "load_cached"):
                with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(Path(tmp) / "cache")):
                    cp.load_cached(path, schema)  # the miss that writes the entry
                    out["load_cached_hit_s"] = statistics.median(
                        _timed(lambda: cp.load_cached(path, schema))[0] for _ in range(LOAD_RUNS))
    out["build_design_s"], design = _median_timed(lambda: cp.build_design(ds, spec))
    out["build_design_peak_mb"] = _peak_mb(lambda: cp.build_design(ds, spec))
    out["n"], out["p"] = design.n, design.p

    def fit_cr1(scheme):
        fit = cp.ols_fit(design)
        cp.clustered_cov(fit, design, cp.assign_clusters(design, scheme))
        return fit

    for scheme in (cp.REGION, cp.COUNTRY_YEAR):
        key = "fit_cr1" if scheme == cp.REGION else f"fit_cr1_{scheme.label}"
        out[f"{key}_s"], fit = _median_timed(lambda: fit_cr1(scheme))
        out[f"{key}_peak_mb"] = _peak_mb(lambda: fit_cr1(scheme))
    for label in CLUSTER_SCHEMES if "assign_clusters" in stages else ():
        scheme = cp.ClusterScheme(label)
        out[f"assign_clusters_{label}_s"], _ = _median_timed(
            lambda: cp.assign_clusters(design, scheme))
    if "coefficients_json" in stages:
        covs = {s.label: cp.clustered_cov(fit, design, cp.assign_clusters(design, s))
                for s in (cp.REGION, cp.COUNTRY_YEAR)}
        write = _coefficients_writer()
        with tempfile.TemporaryDirectory() as tmp:
            def coefficients_json():
                write(Path(tmp) / "coefficients.json", fit, covs, 0.95, len(design.dropped_rows))

            out["coefficients_json_s"], _ = _median_timed(coefficients_json)
            out["coefficients_json_peak_mb"] = _peak_mb(coefficients_json)
    if "cv_model" in stages:
        out["cv_model_s"], _ = _timed(lambda: cp.cv_loss(ds, spec, cp.REGION, K=4, seed=0))
        out["cv_model_peak_mb"] = _peak_mb(lambda: cp.cv_loss(ds, spec, cp.REGION, K=4, seed=0))
    base = cp.ModelSpec(fixed_effects=("region", "year"))
    candidates = spec.terms + (cp.TermSpec("x", differenced=False, max_lag=1),)
    for scheme in (cp.REGION, cp.COUNTRY_YEAR) if "cv_scan" in stages else ():
        key = "cv_scan" if scheme == cp.REGION else f"cv_scan_{scheme.label}"
        out[f"{key}_s"] = statistics.median(
            _timed(lambda: cp.cv_scan(ds, base, candidates, scheme, K=4, seed=0))[0]
            for _ in range(CV_SCAN_RUNS))
        out[f"{key}_peak_mb"] = _peak_mb(
            lambda: cp.cv_scan(ds, base, candidates, scheme, K=4, seed=0))
    for scheme in (cp.REGION, cp.YEAR, cp.COUNTRY_YEAR) if "bootstrap" in stages else ():
        def boot(B):
            return _timed(lambda: cp.block_bootstrap(ds, spec, scheme, B, seed=0))[0]

        one, k = boot(1), min(extra_replicates, MAX_EXTRA_REPLICATES)
        while k < MAX_EXTRA_REPLICATES and boot(1 + k) < 2 * one:
            k = min(2 * k, MAX_EXTRA_REPLICATES)
        ones, replicates = [], []
        for _ in range(BOOTSTRAP_PAIRS):
            one, more = boot(1), boot(1 + k)
            ones.append(one)
            replicates.append((more - one) / k)
        key = "bootstrap" if scheme == cp.REGION else f"bootstrap_{scheme.label}"
        out[f"{key}_extra_replicates"] = k
        out[f"{key}_replicate_s"] = statistics.median(replicates)
        out[f"{key}_b1000_s"] = statistics.median(ones) + 999 * out[f"{key}_replicate_s"]
        out[f"{key}_peak_mb"] = _peak_mb(lambda: boot(1 + k))
    from clusterpanel import cli

    corr_stages = {"corr_all_pairs": [cp.GroupSpec("all", "spatial")],
                   "corr_groups": cli._groups(None, ds)}
    for stage, groups in corr_stages.items():
        if stage in stages:
            def corr():
                return cp.correlation_table(cp.ResidualPanel.from_fit(fit, design), groups)

            out[f"{stage}_s"], _ = _timed(corr)
            out[f"{stage}_peak_mb"] = _peak_mb(corr)
    if {"bootstrap_readout", "project_readout"}.intersection(stages):
        sample = cp.block_bootstrap(ds, spec, cp.YEAR, READOUT_B, seed=0)
    if "bootstrap_readout" in stages:
        out["bootstrap_readout_s"] = bootstrap_readout(cp, ds, sample)
    if "project_readout" in stages:
        (out["project_readout_s"], out["project_readout_peak_mb"],
         out["project_intervals_s"]) = project_readout(cp, ds, spec, sample)
    return out


def _coefficients_writer():
    """``reports.write_coefficients``, or on a tree without it the table and
    ``write_json`` with which ``cli.cmd_fit`` wrote coefficients.json."""
    from clusterpanel import reports

    if hasattr(reports, "write_coefficients"):
        return reports.write_coefficients

    def write(path, fit, covs, level, dropped_rows):
        table = reports.coefficient_table(fit, covs, level)
        table["dropped_rows"] = dropped_rows
        reports.write_json(path, table)

    return write


def bootstrap_readout(cp, ds, sample):
    """Median seconds of ``cli.cmd_bootstrap`` on a precomputed sample: its
    ``block_bootstrap`` and ``_load_dataset`` are swapped for the sample's."""
    from clusterpanel import cli

    config = {"bootstrap": {"scheme": "year", "b": READOUT_B, "levels": [0.9]},
              "model": {"terms": [], "fixed_effects": [], "intercept": True,
                        "moderator_alignment": "contemporaneous", "max_lag_ceiling": 10}}
    swapped = {"block_bootstrap": lambda *args, **kwargs: sample, "_load_dataset": lambda c: ds}
    kept = {name: getattr(cli, name) for name in swapped}
    vars(cli).update(swapped)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            return statistics.median(_timed(lambda: cli.cmd_bootstrap(config, Path(tmp), 0))[0]
                                     for _ in range(READOUT_RUNS))
    finally:
        vars(cli).update(kept)


def _projection_writer():
    """The intervals and projection.csv of ``cli.cmd_project``: the bounds of
    ``bootstrap.read_intervals`` written by ``reports.write_projections``, or
    on a tree without ``read_intervals`` the writer that computed them."""
    from clusterpanel import bootstrap, reports

    if not hasattr(bootstrap, "read_intervals"):
        return reports.write_projections

    def write(path, projections, levels):
        bounds = [bootstrap.read_intervals(proj.values, levels, True)[0] for proj in projections]
        reports.write_projections(path, projections, levels, bounds)

    return write


def project_readout(cp, ds, spec, sample):
    """Median seconds of ``build_scenario_path`` plus ``project_scenarios`` on
    a precomputed sample, with a scenario of PROJECT_YEARS years after the
    panel for every region (x on from its last value by 0.01 a year, and
    three history years for d.x at lags 0..2), the tracemalloc peak of one
    more call in MB, and the median seconds of the projection's interval
    read-out with its CSV."""
    import numpy as np

    (R, T), steps = ds.present.shape, np.arange(-3, PROJECT_YEARS)
    x = ds.predictors["x"][:, -1:] + 0.01 * steps
    future = cp.PanelDataset(np.repeat(ds.regions, len(steps)), np.repeat(ds.countries, len(steps)),
                             np.tile(ds.first_year + T + steps, R), np.full(x.size, np.nan),
                             {"x": x.ravel(), "xbar": np.repeat(ds.predictors["xbar"][:, -1],
                                                                len(steps))})

    def readout():
        path = cp.build_scenario_path(future, spec, sample.design, "scenario",
                                      start_year=ds.first_year + T)
        return cp.project_scenarios(sample, path)

    seconds = statistics.median(_timed(readout)[0] for _ in range(READOUT_RUNS))
    peak, projections, write = _peak_mb(readout), [readout()], _projection_writer()
    with tempfile.TemporaryDirectory() as tmp:
        intervals = statistics.median(
            _timed(lambda: write(Path(tmp) / "projection.csv", projections, PROJECT_LEVELS))[0]
            for _ in range(READOUT_RUNS))
    return seconds, peak, intervals


def trending_agreement(cp):
    """The largest relative deviation of region-scheme bootstrap draws from
    the row path's on a 40x20 panel with x and y trending by 100 and 1000 a
    year, each column scaled by its largest draw: over the intercept and term
    columns, and over the effects."""
    import numpy as np
    from clusterpanel.regression import Absorbed

    gen = np.random.default_rng(0)
    R, T = 40, 20
    t = np.tile(np.arange(T), R)
    x = 100.0 * t + gen.standard_normal(R * T)
    y = 1000.0 * t + 0.5 * x + gen.standard_normal(R * T)
    ds = cp.PanelDataset(np.repeat([f"R{i:02d}" for i in range(R)], T),
                         np.repeat([f"C{i % 4}" for i in range(R)], T), 2000 + t, y, {"x": x})
    spec = cp.ModelSpec(terms=(cp.TermSpec("x", differenced=False),),
                        fixed_effects=("region", "year"))
    design = cp.build_design(ds, spec)
    clusters = cp.assign_clusters(design, cp.REGION)
    G, cols = clusters.n_clusters, range(design.X.shape[1])
    sample = cp.block_bootstrap(ds, spec, cp.REGION, TRENDING_REPLICATES, seed=0)
    rows = []
    for b in range(TRENDING_REPLICATES):
        w = np.bincount(np.random.default_rng((0, b)).integers(0, G, size=G), minlength=G)
        refit = Absorbed(design, w[clusters.row_cluster])
        theta, deficient, effects = refit.solve(cols)
        if deficient:
            continue
        vec = np.full(design.p, np.nan)
        vec[: len(theta)] = theta
        for effect, values in effects.items():
            vec[list(design.fe_slots[effect])] = values[1:]
            if not refit.present[effect][0]:  # re-referenced: its dummies and the intercept
                vec[[0, *design.fe_slots[effect]]] = np.nan
        rows.append(vec)
    want = np.array(rows)
    deviation = np.nanmax(np.abs(sample.draws - want) / np.nanmax(np.abs(want), axis=0), axis=0)
    k = len(cols)
    return {"terms": float(f"{deviation[:k].max():.3g}"),
            "effects": float(f"{np.nanmax(deviation[k:]):.3g}")}


def simulate(cp, regions, years, reps):
    """Median seconds of COLD_RUNS coverage studies on the benchmark's montecarlo design."""
    cfg = cp.DgpConfig(n_regions=regions, n_years=years, predictor_shared_weight=0.75,
                       predictor_spatial_weight=0.15, noise_shared_weight=0.9)
    return statistics.median(
        _timed(lambda: cp.coverage_study(cfg, [cp.REGION, cp.YEAR], reps=reps, seed=0))[0]
        for _ in range(COLD_RUNS))


def cold_start(src):
    """Median seconds of a fresh interpreter's import, of a cold sample fit
    and of a cold sample corr (a command that needs no t quantile), each
    launch to exit, and the median peak RSS of the fit process in MB."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import time; t = time.perf_counter(); import clusterpanel.cli; "
             "print(time.perf_counter() - t)")
    command = ("import resource, sys; from clusterpanel import cli; code = cli.main(sys.argv[1:]); "
               "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024); sys.exit(code)")

    def run(*argv):
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True).stdout

    def cold(name, out):
        """Launch-to-exit seconds and peak RSS in MB of one sample command."""
        seconds, stdout = _timed(lambda: run("-c", command, name, "--config", "sample/config.yaml",
                                             "--out", out))
        return seconds, float(stdout.splitlines()[-1])

    imports, fits, rss, corrs = [], [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        env["XDG_CACHE_HOME"] = f"{tmp}/cache"
        for _ in range(COLD_RUNS):
            imports.append(float(run("-c", probe)))
            seconds, mb = cold("fit", f"{tmp}/fit")
            fits.append(seconds)
            rss.append(mb)
            corrs.append(cold("corr", f"{tmp}/corr")[0])
    return {"import_s": statistics.median(imports), "cold_fit_s": statistics.median(fits),
            "cold_fit_rss_mb": statistics.median(rss), "cold_corr_s": statistics.median(corrs)}


def t_quantile():
    """Per G in T_CLUSTERS, the slowest over T_LEVELS of the median uncached
    _t_quantile call, in seconds."""
    from clusterpanel.regression import _t_quantile

    _t_quantile(0.5, 7)  # loads whatever the quantile imports at its first call
    return {str(G): max(statistics.median(_timed(lambda: _t_quantile.__wrapped__(level, G))[0]
                                          for _ in range(COLD_RUNS)) for level in T_LEVELS)
            for G in T_CLUSTERS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the output, e.g. before")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to time")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file the run is added to, e.g. BENCH_14.json")
    parser.add_argument("--replicates", type=int, default=100,
                        help="extra bootstrap replicates timed for the per-replicate figure, "
                             "doubled until they take longer than a B=1 call")
    parser.add_argument("--sizes", default=SIZES,
                        help=f"comma-separated RxT panel sizes to time (default {SIZES})")
    parser.add_argument("--stages", default=",".join(STAGES),
                        help="comma-separated stages to time (default all); build_design "
                             "and fit_cr1 always run")
    args = parser.parse_args(argv)
    sizes = [tuple(map(int, size.split("x"))) for size in args.sizes.split(",")]
    stages = args.stages.split(",")
    unknown = sorted(set(stages) - set(STAGES))
    if unknown:
        parser.error(f"unknown stages {unknown}; use some of {','.join(STAGES)}")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore")
    import numpy as np

    import clusterpanel as cp

    measure(cp, 25, 8, 1, stages)  # warm-up: imports, BLAS and first-call set-up
    run = {}
    if "cold_start" in stages:
        run["cold_start_s"] = {k: _sig(v) for k, v in cold_start(src).items()}
        print("cold start", json.dumps(run["cold_start_s"]), flush=True)
    if "t_quantile" in stages:
        run["t_quantile_s"] = {k: _sig(v) for k, v in t_quantile().items()}
        print("t quantile", json.dumps(run["t_quantile_s"]), flush=True)
    for regions, years in sizes:
        key = f"{regions}x{years}"
        run[key] = {k: _sig(v) if k.endswith("_s") else v
                    for k, v in measure(cp, regions, years, args.replicates, stages).items()}
        print(key, json.dumps(run[key]), flush=True)
    if "coverage_study" in stages:
        simulate(cp, 10, 10, 100)  # warm-up
        run["coverage_study_s"] = {f"{regions}x{years}": _sig(simulate(cp, regions, years,
                                                                       SIMULATE_REPS))
                                   for regions, years in SIMULATE_SIZES}
        print(f"coverage_study, {SIMULATE_REPS} reps", json.dumps(run["coverage_study_s"]),
              flush=True)
        run["meets_coverage_study_target_at_10x10"] = (
            run["coverage_study_s"]["10x10"] < SIMULATE_TARGET_S)
    if "trending_agreement" in stages:
        run["trending_agreement"] = trending_agreement(cp)
        print("trending agreement", json.dumps(run["trending_agreement"]), flush=True)
    if "1000x40" in run:
        run["meets_targets_at_1000x40"] = {k: run["1000x40"][k] < limit
                                           for k, limit in TARGETS.items() if k in run["1000x40"]}
    run["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["about"] = ("scripts/scale_check.py: stage times in seconds to 4 significant digits, "
                       "balanced generate_panel panels, two-way fixed effects, d.x*xbar at lags "
                       "0..2; generate_panel_s, load_csv_s, build_design_s, the fit_cr1, "
                       "assign_clusters and coefficients_json figures are each the median of "
                       f"{LOAD_RUNS} calls, the cv_scan figures (six models, K=4) "
                       f"the median of {CV_SCAN_RUNS} scans, the bootstrap figures come from the "
                       f"medians of {BOOTSTRAP_PAIRS} alternating B=1 and B=1+k timings (k doubled "
                       f"until B=1+k takes twice B=1, at most {MAX_EXTRA_REPLICATES}), "
                       f"load_cached_hit_s the median of {LOAD_RUNS} cache hits, the "
                       f"cold-start figures are medians of {COLD_RUNS} fresh interpreters "
                       "(cold_fit_rss_mb in MB), t_quantile_s is the slowest level's median of "
                       f"{COLD_RUNS} uncached calls, bootstrap_readout_s (year scheme, "
                       f"B={READOUT_B}) and project_readout_s (build_scenario_path plus "
                       f"project_scenarios, a {PROJECT_YEARS}-year scenario for every region) "
                       f"and project_intervals_s (its levels {PROJECT_LEVELS} intervals and "
                       f"CSV) the medians of {READOUT_RUNS} read-outs, "
                       f"coverage_study_s the median of {COLD_RUNS} studies, "
                       "trending_agreement a relative deviation (no unit), "
                       "every other figure is a single run; each "
                       "<stage>_peak_mb is the tracemalloc peak of one more call of the stage, "
                       "in MB (a bootstrap's a B=1+k call)")
    report["targets_s_at_1000x40"] = TARGETS
    report["coverage_study"] = (f"{SIMULATE_REPS} replications, schemes region and year, "
                                f"target {SIMULATE_TARGET_S} s at 10x10")
    try:  # scipy is a test dependency only
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    report["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy, "blas_threads": 1}
    report.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(run.get("meets_targets_at_1000x40")),
          json.dumps({"coverage_study_10x10": run.get("meets_coverage_study_target_at_10x10")}))


if __name__ == "__main__":
    main()
