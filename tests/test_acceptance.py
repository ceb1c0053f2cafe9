"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.  Every
Monte Carlo criterion is fully seeded, so outcomes are deterministic; frozen
reference values come from the independent dense-formula oracle runs in
scripts/dev_oracles.py.
"""

import math
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import clusterpanel as cp
from clusterpanel.cli import COMMANDS, main as cli_main
from clusterpanel.modelselect import EquicorrParams, loglik_equicorr, loglik_iid
from clusterpanel.panel import (
    COUNTRY,
    COUNTRY_YEAR,
    REGION,
    YEAR,
    ModelSpec,
    TermSpec,
    assign_clusters,
    build_design,
)
from clusterpanel.regression import clustered_cov, ols_fit
from clusterpanel.simstudy import SLOPE_SPEC, DgpConfig, generate_panel

from conftest import design_from_arrays, keep_grid, obs, panel_from, row_keys
from test_modelselect import make_clusters

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s exceeds {budget_seconds}s"
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Block-likelihood oracle
# ---------------------------------------------------------------------------


def _dense_gaussian_loglik(r, sizes, sigma2, rho):
    n = len(r)
    sigma = np.zeros((n, n))
    i = 0
    for s in sizes:
        sigma[i : i + s, i : i + s] = np.full((s, s), rho) + (sigma2 - rho) * np.eye(s)
        i += s
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    quad = float(r @ np.linalg.solve(sigma, r))
    return -0.5 * n * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad


def test_criterion_1_block_likelihood_oracle():
    with criterion("criterion 1: block-likelihood oracle", 10.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            sizes = []
            while sum(sizes) < int(rng.integers(50, 500)):
                sizes.append(int(rng.integers(1, 11)))
            n = sum(sizes)
            r = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
            sigma2 = float(rng.uniform(0.5, 3.0))
            n_max = max(sizes)
            lo = -sigma2 / (n_max - 1) if n_max > 1 else -sigma2
            rho = float(rng.uniform(0.95 * lo, 0.95 * sigma2))
            clusters = make_clusters(sizes)
            ll = loglik_equicorr(r, clusters, EquicorrParams(sigma2=sigma2, rho=rho))
            dense = _dense_gaussian_loglik(r, sizes, sigma2, rho)
            assert abs(ll - dense) <= 1e-8 * abs(dense)
            s2 = float(r @ r) / n
            ll_zero = loglik_equicorr(r, clusters, EquicorrParams(sigma2=s2, rho=0.0))
            assert abs(ll_zero - loglik_iid(r)) <= 1e-12 * abs(ll_zero)


# ---------------------------------------------------------------------------
# 2. Sandwich oracle
# ---------------------------------------------------------------------------


def _dense_sandwich(X, r, groups):
    n, p = X.shape
    sigma = np.zeros((n, n))
    for g in set(groups):
        m = np.asarray(groups) == g
        rg = r[m]
        sigma[np.ix_(m, m)] = np.outer(rg, rg)
    bread = np.linalg.inv(X.T @ X)
    return bread @ X.T @ sigma @ X @ bread


def test_criterion_2_sandwich_oracle():
    with criterion("criterion 2: sandwich oracle", 10.0):
        rng = np.random.default_rng(202)
        scheme = cp.ClusterScheme.parse("custom:g")
        for _ in range(200):
            n = int(rng.integers(20, 150))
            p = int(rng.integers(2, 7))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            y = rng.standard_normal(n)
            G = int(rng.integers(2, 16))
            groups = list(rng.integers(0, G, size=n))
            d = design_from_arrays(X, y, cluster_keys=groups)
            fit = ols_fit(d)
            clusters = assign_clusters(d, scheme)
            cr0 = clustered_cov(fit, clusters, correction="CR0")
            oracle = _dense_sandwich(X, fit.residuals, [str(g) for g in groups])
            scale = max(np.abs(oracle).max(), 1e-300)
            assert np.abs(cr0.cov - oracle).max() <= 1e-9 * scale
            cr1 = clustered_cov(fit, clusters, correction="CR1")
            Gn = clusters.n_clusters
            factor = Gn / (Gn - 1.0) * (n - 1.0) / (n - p)
            assert np.abs(cr1.cov - cr0.cov * factor).max() <= 1e-12 * scale

        # singleton clusters reproduce HC0 exactly
        n = 80
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = rng.standard_normal(n)
        d = design_from_arrays(X, y, cluster_keys=range(n))
        fit = ols_fit(d)
        cov = clustered_cov(fit, assign_clusters(d, scheme), correction="CR0")
        bread = np.linalg.inv(X.T @ X)
        hc0 = bread @ (X * fit.residuals[:, None] ** 2).T @ X @ bread
        assert np.abs(cov.cov - hc0).max() <= 1e-12 * np.abs(hc0).max()


# ---------------------------------------------------------------------------
# 3. Coverage study (10 regions x 10 years x 1000 replications)
# ---------------------------------------------------------------------------

# reference coverage from the independent dense-formula oracle
# (scripts/dev_oracles.py, seed 777): year 0.945, region 0.641
ORACLE_YEAR_COVERAGE = 0.945


def test_criterion_3_coverage_contrast():
    with criterion("criterion 3: coverage study (10x10x1000)", 60.0):
        cfg = DgpConfig(
            n_regions=10, n_years=10, predictor_shared_weight=0.75,
            predictor_spatial_weight=0.15, noise_shared_weight=0.9,
        )
        report = cp.coverage_study(cfg, [YEAR, REGION], reps=1000, level=0.95, seed=42)
        by_scheme = {r.scheme: r for r in report.rows}
        year = by_scheme["year"].coverage
        region = by_scheme["region"].coverage
        band = 2.5758 * math.sqrt(ORACLE_YEAR_COVERAGE * (1 - ORACLE_YEAR_COVERAGE) / 1000)
        assert abs(year - ORACLE_YEAR_COVERAGE) <= band
        assert year >= 0.90
        assert region <= year - 0.05
        assert by_scheme["year"].replications == 1000


# ---------------------------------------------------------------------------
# 4. Bias study under iid errors
# ---------------------------------------------------------------------------


def test_criterion_4_bias_study():
    with criterion("criterion 4: bias study (iid errors, 1000 reps)", 60.0):
        cfg = DgpConfig(n_regions=20, n_years=20, noise_shared_weight=0.0)
        report = cp.bias_study(cfg, YEAR, reps=1000, seed=42, correction="CR0")
        assert abs(report.ratio - 1.0) <= 0.10


# ---------------------------------------------------------------------------
# 5. Planted-correlation diagnostic
# ---------------------------------------------------------------------------


def test_criterion_5_planted_correlation():
    with criterion("criterion 5: planted within-country correlation", 30.0):
        cfg = DgpConfig(
            n_regions=200, n_years=30, countries=20, predictor_shared_weight=0.5,
            noise_sharing="country_year", noise_shared_weight=0.65, with_centroids=False,
        )
        ds = generate_panel(cfg, 0)
        design = build_design(ds, SLOPE_SPEC)
        fit = ols_fit(design)
        panel = cp.ResidualPanel.from_fit(fit)
        same = cp.pair_correlations(panel, cp.GroupSpec("same", same_country=True))
        diff = cp.pair_correlations(panel, cp.GroupSpec("different", different_country=True))
        assert abs(float(np.mean(same.rho)) - 0.65) <= 0.05
        assert abs(float(np.mean(diff.rho))) <= 0.05


# ---------------------------------------------------------------------------
# 6. Model-selection direction on the spurious benchmark
# ---------------------------------------------------------------------------


def test_criterion_6_model_selection_direction():
    with criterion("criterion 6: model-selection direction (50 runs)", 300.0):
        cfg = DgpConfig(
            n_regions=200, n_years=15, beta_true=0.0, countries=5,
            predictor_sharing="country_year", predictor_shared_weight=0.8,
            noise_sharing="country_year", noise_shared_weight=0.8,
            with_centroids=False,
        )
        spurious = ModelSpec(terms=(TermSpec("x", differenced=False, max_lag=5),))
        trivial = ModelSpec()
        counts = {
            "cv_region_nontrivial": 0, "cv_country_trivial": 0, "cv_year_trivial": 0,
            "aic_nontrivial": 0, "bic_nontrivial": 0,
            "adj_aic_trivial": 0, "adj_bic_trivial": 0,
        }
        runs = 50
        for run in range(runs):
            ds = generate_panel(cfg, (2000, run))
            keep = keep_grid(ds, row_keys(build_design(ds, spurious)))
            for scheme, key, want_trivial in (
                (REGION, "cv_region_nontrivial", False),
                (COUNTRY, "cv_country_trivial", True),
                (YEAR, "cv_year_trivial", True),
            ):
                # one scan: the trivial reference and the spurious model at
                # full depth, on the spurious model's rows and shared folds
                scan = cp.cv_scan(ds, trivial, spurious.terms, scheme, K=5, seed=run)
                loss_triv = scan.reference_loss
                loss_mod = next(e.loss for e in scan.entries if e.lag_depth == 5)
                prefers_trivial = loss_triv <= loss_mod
                counts[key] += prefers_trivial if want_trivial else (not prefers_trivial)
            d_triv = build_design(ds, trivial, keep_rows=keep)
            d_mod = build_design(ds, spurious, keep_rows=keep)
            f_triv, f_mod = ols_fit(d_triv), ols_fit(d_mod)
            blocks = assign_clusters(d_triv, COUNTRY_YEAR)
            blocks_mod = assign_clusters(d_mod, COUNTRY_YEAR)
            for crit in ("AIC", "BIC"):
                plain_t = cp.information_criterion(f_triv, blocks, crit, adjusted=False).value
                plain_m = cp.information_criterion(f_mod, blocks_mod, crit, adjusted=False).value
                counts[f"{crit.lower()}_nontrivial"] += plain_m < plain_t
                adj_t = cp.information_criterion(f_triv, blocks, crit, adjusted=True).value
                adj_m = cp.information_criterion(f_mod, blocks_mod, crit, adjusted=True).value
                counts[f"adj_{crit.lower()}_trivial"] += adj_t <= adj_m
        assert counts["cv_country_trivial"] >= 0.90 * runs, counts
        assert counts["cv_year_trivial"] >= 0.90 * runs, counts
        assert counts["adj_aic_trivial"] >= 0.90 * runs, counts
        assert counts["adj_bic_trivial"] >= 0.90 * runs, counts
        assert counts["cv_region_nontrivial"] >= 0.50 * runs, counts
        assert counts["aic_nontrivial"] >= 0.50 * runs, counts
        assert counts["bic_nontrivial"] >= 0.50 * runs, counts


# ---------------------------------------------------------------------------
# 7. Bootstrap calibration and discernibility
# ---------------------------------------------------------------------------


def _future_path(ds, years, xpath):
    observations = []
    for r in ds.regions:
        for year in years:
            observations.append(
                obs(r, ds.country_of(r), year, math.nan, {"x": float(xpath(year))})
            )
    return panel_from(observations, predictor_names=("x",))


def test_criterion_7_bootstrap_calibration():
    with criterion("criterion 7: bootstrap calibration and discernibility", 120.0):
        cfg = DgpConfig(
            n_regions=50, n_years=20, beta_true=1.0, countries=5,
            predictor_sharing="country_year", predictor_shared_weight=0.8,
            noise_sharing="country_year", noise_shared_weight=0.8,
            with_centroids=False,
        )
        ds = generate_panel(cfg, 11)
        sample = cp.block_bootstrap(ds, SLOPE_SPEC, COUNTRY_YEAR, B=1000, seed=5)
        design = build_design(ds, SLOPE_SPEC)
        fit = ols_fit(design)
        cov = clustered_cov(fit, assign_clusters(design, COUNTRY_YEAR), correction="CR1")
        ratio = sample.sd() / cov.standard_errors
        assert np.all(np.abs(ratio - 1.0) <= 0.15), ratio

        small = DgpConfig(
            n_regions=30, n_years=12, beta_true=1.0, countries=5,
            predictor_sharing="country_year", predictor_shared_weight=0.8,
            noise_sharing="country_year", noise_shared_weight=0.8,
            with_centroids=False,
        )
        years = range(2030, 2041)
        for seed in range(20):
            panel = generate_panel(small, (500, seed))
            boot = cp.block_bootstrap(panel, SLOPE_SPEC, COUNTRY_YEAR, B=120, seed=seed)
            d = build_design(panel, SLOPE_SPEC)
            flat = cp.build_scenario_path(
                _future_path(panel, years, lambda y: 0.0), SLOPE_SPEC, d, "flat"
            )
            jump = cp.build_scenario_path(
                _future_path(panel, years, lambda y: 5.0 if y >= 2035 else 0.0),
                SLOPE_SPEC, d, "jump",
            )
            p_flat = cp.project_scenarios(boot, flat)
            p_jump = cp.project_scenarios(boot, jump)
            assert cp.first_discernible_year(p_flat, p_flat, alpha=0.05) is None
            assert cp.first_discernible_year(p_jump, p_flat, alpha=0.05) == 2035


# ---------------------------------------------------------------------------
# 8. Determinism: byte-identical reruns from manifests
# ---------------------------------------------------------------------------


def test_criterion_8_manifest_determinism(tmp_path, monkeypatch):
    with criterion("criterion 8: manifest reruns are byte-identical", 120.0):
        monkeypatch.chdir(ROOT)
        for command in COMMANDS:
            first = tmp_path / f"{command}_first"
            second = tmp_path / f"{command}_second"
            assert cli_main(
                [command, "--config", "sample/config.yaml", "--out", str(first)]
            ) == 0
            assert cli_main(
                [command, "--config", str(first / "manifest.yaml"), "--out", str(second)]
            ) == 0
            first_files = sorted(p.name for p in first.iterdir())
            second_files = sorted(p.name for p in second.iterdir())
            assert first_files == second_files
            for name in first_files:
                assert (first / name).read_bytes() == (second / name).read_bytes(), (
                    f"{command}/{name} differs across reruns"
                )
