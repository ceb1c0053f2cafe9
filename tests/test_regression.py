import numpy as np
import pytest
from scipy import stats

from clusterpanel.panel import (
    COUNTRY_YEAR,
    REGION,
    REGION_YEAR,
    ClusterScheme,
    ColumnLabel,
    ModelSpec,
    TermSpec,
    assign_clusters,
    build_design,
)
from clusterpanel.regression import (
    CovarianceEstimate,
    FitResult,
    RankDeficientError,
    _t_quantile,
    clustered_cov,
    confidence_intervals,
    ols_fit,
    term_response_curve,
)
from clusterpanel.simstudy import SLOPE_SPEC, DgpConfig, generate_panel

from conftest import design_from_arrays, grid_dataset


def custom_scheme():
    return ClusterScheme.parse("custom:g")


def dense_sandwich(X, r, groups, correction="CR0"):
    """Dense oracle: materialize the block-diagonal Sigma-hat and evaluate
    (X'X)^-1 X' Sigma X (X'X)^-1 directly."""
    n, p = X.shape
    sigma = np.zeros((n, n))
    for g in set(groups):
        m = np.array([x == g for x in groups])
        rg = r[m]
        sigma[np.ix_(m, m)] = np.outer(rg, rg)
    bread = np.linalg.inv(X.T @ X)
    cov = bread @ X.T @ sigma @ X @ bread
    if correction == "CR1":
        G = len(set(groups))
        cov = cov * (G / (G - 1)) * ((n - 1) / (n - p))
    return cov


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------


def test_exact_linear_fit():
    x = {2000 + t: float(t) for t in range(6)}
    ds = grid_dataset({"R1": x}, outcome={"R1": {y: 2.0 * v for y, v in x.items()}})
    d = build_design(ds, ModelSpec(terms=(TermSpec("v", differenced=False),)))
    fit = ols_fit(d)
    np.testing.assert_allclose(fit.beta, [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)
    assert fit.r_squared == 1.0


def test_constant_outcome_intercept_only():
    ds = grid_dataset({"R1": {2000 + t: 1.0 for t in range(5)}},
                      outcome={"R1": {2000 + t: 3.5 for t in range(5)}})
    d = build_design(ds, ModelSpec())
    with pytest.warns(UserWarning, match="R\\^2"):
        fit = ols_fit(d)
    assert fit.beta[0] == pytest.approx(3.5)
    assert fit.r_squared == 0.0


def test_matches_pseudoinverse_oracle(rng):
    X = rng.standard_normal((500, 8))
    beta = rng.standard_normal(8)
    y = X @ beta + rng.standard_normal(500)
    d = design_from_arrays(X, y)
    fit = ols_fit(d)
    oracle = np.linalg.pinv(X) @ y
    np.testing.assert_allclose(fit.beta, oracle, rtol=1e-10)


def test_rank_deficiency_names_columns(rng):
    X = rng.standard_normal((30, 2))
    X = np.column_stack([X, X[:, 1]])  # duplicate the second column
    labels = tuple(ColumnLabel(kind="base", term=t, lag=0) for t in ("u", "v", "w"))
    d = design_from_arrays(X, rng.standard_normal(30), labels=labels)
    with pytest.raises(RankDeficientError) as err:
        ols_fit(d)
    assert set(err.value.columns) & {"v.l0", "w.l0"}


def test_too_few_rows():
    d = design_from_arrays(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError, match="more rows"):
        ols_fit(d)


def test_normal_equation_orthogonality(rng):
    for _ in range(10):
        n, p = int(rng.integers(20, 80)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = ols_fit(design_from_arrays(X, y))
        bound = 1e-8 * np.linalg.norm(X) * max(np.linalg.norm(fit.residuals), 1e-30)
        assert np.all(np.abs(X.T @ fit.residuals) <= bound)


# ---------------------------------------------------------------------------
# Clustered covariance
# ---------------------------------------------------------------------------


def test_singleton_clusters_reproduce_hc0(rng):
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    d = design_from_arrays(X, y, cluster_keys=range(40))
    fit = ols_fit(d)
    cov = clustered_cov(fit, d, assign_clusters(d, custom_scheme()), correction="CR0")
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (X * fit.residuals[:, None] ** 2).T @ X @ bread
    np.testing.assert_allclose(cov.cov, hc0, atol=1e-12 * np.abs(hc0).max())


def test_single_cluster_degenerates_to_zero(rng):
    X = np.column_stack([np.ones(25), rng.standard_normal(25)])
    y = rng.standard_normal(25)
    d = design_from_arrays(X, y, cluster_keys=[0] * 25)
    fit = ols_fit(d)
    with pytest.warns(UserWarning, match="G=1 degenerate"):
        cov = clustered_cov(fit, d, assign_clusters(d, custom_scheme()), correction="CR0")
    assert np.abs(cov.cov).max() < 1e-12


def test_matches_dense_block_diagonal_oracle(rng):
    X = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    y = rng.standard_normal(200)
    groups = list(np.repeat(np.arange(10), 20))
    d = design_from_arrays(X, y, cluster_keys=groups)
    fit = ols_fit(d)
    with pytest.warns(UserWarning, match="unreliable"):
        cov = clustered_cov(fit, d, assign_clusters(d, custom_scheme()), correction="CR0")
    oracle = dense_sandwich(X, fit.residuals, [str(g) for g in groups])
    np.testing.assert_allclose(cov.cov, oracle, rtol=1e-9)


def test_sandwich_oracle_property_random_partitions(rng):
    for _ in range(20):
        n = int(rng.integers(30, 120))
        p = int(rng.integers(2, 5))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = rng.standard_normal(n)
        G = int(rng.integers(2, 12))
        groups = list(rng.integers(0, G, size=n))
        d = design_from_arrays(X, y, cluster_keys=groups)
        fit = ols_fit(d)
        with pytest.warns(UserWarning):
            cov = clustered_cov(fit, d, assign_clusters(d, custom_scheme()), correction="CR0")
        oracle = dense_sandwich(X, fit.residuals, [str(g) for g in groups])
        np.testing.assert_allclose(cov.cov, oracle, rtol=1e-9, atol=1e-14)


def test_cr1_is_exact_multiple_of_cr0(rng):
    X = np.column_stack([np.ones(60), rng.standard_normal((60, 2))])
    y = rng.standard_normal(60)
    groups = list(np.repeat(np.arange(6), 10))
    d = design_from_arrays(X, y, cluster_keys=groups)
    fit = ols_fit(d)
    clusters = assign_clusters(d, custom_scheme())
    with pytest.warns(UserWarning):
        cr0 = clustered_cov(fit, d, clusters, correction="CR0")
        cr1 = clustered_cov(fit, d, clusters, correction="CR1")
    G, n, p = 6, 60, 3
    factor = G / (G - 1) * (n - 1) / (n - p)
    np.testing.assert_allclose(cr1.cov, cr0.cov * factor, rtol=1e-14)


def test_scale_equivariance(rng):
    c = 2.5
    X = np.column_stack([np.ones(50), rng.standard_normal(50)])
    y = rng.standard_normal(50)
    groups = list(np.repeat(np.arange(10), 5))
    d1 = design_from_arrays(X, y, cluster_keys=groups)
    d2 = design_from_arrays(X, c * y, cluster_keys=groups)
    f1, f2 = ols_fit(d1), ols_fit(d2)
    np.testing.assert_allclose(f2.beta, c * f1.beta, rtol=1e-12)
    with pytest.warns(UserWarning):
        cov1 = clustered_cov(f1, d1, assign_clusters(d1, custom_scheme()))
        cov2 = clustered_cov(f2, d2, assign_clusters(d2, custom_scheme()))
    np.testing.assert_allclose(cov2.cov, c**2 * cov1.cov, rtol=1e-12)
    t1 = f1.beta / cov1.standard_errors
    t2 = f2.beta / cov2.standard_errors
    np.testing.assert_allclose(t2, t1, rtol=1e-12)


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------


def _unit_cov(G, p=2):
    return CovarianceEstimate(cov=np.eye(p), scheme=REGION, correction="CR1", G=G)


def _zero_fit(p=2):
    labels = tuple(ColumnLabel(kind="base", term=f"c{j}", lag=0) for j in range(p))
    z = np.zeros(p)
    return FitResult(beta=z.copy(), residuals=np.zeros(10), fitted=np.zeros(10),
                     r_squared=0.0, n=10, p=p, column_labels=labels)


def test_interval_half_width_normal_limit():
    ci = confidence_intervals(_zero_fit(), _unit_cov(G=10**7), level=0.95)
    np.testing.assert_allclose(ci[:, 1], 1.959964, atol=1e-4)


def test_interval_half_width_small_g():
    ci = confidence_intervals(_zero_fit(), _unit_cov(G=5), level=0.95)
    q = stats.t.ppf(0.975, 4)
    assert q == pytest.approx(2.7764451051977987, rel=1e-12)
    np.testing.assert_allclose(ci[:, 1], q, rtol=1e-12)


# Student-t quantiles at the binary double 0.5 + level/2 that _t_quantile
# passes on (not at the decimal 0.975 / 0.95), keyed by df = G - 1. Computed
# with mpmath at 60 digits by root-finding on the regularized incomplete beta
# P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2. Every CI bound in the fit and
# simulate goldens scales with these values, so a drift in scipy's
# special.stdtrit shows here first; rel=1e-15 is a few ulp.
T_QUANTILES = {
    (1, 0.95): "12.7062047361746933141",
    (1, 0.90): "6.313751514675037397925",
    (2, 0.95): "4.30265272974946178942",
    (2, 0.90): "2.919985580353724170313",
    (9, 0.95): "2.262157162798204999203",
    (9, 0.90): "1.83311293265623660953",
    (29, 0.95): "2.045229642132703874521",
    (29, 0.90): "1.69912702653349728446",
    (74, 0.95): "1.99254349518093230523",
    (74, 0.90): "1.665706892734023181643",
    (999, 0.95): "1.962341461133449597549",
    (999, 0.90): "1.646380345427535215176",
}


@pytest.mark.parametrize("df,level", sorted(T_QUANTILES))
def test_t_quantile_matches_high_precision_constants(df, level):
    expected = float(T_QUANTILES[(df, level)])
    assert _t_quantile(level, df + 1) == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "level", [0.01, 0.1, 0.5, 0.68, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9999])
def test_t_quantile_equals_scipy_stats_t_ppf(level):
    # _t_quantile calls special.stdtrit directly; scipy.stats.t.ppf, the
    # distribution framework it replaces, stays here as the exact oracle.
    G = np.arange(2, 2501)
    expected = stats.t.ppf(0.5 + level / 2.0, G - 1)
    got = np.array([_t_quantile(level, int(g)) for g in G])
    mismatch = np.flatnonzero(got != expected)
    assert mismatch.size == 0, f"G={G[mismatch[:5]].tolist()} differ from t.ppf"


def test_interval_rejects_nonpositive_variance():
    cov = CovarianceEstimate(cov=np.diag([1.0, -1e-6]), scheme=REGION, correction="CR0", G=5)
    with pytest.raises(ValueError, match="nonpositive"):
        confidence_intervals(_zero_fit(), cov)


def test_interval_level_validation():
    with pytest.raises(ValueError, match="level"):
        confidence_intervals(_zero_fit(), _unit_cov(G=5), level=1.5)


# ---------------------------------------------------------------------------
# Response curves
# ---------------------------------------------------------------------------


def _curve_fit(beta, labels):
    p = len(beta)
    return FitResult(beta=np.asarray(beta, float), residuals=np.zeros(10),
                     fitted=np.zeros(10), r_squared=0.5, n=10, p=p,
                     column_labels=tuple(labels))


def test_cumulative_effects_plain_term():
    labels = [ColumnLabel(kind="base", term="d.v", lag=0),
              ColumnLabel(kind="base", term="d.v", lag=1)]
    fit = _curve_fit([0.1, -0.1], labels)
    cov = CovarianceEstimate(cov=np.eye(2) * 0.01, scheme=REGION, correction="CR1", G=30)
    curve = term_response_curve(fit, cov, TermSpec("v", differenced=True, max_lag=1))
    assert [pt.effect for pt in curve.points] == pytest.approx([0.1, 0.0])
    # variance of the lag-1 cumulative sum is c' I c * 0.01 with c = (1, 1)
    assert curve.points[1].se == pytest.approx(np.sqrt(0.02))


def test_zero_moderator_value_nulls_interactions():
    labels = [
        ColumnLabel(kind="base", term="d.v", lag=0, moderator="m"),
        ColumnLabel(kind="base", term="d.v", lag=1, moderator="m"),
        ColumnLabel(kind="interaction", term="d.v", lag=0, moderator="m"),
        ColumnLabel(kind="interaction", term="d.v", lag=1, moderator="m"),
    ]
    fit = _curve_fit([0.5, 0.25, 99.0, -99.0], labels)
    cov = CovarianceEstimate(cov=np.eye(4), scheme=REGION, correction="CR1", G=30)
    term = TermSpec("v", differenced=True, moderator="m", max_lag=1)
    curve = term_response_curve(fit, cov, term, moderator_value=0.0)
    assert [pt.effect for pt in curve.points] == pytest.approx([0.5, 0.75])


def test_missing_term_errors():
    labels = [ColumnLabel(kind="base", term="d.v", lag=0)]
    fit = _curve_fit([0.1], labels)
    cov = CovarianceEstimate(cov=np.eye(1), scheme=REGION, correction="CR1", G=30)
    with pytest.raises(ValueError, match="not in the fitted model"):
        term_response_curve(fit, cov, TermSpec("w", differenced=True))
    with pytest.raises(ValueError, match="horizon"):
        term_response_curve(fit, cov, TermSpec("v", differenced=True, max_lag=0), horizon=3)


# ---------------------------------------------------------------------------
# End-to-end coverage sanity (iid case)
# ---------------------------------------------------------------------------


def test_iid_singleton_coverage_calibration():
    # with iid noise and singleton clusters the CI is plain HC + t, so
    # empirical coverage should sit near the nominal level
    cfg = DgpConfig(n_regions=12, n_years=10, noise_shared_weight=0.0)
    hits = 0
    reps = 400
    for rep in range(reps):
        ds = generate_panel(cfg, (101, rep))
        d = build_design(ds, SLOPE_SPEC)
        fit = ols_fit(d)
        clusters = assign_clusters(d, REGION_YEAR)
        cov = clustered_cov(fit, d, clusters, correction="CR1")
        lo, hi = confidence_intervals(fit, cov, 0.95)[1]
        hits += lo <= cfg.beta_true <= hi
    assert hits / reps == pytest.approx(0.95, abs=0.035)


def test_residuals_plus_fitted_reconstruct_outcome(rng):
    X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
    y = rng.standard_normal(60)
    fit = ols_fit(design_from_arrays(X, y))
    np.testing.assert_allclose(fit.residuals + fit.fitted, y, rtol=0, atol=1e-14)


def test_block_aware_scheme_widens_uncertainty_on_planted_benchmark():
    # noise and predictor share within-country-year components, so the
    # block-aware scheme must report more slope uncertainty than region
    # clustering, which assumes those blocks away
    cfg = DgpConfig(n_regions=60, n_years=12, countries=6,
                    predictor_sharing="country_year", predictor_shared_weight=0.65,
                    noise_sharing="country_year", noise_shared_weight=0.65,
                    with_centroids=False)
    wider = 0
    for seed in range(10):
        ds = generate_panel(cfg, (410, seed))
        d = build_design(ds, SLOPE_SPEC)
        fit = ols_fit(d)
        se_cy = clustered_cov(fit, d, assign_clusters(d, COUNTRY_YEAR)).standard_errors[1]
        se_r = clustered_cov(fit, d, assign_clusters(d, REGION)).standard_errors[1]
        wider += se_cy > se_r
    assert wider >= 9
