import numpy as np
import pytest

from clusterpanel.panel import REGION, REGION_YEAR, YEAR, build_design
from clusterpanel.regression import confidence_intervals, ols_fit
from clusterpanel.simstudy import (
    SLOPE_SPEC,
    DgpConfig,
    bias_study,
    coverage_study,
    generate_panel,
)


def _matrices(ds, beta_true):
    """(x, e) matrices (region x year) of a generated, fully observed panel."""
    assert ds.present.all()
    x = ds.predictors["x"]
    return x, ds.outcome - beta_true * x


def _mean_within_year_corr(e):
    c = np.corrcoef(e)
    return float((c.sum() - len(c)) / (len(c) * (len(c) - 1)))


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="at least 2"):
        DgpConfig(n_regions=1, n_years=5)
    with pytest.raises(ValueError, match="weight"):
        DgpConfig(n_regions=5, n_years=5, noise_shared_weight=1.5)
    with pytest.raises(ValueError, match="noise_scale"):
        DgpConfig(n_regions=5, n_years=5, noise_scale=0.0)
    with pytest.raises(ValueError, match="countries"):
        DgpConfig(n_regions=5, n_years=5, countries=9)
    with pytest.raises(ValueError, match="sharing"):
        DgpConfig(n_regions=5, n_years=5, noise_sharing="continent")
    with pytest.raises(ValueError, match="exceed"):
        DgpConfig(n_regions=5, n_years=5, predictor_shared_weight=0.9,
                  predictor_spatial_weight=0.2)


def test_fully_shared_predictor_is_region_constant():
    cfg = DgpConfig(n_regions=6, n_years=8, predictor_shared_weight=1.0)
    ds = generate_panel(cfg, 0)
    for vals in ds.predictors["x"]:
        assert max(vals) == pytest.approx(min(vals))


def test_iid_noise_has_no_spatial_correlation():
    cfg = DgpConfig(n_regions=60, n_years=40, noise_shared_weight=0.0)
    _, e = _matrices(generate_panel(cfg, 1), cfg.beta_true)
    assert abs(_mean_within_year_corr(e)) < 0.02


def test_planted_spatial_noise_correlation():
    cfg = DgpConfig(n_regions=200, n_years=50, noise_shared_weight=0.65)
    _, e = _matrices(generate_panel(cfg, 2), cfg.beta_true)
    assert _mean_within_year_corr(e) == pytest.approx(0.65, abs=0.05)


def test_noise_correlation_monotone_in_weight():
    values = []
    for w in (0.0, 0.3, 0.65, 0.9):
        cfg = DgpConfig(n_regions=100, n_years=40, noise_shared_weight=w)
        _, e = _matrices(generate_panel(cfg, 3), cfg.beta_true)
        values.append(_mean_within_year_corr(e))
    assert values == sorted(values)


def test_country_grouping_blocks():
    cfg = DgpConfig(n_regions=9, n_years=4, countries=3)
    ds = generate_panel(cfg, 4)
    countries = [ds.country_of(r) for r in ds.regions]
    assert countries == ["C00"] * 3 + ["C01"] * 3 + ["C02"] * 3


def test_country_year_noise_sharing_contrast():
    cfg = DgpConfig(n_regions=60, n_years=40, countries=6,
                    noise_sharing="country_year", noise_shared_weight=0.6)
    ds = generate_panel(cfg, 5)
    _, e = _matrices(ds, cfg.beta_true)
    c = np.corrcoef(e)
    regions = ds.regions
    same, diff = [], []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            (same if ds.country_of(regions[i]) == ds.country_of(regions[j]) else diff).append(c[i, j])
    assert float(np.mean(same)) == pytest.approx(0.6, abs=0.06)
    assert float(np.mean(diff)) == pytest.approx(0.0, abs=0.04)


def test_generator_deterministic():
    cfg = DgpConfig(n_regions=10, n_years=10)
    a = generate_panel(cfg, (9, 1))
    b = generate_panel(cfg, (9, 1))
    assert a.outcome.tobytes() == b.outcome.tobytes()
    assert a.predictors["x"].tobytes() == b.predictors["x"].tobytes()


# ---------------------------------------------------------------------------
# Coverage study
# ---------------------------------------------------------------------------


def test_coverage_report_reproducible():
    cfg = DgpConfig(n_regions=8, n_years=8)
    a = coverage_study(cfg, [YEAR], reps=100, seed=5)
    b = coverage_study(cfg, [YEAR], reps=100, seed=5)
    assert a.rows == b.rows


def test_coverage_threading_matches_serial():
    cfg = DgpConfig(n_regions=8, n_years=8)
    a = coverage_study(cfg, [YEAR, REGION], reps=100, seed=5)
    b = coverage_study(cfg, [YEAR, REGION], reps=100, seed=5, threads=4)
    assert a.rows == b.rows


def test_threaded_studies_leave_warning_filters_alone(recwarn):
    # "only G=10 clusters" fires on every rep; the studies silence it without
    # leaking an ignore filter into, or warnings out of, the caller
    import warnings

    before = list(warnings.filters)
    cfg = DgpConfig(n_regions=10, n_years=10)
    for seed in range(4):
        coverage_study(cfg, [YEAR, REGION], reps=100, seed=seed, threads=2)
    iid = DgpConfig(n_regions=10, n_years=10, noise_shared_weight=0.0)
    bias_study(iid, YEAR, reps=500, seed=0, threads=2)
    assert warnings.filters == before
    assert len(recwarn) == 0


def test_coverage_requires_reps():
    with pytest.raises(ValueError, match="100"):
        coverage_study(DgpConfig(n_regions=5, n_years=5), [YEAR], reps=50)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"level": 1.5}, r"level must be in \(0, 1\), got 1.5"),
     ({"correction": "CR2"}, "unknown correction 'CR2'")],
)
def test_coverage_rejects_bad_level_or_correction_up_front(kwargs, message, monkeypatch):
    # a bad setting fails the study once, not as every replication failing
    import clusterpanel.simstudy as simstudy

    def no_rep(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simstudy, "_coverage_rep", no_rep)
    with pytest.raises(ValueError, match=message):
        coverage_study(DgpConfig(n_regions=5, n_years=5), [YEAR], reps=100, **kwargs)


def test_degenerate_noise_collapses_intervals_onto_truth():
    # interval coverage is scale-invariant for any positive noise, so the
    # exact-fit limit shows up as estimates and intervals collapsing onto
    # the true slope at output precision, not as literal coverage = 1
    cfg = DgpConfig(n_regions=10, n_years=10, noise_scale=1e-12)
    hits = 0
    for rep in range(100):
        ds = generate_panel(cfg, (77, rep))
        design = build_design(ds, SLOPE_SPEC)
        fit = ols_fit(design)
        slope = design.column_names.index("x.l0")
        from clusterpanel.panel import assign_clusters
        from clusterpanel.regression import clustered_cov

        cov = clustered_cov(fit, design, assign_clusters(design, REGION_YEAR), correction="CR0")
        lo, hi = confidence_intervals(fit, cov, 0.95)[slope]
        assert abs(fit.beta[slope] - cfg.beta_true) < 1e-9
        assert hi - lo < 1e-9
        hits += lo - 1e-9 <= cfg.beta_true <= hi + 1e-9
    assert hits == 100


def test_coverage_contrast_small_scale():
    cfg = DgpConfig(n_regions=10, n_years=10, predictor_shared_weight=0.75,
                    predictor_spatial_weight=0.15, noise_shared_weight=0.9)
    report = coverage_study(cfg, [YEAR, REGION], reps=150, seed=8)
    by_scheme = {r.scheme: r.coverage for r in report.rows}
    assert by_scheme["year"] >= 0.88
    assert by_scheme["year"] - by_scheme["region"] >= 0.1


# ---------------------------------------------------------------------------
# Bias study
# ---------------------------------------------------------------------------


def test_bias_requires_iid_noise():
    with pytest.raises(ValueError, match="iid"):
        bias_study(DgpConfig(n_regions=5, n_years=5), YEAR, reps=500)


def test_bias_requires_reps():
    cfg = DgpConfig(n_regions=5, n_years=5, noise_shared_weight=0.0)
    with pytest.raises(ValueError, match="500"):
        bias_study(cfg, YEAR, reps=100)


def test_bias_ratio_near_one():
    cfg = DgpConfig(n_regions=10, n_years=10, noise_shared_weight=0.0)
    report = bias_study(cfg, YEAR, reps=500, seed=6)
    assert report.ratio == pytest.approx(1.0, abs=0.15)


def test_cr1_inflates_mean_variance_exactly():
    cfg = DgpConfig(n_regions=8, n_years=10, noise_shared_weight=0.0)
    cr0 = bias_study(cfg, YEAR, reps=500, seed=7, correction="CR0")
    cr1 = bias_study(cfg, YEAR, reps=500, seed=7, correction="CR1")
    G, n, p = 10, 80, 2
    factor = G / (G - 1) * (n - 1) / (n - p)
    assert cr1.mean_estimated_variance == pytest.approx(
        cr0.mean_estimated_variance * factor, rel=1e-12
    )
    assert cr1.empirical_variance == cr0.empirical_variance


def test_noise_doubling_leaves_ratio_invariant():
    base = DgpConfig(n_regions=8, n_years=10, noise_shared_weight=0.0, noise_scale=1.0)
    doubled = DgpConfig(n_regions=8, n_years=10, noise_shared_weight=0.0, noise_scale=2.0)
    a = bias_study(base, YEAR, reps=500, seed=8)
    b = bias_study(doubled, YEAR, reps=500, seed=8)
    # doubling is exact in binary floating point: both moments scale by 4
    assert b.mean_estimated_variance == pytest.approx(4.0 * a.mean_estimated_variance, rel=1e-12)
    assert b.empirical_variance == pytest.approx(4.0 * a.empirical_variance, rel=1e-12)
    assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


def test_iid_singleton_coverage_band():
    cfg = DgpConfig(n_regions=10, n_years=10, noise_shared_weight=0.0)
    report = coverage_study(cfg, [REGION_YEAR], reps=1000, level=0.95, seed=14)
    assert 0.93 <= report.rows[0].coverage <= 0.97
