import itertools
import math
import warnings

import numpy as np
import pytest

import clusterpanel.simstudy as simstudy
from clusterpanel.panel import (COUNTRY, COUNTRY_YEAR, REGION, REGION_YEAR, YEAR, ClusterScheme,
                                PanelDataset, assign_clusters, build_design)
from clusterpanel.bootstrap import _replicate_streams
from clusterpanel.regression import _t_quantile, clustered_cov, confidence_intervals, ols_fit
from clusterpanel.simstudy import (
    SLOPE_SPEC,
    DgpConfig,
    bias_study,
    coverage_study,
    generate_panel,
)

from conftest import assert_same_dataset
from test_cache import _assert_read_only


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
    for name in ("noise_scale", "beta_true"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
                DgpConfig(n_regions=5, n_years=5, **{name: value})
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



def test_predictor_weights_summing_to_one_leave_no_idiosyncratic_part():
    # 0.9 + 0.1 leaves 1 - 0.9 - 0.1 at -2.8e-17 in floating point
    ds = generate_panel(DgpConfig(7, 5, predictor_spatial_weight=0.1), 1)
    x = ds.predictors["x"]
    # a region part plus a year part: nothing is left once both means are removed
    rest = x - x.mean(axis=1, keepdims=True) - x.mean(axis=0, keepdims=True) + x.mean()
    np.testing.assert_allclose(rest, 0.0, atol=1e-12)

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


def _shared_field(rng, sharing, config, country_of):
    """Draw a shared component, broadcastable to an (n_regions, n_years) field."""
    if sharing == "region":
        return rng.standard_normal(config.n_regions)[:, None]
    if sharing == "year":
        return rng.standard_normal(config.n_years)
    return rng.standard_normal((config.n_countries, config.n_years))[country_of]


def _fields(config, rng):
    """Oracle of one replication's fields, a draw call per component: x and y
    as (n_regions, n_years) grids drawn from ``rng`` in a fixed order:
    shared_x, optional spatial_x, idio_x, shared_e, idio_e."""
    R, T = config.n_regions, config.n_years
    country_of = np.arange(R) * config.n_countries // R  # contiguous country blocks
    wx, wxs = config.predictor_shared_weight, config.predictor_spatial_weight
    we = config.noise_shared_weight
    shared_x = _shared_field(rng, config.predictor_sharing, config, country_of)
    spatial_x = _shared_field(rng, "year", config, country_of) if wxs > 0.0 else 0.0
    idio_x = rng.standard_normal((R, T))
    x = math.sqrt(wx) * shared_x + math.sqrt(wxs) * spatial_x + math.sqrt(1.0 - wx - wxs) * idio_x
    shared_e = _shared_field(rng, config.noise_sharing, config, country_of)
    idio_e = rng.standard_normal((R, T))
    e = config.noise_scale * (math.sqrt(we) * shared_e + math.sqrt(1.0 - we) * idio_e)
    return x, config.beta_true * x + e


def _assert_oracle_fields(config, seeds, x, y):
    assert x.shape == y.shape == (len(seeds), config.n_regions, config.n_years)
    for i, seed in enumerate(seeds):
        want_x, want_y = _fields(config, np.random.default_rng(seed))
        assert x[i].tobytes() == want_x.tobytes(), (config, seed)
        assert y[i].tobytes() == want_y.tobytes(), (config, seed)


SHARINGS = ("region", "year", "country_year")


def test_draw_fields_are_bit_identical_to_per_replication_oracle():
    # every sharing pair, with and without the spatial component and
    # countries, on a square and a non-square grid
    seeds = [(21, rep) for rep in range(4)]
    for (R, T), xs, es, spatial, countries in itertools.product(
            [(10, 10), (7, 13)], SHARINGS, SHARINGS, [0.0, 0.15], [None, 3]):
        if spatial and xs == "year":
            continue  # DgpConfig rejects a second year component
        config = DgpConfig(n_regions=R, n_years=T, predictor_sharing=xs, noise_sharing=es,
                           predictor_shared_weight=0.6, predictor_spatial_weight=spatial,
                           countries=countries)
        fields = simstudy._draw_fields(config, _replicate_streams(21, range(4)), 4)
        _assert_oracle_fields(config, seeds, *fields)


@pytest.mark.parametrize("R, T, reps", [(10, 10, 200), (91, 91, 3)],
                         ids=["blocks_cross", "block_size_1"])
def test_sandwich_blocks_draw_the_oracle_fields(R, T, reps, monkeypatch):
    # one draw call per block of replications, in order, each rep's fields
    # those of its own (seed, rep) generator: the state of each stream taken
    drawn, calls = simstudy._draw_fields, []

    def recording(config, streams, rows):
        states = []

        def taken():
            for gen in streams:
                states.append(gen.bit_generator.state)
                yield gen

        x, y = drawn(config, taken(), rows)
        calls.append((states, x.copy(), y.copy()))
        return x, y

    monkeypatch.setattr(simstudy, "_draw_fields", recording)
    config = DgpConfig(n_regions=R, n_years=T, countries=3, predictor_shared_weight=0.6,
                       predictor_spatial_weight=0.15, noise_sharing="country_year")
    simstudy._slope_sandwiches(config, 8, reps, simstudy._scheme_clusters(config, [YEAR]), "CR1")
    block = max(1, simstudy._BLOCK_CELLS // (R * T))
    assert [len(states) for states, *_ in calls] == [min(block, reps - start)
                                                     for start in range(0, reps, block)]
    assert len(calls) > 1 and (block == 1) == (R * T > simstudy._BLOCK_CELLS)
    assert [state for states, *_ in calls for state in states] == [
        np.random.default_rng((8, rep)).bit_generator.state for rep in range(reps)]
    for start, (states, x, y) in zip(range(0, reps, block), calls):
        _assert_oracle_fields(config, [(8, rep) for rep in range(start, start + len(states))], x, y)


@pytest.mark.parametrize("seed", [17, (17, 4)], ids=["int_seed", "tuple_seed"])
def test_generate_panel_draws_the_oracle_fields(seed):
    config = DgpConfig(n_regions=7, n_years=13, countries=3, predictor_sharing="country_year",
                       noise_sharing="region", predictor_shared_weight=0.6)
    x, y = _fields(config, np.random.default_rng(seed))
    ds = generate_panel(config, seed)
    assert ds.predictors["x"].tobytes() == x.tobytes()
    assert ds.outcome.tobytes() == y.tobytes()


def _long_format_panel(config, x, y):
    """The generated panel through the validating long-format constructor:
    one row per (region, year) cell, per-region labels and centroids repeated."""
    R, T = config.n_regions, config.n_years
    country_of = np.arange(R) * config.n_countries // R
    country_width = max(2, len(str(config.n_countries - 1)))
    region_width = max(3, len(str(R - 1)))
    lat = lon = None
    if config.with_centroids:
        within = np.arange(R) - np.searchsorted(country_of, country_of, side="left")
        lat = np.repeat(-10.0 + 2.0 * (within % 11), T)
        lon = -170.0 + 24.0 * (country_of % 15) + 2.0 * (within // 11)
        lon = np.repeat((lon + 180.0) % 360.0 - 180.0, T)
    return PanelDataset(
        np.repeat([f"R{i:0{region_width}d}" for i in range(R)], T),
        np.repeat([f"C{c:0{country_width}d}" for c in country_of], T),
        np.tile(np.arange(2000, 2000 + T), R),
        y.ravel(),
        {"x": x.ravel()},
        lat=lat,
        lon=lon,
    )


@pytest.mark.parametrize("R, T, countries, with_centroids", list(itertools.product(
    [10, 1001], [2, 40], [None, 7], [True, False])))
def test_generate_panel_matches_the_long_format_constructor(R, T, countries, with_centroids):
    config = DgpConfig(n_regions=R, n_years=T, countries=countries, with_centroids=with_centroids)
    ds = generate_panel(config, (3, R, T))
    oracle = _long_format_panel(config, ds.predictors["x"], ds.outcome)
    assert_same_dataset(ds, oracle)
    _assert_read_only(ds)
    for grid, want in [(ds.present, oracle.present), (ds.outcome, oracle.outcome),
                       (ds.predictors["x"], oracle.predictors["x"]),
                       (ds.centroids, oracle.centroids)]:
        assert (grid.shape, grid.dtype) == (want.shape, want.dtype)
    np.testing.assert_array_equal(ds.centroids, oracle.centroids)  # NaN where none
    assert np.isnan(ds.centroids).all() != with_centroids
    assert ds._index == oracle._index and type(ds.first_year) is int
    assert all(type(name) is str for name in (*ds.regions, *ds.countries))
    assert list(ds.regions) == sorted(ds.regions) and len(set(ds.regions)) == R
    assert ds.regions[-1] == ("R1000" if R == 1001 else "R009")
    assert len(set(ds.countries)) == config.n_countries


# ---------------------------------------------------------------------------
# Coverage study
# ---------------------------------------------------------------------------


def test_coverage_report_reproducible():
    cfg = DgpConfig(n_regions=8, n_years=8)
    a = coverage_study(cfg, [YEAR], reps=100, seed=5)
    b = coverage_study(cfg, [YEAR], reps=100, seed=5)
    assert a.rows == b.rows


def test_threaded_studies_leave_warning_filters_alone(recwarn):
    # the studies raise no warning (no "only G=10 clusters" per rep) and
    # leave no filter changed in the caller
    before = list(warnings.filters)
    cfg = DgpConfig(n_regions=10, n_years=10)
    for seed in range(4):
        coverage_study(cfg, [YEAR, REGION], reps=100, seed=seed)
    iid = DgpConfig(n_regions=10, n_years=10, noise_shared_weight=0.0)
    bias_study(iid, YEAR, reps=500, seed=0)
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
    def no_rep(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simstudy, "_draw_fields", no_rep)
    with pytest.raises(ValueError, match=message):
        coverage_study(DgpConfig(n_regions=5, n_years=5), [YEAR], reps=100, **kwargs)


@pytest.mark.parametrize("study", ["coverage", "bias"])
def test_a_bad_seed_fails_before_the_design_is_built(study, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_design reached")

    monkeypatch.setattr(simstudy, "build_design", unreachable)
    cfg = DgpConfig(n_regions=5, n_years=5, noise_shared_weight=0.0)
    with pytest.raises(ValueError) as exc:
        if study == "coverage":
            coverage_study(cfg, [YEAR], reps=100, seed=-1)
        else:
            bias_study(cfg, YEAR, reps=500, seed=-1)
    with pytest.raises(ValueError) as streams:
        next(_replicate_streams(-1, range(1)))
    assert str(exc.value) == str(streams.value)
    assert str(exc.value) == "seed must be a non-negative integer or a tuple of them: -1"


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
        cov = clustered_cov(fit, assign_clusters(design, REGION_YEAR), correction="CR0")
        ci = confidence_intervals(fit, cov, 0.95)
        lo, hi = ci.lower[slope], ci.upper[slope]
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


# ---------------------------------------------------------------------------
# Batched studies against the per-rep oracle
# ---------------------------------------------------------------------------


def _oracle_rep(config, seed, rep, schemes, level, correction):
    """One replication on its own: generate_panel, build_design, ols_fit, then
    clustered_cov and confidence_intervals per scheme.  Per scheme, (covered,
    width, slope, slope variance, intercept variance), or None where the
    scheme fails."""
    design = build_design(generate_panel(config, (seed, rep)), SLOPE_SPEC)
    slope = design.column_names.index("x.l0")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "only G clusters" on every scheme
        try:
            fit = ols_fit(design)
        except ValueError:
            return [None] * len(schemes)
        out = []
        for scheme in schemes:
            try:
                cov = clustered_cov(fit, assign_clusters(design, scheme), correction)
                ci = confidence_intervals(fit, cov, level=level)
                lo, hi = ci.lower[slope], ci.upper[slope]
            except ValueError:
                out.append(None)
                continue
            out.append((bool(lo <= config.beta_true <= hi), hi - lo, fit.beta[slope],
                        cov.cov[slope, slope], cov.cov[1 - slope, 1 - slope]))
    return out


def _oracle_reps(config, seed, reps, schemes, level=0.95, correction="CR1"):
    """[rep][scheme] oracle results."""
    return [_oracle_rep(config, seed, rep, schemes, level, correction) for rep in range(reps)]


def _batched_reps(config, seed, reps, schemes, level=0.95, correction="CR1"):
    """[rep][scheme] results of the batched kernel, in the oracle's form."""
    assignments = simstudy._scheme_clusters(config, schemes)
    slope, variances = simstudy._slope_sandwiches(config, seed, reps, assignments, correction)
    out = [[None] * len(schemes) for _ in range(reps)]
    for j, (clusters, var) in enumerate(zip(assignments, variances)):
        q = _t_quantile(level, clusters.n_clusters)
        for rep in np.flatnonzero((var > 0).all(axis=1)):
            b, half = slope[rep], q * math.sqrt(var[rep, 1])
            lo, hi = b - half, b + half
            out[rep][j] = (bool(lo <= config.beta_true <= hi), hi - lo, b, var[rep, 1],
                           var[rep, 0])
    return out


def _assert_report_matches(rows, oracle):
    """``rows``: (replications, failed, coverage, mean width) per scheme."""
    for j, (replications, failed, coverage, width) in enumerate(rows):
        done = [rep[j] for rep in oracle if rep[j] is not None]
        assert (replications, failed) == (len(done), len(oracle) - len(done))
        assert coverage == np.mean([covered for covered, *_ in done])
        assert width == pytest.approx(np.mean([w for _, w, *_ in done]), rel=1e-12)


def _assert_reps_match(batched, oracle):
    for rep, (got, want) in enumerate(zip(batched, oracle)):
        for g, w in zip(got, want):
            assert (g is None) == (w is None), rep
            if g is not None:
                assert g[0] == w[0], rep
                assert g[1:] == pytest.approx(w[1:], rel=1e-12, abs=0.0), rep


ALL_SCHEMES = [REGION, YEAR, COUNTRY, COUNTRY_YEAR, REGION_YEAR]
ORACLE_CASES = [
    pytest.param(DgpConfig(n_regions=10, n_years=10), [REGION, YEAR, REGION_YEAR, COUNTRY_YEAR],
                 "CR1", id="region_x_year"),
    pytest.param(DgpConfig(n_regions=10, n_years=10, predictor_shared_weight=0.75,
                           predictor_spatial_weight=0.15), [REGION, YEAR], "CR1",
                 id="spatial_one_country"),
    pytest.param(DgpConfig(n_regions=12, n_years=8, countries=4, predictor_shared_weight=0.6,
                           predictor_sharing="country_year", noise_sharing="region"),
                 ALL_SCHEMES, "CR0", id="country_year_x_region"),
    pytest.param(DgpConfig(n_regions=8, n_years=10, countries=4, predictor_sharing="year",
                           noise_sharing="country_year", noise_shared_weight=0.5),
                 [YEAR, COUNTRY, COUNTRY_YEAR], "CR1", id="year_x_country_year"),
    pytest.param(DgpConfig(n_regions=10, n_years=9, countries=4, predictor_shared_weight=0.75,
                           predictor_spatial_weight=0.15, noise_sharing="country_year"),
                 ALL_SCHEMES, "CR0", id="spatial_countries"),
]


@pytest.mark.parametrize("config, schemes, correction", ORACLE_CASES)
def test_batched_reps_match_per_rep_oracle(config, schemes, correction):
    # equal hits and failures; slopes, variances and widths to 1e-12
    oracle = _oracle_reps(config, 31, 200, schemes, 0.9, correction)
    _assert_reps_match(_batched_reps(config, 31, 200, schemes, 0.9, correction), oracle)
    report = coverage_study(config, schemes, reps=200, level=0.9, seed=31, correction=correction)
    _assert_report_matches([(r.replications, r.failed, r.coverage, r.mean_ci_width)
                            for r in report.rows], oracle)


@pytest.mark.parametrize("correction", ["CR0", "CR1"])
def test_bias_study_matches_per_rep_oracle(correction):
    cfg = DgpConfig(n_regions=8, n_years=10, countries=4, noise_shared_weight=0.0)
    oracle = [rep[0] for rep in _oracle_reps(cfg, 3, 500, [COUNTRY_YEAR], correction=correction)]
    report = bias_study(cfg, COUNTRY_YEAR, reps=500, seed=3, correction=correction)
    assert report.empirical_variance == pytest.approx(
        np.var([b for _, _, b, *_ in oracle], ddof=1), rel=1e-12)
    assert report.mean_estimated_variance == pytest.approx(
        np.mean([v for *_, v, _ in oracle]), rel=1e-12)


def test_rank_deficient_reps_fail_every_scheme_like_the_oracle(monkeypatch):
    # about half the replications get a constant x, which ols_fit rejects
    drawn = simstudy._draw_fields

    def constant_x_for_some(config, streams, rows):
        x, y = drawn(config, streams, rows)
        x[x[:, 0, 0] > 0] = 0.5
        return x, y

    monkeypatch.setattr(simstudy, "_draw_fields", constant_x_for_some)
    cfg = DgpConfig(n_regions=6, n_years=5)
    oracle = _oracle_reps(cfg, 4, 100, [REGION, YEAR])
    assert 20 < sum(rep[0] is None for rep in oracle) < 80
    _assert_reps_match(_batched_reps(cfg, 4, 100, [REGION, YEAR]), oracle)
    rows = coverage_study(cfg, [REGION, YEAR], reps=100, seed=4).rows
    assert [r.failed for r in rows] == [sum(rep[j] is None for rep in oracle) for j in (0, 1)]
    with pytest.raises(ValueError, match="rank-deficient"):
        bias_study(DgpConfig(n_regions=6, n_years=5, noise_shared_weight=0.0), YEAR, reps=500)


@pytest.mark.parametrize(
    "x, y, failing",
    [([[0, 0], [1, -1]], [[0, -2], [2, 0]], "region"),
     ([[1, 0, -1, 0], [0, 1, -1, 0]], [[2, 1, -1, 0], [-1, 0, -1, 0]], "year")],
    ids=["slope_variance", "intercept_variance"],
)
def test_zero_variance_fails_only_its_scheme(x, y, failing, monkeypatch):
    # x and y exact in binary, with e = y - x orthogonal to 1 and x: the
    # residuals are e exactly, and their scores cancel within the clusters
    # of one scheme, for the slope in one case and the intercept in the other
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    monkeypatch.setattr(simstudy, "_draw_fields",
                        lambda config, streams, rows: (np.stack([x] * rows), np.stack([y] * rows)))
    config = DgpConfig(n_regions=x.shape[0], n_years=x.shape[1])
    for row in coverage_study(config, [REGION, YEAR], reps=100).rows:
        if row.scheme == failing:
            assert (row.replications, row.failed) == (0, 100)
            assert math.isnan(row.coverage) and math.isnan(row.mean_ci_width)
        else:
            assert (row.replications, row.failed) == (100, 0)


@pytest.mark.parametrize(
    "config, scheme, message",
    [(DgpConfig(n_regions=10, n_years=10), COUNTRY, "scheme 'country' has G=1"),
     (DgpConfig(n_regions=10, n_years=10), ClusterScheme("custom", "foo"),
      "scheme 'custom:foo' cannot cluster the simulated panel: custom cluster column 'foo'")],
    ids=["one_country", "missing_custom_column"],
)
def test_unusable_scheme_fails_the_study_up_front(config, scheme, message, monkeypatch):
    def no_rep(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simstudy, "_draw_fields", no_rep)
    with pytest.raises(ValueError, match=message):
        coverage_study(config, [REGION, scheme], reps=100)
    with pytest.raises(ValueError, match=message):
        bias_study(DgpConfig(n_regions=10, n_years=10, noise_shared_weight=0.0), scheme, reps=500)


def test_sample_simulate_golden_matches_per_rep_oracle():
    import csv
    from pathlib import Path

    import yaml

    root = Path(__file__).resolve().parent.parent
    config = yaml.safe_load((root / "sample" / "config.yaml").read_text())
    sim = config["simulate"]
    dgp = DgpConfig(**{k: v for k, v in sim.items()
                       if k not in ("study", "reps", "level", "schemes", "correction")})
    schemes = [ClusterScheme.parse(s) for s in sim["schemes"]]
    oracle = _oracle_reps(dgp, config["seed"], sim["reps"], schemes, sim["level"])
    with open(root / "sample" / "golden" / "simulate" / "coverage.csv", newline="") as fh:
        golden = list(csv.DictReader(fh))
    assert [row["scheme"] for row in golden] == [scheme.label for scheme in schemes]
    _assert_report_matches([(int(r["replications"]), int(r["failed"]), float(r["coverage"]),
                             float(r["mean_ci_width"])) for r in golden], oracle)
