import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from clusterpanel.bootstrap import (
    BootstrapSample,
    block_bootstrap,
    build_scenario_path,
    column_quantiles,
    first_discernible_year,
    min_draws,
    project_scenarios,
    Projection,
    read_intervals,
    ScenarioPath,
)
from clusterpanel.panel import (
    COUNTRY_YEAR,
    REGION,
    YEAR,
    ColumnLabel,
    ModelSpec,
    TermSpec,
    assign_clusters,
    build_design,
)
from clusterpanel import bootstrap, regression
from clusterpanel.regression import (clustered_cov, confidence_intervals, ols_fit,
                                     term_response_curve)
from clusterpanel.simstudy import SLOPE_SPEC, DgpConfig, generate_panel

from conftest import design_from_arrays, fit_on, obs, panel_from


def _xy_dataset(rng, R=6, T=8, slope=1.0, noise=1.0, countries=3):
    observations = []
    for i in range(R):
        for t in range(T):
            x = float(rng.standard_normal())
            y = slope * x + noise * float(rng.standard_normal())
            observations.append(obs(f"R{i}", f"C{i % countries}", 2000 + t, y, {"x": x}))
    return panel_from(observations, predictor_names=("x",))


def _two_block_dataset():
    observations = []
    for i, region in enumerate(("A", "B")):
        for t in range(3):
            observations.append(
                obs(region, region, 2000 + t, float(i), {"x": 1.0})
            )
    return panel_from(observations, predictor_names=("x",))


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def test_noiseless_fit_collapses_to_point_mass(rng):
    ds = _xy_dataset(rng, slope=2.0, noise=0.0)
    sample = block_bootstrap(ds, SLOPE_SPEC, REGION, B=20, seed=0)
    base = sample.base_fit.beta
    for draw in sample.draws:
        np.testing.assert_allclose(draw, base, atol=1e-10)


def test_single_draw_deterministic(rng):
    ds = _xy_dataset(rng)
    a = block_bootstrap(ds, SLOPE_SPEC, REGION, B=1, seed=42)
    b = block_bootstrap(ds, SLOPE_SPEC, REGION, B=1, seed=42)
    np.testing.assert_array_equal(a.draws, b.draws)


@pytest.mark.parametrize("scheme", [REGION, YEAR, COUNTRY_YEAR], ids=lambda s: s.label)
def test_replicate_block_size_does_not_change_draws(rng, monkeypatch, scheme):
    ds = _xy_dataset(rng, R=12, T=10)
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), fixed_effects=("region", "year"))
    design = build_design(ds, spec)
    moments = regression.ClusterMoments(design, assign_clusters(design, scheme).row_cluster)
    assert not moments.rows_only and moments.block >= 16  # one block holds every replicate
    whole = block_bootstrap(ds, spec, scheme, B=16, seed=7)
    monkeypatch.setattr(regression, "_BLOCK_FLOATS", 1)  # one replicate per block
    single = block_bootstrap(ds, spec, scheme, B=16, seed=7)
    np.testing.assert_array_equal(whole.draws, single.draws)


@pytest.mark.parametrize("one_per_block", [False, True], ids=["one_block", "block_per_replicate"])
def test_each_replicate_draws_the_seed_b_oracle(rng, monkeypatch, one_per_block):
    # replicate b's clusters are default_rng((seed, b)).integers(0, G, size=G),
    # recorded as the resampler takes them, in order, in any block layout
    taken, streams = [], bootstrap._replicate_streams

    class Recording:
        def __init__(self, gen):
            self.gen = gen

        def integers(self, *args, **kwargs):
            taken.append(self.gen.integers(*args, **kwargs).tolist())
            return np.array(taken[-1])

    monkeypatch.setattr(bootstrap, "_replicate_streams",
                        lambda seed, reps: map(Recording, streams(seed, reps)))
    if one_per_block:
        monkeypatch.setattr(regression, "_BLOCK_FLOATS", 1)
    ds = _xy_dataset(rng, R=12, T=10)
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), fixed_effects=("region", "year"))
    B, seed, G = 16, 2**40 + 5, 10  # a seed of two words; YEAR gives G = T
    block_bootstrap(ds, spec, YEAR, B=B, seed=seed)
    assert taken == [np.random.default_rng((seed, b)).integers(0, G, size=G).tolist()
                     for b in range(B)]


def test_each_replicate_draws_exactly_g_blocks():
    # two equal blocks with constant outcomes 0 and 1: the intercept-only
    # refit mean identifies the drawn block multiset, so draws must sit on
    # {0, 1/2, 1} (G=2 draws with replacement, duplicates kept)
    ds = _two_block_dataset()
    sample = block_bootstrap(ds, ModelSpec(), REGION, B=64, seed=3)
    values = sorted(set(round(float(v), 9) for v in sample.draws[:, 0]))
    assert values == [0.0, 0.5, 1.0]  # all three multisets appear across 64 draws


def test_bootstrap_needs_two_clusters():
    observations = [obs("A", "A", 2000 + t, float(t), {"x": float(t)}) for t in range(5)]
    ds = panel_from(observations, predictor_names=("x",))
    with pytest.raises(ValueError, match="at least 2 clusters"):
        block_bootstrap(ds, SLOPE_SPEC, REGION, B=4, seed=0)


def test_a_bad_seed_fails_before_the_design_is_built(rng, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_design reached")

    ds = _xy_dataset(rng)
    monkeypatch.setattr(bootstrap, "build_design", unreachable)
    with pytest.raises(ValueError) as exc:
        block_bootstrap(ds, SLOPE_SPEC, REGION, 10, seed=-1)
    with pytest.raises(ValueError) as streams:
        next(bootstrap._replicate_streams(-1, range(10)))
    assert str(exc.value) == str(streams.value)
    assert str(exc.value) == "seed must be a non-negative integer or a tuple of them: -1"


def test_persistent_rank_deficiency_aborts(rng):
    # x is the indicator of region B; resamples drawing only one region are
    # rank deficient (x constant), which happens for half the replicates
    observations = []
    for region, xval in (("A", 0.0), ("B", 1.0)):
        for t in range(4):
            observations.append(
                obs(region, region, 2000 + t, float(rng.standard_normal()), {"x": xval})
            )
    ds = panel_from(observations, predictor_names=("x",))
    # seed chosen so most replicates draw a single region twice
    with pytest.raises(RuntimeError, match="rank deficient"):
        block_bootstrap(ds, SLOPE_SPEC, REGION, B=6, seed=15)
    partial = block_bootstrap(ds, SLOPE_SPEC, REGION, B=200, seed=0)
    assert 0 < partial.failed_refits <= 120
    assert partial.draws.shape[0] == 200 - partial.failed_refits


def test_fixed_effect_rebuild_keeps_term_columns_aligned(rng):
    ds = _xy_dataset(rng, R=6, T=10, slope=1.5, noise=0.3)
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), fixed_effects=("year",))
    sample = block_bootstrap(ds, spec, REGION, B=40, seed=11)
    slope_col = sample.design.column_names.index("x.l0")
    slope_draws = sample.draws[:, slope_col]
    # year folds exist in every resample (each region carries all years),
    # so no draw entries are missing anywhere
    assert np.isfinite(sample.draws).all()
    assert np.std(slope_draws) > 0


def test_region_dummies_go_missing_when_region_not_drawn(rng):
    ds = _xy_dataset(rng, R=4, T=8)
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), fixed_effects=("region",))
    sample = block_bootstrap(ds, spec, REGION, B=50, seed=2)
    dummy_cols = [j for j, n in enumerate(sample.design.column_names) if n.startswith("region=")]
    assert np.isnan(sample.draws[:, dummy_cols]).any()
    # the term column stays observed in every replicate
    assert np.isfinite(sample.draws[:, sample.design.column_names.index("x.l0")]).all()


# ---------------------------------------------------------------------------
# Percentile intervals
# ---------------------------------------------------------------------------


def _sample_from(draws, design=None):
    """The draws as a sample over the columns of ``design`` (default: one
    base column per column of draws), its base fit a zero fit on it."""
    draws = np.asarray(draws, dtype=float)
    if design is None:
        design = design_from_arrays(np.zeros((1, draws.shape[1])), np.zeros(1))
    return BootstrapSample(draws=draws, scheme=REGION, B=draws.shape[0], seed=0,
                           failed_refits=0, base_fit=fit_on(design))


# a one-row design over the columns intercept and x.l0
INTERCEPT_X = design_from_arrays(np.zeros((1, 2)), np.zeros(1), labels=(
    ColumnLabel(kind="intercept"), ColumnLabel(kind="base", term="x", lag=0)))


def _contrast_interval(sample, contrast, level):
    """The percentile interval of the draws' contrast c'beta* as ``read_intervals``
    reads it, over the draws finite in the columns c touches: ((lower, median,
    upper), used draws, dropped draws)."""
    c = np.asarray(contrast, dtype=float)
    values = sample.draws[:, c != 0] @ c[c != 0]
    bounds, (used,) = read_intervals(values[:, None], [level], True)
    return tuple(bounds[0, :, 0].tolist()), int(used), len(values) - int(used)


def test_identical_draws_zero_width():
    sample = _sample_from(np.full((30, 2), 1.25))
    (lower, median, upper), _, _ = _contrast_interval(sample, [1.0, 0.0], level=0.9)
    assert lower == median == upper == 1.25


def test_quantiles_match_sort_oracle(rng):
    draws = rng.standard_normal((1000, 1))
    sample = _sample_from(draws)
    (lower, median, upper), _, _ = _contrast_interval(sample, [1.0], level=0.9)

    def order_stat(values, q):
        # linear interpolation between order statistics at h = (n-1) q
        v = np.sort(values)
        h = (len(v) - 1) * q
        lo = math.floor(h)
        return v[lo] + (h - lo) * (v[min(lo + 1, len(v) - 1)] - v[lo])

    assert lower == pytest.approx(order_stat(draws[:, 0], 0.05), rel=1e-12)
    assert median == pytest.approx(order_stat(draws[:, 0], 0.5), rel=1e-12)
    assert upper == pytest.approx(order_stat(draws[:, 0], 0.95), rel=1e-12)


def test_too_few_draws_rejected(rng):
    sample = _sample_from(rng.standard_normal((30, 1)))
    with pytest.raises(ValueError, match="too small"):
        _contrast_interval(sample, [1.0], level=0.99)  # needs 200


def test_min_draws_at_level_0_9(rng):
    # max(20, ceil(2 / (1 - 0.9))) is 20; binary rounding of 1 - 0.9 gave 21
    assert min_draws(0.9) == 20 and min_draws(0.95) == 40 and min_draws(0.99) == 200
    _, used, _ = _contrast_interval(_sample_from(rng.standard_normal((20, 1))), [1.0], level=0.9)
    assert used == 20
    with pytest.raises(ValueError, match="B=19 usable draws too small for level 0.9; need at least 20"):
        _contrast_interval(_sample_from(rng.standard_normal((19, 1))), [1.0], level=0.9)


def test_nan_draws_dropped_and_counted(rng):
    draws = rng.standard_normal((40, 2))
    draws[:5, 0] = np.nan
    sample = _sample_from(draws)
    assert _contrast_interval(sample, [1.0, 0.0], level=0.8)[1:] == (35, 5)
    # a contrast not touching the NaN column keeps every draw
    assert _contrast_interval(sample, [0.0, 1.0], level=0.8)[1:] == (40, 0)


def _ragged_draws(rng, B=60):
    """Draws whose columns hold 0, 5 (below ``min_draws``), 19, 20, 37, 37,
    60 and 44 finite entries, NaN and +-inf elsewhere, in shuffled rows."""
    counts = (0, 5, 19, 20, 37, 37, 60, 44)
    draws = rng.standard_normal((B, len(counts))) * 10.0 ** rng.integers(-3, 4, len(counts))
    for j, count in enumerate(counts):
        missing = rng.permutation(B)[count:]
        draws[missing, j] = rng.choice([math.nan, math.inf, -math.inf], len(missing))
    draws[:, -1] = np.round(draws[:, -1], 1)  # ties among the order statistics
    return draws


def _per_column_quantiles(draws, qs):
    """The oracle: ``np.quantile`` of each column's finite draws alone."""
    out = np.full((len(qs), draws.shape[1]), math.nan)
    for j in range(draws.shape[1]):
        finite = draws[np.isfinite(draws[:, j]), j]
        if finite.size:
            out[:, j] = np.quantile(finite, qs)
    return out


def test_column_quantiles_are_bit_identical_to_per_column_quantiles(rng):
    draws = _ragged_draws(rng)
    for qs in ([0.05, 0.5, 0.95, 0.25, 0.5, 0.75, 0.5 - 0.99 / 2.0, 0.5, 0.5 + 0.99 / 2.0],
               [0.025, 0.975], [0.5], []):
        got, counts = column_quantiles(draws, qs)
        np.testing.assert_array_equal(got, _per_column_quantiles(draws, qs))
        np.testing.assert_array_equal(counts, np.isfinite(draws).sum(axis=0))


def _per_level_oracle(draws, levels):
    """The read-out's oracle: each column's ``np.quantile`` over its finite
    draws at the level's two bounds and the median, (levels, 3, columns); NaN
    below ``min_draws(level)`` finite draws."""
    want = np.full((len(levels), 3, draws.shape[1]), math.nan)
    for j in range(draws.shape[1]):
        finite = draws[np.isfinite(draws[:, j]), j]
        for i, level in enumerate(levels):
            if finite.size >= min_draws(level):
                want[i, :, j] = np.quantile(finite, [0.5 - level / 2.0, 0.5, 0.5 + level / 2.0])
    return want


def test_read_intervals_match_per_column_quantiles(rng):
    # ragged columns of 0, 5, 19, 20, 37, 37, 60 and 44 finite draws, ties in
    # the last; levels 0.9 and 0.5 need 20 draws, 0.95 needs 40
    draws = _ragged_draws(rng)
    for levels in ([0.9, 0.5, 0.95], [0.95], []):
        bounds, used = read_intervals(draws, levels, False)
        assert bounds.shape == (len(levels), 3, draws.shape[1])
        np.testing.assert_array_equal(bounds, _per_level_oracle(draws, levels))
        np.testing.assert_array_equal(used, np.isfinite(draws).sum(axis=0))
    # a column below min_draws is NaN unless need marks it; a mask that marks
    # only resolvable columns raises nothing
    resolvable = np.isfinite(draws).sum(axis=0) >= 40
    bounds, _ = read_intervals(draws, [0.9, 0.95], resolvable)
    np.testing.assert_array_equal(bounds, _per_level_oracle(draws, [0.9, 0.95]))
    assert np.isnan(bounds[1, :, 4]).all() and np.isfinite(bounds[0, :, 4]).all()
    assert read_intervals(np.empty((0, 3)), [], True)[0].shape == (0, 3, 3)


@pytest.mark.parametrize("columns, levels, need, message", [
    (None, [0.9], True, "B=0 usable draws too small for level 0.9; need at least 20"),
    (None, [0.9], [False, True, True, False, False, False, False, False],
     "B=5 usable draws too small for level 0.9; need at least 20"),
    (None, [0.95, 0.9], [False, False, False, False, True, False, False, False],
     "B=37 usable draws too small for level 0.95; need at least 40"),
    # column order first: 37 draws fall short only at 0.95, 19 already at 0.5
    ([4, 2], [0.5, 0.95], True, "B=37 usable draws too small for level 0.95; need at least 40"),
], ids=["scalar", "first_marked_column", "one_marked_column", "column_before_level"])
def test_read_intervals_name_the_first_short_marked_column(rng, columns, levels, need, message):
    # the ragged columns hold 0, 5, 19, 20, 37, 37, 60 and 44 finite draws
    draws = _ragged_draws(rng)[:, columns or slice(None)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_intervals(draws, levels, need)


def test_sd_is_bit_identical_to_per_column_nanstd(rng):
    draws = _ragged_draws(rng)
    draws[~np.isfinite(draws)] = math.nan  # block_bootstrap leaves NaN, not inf
    draws[:, 1], draws[7, 1] = math.nan, 2.5  # one finite draw
    with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning):
        want = [np.nanstd(draws[:, j], ddof=1) for j in range(draws.shape[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none for the columns of 0 and 1 finite draws
        got = _sample_from(draws).sd()
    np.testing.assert_array_equal(got, want)
    assert np.isnan(got[:2]).all() and np.isfinite(got[2:]).all()


def test_percentile_interval_is_bit_identical_to_per_column_quantile(rng):
    draws = _ragged_draws(rng)
    sample = _sample_from(draws)
    for j in range(3, draws.shape[1]):
        bounds, used, dropped = _contrast_interval(sample, np.eye(draws.shape[1])[j], level=0.9)
        want = _per_column_quantiles(draws[:, [j]], [0.5 - 0.9 / 2.0, 0.5, 0.5 + 0.9 / 2.0])[:, 0]
        np.testing.assert_array_equal(bounds, want)
        assert (used, dropped) == (np.isfinite(draws[:, j]).sum(),
                                   (~np.isfinite(draws[:, j])).sum())
    with pytest.raises(ValueError, match="B=19 usable draws too small for level 0.9; need at "):
        _contrast_interval(sample, np.eye(draws.shape[1])[2], level=0.9)


# ---------------------------------------------------------------------------
# Scenario projection
# ---------------------------------------------------------------------------


def _future(ds, years, xpath):
    """Future dataset: xpath maps year -> value (same for every region)."""
    observations = []
    for r in ds.regions:
        for year in years:
            observations.append(
                obs(r, ds.country_of(r), year, math.nan, {"x": float(xpath(year))})
            )
    return panel_from(observations, predictor_names=("x",))


def test_zero_draws_project_to_zero(rng):
    ds = _xy_dataset(rng)
    design = build_design(ds, SLOPE_SPEC)
    sample = _sample_from(np.zeros((25, 2)), design)
    path = build_scenario_path(_future(ds, range(2030, 2033), lambda y: 1.0), SLOPE_SPEC, design, "z")
    proj = project_scenarios(sample, path)
    np.testing.assert_array_equal(proj.values, 0.0)


def test_single_region_reads_out_coefficient(rng):
    observations = [obs("A", "A", 2000 + t, float(t), {"x": 1.0}) for t in range(6)]
    observations += [obs("B", "B", 2000 + t, float(t), {"x": 0.0}) for t in range(6)]
    ds = panel_from(observations, predictor_names=("x",))
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), intercept=False)
    design = build_design(ds, spec)
    draws = rng.standard_normal((30, 1))
    sample = _sample_from(draws, design)
    future = panel_from(
        [obs("A", "A", 2030, math.nan, {"x": 1.0})], predictor_names=("x",)
    )
    path = build_scenario_path(future, spec, design, "unit")
    proj = project_scenarios(sample, path)
    np.testing.assert_allclose(proj.values[:, 0], draws[:, 0])


def test_scenario_path_follows_the_spec_moderator_alignment(rng):
    # x and a moderator w that varies over time: only the alignment decides
    # whether the lag-1 interaction reads w at t or at t-1
    values = {(f"R{i}", 2000 + t): (float(rng.standard_normal()), float(rng.uniform(1.0, 3.0)))
              for i in range(8) for t in range(14)}
    observations = [obs(r, f"C{int(r[1:]) % 2}", year, float(rng.standard_normal()),
                        {"x": x, "w": w}) for (r, year), (x, w) in values.items()]
    ds = panel_from([o for o in observations if o["year"] < 2010], predictor_names=("x", "w"))
    # one region, so that each year's mean row is the region's row
    r = "R3"
    future = panel_from([{**o, "outcome": math.nan} for o in observations
                         if o["year"] >= 2007 and o["region"] == r], predictor_names=("x", "w"))
    term = TermSpec("x", differenced=True, moderator="w", max_lag=1)
    spec = ModelSpec(terms=(term,), fixed_effects=("region",), moderator_alignment="lag_aligned")
    sample = block_bootstrap(ds, spec, REGION, 20, seed=3)
    path = build_scenario_path(future, spec, sample.design, "lagged", start_year=2010)
    assert path.column_names == sample.design.column_names
    col = path.column_names.index("d.x.l1:w")

    def dx(year):
        return values[(r, year)][0] - values[(r, year - 1)][0]

    years = range(2010, 2014)
    assert path.years == tuple(years)
    lagged = [dx(year - 1) * values[(r, year - 1)][1] for year in years]
    assert path.M[:, col].tolist() == lagged
    own_year = [dx(year - 1) * values[(r, year)][1] for year in years]
    own = replace(spec, moderator_alignment="contemporaneous")
    path = build_scenario_path(future, own, sample.design, "own", start_year=2010)
    assert path.M[:, col].tolist() == own_year != lagged


def test_scenario_difference_is_algebraic(rng):
    ds = _xy_dataset(rng)
    design = build_design(ds, SLOPE_SPEC)
    sample = block_bootstrap(ds, SLOPE_SPEC, REGION, B=40, seed=5)
    years = range(2030, 2036)
    path_a = build_scenario_path(_future(ds, years, lambda y: 0.5), SLOPE_SPEC, design, "a")
    path_b = build_scenario_path(_future(ds, years, lambda y: 0.5 + 2.0 * (y >= 2033)), SLOPE_SPEC, design, "b")
    pa = project_scenarios(sample, path_a)
    pb = project_scenarios(sample, path_b)
    slope = sample.draws[:, sample.design.column_names.index("x.l0")]
    for j, year in enumerate(pa.years):
        expected = 2.0 * slope if year >= 2033 else np.zeros_like(slope)
        np.testing.assert_allclose(pb.values[:, j] - pa.values[:, j], expected, atol=1e-12)


def test_column_mismatch_names_offenders(rng):
    sample = _sample_from(rng.standard_normal((25, 2)), INTERCEPT_X)
    path = ScenarioPath(label="bad", years=(2030, 2031, 2032, 2033), M=np.ones((4, 2)),
                        read=np.arange(2), column_names=("intercept", "z.l0"), unseen_levels=0)
    with pytest.raises(ValueError, match="z.l0"):
        project_scenarios(sample, path)


def test_weighted_aggregation(rng):
    ds = _xy_dataset(rng, R=2, T=6, countries=2)
    design = build_design(ds, SLOPE_SPEC)
    draws = np.column_stack([np.zeros(25), np.ones(25)])
    sample = _sample_from(draws, design)
    observations = [
        obs("R0", "C0", 2030, math.nan, {"x": 1.0}),
        obs("R1", "C1", 2030, math.nan, {"x": 3.0}),
    ]
    # the second case adds a region missing from the weights: its weight is 0
    for extra in ([], [obs("R2", "C1", 2030, math.nan, {"x": 50.0})]):
        future = panel_from(observations + extra, predictor_names=("x",))
        path = build_scenario_path(future, SLOPE_SPEC, design, "w", aggregation="weighted",
                                   weights={"R0": 3.0, "R1": 1.0})
        proj = project_scenarios(sample, path)
        np.testing.assert_allclose(proj.values[:, 0], (3.0 * 1.0 + 1.0 * 3.0) / 4.0)

    def weighted(weights, aggregation="weighted"):
        return build_scenario_path(future, SLOPE_SPEC, design, "w", aggregation=aggregation,
                                   weights=weights)

    # a weight for a region without rows in the path, a typo say, is an error
    with pytest.raises(ValueError, match="region 'R3', which has no rows in scenario 'w'"):
        weighted({"R0": 3.0, "R1": 1.0, "R3": 2.0})
    # a negative weight gave 4.0 for rows valued 1 and 3, a NaN or inf one NaN
    for bad in (-1.0, math.nan, math.inf):
        message = f"weight for region 'R1' must be finite and >= 0, got {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            weighted({"R0": 3.0, "R1": bad})
    with pytest.raises(ValueError, match="region weights need aggregation 'weighted', not 'mean'"):
        weighted({"R0": 3.0, "R1": 1.0}, "mean")


def test_projection_forms_no_rows_by_draws_array():
    # 1 000 regions x 20 years and 1 000 draws: a (rows x draws) product alone takes 160 MB
    R, T, B = 1000, 20, 1000
    gen = np.random.default_rng(0)
    names = ("intercept", "x.l0") + tuple(f"region=R{i:04d}" for i in range(1, R))
    design = replace(INTERCEPT_X, fe_levels={"region": tuple(f"R{i:04d}" for i in range(R))})
    assert design.column_names == names
    sample = _sample_from(gen.standard_normal((B, len(names))), design)
    # row (region r, year t) is X[r * T + t] and the dummy of region r > 0,
    # column r + 1; each year's map is the mean of its R rows
    X = np.column_stack([np.ones(R * T), gen.standard_normal(R * T)])
    year = np.tile(np.arange(T), R)
    M = np.column_stack([X.reshape(R, T, 2).mean(axis=0), np.full((T, R - 1), 1.0 / R)])
    path = ScenarioPath(label="big", years=tuple(range(2030, 2030 + T)), M=M,
                        read=np.arange(len(names)), column_names=names, unseen_levels=0)
    tracemalloc.start()
    try:
        values = project_scenarios(sample, path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"read-out peaked at {peak / 1e6:.0f} MB"
    # the first year of three draws, row by row
    rows = year == 0
    alpha = np.column_stack([np.zeros(3), sample.draws[:3, 2:]])
    want = (X[rows] @ sample.draws[:3, :2].T + alpha.T).mean(axis=0)
    np.testing.assert_allclose(values[:3, 0], want, rtol=1e-12)


# ---------------------------------------------------------------------------
# Discernibility
# ---------------------------------------------------------------------------


def _proj(values, years, label="p"):
    return Projection(label=label, years=tuple(years), values=np.asarray(values, float))


def test_first_discernible_year_matches_per_year_oracle(rng):
    def oracle(a, b, alpha):
        for j, year in enumerate(a.years):
            d = a.values[:, j] - b.values[:, j]
            d = d[np.isfinite(d)]
            if d.size:
                lo, hi = np.quantile(d, [alpha / 2.0, 1.0 - alpha / 2.0])
                if lo > 0.0 or hi < 0.0:
                    return year
        return None

    years = range(2030, 2038)
    found = set()
    for trial in range(40):
        # projections leave NaN, not inf, where a draw is missing
        a, b = (np.where(np.isfinite(d), d, math.nan) for d in (_ragged_draws(rng), _ragged_draws(rng)))
        a += np.linspace(-1.0, 3.0, 8) * rng.uniform(0.0, 2.0)
        for alpha in (0.05, 0.5):
            want = oracle(_proj(a, years), _proj(b, years), alpha)
            assert first_discernible_year(_proj(a, years), _proj(b, years), alpha) == want
            found.add(want)
    assert None in found and len(found) > 2


def test_identical_scenarios_never_discernible(rng):
    values = rng.standard_normal((50, 5))
    p = _proj(values, range(2030, 2035))
    assert first_discernible_year(p, p, alpha=0.05) is None


def test_planted_separation_found(rng):
    years = list(range(2030, 2040))
    base = 0.05 * rng.standard_normal((200, len(years)))
    shifted = base.copy()
    shifted[:, 5:] += 3.0  # separation starts 2035
    assert first_discernible_year(_proj(shifted, years), _proj(base, years)) == 2035


def test_alpha_monotonicity(rng):
    years = list(range(2030, 2038))
    for seed in range(10):
        gen = np.random.default_rng(seed)
        a = _proj(gen.standard_normal((100, len(years))), years)
        b = _proj(gen.standard_normal((100, len(years))) + 0.1, years)
        loose = first_discernible_year(a, b, alpha=0.5)
        strict = first_discernible_year(a, b, alpha=0.05)
        if strict is not None:
            assert loose is not None and loose <= strict


def test_mismatched_projections_rejected(rng):
    a = _proj(rng.standard_normal((30, 3)), [2030, 2031, 2032])
    b = _proj(rng.standard_normal((30, 3)), [2031, 2032, 2033])
    with pytest.raises(ValueError, match="different years"):
        first_discernible_year(a, b)


# ---------------------------------------------------------------------------
# Cross-method agreement
# ---------------------------------------------------------------------------


def test_bootstrap_sd_close_to_clustered_se():
    cfg = DgpConfig(n_regions=40, n_years=15, beta_true=1.0, countries=4,
                    predictor_sharing="country_year", predictor_shared_weight=0.8,
                    noise_sharing="country_year", noise_shared_weight=0.8,
                    with_centroids=False)
    ds = generate_panel(cfg, 21)
    sample = block_bootstrap(ds, SLOPE_SPEC, COUNTRY_YEAR, B=400, seed=4)
    design = build_design(ds, SLOPE_SPEC)
    fit = ols_fit(design)
    cov = clustered_cov(fit, assign_clusters(design, COUNTRY_YEAR), correction="CR1")
    ratio = sample.sd() / confidence_intervals(fit, cov).se
    assert np.all(np.abs(ratio - 1.0) < 0.2)


def test_response_curve_variance_matches_bootstrap():
    cfg = DgpConfig(n_regions=40, n_years=16, beta_true=1.0, countries=4,
                    predictor_sharing="country_year", predictor_shared_weight=0.7,
                    noise_sharing="country_year", noise_shared_weight=0.7,
                    with_centroids=False)
    ds = generate_panel(cfg, 13)
    term = TermSpec("x", differenced=False, max_lag=1)
    spec = ModelSpec(terms=(term,))
    design = build_design(ds, spec)
    fit = ols_fit(design)
    cov = clustered_cov(fit, assign_clusters(design, COUNTRY_YEAR), correction="CR0")
    curve = term_response_curve(fit, cov, term)
    sample = block_bootstrap(ds, spec, COUNTRY_YEAR, B=600, seed=17)
    names = sample.design.column_names
    for lag, se in enumerate(curve.points.se):
        contrast = np.zeros(len(names))
        for j in range(lag + 1):
            contrast[names.index(f"x.l{j}")] = 1.0
        values = sample.draws @ contrast
        boot_var = float(np.var(values, ddof=1))
        assert boot_var == pytest.approx(se**2, rel=0.2)


def test_scheme_sensitivity_on_planted_benchmark():
    # within-country-year correlation 0.65 in x and e: the block-aware scheme
    # must show more coefficient spread than region blocks almost always
    wins = 0
    runs = 25
    for seed in range(runs):
        cfg = DgpConfig(n_regions=40, n_years=10, beta_true=1.0, countries=4,
                        predictor_sharing="country_year", predictor_shared_weight=0.65,
                        noise_sharing="country_year", noise_shared_weight=0.65,
                        with_centroids=False)
        ds = generate_panel(cfg, (3000, seed))
        slope = 1
        sd_cy = block_bootstrap(ds, SLOPE_SPEC, COUNTRY_YEAR, B=200, seed=seed).sd()[slope]
        sd_r = block_bootstrap(ds, SLOPE_SPEC, REGION, B=200, seed=seed).sd()[slope]
        wins += sd_cy > sd_r
    assert wins >= 0.95 * runs


def test_percentile_interval_coverage_of_truth():
    # over repeated well-specified experiments the level-0.9 interval for the
    # slope covers the true value about 90% of the time (53/60 frozen seeds)
    hits = 0
    runs = 60
    for seed in range(runs):
        cfg = DgpConfig(n_regions=12, n_years=10, noise_shared_weight=0.0,
                        predictor_shared_weight=0.5, with_centroids=False)
        ds = generate_panel(cfg, (600, seed))
        sample = block_bootstrap(ds, SLOPE_SPEC, REGION, B=150, seed=seed)
        contrast = np.zeros(2)
        contrast[sample.design.column_names.index("x.l0")] = 1.0
        (lower, _, upper), _, _ = _contrast_interval(sample, contrast, level=0.9)
        hits += lower <= cfg.beta_true <= upper
    assert abs(hits / runs - 0.9) <= 0.08
