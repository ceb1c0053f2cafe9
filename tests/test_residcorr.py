import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import clusterpanel.residcorr as rc
from clusterpanel import cli
from clusterpanel.panel import ModelSpec, TermSpec, build_design, haversine_km
from clusterpanel.regression import ols_fit
from clusterpanel.residcorr import (
    GroupSpec,
    ResidualPanel,
    correlation_table,
    pair_correlations,
    pair_masks,
    summarize,
)
from clusterpanel.simstudy import SLOPE_SPEC, DgpConfig, generate_panel
from conftest import obs, panel_from

ROOT = Path(__file__).resolve().parent.parent


def panel_from_matrix(values, countries=None, centroids=None, groups=None, years=None):
    """ResidualPanel from a (region x year) matrix of residuals (NaN = none)."""
    R, T = np.shape(values)
    regions = [f"R{i:03d}" for i in range(R)]
    return ResidualPanel(
        values,
        regions,
        years or [2000 + t for t in range(T)],
        [(countries or {}).get(r, "C0") for r in regions],
        [(centroids or {}).get(r, (math.nan, math.nan)) for r in regions],
        [(groups or {}).get(r, ()) for r in regions],
    )


def _pairs(res):
    return dict(zip(zip(res.a.tolist(), res.b.tolist()), res.rho.tolist()))


# ---------------------------------------------------------------------------
# Looped oracle: one Pearson correlation per pair over np.intersect1d of the
# two series, with its own per-pair group logic and scalar haversine_km
# ---------------------------------------------------------------------------

ORACLE_ZERO_VARIANCE_TOL = 2.0**-44  # the documented zero-variance rule


def _oracle_pearson(x, y, x_scale, y_scale):
    """Pearson correlation; None when either series is constant over the
    common cells (centred sum of squares <= n * tol * max|series|^2)."""
    xc = x - x.mean()
    yc = y - y.mean()
    cxx, cyy = float(xc @ xc), float(yc @ yc)
    floor = len(x) * ORACLE_ZERO_VARIANCE_TOL
    if cxx <= floor * x_scale**2 or cyy <= floor * y_scale**2:
        return None
    return float(np.clip(float(xc @ yc) / (math.sqrt(cxx) * math.sqrt(cyy)), -1.0, 1.0))


def _oracle_verdict(group, a, b, meta):
    if group.kind == "temporal":
        return "reject" if group.consecutive and abs(a - b) != 1 else "pass"
    (ca, pa, ga), (cb, pb, gb) = meta[a], meta[b]
    if group.same_country and ca != cb:
        return "reject"
    if group.different_country and ca == cb:
        return "reject"
    if group.country and not (ca == str(group.country) and cb == str(group.country)):
        return "reject"
    if group.group and not (group.group in ga and group.group in gb):
        return "reject"
    verdict = "pass"
    for threshold, below in ((group.below_km, True), (group.above_km, False)):
        if threshold is None:
            continue
        if pa is None or pb is None:
            verdict = "skip"
            continue
        d = haversine_km(pa, pb)
        if not (d < threshold if below else d > threshold):
            return "reject"
    return verdict


def oracle_pairs(values, meta, group, min_overlap=rc.DEFAULT_MIN_OVERLAP):
    """(pairs [(a, b, rho, overlap)], skipped) from {(region, year): residual}
    and {region: (country, centroid or None, tags)}."""
    axis = 0 if group.kind == "spatial" else 1
    items = {}
    for key, v in values.items():
        items.setdefault(key[axis], []).append((key[1 - axis], float(v)))
    series = {
        s: (np.array([k for k, _ in sorted(kv)]), np.array([v for _, v in sorted(kv)]))
        for s, kv in items.items()
    }
    labels = sorted(series)
    pairs, skipped = [], {}
    for i, a in enumerate(labels):
        keys_a, vals_a = series[a]
        for b in labels[i + 1 :]:
            verdict = _oracle_verdict(group, a, b, meta)
            if verdict == "reject":
                continue
            if verdict == "skip":
                skipped[rc.SKIP_NO_COORDINATES] = skipped.get(rc.SKIP_NO_COORDINATES, 0) + 1
                continue
            keys_b, vals_b = series[b]
            common, ia, ib = np.intersect1d(keys_a, keys_b, assume_unique=True, return_indices=True)
            if len(common) < min_overlap:
                skipped[rc.SKIP_SHORT_OVERLAP] = skipped.get(rc.SKIP_SHORT_OVERLAP, 0) + 1
                continue
            scales = np.abs(vals_a).max(), np.abs(vals_b).max()
            rho = _oracle_pearson(vals_a[ia], vals_b[ib], *scales)
            if rho is None:
                skipped[rc.SKIP_ZERO_VARIANCE] = skipped.get(rc.SKIP_ZERO_VARIANCE, 0) + 1
                continue
            pairs.append((a, b, rho, len(common)))
    return pairs, skipped


def _oracle_inputs(fit, design, dataset):
    values = dict(zip(design.row_index, fit.residuals))
    meta = {
        r: (dataset.country_of(r), dataset.centroid_of(r),
            dataset.groups[dataset.regions.index(r)])
        for r, _ in design.row_index
    }
    return values, meta


# every group key on its own and in combination, on both kinds
KEY_GROUPS = [
    GroupSpec("all", "spatial"),
    GroupSpec("same", "spatial", same_country=True),
    GroupSpec("different", "spatial", different_country=True),
    GroupSpec("named", "spatial", country="C01"),
    GroupSpec("tagged", "spatial", group="bloc_a"),
    GroupSpec("tagged abroad", "spatial", group="bloc_a", different_country=True),
    GroupSpec("near", "spatial", below_km=1500.0),
    GroupSpec("far", "spatial", above_km=1500.0),
    GroupSpec("band", "spatial", above_km=500.0, below_km=2500.0),
    GroupSpec("near abroad", "spatial", different_country=True, below_km=2000.0),
    GroupSpec("far at home", "spatial", same_country=True, above_km=800.0),
    GroupSpec("named near", "spatial", country="C00", below_km=1500.0),
    GroupSpec("all", "temporal"),
    GroupSpec("consecutive", "temporal", consecutive=True),
]


def _assert_matches_oracle(panel, values, meta, groups, min_overlap):
    table = correlation_table(panel, groups, min_overlap=min_overlap)
    for group, row in zip(groups, table):
        got = pair_correlations(panel, group, min_overlap=min_overlap)
        pairs, skipped = oracle_pairs(values, meta, group, min_overlap=min_overlap)
        where = f"{group.kind} {group.label!r}"
        assert list(zip(got.a.tolist(), got.b.tolist())) == [(a, b) for a, b, _, _ in pairs], where
        assert got.overlap.tolist() == [n for _, _, _, n in pairs], where
        assert got.skipped == skipped, where
        if pairs:
            assert np.max(np.abs(got.rho - [rho for _, _, rho, _ in pairs])) <= 1e-12, where
        assert (row.pair_count, row.skipped_count) == (len(pairs), sum(skipped.values())), where
        assert row.mean == summarize(got.rho).mean


def test_matches_looped_oracle_on_sample_config():
    config = yaml.safe_load((ROOT / "sample/config.yaml").read_text())
    config["data"]["path"] = str(ROOT / config["data"]["path"])
    config = cli.resolve(config, "corr")
    dataset = cli._load_dataset(config)
    design = build_design(dataset, cli._model(config), **cli._building(config))
    fit = ols_fit(design)
    panel = ResidualPanel.from_fit(fit, design, dataset)
    groups = cli._groups(config["corr"]["groups"], dataset)
    groups += cli._groups(None, dataset) + KEY_GROUPS
    values, meta = _oracle_inputs(fit, design, dataset)
    _assert_matches_oracle(panel, values, meta, groups, config["corr"]["min_overlap"])


def _gappy_dataset(seed=5):
    # 24 regions in 4 countries, calendar years 2000-2019: late entry, interior
    # gaps, one region whose outcomes are all missing (no residuals), one year
    # dropped everywhere, regions without centroids and a tag group
    gen = np.random.default_rng(seed)
    R, T = 24, 20
    countries = [f"C0{i % 4}" for i in range(R)]
    centroids = [
        None if i % 7 == 3 else (float(gen.uniform(35, 60)), float(gen.uniform(-10, 30)))
        for i in range(R)
    ]
    shock = gen.standard_normal((4, T))
    records = []
    for i in range(R):
        start = 0 if i % 5 else 8 + i % 4
        for t in range(start, T):
            if t == 11 or (i % 3 == 0 and t in (4, 5, 15)):
                continue
            x = float(gen.standard_normal())
            y = math.nan if i == 17 else 0.5 * x + shock[i % 4, t] + float(gen.standard_normal())
            records.append(obs(f"R{i:02d}", countries[i], 2000 + t, y, {"x": x},
                               centroid=centroids[i], groups=("bloc_a",) if i % 2 else ()))
    return panel_from(records)


@pytest.mark.parametrize("min_overlap", [2, 6, 10])
def test_matches_looped_oracle_on_gappy_panel(min_overlap):
    dataset = _gappy_dataset()
    design = build_design(dataset, ModelSpec(terms=(TermSpec("x", differenced=False),)))
    fit = ols_fit(design)
    panel = ResidualPanel.from_fit(fit, design, dataset)
    assert "R17" in dataset.regions and "R17" not in panel.regions
    assert 2011 not in panel.years and len(panel.years) == 19
    groups = cli._groups(None, dataset) + KEY_GROUPS
    values, meta = _oracle_inputs(fit, design, dataset)
    _assert_matches_oracle(panel, values, meta, groups, min_overlap)
    # the gaps exercise every skip reason the data can produce
    if min_overlap == 10:
        skips = pair_correlations(panel, GroupSpec("near", below_km=1500.0), min_overlap).skipped
        assert set(skips) == {rc.SKIP_NO_COORDINATES, rc.SKIP_SHORT_OVERLAP}


# ---------------------------------------------------------------------------
# Pairwise correlations
# ---------------------------------------------------------------------------


ALL = GroupSpec("all", "spatial")


def test_identical_series_correlate_fully(rng):
    base = rng.standard_normal(15)
    panel = panel_from_matrix([base, base, -base])
    res = pair_correlations(panel, ALL)
    by_pair = _pairs(res)
    assert by_pair[("R000", "R001")] == pytest.approx(1.0)
    assert by_pair[("R000", "R002")] == pytest.approx(-1.0)
    assert all(res.overlap == 15)


def test_planted_common_factor_recovery():
    # residual_r = w * f + sqrt(1 - w^2) * noise gives pairwise rho = w^2;
    # a single 5x30 draw is dominated by the shared-factor realization, so
    # average the panel-level means over seeds
    w = 0.8
    T, R = 30, 5
    means = []
    for seed in range(10):
        gen = np.random.default_rng(seed)
        f = gen.standard_normal(T)
        rows = [w * f + math.sqrt(1 - w**2) * gen.standard_normal(T) for _ in range(R)]
        res = pair_correlations(panel_from_matrix(rows), ALL)
        assert len(res.rho) == 10
        means.append(float(np.mean(res.rho)))
    assert float(np.mean(means)) == pytest.approx(w**2, abs=0.1)


def test_minimum_overlap_excludes_and_counts(rng):
    values = rng.standard_normal((2, 12))
    values[1, 5:] = math.nan
    res = pair_correlations(panel_from_matrix(values), ALL, min_overlap=10)
    assert res.rho.size == 0
    assert res.skipped == {rc.SKIP_SHORT_OVERLAP: 1}


def test_degenerate_series_skipped_not_zero(rng):
    # a constant's mean is inexact in floating point, so 0.1 and 2.7 used to
    # leave rho ~ -2e-17 and count as pairs
    for constant in (0.0, 0.1, 2.7, -1e6):
        rows = [np.full(12, constant), rng.standard_normal(12)]
        for panel, group in (
            (panel_from_matrix(rows), ALL),
            (panel_from_matrix(np.transpose(rows)), GroupSpec("all", "temporal")),
        ):
            res = pair_correlations(panel, group)
            assert res.rho.size == 0, constant
            assert res.skipped == {rc.SKIP_ZERO_VARIANCE: 1}, constant


def test_constant_over_common_years_only_is_degenerate(rng):
    # R001 varies widely outside its overlap with R000 and is 0.1 inside it
    values = rng.standard_normal((2, 24)) * 10.0
    values[0, 12:] = math.nan
    values[1, :12] = 0.1
    res = pair_correlations(panel_from_matrix(values), ALL)
    assert res.skipped == {rc.SKIP_ZERO_VARIANCE: 1}


def test_short_overlap_counted_before_zero_variance(rng):
    # R001 is constant and overlaps R000 in 5 years, R002 in one year
    values = rng.standard_normal((3, 12))
    values[1, :7] = math.nan
    values[1, 7:] = 0.1
    values[2, 1:11] = math.nan
    panel = panel_from_matrix(values)
    oracle_values = {(r, y): v for r, row in zip(panel.regions, values)
                     for y, v in zip(panel.years, row) if not math.isnan(v)}
    for min_overlap in (2, 5):
        res = pair_correlations(panel, ALL, min_overlap=min_overlap)
        meta = {r: ("C0", None, frozenset()) for r in panel.regions}
        _, skipped = oracle_pairs(oracle_values, meta, ALL, min_overlap=min_overlap)
        assert res.skipped == skipped
    assert res.skipped == {rc.SKIP_SHORT_OVERLAP: 2, rc.SKIP_ZERO_VARIANCE: 1}


def test_small_genuine_variation_counts(rng):
    noise = rng.standard_normal(12)
    rows = [1.0 + 1e-6 * noise, noise + rng.standard_normal(12)]
    res = pair_correlations(panel_from_matrix(rows), ALL)
    assert res.skipped == {}
    x, y = rows
    assert res.rho[0] == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-9)


def test_temporal_identical_cross_sections(rng):
    col = rng.standard_normal(20)
    values = np.column_stack([col, col])
    res = pair_correlations(panel_from_matrix(values), GroupSpec("all", "temporal"))
    assert len(res.rho) == 1
    assert res.rho[0] == pytest.approx(1.0)
    assert res.overlap[0] == 20


def test_temporal_null_mean_near_zero(rng):
    values = rng.standard_normal((200, 20))
    res = pair_correlations(panel_from_matrix(values), GroupSpec("all", "temporal"))
    assert len(res.rho) == 190
    assert abs(float(np.mean(res.rho))) < 0.02


def test_consecutive_filter_counts_pairs(rng):
    values = rng.standard_normal((15, 20))
    group = GroupSpec("consecutive", "temporal", consecutive=True)
    res = pair_correlations(panel_from_matrix(values), group)
    assert len(res.rho) == 19


def test_min_overlap_below_two_rejected(rng):
    panel = panel_from_matrix(rng.standard_normal((3, 5)))
    with pytest.raises(ValueError, match="min_overlap must be at least 2.*got 1"):
        pair_correlations(panel, ALL, min_overlap=1)
    with pytest.raises(ValueError, match="min_overlap must be at least 2.*got 1"):
        correlation_table(panel, [ALL], min_overlap=1)


def test_group_spec_rejects_keys_of_the_other_kind():
    with pytest.raises(ValueError, match="'consecutive' does not apply to a spatial group"):
        GroupSpec("x", "spatial", consecutive=True)
    with pytest.raises(ValueError, match="'below_km' does not apply to a temporal group"):
        GroupSpec("x", "temporal", below_km=100.0)
    with pytest.raises(ValueError, match="unknown correlation kind 'diagonal'"):
        GroupSpec("x", "diagonal")


# ---------------------------------------------------------------------------
# Group masks
# ---------------------------------------------------------------------------

# the three upper-triangle pairs of three regions, in mask order
PAIRS_OF_3 = [("R000", "R001"), ("R000", "R002"), ("R001", "R002")]


def _masks(group, countries=None, centroids=None, groups=None):
    panel = panel_from_matrix(np.zeros((3, 2)), countries, centroids, groups)
    passes, no_coordinates = pair_masks(panel, group)
    return passes.tolist(), no_coordinates.tolist()


def test_same_country_filter():
    countries = {"R000": "A", "R001": "A", "R002": "B"}
    assert _masks(GroupSpec("s", same_country=True), countries)[0] == [True, False, False]
    assert _masks(GroupSpec("d", different_country=True), countries)[0] == [False, True, True]
    assert _masks(GroupSpec("n", country="A"), countries)[0] == [True, False, False]
    assert _masks(GroupSpec("n", country="B"), countries)[0] == [False, False, False]
    tags = {"R000": ("EU",), "R001": ("EU", "X")}
    assert _masks(GroupSpec("g", group="EU"), groups=tags)[0] == [True, False, False]


def test_distance_filters():
    berlin, paris, far = (52.52, 13.405), (48.8566, 2.3522), (0.0, 100.0)
    centroids = {"R000": berlin, "R001": paris, "R002": far}
    assert _masks(GroupSpec("n", below_km=1000.0), centroids=centroids)[0] == [True, False, False]
    assert _masks(GroupSpec("f", above_km=1000.0), centroids=centroids)[0] == [False, True, True]
    del centroids["R000"]
    passes, skips = _masks(GroupSpec("n", below_km=1000.0), centroids=centroids)
    assert passes == [False, False, False]
    assert skips == [True, True, False]


def test_missing_centroid_counted_as_skip(rng):
    values = rng.standard_normal((3, 12))
    centroids = {"R000": (0.0, 0.0), "R001": (0.0, 1.0)}  # R002 has none
    panel = panel_from_matrix(values, centroids=centroids)
    res = pair_correlations(panel, GroupSpec("near", below_km=500.0))
    assert len(res.rho) == 1
    assert res.skipped == {rc.SKIP_NO_COORDINATES: 2}


def test_conjunction_against_brute_force(rng):
    R = 12
    countries = {f"R{i:03d}": f"C{i % 3}" for i in range(R)}
    centroids = {
        f"R{i:03d}": (float(rng.uniform(-40, 40)), float(rng.uniform(-90, 90))) for i in range(R)
    }
    values = rng.standard_normal((R, 15))
    panel = panel_from_matrix(values, countries=countries, centroids=centroids)
    res = pair_correlations(panel, GroupSpec("g", different_country=True, below_km=4000.0))
    got = set(_pairs(res))
    expected = set()
    for a, b in itertools.combinations(sorted(countries), 2):
        if countries[a] != countries[b] and haversine_km(centroids[a], centroids[b]) < 4000.0:
            expected.add((a, b))
    assert got == expected


def test_rejection_dominates_coordinate_skip():
    # R000 has no centroid: against R001 (another country) the pair is
    # rejected, against R002 (same country) it is skipped
    countries = {"R000": "A", "R001": "B", "R002": "A"}
    centroids = {"R001": (0.0, 0.0), "R002": (0.0, 0.5)}
    passes, skips = _masks(GroupSpec("g", same_country=True, below_km=100.0), countries, centroids)
    assert passes == [False, False, False]
    assert skips == [False, True, False]


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def test_summarize_constant():
    s = summarize([1.0, 1.0, 1.0], "g", "spatial")
    assert (s.mean, s.q25, s.q75, s.pair_count) == (1.0, 1.0, 1.0, 3)


def test_summarize_linear_interpolation():
    s = summarize([-1.0, 0.0, 1.0])
    assert s.mean == 0.0
    assert s.q25 == pytest.approx(-0.5)
    assert s.q75 == pytest.approx(0.5)


def test_summarize_distributional_oracle(rng):
    draws = rng.uniform(-1.0, 1.0, size=10_000)
    s = summarize(draws)
    assert s.mean == pytest.approx(0.0, abs=0.02)
    assert s.q25 == pytest.approx(-0.5, abs=0.03)
    assert s.q75 == pytest.approx(0.5, abs=0.03)


def test_summarize_empty_is_explicit():
    s = summarize([], "empty group")
    assert s.pair_count == 0
    assert s.mean is None and s.q25 is None and s.q75 is None


def test_permutation_invariance(rng):
    values = rng.standard_normal((8, 14))
    countries = {f"R{i:03d}": f"C{i % 2}" for i in range(8)}
    panel = panel_from_matrix(values, countries=countries)
    perm = rng.permutation(8)
    relabeled = panel_from_matrix(
        values[perm], countries={f"R{i:03d}": countries[f"R{j:03d}"] for i, j in enumerate(perm)}
    )
    groups = [GroupSpec("same", "spatial", same_country=True)]
    a = correlation_table(panel, groups)[0]
    b = correlation_table(relabeled, groups)[0]
    assert a.mean == pytest.approx(b.mean)
    assert a.pair_count == b.pair_count


# ---------------------------------------------------------------------------
# Calibration on generated panels
# ---------------------------------------------------------------------------


def _residual_panel(cfg, seed):
    ds = generate_panel(cfg, seed)
    design = build_design(ds, SLOPE_SPEC)
    fit = ols_fit(design)
    return ResidualPanel.from_fit(fit, design, ds)


def test_null_calibration_on_iid_residuals():
    cfg = DgpConfig(n_regions=200, n_years=20, noise_shared_weight=0.0,
                    predictor_shared_weight=0.5, countries=10, with_centroids=False)
    panel = _residual_panel(cfg, 31)
    for group in (
        ALL,
        GroupSpec("same", same_country=True),
        GroupSpec("different", different_country=True),
        GroupSpec("all", "temporal"),
    ):
        res = pair_correlations(panel, group)
        assert abs(float(np.mean(res.rho))) < 0.02


def test_planted_within_country_factor_contrast():
    # within-country-year noise factor with variance share 0.65: same-country
    # region pairs correlate at 0.65, different-country pairs at 0
    cfg = DgpConfig(n_regions=120, n_years=30, countries=12,
                    predictor_shared_weight=0.5, noise_sharing="country_year",
                    noise_shared_weight=0.65, with_centroids=False)
    panel = _residual_panel(cfg, 8)
    same = pair_correlations(panel, GroupSpec("same", same_country=True))
    diff = pair_correlations(panel, GroupSpec("different", different_country=True))
    assert float(np.mean(same.rho)) == pytest.approx(0.65, abs=0.05)
    assert float(np.mean(diff.rho)) == pytest.approx(0.0, abs=0.05)


def test_correlation_table_shapes(rng):
    values = rng.standard_normal((6, 15))
    countries = {f"R{i:03d}": f"C{i % 2}" for i in range(6)}
    panel = panel_from_matrix(values, countries=countries)
    rows = correlation_table(
        panel,
        [
            GroupSpec("all", "spatial"),
            GroupSpec("same country", "spatial", same_country=True),
            GroupSpec("all", "temporal"),
            GroupSpec("consecutive", "temporal", consecutive=True),
        ],
        min_overlap=5,
    )
    assert [r.pair_count for r in rows] == [15, 6, 105, 14]
