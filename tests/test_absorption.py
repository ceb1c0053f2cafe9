"""The absorbed region and year effects against the dense dummy oracle.

Designs carry no dummy columns: the fit partials both effects out and
recovers them, CV folds and bootstrap replicates refit under cluster
weights from ``ClusterMoments``.  Every numeric path is compared here with
the dense computation it replaced, kept as test code: the full dummy matrix
(``conftest.dense_X``, ``conftest.dense_dummies``), pivoted QR or ``lstsq``
on it, the dense sandwich, per-fold dummy rebuilds, the row-concatenating
bootstrap replicate, and the dense scenario product, on a balanced and on a
gappy panel.  The cluster moments are also compared with the row path they
replaced (``Absorbed`` under row weights).  Agreement is to 1e-10 relative.
"""

import csv
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import linalg as sla

from clusterpanel.bootstrap import block_bootstrap, build_scenario_path, project_scenarios
from clusterpanel import modelselect, regression
from clusterpanel.modelselect import (
    cv_loss,
    cv_scan,
    ic_scan,
    information_criterion,
    make_folds,
)
from clusterpanel.panel import (
    COUNTRY,
    COUNTRY_YEAR,
    REGION,
    REGION_YEAR,
    YEAR,
    ClusterScheme,
    CsvSchema,
    ModelSpec,
    TermSpec,
    assign_clusters,
    build_design,
    load_csv,
    term_label,
)
from clusterpanel.simstudy import DgpConfig, generate_panel
from clusterpanel.regression import (
    _PAIR_BLOCK,
    FEW_CLUSTERS_THRESHOLD,
    Absorbed,
    ClusterMoments,
    CovarianceEstimate,
    FitResult,
    RankDeficientError,
    _t_quantile,
    check_correction,
    cluster_influence,
    clustered_cov,
    confidence_intervals,
    linear_readout,
    ols_fit,
    term_response_curve,
)

from conftest import (clustered_sandwich, dense_dummies, dense_X, fit_on, keep_grid,
                      near_copy_panel, obs, panel_from, row_keys)
from test_modelselect import _oracle_sequence

RTOL = 1e-10
SCHEMES = (REGION, COUNTRY, YEAR, COUNTRY_YEAR, ClusterScheme("custom", "blk"))
X_MOD = TermSpec("x", differenced=True, moderator="m", max_lag=1)
Z0 = TermSpec("z", differenced=False)


def _close(got, want, rtol=RTOL):
    """Equal NaN patterns, and finite entries within rtol of the largest."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert (np.isnan(got) == np.isnan(want)).all()
    finite = ~np.isnan(want)
    scale = max(np.abs(want[finite]).max(initial=0.0), 1e-300)
    assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= rtol * scale


def _panel(gappy, seed=5):
    """14 regions in 4 countries over 12 years.  ``z`` varies over time only
    in R00 and R01, so a region resample missing both has ``z`` constant
    within every region, collinear with the region effect; ``c`` is constant
    within every region, and ``zc`` is a copy of ``z``.  The gappy panel adds
    late entry, interior gaps and NaN outcomes."""
    gen = np.random.default_rng(seed)
    records = []
    for i in range(14):
        z_level = float(gen.standard_normal())
        for t in range(12):
            if gappy and ((i % 5 == 2 and t < 1 + i % 4) or (i % 4 == 3 and t in (6, 7))):
                continue
            x = float(gen.standard_normal())
            m = float(gen.uniform(0.5, 2.0))
            z = z_level + (float(gen.standard_normal()) if i < 2 else 0.0)
            y = 0.7 * x + 0.2 * x * m + 0.3 * z + 0.1 * i + 0.05 * t + float(gen.standard_normal())
            if gappy and (i * 12 + t) % 19 == 0:
                y = math.nan
            records.append(obs(f"R{i:02d}", f"C{i % 4}", 2000 + t, y,
                               {"x": x, "m": m, "z": z, "c": z_level, "zc": z},
                               custom={"blk": f"b{(i + t) % 5}"}))
    return panel_from(records, predictor_names=("x", "m", "z", "c", "zc"))


def _spec(intercept, fixed_effects=("region", "year")):
    return ModelSpec(terms=(X_MOD, Z0), fixed_effects=fixed_effects, intercept=intercept)


def _row_levels(design):
    """Each row's region and year, read from its (region, year) cell."""
    keys = row_keys(design)
    return [r for r, _ in keys], [t for _, t in keys]


def _rows_of(design):
    """``keep_rows`` grid of the design's rows."""
    return keep_grid(design.dataset, row_keys(design))


# ---------------------------------------------------------------------------
# fit, sandwich and intervals
# ---------------------------------------------------------------------------


def _dense_fit(X, y):
    """Pivoted-QR least squares on the full dummy matrix, as ``ols_fit`` ran."""
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    beta = np.empty(X.shape[1])
    beta[piv] = sla.solve_triangular(R, Q.T @ y)
    return beta, y - X @ beta


def _summed(J, codes, G):
    """The rows of ``J`` summed by ``codes``: the influence of the coarser partition."""
    out = np.zeros((G, J.shape[1]))
    np.add.at(out, codes, J)
    return out


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("gappy", [False, True])
@pytest.mark.parametrize("intercept", [True, False])
def test_fit_sandwich_and_intervals_match_dense(gappy, intercept):
    design = build_design(_panel(gappy), _spec(intercept))
    slots = design.fe_slots
    assert design.X.shape[1] == design.p - len(slots["region"]) - len(slots["year"])
    assert slots["region"] and slots["year"]
    X = dense_X(design)
    beta, e = _dense_fit(X, design.y)
    fit = ols_fit(design)
    _close(fit.beta, beta)
    _close(fit.residuals, e)
    assert fit.p == X.shape[1]
    for scheme in SCHEMES:
        clusters = assign_clusters(design, scheme)
        V = clustered_sandwich(X, e, clusters)
        cov = clustered_cov(fit, clusters)
        ci = confidence_intervals(fit, cov)
        np.testing.assert_allclose(ci.se, np.sqrt(np.diag(V)), rtol=RTOL)
        # the joint block of the term and year columns is formed in full
        joint = [*range(design.X.shape[1]), *slots["year"]]
        _close(cov.cov, V[np.ix_(joint, joint)])
        half = _t_quantile(0.95, clusters.n_clusters) * np.sqrt(np.diag(V))
        _close(np.column_stack([ci.lower, ci.upper]), np.column_stack([beta - half, beta + half]))
        # the influence: its Gram is the CR0 sandwich, and each region's
        # variance sum_g (a_rg - m_r' J_g)^2 is rebuilt from its region pieces
        G = clusters.n_clusters
        J, pair_region, pair_cluster, a, m = cluster_influence(fit, clusters.row_cluster, G)
        V0 = clustered_sandwich(X, e, clusters, "CR0")
        _close(J.T @ J, V0[np.ix_(joint, joint)], rtol=1e-12)
        A = np.zeros((len(m), G))
        A[pair_region, pair_cluster] = a
        _close(np.square(A - m @ J.T).sum(axis=1)[1:], np.diag(V0)[slots["region"]], rtol=1e-12)
    # additivity: the influence at (region, year) codes, one per row, summed
    # by region or by country is the influence at those codes
    fine = cluster_influence(fit, np.arange(design.n), design.n)[0]
    region = design.fe_codes["region"]
    L = len(design.fe_levels["region"])
    _close(_summed(fine, region, L), cluster_influence(fit, region, L)[0], rtol=1e-13)
    country = assign_clusters(design, COUNTRY)
    _close(_summed(fine, country.row_cluster, country.n_clusters),
           cluster_influence(fit, country.row_cluster, country.n_clusters)[0],
           rtol=1e-13)


def _parent_clustered_cov(fit, clusters, correction="CR1"):
    """``clustered_cov`` with the cluster influence formed inline, the body it
    had before ``cluster_influence`` was split out, kept verbatim as the oracle
    but for reading the design, its partialled columns and the bread's
    triangle from the fit's ``absorbed``."""
    check_correction(correction)
    if clusters.n_rows != fit.n:
        raise ValueError("fit and clusters disagree on the row count")
    fe, design = fit.absorbed, fit.design
    X, e = fe.X, fit.residuals
    n, k = X.shape
    p = design.p
    G = clusters.n_clusters
    g = clusters.row_cluster
    if G == 1:
        warnings.warn("G=1 degenerate clustering: covariance collapses to ~0")
    elif G < FEW_CLUSTERS_THRESHOLD:
        warnings.warn(f"only G={G} clusters; uncertainty estimates may be unreliable")
    U_inv = np.linalg.solve(fe.triangle[:k, :k], np.eye(k))  # LU of a triangle: back substitution
    W = np.array([np.bincount(g, x * e, G) for x in X.T]).reshape(k, G).T @ U_inv @ U_inv.T
    L, T = fe.shares.shape
    if L:
        code = design.fe_codes["region"]
        pairs, at = np.unique(code * G + g, return_inverse=True)
        r, pair_g = np.divmod(pairs, G)
        sums = np.bincount(at, e)
    if T:
        Ee = np.bincount(g * T + design.fe_codes["year"], e, G * T).reshape(G, T)[:, fe.years]
        if L:
            Ee -= np.column_stack([np.bincount(pair_g, sums * s[r], G)
                                   for s in fe.shares[:, fe.years].T])
        W = np.hstack([W, np.linalg.solve(fe.H, Ee.T).T - W @ fe.P[:, :k].T])

    def corrected(m):
        return m * (G / (G - 1.0)) * ((n - 1.0) / (n - p)) if correction == "CR1" and G > 1 else m

    cov = corrected(W.T @ W)
    cov = 0.5 * (cov + cov.T)
    variances = np.diag(cov)
    if L:
        # sum_g (a_rg - c_rg)^2 with c_rg = m_r' W_g, as squares: over the
        # (region, cluster) pairs with rows directly, and over the other
        # clusters, where a_rg = 0, as sum_g c_rg^2 (= ||R m_r||^2 for W = QR)
        # less the pairs' share; c is gathered _PAIR_BLOCK pairs at a time
        means = np.hstack([fe.means[:, :k], fe.shares[:, fe.years]])
        a = sums / np.bincount(code)[r]
        c = np.concatenate([np.einsum("ij,ij->i", means[r[b:b + _PAIR_BLOCK]],
                                      W[pair_g[b:b + _PAIR_BLOCK]])
                            for b in range(0, len(r), _PAIR_BLOCK)])
        unpaired = np.square(means @ np.linalg.qr(W, mode="r").T).sum(axis=1)
        unpaired -= np.bincount(r, c * c, len(means))
        var = corrected(np.bincount(r, np.square(a - c), len(means)) + np.maximum(unpaired, 0.0))
        var[np.sqrt(var) <= n * np.finfo(float).eps * np.abs(e).max()] = 0.0
        variances = np.concatenate([variances[:k], var[1:], variances[k:]])  # design order
    return CovarianceEstimate(cov, variances, clusters.scheme, correction, G)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("correction", ["CR1", "CR0"])
@pytest.mark.parametrize("case", ["sample", "gappy"])
def test_sandwich_is_bit_identical_to_the_inline_influence_body(case, correction):
    """The Gram of ``cluster_influence`` gives the variances and covariance of
    the sandwich that formed the influence inline, bit for bit, under every
    built-in scheme and a custom one."""
    if case == "sample":
        ds, spec, custom = *_sample_case()[1:], "year_str"
    else:
        ds, spec, custom = _panel(True), _spec(True), "blk"
    design = build_design(ds, spec)
    fit = ols_fit(design)
    for scheme in (REGION, REGION_YEAR, COUNTRY, COUNTRY_YEAR, YEAR,
                   ClusterScheme("custom", custom)):
        clusters = assign_clusters(design, scheme)
        got = clustered_cov(fit, clusters, correction)
        want = _parent_clustered_cov(fit, clusters, correction)
        assert np.array_equal(got.variances, want.variances), scheme.label
        assert np.array_equal(got.cov, want.cov), scheme.label


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sandwich_memory_is_linear_in_regions():
    """2000 regions over 6 years, p = 2006: a sandwich forms the region
    variances alone, no (p, p) array, which would take 32 MB."""
    ds = generate_panel(DgpConfig(n_regions=2000, n_years=6, countries=100), 0)
    design = build_design(ds, ModelSpec(terms=(TermSpec("x", differenced=False),),
                                        fixed_effects=("region", "year")))
    fit = ols_fit(design)
    X, region = dense_X(design), list(design.fe_slots["region"])
    assert design.p == 2006
    for scheme in (REGION, COUNTRY_YEAR):
        clusters = assign_clusters(design, scheme)
        tracemalloc.start()
        try:
            cov = clustered_cov(fit, clusters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"{scheme.label}: peak {peak / 2**20:.1f} MiB"
        V = clustered_sandwich(X, fit.residuals, clusters)
        np.testing.assert_allclose(confidence_intervals(fit, cov).se[region],
                                   np.sqrt(np.diag(V)[region]), rtol=RTOL)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("scheme", [YEAR, COUNTRY_YEAR, ClusterScheme("custom", "blk")],
                         ids=lambda s: s.label)
@pytest.mark.parametrize("gappy", [False, True])
def test_blocked_pair_gathers_give_bit_identical_variances(gappy, scheme, block, monkeypatch):
    """The region variances gathered over the (region, cluster) pairs a block
    at a time equal those of one gather of every pair, bit for bit."""
    design = build_design(_panel(gappy), _spec(True))
    fit, clusters = ols_fit(design), assign_clusters(design, scheme)
    monkeypatch.setattr(regression, "_PAIR_BLOCK", design.n)  # at least the pairs: one gather
    whole = clustered_cov(fit, clusters)
    monkeypatch.setattr(regression, "_PAIR_BLOCK", block)
    blocked = clustered_cov(fit, clusters)
    assert np.array_equal(blocked.variances, whole.variances)
    assert np.array_equal(blocked.cov, whole.cov)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_country_year_sandwich_peaks_below_one_pair_gather():
    """400 regions over 30 years under country_year: every (region, year)
    cell is a (region, cluster) pair, and the sandwich's peak stays below
    one pairs x (k + T - 1) gather of the region means or cluster influences."""
    ds = generate_panel(DgpConfig(n_regions=400, n_years=30, countries=16), 0)
    design = build_design(ds, ModelSpec(terms=(TermSpec("x", differenced=False),),
                                        fixed_effects=("region", "year")))
    fit, clusters = ols_fit(design), assign_clusters(design, COUNTRY_YEAR)
    pairs = len(np.unique(design.fe_codes["region"] * clusters.n_clusters
                          + clusters.row_cluster))
    gather = pairs * (design.X.shape[1] + len(design.fe_levels["year"]) - 1) * 8
    tracemalloc.start()
    try:
        clustered_cov(fit, clusters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == design.n == 12000
    assert peak < gather, f"peak {peak / 2**20:.2f} MiB, one gather {gather / 2**20:.2f} MiB"


def test_r_squared_matches_dense():
    design = build_design(_panel(True), _spec(True))
    _, e = _dense_fit(dense_X(design), design.y)
    dev = design.y - design.y.mean()
    assert ols_fit(design).r_squared == pytest.approx(1.0 - (e @ e) / (dev @ dev), rel=RTOL)


@pytest.mark.parametrize("intercept", [True, False])
def test_design_holds_only_the_intercept_and_term_columns(intercept):
    design = build_design(_panel(True), _spec(intercept))
    terms = 2 * (X_MOD.max_lag + 1) + Z0.max_lag + 1
    assert design.X.shape[1] == intercept + terms
    regions, years = (len(design.fe_levels[e]) for e in ("region", "year"))
    assert len(design.column_labels) == design.X.shape[1]
    assert design.p == len(design.column_names) == intercept + terms + regions - 1 + years - 1
    assert [name.partition("=")[0] for name in design.column_names[design.X.shape[1]:]] == (
        ["region"] * (regions - 1) + ["year"] * (years - 1))
    assert ols_fit(design).p == design.p == dense_X(design).shape[1]


def _disconnected_panel():
    """_panel(False) plus regions R90 and R91 observed only in 2015, a year
    no other region has: the 2015 dummy is the sum of their region dummies."""
    gen = np.random.default_rng(11)
    ds = _panel(False)
    records = [obs(r, "C0", year, float(ds.outcome[i, t]),
                   {v: float(ds.predictors[v][i, t]) for v in ds.predictor_names},
                   custom={"blk": "b0"})
               for i, r in enumerate(ds.regions) for t, year in enumerate(range(2000, 2012))]
    records += [obs(r, "C1", 2015, float(gen.standard_normal()),
                    {v: float(gen.standard_normal()) for v in ds.predictor_names},
                    custom={"blk": "b1"}) for r in ("R90", "R91")]
    return panel_from(records, predictor_names=ds.predictor_names)


def test_collinear_year_effect_is_named_and_solved_at_minimum_norm():
    # the design without lags, so that the 2015 rows survive
    spec = ModelSpec(terms=(TermSpec("x", differenced=False), Z0), fixed_effects=("region", "year"))
    design = build_design(_disconnected_panel(), spec)
    with pytest.raises(Exception, match="offending columns: year=2015"):
        ols_fit(design)
    X = dense_X(design)
    want, _, rank, _ = np.linalg.lstsq(X, design.y, rcond=None)
    assert rank == X.shape[1] - 1
    beta, dependent, effects = Absorbed(design).solve(range(design.X.shape[1]))
    assert [design.column_names[j] for j in dependent] == ["year=2015"]
    got = np.empty(design.p)
    got[: len(beta)] = beta
    for effect, values in effects.items():
        got[list(design.fe_slots[effect])] = values[1:]
    _close(got, want)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_command_partials_the_design_once(row_refits):
    config, ds, spec = _sample_case()
    design = build_design(ds, spec)
    fit = ols_fit(design)
    for label in config["fit"]["schemes"]:
        clustered_cov(fit, assign_clusters(design, ClusterScheme.parse(label)))
    # the influence at any codes reads the fit's partialled design too
    cluster_influence(fit, design.fe_codes["region"], len(design.fe_levels["region"]))
    assert len(row_refits) == 1


def test_rank_deficiency_names_a_term_column():
    # z is constant within every region but R00 and R01; dropping those two
    # makes it collinear with the absorbed region effect
    ds = _panel(False)
    keep = keep_grid(ds, [(r, 2000 + t) for r in ds.regions[2:] for t in range(12)])
    design = build_design(ds, _spec(True), keep_rows=keep)
    with pytest.raises(Exception, match="offending columns: z.l0"):
        ols_fit(design)


# ---------------------------------------------------------------------------
# one rank rule: the fit, the row path and the moments
# ---------------------------------------------------------------------------


def _xz_spec(effects):
    """Intercept + x + z, both undifferenced, under the fixed ``effects``."""
    return ModelSpec(terms=(TermSpec("x", differenced=False), TermSpec("z", differenced=False)),
                     fixed_effects=effects)


def test_fit_row_path_and_moments_share_one_rank_rule():
    # z = x + s max|x| noise for 200 scales s around the rank threshold: the
    # fit raises exactly when the row path and a one-view stack of the
    # moments find dependent columns, and the fit and the row path name the
    # same ones
    base = generate_panel(DgpConfig(n_regions=20, n_years=10), 0)
    verdicts = []
    for scale in np.logspace(-16, -9, 200):
        ds = near_copy_panel(base, scale)
        for effects in ((), ("region",), ("region", "year")):
            design = build_design(ds, _xz_spec(effects))
            cols = range(design.X.shape[1])
            try:
                ols_fit(design)
                named = []
            except RankDeficientError as exc:
                named = list(exc.columns)
            dependent = Absorbed(design).solve(cols)[1]
            assert [design.column_names[j] for j in dependent] == named, (scale, effects)
            one = ClusterMoments(design, np.zeros(design.n, dtype=int)).weighted(np.ones((1, 1)))
            assert one.solve(cols)[1].tolist() == [bool(named)], (scale, effects)
            verdicts.append(bool(named))
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scheme", (REGION, COUNTRY_YEAR, REGION_YEAR), ids=lambda s: s.label)
def test_bootstrap_refits_a_near_collinear_design_that_the_fit_accepts(scheme):
    # x and z nearly cancel, and the fit keeps both: so does every replicate
    ds = near_copy_panel(generate_panel(DgpConfig(n_regions=20, n_years=10, countries=4), 0),
                         5.74e-15)
    spec = _xz_spec(("region",))
    fit = ols_fit(build_design(ds, spec))
    assert np.abs(fit.beta[1:3]).min() > 1e12
    sample = block_bootstrap(ds, spec, scheme, 40, 0)
    assert sample.failed_refits == 0 and len(sample.draws) == 40


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_view_the_gram_accepts_is_full_rank_by_the_row_rule():
    # bootstrap views of z = x + s noise from below the rank threshold to
    # well conditioned: a view solved from the Gram (not refitted from its
    # rows) is one the row path's pivoted QR keeps whole
    base = generate_panel(DgpConfig(n_regions=20, n_years=10, countries=4), 0)
    solved = {"gram": 0, "rows": 0}
    for scale in np.logspace(-16, -1, 31):
        design = build_design(near_copy_panel(base, scale), _xz_spec(("region", "year")))
        clusters = assign_clusters(design, COUNTRY_YEAR)
        W = _replicate_weights(clusters.n_clusters, 8, 0)
        views, cols = ClusterMoments(design, clusters.row_cluster).weighted(W), range(3)
        views.solve(cols)  # intercept, x and z
        for i, w in enumerate(W):
            solved["rows" if i in views.rows else "gram"] += 1
            if i not in views.rows:
                assert not Absorbed(design, w[clusters.row_cluster]).solve(cols)[1].size, scale
    assert solved["gram"] and solved["rows"]


# ---------------------------------------------------------------------------
# cross-validation and information criteria
# ---------------------------------------------------------------------------


def _dense_cv(design, scheme, K, seed):
    """The per-fold dense CV: dummies rebuilt on the training rows, the
    validation rows encoded against the training levels.  Returns
    (loss, rank deficient, unseen levels)."""
    core = design.X
    regions, years = (np.array(v) for v in _row_levels(design))
    clusters = assign_clusters(design, scheme)
    row_folds = make_folds(clusters, K, seed)[clusters.row_cluster]
    sse, n_val, unseen, deficient = 0.0, 0, 0, False
    for k in range(K):
        va, tr = row_folds == k, row_folds != k
        D_tr, _, levels, _, _ = dense_dummies(list(regions[tr]), list(years[tr]),
                                              tuple(design.fe_levels))
        D_va, _, _, fold_unseen, _ = dense_dummies(list(regions[va]), list(years[va]),
                                                   tuple(design.fe_levels), levels=levels)
        X_tr = np.hstack([core[tr], D_tr])
        beta, _, rank, _ = np.linalg.lstsq(X_tr, design.y[tr], rcond=None)
        deficient |= rank < X_tr.shape[1]
        err = design.y[va] - np.hstack([core[va], D_va]) @ beta
        sse += float(err @ err)
        n_val += int(va.sum())
        unseen += fold_unseen
    return sse / n_val, deficient, unseen


# (gappy panel, base, candidates, direction); the collinear cases' entries
# with the second candidate are rank deficient: it copies the base term under
# another name, or is constant within regions, collinear with the region
# effect, where the minimum-norm solution counts the region effects in its norm
COLLINEAR = ("forward_duplicate_region_only", "forward_region_collinear")
CV_CASES = {
    "forward_two_way": (False, ModelSpec(fixed_effects=("region", "year")), [X_MOD, Z0],
                        "forward"),
    "backward_two_way_gappy": (True, _spec(True), [], "backward"),
    "backward_no_intercept_gappy": (True, _spec(False), [], "backward"),
    "forward_duplicate_region_only": (True, ModelSpec(terms=(Z0,), fixed_effects=("region",)),
                                      [X_MOD, TermSpec("zc", differenced=False)], "forward"),
    "forward_region_collinear": (True, replace(_spec(True), terms=(Z0,)),
                                 [X_MOD, TermSpec("c", differenced=False)], "forward"),
}


@pytest.mark.parametrize("case", sorted(CV_CASES))
def test_cv_scan_matches_dense_cv(case):
    gappy, base, candidates, direction = CV_CASES[case]
    ds = _panel(gappy)
    union, reference, variants = _oracle_sequence(base, candidates, direction)
    rows = _rows_of(build_design(ds, union))
    for scheme, K in ((REGION, 4), (YEAR, 3), (COUNTRY_YEAR, 4)):
        (scan,) = cv_scan(ds, base, candidates, [scheme], K, seed=3, direction=direction)

        def dense(spec):
            return _dense_cv(build_design(ds, spec, keep_rows=rows), scheme, K, 3)

        ref_loss = dense(reference)[0]
        assert scan.reference_loss == pytest.approx(ref_loss, rel=RTOL)
        flags = []
        for entry, (_, _, spec) in zip(scan.entries, variants, strict=True):
            loss, deficient, _ = dense(spec)
            assert entry.loss == pytest.approx(loss, rel=RTOL), (entry, scheme)
            bound = 2 * RTOL * max(loss, ref_loss)  # each loss within RTOL of its own
            assert entry.delta_loss == pytest.approx(loss - ref_loss, rel=0, abs=bound)
            flags.append(entry.collinear)
            assert entry.collinear == deficient
        assert any(flags) == (case in COLLINEAR)


def test_cv_loss_counts_unseen_levels_like_dense():
    ds = _panel(True)
    spec = _spec(True)
    for scheme in (REGION, YEAR, COUNTRY):
        design = build_design(ds, spec)
        (res,) = cv_loss(design, scheme, K=3, seed=1, models=[range(design.X.shape[1])])
        loss, _, unseen = _dense_cv(design, scheme, 3, 1)
        assert res.loss == pytest.approx(loss, rel=RTOL)
        assert res.unseen_levels == unseen > 0


@pytest.mark.parametrize("case", ["forward_two_way", "backward_two_way_gappy",
                                  "backward_no_intercept_gappy"])
def test_ic_scan_matches_dense_fits(case):
    gappy, base, candidates, direction = CV_CASES[case]
    ds = _panel(gappy)
    union, reference, variants = _oracle_sequence(base, candidates, direction)
    rows = _rows_of(build_design(ds, union))
    scan = ic_scan(ds, base, candidates, COUNTRY_YEAR, direction=direction)

    def scores(spec):
        design = build_design(ds, spec, keep_rows=rows)
        X = dense_X(design)
        beta, e = _dense_fit(X, design.y)
        fit = fit_on(design, beta, e)
        clusters = assign_clusters(design, COUNTRY_YEAR)
        return {(crit, adj): information_criterion(fit, clusters, crit, adjusted=adj)
                for adj in (False, True) for crit in ("AIC", "BIC")}

    ref = scores(reference)
    for key, value in scan.reference.items():
        assert value == pytest.approx(ref[key].value, rel=RTOL)
    entries = iter(scan.entries)
    for _, _, spec in variants:
        want = scores(spec)
        for adj in (False, True):
            for crit in ("AIC", "BIC"):
                entry = next(entries)
                assert not entry.collinear
                assert entry.value == pytest.approx(want[(crit, adj)].value, rel=RTOL)
                if entry.rho_hat is None:
                    assert want[(crit, adj)].rho_hat is None
                else:
                    # the golden-section search stops at xtol = 1e-8 sigma^2, and
                    # last-bit residual changes may end it in another bracket:
                    # both answers lie within xtol of the maximizer
                    xtol = 1e-8 * want[(crit, adj)].sigma2
                    assert entry.rho_hat == pytest.approx(want[(crit, adj)].rho_hat, abs=2 * xtol)


# ---------------------------------------------------------------------------
# bootstrap and projection
# ---------------------------------------------------------------------------


def _dense_replicate(b, seed, design, clusters):
    """One replicate as first written: stack the drawn clusters' rows,
    rebuild the dummies on them, refit by lstsq."""
    rng = np.random.default_rng((seed, b))
    drawn = rng.integers(0, clusters.n_clusters, size=clusters.n_clusters)
    rows = np.concatenate([np.flatnonzero(clusters.row_cluster == g) for g in drawn])
    core = list(range(design.X.shape[1]))
    X = dense_X(design)
    regions, years = (np.array(v) for v in _row_levels(design))
    D, names, _, _, re_referenced = dense_dummies(
        list(regions[rows]), list(years[rows]), tuple(design.fe_levels),
        levels=design.fe_levels, restrict_to_present=True,
    )
    Xb = np.hstack([X[rows][:, core], D])
    beta, _, rank, _ = np.linalg.lstsq(Xb, design.y[rows], rcond=None)
    if rank < Xb.shape[1]:
        return None
    slot = {name: j for j, name in enumerate(design.column_names)}
    vec = np.full(design.p, math.nan)
    vec[core] = beta[: len(core)]
    for j, name in enumerate(names):
        if name.partition("=")[0] not in re_referenced:
            vec[slot[name]] = beta[len(core) + j]
    if re_referenced and "intercept" in slot:
        vec[slot["intercept"]] = math.nan
    return vec


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scheme", [REGION, YEAR, COUNTRY_YEAR], ids=lambda s: s.label)
def test_bootstrap_draws_match_row_concatenating_replicates(scheme):
    ds = _panel(True)
    spec = _spec(True)
    B, seed = 60, 9
    sample = block_bootstrap(ds, spec, scheme, B, seed)
    design = build_design(ds, spec)
    clusters = assign_clusters(design, scheme)
    dense = [_dense_replicate(b, seed, design, clusters) for b in range(B)]
    kept = [v for v in dense if v is not None]
    assert sample.failed_refits == B - len(kept)
    _close(sample.draws, np.array(kept))
    # the cases exercise absent levels and re-referencing
    assert np.isnan(sample.draws).any()
    if scheme == REGION:
        assert sample.failed_refits > 0  # draws without R00 and R01
    if scheme == YEAR:
        intercept = sample.design.column_names.index("intercept")
        assert np.isnan(sample.draws[:, intercept]).any()  # reference year absent


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scheme", [REGION, YEAR], ids=lambda s: s.label)
def test_balanced_bootstrap_draws_match_row_concatenating_replicates(scheme):
    ds = _panel(False)
    spec = _spec(True)
    B, seed = 40, 4
    sample = block_bootstrap(ds, spec, scheme, B, seed)
    design = build_design(ds, spec)
    clusters = assign_clusters(design, scheme)
    dense = [_dense_replicate(b, seed, design, clusters) for b in range(B)]
    _close(sample.draws, np.array([v for v in dense if v is not None]))
    if scheme == YEAR:  # a replicate without the reference year: intercept and years NaN
        lost = np.isnan(sample.draws[:, sample.design.column_names.index("intercept")])
        years = [j for j, name in enumerate(sample.design.column_names) if name.startswith("year=")]
        assert lost.any() and np.isnan(sample.draws[np.ix_(lost, years)]).all()


def _dense_projection(sample, future, spec, template, weights=None):
    """Scenario rows encoded with dense dummies against the template's
    levels, multiplied into every draw and averaged per year, weighted by
    region under ``weights`` (a region without one weighs 0).  Dummy
    columns that no row reads count 0; a NaN in any other column reaches
    every row and year, as NaN * 0 is NaN."""
    core_spec = ModelSpec(terms=spec.terms, intercept=spec.intercept)
    core = build_design(future, core_spec, require_outcome=False)
    regions, years = _row_levels(core)
    D, *_ = dense_dummies(regions, years, tuple(template.fe_levels), levels=template.fe_levels)
    X = np.hstack([core.X, D])
    draws = sample.draws.copy()
    untouched = np.all(X == 0.0, axis=0)
    untouched[: core.X.shape[1]] = False  # the intercept and term columns are always read
    cols = draws[:, untouched]
    cols[np.isnan(cols)] = 0.0
    draws[:, untouched] = cols
    per_row = X @ draws.T
    w = np.array([1.0 if weights is None else weights.get(r, 0.0) for r in regions])
    years = np.array(years)
    return np.column_stack([w[years == t] @ per_row[years == t] / w[years == t].sum()
                            for t in sorted(set(years))])


def _scenario(ds, x=lambda i, year: 0.1 * (year - 2008) + i):
    """Every third region and the unseen R99, region i over 2008..2011+i.
    History years inside the panel touch year dummies, and the regions'
    paths end in different years, so a draw missing one region's effect
    must drop out of every year, not only of that region's years."""
    records = [obs(r, "C0", year, math.nan, {"x": x(i, year), "m": 1.0, "z": 0.5})
               for i, r in enumerate(list(ds.regions[::3]) + ["R99"])
               for year in range(2008, 2012 + i)]
    return panel_from(records, predictor_names=("x", "m", "z"))


def _projection_case(gappy, scheme):
    ds = _panel(gappy)
    spec = _spec(True)
    sample = block_bootstrap(ds, spec, scheme, 40, seed=2)
    template = build_design(ds, spec)
    future = _scenario(ds)
    path = build_scenario_path(future, spec, template, "s")
    assert path.unseen_levels > 0
    got = project_scenarios(sample, path).values
    _close(got, _dense_projection(sample, future, spec, template))
    return got


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scheme", [REGION, YEAR], ids=lambda s: s.label)
def test_projection_matches_dense_product(scheme):
    got = _projection_case(True, scheme)
    assert np.isnan(got).any() and np.isfinite(got).any()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scheme", [REGION, YEAR], ids=lambda s: s.label)
def test_balanced_projection_matches_dense_product(scheme):
    assert np.isfinite(_projection_case(False, scheme)).any()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("gappy", [False, True])
def test_weighted_projection_matches_dense_product(gappy):
    # R03 weighs 0, yet a draw without its effect drops out of every year
    ds = _panel(gappy)
    spec = _spec(True)
    sample = block_bootstrap(ds, spec, REGION, 40, seed=2)
    template = build_design(ds, spec)
    future = _scenario(ds)
    weights = {r: 1.0 + i for i, r in enumerate(future.regions)} | {"R03": 0.0}
    path = build_scenario_path(future, spec, template, "s", aggregation="weighted",
                               weights=weights)
    lost = np.isnan(sample.draws[:, sample.design.column_names.index("region=R03")])
    assert lost.any() and not lost.all()
    got = project_scenarios(sample, path).values
    _close(got, _dense_projection(sample, future, spec, template, weights))
    assert np.isnan(got[lost]).all() and np.isfinite(got).any()


@pytest.mark.parametrize("weighted", [False, True], ids=["mean", "weighted"])
def test_scenario_map_is_the_dense_mean_row(weighted):
    # M is each year's mean of the scenario's rows with dense dummies, under
    # ``weighted`` by region; read holds the intercept and term columns and
    # each dummy some row has, whatever its weight: the reference region R00,
    # the unseen R99 and the unseen years after 2011 read no column
    ds = _panel(True)
    spec = _spec(True)
    template = build_design(ds, spec)
    future = _scenario(ds)
    weights = {r: float(i % 3) for i, r in enumerate(future.regions)} if weighted else None
    path = build_scenario_path(future, spec, template, "s", weights=weights,
                               aggregation="weighted" if weighted else "mean")
    core = build_design(future, ModelSpec(terms=spec.terms, intercept=spec.intercept),
                        require_outcome=False)
    regions, years = _row_levels(core)
    D, names, _, unseen, _ = dense_dummies(regions, years, tuple(template.fe_levels),
                                           levels=template.fe_levels)
    X, years = np.hstack([core.X, D]), np.array(years)
    w = np.array([1.0 if weights is None else weights[r] for r in regions])
    assert path.years == tuple(sorted(set(years.tolist())))
    _close(path.M, [w[years == t] @ X[years == t] / w[years == t].sum() for t in path.years])
    k = core.X.shape[1]
    assert path.read.tolist() == np.flatnonzero(np.r_[[True] * k, D.any(axis=0)]).tolist()
    assert path.unseen_levels == unseen > 0
    read = {template.column_names[j] for j in path.read[k:]}
    assert "R00" in future.regions and template.fe_levels["region"][0] == "R00"
    assert path.years[-1] > 2011 == template.fe_levels["year"][-1]
    assert read == {f"region={r}" for r in future.regions if r not in ("R00", "R99")} | {
        f"year={t}" for t in path.years if t <= 2011}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_projection_drop_rule_matches_dense_product():
    # a NaN in an all-zero term column drops the draw, as NaN * 0 does; a
    # NaN in a region or year column that no row reads does not
    ds = _panel(False)
    spec = _spec(True)
    sample = block_bootstrap(ds, spec, YEAR, 40, seed=2)
    template = build_design(ds, spec)
    future = _scenario(ds, x=lambda i, year: float(i))  # d.x = 0 in every row
    path = build_scenario_path(future, spec, template, "s")
    names = sample.design.column_names
    zero, region, year = (names.index(c) for c in ("d.x.l0", "region=R01", "year=2004"))
    assert zero in path.read and not path.M[:, zero].any()
    assert not np.isin([region, year], path.read).any()
    kept = np.flatnonzero(np.isfinite(project_scenarios(sample, path).values).all(axis=1))
    draws = sample.draws.copy()
    draws[kept[:3], [zero, region, year]] = math.nan
    changed = replace(sample, draws=draws)
    got = project_scenarios(changed, path).values
    _close(got, _dense_projection(changed, future, spec, template))
    assert np.isnan(got[kept[0]]).all() and np.isfinite(got[kept[1:]]).all()


# ---------------------------------------------------------------------------
# the sample goldens against the dense oracles
# ---------------------------------------------------------------------------

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def _sample_case():
    config = yaml.safe_load((SAMPLE / "config.yaml").read_text())
    schema = CsvSchema.canonical(("x", "xbar"), with_centroids=True, with_groups=True,
                                 custom_names=("year_str",))
    ds = load_csv(SAMPLE / "panel.csv", schema)
    model = config["model"]
    spec = ModelSpec(tuple(TermSpec(**t) for t in model["terms"]), model["fixed_effects"])
    return config, ds, spec


def _golden_csv(command, name):
    with open(SAMPLE / "golden" / command / name, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sample_fit_golden_matches_dense():
    config, ds, spec = _sample_case()
    design = build_design(ds, spec)
    X = dense_X(design)
    beta, e = _dense_fit(X, design.y)
    table = json.loads((SAMPLE / "golden/fit/coefficients.json").read_text())
    _close([c["estimate"] for c in table["coefficients"]], beta)
    for label in config["fit"]["schemes"]:
        clusters = assign_clusters(design, ClusterScheme.parse(label))
        se = np.sqrt(np.diag(clustered_sandwich(X, e, clusters)))
        np.testing.assert_allclose([c["se"][label] for c in table["coefficients"]], se, rtol=RTOL)
        half = _t_quantile(table["level"], clusters.n_clusters) * se
        _close([c["ci"][label] for c in table["coefficients"]],
               np.column_stack([beta - half, beta + half]))


SAMPLE_SCHEMES = [REGION, COUNTRY, YEAR, COUNTRY_YEAR]


def _sample_fit():
    """The sample's fit and its high - low scenario contrast rows (years, A)."""
    config, ds, spec = _sample_case()
    fit = ols_fit(build_design(ds, spec))
    schema = replace(CsvSchema.canonical(("x", "xbar"), with_centroids=True, with_groups=True,
                                         custom_names=("year_str",)), outcome=None)
    high, low = (build_scenario_path(load_csv(SAMPLE / f"scenario_{label}.csv", schema), spec,
                                     fit.design, label) for label in ("high", "low"))
    assert high.years == low.years
    return fit, ds, spec, high.years, high.M - low.M


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_linear_readout_of_the_scenario_contrast_matches_dense():
    fit, _, _, years, A = _sample_fit()
    region = list(fit.design.fe_slots["region"])
    others = np.setdiff1d(np.arange(fit.p), region)
    assert not A[:, region].any()  # the intercept and both effects cancel between the paths
    zero = [year for year, a in zip(years, A) if not a.any()]
    assert zero == [2021, 2022]  # both paths read the same lagged values until they diverge
    for scheme in SAMPLE_SCHEMES:
        cov = clustered_cov(fit, assign_clusters(fit.design, scheme))
        got = linear_readout(fit, cov, A, 0.9)
        a = A[:, others]
        np.testing.assert_allclose(got.se ** 2, np.diag(a @ cov.cov @ a.T), rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.estimate, A @ fit.beta, rtol=1e-12, atol=0)
        half = _t_quantile(0.9, cov.G) * got.se
        np.testing.assert_array_equal(np.column_stack([got.lower, got.upper]),
                                      np.column_stack([got.estimate - half, got.estimate + half]))
        zeros = np.isin(years, zero)
        assert (got.estimate[zeros] == 0).all() and (got.se[zeros] == 0).all()
        assert (got.se[~zeros] > 0).all()
        reads_region = A.copy()
        reads_region[3, region[2]] = 0.5
        name = re.escape(repr(fit.design.column_names[region[2]]))
        with pytest.raises(ValueError, match=rf"contrasts read region columns \[{name}\]"):
            linear_readout(fit, cov, reads_region)
        with pytest.raises(ValueError, match=f"contrasts have 3 columns; the design has {fit.p}"):
            linear_readout(fit, cov, A[:, :3])


def _loop_response_curve(fit, cov, term, moderator_value, horizon, level):
    """``term_response_curve``'s per-lag loop as it was first written, one
    contrast vector grown lag by lag: (lag, effect, se, lower, upper) rows."""
    lbl = term_label(term)
    base_cols, inter_cols = ({lab.lag: j for j, lab in enumerate(fit.design.column_labels)
                              if lab.kind == kind and lab.term == lbl
                              and lab.moderator == term.moderator}
                             for kind in ("base", "interaction"))
    horizon = max(base_cols) if horizon is None else horizon
    q = _t_quantile(level, cov.G)
    points = []
    contrast = np.zeros(fit.p)
    for lag in range(horizon + 1):
        contrast[base_cols[lag]] = 1.0
        if inter_cols:
            contrast[inter_cols[lag]] = moderator_value
        effect = float(contrast @ fit.beta)
        nz = np.flatnonzero(contrast)
        var = float(contrast[nz] @ cov.cov[np.ix_(nz, nz)] @ contrast[nz])
        se = math.sqrt(max(var, 0.0))
        points.append((lag, effect, se, effect - q * se, effect + q * se))
    return points


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_response_curve_is_the_per_lag_loop_bit_for_bit():
    fit, ds, spec, _, _ = _sample_fit()
    (term,) = spec.terms
    plain = TermSpec("x", differenced=True, max_lag=2)
    plain_fit = ols_fit(build_design(ds, replace(spec, terms=(plain,))))
    for scheme in SAMPLE_SCHEMES:
        for m, horizon, level in ((ds.predictor_median("xbar"), None, 0.95), (0.0, 1, 0.9),
                                  (-1.7, 2, 0.5), (3.25, 0, 0.99)):
            cov = clustered_cov(fit, assign_clusters(fit.design, scheme))
            curve = term_response_curve(fit, cov, term, m, horizon, level)
            want = np.array(_loop_response_curve(fit, cov, term, m, horizon, level))
            np.testing.assert_array_equal(np.column_stack(curve.points), want[:, 1:])
        cov = clustered_cov(plain_fit, assign_clusters(plain_fit.design, scheme))
        np.testing.assert_array_equal(
            np.column_stack(term_response_curve(plain_fit, cov, plain).points),
            np.array(_loop_response_curve(plain_fit, cov, plain, 0.0, None, 0.95))[:, 1:])


def test_sample_cv_and_ic_goldens_match_dense():
    config, ds, spec = _sample_case()
    base = ModelSpec(fixed_effects=spec.fixed_effects)
    candidates = [TermSpec(**t) for t in config["cv"]["candidates"]]
    union, reference, variants = _oracle_sequence(base, candidates, "forward")
    rows = _rows_of(build_design(ds, union))
    cv_rows = iter(_golden_csv("cv", "cv_scan.csv"))
    for label in config["cv"]["schemes"]:
        scheme = ClusterScheme.parse(label)

        def loss(model):
            return _dense_cv(build_design(ds, model, keep_rows=rows), scheme, config["cv"]["k"],
                             config["seed"])[0]

        ref = loss(reference)
        for _, _, model in variants:
            row = next(cv_rows)
            assert row["scheme"] == label
            assert float(row["delta_loss"]) == pytest.approx(loss(model) - ref, abs=RTOL * ref)
    ic_rows = iter(_golden_csv("ic", "ic_scan.csv"))
    for _, _, model in variants:
        design = build_design(ds, model, keep_rows=rows)
        X = dense_X(design)
        beta, e = _dense_fit(X, design.y)
        fit = fit_on(design, beta, e)
        blocks = assign_clusters(design, ClusterScheme.parse(config["ic"]["block_scheme"]))
        for adj in config["ic"]["adjusted"]:
            for crit in config["ic"]["criteria"]:
                row, ic = next(ic_rows), information_criterion(fit, blocks, crit, adjusted=adj)
                assert float(row["value"]) == pytest.approx(ic.value, rel=RTOL)
                if adj:
                    xtol = 1e-8 * ic.sigma2  # the golden-section tolerance
                    assert float(row["rho_hat"]) == pytest.approx(ic.rho_hat, abs=2 * xtol)


def test_sample_bootstrap_golden_matches_dense_replicates():
    config, ds, spec = _sample_case()
    design = build_design(ds, spec)
    clusters = assign_clusters(design, ClusterScheme.parse(config["bootstrap"]["scheme"]))
    draws = [_dense_replicate(b, config["seed"], design, clusters)
             for b in range(config["bootstrap"]["b"])]
    draws = np.array([v for v in draws if v is not None])
    summary = json.loads((SAMPLE / "golden/bootstrap/bootstrap_summary.json").read_text())
    assert summary["failed_refits"] == config["bootstrap"]["b"] - len(draws)
    with np.errstate(invalid="ignore"):
        sd = [np.nanstd(draws[:, j], ddof=1) for j in range(draws.shape[1])]
    got = [math.nan if v is None else v for v in summary["sd"].values()]
    _close(got, sd)


def test_projection_with_one_region_template_matches_dense_product():
    # one fitted region: the region effect has levels but no dummy; the
    # scenario's second region is unseen
    gen = np.random.default_rng(4)
    ds = panel_from([obs("A", "C", 2000 + t, float(gen.standard_normal()),
                         {"x": float(gen.standard_normal())}) for t in range(12)])
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), fixed_effects=("region",))
    sample = block_bootstrap(ds, spec, YEAR, 30, seed=0)
    future = panel_from([obs(r, "C", 2020, math.nan, {"x": 1.0}) for r in ("A", "B")])
    path = build_scenario_path(future, spec, build_design(ds, spec), "f")
    assert path.unseen_levels == 1
    _close(project_scenarios(sample, path).values,
           _dense_projection(sample, future, spec, build_design(ds, spec)))


# ---------------------------------------------------------------------------
# cluster moments against the row path
# ---------------------------------------------------------------------------

MOMENT_SCHEMES = (REGION, COUNTRY, YEAR, COUNTRY_YEAR)


def _column_close(got, want, rtol=RTOL):
    """Equal NaN patterns, and finite entries within rtol of their column's largest."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert (np.isnan(got) == np.isnan(want)).all()
    scale = np.nanmax(np.abs(want), axis=0, initial=0.0)
    err = np.where(np.isnan(want), 0.0, np.abs(got - want))
    assert (err <= rtol * np.maximum(scale, 1e-300)).all(), np.max(err / np.maximum(scale, 1e-300))


@pytest.fixture
def row_refits(monkeypatch):
    """Counts the row-path refits (``Absorbed`` instances) that the moments make."""
    made = []

    class Counted(Absorbed):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(regression, "Absorbed", Counted)
    return made


def _replicate_weights(G, B, seed):
    return [np.bincount(np.random.default_rng((seed, b)).integers(0, G, size=G), minlength=G)
            for b in range(B)]


@pytest.mark.parametrize("effects", [("region", "year"), ("year",), ()], ids=repr)
@pytest.mark.parametrize("scheme", MOMENT_SCHEMES, ids=lambda s: s.label)
def test_cluster_moments_solve_like_the_row_path(scheme, effects, row_refits):
    design = build_design(_panel(True), _spec(True, effects))
    clusters = assign_clusters(design, scheme)
    moments = ClusterMoments(design, clusters.row_cluster)
    assert not moments.rows_only
    G = clusters.n_clusters
    # bootstrap multiplicities, and training folds of 0/1 weights
    W = _replicate_weights(G, 60, 9) + [np.arange(G) % 3 != k for k in range(3)]
    cols = range(design.X.shape[1])
    views = moments.weighted(W)
    solved = views.solve(cols)
    betas, fixed, deficient = [], [], 0
    for i, w in enumerate(W):
        rows = Absorbed(design, np.asarray(w)[clusters.row_cluster])
        assert tuple(views.present) == tuple(rows.present) == effects
        for effect, present in rows.present.items():
            assert (views.present[effect][i] == present).all()
        got, want = (solved[0][i], solved[1][i], solved[2]), rows.solve(cols)
        assert got[1] == (want[1].size > 0)
        if want[1].size:
            deficient += 1
            continue
        betas.append((got[0], want[0]))
        assert tuple(got[2]) == tuple(want[2]) == effects
        if effects:  # the region effects, then the year effects, by level
            fixed.append([np.concatenate([e[i] for e in got[2].values()]),
                          np.concatenate(list(want[2].values()))])
    _column_close([b[0] for b in betas], [b[1] for b in betas])
    if fixed:
        _column_close([f[0] for f in fixed], [f[1] for f in fixed])
    # each deficient fit, and only those, was refitted from the rows
    assert len(row_refits) == deficient
    # with both effects, the cases hold absent levels, re-referenced years
    # and failed refits
    if "region" in effects:
        assert any((~p).any() for p in views.present.values())
    if scheme == YEAR and effects:
        assert (~views.present["year"][:, 0]).any()
    if scheme == REGION and "region" in effects:
        assert deficient > 0


def _row_replicate(b, seed, design, clusters):
    """One replicate on the row path: ``Absorbed`` under the drawn clusters'
    multiplicities, as ``block_bootstrap`` refitted before the moments."""
    G = clusters.n_clusters
    (w,) = _replicate_weights(G, b + 1, seed)[b:]
    refit = Absorbed(design, w[clusters.row_cluster])
    theta, dependent, effects = refit.solve(range(design.X.shape[1]))
    if dependent.size:
        return None
    vec = np.full(design.p, math.nan)
    vec[: len(theta)] = theta
    for effect, values in effects.items():
        vec[list(design.fe_slots[effect])] = values[1:]
    # an effect without weight at its reference level is re-referenced
    re_referenced = [effect for effect, present in refit.present.items() if not present[0]]
    if re_referenced:
        vec[[j for j, name in enumerate(design.column_names)
             if name.partition("=")[0] in re_referenced or name == "intercept"]] = math.nan
    return vec


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scheme", MOMENT_SCHEMES + (REGION_YEAR,), ids=lambda s: s.label)
def test_bootstrap_draws_match_row_path_replicates(scheme):
    # region_year clusters hold one row each: the moments would outgrow the
    # rows, and every replicate is refitted from them
    ds = _panel(True)
    spec = _spec(True)
    B, seed = 60, 9
    sample = block_bootstrap(ds, spec, scheme, B, seed)
    design = build_design(ds, spec)
    clusters = assign_clusters(design, scheme)
    assert ClusterMoments(design, clusters.row_cluster).rows_only == (scheme == REGION_YEAR)
    rows = [_row_replicate(b, seed, design, clusters) for b in range(B)]
    kept = [v for v in rows if v is not None]
    assert sample.failed_refits == B - len(kept)
    _column_close(sample.draws, np.array(kept))


def test_near_collinear_design_takes_the_row_path(row_refits):
    # w = x + 1e-5 noise: least squares resolves it, but the Gram's smallest
    # equilibrated pivot, about 1e-10, is inside the margin
    gen = np.random.default_rng(8)
    records = []
    for i in range(12):
        for t in range(10):
            x = float(gen.standard_normal())
            records.append(obs(f"R{i:02d}", f"C{i % 3}", 2000 + t, x + float(gen.standard_normal()),
                               {"x": x, "w": x + 1e-5 * float(gen.standard_normal())}))
    ds = panel_from(records, predictor_names=("x", "w"))
    spec = ModelSpec(terms=(TermSpec("x", differenced=False), TermSpec("w", differenced=False)),
                     fixed_effects=("region", "year"))
    design = build_design(ds, spec)
    clusters = assign_clusters(design, COUNTRY_YEAR)
    W = _replicate_weights(clusters.n_clusters, 5, 1)
    cols = range(design.X.shape[1])
    theta, deficient, effects = ClusterMoments(design, clusters.row_cluster).weighted(W).solve(cols)
    assert not deficient.any()  # full rank, not a failed refit
    for i, w in enumerate(W):
        want = Absorbed(design, w[clusters.row_cluster]).solve(cols)
        np.testing.assert_array_equal(theta[i], want[0])
        for effect in ("region", "year"):
            np.testing.assert_array_equal(effects[effect][i], want[2][effect])
    assert len(row_refits) == len(W)


def _near_collinear_gappy_panel():
    """The gappy panel's rows with ``w`` = x + 1e-5 noise except in 2011,
    where ``w`` is drawn on its own: a year resample without 2011 is full
    rank but inside the Gram's acceptance margin, one with it is not."""
    gen = np.random.default_rng(12)
    records = []
    for i in range(14):
        for t in range(12):
            if (i % 5 == 2 and t < 1 + i % 4) or (i % 4 == 3 and t in (6, 7)):
                continue
            x = float(gen.standard_normal())
            w = float(gen.standard_normal()) if t == 11 else x + 1e-5 * float(gen.standard_normal())
            records.append(obs(f"R{i:02d}", f"C{i % 4}", 2000 + t,
                               x + 0.1 * i + float(gen.standard_normal()), {"x": x, "w": w}))
    return panel_from(records, predictor_names=("x", "w"))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_stacked_views_do_not_depend_on_their_stack(monkeypatch, row_refits):
    # year resamples of a gappy panel keep different year sets, so a stack
    # eliminates several year blocks, and the replicates without 2011 fail
    # the Gram's acceptance inside a stack of replicates that pass it
    ds = _near_collinear_gappy_panel()
    spec = ModelSpec(terms=(TermSpec("x", differenced=False), TermSpec("w", differenced=False)),
                     fixed_effects=("region", "year"))
    design = build_design(ds, spec)
    clusters = assign_clusters(design, YEAR)
    moments = ClusterMoments(design, clusters.row_cluster)
    B, seed, cols = 40, 3, range(design.X.shape[1])
    assert moments.block >= B  # one stack holds every replicate
    W = _replicate_weights(clusters.n_clusters, B, seed)
    stacked = moments.weighted(W)
    assert len(np.unique(stacked.present["year"], axis=0)) > 5
    theta, deficient, effects = stacked.solve(cols)
    assert 0 < len(row_refits) < B and not deficient.any()
    alone = [moments.weighted(W[i:i + 1]).solve(cols) for i in range(B)]
    reversed_ = moments.weighted(W[::-1]).solve(cols)
    for i, (one_theta, one_deficient, one_effects) in enumerate(alone):
        np.testing.assert_array_equal(theta[i], one_theta[0])
        np.testing.assert_array_equal(theta[i], reversed_[0][B - 1 - i])
        for effect, values in effects.items():
            np.testing.assert_array_equal(values[i], one_effects[effect][0])
            np.testing.assert_array_equal(values[i], reversed_[2][effect][B - 1 - i])
    # the draws: the same bits in one stack and one replicate per stack, and
    # the row path's to 1e-10
    whole = block_bootstrap(ds, spec, YEAR, B, seed)
    monkeypatch.setattr(regression, "_BLOCK_FLOATS", 1)
    single = block_bootstrap(ds, spec, YEAR, B, seed)
    np.testing.assert_array_equal(whole.draws, single.draws)
    rows = [_row_replicate(b, seed, design, clusters) for b in range(B)]
    _column_close(whole.draws, np.array([v for v in rows if v is not None]))


def test_padded_year_blocks_keep_the_reference_and_absent_years_exact(row_refits):
    # one year-scheme stack whose views keep or drop the first year, the
    # reference, and other years: each view's year block is padded to every
    # year level, and still gives 0 at its reference and NaN where absent
    design = build_design(_panel(True), _spec(True))
    clusters = assign_clusters(design, YEAR)
    moments = ClusterMoments(design, clusters.row_cluster)
    G, T = clusters.n_clusters, len(design.fe_levels["year"])
    year_cluster = np.zeros(T, dtype=int)
    year_cluster[design.fe_codes["year"]] = clusters.row_cluster
    by_year = np.ones((6, T))
    by_year[1, 0] = by_year[2, :2] = by_year[3, 5] = by_year[4, [0, 7]] = 0
    by_year[4, 3] = by_year[5, 0] = 2
    W = np.zeros((6, G))
    W[:, year_cluster] = by_year
    W = np.vstack([W, _replicate_weights(G, 20, 4)])
    cols = range(design.X.shape[1])
    views = moments.weighted(W)
    theta, deficient, effects = views.solve(cols)
    assert not row_refits and not deficient.any()  # every view solved in the stack
    rows = [Absorbed(design, w[clusters.row_cluster]) for w in W]
    wants = [r.solve(cols) for r in rows]
    references = []
    for i, (row, want) in enumerate(zip(rows, wants)):
        present, year = row.present["year"], effects["year"][i]
        references.append(np.argmax(present))
        assert (views.present["year"][i] == present).all()
        assert year[references[-1]] == 0.0 == want[2]["year"][references[-1]]
        assert (np.isnan(year) == ~present).all()
    assert 0 < np.count_nonzero(references) < len(W)  # some views re-referenced, some not
    _column_close(theta, [want[0] for want in wants])
    for effect in ("region", "year"):
        _column_close(effects[effect], [want[2][effect] for want in wants])


def test_a_singular_year_block_in_a_stack_solves_from_the_rows(row_refits):
    # RX has one row, in 2005: a view without the other 2005 clusters leaves
    # that year in RX alone, its row of the year block exactly 0
    gen = np.random.default_rng(2)
    records = [obs(f"R{i:02d}", f"C{i % 4}", 2000 + t, float(gen.standard_normal()),
                   {"x": float(gen.standard_normal())}) for i in range(20) for t in range(12)]
    records.append(obs("RX", "CX", 2005, 0.5, {"x": 1.5}))
    ds = panel_from(records, predictor_names=("x",))
    design = build_design(ds, ModelSpec(terms=(TermSpec("x", differenced=False),),
                                        fixed_effects=("region", "year")))
    clusters = assign_clusters(design, COUNTRY_YEAR)
    moments = ClusterMoments(design, clusters.row_cluster)
    assert not moments.rows_only
    W = np.ones((3, clusters.n_clusters))
    ri, ti = design.cells
    mask = (ds.first_year + ti == 2005) & (np.array(ds.countries)[ri] != "CX")
    W[1, np.unique(clusters.row_cluster[mask])] = 0
    cols = range(design.X.shape[1])
    theta, deficient, effects = moments.weighted(W).solve(cols)
    assert len(row_refits) == 1 and deficient.tolist() == [False, True, False]
    want = Absorbed(design, W[1][clusters.row_cluster]).solve(cols)
    np.testing.assert_array_equal(theta[1], want[0])
    for effect, values in effects.items():
        np.testing.assert_array_equal(values[1], want[2][effect])


def _row_cv(design, scheme, K, seed, models):
    """(loss, rank deficient, unseen levels) per model on the row path: each
    fold refitted by ``Absorbed`` under 0/1 row weights, as ``cv_loss``
    did before the moments."""
    clusters = assign_clusters(design, scheme)
    row_folds = make_folds(clusters, K, seed)[clusters.row_cluster]
    sse, deficient, unseen = np.zeros(len(models)), [False] * len(models), 0
    for k in range(K):
        va = row_folds == k
        fold = Absorbed(design, ~va)
        unseen += sum(int((~fold.present[e][codes[va]]).sum())
                      for e, codes in design.fe_codes.items())
        for m, model in enumerate(models):
            beta, dependent, effects = fold.solve(model)
            deficient[m] |= dependent.size > 0
            err = design.y[va] - design.X[va][:, model] @ beta[model]
            for effect, values in effects.items():
                err -= np.nan_to_num(values)[design.fe_codes[effect][va]]
            sse[m] += err @ err
    return [(loss, flag, unseen) for loss, flag in zip(sse / design.n, deficient)]


@pytest.mark.parametrize("case", sorted(CV_CASES))
def test_cv_entries_match_row_path(case):
    gappy, base, candidates, direction = CV_CASES[case]
    ds = _panel(gappy)
    union, reference, variants = _oracle_sequence(base, candidates, direction)
    design = build_design(ds, union)
    terms = list(range(design.X.shape[1]))
    # the reference, every variant, and each model as a column subset of the union
    models = [terms[:j] for j in range(len(terms) + 1)] + [terms[1:]]
    flags = []
    # region_year clusters hold one row each: with the year dummies moments
    # per cluster would outgrow the rows, while cv_loss's per fold do not
    for scheme, K in ((REGION, 4), (COUNTRY, 3), (YEAR, 3), (COUNTRY_YEAR, 4), (REGION_YEAR, 4)):
        clusters = assign_clusters(design, scheme)
        assert ClusterMoments(design, clusters.row_cluster).rows_only == (
            scheme == REGION_YEAR and "year" in design.fe_codes)
        got = cv_loss(design, scheme, K, 3, models)
        for res, (loss, deficient, unseen) in zip(got, _row_cv(design, scheme, K, 3, models),
                                                   strict=True):
            assert res.loss == pytest.approx(loss, rel=RTOL)
            assert (res.rank_deficient, res.unseen_levels) == (deficient, unseen)
            flags.append(deficient)
    assert any(flags) == (case in COLLINEAR)


def test_cv_scan_builds_one_set_of_fold_views(monkeypatch):
    made, calls = [], []

    class Counted(ClusterMoments):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

        def weighted(self, W):
            calls.append(W)
            return super().weighted(W)

    monkeypatch.setattr(modelselect, "ClusterMoments", Counted)
    base = ModelSpec(fixed_effects=("region", "year"))
    (scan,) = cv_scan(_panel(True), base, (X_MOD, Z0), [COUNTRY], 3, seed=3)
    assert len(scan.entries) == 3
    assert len(made) == len(calls) == 1
    assert len(calls[0]) == 3  # one training fold per row of weights


def test_cv_loss_keys_its_moments_by_fold(monkeypatch):
    made = []

    class Recorded(ClusterMoments):
        def __init__(self, design, codes):
            made.append(codes)
            super().__init__(design, codes)

    monkeypatch.setattr(modelselect, "ClusterMoments", Recorded)
    design = build_design(_panel(True), ModelSpec(terms=(X_MOD,), fixed_effects=("region", "year")))
    clusters = assign_clusters(design, REGION)
    cv_loss(design, REGION, 3, 5, [range(design.X.shape[1])])
    assert clusters.n_clusters > 3
    (codes,) = made  # K Grams, not G
    np.testing.assert_array_equal(codes, make_folds(clusters, 3, 5)[clusters.row_cluster])


def test_cv_scan_refits_each_fold_from_the_rows_once(row_refits):
    # the collinear candidate sends every deficient model of a fold to the
    # row path; the fold's row partialling is built once and shared
    gappy, base, candidates, direction = CV_CASES["forward_region_collinear"]
    (scan,) = cv_scan(_panel(gappy), base, candidates, [COUNTRY], 3, seed=3, direction=direction)
    assert any(entry.collinear for entry in scan.entries)
    assert len(row_refits) == 3
