import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from clusterpanel.modelselect import (
    EquicorrParams,
    cv_loss,
    cv_scan,
    fit_rho,
    ic_scan,
    information_criterion,
    loglik_equicorr,
    loglik_iid,
    make_folds,
    model_sequence,
    term_display,
)
from clusterpanel.panel import (
    COUNTRY,
    COUNTRY_YEAR,
    REGION,
    YEAR,
    ClusterAssignment,
    ClusterScheme,
    ModelSpec,
    TermSpec,
    assign_clusters,
    build_design,
)
from clusterpanel.regression import RankDeficientError, ols_fit
from clusterpanel.simstudy import SLOPE_SPEC, DgpConfig, generate_panel

from conftest import (cell, design_from_arrays, fit_on, grid_dataset, keep_grid, obs, panel_from,
                      row_keys)


def make_clusters(sizes):
    codes = np.repeat(np.arange(len(sizes)), sizes)
    return ClusterAssignment(ClusterScheme("custom", "g"), codes, len(sizes))


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------


def test_folds_one_cluster_each():
    plan = make_folds(make_clusters([3, 3, 3, 3]), K=4, seed=0)
    assert sorted(np.bincount(plan.fold).tolist()) == [1, 1, 1, 1]


def test_folds_pigeonhole():
    plan = make_folds(make_clusters([2] * 10), K=3, seed=1)
    assert sorted(np.bincount(plan.fold).tolist()) == [3, 3, 4]


def test_folds_deterministic_and_seed_sensitive():
    clusters = make_clusters([1] * 50)
    a = make_folds(clusters, K=5, seed=7)
    b = make_folds(clusters, K=5, seed=7)
    assert a.fold.tolist() == b.fold.tolist()
    # the seed's permutation of the cluster codes, dealt round-robin
    order = np.random.default_rng(7).permutation(50)
    assert a.fold[order].tolist() == [i % 5 for i in range(50)]
    distinct = {tuple(make_folds(clusters, K=5, seed=s).fold.tolist()) for s in range(100)}
    assert len(distinct) > 95


def test_folds_validation():
    clusters = make_clusters([2, 2, 2])
    with pytest.raises(ValueError, match="exceeds"):
        make_folds(clusters, K=4, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        make_folds(clusters, K=1, seed=0)


def test_fold_integrity():
    clusters = make_clusters([1] * 23)
    plan = make_folds(clusters, K=4, seed=3)
    assert plan.fold.shape == (clusters.n_clusters,)
    assert set(plan.fold.tolist()) == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Cross-validated loss
# ---------------------------------------------------------------------------


def _xy_dataset(rng, R=6, T=8, slope=0.0, noise=1.0):
    """``x`` and the outcome, and ``xc``, a copy of ``x``."""
    observations = []
    for i in range(R):
        for t in range(T):
            x = float(rng.standard_normal())
            y = slope * x + noise * float(rng.standard_normal())
            observations.append(obs(f"R{i}", f"C{i % 3}", 2000 + t, y, {"x": x, "xc": x}))
    return panel_from(observations, predictor_names=("x", "xc"))


def test_cv_constant_outcome_zero_loss():
    ds = grid_dataset({f"R{i}": {2000 + t: 1.0 for t in range(6)} for i in range(4)},
                      outcome={f"R{i}": {2000 + t: 2.0 for t in range(6)} for i in range(4)})
    res = cv_loss(ds, ModelSpec(), REGION, K=2, seed=0)
    assert res.loss == pytest.approx(0.0, abs=1e-24)


def test_cv_exact_relationship_zero_loss(rng):
    ds = _xy_dataset(rng, slope=3.0, noise=0.0)
    for scheme in (REGION, YEAR, COUNTRY):
        res = cv_loss(ds, SLOPE_SPEC, scheme, K=3, seed=1)
        assert res.loss == pytest.approx(0.0, abs=1e-20)


def test_cv_unseen_levels_counted(rng):
    ds = _xy_dataset(rng)
    spec = ModelSpec(terms=(TermSpec("x", differenced=False),), fixed_effects=("region",))
    res = cv_loss(ds, spec, REGION, K=3, seed=0)
    # region folds hold out whole regions, so every validation row's region
    # dummy level is unseen in training
    assert res.unseen_levels == build_design(ds, spec).n
    assert res.loss > 0


def test_cv_rank_deficient_training_named_fold(rng):
    ds = _xy_dataset(rng)
    dup = ModelSpec(
        terms=(TermSpec("x", differenced=False), TermSpec("x", differenced=False)),
    )
    with pytest.raises(ValueError, match="fold 0"):
        cv_loss(ds, dup, REGION, K=3, seed=0)
    res = cv_loss(ds, dup, REGION, K=3, seed=0, allow_rank_deficient=True)
    assert res.rank_deficient


def test_cv_keep_rows_restricts(rng):
    ds = _xy_dataset(rng, R=4, T=10)
    cells = [(f"R{i}", 2000 + t) for i in range(4) for t in range(5)]
    keep = keep_grid(ds, cells)
    res = cv_loss(ds, SLOPE_SPEC, YEAR, K=2, seed=0, keep_rows=keep)
    # the same CV as on a panel of the 20 kept cells alone
    kept = panel_from([obs(r, ds.country_of(r), y, cell(ds, "outcome", r, y),
                           {"x": cell(ds, "x", r, y)}) for r, y in cells], predictor_names=("x",))
    assert res.loss == pytest.approx(cv_loss(kept, SLOPE_SPEC, YEAR, K=2, seed=0).loss, rel=1e-12)
    with pytest.raises(ValueError, match=r"keep_rows must be a \(4, 10\) boolean grid"):
        cv_loss(ds, SLOPE_SPEC, YEAR, K=2, seed=0, keep_rows=keep.T)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def test_forward_scan_duplicate_candidate_collinear(rng):
    ds = _xy_dataset(rng, slope=1.0)
    base = ModelSpec(terms=(TermSpec("x", differenced=False),))
    scan = cv_scan(ds, base, [TermSpec("xc", differenced=False)], REGION, K=3, seed=2)
    entry = scan.entries[0]
    assert entry.collinear
    assert abs(entry.delta_loss) < 1e-10


def test_forward_scan_pure_noise_candidate_nonnegative_in_expectation():
    deltas = []
    for seed in range(50):
        gen = np.random.default_rng((900, seed))
        ds = _xy_dataset(gen, R=8, T=10, slope=0.0, noise=1.0)
        scan = cv_scan(ds, ModelSpec(), [TermSpec("x", differenced=False)], YEAR, K=5, seed=seed)
        deltas.append(scan.entries[0].delta_loss)
    assert float(np.mean(deltas)) > 0.0


def test_forward_scan_predictive_candidate_reduces_loss(rng):
    ds = _xy_dataset(rng, R=10, T=12, slope=2.0, noise=0.5)
    for scheme in (REGION, YEAR, COUNTRY):
        scan = cv_scan(ds, ModelSpec(), [TermSpec("x", differenced=False)], scheme, K=3, seed=3)
        assert scan.entries[0].delta_loss < 0


def test_forward_scan_covers_lag_depths(rng):
    ds = _xy_dataset(rng, R=6, T=12)
    scan = cv_scan(
        ds, ModelSpec(), [TermSpec("x", differenced=False, max_lag=2)], REGION, K=3, seed=0
    )
    assert [e.lag_depth for e in scan.entries] == [0, 1, 2]
    # all entries share the common row set of the deepest model
    assert scan.rows_used == 6 * 10


def test_backward_scan_shape_and_trivial_entry(rng):
    ds = _xy_dataset(rng, R=8, T=12, slope=1.5, noise=0.5)
    full = ModelSpec(terms=(TermSpec("x", differenced=False, max_lag=2),))
    scan = cv_scan(ds, full, [], YEAR, K=4, seed=1, direction="backward")
    depths = [e.lag_depth for e in scan.entries]
    assert depths == [1, 0, None, None]
    assert scan.entries[-1].term == "(trivial)"
    # dropping a genuinely predictive term must raise the loss
    assert scan.entries[2].delta_loss > 0
    assert scan.entries[-1].delta_loss > 0


def test_backward_scan_zero_coefficient_term_negligible(rng):
    observations = []
    for i in range(8):
        for t in range(12):
            x = float(rng.standard_normal())
            z = float(rng.standard_normal())
            y = 2.0 * x + 0.3 * float(rng.standard_normal())
            observations.append(obs(f"R{i}", "C0", 2000 + t, y, {"x": x, "z": z}))
    ds = panel_from(observations, predictor_names=("x", "z"))
    full = ModelSpec(terms=(TermSpec("x", differenced=False), TermSpec("z", differenced=False)))
    scan = cv_scan(ds, full, [], REGION, K=4, seed=5, direction="backward")
    removed_z = [e for e in scan.entries if e.term == "z" and e.lag_depth is None][0]
    removed_x = [e for e in scan.entries if e.term == "x" and e.lag_depth is None][0]
    assert abs(removed_z.delta_loss) < 0.1 * removed_x.delta_loss


# ---------------------------------------------------------------------------
# Scan engine against per-model builds
# ---------------------------------------------------------------------------

X_MOD = TermSpec("x", differenced=True, moderator="m", max_lag=2)
X1 = TermSpec("x", differenced=False, max_lag=1)
M0 = TermSpec("m", differenced=False)
M1 = TermSpec("m", differenced=False, max_lag=1)
MC0 = TermSpec("mc", differenced=False)

# (gappy panel, moderator alignment, base, candidates, direction)
SCAN_CASES = {
    "two_way_fe_forward": (
        False, "contemporaneous", ModelSpec(fixed_effects=("region", "year")), [X_MOD, X1],
        "forward",
    ),
    "two_way_fe_backward": (
        False, "contemporaneous", ModelSpec(terms=(X_MOD, M1), fixed_effects=("region", "year")),
        [], "backward",
    ),
    # non-empty base; the second candidate copies the base term under another name
    "gappy_lag_aligned_forward": (
        True, "lag_aligned", ModelSpec(terms=(M0,), fixed_effects=("region",)), [X_MOD, MC0],
        "forward",
    ),
    "gappy_lag_aligned_backward": (
        True, "lag_aligned", ModelSpec(terms=(X_MOD, M0), fixed_effects=("year",)), [],
        "backward",
    ),
}


def _scan_panel(gappy):
    """12 regions in 3 countries over 12 years, ``mc`` a copy of ``m``; the gappy
    panel adds late entry, a two-year gap in three regions and NaN outcomes."""
    gen = np.random.default_rng(77)
    observations = []
    for i in range(12):
        for t in range(12):
            if gappy and ((i < 3 and t < 2 + i) or (i % 4 == 1 and t in (5, 6))):
                continue
            x = float(gen.standard_normal())
            m = float(gen.uniform(0.5, 2.0))
            y = 0.8 * x + 0.3 * x * m + float(gen.standard_normal())
            if gappy and (i * 12 + t) % 17 == 0:
                y = math.nan
            observations.append(obs(f"R{i:02d}", f"C{i % 3}", 2000 + t, y,
                                    {"x": x, "m": m, "mc": m}))
    return panel_from(observations, predictor_names=("x", "m", "mc"))


def _oracle_sequence(base, candidates, direction):
    """The scanned models spelled out one spec at a time, as the scans were
    first written: (union, reference, [(term, lag depth, spec)])."""

    def with_terms(terms):
        return ModelSpec(terms=tuple(terms), fixed_effects=base.fixed_effects,
                         intercept=base.intercept, moderator_alignment=base.moderator_alignment)

    if direction == "forward":
        variants = [
            (term_display(c), depth, with_terms(base.terms + (replace(c, max_lag=depth),)))
            for c in candidates
            for depth in range(c.max_lag + 1)
        ]
        return with_terms(base.terms + tuple(candidates)), base, variants
    variants = []
    for i, term in enumerate(base.terms):
        head, tail = base.terms[:i], base.terms[i + 1 :]
        for depth in range(term.max_lag - 1, -1, -1):
            variants.append(
                (term_display(term), depth, with_terms(head + (replace(term, max_lag=depth),) + tail))
            )
        variants.append((term_display(term), None, with_terms(head + tail)))
    variants.append(("(trivial)", None, with_terms(())))
    return base, base, variants


def _scan_case(case):
    gappy, alignment, base, candidates, direction = SCAN_CASES[case]
    ds, base = _scan_panel(gappy), replace(base, moderator_alignment=alignment)
    union, reference, variants = _oracle_sequence(base, candidates, direction)
    rows = keep_grid(ds, row_keys(build_design(ds, union)))
    return ds, base, candidates, direction, reference, variants, rows


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_cv_scan_matches_per_model_builds(case):
    ds, base, candidates, direction, reference, variants, rows = _scan_case(case)
    for scheme, K in ((COUNTRY, 3), (YEAR, 4)):
        scan = cv_scan(ds, base, candidates, scheme, K, seed=7, direction=direction)

        def cv(spec):
            return cv_loss(ds, spec, scheme, K, seed=7, keep_rows=rows, allow_rank_deficient=True)

        # the scan solves each model on a sub-block of the union's fold
        # Grams, which rounds as a product of their own width would not
        ref = cv(reference)
        assert scan.rows_used == rows.sum()
        assert scan.reference_loss == pytest.approx(ref.loss, rel=1e-12)
        assert [(e.term, e.lag_depth) for e in scan.entries] == [(n, d) for n, d, _ in variants]
        for entry, (_, _, spec) in zip(scan.entries, variants):
            res = cv(spec)
            assert entry.collinear == res.rank_deficient
            assert entry.loss == pytest.approx(res.loss, rel=1e-12)
            assert entry.delta_loss == pytest.approx(res.loss - ref.loss, abs=1e-12 * ref.loss)


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_ic_scan_matches_per_model_builds(case):
    ds, base, candidates, direction, reference, variants, rows = _scan_case(case)
    flags = [(crit, adj) for adj in (False, True) for crit in ("AIC", "BIC")]
    scan = ic_scan(ds, base, candidates, COUNTRY_YEAR, direction=direction)

    def scores(spec):
        design = build_design(ds, spec, keep_rows=rows)
        try:
            fit = ols_fit(design)
        except RankDeficientError:
            return None
        clusters = assign_clusters(design, COUNTRY_YEAR)
        return {(crit, adj): information_criterion(fit, clusters, criterion=crit, adjusted=adj)
                for crit, adj in flags}

    ref = scores(reference)
    assert scan.rows_used == rows.sum()
    assert scan.reference == {key: ic.value for key, ic in ref.items()}
    expected = []
    for name, depth, spec in variants:
        res = scores(spec)
        for crit, adj in flags:
            if res is None:
                expected.append((name, depth, crit, adj, None, None, None, True))
            else:
                ic = res[(crit, adj)]
                expected.append((name, depth, crit, adj, ic.value,
                                 ic.value - ref[(crit, adj)].value, ic.rho_hat, False))
    got = [
        (e.term, e.lag_depth, e.criterion, e.adjusted, None if e.collinear else e.value,
         None if e.collinear else e.delta, e.rho_hat, e.collinear)
        for e in scan.entries
    ]
    assert got == expected


def test_duplicate_candidate_collinear_in_both_scans():
    ds, base, candidates, direction, *_ = _scan_case("gappy_lag_aligned_forward")
    cv = cv_scan(ds, base, candidates, COUNTRY, 3, seed=7, direction=direction)
    ic = ic_scan(ds, base, candidates, COUNTRY_YEAR, direction=direction)
    assert [e.collinear for e in cv.entries] == [False, False, False, True]
    assert [e.collinear for e in ic.entries] == [False] * 12 + [True] * 4
    assert all(math.isnan(e.value) for e in ic.entries[-4:])


def test_lag_ceiling_of_the_spec_reaches_cv_and_ic():
    ds = generate_panel(DgpConfig(n_regions=12, n_years=16, countries=3), 5)
    deep = TermSpec("x", differenced=True, max_lag=11)
    with pytest.raises(ValueError, match=r"max_lag 11 outside 0\.\.10 for 'x'"):
        ModelSpec(terms=(deep,))
    spec = ModelSpec(terms=(deep,), max_lag_ceiling=12)
    res = cv_loss(ds, spec, REGION, 3, seed=0)
    assert math.isfinite(res.loss) and build_design(ds, spec).n == 12 * 4
    # a candidate is held to the base model's ceiling
    base = ModelSpec(max_lag_ceiling=12)
    assert len(cv_scan(ds, base, [deep], REGION, 3, seed=0).entries) == 12
    assert len(ic_scan(ds, base, [deep], COUNTRY_YEAR, criteria=("AIC",)).entries) == 24
    with pytest.raises(ValueError, match=r"max_lag 11 outside 0\.\.10 for 'x'"):
        cv_scan(ds, ModelSpec(), [deep], REGION, 3, seed=0)


def test_model_sequence_depths():
    forward = model_sequence(ModelSpec(terms=(M0,)), [X1], "forward")
    assert forward.union.terms == (M0, X1)
    assert forward.reference == (0, None)
    assert forward.variants == (("x", 0, (0, 0)), ("x", 1, (0, 1)))
    backward = model_sequence(ModelSpec(terms=(X1, M0), fixed_effects=("year",)), [], "backward")
    assert backward.union.terms == (X1, M0)
    assert backward.reference == (1, 0)
    assert backward.variants == (
        ("x", 0, (0, 0)),
        ("x", None, (None, 0)),
        ("m", None, (1, None)),
        ("(trivial)", None, (None, None)),
    )


def test_model_sequence_named_errors():
    with pytest.raises(ValueError, match="forward scan needs candidates"):
        model_sequence(ModelSpec(), [], "forward")
    with pytest.raises(ValueError, match="backward scan needs a model with at least one term"):
        model_sequence(ModelSpec(), [X1], "backward")
    with pytest.raises(ValueError, match="unknown scan direction 'up'"):
        model_sequence(ModelSpec(terms=(X1,)), [X1], "up")
    with pytest.raises(ValueError, match="backward scan takes no candidates"):
        model_sequence(ModelSpec(terms=(X1,)), [M0], "backward")


def test_model_sequence_rejects_a_candidate_listed_twice():
    # both would label their scan entries alike, whatever their lags
    for candidates in ([X1, X1], [X1, M0, TermSpec("x", differenced=False)]):
        with pytest.raises(ValueError, match="candidate 'x' is listed twice"):
            model_sequence(ModelSpec(), candidates, "forward")
    with pytest.raises(ValueError, match="candidate 'x' is listed twice"):
        model_sequence(ModelSpec(terms=(M0,)), [X1, X1], "forward")


def test_model_sequence_rejects_a_candidate_that_repeats_a_base_term():
    # the union would hold the term twice, whatever the lags: collinear
    for base, candidates in ((ModelSpec(terms=(X1,)), [TermSpec("x", differenced=False)]),
                             (ModelSpec(terms=(M0, X_MOD)), [X1, replace(X_MOD, max_lag=0)])):
        message = f"candidate {term_display(candidates[-1])!r} is already a term of the model"
        with pytest.raises(ValueError, match=re.escape(message)):
            model_sequence(base, candidates, "forward")
    # another display name for the same variable is a new term
    assert model_sequence(ModelSpec(terms=(X1,)), [replace(X1, differenced=True)],
                          "forward").variants[0][0] == "d.x"


REPEAT_CASE = (DgpConfig(n_regions=12, n_years=10), ModelSpec(
    terms=(TermSpec("x", differenced=False),), fixed_effects=("region", "year")))


def test_cv_scan_rejects_a_candidate_that_repeats_a_base_term():
    config, base = REPEAT_CASE
    with pytest.raises(ValueError, match="candidate 'x' is already a term of the model"):
        cv_scan(generate_panel(config, 0), base, list(base.terms), REGION, 3, seed=0)


def test_ic_scan_rejects_a_candidate_that_repeats_a_base_term():
    config, base = REPEAT_CASE
    with pytest.raises(ValueError, match="candidate 'x' is already a term of the model"):
        ic_scan(generate_panel(config, 0), base, list(base.terms), COUNTRY_YEAR)


# ---------------------------------------------------------------------------
# Log-likelihoods
# ---------------------------------------------------------------------------


def test_loglik_iid_single_residual():
    assert loglik_iid(np.array([1.0])) == pytest.approx(-1.4189385332046727, rel=1e-12)


def test_loglik_iid_scaling_identity(rng):
    r = rng.standard_normal(40)
    c = 3.7
    assert loglik_iid(c * r) == pytest.approx(loglik_iid(r) - 40 * math.log(c), rel=1e-12)


def test_loglik_iid_matches_dense_normal(rng):
    r = rng.standard_normal(25)
    s2 = float(r @ r) / 25
    dense = stats.multivariate_normal(mean=np.zeros(25), cov=s2 * np.eye(25)).logpdf(r)
    assert loglik_iid(r) == pytest.approx(dense, rel=1e-10)


def dense_equicorr_loglik(r, sizes, sigma2, rho):
    blocks = []
    for s in sizes:
        blocks.append(np.full((s, s), rho) + (sigma2 - rho) * np.eye(s))
    sigma = stats.multivariate_normal(mean=np.zeros(len(r)), cov=_blockdiag(blocks))
    return sigma.logpdf(r)


def _blockdiag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        s = b.shape[0]
        out[i : i + s, i : i + s] = b
        i += s
    return out


def test_equicorr_zero_rho_reduces_to_iid(rng):
    r = rng.standard_normal(30)
    clusters = make_clusters([5, 5, 5, 5, 5, 5])
    s2 = float(r @ r) / 30
    ll = loglik_equicorr(r, clusters, EquicorrParams(sigma2=s2, rho=0.0))
    assert ll == pytest.approx(loglik_iid(r), rel=1e-12)


def test_equicorr_singleton_blocks_ignore_rho(rng):
    r = rng.standard_normal(12)
    clusters = make_clusters([1] * 12)
    a = loglik_equicorr(r, clusters, EquicorrParams(sigma2=2.0, rho=0.0))
    b = loglik_equicorr(r, clusters, EquicorrParams(sigma2=2.0, rho=1.5))
    assert a == pytest.approx(b, rel=1e-14)


def test_equicorr_matches_dense_oracle(rng):
    for _ in range(25):
        sizes = list(rng.integers(1, 8, size=int(rng.integers(3, 10))))
        n = int(sum(sizes))
        r = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
        sigma2 = float(rng.uniform(0.5, 3.0))
        n_max = max(sizes)
        lo = -sigma2 / (n_max - 1) if n_max > 1 else -10 * sigma2
        rho = float(rng.uniform(0.9 * lo, 0.9 * sigma2))
        ll = loglik_equicorr(r, make_clusters(sizes), EquicorrParams(sigma2=sigma2, rho=rho))
        dense = dense_equicorr_loglik(r, sizes, sigma2, rho)
        assert ll == pytest.approx(dense, rel=1e-8)


def test_equicorr_pd_violation_reports_block_size(rng):
    r = rng.standard_normal(10)
    clusters = make_clusters([5, 5])
    with pytest.raises(ValueError, match="block size 5"):
        loglik_equicorr(r, clusters, EquicorrParams(sigma2=1.0, rho=-0.3))


def test_equicorr_params_validation():
    with pytest.raises(ValueError, match="below sigma2"):
        EquicorrParams(sigma2=1.0, rho=1.2)
    with pytest.raises(ValueError, match="positive"):
        EquicorrParams(sigma2=-1.0, rho=0.0)


# ---------------------------------------------------------------------------
# rho estimation
# ---------------------------------------------------------------------------


def _block_residuals(rng, n_blocks, size, rho_frac):
    rows = []
    for _ in range(n_blocks):
        f = rng.standard_normal()
        rows.append(math.sqrt(rho_frac) * f + math.sqrt(1 - rho_frac) * rng.standard_normal(size))
    return np.concatenate(rows)


def test_fit_rho_null(rng):
    r = _block_residuals(rng, 100, 5, 0.0)
    clusters = make_clusters([5] * 100)
    rf = fit_rho(r, clusters)
    assert rf.identified
    assert abs(rf.rho_hat) <= 0.05 * rf.sigma2


def test_fit_rho_planted(rng):
    r = _block_residuals(rng, 100, 5, 0.6)
    clusters = make_clusters([5] * 100)
    rf = fit_rho(r, clusters)
    assert rf.rho_hat == pytest.approx(0.6 * rf.sigma2, abs=0.1 * rf.sigma2)


def test_fit_rho_perfectly_correlated_pair_hits_boundary():
    clusters = make_clusters([2])
    with pytest.warns(UserWarning, match="boundary"):
        rf = fit_rho(np.array([1.0, 1.0]), clusters)
    assert rf.at_boundary
    assert rf.rho_hat == pytest.approx(1.0, abs=1e-4)


def test_fit_rho_rejects_zero_residuals():
    with pytest.raises(ValueError, match="zero residual variance; rho undefined"):
        fit_rho(np.zeros(4), make_clusters([2, 2]))


def test_fit_rho_unidentified_on_singletons(rng):
    r = rng.standard_normal(8)
    with pytest.warns(UserWarning, match="unidentified"):
        rf = fit_rho(r, make_clusters([1] * 8))
    assert not rf.identified and rf.rho_hat is None


def test_fit_rho_never_below_zero_likelihood(rng):
    for seed in range(10):
        gen = np.random.default_rng(seed)
        sizes = list(gen.integers(1, 6, size=20))
        r = gen.standard_normal(int(sum(sizes)))
        clusters = make_clusters(sizes)
        if max(sizes) == 1:
            continue
        rf = fit_rho(r, clusters)
        s2 = float(r @ r) / r.size
        ll_zero = loglik_equicorr(r, clusters, EquicorrParams(sigma2=s2, rho=0.0))
        assert rf.loglik >= ll_zero - 1e-12


# ---------------------------------------------------------------------------
# Information criteria
# ---------------------------------------------------------------------------


def _fit_with(residuals, p):
    n = len(residuals)
    return fit_on(design_from_arrays(np.zeros((n, p)), np.zeros(n)), residuals=residuals,
                  r_squared=0.5)


def test_ic_identical_residuals_differ_by_gamma_delta_k(rng):
    r = rng.standard_normal(60)
    small = information_criterion(_fit_with(r, 3), criterion="AIC")
    big = information_criterion(_fit_with(r, 5), criterion="AIC")
    assert big.value - small.value == pytest.approx(2.0 * 2, rel=1e-14)
    small_b = information_criterion(_fit_with(r, 3), criterion="BIC")
    big_b = information_criterion(_fit_with(r, 5), criterion="BIC")
    assert big_b.value - small_b.value == pytest.approx(math.log(60) * 2, rel=1e-14)


def test_ic_adjusted_with_unidentified_rho_costs_one_parameter(rng):
    r = rng.standard_normal(40)
    clusters = make_clusters([1] * 40)
    plain = information_criterion(_fit_with(r, 2), clusters, criterion="AIC", adjusted=False)
    with pytest.warns(UserWarning, match="unidentified"):
        adj = information_criterion(_fit_with(r, 2), clusters, criterion="AIC", adjusted=True)
    assert adj.value == pytest.approx(plain.value + 2.0, rel=1e-14)
    assert adj.rho_hat is None and adj.k == plain.k + 1


def test_ic_k_counting_flag(rng):
    r = rng.standard_normal(40)
    clusters = make_clusters([4] * 10)
    plain = information_criterion(_fit_with(r, 2), clusters, count_variance_params=False)
    assert plain.k == 2
    adj = information_criterion(_fit_with(r, 2), clusters, adjusted=True,
                                count_variance_params=False)
    assert adj.k == 2


def test_ic_validation(rng):
    r = rng.standard_normal(20)
    with pytest.raises(ValueError, match="criterion"):
        information_criterion(_fit_with(r, 2), criterion="DIC")
    with pytest.raises(ValueError, match="cluster"):
        information_criterion(_fit_with(r, 2), adjusted=True)


def test_ic_scan_forward_shape(rng):
    ds = _xy_dataset(rng, R=8, T=10, slope=1.0, noise=0.5)
    scan = ic_scan(
        ds, ModelSpec(), [TermSpec("x", differenced=False, max_lag=1)], COUNTRY_YEAR,
        direction="forward",
    )
    # 2 lag depths x 2 criteria x 2 adjusted flags
    assert len(scan.entries) == 8
    aic_plain = [e for e in scan.entries if e.criterion == "AIC" and not e.adjusted]
    assert all(e.delta < 0 for e in aic_plain)  # predictive term improves the fit


def test_ic_scan_fits_rho_once_per_model(rng, monkeypatch):
    # adjusted AIC and BIC share one rho fit, and so one boundary warning;
    # test_absorption checks the entries against information_criterion
    from clusterpanel import modelselect

    calls = []

    def counting_fit_rho(*args):
        calls.append(args)
        return fit_rho(*args)

    monkeypatch.setattr(modelselect, "fit_rho", counting_fit_rho)
    ds = _xy_dataset(rng, R=8, T=10, slope=1.0, noise=0.5)
    ic_scan(ds, ModelSpec(), [TermSpec("x", differenced=False, max_lag=1)], COUNTRY_YEAR)
    assert len(calls) == 3  # the reference model and two lag depths


def test_ic_scan_backward_has_trivial(rng):
    ds = _xy_dataset(rng, R=8, T=10, slope=1.0, noise=0.5)
    full = ModelSpec(terms=(TermSpec("x", differenced=False, max_lag=1),))
    scan = ic_scan(ds, full, [], COUNTRY_YEAR, direction="backward",
                   criteria=("AIC",), adjusted_flags=(False,))
    assert [e.lag_depth for e in scan.entries] == [0, None, None]
    assert scan.entries[-1].term == "(trivial)"


def test_backward_scan_spurious_benchmark_prefers_trivial():
    # spurious multi-lag predictor over block-correlated noise: with folding
    # that respects the blocks, shrinking wins and the trivial model usually
    # has the smallest loss (frozen seeds; deterministic counts)
    from clusterpanel.panel import COUNTRY, YEAR
    from clusterpanel.simstudy import DgpConfig, generate_panel

    bench = DgpConfig(n_regions=200, n_years=15, beta_true=0.0, countries=5,
                      predictor_sharing="country_year", predictor_shared_weight=0.8,
                      noise_sharing="country_year", noise_shared_weight=0.8,
                      with_centroids=False)
    full = ModelSpec(terms=(TermSpec("x", differenced=False, max_lag=5),))
    below_full = 0
    minimal = 0
    for seed in range(10):
        ds = generate_panel(bench, (2000, seed))
        for scheme in (COUNTRY, YEAR):
            scan = cv_scan(ds, full, [], scheme, K=5, seed=seed, direction="backward")
            trivial_loss = [e.loss for e in scan.entries if e.term == "(trivial)"][0]
            below_full += trivial_loss < scan.reference_loss
            minimal += trivial_loss <= min(e.loss for e in scan.entries)
    assert below_full >= 16  # 17/20 with the frozen seeds
    assert minimal >= 11     # 13/20 with the frozen seeds
