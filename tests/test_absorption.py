"""The absorbed region effect against the dense region-dummy oracle.

Designs carry no region dummy columns: the fit partials the region effect
out and recovers it, CV folds and bootstrap replicates refit under cluster
weights from ``ClusterMoments``.  Every numeric path is compared here with
the dense computation it replaced, kept as test code: the full dummy matrix
(``conftest.dense_X``, ``conftest.dense_dummies``), pivoted QR or ``lstsq``
on it, the dense sandwich, per-fold dummy rebuilds, the row-concatenating
bootstrap replicate, and the dense scenario product.  The cluster moments
are also compared with the row path they replaced (``Absorbed`` under row
weights).  Agreement is to 1e-10 relative.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import linalg as sla

from clusterpanel.bootstrap import block_bootstrap, build_scenario_path, project_scenarios
from clusterpanel import modelselect, regression
from clusterpanel.modelselect import (
    _cv_results,
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
)
from clusterpanel.regression import (
    Absorbed,
    ClusterMoments,
    FitResult,
    _t_quantile,
    clustered_cov,
    confidence_intervals,
    ols_fit,
)

from conftest import dense_dummies, dense_X, keep_grid, obs, panel_from, row_keys
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
    within every region.  The gappy panel adds late entry, interior gaps and
    NaN outcomes."""
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
                               {"x": x, "m": m, "z": z, "c": z_level},
                               custom={"blk": f"b{(i + t) % 5}"}))
    return panel_from(records, predictor_names=("x", "m", "z", "c"))


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


def _dense_sandwich(X, e, clusters):
    n, p = X.shape
    G = clusters.n_clusters
    bread = np.linalg.inv(X.T @ X)
    scores = np.zeros((G, p))
    np.add.at(scores, clusters.row_cluster, X * e[:, None])
    return bread @ scores.T @ scores @ bread * (G / (G - 1.0)) * ((n - 1.0) / (n - p))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("gappy", [False, True])
@pytest.mark.parametrize("intercept", [True, False])
def test_fit_sandwich_and_intervals_match_dense(gappy, intercept):
    design = build_design(_panel(gappy), _spec(intercept))
    assert design.X.shape[1] == design.p - len(design.region_slots) and design.region_slots
    X = dense_X(design)
    beta, e = _dense_fit(X, design.y)
    fit = ols_fit(design)
    _close(fit.beta, beta)
    _close(fit.residuals, e)
    _close(fit.fitted, design.y - e)
    assert fit.p == X.shape[1]
    for scheme in SCHEMES:
        clusters = assign_clusters(design, scheme)
        V = _dense_sandwich(X, e, clusters)
        cov = clustered_cov(fit, design, clusters)
        np.testing.assert_allclose(cov.standard_errors, np.sqrt(np.diag(V)), rtol=RTOL)
        slots = list(design.x_slots)
        _close(cov.cov[np.ix_(slots, slots)], V[np.ix_(slots, slots)])
        half = _t_quantile(0.95, clusters.n_clusters) * np.sqrt(np.diag(V))
        _close(confidence_intervals(fit, cov), np.column_stack([beta - half, beta + half]))


def test_r_squared_matches_dense():
    design = build_design(_panel(True), _spec(True))
    _, e = _dense_fit(dense_X(design), design.y)
    dev = design.y - design.y.mean()
    assert ols_fit(design).r_squared == pytest.approx(1.0 - (e @ e) / (dev @ dev), rel=RTOL)


def test_rank_deficiency_names_a_term_column():
    # z is constant within every region but R00 and R01; dropping those two
    # makes it collinear with the absorbed region effect
    ds = _panel(False)
    keep = keep_grid(ds, [(r, 2000 + t) for r in ds.regions[2:] for t in range(12)])
    design = build_design(ds, _spec(True), keep_rows=keep)
    with pytest.raises(Exception, match="offending columns: z.l0"):
        ols_fit(design)


# ---------------------------------------------------------------------------
# cross-validation and information criteria
# ---------------------------------------------------------------------------


def _dense_cv(design, scheme, K, seed):
    """The per-fold dense CV: dummies rebuilt on the training rows, the
    validation rows encoded against the training levels.  Returns
    (loss, rank deficient, unseen levels)."""
    core = design.X[:, [j for j, lab in enumerate(design.x_labels) if lab.kind != "dummy"]]
    regions, years = (np.array(v) for v in _row_levels(design))
    clusters = assign_clusters(design, scheme)
    plan = make_folds(clusters, K, seed)
    row_folds = np.array([plan.assignment[k] for k in clusters.keys])[clusters.row_cluster]
    sse, n_val, unseen, deficient = 0.0, 0, 0, False
    for k in range(K):
        va, tr = row_folds == k, row_folds != k
        D_tr, _, levels, _, _ = dense_dummies(list(regions[tr]), list(years[tr]),
                                              design.fixed_effects)
        D_va, _, _, fold_unseen, _ = dense_dummies(list(regions[va]), list(years[va]),
                                                   design.fixed_effects, levels=levels)
        X_tr = np.hstack([core[tr], D_tr])
        beta, _, rank, _ = np.linalg.lstsq(X_tr, design.y[tr], rcond=None)
        deficient |= rank < X_tr.shape[1]
        err = design.y[va] - np.hstack([core[va], D_va]) @ beta
        sse += float(err @ err)
        n_val += int(va.sum())
        unseen += fold_unseen
    return sse / n_val, deficient, unseen


# (gappy panel, base, candidates, direction); the collinear cases' entries
# with the second candidate are rank deficient: it duplicates the base term,
# or is constant within regions, collinear with the region effect, where the
# minimum-norm solution counts the region effects in its norm
COLLINEAR = ("forward_duplicate_region_only", "forward_region_collinear")
CV_CASES = {
    "forward_two_way": (False, ModelSpec(fixed_effects=("region", "year")), [X_MOD, Z0],
                        "forward"),
    "backward_two_way_gappy": (True, _spec(True), [], "backward"),
    "backward_no_intercept_gappy": (True, _spec(False), [], "backward"),
    "forward_duplicate_region_only": (True, ModelSpec(terms=(Z0,), fixed_effects=("region",)),
                                      [X_MOD, Z0], "forward"),
    "forward_region_collinear": (True, _spec(True), [X_MOD, TermSpec("c", differenced=False)],
                                 "forward"),
}


@pytest.mark.parametrize("case", sorted(CV_CASES))
def test_cv_scan_matches_dense_cv(case):
    gappy, base, candidates, direction = CV_CASES[case]
    ds = _panel(gappy)
    union, reference, variants = _oracle_sequence(base, candidates, direction)
    rows = _rows_of(build_design(ds, union))
    for scheme, K in ((REGION, 4), (YEAR, 3), (COUNTRY_YEAR, 4)):
        scan = cv_scan(ds, base, candidates, scheme, K, seed=3, direction=direction)

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
        res = cv_loss(ds, spec, scheme, K=3, seed=1)
        loss, _, unseen = _dense_cv(build_design(ds, spec), scheme, 3, 1)
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
        fit = FitResult(beta=beta, residuals=e, fitted=design.y - e, r_squared=0.0,
                        n=design.n, p=X.shape[1], column_labels=design.column_labels)
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
    core = [j for j, lab in enumerate(design.column_labels) if lab.kind != "dummy"]
    X = dense_X(design)
    regions, years = (np.array(v) for v in _row_levels(design))
    D, labels, _, _, re_referenced = dense_dummies(
        list(regions[rows]), list(years[rows]), design.fixed_effects,
        levels=design.fe_levels, restrict_to_present=True,
    )
    Xb = np.hstack([X[rows][:, core], D])
    beta, _, rank, _ = np.linalg.lstsq(Xb, design.y[rows], rcond=None)
    if rank < Xb.shape[1]:
        return None
    slot = {name: j for j, name in enumerate(design.column_names)}
    vec = np.full(design.p, math.nan)
    vec[core] = beta[: len(core)]
    for j, lab in enumerate(labels):
        if lab.effect not in re_referenced:
            vec[slot[lab.name]] = beta[len(core) + j]
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
        intercept = sample.column_names.index("intercept")
        assert np.isnan(sample.draws[:, intercept]).any()  # reference year absent


def _dense_projection(sample, future, spec, template):
    """Scenario rows encoded with dense dummies against the template's
    levels, multiplied into every draw; untouched NaN columns count 0."""
    core_spec = ModelSpec(terms=spec.terms, intercept=spec.intercept)
    core = build_design(future, core_spec, require_outcome=False)
    regions, years = _row_levels(core)
    D, *_ = dense_dummies(regions, years, template.fixed_effects, levels=template.fe_levels)
    X = np.hstack([core.X, D])
    draws = sample.draws.copy()
    untouched = np.all(X == 0.0, axis=0)
    cols = draws[:, untouched]
    cols[np.isnan(cols)] = 0.0
    draws[:, untouched] = cols
    per_row = X @ draws.T
    years = np.array(years)
    return np.column_stack([per_row[years == t].mean(axis=0) for t in sorted(set(years))])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scheme", [REGION, YEAR], ids=lambda s: s.label)
def test_projection_matches_dense_product(scheme):
    ds = _panel(True)
    spec = _spec(True)
    sample = block_bootstrap(ds, spec, scheme, 40, seed=2)
    template = build_design(ds, spec)
    # history years inside the panel touch year dummies; R99 is unseen; the
    # regions' paths end in different years, so a draw missing one region's
    # effect must drop out of every year, not only of that region's years
    records = [obs(r, "C0", year, math.nan, {"x": 0.1 * (year - 2008) + i, "m": 1.0, "z": 0.5})
               for i, r in enumerate(list(ds.regions[::3]) + ["R99"])
               for year in range(2008, 2012 + i)]
    future = panel_from(records, predictor_names=("x", "m", "z"))
    path = build_scenario_path(future, spec, template, "s")
    assert path.unseen_levels > 0
    got = project_scenarios(sample, path).values
    _close(got, _dense_projection(sample, future, spec, template))
    assert np.isnan(got).any() and np.isfinite(got).any()


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
        se = np.sqrt(np.diag(_dense_sandwich(X, e, clusters)))
        np.testing.assert_allclose([c["se"][label] for c in table["coefficients"]], se, rtol=RTOL)
        half = _t_quantile(table["level"], clusters.n_clusters) * se
        _close([c["ci"][label] for c in table["coefficients"]],
               np.column_stack([beta - half, beta + half]))


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
        fit = FitResult(beta=beta, residuals=e, fitted=design.y - e, r_squared=0.0,
                        n=design.n, p=X.shape[1], column_labels=design.column_labels)
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
    betas, alphas, deficient = [], [], 0
    for w, view in zip(W, moments.weighted(W)):
        rows = Absorbed(design, np.asarray(w)[clusters.row_cluster])
        assert view.re_referenced == rows.re_referenced
        assert (view.kept == rows.kept).all()
        for effect, present in rows.present.items():
            assert (view.present[effect] == present).all()
        got, want = view.solve(cols), rows.solve(cols)
        assert got[0] == want[0]
        assert (got[2] < len(got[0])) == (want[2] < len(want[0]))
        if want[2] < len(want[0]):
            deficient += 1
            continue
        full = np.full((2, design.X.shape[1]), math.nan)
        full[0, got[0]], full[1, want[0]] = got[1], want[1]
        betas.append(full)
        assert (got[3] is None) == (want[3] is None) == ("region" not in effects)
        alphas += [] if want[3] is None else [(got[3], want[3])]
    _column_close([b[0] for b in betas], [b[1] for b in betas])
    if alphas:
        _column_close([a[0] for a in alphas], [a[1] for a in alphas])
    # each deficient fit, and only those, was refitted from the rows
    assert len(row_refits) == deficient
    # with both effects, the cases hold absent levels, re-referenced years
    # and failed refits
    views = moments.weighted(W)
    if "region" in effects:
        assert any(not p.all() for v in views for p in v.present.values())
    if scheme == YEAR and effects:
        assert any("year" in v.re_referenced for v in views)
    if scheme == REGION and "region" in effects:
        assert deficient > 0


def _row_replicate(b, seed, design, clusters):
    """One replicate on the row path: ``Absorbed`` under the drawn clusters'
    multiplicities, as ``block_bootstrap`` refitted before the moments."""
    G = clusters.n_clusters
    (w,) = _replicate_weights(G, b + 1, seed)[b:]
    refit = Absorbed(design, w[clusters.row_cluster])
    cols, theta, rank, alpha = refit.solve(range(design.X.shape[1]))
    if rank < len(cols):
        return None
    vec = np.full(design.p, math.nan)
    vec[np.array(design.x_slots)[cols]] = theta
    if alpha is not None:
        vec[list(design.region_slots)] = alpha[1:]
    if refit.re_referenced:
        vec[[j for j, lab in enumerate(design.column_labels)
             if lab.effect in refit.re_referenced or lab.kind == "intercept"]] = math.nan
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
    for w, view in zip(W, ClusterMoments(design, clusters.row_cluster).weighted(W)):
        got = view.solve(cols)
        want = Absorbed(design, w[clusters.row_cluster]).solve(cols)
        assert got[2] == len(got[0])  # full rank, not a failed refit
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[3], want[3])
    assert len(row_refits) == len(W)


def _row_cv(design, scheme, K, seed, models):
    """(loss, rank deficient, unseen levels) per model on the row path: each
    fold refitted by ``Absorbed`` under 0/1 row weights, as ``_cv_results``
    did before the moments."""
    clusters = assign_clusters(design, scheme)
    plan = make_folds(clusters, K, seed)
    row_folds = np.array([plan.assignment[k] for k in clusters.keys])[clusters.row_cluster]
    years = [j for j, lab in enumerate(design.x_labels) if lab.kind == "dummy"]
    sse, deficient, unseen = np.zeros(len(models)), [False] * len(models), 0
    for k in range(K):
        va = row_folds == k
        fold = Absorbed(design, ~va)
        unseen += sum(int((~fold.present[e][codes[va]]).sum())
                      for e, codes in design.fe_codes.items())
        for m, model in enumerate(models):
            cols, beta, rank, alpha = fold.solve(list(model) + years)
            deficient[m] |= rank < len(cols)
            err = design.y[va] - design.X[va][:, cols] @ beta
            if alpha is not None:
                err -= np.nan_to_num(alpha)[design.fe_codes["region"][va]]
            sse[m] += err @ err
    return [(loss, flag, unseen) for loss, flag in zip(sse / design.n, deficient)]


@pytest.mark.parametrize("case", sorted(CV_CASES))
def test_cv_entries_match_row_path(case):
    gappy, base, candidates, direction = CV_CASES[case]
    ds = _panel(gappy)
    union, reference, variants = _oracle_sequence(base, candidates, direction)
    design = build_design(ds, union)
    terms = [j for j, lab in enumerate(design.x_labels) if lab.kind != "dummy"]
    # the reference, every variant, and each model as a column subset of the union
    models = [terms[:j] for j in range(len(terms) + 1)] + [terms[1:]]
    flags = []
    # region_year clusters hold one row each: with the year dummies the
    # moments would outgrow the rows, every fold is refitted from them, and
    # each model solves its columns of the union's partialled rows
    for scheme, K in ((REGION, 4), (COUNTRY, 3), (YEAR, 3), (COUNTRY_YEAR, 4), (REGION_YEAR, 4)):
        clusters = assign_clusters(design, scheme)
        assert ClusterMoments(design, clusters.row_cluster).rows_only == (
            scheme == REGION_YEAR and "year" in design.fe_codes)
        got = _cv_results(design, scheme, K, 3, models, allow_rank_deficient=True)
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
    scan = cv_scan(_panel(True), base, (X_MOD, Z0), COUNTRY, 3, seed=3)
    assert len(scan.entries) == 3
    assert len(made) == len(calls) == 1
    assert len(calls[0]) == 3  # one training fold per row of weights


def test_cv_scan_refits_each_fold_from_the_rows_once(row_refits):
    # the collinear candidate sends every deficient model of a fold to the
    # row path; the fold's row partialling is built once and shared
    gappy, base, candidates, direction = CV_CASES["forward_region_collinear"]
    scan = cv_scan(_panel(gappy), base, candidates, COUNTRY, 3, seed=3, direction=direction)
    assert any(entry.collinear for entry in scan.entries)
    assert len(row_refits) == 3
