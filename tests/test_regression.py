import numpy as np
import pytest
from scipy import linalg as sla
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
from clusterpanel import bootstrap
from clusterpanel.bootstrap import _replicate_streams
from clusterpanel.regression import (
    _PIVOT_MIN,
    _RANK_MARGIN,
    CovarianceEstimate,
    RankDeficientError,
    _gram_accepted,
    _t_quantile,
    clustered_cov,
    confidence_intervals,
    ols_fit,
    readout,
    term_response_curve,
)
from clusterpanel.simstudy import SLOPE_SPEC, DgpConfig, generate_panel

from conftest import dense_bread, design_from_arrays, fit_on, grid_dataset


def custom_scheme():
    return ClusterScheme.parse("custom:g")


def dense_sandwich(X, r, groups, correction="CR0"):
    """Dense oracle: materialize the block-diagonal Sigma-hat and evaluate
    (X'X)^-1 X' Sigma X (X'X)^-1 directly, (X'X)^-1 from X's QR triangle."""
    n, p = X.shape
    sigma = np.zeros((n, n))
    for g in set(groups):
        m = np.array([x == g for x in groups])
        rg = r[m]
        sigma[np.ix_(m, m)] = np.outer(rg, rg)
    bread = dense_bread(X)
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


def _lapack_fit(X, y):
    """(rank, offending columns, coefficients) from LAPACK's pivoted QR of the
    rows (dgeqp3) and a triangular solve, under ``ols_fit``'s rank rule: the
    oracle of its QR of [X y] with pivoting on the triangle."""
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * max(X.shape) * np.finfo(float).eps))
    beta = np.empty(X.shape[1])
    if rank == X.shape[1]:
        beta[piv] = sla.solve_triangular(R, Q.T @ y)
    return rank, [f"c{j}.l0" for j in piv[rank:]], beta


def _ols_outcome(X, y):
    try:
        fit = ols_fit(design_from_arrays(X, y))
    except RankDeficientError as err:
        return X.shape[1] - len(err.columns), list(err.columns), None
    return X.shape[1], [], fit.beta


@pytest.mark.parametrize("scaled", [False, True])
def test_ols_fit_matches_lapack_pivoted_qr(rng, scaled):
    # badly scaled: column norms from 1e-6 to 1e6 in shuffled order, each
    # column contributing alike to y
    for n, k in [(12, 1), (50, 5), (400, 30), (3000, 45)]:
        scale = rng.permutation(np.logspace(-6, 6, k)) / np.sqrt(n) if scaled else np.ones(k)
        X = rng.standard_normal((n, k)) * scale
        y = X @ (rng.standard_normal(k) / scale) + rng.standard_normal(n)
        rank, names, beta = _lapack_fit(X, y)
        assert (rank, names) == (k, [])
        np.testing.assert_allclose(_ols_outcome(X, y)[2], beta, rtol=1e-10)


def _first_copies(X, names):
    """``names`` with each column of X replaced by its first exact copy."""
    columns = [int(name[1:-3]) for name in names]
    return [f"c{next(i for i in range(j + 1) if np.array_equal(X[:, i], X[:, j]))}.l0"
            for j in columns]


def test_ols_fit_matches_lapack_on_collinear_designs(rng):
    # one exact dependency at column scales from 1e-3 to 1e3: a zero column
    # or a combination of two columns, named as LAPACK names it, or a copy of
    # a column, where either copy may be named
    for case in range(45):
        n, k = int(rng.integers(15, 600)), int(rng.integers(3, 40))
        X = rng.standard_normal((n, k)) * rng.permutation(np.logspace(-3, 3, k))
        a, b, c = rng.choice(k, 3, replace=False)
        X[:, a] = (X[:, b], 0.0, X[:, b] * 0.25 + X[:, c] * 0.5)[case % 3]
        y = rng.standard_normal(n)
        rank, names, _ = _lapack_fit(X, y)
        got_rank, got_names, _ = _ols_outcome(X, y)
        assert got_rank == rank == k - 1
        if case % 3:
            assert got_names == names
        else:
            assert _first_copies(X, got_names) == _first_copies(X, names) == [f"c{min(a, b)}.l0"]


def test_ols_fit_names_the_later_copy_of_a_column(rng):
    # the two largest columns are copies: their norms tie, the first in
    # column order is pivoted first and the later one named, as by dgeqp3
    for _ in range(20):
        n, k = int(rng.integers(20, 500)), int(rng.integers(3, 30))
        X = rng.standard_normal((n, k))
        a, b = sorted(rng.choice(k, 2, replace=False))
        X[:, a] = X[:, b] = 10.0 * rng.standard_normal(n)
        named = _ols_outcome(X, rng.standard_normal(n))[1]
        assert named == _lapack_fit(X, X[:, 0])[1] == [f"c{b}.l0"]


def _dpstrf_accepts(A, spread, n):
    """The Gram acceptance rule as LAPACK's pivoted Cholesky (dpstrf) applied
    it: full rank at tol _PIVOT_MIN, and the smallest pivot over the spread
    of the squared column norms at least _RANK_MARGIN (k eps n)^2."""
    U, _, rank, _ = sla.lapack.dpstrf(A, tol=_PIVOT_MIN)
    k = len(A)
    return rank == k and np.diag(U).min() ** 2 / spread >= (
        _RANK_MARGIN * (k * np.finfo(float).eps * n) ** 2)


def test_gram_acceptance_never_exceeds_pivoted_cholesky(rng):
    # near-singular Grams: columns share a common part up to noise of 1e-7
    # to 1e-1, under column scales spread up to 1e6 and n up to 1e7 weighted
    # rows; the shifted Cholesky may reject more, never accept more
    verdicts = []
    for _ in range(600):
        m, k = int(rng.integers(8, 120)), int(rng.integers(1, 25))
        X = rng.standard_normal((m, 1)) + 10.0 ** rng.uniform(-7, -1) * rng.standard_normal((m, k))
        X *= 10.0 ** rng.uniform(0, rng.uniform(0, 6), k)
        A = X.T @ X
        d = np.diag(A)
        A_eq = A / np.sqrt(d) / np.sqrt(d)[:, None]
        spread, n = d.max() / d.min(), max(m, int(10.0 ** rng.uniform(1, 7)))
        verdicts.append((_gram_accepted(A_eq, spread, n), _dpstrf_accepts(A_eq, spread, n)))
    assert all(old for new, old in verdicts if new)
    assert sum(new for new, _ in verdicts) > 50 and sum(not old for _, old in verdicts) > 50


# ---------------------------------------------------------------------------
# Clustered covariance
# ---------------------------------------------------------------------------


def test_singleton_clusters_reproduce_hc0(rng):
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    d = design_from_arrays(X, y, cluster_keys=range(40))
    fit = ols_fit(d)
    cov = clustered_cov(fit, assign_clusters(d, custom_scheme()), correction="CR0")
    bread = dense_bread(X)
    hc0 = bread @ (X * fit.residuals[:, None] ** 2).T @ X @ bread
    np.testing.assert_allclose(cov.cov, hc0, atol=1e-12 * np.abs(hc0).max())


def test_single_cluster_degenerates_to_zero(rng):
    X = np.column_stack([np.ones(25), rng.standard_normal(25)])
    y = rng.standard_normal(25)
    d = design_from_arrays(X, y, cluster_keys=[0] * 25)
    fit = ols_fit(d)
    with pytest.warns(UserWarning, match="G=1 degenerate"):
        cov = clustered_cov(fit, assign_clusters(d, custom_scheme()), correction="CR0")
    assert np.abs(cov.cov).max() < 1e-12


def test_matches_dense_block_diagonal_oracle(rng):
    X = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    y = rng.standard_normal(200)
    groups = list(np.repeat(np.arange(10), 20))
    d = design_from_arrays(X, y, cluster_keys=groups)
    fit = ols_fit(d)
    with pytest.warns(UserWarning, match="unreliable"):
        cov = clustered_cov(fit, assign_clusters(d, custom_scheme()), correction="CR0")
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
            cov = clustered_cov(fit, assign_clusters(d, custom_scheme()), correction="CR0")
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
        cr0 = clustered_cov(fit, clusters, correction="CR0")
        cr1 = clustered_cov(fit, clusters, correction="CR1")
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
        cov1 = clustered_cov(f1, assign_clusters(d1, custom_scheme()))
        cov2 = clustered_cov(f2, assign_clusters(d2, custom_scheme()))
    np.testing.assert_allclose(cov2.cov, c**2 * cov1.cov, rtol=1e-12)
    t1 = f1.beta / confidence_intervals(f1, cov1).se
    t2 = f2.beta / confidence_intervals(f2, cov2).se
    np.testing.assert_allclose(t2, t1, rtol=1e-12)


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------


def _unit_cov(G, p=2):
    return CovarianceEstimate(cov=np.eye(p), variances=np.ones(p), scheme=REGION, correction="CR1",
                              G=G)


def _zero_fit(p=2):
    return fit_on(design_from_arrays(np.zeros((10, p)), np.zeros(10)))


def test_interval_half_width_normal_limit():
    ci = confidence_intervals(_zero_fit(), _unit_cov(G=10**7), level=0.95)
    np.testing.assert_allclose(ci.upper, 1.959964, atol=1e-4)


def test_interval_half_width_small_g():
    ci = confidence_intervals(_zero_fit(), _unit_cov(G=5), level=0.95)
    q = stats.t.ppf(0.975, 4)
    assert q == pytest.approx(2.7764451051977987, rel=1e-12)
    np.testing.assert_allclose(ci.upper, q, rtol=1e-12)


# Student-t quantiles at the double level itself (mpmath.mpf of a double is
# exact), keyed by df = G - 1. Computed with mpmath at 60 digits by
# root-finding on the regularized incomplete beta, P(|T| > t) =
# I_{df/(df+t^2)}(df/2, 1/2), against 1 - level above one half and
# P(|T| <= t) = I_{t^2/(df+t^2)}(1/2, df/2) against level otherwise. Every CI
# bound in the fit and simulate goldens scales with these values; rel=1e-15 is
# a few ulp. The levels 0.01, 0.999 and 0.9999 need the smaller of P(|T| <= t)
# and P(|T| > t) solved for directly, against a target that is exact: solved
# at the rounded 0.5 + level/2 instead, t moves by up to 1.1e-13 relative at
# 0.999 and G = 2.
T_QUANTILES = {
    (1, 0.95): "12.7062047361746933141",
    (1, 0.90): "6.313751514675044524243",
    (2, 0.95): "4.30265272974946178942",
    (2, 0.90): "2.919985580353726066123",
    (9, 0.95): "2.262157162798204999203",
    (9, 0.90): "1.833112932656237308474",
    (29, 0.95): "2.045229642132703874521",
    (29, 0.90): "1.699127026533497867174",
    (74, 0.95): "1.99254349518093230523",
    (74, 0.90): "1.665706892734023736782",
    (999, 0.95): "1.962341461133449597549",
    (999, 0.90): "1.64638034542753575464",
    (1, 0.999): "636.6192487687190507777",
    (2, 0.999): "31.59905457644360667886",
    (29, 0.999): "3.6594050194663325228",
    (999, 0.999): "3.300292440398735225268",
    (3, 0.01): "0.01360405469103667865766",
    (3, 0.5): "0.7648923284043452806575",
    (3, 0.99): "5.840909309733355411261",
    (3, 0.9999): "28.00013001095000607318",
    (4, 0.01): "0.0133338271923206426508",
    (4, 0.5): "0.7406970841126826329844",
    (4, 0.99): "4.604094871349992045905",
    (4, 0.9999): "15.54410058154611331216",
    (49, 0.01): "0.0125975849103518946938",
    (49, 0.5): "0.6795296452626507603085",
    (49, 0.99): "2.679951973631551700149",
    (49, 0.9999): "4.235725936988711984188",
    (2499, 0.01): "0.01253472361626252983569",
    (2499, 0.5): "0.6745879361640972908075",
    (2499, 0.99): "2.577798125022686333406",
    (2499, 0.9999): "3.896881567383580756523",
    (36999, 0.01): "0.0125335542095526950049",
    (36999, 0.5): "0.6744963811070410102514",
    (36999, 0.99): "2.575962193259197965822",
    (36999, 0.9999): "3.891016137261021493038",
    (99999, 0.01): "0.01253350084701776258379",
    (99999, 0.5): "0.6744922035778261027639",
    (99999, 0.99): "2.575878470400052342952",
    (99999, 0.9999): "3.890748846955445135876",
}
T_LEVELS = [0.01, 0.1, 0.5, 0.68, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9999]
T_CLUSTERS = [*range(2, 65), 100, 250, 500, 1000, 2500, 10**4, 10**5]


@pytest.mark.parametrize("df,level", sorted(T_QUANTILES))
def test_t_quantile_matches_high_precision_constants(df, level):
    expected = float(T_QUANTILES[(df, level)])
    assert _t_quantile(level, df + 1) == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize("level", T_LEVELS)
def test_t_quantile_equals_scipy_stats_t_ppf(level):
    # scipy.stats.t.ppf is an independent implementation, equal to rel 1e-12:
    # at level 0.01 and G = 5 it is itself 7.5e-13 from the 60-digit constant
    # in T_QUANTILES, which _t_quantile matches to 1e-16.
    G = np.array(T_CLUSTERS)
    expected = stats.t.ppf(0.5 + level / 2.0, G - 1)
    got = np.array([_t_quantile(level, int(g)) for g in G])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_t_quantile_rises_with_level():
    levels = np.linspace(0.0, 1.0, 2001)[1:-1]
    for G in (2, 3, 4, 30, 10**5):
        assert np.all(np.diff([_t_quantile(float(lv), G) for lv in levels]) > 0), G


def test_t_quantile_falls_with_clusters():
    for level in T_LEVELS:
        assert np.all(np.diff([_t_quantile(level, G) for G in T_CLUSTERS]) < 0), level


def test_t_quantile_at_the_ends_of_the_level_range():
    # 1 - level is exact: the largest level below 1 has the finite t whose
    # two-sided tail is 2^-53 (60 digits by mpmath, as T_QUANTILES), and the
    # smallest subnormal level gives the double nearest level / f(0), f the
    # density of |T| (f(0) = 0.79 at 29 d.o.f.)
    top = _t_quantile(np.nextafter(1.0, 0.0), 30)
    assert top == pytest.approx(17.08981489072218412873, rel=1e-15, abs=0)
    assert 2.0 * stats.t.sf(top, 29) == pytest.approx(2.0 ** -53, rel=1e-12)
    assert _t_quantile(5e-324, 30) == 5e-324


def test_readout_is_estimate_plus_minus_t_times_se():
    estimate, variance = np.array([1.0, -2.0, 0.5, 3.0]), np.array([4.0, 0.0, -1e-20, np.nan])
    got = readout(estimate, variance, 5, 0.9)
    q = stats.t.ppf(0.95, 4)
    np.testing.assert_array_equal(got.estimate, estimate)
    np.testing.assert_array_equal(got.se, [2.0, 0.0, 0.0, np.nan])  # a negative rounding is 0
    np.testing.assert_allclose(got.lower, [1.0 - 2 * q, -2.0, 0.5, np.nan], rtol=1e-15)
    np.testing.assert_allclose(got.upper, [1.0 + 2 * q, -2.0, 0.5, np.nan], rtol=1e-15)
    with pytest.raises(ValueError, match="at least 2 clusters"):
        readout(estimate, variance, 1, 0.9)
    # confidence_intervals is the read-out of the coefficients and their variances
    cov = _unit_cov(G=5)
    want = readout(_zero_fit().beta, cov.variances, 5, 0.95)
    for a, b in zip(confidence_intervals(_zero_fit(), cov), want, strict=True):
        np.testing.assert_array_equal(a, b)


def test_interval_rejects_nonpositive_variance():
    cov = CovarianceEstimate(cov=np.diag([1.0, -1e-6]), variances=np.array([1.0, -1e-6]),
                             scheme=REGION, correction="CR0", G=5)
    with pytest.raises(ValueError, match="nonpositive"):
        confidence_intervals(_zero_fit(), cov)


def test_interval_level_validation():
    with pytest.raises(ValueError, match="level"):
        confidence_intervals(_zero_fit(), _unit_cov(G=5), level=1.5)


# ---------------------------------------------------------------------------
# Response curves
# ---------------------------------------------------------------------------


def _curve_fit(beta, labels):
    return fit_on(design_from_arrays(np.zeros((10, len(beta))), np.zeros(10), labels=labels),
                  beta, r_squared=0.5)


def test_cumulative_effects_plain_term():
    labels = [ColumnLabel(kind="base", term="d.v", lag=0),
              ColumnLabel(kind="base", term="d.v", lag=1)]
    fit = _curve_fit([0.1, -0.1], labels)
    cov = CovarianceEstimate(cov=np.eye(2) * 0.01, variances=np.full(2, 0.01), scheme=REGION,
                             correction="CR1", G=30)
    curve = term_response_curve(fit, cov, TermSpec("v", differenced=True, max_lag=1))
    assert curve.points.estimate.tolist() == pytest.approx([0.1, 0.0])
    # variance of the lag-1 cumulative sum is c' I c * 0.01 with c = (1, 1)
    assert curve.points.se[1] == pytest.approx(np.sqrt(0.02))


def test_zero_moderator_value_nulls_interactions():
    labels = [
        ColumnLabel(kind="base", term="d.v", lag=0, moderator="m"),
        ColumnLabel(kind="base", term="d.v", lag=1, moderator="m"),
        ColumnLabel(kind="interaction", term="d.v", lag=0, moderator="m"),
        ColumnLabel(kind="interaction", term="d.v", lag=1, moderator="m"),
    ]
    fit = _curve_fit([0.5, 0.25, 99.0, -99.0], labels)
    cov = CovarianceEstimate(cov=np.eye(4), variances=np.ones(4), scheme=REGION, correction="CR1",
                             G=30)
    term = TermSpec("v", differenced=True, moderator="m", max_lag=1)
    curve = term_response_curve(fit, cov, term, moderator_value=0.0)
    assert curve.points.estimate.tolist() == pytest.approx([0.5, 0.75])


def test_missing_term_errors():
    labels = [ColumnLabel(kind="base", term="d.v", lag=0)]
    fit = _curve_fit([0.1], labels)
    cov = CovarianceEstimate(cov=np.eye(1), variances=np.ones(1), scheme=REGION, correction="CR1",
                             G=30)
    with pytest.raises(ValueError, match="not in the fitted model"):
        term_response_curve(fit, cov, TermSpec("w", differenced=True))
    with pytest.raises(ValueError, match="horizon"):
        term_response_curve(fit, cov, TermSpec("v", differenced=True, max_lag=0), horizon=3)
    for horizon in (-1, -3):
        with pytest.raises(ValueError, match=r"horizon -\d outside the fitted lags 0\.\.0"):
            term_response_curve(fit, cov, TermSpec("v", differenced=True), horizon=horizon)


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
        cov = clustered_cov(fit, clusters, correction="CR1")
        ci = confidence_intervals(fit, cov, 0.95)
        hits += ci.lower[1] <= cfg.beta_true <= ci.upper[1]
    assert hits / reps == pytest.approx(0.95, abs=0.035)


def test_residuals_plus_fitted_reconstruct_outcome(rng):
    X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
    y = rng.standard_normal(60)
    fit = ols_fit(design_from_arrays(X, y))
    np.testing.assert_allclose(fit.residuals + X @ fit.beta, y, rtol=0, atol=1e-14)


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
        se_cy, se_r = (confidence_intervals(fit, clustered_cov(fit, assign_clusters(d, s))).se[1]
                       for s in (COUNTRY_YEAR, REGION))
        wider += se_cy > se_r
    assert wider >= 9


# ---------------------------------------------------------------------------
# Replicate streams against np.random.default_rng
# ---------------------------------------------------------------------------

STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7]


def _assert_streams_draw_like(streams, seeds):
    # each stream a normal block then an odd-length integer draw, which leaves
    # a buffered 32-bit half the next stream must not inherit
    taken = 0
    for gen, seed in zip(streams, seeds):
        want = np.random.default_rng(seed)
        assert gen.bit_generator.state == want.bit_generator.state, seed
        assert gen.standard_normal(11).tobytes() == want.standard_normal(11).tobytes(), seed
        assert gen.integers(0, 7, size=7).tolist() == want.integers(0, 7, size=7).tolist(), seed
        assert gen.standard_normal(3).tobytes() == want.standard_normal(3).tobytes(), seed
        taken += 1
    assert taken == len(seeds) and next(streams, None) is None


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=str)
def test_replicate_streams_draw_like_default_rng_of_seed_rep(seed):
    # the first replicates and the last below 2**32, each one entropy word;
    # 2**100 + 7 is four words, so with a replicate one past the 4-word pool
    for reps in (range(4), range(2**32 - 3, 2**32)):
        _assert_streams_draw_like(_replicate_streams(seed, reps), [(seed, rep) for rep in reps])


@pytest.mark.parametrize(
    "seed", [*STREAM_SEEDS, (17, 4), (5, 2**40, 0), (), (2**64 + 3, 2**32 - 1),
             (2**100 + 7, 2**64 + 3, 9), (2**100 + 7,) * 3], ids=str)
def test_replicate_streams_draw_like_default_rng_of_a_bare_seed(seed):
    # the last two are 8 and 12 entropy words, mixed in past the pool
    _assert_streams_draw_like(_replicate_streams(seed), [seed])


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_seeding_passes_do_not_change_a_stream(rows, monkeypatch):
    monkeypatch.setattr(bootstrap, "_SEED_ROWS", rows)
    seed, reps = (2**100 + 7, 12), range(5, 15)
    _assert_streams_draw_like(_replicate_streams(seed, reps), [(seed, rep) for rep in reps])


def test_cluster_draws_of_every_stream_match_the_oracle():
    G, seed = 13, 2**40 + 5
    got = [gen.integers(0, G, size=G).tolist() for gen in _replicate_streams(seed, range(50))]
    assert got == [np.random.default_rng((seed, b)).integers(0, G, size=G).tolist()
                   for b in range(50)]


@pytest.mark.parametrize(
    "seed, reps, message",
    [(-1, None, "a non-negative integer or a tuple of them: -1"),
     ((3, -2), None, r"a non-negative integer or a tuple of them: \(3, -2\)"),
     (1.5, None, "a non-negative integer"),
     ("7", range(2), "a non-negative integer"),
     (True, None, "a non-negative integer"),
     (None, None, "a non-negative integer"),
     ((3, (4, 5)), None, "a non-negative integer"),
     (0, range(2**32 - 1, 2**32 + 1), r"reach outside \[0, 2\*\*32\)"),
     (0, range(2**32, 2**32 + 1), "reach outside"),
     (0, range(-1, 2), "reach outside")],
    ids=["negative", "negative_in_tuple", "float", "str", "bool", "none", "nested_tuple",
         "rep_2_32", "rep_past_2_32", "negative_rep"])
def test_replicate_streams_reject_what_would_wrap_by_name(seed, reps, message):
    with pytest.raises(ValueError, match=message):
        next(_replicate_streams(seed, reps))
