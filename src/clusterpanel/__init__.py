"""Cluster-aware inference for panel regressions.

Clustered standard errors, cluster-respecting cross-validation,
correlation-adjusted information criteria, and the cluster block bootstrap,
plus the residual-correlation diagnostics and Monte Carlo studies that
motivate a clustering choice.
"""

from .panel import (
    COUNTRY,
    COUNTRY_YEAR,
    REGION,
    REGION_YEAR,
    YEAR,
    ClusterAssignment,
    ClusterScheme,
    ColumnLabel,
    CsvSchema,
    DesignMatrix,
    ModelSpec,
    PanelDataset,
    RankDeficientError,
    TermSpec,
    assign_clusters,
    build_design,
    haversine_km,
    load_cached,
    load_csv,
    save_csv,
    term_label,
)
from .regression import (
    CovarianceEstimate,
    FitResult,
    Readout,
    ResponseCurve,
    clustered_cov,
    confidence_intervals,
    linear_readout,
    ols_fit,
    readout,
    term_response_curve,
)
from .residcorr import (
    CorrelationSummary,
    GroupSpec,
    ResidualPanel,
    correlation_table,
    pair_correlations,
    summarize,
)
from .modelselect import (
    EquicorrParams,
    FoldPlan,
    ICResult,
    RhoFit,
    cv_loss,
    cv_scan,
    fit_rho,
    ic_scan,
    information_criterion,
    loglik_equicorr,
    loglik_iid,
    make_folds,
    model_sequence,
)
from .bootstrap import (
    BootstrapSample,
    Projection,
    ScenarioPath,
    block_bootstrap,
    build_scenario_path,
    first_discernible_year,
    project_scenarios,
)
from .simstudy import (
    DgpConfig,
    bias_study,
    coverage_study,
    generate_panel,
)

__version__ = "0.1.0"
