"""Command-line surface: reproducible batch runs over all modules.

Subcommands: fit, corr, cv, ic, bootstrap, project, simulate.  Every run
reads a YAML config, accepts --seed / --threads / --out overrides, writes
its outputs plus a manifest echoing the resolved configuration into the
output directory, and is bit-reproducible from that manifest.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import reports
from .bootstrap import (
    PercentileInterval,
    block_bootstrap,
    build_scenario_path,
    first_discernible_year,
    min_draws,
    percentile_interval,
    project_scenarios,
)
from .modelselect import cv_scan, ic_scan
from .panel import (
    ClusterScheme,
    CsvSchema,
    ModelSpec,
    TermSpec,
    assign_clusters,
    build_design,
    load_csv,
)
from .regression import clustered_cov, ols_fit, term_response_curve
from .residcorr import (
    SPATIAL_KEYS,
    TEMPORAL_KEYS,
    GroupSpec,
    ResidualPanel,
    correlation_table,
)
from .simstudy import DgpConfig, bias_study, coverage_study

COMMANDS = ("fit", "corr", "cv", "ic", "bootstrap", "project", "simulate")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _require(config: dict, key: str) -> dict:
    if key not in config:
        raise ValueError(f"config section {key!r} is missing")
    return config[key]


def _schema(data_cfg: dict, require_outcome: bool = True) -> CsvSchema:
    cols = _require(data_cfg, "columns")
    predictors = _require(data_cfg, "predictors")
    return CsvSchema(
        region=cols["region"],
        country=cols["country"],
        year=cols["year"],
        outcome=cols.get("outcome") if require_outcome else None,
        predictors=dict(predictors),
        lat=cols.get("lat"),
        lon=cols.get("lon"),
        groups=tuple(data_cfg.get("group_columns", ())),
        custom=dict(data_cfg.get("custom_columns", {})),
        delimiter=data_cfg.get("delimiter", ","),
    )


def _load_dataset(config: dict):
    data_cfg = _require(config, "data")
    return load_csv(data_cfg["path"], _schema(data_cfg))


def _term(d: dict) -> TermSpec:
    return TermSpec(
        variable=d["variable"],
        differenced=bool(d.get("differenced", True)),
        moderator=d.get("moderator"),
        max_lag=int(d.get("max_lag", 0)),
    )


def _model(config: dict) -> tuple[ModelSpec, str, int]:
    model_cfg = config.get("model", {})
    spec = ModelSpec(
        terms=tuple(_term(d) for d in model_cfg.get("terms", [])),
        fixed_effects=tuple(model_cfg.get("fixed_effects", ())),
        intercept=bool(model_cfg.get("intercept", True)),
    )
    alignment = model_cfg.get("moderator_alignment", "contemporaneous")
    ceiling = int(model_cfg.get("max_lag_ceiling", 10))
    return spec, alignment, ceiling


def _scheme(text: str) -> ClusterScheme:
    return ClusterScheme.parse(text)


def _safe(label: str) -> str:
    return label.replace(":", "_")


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def cmd_fit(config: dict, out: Path, seed: int, threads: int) -> None:
    dataset = _load_dataset(config)
    spec, alignment, ceiling = _model(config)
    fit_cfg = config.get("fit", {})
    schemes = [_scheme(s) for s in fit_cfg.get("schemes", ["region"])]
    correction = fit_cfg.get("correction", "CR1")
    level = float(fit_cfg.get("level", 0.95))
    design = build_design(
        dataset, spec, moderator_alignment=alignment, max_lag_ceiling=ceiling
    )
    fit = ols_fit(design)
    covs = {}
    for scheme in schemes:
        clusters = assign_clusters(design, scheme)
        covs[scheme.label] = clustered_cov(fit, design, clusters, correction=correction)
    table = reports.coefficient_table(fit, covs, level)
    table["dropped_rows"] = len(design.dropped_rows)
    reports.write_json(out / "coefficients.json", table)
    if spec.terms and bool(fit_cfg.get("response_curves", True)):
        for label, cov in covs.items():
            curves = []
            for term in spec.terms:
                value = dataset.predictor_median(term.moderator) if term.moderator else 0.0
                curves.append(
                    term_response_curve(fit, cov, term, moderator_value=value, level=level)
                )
            reports.write_response_curves(out / f"response_curves_{_safe(label)}.csv", curves)
    print(f"fit: n={fit.n} p={fit.p} R^2={fit.r_squared:.4f} schemes={[s.label for s in schemes]}")


def _group_from_dict(d: dict) -> GroupSpec:
    kind = d.get("kind", "spatial")
    every = SPATIAL_KEYS + TEMPORAL_KEYS
    # an unknown kind is named by GroupSpec
    own = {"spatial": SPATIAL_KEYS, "temporal": TEMPORAL_KEYS}.get(kind, every)
    for key in d:
        if key in every and key not in own:
            raise ValueError(f"corr group key {key!r} does not apply to a {kind} group")
        if key not in ("label", "kind", *own):
            raise ValueError(f"unknown corr group key {key!r}")
    label = d.get("label") or kind
    return GroupSpec(label=label, **{k: v for k, v in d.items() if k != "label"})


def _default_groups(dataset) -> list[GroupSpec]:
    groups = [
        GroupSpec("all", "temporal"),
        GroupSpec("consecutive", "temporal", consecutive=True),
        GroupSpec("all", "spatial"),
        GroupSpec("same country", "spatial", same_country=True),
        GroupSpec("different country", "spatial", different_country=True),
    ]
    if any(dataset.centroid_of(r) is not None for r in dataset.regions):
        groups += [
            GroupSpec("<1000km, same country", "spatial", same_country=True, below_km=1000.0),
            GroupSpec("<1000km, different country", "spatial", different_country=True,
                      below_km=1000.0),
            GroupSpec(">1000km, same country", "spatial", same_country=True, above_km=1000.0),
            GroupSpec(">1000km, different country", "spatial", different_country=True,
                      above_km=1000.0),
        ]
    return groups


def cmd_corr(config: dict, out: Path, seed: int, threads: int) -> None:
    dataset = _load_dataset(config)
    spec, alignment, ceiling = _model(config)
    corr_cfg = config.get("corr", {})
    design = build_design(dataset, spec, moderator_alignment=alignment, max_lag_ceiling=ceiling)
    fit = ols_fit(design)
    panel = ResidualPanel.from_fit(fit, design, dataset)
    if "groups" in corr_cfg:
        groups = [_group_from_dict(d) for d in corr_cfg["groups"]]
    else:
        groups = _default_groups(dataset)
    min_overlap = int(corr_cfg.get("min_overlap", 10))
    summaries = correlation_table(panel, groups, min_overlap=min_overlap)
    reports.write_correlation_table(out / "correlations.csv", summaries)
    print(f"corr: {len(summaries)} groups over {fit.n} residuals")


def _scan_setup(section: dict, spec: ModelSpec) -> tuple[str, ModelSpec, list[TermSpec]]:
    """Direction, base model and candidates of a cv or ic scan: forward scans
    grow the trivial model (fixed effects and intercept kept), backward scans
    shrink the configured model."""
    direction = section.get("direction", "forward")
    base = replace(spec, terms=()) if direction == "forward" else spec
    return direction, base, [_term(d) for d in section.get("candidates", [])]


def cmd_cv(config: dict, out: Path, seed: int, threads: int) -> None:
    dataset = _load_dataset(config)
    spec, alignment, _ = _model(config)
    cv_cfg = _require(config, "cv")
    schemes = [_scheme(s) for s in cv_cfg.get("schemes", [cv_cfg.get("scheme", "region")])]
    K = int(cv_cfg.get("k", 5))
    direction, base, candidates = _scan_setup(cv_cfg, spec)
    rows = []
    summary = {"direction": direction, "k": K, "seed": seed, "schemes": {}}
    for scheme in schemes:
        scan = cv_scan(
            dataset, base, candidates, scheme, K, seed,
            direction=direction, moderator_alignment=alignment,
        )
        summary["schemes"][scheme.label] = {
            "reference_loss": scan.reference_loss,
            "rows_used": scan.rows_used,
            "collinear_entries": sum(e.collinear for e in scan.entries),
        }
        for e in scan.entries:
            rows.append(
                [e.term, "removed" if e.lag_depth is None else e.lag_depth, scheme.label, e.delta_loss]
            )
    reports.write_csv(out / "cv_scan.csv", ["term", "lag_depth", "scheme", "delta_loss"], rows)
    reports.write_json(out / "cv_summary.json", summary)
    print(f"cv: {direction} scan, {len(rows)} entries over {[s.label for s in schemes]}")


def cmd_ic(config: dict, out: Path, seed: int, threads: int) -> None:
    dataset = _load_dataset(config)
    spec, alignment, _ = _model(config)
    ic_cfg = config.get("ic", {})
    block = _scheme(ic_cfg.get("block_scheme", "country_year"))
    direction, base, candidates = _scan_setup(ic_cfg, spec)
    scan = ic_scan(
        dataset,
        base,
        candidates,
        block,
        direction=direction,
        criteria=tuple(ic_cfg.get("criteria", ["AIC", "BIC"])),
        adjusted_flags=tuple(bool(a) for a in ic_cfg.get("adjusted", [False, True])),
        moderator_alignment=alignment,
        count_variance_params=bool(ic_cfg.get("count_variance_params", True)),
    )
    reports.write_ic_scan(out / "ic_scan.csv", scan, block.label)
    reports.write_json(
        out / "ic_summary.json",
        {
            "direction": direction,
            "block_scheme": block.label,
            "rows_used": scan.rows_used,
            "reference": {f"{crit}_adj{int(adj)}": v for (crit, adj), v in scan.reference.items()},
        },
    )
    print(f"ic: {direction} scan, {len(scan.entries)} entries, blocks={block.label}")


def cmd_bootstrap(config: dict, out: Path, seed: int, threads: int) -> None:
    dataset = _load_dataset(config)
    spec, alignment, _ = _model(config)
    boot_cfg = _require(config, "bootstrap")
    scheme = _scheme(boot_cfg.get("scheme", "region"))
    B = int(boot_cfg.get("b", 1000))
    levels = [float(x) for x in boot_cfg.get("levels", [0.9])]
    sample = block_bootstrap(
        dataset, spec, scheme, B, seed, threads=threads, moderator_alignment=alignment
    )
    intervals = {}
    for j, (name, label) in enumerate(zip(sample.column_names, sample.base_fit.column_labels)):
        contrast = np.zeros(len(sample.column_names))
        contrast[j] = 1.0
        used = int(np.isfinite(sample.draws[:, j]).sum())
        # a dummy or the intercept whose level (or reference level) too few
        # resamples hold is reported unresolved rather than failing the run
        intervals[name] = {
            level: PercentileInterval(np.nan, np.nan, np.nan, level, used, len(sample.draws) - used)
            if label.kind in ("intercept", "dummy") and used < min_draws(level)
            else percentile_interval(sample, contrast, level)
            for level in levels
        }
    reports.write_bootstrap_table(out / "bootstrap_coefficients.csv", sample, intervals)
    reports.write_json(
        out / "bootstrap_summary.json",
        {
            "scheme": scheme.label,
            "b": B,
            "seed": seed,
            "failed_refits": sample.failed_refits,
            "sd": {name: float(s) for name, s in zip(sample.column_names, sample.sd())},
        },
    )
    print(f"bootstrap: B={B} scheme={scheme.label} failed={sample.failed_refits}")


def cmd_project(config: dict, out: Path, seed: int, threads: int) -> None:
    dataset = _load_dataset(config)
    spec, alignment, ceiling = _model(config)
    proj_cfg = _require(config, "project")
    scheme = _scheme(proj_cfg.get("scheme", "region"))
    B = int(proj_cfg.get("b", 1000))
    alpha = float(proj_cfg.get("alpha", 0.05))
    levels = [float(x) for x in proj_cfg.get("levels", [0.65, 0.9])]
    aggregation = proj_cfg.get("aggregation", "mean")
    weights = proj_cfg.get("weights")
    start_year = proj_cfg.get("start_year")
    sample = block_bootstrap(
        dataset, spec, scheme, B, seed, threads=threads, moderator_alignment=alignment
    )
    design = build_design(dataset, spec, moderator_alignment=alignment, max_lag_ceiling=ceiling)
    scenario_schema = _schema(_require(config, "data"), require_outcome=False)
    projections = []
    unseen = {}
    for sc in _require(proj_cfg, "scenarios"):
        future = load_csv(sc["path"], scenario_schema)
        path = build_scenario_path(
            future,
            spec,
            design,
            sc["label"],
            moderator_alignment=alignment,
            start_year=int(start_year) if start_year is not None else None,
        )
        unseen[sc["label"]] = path.unseen_levels
        projections.append(
            project_scenarios(sample, path, aggregation=aggregation, weights=weights)
        )
    reports.write_projections(out / "projection.csv", projections, levels)
    verdicts = []
    for i in range(len(projections)):
        for j in range(i + 1, len(projections)):
            year = first_discernible_year(projections[i], projections[j], alpha=alpha)
            verdicts.append(
                {
                    "a": projections[i].label,
                    "b": projections[j].label,
                    "first_discernible_year": year,
                }
            )
    reports.write_json(
        out / "discernibility.json",
        {"alpha": alpha, "pairs": verdicts, "unseen_levels": unseen,
         "failed_refits": sample.failed_refits},
    )
    print(f"project: {len(projections)} scenarios, B={B}, alpha={alpha}")


def cmd_simulate(config: dict, out: Path, seed: int, threads: int) -> None:
    sim_cfg = _require(config, "simulate")
    study = sim_cfg.get("study", "coverage")
    dgp = DgpConfig(
        n_regions=int(sim_cfg["n_regions"]),
        n_years=int(sim_cfg["n_years"]),
        beta_true=float(sim_cfg.get("beta_true", 1.0)),
        predictor_shared_weight=float(sim_cfg.get("predictor_shared_weight", 0.9)),
        noise_shared_weight=float(sim_cfg.get("noise_shared_weight", 0.9)),
        noise_scale=float(sim_cfg.get("noise_scale", 1.0)),
        countries=sim_cfg.get("countries"),
        predictor_sharing=sim_cfg.get("predictor_sharing", "region"),
        noise_sharing=sim_cfg.get("noise_sharing", "year"),
        predictor_spatial_weight=float(sim_cfg.get("predictor_spatial_weight", 0.0)),
        with_centroids=bool(sim_cfg.get("with_centroids", True)),
    )
    reps = int(sim_cfg.get("reps", 1000))
    if study == "coverage":
        schemes = [_scheme(s) for s in sim_cfg.get("schemes", ["region", "year"])]
        report = coverage_study(
            dgp,
            schemes,
            reps=reps,
            level=float(sim_cfg.get("level", 0.95)),
            seed=seed,
            correction=sim_cfg.get("correction", "CR1"),
            threads=threads,
        )
        reports.write_coverage_report(out / "coverage.csv", report)
        print(
            "simulate coverage: "
            + " ".join(f"{r.scheme}={r.coverage:.3f}" for r in report.rows)
        )
    elif study == "bias":
        report = bias_study(
            dgp,
            _scheme(sim_cfg.get("scheme", "year")),
            reps=reps,
            seed=seed,
            correction=sim_cfg.get("correction", "CR0"),
            threads=threads,
        )
        reports.write_bias_report(out / "bias.csv", report)
        print(f"simulate bias: ratio={report.ratio:.4f}")
    else:
        raise ValueError(f"unknown study {study!r}; use 'coverage' or 'bias'")


HANDLERS = {
    "fit": cmd_fit,
    "corr": cmd_corr,
    "cv": cmd_cv,
    "ic": cmd_ic,
    "bootstrap": cmd_bootstrap,
    "project": cmd_project,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterpanel",
        description="Cluster-aware inference for panel regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="YAML config or a previous run's manifest")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: config seed or 0)")
        p.add_argument("--threads", type=int, default=None, help="parallel worker cap (default 1)")
        p.add_argument("--out", default=None, help="output directory (default: config out or ./out/<command>)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, manifest_command, manifest_seed, manifest_threads = reports.load_config(args.config)
        if manifest_command is not None and manifest_command != args.command:
            raise ValueError(
                f"manifest was written by {manifest_command!r}, not {args.command!r}"
            )
        seed = args.seed if args.seed is not None else (
            manifest_seed if manifest_seed is not None else int(config.get("seed", 0))
        )
        threads = args.threads if args.threads is not None else (
            manifest_threads if manifest_threads is not None else int(config.get("threads", 1))
        )
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        out = Path(args.out) if args.out else Path(config.get("out", f"out/{args.command}"))
        out.mkdir(parents=True, exist_ok=True)
        HANDLERS[args.command](config, out, seed, threads)
        reports.write_manifest(out, args.command, seed, threads, config)
    except Exception as exc:  # surface config/module errors with exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
