"""Command-line surface: reproducible batch runs over all modules.

Subcommands: fit, corr, cv, ic, bootstrap, project, simulate.  Every run
reads a YAML config, accepts --seed / --out overrides, writes its outputs
plus a manifest, the command and the resolved configuration, into the output
directory, and is bit-reproducible from that manifest.

``SCHEMA`` holds every config key with its type and default; a key with a
home in the library takes its name and default from there.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import reports
from .bootstrap import (block_bootstrap, build_scenario_path, check_seed, first_discernible_year,
                        project_scenarios, read_intervals)
from .modelselect import cv_scan, ic_scan
from .panel import (ClusterScheme, CsvSchema, ModelSpec, TermSpec, assign_clusters, build_design,
                    check_level, load_cached)
from .regression import clustered_cov, confidence_intervals, ols_fit, term_response_curve
from .residcorr import (DEFAULT_MIN_OVERLAP, SPATIAL_KEYS, TEMPORAL_KEYS, GroupSpec,
                        ResidualPanel, correlation_table)
from .simstudy import DgpConfig, bias_study, coverage_study

COMMANDS = ("fit", "corr", "cv", "ic", "bootstrap", "project", "simulate")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a key that must be given
TOP = "top level"


class Variants(dict):
    """Type of a key whose value selects more keys of its section: the table
    that value maps to.  A key of another value's table does not apply."""


def _list(coerce):
    def parse(value):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return list(dict.fromkeys(coerce(v) for v in value))  # each value once
    return parse


def _mapping(coerce):
    def parse(value):
        if not isinstance(value, dict):
            raise ValueError(f"expected a mapping, got {value!r}")
        return {str(k): coerce(v) for k, v in value.items()}
    return parse


def _level(value) -> float:
    check_level(float(value))
    return float(value)


def _bool(value) -> bool:
    """A YAML boolean; a string such as "false" is not one."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _fields(cls, *names) -> dict:
    """Keys for the fields of dataclass ``cls`` (all, or those in ``names``)
    with the fields' types and defaults; a field typed ``X | None`` is an X."""
    types = {"str": str, "int": int, "float": float, "bool": _bool}
    return {f.name: (types[f.type.removesuffix(" | None")],
                     REQUIRED if f.default is MISSING else f.default)
            for f in fields(cls) if not names or f.name in names}


def _default(func, name: str):
    return inspect.signature(func).parameters[name].default


# A key maps to (type, default).  The type is a coercion, a table (a nested
# section), a one-table list (a list of sections) or Variants.  A key whose
# default is None may be null.
TERM = _fields(TermSpec)
DGP = _fields(DgpConfig)
_GROUP = _fields(GroupSpec)
SCHEMA = {
    "seed": (int, 0), "out": (str, None),  # out: out/<command>
    "data": ({
        "path": (str, REQUIRED),
        **_fields(CsvSchema, "delimiter"),
        "columns": (_fields(CsvSchema, "region", "country", "year", "outcome", "lat", "lon"),
                    REQUIRED),
        "predictors": (_mapping(str), REQUIRED),
        "group_columns": (_list(str), []),
        "custom_columns": (_mapping(str), {}),
    }, REQUIRED),
    "model": ({
        **_fields(ModelSpec, "intercept", "moderator_alignment", "max_lag_ceiling"),
        "fixed_effects": (_list(str), []),
        "terms": ([TERM], []),
    }, {}),
    "fit": ({
        "schemes": (_list(str), ["region"]),
        "correction": (str, _default(clustered_cov, "correction")),
        "level": (_level, _default(confidence_intervals, "level")),
        "response_curves": (_bool, True),
    }, {}),
    "corr": ({
        "min_overlap": (int, DEFAULT_MIN_OVERLAP),
        "groups": ([{  # null: the default groups
            "label": (str, None),  # null: the kind
            "kind": (Variants(spatial={k: _GROUP[k] for k in SPATIAL_KEYS},
                              temporal={k: _GROUP[k] for k in TEMPORAL_KEYS}), _GROUP["kind"][1]),
        }], None),
    }, {}),
    "cv": ({
        "schemes": (_list(str), ["region"]),
        "k": (int, 5),
        "direction": (str, _default(cv_scan, "direction")),
        "candidates": ([TERM], []),
    }, REQUIRED),
    "ic": ({
        "block_scheme": (str, "country_year"),
        "direction": (str, _default(ic_scan, "direction")),
        "criteria": (_list(str), _default(ic_scan, "criteria")),
        "adjusted": (_list(_bool), _default(ic_scan, "adjusted_flags")),
        "candidates": ([TERM], []),
    }, {}),
    "bootstrap": ({
        "scheme": (str, "region"),
        "b": (int, 1000),
        "levels": (_list(_level), [0.9]),
    }, REQUIRED),
    "project": ({
        "scheme": (str, "region"),
        "b": (int, 1000),
        "alpha": (_level, _default(first_discernible_year, "alpha")),
        "levels": (_list(_level), [0.65, 0.9]),
        "aggregation": (Variants(mean={}, weighted={"weights": (_mapping(float), REQUIRED)}),
                        _default(build_scenario_path, "aggregation")),
        "start_year": (int, None),
        "scenarios": ([{"label": (str, REQUIRED), "path": (str, REQUIRED)}], REQUIRED),
    }, REQUIRED),
    "simulate": ({
        "study": (Variants(
            coverage={"schemes": (_list(str), ["region", "year"]),
                      "level": (_level, _default(coverage_study, "level")),
                      "correction": (str, _default(coverage_study, "correction"))},
            bias={"scheme": (str, "year"), "correction": (str, _default(bias_study, "correction"))},
        ), "coverage"),
        **DGP,
        "reps": (int, 1000),
    }, REQUIRED),
}
READS = {command: ("data", "model", command) for command in COMMANDS} | {"simulate": ("simulate",)}
# lists that select what a command computes: empty, the run would write header-only tables
NONEMPTY = {"cv.schemes", "ic.criteria", "ic.adjusted", "corr.groups", "project.scenarios",
            "simulate.schemes"}


def parse(table: dict, raw, section: str = TOP, fill: bool = True) -> dict:
    """One config section through its table.  Unknown keys and keys of
    another variant are errors.  With ``fill``, required keys must be given,
    a ``NONEMPTY`` list may not be empty, and every key is returned,
    defaulted and coerced; without, the given keys are only checked."""
    if not isinstance(raw, dict):
        raise ValueError(f"section {section!r} must be a mapping, got {raw!r}")
    table, foreign = dict(table), {}
    for key, (kind, default) in list(table.items()):
        if isinstance(kind, Variants):
            choice = raw.get(key, default)
            if choice not in kind:
                raise ValueError(f"unknown {key} {choice!r} in section {section!r}; "
                                 f"use one of {list(kind)}")
            for keys in kind.values():
                foreign.update(dict.fromkeys(keys, f"{key} {choice!r}"))
            table.update(kind[choice])
    for key in raw:
        if key not in table and key in foreign:
            raise ValueError(f"key {key!r} in section {section!r} does not apply to {foreign[key]}")
        if key not in table:
            raise ValueError(f"unknown key {key!r} in section {section!r}")
    resolved = {}
    for key, (kind, default) in table.items():
        if key not in raw and (default is REQUIRED or not fill):
            if fill:
                raise ValueError(f"key {key!r} is missing from section {section!r}")
            continue
        value = raw.get(key, default)
        name = key if section == TOP else f"{section}.{key}"
        if value is None and default is None or isinstance(kind, Variants):
            resolved[key] = value
        elif isinstance(kind, dict):
            resolved[key] = parse(kind, value, name, fill)
        elif isinstance(kind, list):
            resolved[key] = [parse(kind[0], v, f"{name}[{i}]", fill) for i, v in enumerate(value)]
        elif fill:
            try:
                if value is None:
                    raise ValueError("it may not be null")
                resolved[key] = kind(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad {key!r} in section {section!r}: {exc}") from None
        if fill and name in NONEMPTY and resolved[key] == []:
            raise ValueError(f"key {key!r} in section {section!r} may not be an empty list")
    return resolved


def resolve(config: dict, command: str) -> dict:
    """The configuration ``command`` runs on: the run settings and the
    sections it reads, resolved.  Every other present section is checked."""
    parse(SCHEMA, config, fill=False)
    reads = ("seed", "out", *READS[command])
    return parse({k: SCHEMA[k] for k in reads}, {k: v for k, v in config.items() if k in reads})


def _schema(data: dict) -> CsvSchema:
    return CsvSchema(**data["columns"], predictors=data["predictors"], groups=data["group_columns"],
                     custom=data["custom_columns"], delimiter=data["delimiter"])


def _load_dataset(config: dict):
    return load_cached(config["data"]["path"], _schema(config["data"]))


def _model(config: dict) -> ModelSpec:
    model = config["model"]
    return ModelSpec(tuple(TermSpec(**t) for t in model["terms"]), model["fixed_effects"],
                     model["intercept"], model["moderator_alignment"], model["max_lag_ceiling"])


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def cmd_fit(config: dict, out: Path) -> None:
    dataset, spec, fit_cfg = _load_dataset(config), _model(config), config["fit"]
    schemes, files = [ClusterScheme.parse(s) for s in fit_cfg["schemes"]], {}
    for label in (s.label for s in schemes):  # each scheme's response-curve file
        name = f"response_curves_{label.replace(':', '_')}.csv"
        if files.setdefault(name, label) != label:
            raise ValueError(f"fit schemes {files[name]!r} and {label!r} both write {name}")
    fit = ols_fit(build_design(dataset, spec))
    covs = {s.label: clustered_cov(fit, assign_clusters(fit.design, s), fit_cfg["correction"])
            for s in schemes}
    reports.write_coefficients(out / "coefficients.json", fit, covs, fit_cfg["level"])
    if spec.terms and fit_cfg["response_curves"]:
        medians = [dataset.predictor_median(t.moderator) if t.moderator else 0.0 for t in spec.terms]
        for name, label in files.items():
            curves = [term_response_curve(fit, covs[label], t, moderator_value=m,
                                          level=fit_cfg["level"]) for t, m in zip(spec.terms, medians)]
            reports.write_response_curves(out / name, curves)
    print(f"fit: n={fit.n} p={fit.p} R^2={fit.r_squared:.4f} schemes={[s.label for s in schemes]}")


def _groups(groups: list | None, dataset) -> list[GroupSpec]:
    """The configured corr groups; when ``groups`` is null, the defaults."""
    if groups is not None:
        return [GroupSpec(**{**g, "label": g["label"] or g["kind"]}) for g in groups]
    groups = [GroupSpec("all", "temporal"), GroupSpec("consecutive", "temporal", consecutive=True),
              GroupSpec("all", "spatial"), GroupSpec("same country", "spatial", same_country=True),
              GroupSpec("different country", "spatial", different_country=True)]
    if not np.isnan(dataset.centroids[:, 0]).all():
        groups += [GroupSpec(f"{sign}1000km, {country} country", "spatial",
                             **{f"{country}_country": True, side: 1000.0})
                   for sign, side in (("<", "below_km"), (">", "above_km"))
                   for country in ("same", "different")]
    return groups


def cmd_corr(config: dict, out: Path) -> None:
    dataset = _load_dataset(config)
    fit = ols_fit(build_design(dataset, _model(config)))
    panel = ResidualPanel.from_fit(fit)
    summaries = correlation_table(panel, _groups(config["corr"]["groups"], dataset),
                                  min_overlap=config["corr"]["min_overlap"])
    reports.write_correlation_table(out / "correlations.csv", summaries)
    print(f"corr: {len(summaries)} groups over {fit.n} residuals")


def _scan_setup(section: dict, spec: ModelSpec) -> tuple[str, ModelSpec, list[TermSpec]]:
    """Direction, base model and candidates of a cv or ic scan: forward scans
    grow the trivial model (fixed effects and intercept kept), backward scans
    shrink the configured model."""
    direction = section["direction"]
    base = replace(spec, terms=()) if direction == "forward" else spec
    return direction, base, [TermSpec(**t) for t in section["candidates"]]


def cmd_cv(config: dict, out: Path) -> None:
    dataset, cv_cfg, seed = _load_dataset(config), config["cv"], config["seed"]
    schemes = [ClusterScheme.parse(s) for s in cv_cfg["schemes"]]
    direction, base, candidates = _scan_setup(cv_cfg, _model(config))
    rows = []
    summary = {"direction": direction, "k": cv_cfg["k"], "seed": seed, "schemes": {}}
    scans = cv_scan(dataset, base, candidates, schemes, cv_cfg["k"], seed, direction=direction)
    for scheme, scan in zip(schemes, scans):
        summary["schemes"][scheme.label] = {
            "reference_loss": scan.reference_loss,
            "rows_used": scan.rows_used,
            "collinear_entries": sum(e.collinear for e in scan.entries),
        }
        rows += [[e.term, "removed" if e.lag_depth is None else e.lag_depth, scheme.label,
                  e.delta_loss] for e in scan.entries]
    reports.write_csv(out / "cv_scan.csv", ["term", "lag_depth", "scheme", "delta_loss"], rows)
    reports.write_json(out / "cv_summary.json", summary)
    print(f"cv: {direction} scan, {len(rows)} entries over {[s.label for s in schemes]}")


def cmd_ic(config: dict, out: Path) -> None:
    dataset, ic_cfg = _load_dataset(config), config["ic"]
    block = ClusterScheme.parse(ic_cfg["block_scheme"])
    direction, base, candidates = _scan_setup(ic_cfg, _model(config))
    scan = ic_scan(dataset, base, candidates, block, direction=direction,
                   criteria=tuple(ic_cfg["criteria"]), adjusted_flags=tuple(ic_cfg["adjusted"]))
    reports.write_ic_scan(out / "ic_scan.csv", scan, block.label)
    reference = {f"{crit}_adj{int(adj)}": v for (crit, adj), v in scan.reference.items()}
    reports.write_json(out / "ic_summary.json",
                       {"direction": direction, "block_scheme": block.label,
                        "rows_used": scan.rows_used, "reference": reference})
    print(f"ic: {direction} scan, {len(scan.entries)} entries, blocks={block.label}")


def cmd_bootstrap(config: dict, out: Path) -> None:
    boot_cfg = config["bootstrap"]
    scheme = ClusterScheme.parse(boot_cfg["scheme"])
    sample = block_bootstrap(_load_dataset(config), _model(config), scheme, boot_cfg["b"],
                             config["seed"])
    levels, design = boot_cfg["levels"], sample.design
    # a dummy or the intercept whose level (or reference level) too few
    # resamples hold is reported unresolved rather than failing the run
    terms = np.array([lab.kind != "intercept" for lab in design.column_labels], dtype=bool)
    bounds, used = read_intervals(sample.draws, levels, np.pad(terms, (0, design.p - len(terms))))
    reports.write_bootstrap_table(out / "bootstrap_coefficients.csv", design.column_names, levels,
                                  bounds, used)
    sd = {name: float(s) for name, s in zip(design.column_names, sample.sd())}
    reports.write_json(out / "bootstrap_summary.json",
                       {"scheme": scheme.label, "b": boot_cfg["b"], "seed": config["seed"],
                        "failed_refits": sample.failed_refits, "sd": sd})
    print(f"bootstrap: B={boot_cfg['b']} scheme={scheme.label} failed={sample.failed_refits}")


def cmd_project(config: dict, out: Path) -> None:
    dataset, spec, proj_cfg = _load_dataset(config), _model(config), config["project"]
    for i, sc in enumerate(proj_cfg["scenarios"]):  # a label names its rows and pairs
        if sc["label"] in [s["label"] for s in proj_cfg["scenarios"][:i]]:
            raise ValueError(f"project scenario label {sc['label']!r} is listed twice")
    sample = block_bootstrap(dataset, spec, ClusterScheme.parse(proj_cfg["scheme"]), proj_cfg["b"],
                             config["seed"])
    scenario_schema = replace(_schema(config["data"]), outcome=None)
    levels, projections, bounds, unseen = proj_cfg["levels"], [], [], {}
    for sc in proj_cfg["scenarios"]:
        path = build_scenario_path(load_cached(sc["path"], scenario_schema), spec, sample.design,
                                   sc["label"], start_year=proj_cfg["start_year"],
                                   aggregation=proj_cfg["aggregation"],
                                   weights=proj_cfg.get("weights"))
        unseen[sc["label"]] = path.unseen_levels
        projections.append(project_scenarios(sample, path))
    for proj in projections:  # read out once every scenario has warned of its dropped draws
        try:
            bounds.append(read_intervals(proj.values, levels, True)[0])
        except ValueError as exc:
            raise ValueError(f"scenario {proj.label!r}: {exc}") from None
    alpha = proj_cfg["alpha"]
    verdicts = [
        {"a": a.label, "b": b.label, "first_discernible_year": first_discernible_year(a, b, alpha)}
        for i, a in enumerate(projections) for b in projections[i + 1:]
    ]
    reports.write_projections(out / "projection.csv", projections, levels, bounds)
    reports.write_json(out / "discernibility.json",
                       {"alpha": alpha, "pairs": verdicts, "unseen_levels": unseen,
                        "failed_refits": sample.failed_refits})
    print(f"project: {len(projections)} scenarios, B={proj_cfg['b']}, alpha={alpha}")


def cmd_simulate(config: dict, out: Path) -> None:
    sim_cfg = config["simulate"]
    dgp = DgpConfig(**{key: sim_cfg[key] for key in DGP})
    run = {"reps": sim_cfg["reps"], "seed": config["seed"], "correction": sim_cfg["correction"]}
    if sim_cfg["study"] == "coverage":
        schemes = [ClusterScheme.parse(s) for s in sim_cfg["schemes"]]
        report = coverage_study(dgp, schemes, level=sim_cfg["level"], **run)
        reports.write_coverage_report(out / "coverage.csv", report)
        print("simulate coverage: " + " ".join(f"{r.scheme}={r.coverage:.3f}" for r in report.rows))
    else:
        report = bias_study(dgp, ClusterScheme.parse(sim_cfg["scheme"]), **run)
        reports.write_bias_report(out / "bias.csv", report)
        print(f"simulate bias: ratio={report.ratio:.4f}")


HANDLERS = {"fit": cmd_fit, "corr": cmd_corr, "cv": cmd_cv, "ic": cmd_ic,
            "bootstrap": cmd_bootstrap, "project": cmd_project, "simulate": cmd_simulate}


@functools.cache  # built once per process: every main call parses with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterpanel", description="Cluster-aware inference for panel regressions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="YAML config or a previous run's manifest")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: config seed or 0)")
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored; changes no output")
        p.add_argument("--out", default=None, help="output directory (default: config out or ./out/<command>)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw, manifest_command = reports.load_config(args.config)
        if manifest_command is not None and manifest_command != args.command:
            raise ValueError(f"manifest was written by {manifest_command!r}, not {args.command!r}")
        config = resolve(raw, args.command)
        config["seed"] = config["seed"] if args.seed is None else args.seed
        check_seed(config["seed"])
        config["out"] = config["out"] or f"out/{args.command}"
        out = Path(args.out or config["out"])
        out.mkdir(parents=True, exist_ok=True)
        HANDLERS[args.command](config, out)
        reports.write_manifest(out, args.command, config)
    except Exception as exc:  # surface config/module errors with exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
