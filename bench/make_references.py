"""Regenerate bench/references.json from the program at the current commit.

Run from the root of a source checkout:

    python3 bench/make_references.py

The digests are what the benchmark's correctness gate compares against for
the seeds stored here; the coverage reference is the simulate workload's
coverage per scheme from one long study, which the gate checks inside a
binomial band at any seed.  Regenerate only when a change to the program
is meant to change its outputs, and say so in the change.
"""

from __future__ import annotations

import run  # noqa: F401  (pins BLAS before numpy is imported)

import csv
import json
import os
import shutil
import sys
from pathlib import Path

import yaml

import checks
import workloads

FULL_SEEDS = range(0, 16)
TINY_SEEDS = range(0, 3)
COVERAGE_REPS = 20000


def _digests(cli, workload: str, seed: int, scale: str, work: Path) -> dict:
    """One invocation of every command, from inside the work directory as in a run."""
    prep = workloads.prepare(workload, seed, work, scale)
    root = Path.cwd()
    os.chdir(work)
    try:
        out = {}
        for command in prep.commands:
            outdir = Path("out") / command
            inv = run.invoke(cli, command, Path(prep.config.name), outdir)
            out[command] = {"error": inv.error} if inv.rc != 0 else checks.digest(outdir)
    finally:
        os.chdir(root)
    return out


def _coverage_reference(cli, work: Path) -> dict:
    """Coverage per scheme of the montecarlo study at COVERAGE_REPS replications."""
    prep = workloads.prepare("montecarlo", 0, work, "full")
    config = yaml.safe_load(prep.config.read_text(encoding="utf-8"))
    config["simulate"]["reps"] = COVERAGE_REPS
    prep.config.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    inv = run.invoke(cli, "simulate", prep.config, work / "out")
    if inv.rc != 0:
        raise RuntimeError(inv.error)
    with open(work / "out" / "coverage.csv", newline="", encoding="utf-8") as fh:
        return {r["scheme"]: float(r["coverage"]) for r in csv.DictReader(fh)}


def _compact(digests: dict) -> dict:
    """Store each command's keys once per scale; a seed holds only the values
    in key order (or the error message of a failed command)."""
    keys = {}
    seeds = {}
    for seed, by_command in digests.items():
        for command, d in by_command.items():
            if "error" not in d:
                ref = keys.setdefault(command, sorted(d))
                if sorted(d) != ref:
                    raise RuntimeError(f"{command}: outputs differ in shape between seeds")
                d = [d[k] for k in ref]
            seeds.setdefault(seed, {})[command] = d
    return {"keys": keys, "seeds": seeds}


def main() -> int:
    root = Path.cwd()
    cli = run._import_program(root)
    work = root / ".bench_work" / "references"
    references = {"coverage": {}, "digests": {}}
    try:
        for workload in workloads.WORKLOAD_NAMES:
            for scale, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
                digests = {}
                for seed in seeds:
                    shutil.rmtree(work, ignore_errors=True)
                    digests[str(seed)] = _digests(cli, workload, seed, scale, work)
                    print(f"{workload} {scale} seed {seed}", file=sys.stderr)
                references["digests"].setdefault(workload, {})[scale] = _compact(digests)
        shutil.rmtree(work, ignore_errors=True)
        references["coverage"] = _coverage_reference(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH_DIR / "references.json"
    path.write_text(json.dumps(references, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
