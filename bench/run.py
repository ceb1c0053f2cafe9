"""clusterpanel benchmark: times every CLI command of one workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload panel_fe --seed 1 --seconds 20 --trace 0

Each invocation of a command is one in-process ``clusterpanel.cli.main``
call, so its time covers config parsing, ``load_csv``, the computation,
output writing and the manifest.  BLAS is pinned to one thread and every
command gets ``--threads 2``.  The run repeats passes over the workload's
command list for ``--seconds`` seconds, checks every output (reference
digests, oracles, byte-identical reruns), and prints a report followed by
one JSON line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# pin BLAS before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
THREADS = 2
SETUP_ROUNDS = 3
MIN_PASSES = 2
COMMANDS = ("fit", "corr", "cv", "ic", "bootstrap", "project", "simulate")

END_TO_END = {"setup_s": "s", "workflow_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{c}_s": "s" for c in COMMANDS},
    "error_rate": "share",
    "panel.load_csv.calls": "count",
    "panel.load_csv.self_s": "s",
    "panel.build_design.calls": "count",
    "panel.build_design.self_s": "s",
    "panel.fixed_effect_dummies.calls": "count",
    "panel.fixed_effect_dummies.self_s": "s",
    "panel.design_mb": "MB",
    "panel.assign_clusters.self_s": "s",
    "panel.rows_dropped": "count",
    "regression.ols_fit.calls": "count",
    "regression.ols_fit.self_s": "s",
    "regression.ols_fit.gflop": "GFLOP",
    "regression.confidence_intervals.calls": "count",
    "regression.confidence_intervals.self_s": "s",
    "regression.clustered_cov.calls": "count",
    "regression.clustered_cov.self_s": "s",
    "residcorr.correlation_table.self_s": "s",
    "residcorr.pairs": "count",
    "residcorr.pairs_skipped": "count",
    "modelselect.cv_loss.calls": "count",
    "modelselect.cv_loss.self_s": "s",
    "modelselect.ic_scan.self_s": "s",
    "modelselect.fit_rho.calls": "count",
    "modelselect.fit_rho.self_s": "s",
    "bootstrap.block_bootstrap.calls": "count",
    "bootstrap.block_bootstrap.self_s": "s",
    "bootstrap.replicates": "count",
    "bootstrap.failed_refits": "count",
    "bootstrap.nan_draw_share": "share",
    "bootstrap.project_scenarios.self_s": "s",
    "simstudy.coverage_study.self_s": "s",
    "simstudy.generate_panel.calls": "count",
    "simstudy.generate_panel.self_s": "s",
    "simstudy.generate_panel.p50_ms": "ms",
    "simstudy.generate_panel.p99_ms": "ms",
    "simstudy.failed_reps": "count",
    "reports.self_s": "s",
    "reports.bytes_written": "bytes",
    "cli.self_s": "s",
    "cli.warnings": "count",
    "cli.failed_commands": "count",
    "trace.overhead_s": "s",
    "trace.worker_self_s": "s",
}

# Failures the program has today, kept visible on purpose: they count in
# ``failed`` and ``error_rate`` but do not make the run incorrect.
KNOWN_FAILURES = {
    ("panel_gappy", "bootstrap"): "usable draws too small for level",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken generator)."""


def _import_program(root: Path):
    src = root / "src"
    if not (src / "clusterpanel" / "__init__.py").is_file():
        raise SetupError(f"no clusterpanel source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import clusterpanel
    from clusterpanel import cli

    if Path(clusterpanel.__file__).resolve().parent != (src / "clusterpanel").resolve():
        raise SetupError(f"imported clusterpanel from {clusterpanel.__file__}, not {src}")
    return cli


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    command: str
    rc: int
    seconds: float
    error: str
    warnings: list
    bytes_written: int = 0


def invoke(cli, command: str, config: Path, outdir: Path, tracer=None) -> Invocation:
    """One timed ``cli.main`` call; stdout, stderr and warnings are captured."""
    shutil.rmtree(outdir, ignore_errors=True)
    gc.collect()  # garbage of the previous command is not this one's cost
    argv = [command, "--config", str(config), "--threads", str(THREADS), "--out", str(outdir)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli"):
                    rc = cli.main(argv)
            seconds = time.perf_counter() - start
    records = [(w.category.__name__, str(w.message)) for w in caught]
    return Invocation(command, rc, seconds, err.getvalue().strip(), records)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)
    known: Counter = field(default_factory=Counter)
    warnings: Counter = field(default_factory=Counter)
    gate: dict = field(default_factory=dict)

    def fail(self, message: str, incorrect: bool = True) -> None:
        self.failed += 1
        if incorrect:
            self.correct = False
            self.problems.append(message)


class Gate:
    """Checks the first output of each command; later ones must be byte-identical."""

    def __init__(self, workload, prep, seed, scale, references):
        self.workload = workload
        self.prep = prep
        table = references.get("digests", {}).get(workload, {}).get(scale, {})
        self.keys = table.get("keys", {})
        self.digests = table.get("seeds", {}).get(str(seed))
        self.coverage = references.get("coverage", {})
        self.first: dict[str, str] = {}

    def check(self, inv: Invocation, outdir: Path, outcome: Outcome) -> None:
        outcome.attempted += 1
        outcome.warnings.update(inv.warnings)
        tree = checks.tree_hash(outdir)
        inv.bytes_written = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
        if self.first.setdefault(inv.command, tree) != tree:
            outcome.fail(f"{inv.command}: rerun output differs from the first invocation")
            return
        if inv.rc != 0:
            known = KNOWN_FAILURES.get((self.workload, inv.command))
            if known is not None and known in inv.error:
                outcome.known[f"{inv.command}: {inv.error}"] += 1
                outcome.fail(inv.error, incorrect=False)
            else:
                outcome.fail(f"{inv.command} exited {inv.rc}: {inv.error}")
            return
        if inv.command in outcome.gate:
            return
        bad = self._first_check(inv.command, outdir)
        outcome.gate[inv.command] = "ok" if not bad else "; ".join(bad)
        if bad:
            outcome.fail(f"{inv.command} output check: " + "; ".join(bad))

    def _first_check(self, command: str, outdir: Path) -> list[str]:
        bad = []
        if self.digests is not None:
            ref = self.digests.get(command)
            if isinstance(ref, list):  # a dict holds the error of a failed reference run
                bad += checks.compare_digest(checks.digest(outdir), dict(zip(self.keys[command], ref)))
        if self.workload == "panel_fe" and command == "fit":
            coefficients = json.loads((outdir / "coefficients.json").read_text(encoding="utf-8"))
            bad += checks.fit_oracle(coefficients, self.prep.panel)
        if self.workload == "panel_fe" and command == "corr":
            bad += checks.corr_oracle(outdir / "correlations.csv", self.prep.panel)
        if command == "simulate":
            bad += checks.coverage_band(outdir / "coverage.csv", self.coverage, self.prep.sizes["reps"])
        return bad


def _median(values):
    return statistics.median(values) if values else 0.0


def run_pass(cli, prep, gate, outcome, tracer=None) -> tuple[float, list[Invocation]]:
    """Every command of the workload once; returns the summed command time."""
    invocations = []
    if tracer is not None:
        tracer.install()
    try:
        for command in prep.commands:
            outdir = Path("out") / command
            invocations.append(invoke(cli, command, Path(prep.config.name), outdir, tracer))
            gate.check(invocations[-1], outdir, outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return sum(inv.seconds for inv in invocations), invocations


def _layer_summary(tracer, invocations) -> dict:
    s = tracer.summary()
    entries = s.pop("bootstrap.draw_entries", 0.0)
    s["bootstrap.nan_draw_share"] = s.pop("bootstrap.nan_draws", 0.0) / entries if entries else 0.0
    s["cli.warnings"] = sum(len(inv.warnings) for inv in invocations)
    s["cli.failed_commands"] = sum(inv.rc != 0 for inv in invocations)
    s["reports.bytes_written"] = sum(inv.bytes_written for inv in invocations)
    return s


def setup(cli, workload, seed, scale, work: Path, root: Path):
    """One set-up round: fresh-interpreter import, input generation and a
    warm-up invocation of every command on the tiny inputs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import clusterpanel"], env=env, cwd=root,
                   check=True, timeout=120, capture_output=True)
    prep = workloads.prepare(workload, seed, work / "run", scale)
    warm = workloads.prepare(workload, seed, work / "warm", "tiny")
    os.chdir(work / "warm")
    try:
        warm_failures = [
            inv.command for inv in
            (invoke(cli, c, Path("config.yaml"), Path("out") / c) for c in warm.commands)
            if inv.rc != 0
        ]
    finally:
        os.chdir(root)
    return time.perf_counter() - start, prep, warm_failures


def measure(cli, workload, seed, seconds, trace, scale, references, work, root):
    rounds = [setup(cli, workload, seed, scale, work, root) for _ in range(SETUP_ROUNDS)]
    prep = rounds[-1][1]
    if any(r[1].inputs != prep.inputs for r in rounds):
        raise SetupError("input generation is not deterministic for one seed")
    outcome = Outcome()
    gate = Gate(workload, prep, seed, scale, references)
    per_command = {c: [] for c in prep.commands}
    untraced, traced, layers = [], [], []
    startup_s = _process_age()
    os.chdir(work / "run")
    try:
        start = time.perf_counter()
        while True:
            tracer = Tracer() if trace and len(untraced) > len(traced) else None
            total, invocations = run_pass(cli, prep, gate, outcome, tracer)
            if tracer is None:
                untraced.append(total)
                for inv in invocations:
                    per_command[inv.command].append(inv.seconds)
            else:
                traced.append(total)
                layers.append(_layer_summary(tracer, invocations))
            done = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
            if done and time.perf_counter() - start >= seconds:
                break
    finally:
        os.chdir(root)
    return {
        "prep": prep,
        "outcome": outcome,
        "setup": [r[0] for r in rounds],
        "warm_failures": rounds[0][2],
        "startup_s": startup_s,
        "per_command": per_command,
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------


def _process_age() -> float | None:
    """Seconds since this process started, from /proc (None elsewhere)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, workload, seed, prep) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    program = hashlib.sha256()
    for path in sorted((root / "src" / "clusterpanel").glob("*.py")):
        program.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "pool_threads": THREADS,
        "git_commit": commit,
        "program_sha256": program.hexdigest(),
        "workload": workload,
        "seed": seed,
        "sizes": prep.sizes,
        "inputs_sha256": prep.inputs,
    }


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4f} max={max(values):.4f}"


def report(result, env, trace) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    outcome = result["outcome"]
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    setup_s = _median(result["setup"])
    workflow_s = _median(result["untraced"])
    lines.append(f"setup_s = {setup_s:.4f} s (median of {_spread(result['setup'])} set-up rounds)")
    if result["startup_s"] is not None:
        lines.append(f"startup = {result['startup_s']:.3f} s from process start to the first timed command")
    lines.append(f"workflow_s = {workflow_s:.4f} s (median of {_spread(result['untraced'])} passes)")
    for command, values in result["per_command"].items():
        lines.append(f"{command}_s = {_median(values):.4f} s (median of {_spread(values)})")
    lines.append(f"peak_rss_mb = {result['peak_rss_mb']:.1f} MB (peak of the whole process)")
    rate = outcome.failed / outcome.attempted
    lines.append(f"error_rate = {rate:.4f} ({outcome.failed} failed of {outcome.attempted} attempted)")
    for message, count in sorted(outcome.known.items()):
        lines.append(f"known failure x{count}: {message}")
    for problem in outcome.problems:
        lines.append(f"FAILED: {problem}")
    for command, verdict in sorted(outcome.gate.items()):
        lines.append(f"gate {command}: {verdict}")
    if result["warm_failures"]:
        lines.append(f"warm-up failures: {result['warm_failures']}")
    for (category, message), count in sorted(outcome.warnings.items()):
        lines.append(f"warning x{count}: {category}: {message}")
    metrics = {"setup_s": setup_s, "workflow_s": workflow_s, "peak_rss_mb": result["peak_rss_mb"]}
    if trace:
        layer = {name: _median([s.get(name, 0.0) for s in result["layers"]]) for name in PER_LAYER}
        for command in COMMANDS:
            layer[f"{command}_s"] = _median(result["per_command"].get(command, []))
        layer["error_rate"] = rate
        layer["trace.overhead_s"] = _median(result["traced"]) - workflow_s
        main_self = _median([s["trace.main_self_s"] for s in result["layers"]])
        lines.append(
            f"trace: traced pass {_median(result['traced']):.4f} s, main-thread self time "
            f"{main_self:.4f} s, overhead {layer['trace.overhead_s']:+.4f} s "
            f"(traced {_spread(result['traced'])})"
        )
        for name, unit in PER_LAYER.items():
            lines.append(f"layer {name} = {layer[name]:.6g} {unit}")
        metrics = layer
    for line in lines:
        print(f"# {line}")
    units = PER_LAYER if trace else END_TO_END
    return {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny = smoke scale for the benchmark's own tests")
    parser.add_argument("--references", type=Path, default=BENCH_DIR / "references.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = _import_program(root)
        references = json.loads(args.references.read_text(encoding="utf-8"))
        result = measure(cli, args.workload, args.seed, args.seconds, args.trace, args.scale,
                         references, work, root)
        env = environment(root, args.workload, args.seed, result["prep"])
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    metrics = report(result, env, args.trace)
    outcome = result["outcome"]
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
