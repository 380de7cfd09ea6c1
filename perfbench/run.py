"""spdreg benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cv_wasserstein_rankdef --seed 0 \\
        --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run measures the end-to-end metrics with no
wrapper installed; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics (see README.md). The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the full record (machine, per-pass times, spans) goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``. The exit code is
0 only when every operation and correctness gate passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each setup repetition builds the full-size inputs, runs one tiny pass and
# imports spdreg in a fresh interpreter; setup_s is their median. The
# imports run after the passes so their memory stays out of peak_rss_mb.
SETUP_REPS = 5
# Workers of the sweep in the untraced run; the traced run uses 1 so that
# every span lands in this process.
SWEEP_JOBS = 2
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Per-layer metrics: (name, unit, how). "span" sums a span's duration per
# pass, "self" its duration minus its direct child spans, "calls" counts.
LAYER_METRICS = (
    ("manifold.factorize_calls", "count", ("calls", "manifold.factorize")),
    ("manifold.factorize_s", "s", ("span", "manifold.factorize")),
    ("manifold.mean_wasserstein_s", "s", ("span", "manifold.mean_wasserstein")),
    ("manifold.mean_geometric_s", "s", ("span", "manifold.mean_geometric")),
    ("manifold.embed_s", "s", ("span", "manifold.embed")),
    ("regress.fit_ridge_gcv_s", "s", ("span", "regress.fit_ridge_gcv")),
    ("regress.fit_fold_s", "s", ("span", "regress.fit_fold")),
    ("regress.fit_fold_self_s", "s", ("self", "regress.fit_fold")),
    ("regress.predict_fold_s", "s", ("span", "regress.predict_fold")),
    ("regress.predict_fold_self_s", "s", ("self", "regress.predict_fold")),
    ("simgen.sample_bundle_calls", "count", ("calls", "simgen.sample_bundle")),
    ("simgen.sample_bundle_s", "s", ("span", "simgen.sample_bundle")),
    ("bundle.write_covb_s", "s", ("span", "bundle.write_covb")),
    ("bundle.read_covb_s", "s", ("span", "bundle.read_covb")),
    ("filters.fit_s", "s", ("span", "filters.fit")),
    ("filters.apply_s", "s", ("span", "filters.apply")),
    ("symmat.eigh_calls", "count", ("calls", "symmat.eigh")),
    ("symmat.numerical_rank_calls", "count", ("calls", "symmat.numerical_rank")),
    ("cli.simulate_s", "s", ("span", "cli.simulate")),
    ("cli.eval_s", "s", ("span", "cli.eval")),
    ("cli.fit_s", "s", ("span", "cli.fit")),
    ("cli.predict_s", "s", ("span", "cli.predict")),
    ("cli.sweep_s", "s", ("span", "cli.sweep")),
)


def import_program():
    """Import spdreg from this checkout's ``src/``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spdreg

    if Path(spdreg.__file__).resolve().parent.parent != src:
        raise ImportError(f"spdreg imported from {spdreg.__file__}, not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker (0 if none)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def layer_values(tracer) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    spans, selfs = tracer.totals(), tracer.self_totals()
    out = {}
    for name, _, (how, key) in LAYER_METRICS:
        if how == "calls":
            out[name] = tracer.counts.get(key, 0)
        else:
            out[name] = (spans if how == "span" else selfs).get(key, 0.0)
    return out


def _import_s() -> float:
    """Wall time of a fresh interpreter importing spdreg from ``src/``."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import spdreg"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def _nullspan(name):
    return contextlib.nullcontext()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure for ``seconds``, check outputs; return the full record."""
    import workloads
    from spans import Tracer, installed_wrappers

    jobs = 1 if trace and workload == "sweep_fig3" else SWEEP_JOBS
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        prep_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            wl = workloads.prepare(workload, seed, workdir)
            workloads.prepare(workload, seed, workdir, tiny=True).run(_nullspan, jobs)
            prep_times.append(time.perf_counter() - start)

        plain, traced, tracers = [], [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            plain.append(wl.run(_nullspan, jobs))
            if trace:
                tracer = Tracer()
                with tracer.installed():
                    traced.append(wl.run(tracer.span, jobs))
                tracers.append(tracer)
        leftover = installed_wrappers()
        covb = workdir / "bundle.covb"
        covb_bytes = covb.stat().st_size if covb.exists() else 0
        peak_rss_mb = _peak_rss_mb()
        if not trace:
            prep_times = [t + _import_s() for t in prep_times]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    # One run-level gate on top of the per-pass ones: every pass, traced or
    # not, gives the same output and the same call counts, and no wrapper
    # outlives the traced passes.
    problems = [p for r in passes for p in r.problems]
    run_problems = []
    if len({repr(r.output) for r in passes}) != 1:
        run_problems.append("outputs differ between passes")
    if leftover:
        run_problems.append(f"tracer wrappers left installed: {leftover}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sweep_jobs": jobs,
        "setup_reps_s": prep_times,
        "pass_wall_s": [r.wall_s for r in plain],
    }
    if trace:
        per_pass = [layer_values(t) for t in tracers]
        calls = [{k: v for k, v in lv.items() if k.endswith("_calls")} for lv in per_pass]
        if any(c != calls[0] for c in calls):
            run_problems.append("call counts differ between traced passes")
        # Counts are the same in every traced pass (checked above); times
        # are the median over the traced passes.
        metrics = {
            name: {
                "value": per_pass[0][name] if name.endswith("_calls")
                else statistics.median(lv[name] for lv in per_pass),
                "unit": unit,
            }
            for name, unit, _ in LAYER_METRICS
        }
        metrics["bundle.covb_bytes"] = {"value": covb_bytes, "unit": "bytes"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r.wall_s for r in traced)
            - statistics.median(r.wall_s for r in plain),
            "unit": "s",
        }
        record["traced_pass_wall_s"] = [r.wall_s for r in traced]
        record["missing_targets"] = tracers[0].missing
        record["spans"] = [t.spans for t in tracers]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(prep_times), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in plain), "unit": "s"},
            "folds_per_s": {
                "value": statistics.median(r.folds / r.wall_s for r in plain),
                "unit": "1/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["problems"] = problems + run_problems
    failed = sum(r.failed for r in passes) + bool(run_problems)
    record["result"] = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in passes) + 1,
        "failed": failed,
        "metrics": metrics,
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["machine"] = machine_record(args.seed)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
