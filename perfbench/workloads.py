"""The four benchmark workloads.

``prepare(name, seed, workdir)`` builds a workload from the benchmark
seed, generating the inputs the program receives (``tiny=True`` gives the
same workload at toy size, for warm-up and smoke tests). Each workload
exposes ``run(span, jobs)`` for one measured pass. ``span(name)`` is a context
manager the pass opens around its top-level calls (a no-op when not
tracing). A pass returns a :class:`PassResult` whose ``output`` is
compared exactly across passes and between traced and untraced runs, and
whose ``problems`` lists failed correctness gates.

Every input object handed to the program is rebuilt from plain arrays at
the start of a pass, so nothing the program might cache on a bundle
carries over from one pass to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spdreg import cli, regress
from spdreg.bundle import CovarianceBundle
from spdreg.errors import SpdregError
from spdreg.simgen import GenerativeConfig, sample_bundle
from spdreg.symmat import SymMat

# Exact-recovery gate: the CV workloads and the cli fit/predict use
# noise-free models whose held-out error is ~1e-9 of the label spread.
RECOVERY_TOL = 1e-6


@dataclass
class PassResult:
    wall_s: float
    folds: int  # CV folds completed
    attempted: int  # operations: folds, sweep cells or CLI commands, plus one gate
    failed: int
    output: object
    problems: list[str] = field(default_factory=list)


def _quiet_main(argv) -> int:
    """Run the CLI in-process with its one-line summaries swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# In-process cross-validation
# ---------------------------------------------------------------------------


@dataclass
class CVWorkload:
    mats: np.ndarray  # (n, p, p)
    labels: np.ndarray
    nominal_rank: int
    spec: regress.PipelineSpec
    folds: int
    seed: int

    def run(self, span, jobs: int) -> PassResult:
        bundle = CovarianceBundle(
            matrices=[SymMat(m) for m in self.mats],
            labels=self.labels.copy(),
            nominal_rank=self.nominal_rank,
        )
        start = perf_counter()
        try:
            with span("regress.run_pipeline_cv"):
                report = regress.run_pipeline_cv(bundle, self.spec, self.folds, self.seed)
        except SpdregError as exc:
            wall = perf_counter() - start
            return PassResult(wall, 0, self.folds + 1, self.folds + 1, None, [repr(exc)])
        wall = perf_counter() - start
        ratio = report.mean_mae / float(np.std(self.labels))
        problems = []
        if not ratio < RECOVERY_TOL:
            problems.append(f"mean_mae/std(y) = {ratio:.3e}, gate {RECOVERY_TOL:g}")
        output = (report.per_fold_mae.tobytes(), report.per_fold_lambda.tobytes())
        return PassResult(wall, self.folds, self.folds + 1, len(problems), output, problems)


def cv_wasserstein_rankdef(seed: int, tiny: bool = False) -> CVWorkload:
    """Rank-16 covariances in 32 dimensions, identity+wasserstein, 10 folds."""
    p, n, lift, folds = (4, 40, 8, 4) if tiny else (16, 600, 32, 10)
    cfg = GenerativeConfig(
        p=p, q=2, n=n, mu=1.0, f_kind="sqrt", orthogonal_a=True, seed=seed
    )
    base, _ = sample_bundle(cfg)
    # Separate stream from the generator's own default_rng(seed).
    rng = np.random.default_rng([seed, lift])
    u, _ = np.linalg.qr(rng.standard_normal((lift, p)))
    mats = np.stack([u @ m.data @ u.T for m in base.matrices])
    spec = regress.PipelineSpec(filter_kind="identity", embedding_kind="wasserstein")
    return CVWorkload(mats, base.labels.copy(), p, spec, folds, seed)


def cv_geometric_wide(seed: int, tiny: bool = False) -> CVWorkload:
    """p=64 (k=2080 features > 480 training rows), identity+geometric, 5 folds."""
    p, n, folds = (8, 40, 3) if tiny else (64, 600, 5)
    base, _ = sample_bundle(GenerativeConfig(p=p, q=2, n=n, mu=0.1, seed=seed))
    mats = np.stack([m.data for m in base.matrices])
    spec = regress.PipelineSpec(filter_kind="identity", embedding_kind="geometric")
    return CVWorkload(mats, base.labels.copy(), p, spec, folds, seed)


# ---------------------------------------------------------------------------
# The CLI sweep preset
# ---------------------------------------------------------------------------


@dataclass
class SweepWorkload:
    argv: list
    out: Path
    cells: int
    rows: int

    def run(self, span, jobs: int) -> PassResult:
        start = perf_counter()
        with span("cli.sweep"):
            code = _quiet_main(self.argv + ["--jobs", jobs])
        wall = perf_counter() - start
        if code != 0:
            return PassResult(wall, 0, self.cells + 1, self.cells + 1, None,
                              [f"sweep exit code {code}"])
        data = self.out.read_bytes()
        lines = data.decode().splitlines()
        err = lines[0].split(",").index("error")
        # A failing cell writes one error row in place of its fold rows.
        errors = sum(1 for ln in lines[1:] if ln.split(",")[err])
        problems = []
        if len(lines) - 1 != self.rows:
            problems.append(f"sweep wrote {len(lines) - 1} rows, expected {self.rows}")
        if errors:
            problems.append(f"{errors} sweep cells failed")
        return PassResult(
            wall, len(lines) - 1 - errors, self.cells + 1,
            errors + bool(problems), data, problems,
        )


def sweep_fig3(seed: int, workdir: Path, tiny: bool = False) -> SweepWorkload:
    """``spdreg sweep --preset fig3-middle``: 5 mu values x 4 pipelines x repeats."""
    out = workdir / "sweep.csv"
    argv = ["sweep", "--preset", "fig3-middle", "--seed", seed, "--out", out]
    if tiny:
        argv += ["--n", 30, "--folds", 3, "--repeats", 1]
        cells, rows = 20, 60
    else:
        argv += ["--repeats", 3]
        cells, rows = 60, 600
    return SweepWorkload(argv, out, cells, rows)


# ---------------------------------------------------------------------------
# The CLI through files
# ---------------------------------------------------------------------------


def _covb_labels(path: Path) -> np.ndarray:
    """Labels of a COVB file, read from its ``y <label>`` lines."""
    with open(path) as fh:
        return np.array([float(ln[2:]) for ln in fh if ln.startswith("y ")])


@dataclass
class CliWorkload:
    commands: list  # (name, argv)
    workdir: Path
    folds: int

    def run(self, span, jobs: int) -> PassResult:
        times = {}
        for name, argv in self.commands:
            start = perf_counter()
            with span(f"cli.{name}"):
                code = _quiet_main(argv)
            times[name] = perf_counter() - start
            if code != 0:
                wall = sum(times.values())
                return PassResult(wall, 0, len(times) + 1, 2, None,
                                  [f"{name} exit code {code}"])
        w = self.workdir
        labels = _covb_labels(w / "bundle.covb")
        pred = np.loadtxt(w / "pred.txt", skiprows=1, ndmin=1)
        ratio = float(np.mean(np.abs(pred - labels)) / np.std(labels))
        problems = []
        if not ratio < RECOVERY_TOL:
            problems.append(f"predict mae/std(y) = {ratio:.3e}, gate {RECOVERY_TOL:g}")
        maes = [float(r.split(",")[6]) for r in (w / "results.csv").read_text().splitlines()[1:]]
        if len(maes) != self.folds or not all(map(math.isfinite, maes)):
            problems.append(f"eval wrote {len(maes)} rows, expected {self.folds} finite")
        names = ("bundle.covb", "results.csv", "model.txt", "pred.txt")
        output = tuple(hashlib.sha256((w / f).read_bytes()).hexdigest() for f in names)
        return PassResult(
            sum(times.values()), self.folds, len(self.commands) + 1,
            int(bool(problems)), output, problems,
        )


def cli_files(seed: int, workdir: Path, tiny: bool = False) -> CliWorkload:
    """simulate -> eval (logdiag) -> fit (geometric) -> predict, through files."""
    p, n, folds = (5, 40, 4) if tiny else (32, 1000, 10)
    covb, model = workdir / "bundle.covb", workdir / "model.txt"
    commands = [
        ("simulate", ["simulate", "--p", p, "--n", n, "--mu", 0.1, "--seed", seed,
                      "--out", covb]),
        ("eval", ["eval", "--bundle", covb, "--embedding", "logdiag", "--folds", folds,
                  "--seed", seed, "--out", workdir / "results.csv"]),
        ("fit", ["fit", "--bundle", covb, "--embedding", "geometric", "--out", model]),
        ("predict", ["predict", "--model", model, "--bundle", covb,
                     "--out", workdir / "pred.txt"]),
    ]
    return CliWorkload(commands, workdir, folds)


def prepare(name: str, seed: int, workdir: Path, tiny: bool = False):
    """Build workload ``name`` for ``seed``; file workloads use ``workdir``."""
    if name == "cv_wasserstein_rankdef":
        return cv_wasserstein_rankdef(seed, tiny)
    if name == "cv_geometric_wide":
        return cv_geometric_wide(seed, tiny)
    if name == "sweep_fig3":
        return sweep_fig3(seed, workdir, tiny)
    if name == "cli_files":
        return cli_files(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cv_wasserstein_rankdef", "cv_geometric_wide", "sweep_fig3", "cli_files")
