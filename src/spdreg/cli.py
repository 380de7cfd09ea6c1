"""Command-line interface.

Subcommands: ``simulate``, ``fit``, ``predict``, ``eval``, ``sweep``,
``mean``, ``embed``, ``witness``. Every option can come from a
plain-text config file (``key = value`` lines, ``#`` comments) given
with ``--config``; command-line flags override config values. Unknown
config keys are rejected.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure. Standard output carries short summaries only; data goes to the
files named by ``--out`` and friends.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import filters, manifold, regress, simgen
from .bundle import LineReader, number, read_covb, row_format, write_covb, write_rows
from .errors import ConfigError, NumericalError, SampleError, SingularMatrix
from .symmat import numerical_rank


# ---------------------------------------------------------------------------
# Option tables: one schema drives both config-file keys and CLI flags
# ---------------------------------------------------------------------------


def _option(v: str, kind: type, what: str):
    """Option value ``v`` by the number rule of the data files (non-finite
    values too: the options that take none say why)."""
    try:
        return number(v, kind, finite=False)
    except ValueError:
        raise ConfigError(f"expected {what}, got {v!r}") from None


def _parse_int(v: str) -> int:
    return _option(v, int, "an integer")


def _parse_float(v: str) -> float:
    return _option(v, float, "a number")


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _parse_floats(v: str) -> list[float]:
    items = [s for s in v.split(",") if s.strip()]
    return [_parse_float(s) for s in items]


def _parse_str(v: str) -> str:
    return v.strip()


Opt = namedtuple("Opt", "name parse default help")


_GEN_OPTS = [
    Opt("p", _parse_int, 5, "number of sensors"),
    Opt("q", _parse_int, 2, "number of signal sources (q < p)"),
    Opt("n", _parse_int, 100, "number of subjects"),
    Opt("mu", _parse_float, 1.0, "distance of the mixing matrix from identity"),
    Opt("sigma", _parse_float, 0.0, "label noise standard deviation"),
    Opt("sigma_mix", _parse_float, 0.0, "per-subject mixing perturbation"),
    Opt("f", _parse_str, "log", "link function: identity, log, or sqrt"),
    Opt("orthogonal_a", _parse_bool, False, "replace the mixing by its orthogonal polar factor"),
    Opt("seed", _parse_int, 0, "random seed"),
]

_PIPE_OPTS = [
    Opt("filter", _parse_str, "identity", "spatial filter: identity, unsupervised, supervised, mne"),
    Opt("embedding", _parse_str, "geometric", "embedding: euclidean, geometric, wasserstein, logdiag"),
    Opt("rank", _parse_int, 0, "filter rank (0 means not set)"),
    Opt("leadfield", _parse_str, "", "leadfield file for the mne filter"),
    Opt("mne_lambda", _parse_float, 1.0, "Tikhonov regularization of the mne filter"),
    Opt("ridge_min", _parse_float, 1e-5, "smallest ridge grid value"),
    Opt("ridge_max", _parse_float, 1e3, "largest ridge grid value"),
    Opt("ridge_count", _parse_int, 100, "number of ridge grid values"),
]

OPTIONS = {
    "simulate": _GEN_OPTS + [Opt("out", _parse_str, "bundle.covb", "output bundle file")],
    "fit": _PIPE_OPTS
    + [
        Opt("bundle", _parse_str, "", "input bundle file"),
        Opt("out", _parse_str, "model.txt", "output model file"),
    ],
    "eval": _PIPE_OPTS
    + [
        Opt("bundle", _parse_str, "", "input bundle file"),
        Opt("folds", _parse_int, 10, "number of cross-validation folds"),
        Opt("seed", _parse_int, 0, "fold shuffling seed"),
        Opt("out", _parse_str, "results.csv", "output results file"),
    ],
    "predict": [
        Opt("model", _parse_str, "", "input model file"),
        Opt("bundle", _parse_str, "", "input bundle file"),
        Opt("out", _parse_str, "predictions.txt", "output predictions file"),
    ],
    "sweep": _GEN_OPTS
    + [
        Opt("preset", _parse_str, "", "named sweep: fig3-left, fig3-middle, fig3-right"),
        Opt("axis", _parse_str, "", "sweep axis: sigma, mu, or sigma_mix"),
        Opt("values", _parse_floats, [], "comma-separated axis values"),
        Opt("specs", _parse_str, "", "comma-separated pipelines, e.g. identity+geometric"),
        Opt("folds", _parse_int, 10, "number of cross-validation folds"),
        Opt("repeats", _parse_int, 3, "repeats per cell (seed offset)"),
        Opt("jobs", _parse_int, 0, "worker processes (0 means all usable cores)"),
        Opt("out", _parse_str, "sweep.csv", "output results file"),
    ],
    "mean": [
        Opt("bundle", _parse_str, "", "input bundle file"),
        Opt("metric", _parse_str, "geometric", "mean metric: euclidean, geometric, wasserstein"),
        Opt("out", _parse_str, "mean.txt", "output matrix file"),
    ],
    "embed": [
        Opt("bundle", _parse_str, "", "input bundle file"),
        Opt("embedding", _parse_str, "geometric", "embedding kind"),
        Opt("out", _parse_str, "features.txt", "output feature file"),
    ],
    "witness": [
        Opt("out", _parse_str, "", "also write the table to this file"),
    ],
}


def parse_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    table = OPTIONS[command]
    by_name = {o.name: o for o in table}
    values = {o.name: o.default for o in table}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in by_name:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            values[key] = by_name[key].parse(raw)
    for opt in table:
        flag_val = getattr(args, opt.name, None)
        if flag_val is not None:
            values[opt.name] = opt.parse(flag_val)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdreg",
        description="Regression on covariance matrices via tangent-space embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in OPTIONS.items():
        cp = sub.add_parser(command)
        cp.add_argument("--config", default=None, help="plain-text config file")
        for opt in table:
            flag = "--" + opt.name.replace("_", "-")
            cp.add_argument(flag, default=None, help=opt.help)
    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _require_file(opts, key) -> str:
    if not opts[key]:
        raise ConfigError(f"missing required option {key!r}")
    if not Path(opts[key]).exists():
        raise ConfigError(f"{key} file not found: {opts[key]}")
    return opts[key]


def _generative_config(opts) -> simgen.GenerativeConfig:
    keys = ("p", "q", "n", "mu", "sigma", "sigma_mix", "orthogonal_a", "seed")
    return simgen.GenerativeConfig(f_kind=opts["f"], **{k: opts[k] for k in keys})


def _ridge_grid(opts) -> np.ndarray:
    lo, hi, count = opts["ridge_min"], opts["ridge_max"], opts["ridge_count"]
    for key in ("ridge_min", "ridge_max"):
        if not np.isfinite(opts[key]):
            raise ConfigError(f"{key} must be a finite number, got {opts[key]}")
    if lo <= 0 or hi <= lo or count < 1:
        raise ConfigError("ridge grid needs 0 < ridge_min < ridge_max and ridge_count >= 1")
    if count == 1:
        return np.array([lo])
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _pipeline_spec(opts) -> regress.PipelineSpec:
    lead = None
    if opts["filter"] == "mne":
        lead = filters.read_leadfield(_require_file(opts, "leadfield"))
    rank = opts["rank"] if opts["rank"] > 0 else None
    return regress.PipelineSpec(
        filter_kind=opts["filter"],
        filter_rank=rank,
        embedding_kind=opts["embedding"],
        ridge_grid=_ridge_grid(opts),
        leadfield=lead,
        mne_lambda=opts["mne_lambda"],
    )


def _write_matrix_file(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        write_rows(fh, np.reshape(rows, (len(rows), -1)))


# ---------------------------------------------------------------------------
# Model file: MODEL v3
# ---------------------------------------------------------------------------


def write_model(path, state: regress.FoldState) -> None:
    filt, emb, model = state.filt, state.embedding, state.model
    with open(path, "w") as fh:
        fh.write(f"MODEL v3\nembedding {emb.kind}\n")
        fh.write("filter {} {} {}\n".format(filt.kind, *filt.w.shape))
        write_rows(fh, filt.w)
        write_rows(fh, filt.eigenvalues, "filter_eigs")
        fh.write(f"reference {'none' if emb.reference is None else len(emb.reference)}\n")
        if emb.reference is not None:
            write_rows(fh, emb.reference)
        write_rows(fh, [model.lambda_star, model.intercept], "ridge", str(model.beta.size))
        for name, values in (("mean", model.feature_mean), ("scale", model.feature_scale),
                             ("beta", model.beta)):
            write_rows(fh, values, name)


def _build(src: LineReader, line: int, make, **fields):
    """``make(**fields)``; a value it rejects is an error of ``src`` at ``line``
    (a solver failure is not the file's)."""
    try:
        return make(**fields)
    except (ValueError, SampleError, SingularMatrix) as exc:
        src.lineno = line
        raise src.error(str(exc)) from None


def read_model(path) -> regress.FoldState:
    path = Path(path)
    with open(path, "rb") as fh:
        src = LineReader(path, fh)
        src.words("MODEL v3")
        emb_kind, emb_line = src.words("embedding <kind>")[1], src.lineno
        _, filt_kind, p, r = src.words("filter <kind> <p> <r>")
        filt_line, w = src.lineno, src.block(src.count(p), src.count(r))
        eigs = src.floats(src.words("filter_eigs ...")[1:])
        filt = _build(src, filt_line, filters.SpatialFilter, w=w, kind=filt_kind,
                      eigenvalues=eigs)
        rp = src.words("reference <p|none>")[1]
        rp = 0 if rp == "none" else src.count(rp)
        if rp and rp != w.shape[1]:
            raise src.error(f"reference dimension {rp} differs from filter width {w.shape[1]}")
        reference = src.block(rp, rp) if rp else None
        emb = _build(src, emb_line, manifold.Embedding, kind=emb_kind, reference=reference)
        _, k, *ridge = src.words("ridge <k> <lambda> <intercept>")
        k, (lam, intercept) = src.count(k), src.floats(ridge, 2).tolist()
        r = w.shape[1]
        width = r if emb.kind == "logdiag" else r * (r + 1) // 2
        if emb.kind == "wasserstein":
            width = r * numerical_rank(reference)
        if k != width:
            raise src.error(f"expected {width} features for a {emb.kind} embedding of filter "
                            f"width {r}, got {k}")
        mean = src.floats(src.words("mean ...")[1:], k)
        scale = src.floats(src.words("scale <s>")[1:])[0]
        if scale <= 0:
            raise src.error(f"feature scale must be positive, got {scale!r}")
        beta = src.floats(src.words("beta ...")[1:], k)
        src.end()
    model = regress.RidgeModel(beta=beta, intercept=intercept, lambda_star=lam,
                               feature_mean=mean, feature_scale=scale)
    return regress.FoldState(filt=filt, embedding=emb, model=model)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(opts) -> int:
    cfg = _generative_config(opts)
    bund, _ = simgen.sample_bundle(cfg)
    write_covb(opts["out"], bund)
    labels = bund.labels
    print(
        f"simulated n={bund.n} p={bund.dim} rank={bund.nominal_rank} seed={cfg.seed} "
        f"labels mean={labels.mean():.6g} std={labels.std():.6g} -> {opts['out']}"
    )
    return 0


@contextmanager
def _filter_hint(bund, kind: str, flag: str = ""):
    """To a singular-matrix or sample error of a geometric ``kind``, or of a
    Wasserstein one with no ``flag``, append the lowest numerical rank
    ``0 < r < p`` of the samples of ``bund`` (measured on this error path
    only; a non-PSD sample is named instead) and the projection to ``r``;
    with ``flag``, a command's kind option, ``use <flag> wasserstein``."""
    try:
        yield
    except (SingularMatrix, SampleError) as exc:
        if kind == "geometric" or (kind == "wasserstein" and not flag):
            r, p = int(numerical_rank(bund.matrices).min()), bund.dim
            if 0 < r < p:
                hint = f"use {flag} wasserstein" if flag else ("project onto the common "
                       f"full-rank subspace with --filter unsupervised --rank {r}")
                exc.args = (f"{exc}; lowest numerical rank {r} of {p}: {hint}",)
        raise


def cmd_fit(opts) -> int:
    bund = read_covb(_require_file(opts, "bundle"))
    spec = _pipeline_spec(opts)
    with _filter_hint(bund, spec.embedding_kind):
        filt = regress.fit_filter(bund.matrices, bund.labels, spec)
        train = regress.project(filt, bund.matrices, spec.embedding_kind)
        state = regress.fit_fold(filt, train, bund.labels, spec)
    write_model(opts["out"], state)
    train_mae = float(np.mean(np.abs(bund.labels - state.model.fitted)))
    print(
        f"fitted {spec.label} on n={bund.n} "
        f"lambda={state.model.lambda_star:.6g} train_mae={train_mae:.6g} -> {opts['out']}"
    )
    return 0


def cmd_eval(opts) -> int:
    bund = read_covb(_require_file(opts, "bundle"))
    folds = opts["folds"]
    spec = _pipeline_spec(opts)
    with _filter_hint(bund, spec.embedding_kind):
        report = regress.run_pipeline_cv(bund, spec, folds, seed=opts["seed"])
    rank = regress.effective_rank(spec, bund.dim)
    rows = regress.results_rows(spec, report, rank=rank)
    regress.write_csv(opts["out"], regress.RESULTS_HEADER, rows)
    print(
        f"evaluated {spec.label} folds={folds} seed={opts['seed']} "
        f"mean_mae={report.mean_mae:.6g} -> {opts['out']}"
    )
    return 0


def cmd_predict(opts) -> int:
    state = read_model(_require_file(opts, "model"))
    bund = read_covb(_require_file(opts, "bundle"))
    if bund.dim != len(state.filt.w):
        raise ConfigError(f"{opts['bundle']}: bundle has dimension {bund.dim}, "
                          f"model {opts['model']} expects {len(state.filt.w)}")
    test = regress.project(state.filt, bund.matrices, state.embedding.kind)
    yhat = regress.predict_fold(state, test)
    _write_matrix_file(opts["out"], f"PRED v1 {len(yhat)}", yhat)
    mae = float(np.mean(np.abs(bund.labels - yhat)))
    print(f"predicted n={len(yhat)} mae={mae:.6g} -> {opts['out']}")
    return 0


def _sweep_specs(opts, q: int) -> list[regress.PipelineSpec]:
    tokens = [t for t in opts["specs"].split(",") if t.strip()]
    if not tokens:
        defaults = [("identity", None, "geometric", "geometric"),
                    ("identity", None, "wasserstein", "wasserstein"),
                    ("identity", None, "logdiag", "logdiag"),
                    ("supervised", q, "logdiag", "supervised+logdiag")]
        return [regress.PipelineSpec(filter_kind=f, filter_rank=r, embedding_kind=e, name=name)
                for f, r, e, name in defaults]
    specs = []
    for token in tokens:
        token = token.strip()
        rank = None
        if ":" in token:
            token, rank_str = token.rsplit(":", 1)
            rank = _parse_int(rank_str)
        if "+" not in token:
            raise ConfigError(f"bad pipeline spec {token!r}; expected filter+embedding")
        fkind, ekind = token.split("+", 1)
        if fkind in ("unsupervised", "supervised") and rank is None:
            rank = q
        try:
            specs.append(
                regress.PipelineSpec(
                    filter_kind=fkind, filter_rank=rank, embedding_kind=ekind
                )
            )
        except ValueError as exc:
            raise ConfigError(f"bad pipeline spec {token!r}: {exc}") from exc
    return specs


SWEEP_PRESETS = {
    "fig3-left": {"axis": "sigma", "values": [0.0, 0.05, 0.1, 0.2, 0.4]},
    "fig3-middle": {"axis": "mu", "values": [0.0, 0.25, 0.5, 0.75, 1.0], "sigma": 0.0},
    "fig3-right": {"axis": "sigma_mix", "values": [0.0, 0.0025, 0.005, 0.01, 0.02]},
}


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(opts) -> int:
    preset = opts["preset"]
    if preset:
        if preset not in SWEEP_PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; expected one of {sorted(SWEEP_PRESETS)}"
            )
        defaults = {o.name: o.default for o in OPTIONS["sweep"]}
        for key, value in SWEEP_PRESETS[preset].items():
            if opts[key] not in (defaults[key], value):
                raise ConfigError(f"{key} = {opts[key]} conflicts with preset {preset!r}, "
                                  f"which sets {key} = {value}")
        opts = {**opts, **SWEEP_PRESETS[preset]}
    cfg = _generative_config(opts)
    specs = _sweep_specs(opts, cfg.q)
    if opts["jobs"] < 0:
        raise ConfigError(f"jobs must be 0 (all usable cores) or more, got {opts['jobs']}")
    jobs = opts["jobs"] or _usable_cores()
    rows = simgen.sweep(cfg, opts["axis"], opts["values"], specs, folds=opts["folds"],
                        repeats=opts["repeats"], jobs=jobs)
    regress.write_csv(opts["out"], simgen.SWEEP_HEADER, rows)
    errors = sum(1 for r in rows if r["error"])
    print(
        f"swept {opts['axis']} over {len(opts['values'])} values x {len(specs)} pipelines "
        f"x {opts['repeats']} repeats ({len(rows)} rows, {errors} errors) -> {opts['out']}"
    )
    return 0


def cmd_mean(opts) -> int:
    bund = read_covb(_require_file(opts, "bundle"))
    metric = opts["metric"]
    with _filter_hint(bund, metric, "--metric"):
        if metric == "euclidean":
            m = manifold.mean_euclidean(bund.matrices)
        elif metric == "geometric":
            m = manifold.mean_geometric(bund.matrices)
        elif metric == "wasserstein":
            m = manifold.mean_wasserstein(bund.matrices)
        else:
            raise ConfigError(f"unknown metric {metric!r}")
    _write_matrix_file(opts["out"], f"SYMMAT v1 {len(m)}", m)
    print(f"{metric} mean of n={bund.n} p={len(m)} trace={np.trace(m):.6g} -> {opts['out']}")
    return 0


def cmd_embed(opts) -> int:
    bund = read_covb(_require_file(opts, "bundle"))
    kind = opts["embedding"]
    with _filter_hint(bund, kind, "--embedding"):
        _, rows = manifold.fit_embedding(bund.matrices, kind)
    n, k = rows.shape
    _write_matrix_file(opts["out"], f"FEAT v1 {n} {k}", rows)
    print(f"embedded n={n} k={k} kind={kind} -> {opts['out']}")
    return 0


def cmd_witness(opts) -> int:
    a, b, dists = manifold.no_affine_invariance_witness()
    decreasing = all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    text = (
        "rank-deficient pair: congruence by diag(1, eps) shrinks the distance\n"
        + row_format(1, "wasserstein distance d(a, b) =") % manifold.dist_wasserstein(a, b)
        + "eps distance\n"
        + "".join(row_format(2) % pair for pair in zip(manifold.WITNESS_EPSILONS, dists))
        + f"strictly decreasing: {'yes' if decreasing else 'no'}\n"
    )
    sys.stdout.write(text)
    if opts["out"]:
        Path(opts["out"]).write_text(text)
    return 0


DISPATCH = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "sweep": cmd_sweep,
    "mean": cmd_mean,
    "embed": cmd_embed,
    "witness": cmd_witness,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        opts = resolve_options(args.command, args)
        return DISPATCH[args.command](opts)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
