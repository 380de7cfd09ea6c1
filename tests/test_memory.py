"""Working memory of the streamed per-sample paths, traced by tracemalloc.

Each bound is on the traced peak above the memory held before the call, so
it counts the result and every temporary, and it does not depend on the
allocator's placement the way a resident-set size does. The streamed paths
hold a few blocks of ``symmat.BLOCK_BYTES`` beside their output, whatever n,
and no path holds a second copy of an ``(n, p, p)`` stack or of a fold's
feature rows.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import rand_orthogonal
from spdreg import (
    CovarianceBundle,
    read_covb,
    write_covb,
    GenerativeConfig,
    PipelineSpec,
    identity_filter,
    manifold,
    regress,
    sample_bundle,
    symmat,
)
from spdreg.manifold import Embedding, embed, mean_geometric


def traced_peak(fn):
    """``fn()`` and the peak bytes it allocated above what was already held."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - held


def near_identity_stack(n, p, seed=0):
    """n SPD matrices with eigenvalues in [exp(-0.2), exp(0.2)]."""
    rng = np.random.default_rng(seed)
    q = np.stack([rand_orthogonal(rng, p) for _ in range(n)])
    w = np.exp(rng.uniform(-0.2, 0.2, size=(n, 1, p)))
    return (q * w) @ q.swapaxes(1, 2)


@pytest.mark.parametrize("p", [64, 32])
def test_geometric_mean_and_embed_hold_a_few_blocks(p):
    stack = near_identity_stack(400, p)
    n, k = len(stack), p * (p + 1) // 2
    point, peak = traced_peak(lambda: mean_geometric(stack))
    # The mean returns no rows, but each state it evaluates holds them.
    bound = n * k * 8 + 6 * symmat.BLOCK_BYTES
    assert peak <= bound, f"mean_geometric peaked {peak} bytes above the bound {bound}"
    emb = Embedding("geometric", reference=point)
    rows, peak = traced_peak(lambda: embed(emb, stack))
    bound = rows.nbytes + 6 * symmat.BLOCK_BYTES
    assert peak <= bound, f"embed peaked {peak} bytes above the bound {bound}"


def test_generator_holds_a_few_blocks():
    # The generator symmetrizes each block as it mixes it and hands its one
    # stack to the bundle. A first call's lazy imports are not its memory.
    cfg = GenerativeConfig(p=64, q=2, n=400, mu=0.1, sigma_mix=0.02, seed=0)
    sample_bundle(GenerativeConfig(p=3, q=1, n=2, mu=0.1, sigma_mix=0.02, seed=0))
    (bundle, _), peak = traced_peak(lambda: sample_bundle(cfg))
    bound = bundle.matrices.nbytes + 3 * symmat.BLOCK_BYTES
    assert peak <= bound, f"sample_bundle peaked {peak} bytes above the bound {bound}"


def test_covb_io_holds_the_arrays_not_the_text(tmp_path):
    # The reader parses the file's triangle lines straight into one array
    # and mirrors them into the (n, p, p) stack, which the bundle keeps: the
    # peak is the triangles and one stack. The writer formats one sample at
    # a time.
    bundle, _ = sample_bundle(GenerativeConfig(p=32, n=400, mu=0.1, seed=0))
    path = tmp_path / "b.covb"
    _, peak = traced_peak(lambda: write_covb(path, bundle))
    bound = 256 << 10
    assert peak <= bound, f"write_covb peaked {peak} bytes above the bound {bound}"
    back, peak = traced_peak(lambda: read_covb(path))
    bound = 1.6 * back.matrices.nbytes + (256 << 10)
    assert peak <= bound, f"read_covb peaked {peak} bytes above the bound {bound}"


def test_fit_fold_drops_the_training_stack_before_the_ridge_fit(monkeypatch):
    # A training subset of shared samples gathers its (n, p, p) stack for
    # the geometric mean alone: the ridge fit holds the mean's feature
    # rows, not the stack beside them.
    stack = near_identity_stack(200, 64)
    labels = np.random.default_rng(1).standard_normal(200)
    bundle = CovarianceBundle(stack, labels, nominal_rank=64)
    filt = identity_filter(64)
    shared = regress.project(filt, bundle.matrices, "geometric")
    train_idx = np.arange(0, 200, 2)
    stack_bytes = stack[train_idx].nbytes
    assert stack_bytes > symmat.BLOCK_BYTES
    fit_ridge_gcv, held = regress.fit_ridge_gcv, []

    def ridge_noting_memory(rows, *args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - rows.nbytes)
        return fit_ridge_gcv(rows, *args, **kwargs)

    monkeypatch.setattr(regress, "fit_ridge_gcv", ridge_noting_memory)
    spec = PipelineSpec(embedding_kind="geometric")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        regress.fit_fold(filt, shared.subset(train_idx), labels[train_idx], spec)
    finally:
        tracemalloc.stop()
    extra = held[0] - start
    assert extra <= symmat.BLOCK_BYTES, (
        f"the ridge fit began holding {extra} bytes beside its rows "
        f"(the training stack is {stack_bytes})"
    )


def test_bundle_from_a_list_holds_one_stack():
    # np.asarray stacks the list into a new array, which is symmetrized in
    # place block by block: no symmetrized copy sits beside it.
    stack = near_identity_stack(400, 64)
    matrices = list(stack)
    _, peak = traced_peak(lambda: CovarianceBundle(matrices, np.zeros(400), nominal_rank=64))
    bound = stack.nbytes + 2 * symmat.BLOCK_BYTES
    assert peak <= bound, f"CovarianceBundle peaked {peak} bytes above the bound {bound}"


def test_geometric_fit_fold_holds_its_rows_once(monkeypatch):
    # The closed-form mean gathers the training stack and drops it before
    # the rows are streamed from the shared samples, and the ridge centres
    # the fold's rows in place: neither the stack nor a centred copy of the
    # rows is held beside them.
    n, p = 200, 64
    stack = near_identity_stack(n, p)
    labels = np.random.default_rng(1).standard_normal(n)
    filt = identity_filter(p)
    shared = regress.project(filt, CovarianceBundle(stack, labels, nominal_rank=p).matrices,
                             "geometric")
    train_idx = np.arange(0, n, 2)
    stack_bytes = stack[train_idx].nbytes
    rows_bytes = len(train_idx) * p * (p + 1) // 2 * 8
    assert stack_bytes > 3 * symmat.BLOCK_BYTES
    geo_state, fit_ridge_gcv, held, ridge_peak = manifold._geo_state, regress.fit_ridge_gcv, [], []

    def geo_state_noting_memory(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return geo_state(*args)

    def ridge_noting_peak(rows, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        model = fit_ridge_gcv(rows, *args, **kwargs)
        ridge_peak.append(tracemalloc.get_traced_memory()[1] - before)
        return model

    monkeypatch.setattr(manifold, "_geo_state", geo_state_noting_memory)
    monkeypatch.setattr(regress, "fit_ridge_gcv", ridge_noting_peak)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        regress.fit_fold(filt, shared.subset(train_idx), labels[train_idx], PipelineSpec())
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] - start <= symmat.BLOCK_BYTES, (
        f"the rows began streaming beside {held[0] - start} bytes "
        f"(the training stack is {stack_bytes})"
    )
    assert ridge_peak[0] <= rows_bytes / 2, (
        f"the ridge fit peaked {ridge_peak[0]} bytes above its rows ({rows_bytes})"
    )


def test_cv_filter_fit_holds_one_training_stack():
    # Each fold fits its filter on the training rows of the bundle's array:
    # one gathered (n_train, p, p) stack for the mean, not a second,
    # symmetrized copy of it inside a training bundle.
    stack = near_identity_stack(200, 32)
    bundle = CovarianceBundle(stack, np.random.default_rng(1).standard_normal(200), 32)
    spec = PipelineSpec(filter_kind="unsupervised", filter_rank=4, embedding_kind="geometric")
    _, peak = traced_peak(lambda: regress.run_pipeline_cv(bundle, spec, folds=2, seed=0))
    bound = 1.5 * stack[:100].nbytes
    assert peak <= bound, f"run_pipeline_cv peaked {peak} bytes above the bound {bound}"


@pytest.mark.parametrize("kind", ["unsupervised", "supervised"])
def test_cv_filter_fit_holds_no_earlier_projection(kind, monkeypatch):
    # A fold's filter fit holds its training split and the earlier folds'
    # small fitted states, not the bundle the last fold projected (here as
    # large as the split): it is dropped before the split is gathered.
    n, p, r = 200, 32, 30
    bundle = CovarianceBundle(near_identity_stack(n, p), np.random.default_rng(1).standard_normal(n), p)
    fit, held = getattr(regress, f"fit_{kind}"), []

    def fit_noting_memory(mats, *args):
        held.append(tracemalloc.get_traced_memory()[0] - mats.nbytes)
        return fit(mats, *args)

    monkeypatch.setattr(regress, f"fit_{kind}", fit_noting_memory)
    spec = PipelineSpec(filter_kind=kind, filter_rank=r, embedding_kind="geometric")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        regress.run_pipeline_cv(bundle, spec, folds=3, seed=0)
    finally:
        tracemalloc.stop()
    projected = n * r * r * 8
    extra = max(held) - start
    assert len(held) == 3
    assert extra <= projected / 8, (
        f"a filter fit began holding {extra} bytes beside its split "
        f"(a projected bundle is {projected})"
    )
