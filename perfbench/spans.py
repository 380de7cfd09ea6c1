"""In-memory span and call-count tracer installed from outside the program.

The tracer replaces module attributes of ``spdreg`` with timing wrappers
for the duration of a ``with tracer.installed():`` block and restores the
originals in ``finally``. A wrapper sits at the attribute the *caller*
looks up (``regress.embed``, not ``manifold.embed``), because the modules
bind each other's functions with ``from .x import f`` at import time.

Spans are ``(id, parent_id, name, start, end)`` tuples kept in memory;
nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name, timed). Untimed targets only count calls:
# the eigen kernels run ~10^4 times per pass, so they get no span.
TARGETS = (
    ("spdreg.simgen", "sample_bundle", "simgen.sample_bundle", True),
    ("spdreg.simgen", "sweep", "simgen.sweep", True),
    ("spdreg.simgen", "run_pipeline_cv", "regress.run_pipeline_cv", True),
    ("spdreg.cli", "write_covb", "bundle.write_covb", True),
    ("spdreg.cli", "read_covb", "bundle.read_covb", True),
    ("spdreg.regress", "identity_filter", "filters.fit", True),
    ("spdreg.regress", "fit_unsupervised", "filters.fit", True),
    ("spdreg.regress", "fit_supervised", "filters.fit", True),
    ("spdreg.regress", "fit_mne", "filters.fit", True),
    ("spdreg.regress", "apply", "filters.apply", True),
    ("spdreg.regress", "fit_fold", "regress.fit_fold", True),
    ("spdreg.regress", "predict_fold", "regress.predict_fold", True),
    ("spdreg.regress", "fit_ridge_gcv", "regress.fit_ridge_gcv", True),
    ("spdreg.regress", "fit_embedding", "manifold.fit_embedding", True),
    ("spdreg.regress", "embed", "manifold.embed", True),
    ("spdreg.manifold", "mean_geometric", "manifold.mean_geometric", True),
    ("spdreg.manifold", "mean_wasserstein", "manifold.mean_wasserstein", True),
    ("spdreg.manifold", "factorize", "manifold.factorize", True),
    ("spdreg.manifold", "eigh", "symmat.eigh", False),
    ("spdreg.manifold", "numerical_rank", "symmat.numerical_rank", False),
    ("spdreg.filters", "eigh", "symmat.eigh", False),
    ("spdreg.filters", "numerical_rank", "symmat.numerical_rank", False),
)


class Tracer:
    """Collects spans and call counts; one instance per measured pass."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the block, nested under the open span."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)
            self.counts[name] += 1

    def _wrap(self, fn, name: str, timed: bool):
        if timed:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

        wrapper.perfbench_wrapper = True
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target attribute; always restore the originals.

        A target the program no longer has is skipped and listed in
        ``missing``, so a later refactor shows up as a zero count rather
        than a crash.
        """
        originals = []
        try:
            for module_name, attr, name, timed in TARGETS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, timed))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = Counter()
        for _, _, name, start, end in self.spans:
            out[name] += end - start
        return dict(out)

    def self_totals(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return dict(out)


def installed_wrappers() -> list[str]:
    """Target attributes that currently hold a tracer wrapper."""
    found = []
    for module_name, attr, _, _ in TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if getattr(fn, "perfbench_wrapper", False):
            found.append(f"{module_name}.{attr}")
    return found
