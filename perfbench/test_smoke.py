"""Smoke tests of the benchmark itself, on tiny versions of each workload.

Run with ``python3 -m pytest perfbench``. They check that every workload
passes its gates, that tracing leaves no wrapper behind and does not
change any output, and that call counts repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402


def _traced(wl, jobs=1):
    tracer = spans.Tracer()
    with tracer.installed():
        result = wl.run(tracer.span, jobs)
    assert spans.installed_wrappers() == []
    return result, tracer


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_traced_equals_untraced(name, tmp_path):
    wl = workloads.prepare(name, 3, tmp_path, tiny=True)
    plain = wl.run(run._nullspan, 1)
    assert plain.problems == [] and plain.failed == 0
    assert plain.folds > 0 and plain.wall_s > 0
    first, tracer = _traced(wl)
    second, again = _traced(wl)
    assert first.problems == [] and first.failed == 0
    assert first.output == plain.output == second.output
    assert tracer.missing == []
    values, repeat = run.layer_values(tracer), run.layer_values(again)
    assert set(values) == {name for name, _, _ in run.LAYER_METRICS}
    calls = [k for k in values if k.endswith("_calls")]
    assert {k: values[k] for k in calls} == {k: repeat[k] for k in calls}
    assert values["regress.fit_fold_s"] > 0


def test_counts_match_the_workload_shape(tmp_path):
    wl = workloads.prepare("cv_wasserstein_rankdef", 0, tmp_path, tiny=True)
    _, tracer = _traced(wl)
    assert tracer.counts["regress.fit_fold"] == wl.folds
    assert tracer.counts["manifold.factorize"] > 0
    wl = workloads.prepare("cv_geometric_wide", 0, tmp_path, tiny=True)
    _, tracer = _traced(wl)
    assert tracer.counts["manifold.factorize"] == 0
    assert tracer.counts["manifold.mean_geometric"] == wl.folds


def test_wrappers_restored_when_a_pass_raises():
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert spans.installed_wrappers() != []
            raise RuntimeError("boom")
    assert spans.installed_wrappers() == []


def test_self_time_excludes_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        (0, None, "outer", 0.0, 10.0),
        (1, 0, "inner", 1.0, 4.0),
        (2, 1, "leaf", 2.0, 3.0),
        (3, 0, "inner", 5.0, 6.0),
    ]
    assert tracer.totals() == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}
    assert tracer.self_totals() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_sweep_csv_same_at_one_and_two_jobs(tmp_path):
    wl = workloads.prepare("sweep_fig3", 2, tmp_path, tiny=True)
    assert wl.run(run._nullspan, 1).output == wl.run(run._nullspan, 2).output


def test_fails_without_the_program(tmp_path):
    """With only the benchmark files present, exit non-zero and print no result."""
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_files", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
