"""The benchmark's traced run wraps functions by name and calls the package the
way the CLI does; a rename, a function nobody calls any more or a changed
signature must fail here, not only in ``bench/run.py --trace 1``."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("traced_run"), importlib.import_module("workloads")


def test_every_expected_wrapper_is_hit(bench, tmp_path):
    traced_run, workloads = bench
    # Thresholds low enough that offspring reach both pools within 5 loops.
    w = workloads.Workload(name="wrapper-check", why="tier-1 guard",
                           train_config={"steps": 5, "kappa1": 0.3, "kappa2": 0.1})
    tracer = traced_run.Tracer()
    traced = traced_run.run_pass(w, 1, tmp_path, "traced", tracer)
    untraced = traced_run.run_pass(w, 1, tmp_path, "untraced", None)
    hit = {name for (_, name), record in tracer.stats.items() if record[0] > 0}
    assert sorted(set(traced_run.EXPECTED + traced_run.OFFSPRING) - hit) == []
    for key in ("report_sha256", "params_sha256", "metrics", "rankings"):
        assert traced[key] == untraced[key], key
