"""The benchmark's traced run wraps functions by name; every name it expects
must still be called by a short pipeline, or ``bench/run.py --trace 1`` fails."""

import importlib
from pathlib import Path

import pytest

from mkfusion import dataset as ds
from mkfusion import evaluation as ev
from mkfusion import trainer as tr

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def traced_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("traced_run")


def test_every_expected_wrapper_is_hit(traced_run, tmp_path):
    tracer = traced_run.Tracer()
    traced_run.install_all(tracer)
    try:
        data, checkpoint = str(tmp_path / "data.json"), str(tmp_path / "checkpoint.json")
        ds.save_bundle(ds.generate_synthetic(ds.SyntheticSpec(), seed=1), data)
        bundle = ds.load_bundle(data)
        # Thresholds low enough that offspring reach both pools within 5 loops.
        config = tr.TrainConfig(steps=5, kappa1=0.3, kappa2=0.1, seed=1)
        tr.save_checkpoint(checkpoint, tr.train(config, bundle).state)
        state = tr.restore_checkpoint(checkpoint)
        prototypes = ev.synthesize_prototypes(state.model, {0: bundle.semantic_for(0)},
                                              seed=1)
        ev.evaluate_gzsl(state.model, bundle, seed=1)
        ev.retrieve_topk(prototypes, bundle.sample_visuals, 0)
    finally:
        tracer.uninstall()
    hit = {name for (_, name), record in tracer.stats.items() if record[0] > 0}
    assert sorted(set(traced_run.EXPECTED + traced_run.OFFSPRING) - hit) == []
