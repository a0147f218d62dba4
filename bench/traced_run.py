"""Traced in-process run of one benchmark workload.

Calls the public functions the CLI calls (generate and save a dataset, load
it, train, save the checkpoint, restore it, evaluate in gzsl mode, retrieve)
three times in one process: traced, untraced, traced. Timing wrappers are
installed from this file around each module's public functions; nothing in
``mkfusion`` is changed. A wrapper replaces the function at every place a
module holds it, so names bound at import time (``from .dataset import
load_bundle``) are covered too.

Spans are aggregated in memory per (phase, name) into calls, inclusive time
and self time (inclusive minus the time of wrapped children), and written out
once at the end. Invoked by ``run.py --trace 1`` with ``PYTHONPATH=src``:

    python3 bench/traced_run.py --workload train-default --seed 1 \
        --work DIR --out result.json
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import mkfusion
from mkfusion import autodiff as ad
from mkfusion import dataset as ds
from mkfusion import evaluation as ev
from mkfusion import genetics as gn
from mkfusion import model as mdl
from mkfusion import trainer as tr

from workloads import (WORKLOADS, Workload, check_metrics, check_ranking,
                       params_digest, parse_metrics, sha256_text, split_report)

OPS = ("matmul", "add", "sub", "mul", "div", "scalar_mul", "reduce_mean",
       "reduce_sum", "square", "log", "sigmoid", "leaky_relu", "softmax",
       "l2_squared_distance", "cross_entropy_with_logits", "cosine_similarity")
REPORTED_OPS = ("matmul", "add", "leaky_relu", "sigmoid", "cross_entropy_with_logits")
OFFSPRING = ("genetics.sample_parents", "genetics.mutate", "genetics.crossover",
             "genetics.stability_scores", "genetics.select")
MODEL_SPANS = ("model.discriminate", "model.fuse", "model.loss_discriminator",
               "model.loss_generator")
# Wrappers that every workload must hit at least once.
EXPECTED = (tuple(f"autodiff.{op}" for op in REPORTED_OPS)
            + ("autodiff.backward", "autodiff.adam", "autodiff.clip")
            + tuple(f"model.generate.{level}" for level in ds.LEVELS) + MODEL_SPANS
            + ("genetics.loss_er", "genetics.loss_nr", "genetics.pool_flat",
               "genetics.cosine_rows", "trainer.train", "trainer.save_checkpoint",
               "trainer.restore_checkpoint", "dataset.load_bundle",
               "dataset.generate_synthetic", "dataset.derive_knowledge_datasets",
               "dataset.compute_visual_centers", "evaluation.synthesize_prototypes",
               "evaluation.seen_unseen_curve", "evaluation.retrieval_precision",
               "evaluation.retrieve_topk", "evaluation.evaluate_gzsl"))


class Tracer:
    """Timing wrappers around module functions, with per-(phase, name) totals."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = defaultdict(float)
        self.spans = []  # top-level spans: name, phase, start, seconds
        self.sites: dict[str, list[str]] = {}
        self._open: list[list[float]] = []  # child time of each open span
        self._restore = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[f"{self.phase}/{name}"] += value

    def wrap(self, name, fn, label=None, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = label(*args) if label else name
            if before:
                before(tracer, *args)
            children = [0.0]
            tracer._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                else:
                    tracer.spans.append((key, tracer.phase, start, elapsed))
                record = tracer.stats[(tracer.phase, key)]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children[0]
            if after:
                after(tracer, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a class attribute, or a module function at
        every module attribute that holds it) with a timing wrapper."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, **hooks)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "mkfusion" or n.startswith("mkfusion.")]
            sites = [(m, key) for m in modules for key, value in list(vars(m).items())
                     if value is original]
        for target, key in sites:
            setattr(target, key, traced)
            self._restore.append((target, key, original))
        self.sites[name] = [f"{target.__name__}.{key}" for target, key in sites]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


def install_all(t: Tracer) -> None:
    for op in OPS:
        if op == "matmul":
            t.install(ad, op, "autodiff.matmul", before=lambda t, a, b: t.count(
                "autodiff.matmul.mflop", 2e-6 * a.shape[0] * a.shape[1] * b.shape[1]))
        else:
            t.install(ad, op, f"autodiff.{op}")
    t.install(ad, "backward", "autodiff.backward", before=lambda t, loss: t.count(
        "autodiff.backward.tape_nodes", len(ad.active_graph())))
    t.install(ad.AdamState, "step", "autodiff.adam")
    t.install(ad, "clip_weights", "autodiff.clip")
    t.install(mdl, "generate", "model.generate",
              label=lambda gen, *rest: f"model.generate.{gen.level}")
    for name in MODEL_SPANS:
        t.install(mdl, name.split(".")[1], name)
    for name in OFFSPRING[:-1]:
        t.install(gn, name.split(".")[1], name)
    t.install(gn, "select", "genetics.select",
              after=lambda t, outcome: t.count(f"genetics.gate.{outcome}"))
    t.install(gn.EnhancedPool, "flat", "genetics.pool_flat")
    for name in ("loss_er", "loss_nr", "cosine_rows"):
        t.install(gn, name, f"genetics.{name}")
    for name in ("train", "save_checkpoint", "restore_checkpoint"):
        t.install(tr, name, f"trainer.{name}")
    for name in ("load_bundle", "save_bundle", "generate_synthetic",
                 "derive_knowledge_datasets", "compute_visual_centers"):
        t.install(ds, name, f"dataset.{name}")
    t.install(ev, "synthesize_prototypes", "evaluation.synthesize_prototypes",
              after=lambda t, protos: t.count(
                  "evaluation.synthesize_prototypes.rows",
                  protos.n_syn * len(protos.prototypes)))
    t.install(ev, "seen_unseen_curve", "evaluation.seen_unseen_curve",
              after=lambda t, curve: t.count("evaluation.curve_points", len(curve.gammas)))
    for name in ("retrieval_precision", "retrieve_topk", "evaluate_gzsl"):
        t.install(ev, name, f"evaluation.{name}")


def run_pass(w: Workload, seed: int, work: Path, tag: str, tracer: Tracer | None) -> dict:
    """One pass over the workload's pipeline, as the CLI commands perform it."""
    def phase(name: str) -> None:
        if tracer:
            tracer.phase = name

    data, run = work / f"{tag}-data.json", work / tag
    run.mkdir(parents=True, exist_ok=True)
    checkpoint = run / "checkpoint.json"
    config = tr.TrainConfig(**{**w.train_config, "seed": seed})
    if tracer:
        install_all(tracer)
    try:
        phase("setup")
        ds.save_bundle(ds.generate_synthetic(ds.SyntheticSpec(**w.spec_kwargs()), seed),
                       str(data))

        phase("train")
        start = time.perf_counter()
        result = tr.train(config, ds.load_bundle(str(data)))
        tr.save_checkpoint(str(checkpoint), result.state)
        ds.atomic_write_text(str(run / "report.csv"), result.report.to_csv())
        train_s = time.perf_counter() - start

        phase("eval")
        start = time.perf_counter()
        state = tr.restore_checkpoint(str(checkpoint))
        metrics, _ = ev.evaluate_gzsl(state.model, ds.load_bundle(str(data)),
                                      seed=state.config.seed,
                                      fusion_mode=state.config.fusion_mode)
        eval_s = time.perf_counter() - start

        phase("retrieve")
        rankings = []
        for class_id in w.retrieval_classes(seed)[:2]:
            state = tr.restore_checkpoint(str(checkpoint))
            bundle = ds.load_bundle(str(data))
            prototypes = ev.synthesize_prototypes(
                state.model, {class_id: bundle.semantic_for(class_id)},
                seed=state.config.seed, fusion_mode=state.config.fusion_mode)
            hits = ev.retrieve_topk(prototypes, bundle.sample_visuals, class_id)
            rankings.append("rank,sample_id,similarity\n" + "".join(
                f"{rank},{i},{s!r}\n" for rank, (i, s) in enumerate(hits, start=1)))
    finally:
        if tracer:
            tracer.uninstall()
    loop_seconds, report = split_report(run / "report.csv")
    return {
        "train_s": train_s, "eval_s": eval_s, "loops": len(loop_seconds),
        "config": {k: getattr(result.state.config, k) for k in w.train_config},
        "report_sha256": sha256_text(report),
        "params_sha256": params_digest(checkpoint),
        "metrics": metrics.to_csv(), "rankings": rankings,
        "quality": {"top1_unseen": metrics.top1_unseen, "H_best": metrics.best_harmonic,
                    "AUSUC": metrics.ausuc},
        "pools": {"enhanced": result.pools.enhanced.size,
                  "novel": result.pools.novel.size},
        "files_mb": {"checkpoint": checkpoint.stat().st_size / 2**20,
                     "bundle": data.stat().st_size / 2**20},
    }


def deterministic_counts(t: Tracer) -> dict:
    """Call counts and counters that must repeat exactly for a fixed seed."""
    out = {f"{phase}/{name}.calls": rec[0] for (phase, name), rec in t.stats.items()}
    out.update(t.counts)
    return dict(sorted(out.items()))


def layer_metrics(w: Workload, traced: list[tuple[Tracer, dict]], untraced: dict,
                  ) -> dict[str, tuple[float, str]]:
    """Per-module metrics. Timings are the mean of the traced passes; counts
    come from the first (they are checked equal). Per-unit figures are per
    training loop on train workloads and per ``evaluate_gzsl`` call on the
    read-side workload."""
    t0, first = traced[0]
    work_phase = "eval" if w.train_in_setup else "train"
    units = 1 if w.train_in_setup else first["loops"]

    def record(t, phase, name):
        return t.stats.get((phase, name), (0, 0.0, 0.0))

    def calls(name, phase=work_phase):
        return record(t0, phase, name)[0]

    def total_s(name, phase=work_phase, col=1):
        return statistics.fmean([record(t, phase, name)[col] for t, _ in traced])

    def per_unit_ms(name, col=1):
        return 1000.0 * total_s(name, col=col) / units

    def per_call_s(name):
        """Mean seconds per call over every phase."""
        per_pass = []
        for t, _ in traced:
            recs = [rec for (_, n), rec in t.stats.items() if n == name]
            per_pass.append(sum(r[1] for r in recs) / max(1, sum(r[0] for r in recs)))
        return statistics.fmean(per_pass)

    def count(name, phase=work_phase):
        return t0.counts.get(f"{phase}/{name}", 0.0)

    m: dict[str, tuple[float, str]] = {}
    for op in REPORTED_OPS:
        m[f"autodiff.{op}.calls"] = (calls(f"autodiff.{op}") / units, "count")
        m[f"autodiff.{op}.self_ms"] = (per_unit_ms(f"autodiff.{op}", col=2), "ms")
    m["autodiff.backward.self_ms"] = (per_unit_ms("autodiff.backward", col=2), "ms")
    m["autodiff.backward.tape_nodes"] = (count("autodiff.backward.tape_nodes") / units,
                                         "count")
    m["autodiff.adam.self_ms"] = (per_unit_ms("autodiff.adam", col=2), "ms")
    m["autodiff.clip.self_ms"] = (per_unit_ms("autodiff.clip", col=2), "ms")
    m["autodiff.matmul.mflop"] = (count("autodiff.matmul.mflop") / units, "MFLOP")

    for name in [f"model.generate.{level}" for level in ds.LEVELS] + list(MODEL_SPANS):
        m[f"{name}.ms"] = (per_unit_ms(name), "ms")
        m[f"{name}.calls"] = (calls(name) / units, "count")

    m["genetics.offspring_ms"] = (sum(per_unit_ms(n) for n in OFFSPRING), "ms")
    gates = {g: count(f"genetics.gate.{g}", "train") for g in ("enhanced", "novel",
                                                                "discarded")}
    for gate, n in gates.items():
        m[f"genetics.gate.{gate}"] = (n, "count")
    attempted = sum(gates.values())
    kept = gates["enhanced"] + gates["novel"]
    m["genetics.gate.useful_ratio"] = (kept / attempted if attempted else 0.0, "ratio")
    m["genetics.pool_flat_ms"] = (per_unit_ms("genetics.pool_flat"), "ms")
    m["genetics.loss_er_ms"] = (per_unit_ms("genetics.loss_er"), "ms")
    m["genetics.loss_nr_ms"] = (per_unit_ms("genetics.loss_nr"), "ms")
    m["genetics.enhanced_pool_size"] = (first["pools"]["enhanced"], "count")
    m["genetics.novel_pool_size"] = (first["pools"]["novel"], "count")

    m["trainer.save_checkpoint_s"] = (per_call_s("trainer.save_checkpoint"), "s")
    m["trainer.checkpoint_mb"] = (first["files_mb"]["checkpoint"], "MB")
    m["trainer.restore_checkpoint_s"] = (per_call_s("trainer.restore_checkpoint"), "s")
    m["trainer.train.self_ms"] = (1000.0 * total_s("trainer.train", "train", col=2)
                                  / first["loops"], "ms")

    m["dataset.load_bundle_s"] = (per_call_s("dataset.load_bundle"), "s")
    m["dataset.bundle_mb"] = (first["files_mb"]["bundle"], "MB")
    m["dataset.generate_synthetic_s"] = (per_call_s("dataset.generate_synthetic"), "s")

    evals = calls("evaluation.evaluate_gzsl", "eval")
    synth = "evaluation.synthesize_prototypes"
    m[f"{synth}.calls"] = (calls(synth, "eval") / evals, "count")
    m[f"{synth}.rows"] = (count(f"{synth}.rows", "eval") / evals, "count")
    m[f"{synth}.ms"] = (1000.0 * total_s(synth, "eval") / evals, "ms")
    m["evaluation.curve_ms"] = (1000.0 * total_s("evaluation.seen_unseen_curve", "eval")
                                / evals, "ms")
    m["evaluation.curve_points"] = (count("evaluation.curve_points", "eval") / evals,
                                    "count")
    m["evaluation.retrieval_precision_ms"] = (
        1000.0 * total_s("evaluation.retrieval_precision", "eval") / evals, "ms")
    topk = "evaluation.retrieve_topk"
    m["evaluation.retrieve_topk_ms"] = (
        1000.0 * total_s(topk, "retrieve") / calls(topk, "retrieve"), "ms")

    timed = "eval_s" if w.train_in_setup else "train_s"
    m["trace.overhead_ratio"] = (
        statistics.fmean([p[timed] for _, p in traced]) / untraced[timed], "ratio")
    for name, value in first["quality"].items():
        m[f"quality.{name}"] = (value, "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    tracer_a, tracer_b = Tracer(), Tracer()
    pass_a = run_pass(w, args.seed, args.work, "traced-a", tracer_a)
    untraced = run_pass(w, args.seed, args.work, "untraced", None)
    pass_b = run_pass(w, args.seed, args.work, "traced-b", tracer_b)
    passes = (pass_a, untraced, pass_b)

    def hit(name):
        return sum(rec[0] for (_, n), rec in tracer_a.stats.items() if n == name)

    checks = [(f"wrapper {name} recorded calls", hit(name) > 0)
              for name in EXPECTED + OFFSPRING]
    checks.append(("trained config matches the workload",
                   pass_a["config"] == w.train_config))
    for key in ("report_sha256", "params_sha256", "metrics", "rankings"):
        checks.append((f"traced and untraced passes give the same {key}",
                       len({json.dumps(p[key]) for p in passes}) == 1))
    checks.append(("deterministic counts repeat across traced passes",
                   deterministic_counts(tracer_a) == deterministic_counts(tracer_b)))
    checks.append(("metrics lie in [0, 1]", check_metrics(parse_metrics(pass_a["metrics"]))))
    checks += [(f"ranking {i} is well formed", check_ranking(r, w.n_samples))
               for i, r in enumerate(pass_a["rankings"])]

    result = {
        "metrics": layer_metrics(w, [(tracer_a, pass_a), (tracer_b, pass_b)], untraced),
        "checks": checks,
        "fingerprint": {"seed": args.seed, "report_sha256": pass_a["report_sha256"],
                        "params_sha256": pass_a["params_sha256"], **pass_a["quality"]},
        "pass_seconds": {tag: {"train_s": p["train_s"], "eval_s": p["eval_s"]} for tag, p
                         in (("traced-a", pass_a), ("untraced", untraced),
                             ("traced-b", pass_b))},
        "mkfusion_version": mkfusion.__version__,
        "wrapper_sites": tracer_a.sites,
        "deterministic_counts": deterministic_counts(tracer_a),
        "spans": [{"phase": phase, "name": name, "calls": rec[0], "total_s": rec[1],
                   "self_s": rec[2]} for (phase, name), rec in sorted(tracer_a.stats.items())],
        "top_level_spans": [{"name": n, "phase": p, "start": s, "seconds": d}
                            for n, p, s, d in tracer_a.spans],
    }
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
