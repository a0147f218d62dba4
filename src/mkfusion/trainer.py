"""Training orchestration: center precomputation, the 5:1 critic/generator
schedule, offspring generation and gating, optimizer steps, and checkpoints."""

from __future__ import annotations

import functools
import re
import time
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import genetics as gn
from . import model as mdl
from .config import TrainConfig
from .dataset import (LEVELS, DatasetBundle, atomic_write_json, compute_visual_centers,
                      csv_text, decode_array, derive_knowledge_datasets, read_document,
                      require_count, require_fields)

Array = np.ndarray

CHECKPOINT_VERSION = 4
# A checkpoint's Adam names -> the parameter-name prefix each optimizer updates.
ADAM_GROUPS = {"discriminator": "discriminator/", "generators": "generator/",
               "fusion": "fusion/"}
# Each optimizer -> the taped loss terms it descends, summed left to right
# (README § Training objective gives them in f-CLSWGAN notation).
OBJECTIVES = {"discriminator": ("l_d",),
              "generators": ("l_g_species", "l_g_genus", "l_g_family"),
              "fusion": ("l_fused", "l_er", "l_nr")}


@dataclass
class LoopRecord:
    loop: int
    l_d: float
    l_g_species: float
    l_g_genus: float
    l_g_family: float
    l_fm: float
    l_er: float
    l_nr: float
    enhanced_size: int
    novel_size: int
    seconds: float


@dataclass
class TrainReport:
    rows: list[LoopRecord]
    d_updates: int

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(LoopRecord)], map(astuple, self.rows))


def species_groups(bundle: DatasetBundle) -> dict[tuple[str, int], list[int]]:
    """The class-head labels (indices into the sorted ``bundle.seen_ids``) of the
    seen species grouped under every (level, class id) key, in species-id order."""
    ids = bundle.taxonomy[bundle.rows_of(bundle.seen_ids)]
    return {(level, class_id): np.flatnonzero(ids[:, i] == class_id).tolist()
            for i, level in enumerate(LEVELS) for class_id in sorted(set(ids[:, i].tolist()))}


def build_optimizers(model: mdl.FusionGan, lr: float) -> dict[str, ad.AdamState]:
    """A fresh optimizer per checkpoint name, over the parameters under its prefix."""
    return {name: ad.AdamState(model.group(prefix), lr=lr)
            for name, prefix in ADAM_GROUPS.items()}


@dataclass
class CheckpointData:
    """The whole state of a training run: what a checkpoint file holds, and
    what ``train`` advances in place."""

    config: TrainConfig
    model: mdl.FusionGan
    pools: gn.Pools
    loop_index: int
    rng: np.random.Generator
    optimizers: dict[str, ad.AdamState]
    seen_species: list[int]


def initial_state(config: TrainConfig, bundle: DatasetBundle) -> CheckpointData:
    """The state of a fresh run on ``bundle``'s seen split, before loop 1."""
    if not bundle.seen_ids:
        raise ValueError("training requires at least one seen species")
    model = mdl.FusionGan(config, bundle.visual_dim, bundle.semantic_dim,
                          len(bundle.seen_ids))
    return CheckpointData(config=config, model=model, pools=gn.Pools(), loop_index=0,
                          rng=np.random.default_rng([config.seed, 1]),
                          optimizers=build_optimizers(model, config.learning_rate),
                          seen_species=sorted(bundle.seen_ids))


def check_bundle(state: CheckpointData, bundle: DatasetBundle) -> None:
    """Raise ``ValueError`` unless ``bundle`` fits ``state``: the same visual
    and semantic widths, the same seen species, and a seen class for every
    enhanced-pool key."""
    model = state.model
    if (bundle.visual_dim, bundle.semantic_dim) != (model.visual_dim, model.semantic_dim):
        raise ValueError(f"checkpoint/data dim mismatch: checkpoint expects visual "
                         f"{model.visual_dim} semantic {model.semantic_dim}, dataset "
                         f"has visual {bundle.visual_dim} semantic {bundle.semantic_dim}")
    if bundle.seen_ids != state.seen_species:
        raise ValueError("checkpoint/data mismatch: seen classes differ")
    groups = species_groups(bundle)
    for level, class_id in state.pools.enhanced.entries:
        if (level, class_id) not in groups:
            raise ValueError(f"pools/enhanced/{level}/{class_id}: "
                             f"the bundle has no seen {level} {class_id}")


@dataclass
class TrainResult:
    model: mdl.FusionGan
    pools: gn.Pools
    report: TrainReport
    state: CheckpointData


class _Session:
    """The data views shared by the per-loop steps of one training run on
    ``bundle``, and the parts of ``state`` they advance under ``state.config``;
    ``train`` has checked that the two fit."""

    def __init__(self, bundle: DatasetBundle, state: CheckpointData):
        self.datasets = derive_knowledge_datasets(bundle)
        if len(self.datasets["species"]) == 0:
            raise ValueError("training requires seen samples")
        self.groups = species_groups(bundle)
        # Per level: the class centers as rows in class-id order, and each sample's row.
        self.centers = {level: np.stack(list(compute_visual_centers(ds).values()))
                        for level, ds in self.datasets.items()}
        self.center_index = {level: np.searchsorted(ds.class_ids, ds.labels)
                             for level, ds in self.datasets.items()}
        self.dense_labels = np.searchsorted(bundle.seen_ids,
                                            self.datasets["species"].labels)
        self.config, self.model, self.pools, self.rng = (state.config, state.model,
                                                         state.pools, state.rng)
        self.optimizers = state.optimizers
        self.critic = state.model.discriminator.critic_params()

    def run_nfg_phase(self) -> None:
        config, rng = self.config, self.rng
        pairs = config.offspring_budget // 2
        if pairs == 0:
            return
        offspring, center_rows, origins = [], [], []
        for _ in range(pairs):
            level, class_id, t_a, t_b = gn.sample_parents(self.datasets, self.pools, rng)
            draw = gn.GeneticDraw.sample(self.model.semantic_dim, rng)
            offspring.append(gn.mutate(t_a, rng, draw))
            offspring.append(gn.crossover(t_a, t_b, draw))
            center = self.centers[level][self.datasets[level].class_ids.index(class_id)]
            center_rows.extend([center, center])
            origins.extend([(level, class_id)] * 2)
        scores = gn.stability_scores(np.stack(offspring), self.model,
                                     np.stack(center_rows), rng)
        for vector, d, (level, class_id) in zip(offspring, scores, origins):
            gn.select(vector, float(d), config.kappa1, config.kappa2,
                      self.pools, level, class_id)

    def sample_batch(self):
        config, rng = self.config, self.rng
        idx = rng.integers(0, len(self.datasets["species"]), size=config.batch_size)
        z = rng.standard_normal((config.batch_size, config.noise_dim))
        return idx, self.datasets["species"].semantics[idx], z

    def descend(self, terms: dict[str, ad.Tensor], *groups: str) -> dict[str, ad.Tensor]:
        """Sum each group's ``OBJECTIVES`` terms, then take every gradient and
        Adam step; summing mode leaves ``fusion`` untrained. The sums, by group."""
        sums = {g: functools.reduce(ad.add, [terms[name] for name in OBJECTIVES[g]])
                for g in groups}
        trained = [g for g in groups if g != "fusion" or self.model.fusion_mode == "adaptive"]
        grads = [ad.backward(sums[g], wrt=self.optimizers[g].params) for g in trained]
        for group, group_grads in zip(trained, grads):
            self.optimizers[group].step(group_grads)
        ad.clear_graph()
        return sums

    def discriminator_step(self) -> float:
        idx, t_batch, z = self.sample_batch()
        with ad.no_grad():
            _, fused, _ = self.model.generate_fused(t_batch, z)
        terms = {"l_d": mdl.loss_discriminator(self.model.discriminator,
                                               self.datasets["species"].visuals[idx],
                                               fused.data, self.dense_labels[idx])}
        loss = self.descend(terms, "discriminator")["discriminator"]
        ad.clip_weights(self.critic, self.config.clip_c)
        return loss.item()

    def generator_fusion_step(self) -> dict[str, float]:
        """One forward pass and the generator and fusion descents; returns the
        report's columns: every term but ``l_fused``, and the fusion sum."""
        model, n = self.model, self.config.batch_size
        idx, t_batch, z = self.sample_batch()
        labels = self.dense_labels[idx]
        features, fused, _ = model.generate_fused(t_batch, z)
        terms = {f"l_g_{level}": mdl.loss_generator(
            model.discriminator, features[level], labels,
            self.centers[level][self.center_index[level][idx]]) for level in LEVELS}
        terms["l_fused"] = mdl.adversarial_and_classification(model.discriminator, fused, labels)
        terms["l_er"] = gn.loss_er(model, self.pools, self.groups, self.rng, n)
        terms["l_nr"] = gn.loss_nr(model, self.pools, self.config.lam, self.rng, n)
        sums = self.descend(terms, "generators", "fusion")
        del terms["l_fused"]
        return {name: t.item() for name, t in terms.items()} | {"l_fm": sums["fusion"].item()}


def train(config: TrainConfig, bundle: DatasetBundle,
          resume: CheckpointData | None = None) -> TrainResult:
    """Run the adversarial schedule on the bundle's seen split.

    Per outer loop: offspring generation and gating once the loop index
    passes ``n_nfg``, then exactly five critic updates, then one generator
    update and one fusion update from the same forward pass. Deterministic
    for a fixed config and bundle. A non-finite loss, generated critic batch
    or stability score aborts the run with the offending loop index; numpy's
    floating-point warnings are silenced in the loop, so that error is all a
    diverging run reports.

    A fresh run starts from ``initial_state``. A run given ``resume`` goes on
    from its ``loop_index`` under its config: ``config`` may differ from
    ``resume.config`` only in ``steps``, not below ``loop_index``. The run
    advances that object in place, ``config.steps`` included, and returns it
    as ``result.state``; to resume from the same checkpoint twice, restore it
    twice. A config or bundle (``check_bundle``) that does not fit the state
    raises ``ValueError`` before the state is touched; after an aborted run
    the state holds part of the failed loop's updates.
    """
    state = initial_state(config, bundle) if resume is None else resume
    changed = [f.name for f in fields(TrainConfig) if f.name != "steps"
               and getattr(config, f.name) != getattr(state.config, f.name)]
    if changed:
        raise ValueError(f"a resumed run keeps its state's config; only steps may "
                         f"change: {', '.join(changed)}")
    if config.steps < state.loop_index:
        raise ValueError(f"steps {config.steps} is below the checkpoint's loop_index "
                         f"{state.loop_index}: a resumed run cannot go back")
    check_bundle(state, bundle)
    state.config = config
    session = _Session(bundle, state)
    rows = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for loop in range(state.loop_index + 1, config.steps + 1):
            started = time.perf_counter()
            try:
                if loop > config.n_nfg:
                    session.run_nfg_phase()
                d_losses = [session.discriminator_step() for _ in range(5)]
                values = session.generator_fusion_step()
            except ValueError as err:
                raise RuntimeError(f"training aborted at loop {loop}: {err}") from err
            values["l_d"] = float(np.mean(d_losses))
            bad = sorted(k for k, v in values.items() if not np.isfinite(v))
            if bad:
                raise RuntimeError(f"training aborted at loop {loop}: "
                                   f"non-finite losses {bad}")
            state.loop_index = loop
            rows.append(LoopRecord(
                loop=loop, enhanced_size=state.pools.enhanced.size,
                novel_size=state.pools.novel.size,
                seconds=time.perf_counter() - started, **values))
    report = TrainReport(rows, d_updates=state.optimizers["discriminator"].step_count)
    return TrainResult(model=state.model, pools=state.pools, report=report, state=state)


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, state: CheckpointData) -> None:
    rows = (-1, state.model.semantic_dim)
    pools = {f"enhanced/{level}/{class_id}": np.reshape(vectors, rows)
             for (level, class_id), vectors in state.pools.enhanced.entries.items()}
    pools["novel"] = np.reshape(state.pools.novel.vectors, rows)
    atomic_write_json(path, {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(state.config),
        "loop_index": state.loop_index,
        "rng_state": state.rng.bit_generator.state,
        "seen_species": state.seen_species,
        "dims": {"visual": state.model.visual_dim, "semantic": state.model.semantic_dim},
        "params": {name: p.data for name, p in state.model.params.items()},
        "adam": {name: {"step_count": opt.step_count, "m": opt.m, "v": opt.v}
                 for name, opt in state.optimizers.items()},
        "pools": pools,
    })


_ENHANCED_KEY = re.compile(f"enhanced/({'|'.join(LEVELS)})/(0|[1-9][0-9]*)")


def restore_checkpoint(path: str) -> CheckpointData:
    document = read_document(path, "checkpoint", CHECKPOINT_VERSION, {
        "config": dict, "loop_index": int, "rng_state": dict, "seen_species": list[int],
        "dims": dict, "params": dict, "adam": dict, "pools": dict})
    config_doc = require_fields(document["config"], "config",
                                dict.fromkeys(f.name for f in fields(TrainConfig)))
    try:
        config = TrainConfig(**config_doc)
    except ValueError as err:
        raise ValueError(f"checkpoint {path} config: {err}") from None
    dims = require_fields(document["dims"], "dims", {"visual": int, "semantic": int})
    visual, semantic = (require_count(n, f"dims/{name}", 1) for name, n in dims.items())
    model = mdl.FusionGan(config, visual, semantic, len(document["seen_species"]))
    stored = require_fields(document["params"], "params", dict.fromkeys(model.params))
    for name, p in model.params.items():
        p.data = decode_array(stored[name], f"params/{name}", p.shape)
    adam_doc = require_fields(document["adam"], "adam", dict.fromkeys(ADAM_GROUPS, dict))
    optimizers = build_optimizers(model, config.learning_rate)
    for group, opt in optimizers.items():
        state = require_fields(adam_doc[group], f"adam/{group}",
                               {"step_count": int, "m": list, "v": list})
        opt.step_count = require_count(state["step_count"], f"adam/{group}/step_count", 0)
        for key in ("m", "v"):
            entries, moments = state[key], getattr(opt, key)
            if len(entries) != len(moments):
                raise ValueError(f"adam/{group}/{key}: {len(entries)} arrays for "
                                 f"{len(moments)} parameters")
            # Into the optimizer's own zeroed arrays, so no second set is held.
            for i, (entry, moment) in enumerate(zip(entries, moments)):
                moment[...] = decode_array(entry, f"adam/{group}/{key}/{i}", moment.shape)
    pools_doc = require_fields(document["pools"], "pools", dict.fromkeys(
        ["novel", *filter(_ENHANCED_KEY.fullmatch, document["pools"])]))
    rows = (None, model.semantic_dim)
    pools = gn.Pools()
    pools.novel.vectors = list(decode_array(pools_doc.pop("novel"), "pools/novel", rows))
    for key, entry in pools_doc.items():
        level, class_id = _ENHANCED_KEY.fullmatch(key).groups()
        pools.enhanced.entries[(level, int(class_id))] = list(
            decode_array(entry, f"pools/{key}", rows))
    rng = np.random.default_rng()
    fresh = rng.bit_generator.state
    rng_state = require_fields(document["rng_state"], "rng_state", dict.fromkeys(fresh))
    require_fields(rng_state["state"], "rng_state/state", dict.fromkeys(fresh["state"]))
    try:
        rng.bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as err:
        raise ValueError(f"checkpoint rng_state: {err!r}") from None
    return CheckpointData(config=config, model=model, pools=pools, rng=rng,
                          loop_index=require_count(document["loop_index"], "loop_index", 0),
                          optimizers=optimizers, seen_species=document["seen_species"])
