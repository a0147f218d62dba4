"""Training orchestration: center precomputation, the 5:1 critic/generator
schedule, offspring generation and gating, optimizer steps, and checkpoints."""

from __future__ import annotations

import re
import time
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import genetics as gn
from . import model as mdl
from .dataset import (LEVELS, DatasetBundle, _require_field, atomic_write_json,
                      check_fields, compute_visual_centers, decode_array,
                      derive_knowledge_datasets, read_json_object)

Array = np.ndarray

CHECKPOINT_VERSION = 3


@dataclass
class TrainConfig:
    steps: int = field(default=300, metadata={"ge": 0})
    n_nfg: int = field(default=3, metadata={"ge": 0})
    kappa1: float = 0.8
    kappa2: float = 0.2
    lam: float = field(default=1.0, metadata={"ge": 0})
    batch_size: int = field(default=64, metadata={"ge": 1})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})
    noise_dim: int = field(default=32, metadata={"ge": 1})
    clip_c: float = field(default=0.01, metadata={"gt": 0})
    seed: int = field(default=1, metadata={"ge": 0})
    offspring_budget: int = field(default=64, metadata={"ge": 0})
    fusion_mode: str = "adaptive"
    gen_hidden: int = field(default=256, metadata={"ge": 1})
    disc_hidden: tuple[int, int] = field(default=(256, 128), metadata={"ge": 1})
    fusion_hidden: int = field(default=64, metadata={"ge": 1})
    alpha: float = field(default=0.2, metadata={"ge": 0, "le": 1})

    def __post_init__(self):
        check_fields(self)
        if not self.kappa1 > self.kappa2:
            raise ValueError("kappa1 must exceed kappa2")
        if self.fusion_mode not in mdl.FUSION_MODES:
            raise ValueError(f"unknown fusion mode: {self.fusion_mode!r}")


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


REPORT_COLUMNS = tuple(f.name for f in fields(LoopRecord))


@dataclass
class TrainReport:
    rows: list[LoopRecord] = field(default_factory=list)
    d_updates: int = 0

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        lines += [",".join(map(repr, astuple(r))) for r in self.rows]
        return "\n".join(lines) + "\n"


def seen_label_index(bundle: DatasetBundle) -> dict[int, int]:
    """Dense class-head index for each seen species id, in sorted id order."""
    return {sid: i for i, sid in enumerate(sorted(bundle.seen_ids))}


def species_groups(bundle: DatasetBundle) -> dict[tuple[str, int], list[int]]:
    """The class-head labels (``seen_label_index``) of the seen species grouped
    under every (level, class id) key, in species-id order."""
    groups: dict[tuple[str, int], list[int]] = {}
    for label, sid in enumerate(sorted(bundle.seen_ids)):
        record = bundle.by_species[sid]
        for level in LEVELS:
            groups.setdefault((level, record.level_id(level)), []).append(label)
    return groups


def build_model(config: TrainConfig, visual_dim: int, semantic_dim: int,
                n_classes: int) -> mdl.FusionGan:
    return mdl.FusionGan(visual_dim=visual_dim, semantic_dim=semantic_dim,
                         n_classes=n_classes, noise_dim=config.noise_dim,
                         gen_hidden=config.gen_hidden,
                         disc_hidden=config.disc_hidden,
                         fusion_hidden=config.fusion_hidden,
                         alpha=config.alpha,
                         seed=config.seed,
                         fusion_mode=config.fusion_mode)


def build_optimizers(model: mdl.FusionGan, lr: float) -> dict[str, ad.AdamState]:
    """A fresh optimizer per checkpoint name, over the parameters it updates."""
    return {"discriminator": ad.AdamState(model.discriminator_params(), lr=lr),
            "generators": ad.AdamState(model.generator_params(), lr=lr),
            "fusion": ad.AdamState(model.fusion_params(), lr=lr)}


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
    model = build_model(config, bundle.visual_dim, bundle.semantic_dim,
                        len(bundle.seen_ids))
    return CheckpointData(config=config, model=model, pools=gn.Pools(), loop_index=0,
                          rng=np.random.default_rng([config.seed, 1]),
                          optimizers=build_optimizers(model, config.learning_rate),
                          seen_species=sorted(bundle.seen_ids))


@dataclass
class TrainResult:
    model: mdl.FusionGan
    pools: gn.Pools
    report: TrainReport
    state: CheckpointData


class _Session:
    """The data views shared by the per-loop steps of one training run, and
    the parts of the run state they advance."""

    def __init__(self, config: TrainConfig, bundle: DatasetBundle,
                 state: CheckpointData):
        if state.seen_species != sorted(bundle.seen_ids):
            raise ValueError("checkpoint seen classes do not match the bundle")
        if config.steps < state.loop_index:
            raise ValueError(f"steps {config.steps} is below the checkpoint's "
                             f"loop_index {state.loop_index}: a resumed run "
                             f"cannot go back")
        self.datasets = derive_knowledge_datasets(bundle)
        if len(self.datasets["species"]) == 0:
            raise ValueError("training requires seen samples")
        self.groups = species_groups(bundle)
        for level, class_id in state.pools.enhanced.entries:
            if (level, class_id) not in self.groups:
                raise ValueError(f"checkpoint pool enhanced/{level}/{class_id}: "
                                 f"the bundle has no seen {level} {class_id}")
        self.centers = {level: compute_visual_centers(self.datasets[level])
                        for level in LEVELS}
        label_index = seen_label_index(bundle)
        self.dense_labels = np.asarray([label_index[int(s)]
                                        for s in self.datasets["species"].labels],
                                       dtype=np.int64)
        self.semantic_dim = bundle.semantic_dim

        state.config = config
        for opt in state.optimizers.values():
            opt.lr = config.learning_rate
        self.config, self.model, self.pools, self.rng = (config, state.model,
                                                         state.pools, state.rng)
        self.opt_d, self.opt_g, self.opt_f = (
            state.optimizers[name] for name in ("discriminator", "generators", "fusion"))
        self.report = TrainReport(d_updates=self.opt_d.step_count)

    def run_nfg_phase(self) -> None:
        config, rng = self.config, self.rng
        pairs = config.offspring_budget // 2
        if pairs == 0:
            return
        offspring, center_rows, origins = [], [], []
        for _ in range(pairs):
            level, class_id, t_a, t_b = gn.sample_parents(self.datasets, self.pools, rng)
            draw = gn.GeneticDraw.sample(self.semantic_dim, rng)
            offspring.append(gn.mutate(t_a, rng, draw))
            offspring.append(gn.crossover(t_a, t_b, rng, draw))
            center = self.centers[level].centers[class_id]
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

    def discriminator_step(self) -> float:
        config = self.config
        idx, t_batch, z = self.sample_batch()
        with ad.no_grad():
            _, fused, _ = self.model.generate_fused(t_batch, z)
        loss = mdl.loss_discriminator(self.model.discriminator,
                                      self.datasets["species"].visuals[idx],
                                      fused.data, self.dense_labels[idx])
        self.opt_d.step(ad.backward(loss, wrt=self.opt_d.params))
        ad.clip_weights(self.model.discriminator.critic_params(), config.clip_c)
        ad.clear_graph()
        self.report.d_updates += 1
        return loss.item()

    def generator_fusion_step(self) -> dict[str, float]:
        config = self.config
        idx, t_batch, z = self.sample_batch()
        batch_labels = self.dense_labels[idx]
        features, fused, _ = self.model.generate_fused(t_batch, z)
        gen_losses = {}
        for level in LEVELS:
            rows = self.centers[level].rows_for(self.datasets[level].labels[idx])
            gen_losses[level] = mdl.loss_generator(self.model.discriminator,
                                                   features[level], batch_labels, rows)
        total_gen = ad.add(ad.add(gen_losses[LEVELS[0]], gen_losses[LEVELS[1]]),
                           gen_losses[LEVELS[2]])
        loss_fm, er_value, nr_value = gn.loss_fusion(
            self.model, fused, batch_labels, self.pools, self.groups, config.lam,
            self.rng, config.batch_size)
        values = {"l_g_species": gen_losses["species"].item(),
                  "l_g_genus": gen_losses["genus"].item(),
                  "l_g_family": gen_losses["family"].item(),
                  "l_fm": loss_fm.item(), "l_er": er_value, "l_nr": nr_value}
        gen_grads = ad.backward(total_gen, wrt=self.opt_g.params)
        if self.model.fusion_mode == "adaptive":
            self.opt_f.step(ad.backward(loss_fm, wrt=self.opt_f.params))
        self.opt_g.step(gen_grads)
        ad.clear_graph()
        return values


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
    from that state's ``loop_index`` and advances that object in place,
    ``config`` included, and returns it as ``result.state``; to resume from
    the same checkpoint twice, restore it twice. After an aborted run the
    state holds part of the failed loop's updates.
    """
    state = initial_state(config, bundle) if resume is None else resume
    session = _Session(config, bundle, state)
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
            session.report.rows.append(LoopRecord(
                loop=loop, enhanced_size=state.pools.enhanced.size,
                novel_size=state.pools.novel.size,
                seconds=time.perf_counter() - started, **values))
    return TrainResult(model=state.model, pools=state.pools, report=session.report,
                       state=state)


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
        "dims": {"visual": state.model.visual_dim,
                 "semantic": state.model.semantic_dim,
                 "n_classes": state.model.n_classes},
        "params": {name: p.data for name, p in state.model.named_params().items()},
        "adam": {name: {"step_count": opt.step_count, "m": opt.m, "v": opt.v}
                 for name, opt in state.optimizers.items()},
        "pools": pools,
    })


def _require_count(mapping, name: str, least: int, where: str) -> int:
    """The integer field ``mapping[name]``, which must be at least ``least``;
    ``where`` names the field in errors."""
    value = _require_field(mapping, name, int)
    if value < least:
        raise ValueError(f"checkpoint {where} must be at least {least}, got {value}")
    return value


_ENHANCED_KEY = re.compile(f"enhanced/({'|'.join(LEVELS)})/(0|[1-9][0-9]*)")


def restore_checkpoint(path: str) -> CheckpointData:
    document = read_json_object(path, "checkpoint")
    version = _require_field(document, "format_version", int)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version mismatch: found {version}, "
                         f"expected {CHECKPOINT_VERSION}")
    config_doc = _require_field(document, "config", dict)
    names = [f.name for f in fields(TrainConfig)]
    unknown = sorted(set(config_doc) - set(names))
    missing = [name for name in names if name not in config_doc]
    problems = ([f"unknown key {k!r}" for k in unknown]
                + [f"missing key {k!r}" for k in missing])
    if problems:
        raise ValueError(f"checkpoint {path} config: {', '.join(problems)}")
    try:
        config = TrainConfig(**config_doc)
    except ValueError as err:
        raise ValueError(f"checkpoint {path} config: {err}") from None
    dims = _require_field(document, "dims", dict)
    visual, semantic, n_classes = (_require_count(dims, name, 1, f"dims/{name}")
                                   for name in ("visual", "semantic", "n_classes"))
    seen_species = _require_field(document, "seen_species", list[int])
    if n_classes != len(seen_species):
        raise ValueError(f"checkpoint dims/n_classes is {n_classes}, but "
                         f"seen_species lists {len(seen_species)} species")
    model = build_model(config, visual, semantic, n_classes)
    params = model.named_params()
    stored = _require_field(document, "params", dict)
    if set(stored) != set(params):
        raise ValueError("checkpoint parameter names do not match the model")
    for name, p in params.items():
        p.data = decode_array(stored[name], f"params/{name}", p.shape)
    adam_doc = _require_field(document, "adam", dict)
    optimizers = build_optimizers(model, config.learning_rate)
    for group, opt in optimizers.items():
        state = _require_field(adam_doc, group, dict)
        opt.step_count = _require_count(state, "step_count", 0,
                                        f"adam/{group}/step_count")
        for key in ("m", "v"):
            entries = _require_field(state, key, list)
            if len(entries) != len(opt.params):
                raise ValueError(f"adam/{group}/{key}: {len(entries)} arrays for "
                                 f"{len(opt.params)} parameters")
            setattr(opt, key, [decode_array(entry, f"adam/{group}/{key}[{i}]", p.shape)
                               for i, (entry, p) in enumerate(zip(entries, opt.params))])
    pools_doc = _require_field(document, "pools", dict)
    rows = (None, model.semantic_dim)
    pools = gn.Pools()
    pools.novel.vectors = list(decode_array(_require_field(pools_doc, "novel"),
                                            "pools/novel", rows))
    for key, entry in pools_doc.items():
        match = _ENHANCED_KEY.fullmatch(key)
        if match:
            pools.enhanced.entries[(match[1], int(match[2]))] = list(
                decode_array(entry, f"pools/{key}", rows))
        elif key != "novel":
            raise ValueError(f"unknown pool key in checkpoint: {key!r}")
    rng_state = _require_field(document, "rng_state", dict)
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError) as err:
        raise ValueError(f"checkpoint rng_state: {err!r}") from None
    return CheckpointData(config=config, model=model, pools=pools,
                          loop_index=_require_count(document, "loop_index", 0,
                                                    "loop_index"),
                          rng=rng, optimizers=optimizers, seen_species=seen_species)
