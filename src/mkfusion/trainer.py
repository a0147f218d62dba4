"""Training orchestration: center precomputation, the 5:1 critic/generator
schedule, offspring generation and gating, optimizer steps, and checkpoints."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import genetics as gn
from . import model as mdl
from .dataset import (LEVELS, DatasetBundle, atomic_write_text,
                      compute_visual_centers, derive_knowledge_datasets)

Array = np.ndarray

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    steps: int = 300
    n_nfg: int = 3
    kappa1: float = 0.8
    kappa2: float = 0.2
    lam: float = 1.0
    batch_size: int = 64
    learning_rate: float = 1e-3
    noise_dim: int = 32
    clip_c: float = 0.01
    seed: int = 1
    offspring_budget: int = 64
    fusion_mode: str = "adaptive"
    gen_hidden: int = 256
    disc_hidden: tuple[int, int] = (256, 128)
    fusion_hidden: int = 64
    alpha: float = 0.2

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.n_nfg < 0:
            raise ValueError("n_nfg must be non-negative")
        if self.kappa1 <= self.kappa2:
            raise ValueError("kappa1 must exceed kappa2")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.learning_rate <= 0.0 or self.clip_c <= 0.0:
            raise ValueError("learning rate and clip constant must be positive")
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")
        if self.noise_dim < 1:
            raise ValueError("noise dimension must be at least 1")
        if self.offspring_budget < 0:
            raise ValueError("offspring budget must be non-negative")
        if self.fusion_mode not in ("adaptive", "summing"):
            raise ValueError(f"unknown fusion mode: {self.fusion_mode!r}")
        self.disc_hidden = tuple(self.disc_hidden)


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
    """Seen species ids grouped under every (level, class id) key."""
    groups: dict[tuple[str, int], list[int]] = {}
    for sid in sorted(bundle.seen_ids):
        record = bundle.by_species[sid]
        for level in LEVELS:
            groups.setdefault((level, record.level_id(level)), []).append(sid)
    return groups


def build_model(config: TrainConfig, visual_dim: int, semantic_dim: int,
                n_classes: int) -> mdl.FusionGan:
    return mdl.FusionGan(visual_dim=visual_dim, semantic_dim=semantic_dim,
                         n_classes=n_classes, noise_dim=config.noise_dim,
                         gen_hidden=config.gen_hidden,
                         disc_hidden=config.disc_hidden,
                         fusion_hidden=config.fusion_hidden,
                         alpha=config.alpha,
                         seed=config.seed)


@dataclass
class CheckpointData:
    config: TrainConfig
    model: mdl.FusionGan
    pools: gn.Pools
    loop_index: int
    rng_state: dict
    adam_states: dict
    seen_species: list[int]


@dataclass
class TrainResult:
    model: mdl.FusionGan
    pools: gn.Pools
    report: TrainReport
    state: CheckpointData


class _Session:
    """Mutable state shared by the per-loop steps of one training run."""

    def __init__(self, config: TrainConfig, bundle: DatasetBundle,
                 resume: CheckpointData | None):
        if not bundle.seen_ids:
            raise ValueError("training requires at least one seen species")
        self.config = config
        self.datasets = derive_knowledge_datasets(bundle)
        if len(self.datasets["species"]) == 0:
            raise ValueError("training requires seen samples")
        self.centers = {level: compute_visual_centers(self.datasets[level])
                        for level in LEVELS}
        self.label_index = seen_label_index(bundle)
        self.groups = species_groups(bundle)
        self.visuals = bundle.seen_visuals()
        species = bundle.seen_sample_species()
        self.n_samples = len(species)
        self.dense_labels = np.asarray([self.label_index[int(s)] for s in species],
                                       dtype=np.int64)
        self.level_labels = {level: self.datasets[level].labels for level in LEVELS}
        self.semantic_dim = bundle.semantic_dim

        if resume is not None:
            if resume.seen_species != sorted(bundle.seen_ids):
                raise ValueError("checkpoint seen classes do not match the bundle")
            self.model = resume.model
            self.pools = resume.pools
            self.rng = np.random.default_rng()
            self.rng.bit_generator.state = resume.rng_state
            self.first_loop = resume.loop_index + 1
        else:
            self.model = build_model(config, bundle.visual_dim, bundle.semantic_dim,
                                     len(bundle.seen_ids))
            self.pools = gn.Pools()
            self.rng = np.random.default_rng([config.seed, 1])
            self.first_loop = 1

        self.params = self.model.named_params()
        lr = config.learning_rate
        self.opt_d = ad.AdamState(self.model.discriminator_params(), lr=lr)
        self.opt_g = ad.AdamState(self.model.generator_params(), lr=lr)
        self.opt_f = ad.AdamState(self.model.fusion_params(), lr=lr)
        if resume is not None:
            self.opt_d.load_state_arrays(resume.adam_states["discriminator"])
            self.opt_g.load_state_arrays(resume.adam_states["generators"])
            self.opt_f.load_state_arrays(resume.adam_states["fusion"])
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
                                     np.stack(center_rows), rng, config.fusion_mode)
        for vector, d, (level, class_id) in zip(offspring, scores, origins):
            gn.select(vector, float(d), config.kappa1, config.kappa2,
                      self.pools, level, class_id)

    def sample_batch(self):
        config, rng = self.config, self.rng
        idx = rng.integers(0, self.n_samples, size=config.batch_size)
        z = rng.standard_normal((config.batch_size, config.noise_dim))
        return idx, self.datasets["species"].semantics[idx], z

    def discriminator_step(self) -> float:
        config = self.config
        idx, t_batch, z = self.sample_batch()
        with ad.no_grad():
            _, fused, _ = self.model.generate_fused(t_batch, z, config.fusion_mode)
        ad.clear_graph()
        ad.zero_grads(self.params.values())
        loss = mdl.loss_discriminator(self.model.discriminator, self.visuals[idx],
                                      fused.data, self.dense_labels[idx])
        ad.backward(loss)
        self.opt_d.step()
        ad.clip_weights(self.model.discriminator.critic_params(), config.clip_c)
        ad.zero_grads(self.params.values())
        ad.clear_graph()
        self.report.d_updates += 1
        return loss.item()

    def generator_fusion_step(self) -> dict[str, float]:
        config = self.config
        idx, t_batch, z = self.sample_batch()
        batch_labels = self.dense_labels[idx]
        ad.clear_graph()
        ad.zero_grads(self.params.values())
        features, fused, _ = self.model.generate_fused(t_batch, z, config.fusion_mode)
        gen_losses = {}
        for level in LEVELS:
            rows = self.centers[level].rows_for(self.level_labels[level][idx])
            gen_losses[level] = mdl.loss_generator(self.model.discriminator,
                                                   features[level], batch_labels, rows)
        total_gen = ad.add(ad.add(gen_losses[LEVELS[0]], gen_losses[LEVELS[1]]),
                           gen_losses[LEVELS[2]])
        loss_fm, er_value, nr_value = gn.loss_fusion(
            self.model, fused, batch_labels, self.pools, self.groups,
            self.label_index, config.lam, self.rng, config.batch_size,
            config.fusion_mode)
        values = {"l_g_species": gen_losses["species"].item(),
                  "l_g_genus": gen_losses["genus"].item(),
                  "l_g_family": gen_losses["family"].item(),
                  "l_fm": loss_fm.item(), "l_er": er_value, "l_nr": nr_value}
        # Fusion first: its backward walks generator matmuls whose captured
        # weights opt_g.step() changes in place.
        if config.fusion_mode == "adaptive":
            ad.backward(loss_fm)
            self.opt_f.step()
            ad.zero_grads(self.params.values())
        ad.backward(total_gen)
        self.opt_g.step()
        ad.zero_grads(self.params.values())
        ad.clear_graph()
        return values

    def checkpoint_data(self, loop_index: int) -> CheckpointData:
        return CheckpointData(
            config=self.config, model=self.model, pools=self.pools,
            loop_index=loop_index, rng_state=self.rng.bit_generator.state,
            adam_states={"discriminator": self.opt_d.state_arrays(),
                         "generators": self.opt_g.state_arrays(),
                         "fusion": self.opt_f.state_arrays()},
            seen_species=sorted(self.label_index))


def train(config: TrainConfig, bundle: DatasetBundle,
          resume: CheckpointData | None = None) -> TrainResult:
    """Run the adversarial schedule on the bundle's seen split.

    Per outer loop: offspring generation and gating once the loop index
    passes ``n_nfg``, then exactly five critic updates, then one generator
    update and one fusion update from the same forward pass. Deterministic
    for a fixed config and bundle; any non-finite value aborts with the
    offending loop index.
    """
    session = _Session(config, bundle, resume)
    for loop in range(session.first_loop, config.steps + 1):
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
        session.report.rows.append(LoopRecord(
            loop=loop, enhanced_size=session.pools.enhanced.size,
            novel_size=session.pools.novel.size,
            seconds=time.perf_counter() - started, **values))
    return TrainResult(model=session.model, pools=session.pools,
                       report=session.report,
                       state=session.checkpoint_data(config.steps))


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, state: CheckpointData) -> None:
    params = {name: {"shape": list(p.shape), "data": p.data.ravel().tolist()}
              for name, p in state.model.named_params().items()}
    pools_doc = {}
    for (level, class_id), vectors in state.pools.enhanced.entries.items():
        matrix = np.stack(vectors)
        pools_doc[f"enhanced/{level}/{class_id}"] = {
            "shape": list(matrix.shape), "data": matrix.ravel().tolist()}
    for i, vector in enumerate(state.pools.novel.vectors):
        pools_doc[f"novel/{i}"] = {"shape": [len(vector)], "data": vector.tolist()}
    document = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(state.config),
        "seed": state.config.seed,
        "loop_index": state.loop_index,
        "rng_state": state.rng_state,
        "seen_species": state.seen_species,
        "dims": {"visual": state.model.visual_dim,
                 "semantic": state.model.semantic_dim,
                 "n_classes": state.model.n_classes},
        "params": params,
        "adam": state.adam_states,
        "pools": pools_doc,
    }
    atomic_write_text(path, json.dumps(document))


def restore_checkpoint(path: str) -> CheckpointData:
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed checkpoint {path}: {err}") from None
    version = document.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version mismatch: found {version}, "
                         f"expected {CHECKPOINT_VERSION}")
    config_doc = document["config"]
    names = [f.name for f in fields(TrainConfig)]
    unknown = sorted(set(config_doc) - set(names))
    missing = [name for name in names if name not in config_doc]
    problems = ([f"unknown key {k!r}" for k in unknown]
                + [f"missing key {k!r}" for k in missing])
    if problems:
        raise ValueError(f"checkpoint {path} config: {', '.join(problems)}")
    config = TrainConfig(**config_doc)
    dims = document["dims"]
    model = build_model(config, int(dims["visual"]), int(dims["semantic"]),
                        int(dims["n_classes"]))
    params = model.named_params()
    stored = document["params"]
    if set(stored) != set(params):
        raise ValueError("checkpoint parameter names do not match the model")
    for name, p in params.items():
        entry = stored[name]
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if arr.shape != p.shape:
            raise ValueError(f"checkpoint parameter {name}: shape {arr.shape} "
                             f"does not match model {p.shape}")
        p.data = arr
    pools = gn.Pools()
    for key, entry in document.get("pools", {}).items():
        parts = key.split("/")
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if parts[0] == "enhanced" and len(parts) == 3:
            for row in arr:
                pools.enhanced.add(parts[1], int(parts[2]), row)
        elif parts[0] == "novel" and len(parts) == 2:
            pools.novel.add(arr)
        else:
            raise ValueError(f"unknown pool key in checkpoint: {key!r}")
    return CheckpointData(config=config, model=model, pools=pools,
                          loop_index=int(document["loop_index"]),
                          rng_state=document["rng_state"],
                          adam_states=document["adam"],
                          seen_species=[int(s) for s in document["seen_species"]])
