"""Genetic generation of new semantic features.

Offspring are produced by mutating a parent vector or crossing two parents
from the same class at one hierarchy level. Each offspring is scored by the
cosine between its fused synthetic visual feature and the class visual
center, then gated into the enhanced pool (kept with the class), the novel
pool (kept unlabeled), or discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import LEVELS, LevelDataset
from .model import FusionGan, adversarial_and_classification, discriminate

Array = np.ndarray


@dataclass
class GeneticDraw:
    """One sampled mutation/crossover plan: ``loc1`` holds the distinct
    mutation positions and ``loc2`` the distinct crossover positions."""

    loc1: Array
    loc2: Array

    @classmethod
    def sample(cls, dim: int, rng: np.random.Generator) -> "GeneticDraw":
        """Draw rates r1, r2 uniformly in [0, 1), then floor(dim * r1)
        mutation and floor(dim * r2) crossover positions out of ``dim``."""
        r1 = float(rng.uniform())
        r2 = float(rng.uniform())
        return cls(loc1=rng.choice(dim, size=int(dim * r1), replace=False),
                   loc2=rng.choice(dim, size=int(dim * r2), replace=False))


def mutate(t_a: Array, rng: np.random.Generator, draw: GeneticDraw) -> Array:
    """Shrink nonzero entries (multiply by fresh r in [0, 1)) or fill zero
    entries (add fresh r) at the drawn positions; all others stay put."""
    out = np.array(t_a, dtype=np.float64)
    r = rng.uniform(size=len(draw.loc1))
    picked = out[draw.loc1]
    out[draw.loc1] = np.where(picked != 0.0, picked * r, picked + r)
    return out


def crossover(t_a: Array, t_b: Array, draw: GeneticDraw) -> Array:
    """Copy of ``t_a`` with the drawn positions replaced by ``t_b``'s entries."""
    t_a = np.asarray(t_a, dtype=np.float64)
    t_b = np.asarray(t_b, dtype=np.float64)
    if t_a.shape != t_b.shape:
        raise ValueError(f"crossover: shape mismatch {t_a.shape} vs {t_b.shape}")
    out = t_a.copy()
    out[draw.loc2] = t_b[draw.loc2]
    return out


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

@dataclass
class EnhancedPool:
    """High-stability offspring kept per (level, class id)."""

    entries: dict[tuple[str, int], list[Array]] = field(default_factory=dict)

    def add(self, level: str, class_id: int, vector: Array) -> None:
        key = (level, int(class_id))
        self.entries.setdefault(key, []).append(np.asarray(vector, dtype=np.float64))

    def vectors_for(self, level: str, class_id: int) -> list[Array]:
        return self.entries.get((level, int(class_id)), [])

    def flat(self) -> list[tuple[tuple[str, int], list[Array]]]:
        """Each (level, class id) key with its vectors, in insertion order."""
        return list(self.entries.items())

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.entries.values())


@dataclass
class NovelPool:
    """Low-stability offspring kept without labels or visual features."""

    vectors: list[Array] = field(default_factory=list)

    def add(self, vector: Array) -> None:
        self.vectors.append(np.asarray(vector, dtype=np.float64))

    @property
    def size(self) -> int:
        return len(self.vectors)


@dataclass
class Pools:
    enhanced: EnhancedPool = field(default_factory=EnhancedPool)
    novel: NovelPool = field(default_factory=NovelPool)


def sample_parents(datasets: dict[str, LevelDataset], pools: Pools,
                   rng: np.random.Generator) -> tuple[str, int, Array, Array]:
    """Pick a level and a class uniformly, then two parents from that class.

    Candidates are the class's dataset entries plus its enhanced-pool
    vectors; the two parents are distinct candidates unless only one exists.
    """
    level = LEVELS[int(rng.integers(0, len(LEVELS)))]
    ds = datasets[level]
    if ds.n_classes == 0:
        raise ValueError(f"sample_parents: no classes at level {level}")
    class_id = ds.class_ids[int(rng.integers(0, ds.n_classes))]
    entry_idx = ds.indices_by_class[class_id]
    extra = pools.enhanced.vectors_for(level, class_id)
    n_candidates = len(entry_idx) + len(extra)
    picks = rng.choice(n_candidates, size=2, replace=n_candidates < 2)

    def candidate(i: int) -> Array:
        if i < len(entry_idx):
            return ds.semantics[entry_idx[i]]
        return extra[i - len(entry_idx)]

    return level, class_id, candidate(int(picks[0])), candidate(int(picks[1]))


# ---------------------------------------------------------------------------
# Stability scoring and selection
# ---------------------------------------------------------------------------

def cosine_rows(a: Array, b: Array) -> Array:
    """Row-wise cosine similarity between two equally shaped matrices; ``b``
    may instead be one row, which is compared with every row of ``a``."""
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    if np.any(norm_a == 0.0) or np.any(norm_b == 0.0):
        raise ValueError("cosine undefined for zero-norm vector")
    return (a * b).sum(axis=1) / (norm_a * norm_b)


def stability_scores(offspring: Array, model: FusionGan, center_rows: Array,
                     rng: np.random.Generator) -> Array:
    """Cosine between each offspring's fused generation (fresh noise) and its
    class center row. Values lie in [-1, 1]; a generation that overflows
    raises instead of yielding a NaN score, which no gate would take."""
    offspring = np.atleast_2d(np.asarray(offspring, dtype=np.float64))
    center_rows = np.atleast_2d(np.asarray(center_rows, dtype=np.float64))
    z = rng.standard_normal((offspring.shape[0], model.noise_dim))
    with ad.no_grad(), np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _, fused, _ = model.generate_fused(offspring, z)
    scores = cosine_rows(fused.data, center_rows)
    if not np.isfinite(scores).all():
        raise ValueError("stability scores contain non-finite entries")
    return scores


def select(t_new: Array, d: float, kappa1: float, kappa2: float, pools: Pools,
           level: str, class_id: int) -> str:
    """Gate one offspring: enhanced above kappa1, novel below kappa2."""
    if kappa1 <= kappa2:
        raise ValueError("kappa1 must exceed kappa2")
    if d > kappa1:
        pools.enhanced.add(level, class_id, t_new)
        return "enhanced"
    if d < kappa2:
        pools.novel.add(t_new)
        return "novel"
    return "discarded"


# ---------------------------------------------------------------------------
# Pool losses
# ---------------------------------------------------------------------------

def enhanced_terms(model: FusionGan, t_batch: Array, labels: Array, z: Array) -> Tensor:
    """Critic and classification terms on fused generations of enhanced rows."""
    _, fused, _ = model.generate_fused(t_batch, z)
    return adversarial_and_classification(model.discriminator, fused, labels)


def loss_er(model: FusionGan, pools: Pools,
            species_under: dict[tuple[str, int], list[int]],
            rng: np.random.Generator, batch_size: int) -> Tensor:
    """Enhanced-pool loss over a sampled minibatch; zero when the pool is empty.

    ``species_under`` maps each (level, class id) key to the class-head labels
    of the seen species under it; every entry gets one of its key's labels,
    drawn uniformly, so genus and family entries get a species label.
    """
    flat = pools.enhanced.flat()
    # Pick i is row i of the key-major concatenation of every key's vectors.
    starts = np.cumsum([0] + [len(vectors) for _, vectors in flat])
    total = int(starts[-1])
    if total == 0:
        return Tensor(0.0)
    picks = rng.choice(total, size=min(total, batch_size), replace=False)
    rows, labels = [], []
    for i, k in zip(picks, np.searchsorted(starts, picks, side="right") - 1):
        key, vectors = flat[k]
        rows.append(vectors[i - starts[k]])
        members = species_under[key]
        labels.append(members[int(rng.integers(0, len(members)))])
    t_batch = np.stack(rows)
    z = rng.standard_normal((len(rows), model.noise_dim))
    return enhanced_terms(model, t_batch, np.asarray(labels), z)


def loss_nr(model: FusionGan, pools: Pools, lam: float, rng: np.random.Generator,
            batch_size: int) -> Tensor:
    """Novel-pool loss over a sampled minibatch; zero when the pool is empty."""
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    if pools.novel.size == 0:
        return Tensor(0.0)
    picks = rng.choice(pools.novel.size, size=min(pools.novel.size, batch_size),
                       replace=False)
    t_batch = np.stack([pools.novel.vectors[int(i)] for i in picks])
    z = rng.standard_normal((len(picks), model.noise_dim))
    return novel_terms(model, t_batch, z, lam)


def novel_terms(model: FusionGan, t_batch: Array, z: Array, lam: float) -> Tensor:
    """Push fused generations of novel rows toward critic-fake and a uniform
    class posterior: +mean(realness) + lam * mean ||softmax - uniform||^2."""
    _, fused, _ = model.generate_fused(t_batch, z)
    realness, logits = discriminate(model.discriminator, fused)
    term_real = ad.reduce_mean(realness)
    n, k = logits.shape
    probs = ad.softmax(logits)
    uniform = Tensor(np.full((n, k), 1.0 / k))
    mismatch = ad.scalar_mul(ad.l2_squared_distance(probs, uniform), 1.0 / n)
    return ad.add(term_real, ad.scalar_mul(mismatch, lam))

