"""Generative model: three level-conditioned generators, a two-headed critic,
and the adaptive fusion module with its normalized importance weights."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import LEVELS

if TYPE_CHECKING:
    from .trainer import TrainConfig

Array = np.ndarray

# How ``FusionGan.generate_fused`` combines the three level features: the
# trained fusion network, or the plain one-third average (the ablation).
FUSION_MODES = ("adaptive", "summing")


def _layers(rng: np.random.Generator, *layers: tuple[str, int, int]) -> dict[str, Tensor]:
    """A network's parameter table: for each ``(name, n_in, n_out)`` layer the
    weight ``w<name>`` and then the bias ``b<name>``, both drawn uniform in
    +-1/sqrt(n_in)."""
    table = {}
    for name, n_in, n_out in layers:
        bound = 1.0 / np.sqrt(n_in)
        for key, shape in ((f"w{name}", (n_in, n_out)), (f"b{name}", (n_out,))):
            table[key] = Tensor(rng.uniform(-bound, bound, shape))
    return table


def _dense(x: Tensor, table: dict[str, Tensor], name: str,
           alpha: float | None = None) -> Tensor:
    """``x @ w<name> + b<name>``, then a leaky ReLU when ``alpha`` is given."""
    y = ad.matmul(x, table[f"w{name}"], bias=table[f"b{name}"])
    return y if alpha is None else ad.leaky_relu(y, alpha=alpha)


class GeneratorNet:
    """One-hidden-layer MLP mapping (semantic ++ noise) rows to visual rows."""

    def __init__(self, level: str, semantic_dim: int, noise_dim: int, visual_dim: int,
                 hidden: int, alpha: float, rng: np.random.Generator):
        self.level = level
        self.semantic_dim = semantic_dim
        self.noise_dim = noise_dim
        self.alpha = alpha
        self.params = _layers(rng, ("1", semantic_dim + noise_dim, hidden),
                              ("2", hidden, visual_dim))


def generate(gen: GeneratorNet, t: Array, z: Array) -> Tensor:
    """Synthesize a batch of visual rows from semantic rows and noise rows."""
    t = np.asarray(t, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] != gen.semantic_dim:
        raise ValueError(f"generate: semantic rows must be (n, {gen.semantic_dim}), "
                         f"got {t.shape}")
    if z.shape != (t.shape[0], gen.noise_dim):
        raise ValueError(f"generate: noise must be ({t.shape[0]}, {gen.noise_dim}), "
                         f"got {z.shape}")
    h = _dense(Tensor(np.hstack([t, z])), gen.params, "1", gen.alpha)
    return _dense(h, gen.params, "2")


class DiscriminatorNet:
    """Shared two-layer trunk with a realness head and a seen-class logit head.

    The critic half (trunk plus realness head) is the part subject to weight
    clipping; the class head stays unclipped so classification can train.
    """

    def __init__(self, visual_dim: int, n_classes: int, hidden1: int, hidden2: int,
                 alpha: float, rng: np.random.Generator):
        self.visual_dim = visual_dim
        self.alpha = alpha
        self.params = _layers(rng, ("1", visual_dim, hidden1), ("2", hidden1, hidden2),
                              ("_real", hidden2, 1), ("_cls", hidden2, n_classes))

    def critic_params(self) -> list[Tensor]:
        return [p for k, p in self.params.items() if not k.endswith("_cls")]


def discriminate(disc: DiscriminatorNet, x: Tensor, *, classify: bool = True
                 ) -> tuple[Tensor, Tensor | None]:
    """Return (realness column, class logit rows) for a batch of visual rows;
    with ``classify=False`` the class head does not run and the logits are None."""
    if x.ndim != 2 or x.shape[1] != disc.visual_dim:
        raise ValueError(f"discriminate: expected (n, {disc.visual_dim}) rows, "
                         f"got {x.shape}")
    h = _dense(_dense(x, disc.params, "1", disc.alpha), disc.params, "2", disc.alpha)
    realness = _dense(h, disc.params, "_real")
    return realness, (_dense(h, disc.params, "_cls") if classify else None)


class FusionNet:
    """Per-level scalar scoring networks; each second layer has one output neuron."""

    def __init__(self, visual_dim: int, hidden: int, alpha: float,
                 rng: np.random.Generator):
        self.alpha = alpha
        self.layers = {level: _layers(rng, ("1", visual_dim, hidden), ("2", hidden, 1))
                       for level in LEVELS}

    def score(self, level: str, x: Tensor) -> Tensor:
        layer = self.layers[level]
        return ad.sigmoid(_dense(_dense(x, layer, "1", self.alpha), layer, "2"))


def normalize_scores(scores: dict[str, Tensor]) -> dict[str, Tensor]:
    """Turn per-level positive scores into weights summing to one per row."""
    total = ad.add(ad.add(scores[LEVELS[0]], scores[LEVELS[1]]), scores[LEVELS[2]])
    return {level: ad.div(scores[level], total) for level in LEVELS}


def weighted_sum(features: dict[str, Tensor], weights: dict[str, Tensor]) -> Tensor:
    """Row-wise convex combination of the per-level features."""
    parts = [ad.mul(features[level], weights[level]) for level in LEVELS]
    return ad.add(ad.add(parts[0], parts[1]), parts[2])


def fuse(fusion: FusionNet, features: dict[str, Tensor]) -> tuple[Tensor, dict[str, Tensor]]:
    """Adaptive fusion: score, normalize, and combine the per-level features."""
    shapes = {features[level].shape for level in LEVELS}
    if len(shapes) != 1:
        raise ValueError(f"fuse: feature shapes differ: {sorted(shapes)}")
    scores = {level: fusion.score(level, features[level]) for level in LEVELS}
    weights = normalize_scores(scores)
    return weighted_sum(features, weights), weights


def fuse_baseline(features: dict[str, Tensor]) -> Tensor:
    """Plain elementwise mean of the three features (each weighted one third)."""
    shapes = {features[level].shape for level in LEVELS}
    if len(shapes) != 1:
        raise ValueError(f"fuse_baseline: feature shapes differ: {sorted(shapes)}")
    n = features[LEVELS[0]].shape[0]
    third = Tensor(np.full((n, 1), 1.0 / 3.0))
    return weighted_sum(features, {level: third for level in LEVELS})


class FusionGan:
    """The whole generative stack bound to one seen-class label space, with
    the widths, seed and fusion mode of a checked ``TrainConfig``."""

    def __init__(self, config: TrainConfig, visual_dim: int, semantic_dim: int,
                 n_classes: int):
        if n_classes < 1:
            raise ValueError("model needs at least one seen class")
        self.visual_dim = visual_dim
        self.semantic_dim = semantic_dim
        self.n_classes = n_classes
        self.noise_dim = config.noise_dim
        self.fusion_mode = config.fusion_mode
        alpha = config.alpha
        rng = np.random.default_rng(config.seed)
        self.generators = {
            level: GeneratorNet(level, semantic_dim, config.noise_dim, visual_dim,
                                config.gen_hidden, alpha, rng)
            for level in LEVELS
        }
        self.discriminator = DiscriminatorNet(visual_dim, n_classes, *config.disc_hidden,
                                              alpha, rng)
        self.fusion = FusionNet(visual_dim, config.fusion_hidden, alpha, rng)
        # Every parameter under its checkpoint name, in draw order.
        tables = ([(f"generator/{level}/", self.generators[level].params) for level in LEVELS]
                  + [("discriminator/", self.discriminator.params)]
                  + [(f"fusion/{level}/", self.fusion.layers[level]) for level in LEVELS])
        self.params = {prefix + key: p for prefix, table in tables for key, p in table.items()}

    def group(self, prefix: str) -> list[Tensor]:
        """The parameters whose checkpoint names start with ``prefix``, in table order."""
        return [p for name, p in self.params.items() if name.startswith(prefix)]

    def generate_fused(self, t: Array, z: Array
                       ) -> tuple[dict[str, Tensor], Tensor, dict[str, Tensor] | None]:
        """Generate per-level features from shared (t, z) and fuse them in the
        model's fusion mode; the summing mode has no weights."""
        features = {level: generate(self.generators[level], t, z) for level in LEVELS}
        if self.fusion_mode == "summing":
            return features, fuse_baseline(features), None
        fused, weights = fuse(self.fusion, features)
        return features, fused, weights


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_kr(generated: Tensor, center_rows: Array) -> Tensor:
    """Mean squared distance between generated rows and their class centers."""
    n = generated.shape[0]
    return ad.scalar_mul(ad.l2_squared_distance(generated, Tensor(center_rows)), 1.0 / n)


def adversarial_and_classification(disc: DiscriminatorNet, batch: Tensor,
                                   labels: Array) -> Tensor:
    """-mean(realness) + cross-entropy of the class head, on one batch."""
    realness, logits = discriminate(disc, batch)
    term_adv = ad.scalar_mul(ad.reduce_mean(realness), -1.0)
    term_cls = ad.cross_entropy_with_logits(logits, labels)
    return ad.add(term_adv, term_cls)


def loss_generator(disc: DiscriminatorNet, generated: Tensor, labels: Array,
                   center_rows: Array) -> Tensor:
    """Per-level generator loss: critic term + classification + center pull."""
    return ad.add(adversarial_and_classification(disc, generated, labels),
                  loss_kr(generated, center_rows))


def loss_discriminator(disc: DiscriminatorNet, real: Array, fake: Array,
                       labels: Array) -> Tensor:
    """Critic loss mean(realness(fake)) - mean(realness(real)) plus
    classification of the real batch. ``fake`` is treated as a constant."""
    realness_fake, _ = discriminate(disc, Tensor(fake), classify=False)
    realness_real, logits_real = discriminate(disc, Tensor(real))
    wasserstein = ad.sub(ad.reduce_mean(realness_fake), ad.reduce_mean(realness_real))
    return ad.add(wasserstein, ad.cross_entropy_with_logits(logits_real, labels))
