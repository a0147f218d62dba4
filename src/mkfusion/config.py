"""Settings shared by training, evaluation and the CLI: the training config
and the evaluation defaults. A leaf module, so that a command reads them
without loading the training code."""

from __future__ import annotations

from dataclasses import dataclass, field

from .dataset import check_fields

# How ``FusionGan.generate_fused`` combines the three level features: the
# trained fusion network, or the plain one-third average (the ablation).
FUSION_MODES = ("adaptive", "summing")
DEFAULT_N_SYN = 60
DEFAULT_TOP_K = 5


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
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode: {self.fusion_mode!r}")
        if self.offspring_budget % 2:
            raise ValueError(f"offspring_budget must be even, got {self.offspring_budget}")
