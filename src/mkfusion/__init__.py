"""Taxonomy-conditioned generative zero-shot learning sandbox."""

__version__ = "0.1.0"

from .autodiff import AdamState, Tensor, backward, clip_weights, no_grad
from .dataset import (ClassRecord, DatasetBundle, LevelCenters, LevelDataset,
                      SyntheticSpec, compute_visual_centers,
                      derive_knowledge_datasets, generate_synthetic, load_bundle,
                      save_bundle, LEVELS)
from .evaluation import (ClassPrototypes, Metrics, SeenUnseenCurve, ausuc,
                         classify_top1, evaluate_gzsl, evaluate_zsl,
                         harmonic_mean, retrieve_topk, seen_unseen_curve,
                         synthesize_prototypes)
from .genetics import (EnhancedPool, GeneticDraw, NovelPool, Pools, crossover,
                       mutate, sample_parents, select)
from .model import (DiscriminatorNet, FusionGan, FusionNet, GeneratorNet,
                    discriminate, fuse, fuse_baseline, generate)
from .trainer import (CheckpointData, TrainConfig, TrainReport, TrainResult,
                      restore_checkpoint, save_checkpoint, train)

__all__ = [name for name in dir() if not name.startswith("_")]
