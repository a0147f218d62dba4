"""Workload definitions and output digests shared by ``run.py`` and ``traced_run.py``.

This module imports nothing from ``mkfusion`` so that the untraced benchmark
process never loads the code it measures.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# CLI ``gen-data`` flag -> ``SyntheticSpec`` field.
SPEC_FIELDS = {
    "families": "families",
    "genera": "genera_per_family",
    "species": "species_per_genus",
    "samples": "samples_per_species",
    "vis_dim": "visual_dim",
    "sem_dim": "semantic_dim",
}
DEFAULT_SHAPE = {"families": 3, "genera": 3, "species": 4, "samples": 20,
                 "vis_dim": 32, "sem_dim": 16}
TOP_K = 5  # the CLI's default ``retrieve --k``


@dataclass(frozen=True)
class Workload:
    """One set of inputs: the dataset shape, the training config, and the
    part of the pipeline that is timed.

    Each repeat of a run makes ``setup_repeats`` set-up calls, one ``train``
    (unless ``train_in_setup``), ``evals_per_rep`` ``eval`` calls and
    ``retrieves_per_rep`` ``retrieve`` calls. ``train_in_setup`` marks a
    read-side workload: its ``train`` call is part of set-up and the timed
    part is ``eval`` plus ``retrieve``.
    """

    name: str
    why: str
    shape: dict = field(default_factory=dict)
    train_config: dict = field(default_factory=dict)
    train_in_setup: bool = False
    setup_repeats: int = 2
    evals_per_rep: int = 3
    retrieves_per_rep: int = 3
    min_reps: int = 2

    def gen_flags(self) -> list[str]:
        flags = []
        for key, value in self.shape.items():
            flags += ["--" + key.replace("_", "-"), str(value)]
        return flags

    def spec_kwargs(self) -> dict:
        return {SPEC_FIELDS[key]: value for key, value in self.shape.items()}

    @property
    def n_species(self) -> int:
        s = {**DEFAULT_SHAPE, **self.shape}
        return s["families"] * s["genera"] * s["species"]

    @property
    def n_samples(self) -> int:
        return self.n_species * {**DEFAULT_SHAPE, **self.shape}["samples"]

    def retrieval_classes(self, seed: int) -> list[int]:
        """Class ids queried by ``retrieve``, drawn from the seed."""
        return random.Random(seed).sample(range(self.n_species), self.retrieves_per_rep)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-default",
        why="the paper's configuration: small matmuls, so per-op overhead, "
            "offspring gating, pool growth and the 13 MB checkpoint dominate",
        train_config={"steps": 300},
    ),
    Workload(
        name="eval-large",
        why="read side on 144 species and 5,760 samples: timed eval and retrieve "
            "use no backward pass and no genetics",
        shape={"families": 6, "genera": 4, "species": 6, "samples": 40,
               "vis_dim": 64, "sem_dim": 32},
        train_config={"steps": 30},
        train_in_setup=True,
        min_reps=3,
    ),
)}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split_report(path: Path) -> tuple[list[float], str]:
    """The ``seconds`` column of a ``report.csv`` and the file without it."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("seconds")
    seconds = [float(row[col]) for row in rows[1:]]
    stripped = "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows) + "\n"
    return seconds, stripped


def params_digest(checkpoint: Path) -> str:
    """sha256 of the checkpoint's parameter tensors, as canonical JSON."""
    document = json.loads(checkpoint.read_text())
    return sha256_text(json.dumps(document["params"], sort_keys=True))


def parse_metrics(text: str) -> dict[str, float]:
    """The two-line ``metrics.csv`` written by ``eval`` as a name -> value map."""
    header, values = text.splitlines()[:2]
    return {k: float(v) for k, v in zip(header.split(","), values.split(","))}


def check_metrics(metrics: dict[str, float]) -> bool:
    """Every accuracy-like figure of ``eval`` lies in [0, 1]."""
    return all(0.0 <= v <= 1.0 for k, v in metrics.items() if k != "gamma_best")


def check_ranking(text: str, n_samples: int) -> bool:
    """A ``retrieve`` ranking has k rows, ranks 1..k, valid sample ids and
    non-increasing similarities in [-1, 1]."""
    lines = text.splitlines()
    if lines[0] != "rank,sample_id,similarity" or len(lines) != TOP_K + 1:
        return False
    rows = [line.split(",") for line in lines[1:]]
    sims = [float(r[2]) for r in rows]
    return ([int(r[0]) for r in rows] == list(range(1, TOP_K + 1))
            and all(0 <= int(r[1]) < n_samples for r in rows)
            and all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for s in sims)
            and all(a >= b for a, b in zip(sims, sims[1:])))
