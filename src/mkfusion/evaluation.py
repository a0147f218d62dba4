"""Test-time synthesis and scoring: class prototypes, top-1 classification,
harmonic mean, the seen/unseen calibration curve with its area, and retrieval."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import DEFAULT_N_SYN, DEFAULT_TOP_K
from .dataset import DatasetBundle, csv_text
from .genetics import cosine_rows
from .model import FusionGan

Array = np.ndarray

DEFAULT_GAMMA_SPAN = 2.0
DEFAULT_GAMMA_POINTS = 201
CURVE_BLOCK_ROWS = 256


@dataclass
class ClassPrototypes:
    """Synthesized visual anchor per class: the mean of n_syn fused generations."""

    prototypes: dict[int, Array]
    n_syn: int

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.prototypes)

    def matrix(self) -> Array:
        return np.stack([self.prototypes[c] for c in self.class_ids])


@dataclass
class SeenUnseenCurve:
    """Accuracy trade-off swept over the seen-score calibration offset."""

    gammas: Array
    seen_accuracy: Array
    unseen_accuracy: Array

    def to_csv(self) -> str:
        return csv_text(("gamma", "S", "U"),
                        zip(self.gammas, self.seen_accuracy, self.unseen_accuracy))

    def to_svg(self) -> str:
        """Polyline of U against S on the unit square, drawn 300 x 300 inside a
        320 x 320 image."""
        order = np.argsort(self.seen_accuracy, kind="stable")
        points = " ".join(
            f"{self.seen_accuracy[i] * 300 + 10:.2f},"
            f"{310 - self.unseen_accuracy[i] * 300:.2f}"
            for i in order)
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="320" '
                'height="320" viewBox="0 0 320 320">'
                '<rect width="320" height="320" fill="white"/>'
                f'<polyline points="{points}" fill="none" stroke="black"/></svg>\n')


@dataclass
class Metrics:
    top1_unseen: float
    seen_accuracy: float
    unseen_accuracy: float
    harmonic: float
    best_harmonic: float
    best_gamma: float
    ausuc: float
    retrieval_precision: float
    per_class_correct: dict[int, int] = field(default_factory=dict)

    def named_values(self) -> list[tuple[str, float]]:
        """Reported name and value of every scalar metric, in output order."""
        return [("top1_unseen", self.top1_unseen), ("S", self.seen_accuracy),
                ("U", self.unseen_accuracy), ("H", self.harmonic),
                ("H_best", self.best_harmonic), ("gamma_best", self.best_gamma),
                ("AUSUC", self.ausuc),
                ("retrieval_precision_at_k", self.retrieval_precision)]

    def to_text(self) -> str:
        return "".join(f"{name}={value!r}\n" for name, value in self.named_values())

    def to_csv(self) -> str:
        names, values = zip(*self.named_values())
        return csv_text(names, [values])


def synthesize_prototypes(model: FusionGan, semantics: dict[int, Array],
                          n_syn: int = DEFAULT_N_SYN, seed: int = 0,
                          fusion_mode: str | None = None) -> ClassPrototypes:
    """Average n_syn fused generations per class, with a per-class noise
    stream so enlarging n_syn reuses the shorter stream as a prefix.

    The model fuses in its own mode; a ``fusion_mode`` given here is only
    checked against it. A generation that overflows raises one error instead
    of numpy warnings and a non-finite prototype."""
    if fusion_mode is not None and fusion_mode != model.fusion_mode:
        raise ValueError(f"fusion mode {fusion_mode!r} does not match the model's "
                         f"{model.fusion_mode!r}")
    if n_syn < 1:
        raise ValueError("n_syn must be at least 1")
    prototypes = {}
    for class_id in sorted(semantics):
        rng = np.random.default_rng([seed, int(class_id)])
        z = rng.standard_normal((n_syn, model.noise_dim))
        t = np.tile(np.asarray(semantics[class_id], dtype=np.float64), (n_syn, 1))
        with ad.no_grad(), np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            _, fused, _ = model.generate_fused(t, z)
        prototypes[int(class_id)] = fused.data.mean(axis=0)
    if not all(np.isfinite(p).all() for p in prototypes.values()):
        raise ValueError("synthesized prototypes contain non-finite entries")
    return ClassPrototypes(prototypes=prototypes, n_syn=n_syn)


def similarity_matrix(x: Array, prototypes: ClassPrototypes) -> Array:
    """Cosine similarity of each sample row against each class prototype."""
    matrix = prototypes.matrix()
    x_norm = np.linalg.norm(x, axis=1, keepdims=True)
    p_norm = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(x_norm == 0.0) or np.any(p_norm == 0.0):
        raise ValueError("cosine undefined for zero-norm vector")
    return (x / x_norm) @ (matrix / p_norm).T


def classify_top1(prototypes: ClassPrototypes, x: Array) -> Array:
    """Most-similar prototype per row; ties break toward the lowest class id."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    scores = similarity_matrix(x, prototypes)
    ids = np.asarray(prototypes.class_ids)
    return ids[np.argmax(scores, axis=1)]


def harmonic_mean(seen: float, unseen: float) -> float:
    """2SU / (S + U); zero when both accuracies are zero."""
    if seen + unseen == 0.0:
        return 0.0
    return 2.0 * seen * unseen / (seen + unseen)


def calibrated_argmax(scores: Array, seen_mask: Array) -> Callable[[float], Array]:
    """Return a function that maps gamma to
    ``np.argmax(scores - seen_mask * gamma, axis=1)``, bit for bit, at O(n)
    cost per gamma after one O(n·k) pass over the finite score matrix.

    Subtracting gamma keeps the order of a row's seen scores, so the argmax is
    the row's best seen column or its best unseen column, the lower one on a
    tie. Rounding of ``s - gamma`` can still make another seen score equal to
    the best one, and argmax then picks the first of them; the rows where the
    runner-up seen score rounds onto the best at a gamma are recomputed over
    their full row. The pass works on ``CURVE_BLOCK_ROWS`` rows at a time, so
    it holds one block of masked copies besides ``scores``.
    """
    n = len(scores)
    seen_col, unseen_col = np.empty((2, n), dtype=np.intp)
    best_seen, best_unseen, runner_up = np.empty((3, n), np.result_type(scores, -np.inf))
    for start in range(0, n, CURVE_BLOCK_ROWS):
        block = scores[start:start + CURVE_BLOCK_ROWS]
        if not np.isfinite(block).all():
            raise ValueError("scores must be finite")
        rows, part = np.arange(len(block)), slice(start, start + len(block))
        seen = np.where(seen_mask, block, -np.inf)
        unseen = np.where(seen_mask, -np.inf, block)
        seen_col[part] = np.argmax(seen, axis=1)
        unseen_col[part] = np.argmax(unseen, axis=1)
        best_seen[part] = seen[rows, seen_col[part]]
        best_unseen[part] = unseen[rows, unseen_col[part]]
        seen[rows, seen_col[part]] = -np.inf
        runner_up[part] = seen.max(axis=1)
    lower_col = np.minimum(seen_col, unseen_col)

    def argmax(gamma: float) -> Array:
        shifted = best_seen - gamma
        columns = np.where(shifted == best_unseen, lower_col,
                           np.where(shifted > best_unseen, seen_col, unseen_col))
        merged = np.flatnonzero(runner_up - gamma == shifted)
        if merged.size:
            columns[merged] = np.argmax(scores[merged] - seen_mask * gamma, axis=1)
        return columns

    return argmax


def seen_unseen_curve(prototypes: ClassPrototypes, seen_x: Array, seen_y: Array,
                      unseen_x: Array, unseen_y: Array, seen_ids: list[int],
                      gammas: Array | None = None) -> SeenUnseenCurve:
    """Sweep the calibration offset subtracted from every seen-class score.

    The supplied grid is extended (by doubling its reach) until the curve
    saturates at S = 0 on the right and U = 0 on the left. A sample's
    prediction at an offset is the argmax of its offset scores, ties going to
    the lower class id; ``calibrated_argmax`` computes it from the sample's
    best seen and best unseen score.
    """
    if len(seen_x) == 0 or len(unseen_x) == 0:
        raise ValueError("both evaluation sets must be non-empty")
    if gammas is None:
        gammas = np.linspace(-DEFAULT_GAMMA_SPAN, DEFAULT_GAMMA_SPAN,
                             DEFAULT_GAMMA_POINTS)
    gammas = np.asarray(sorted(float(g) for g in gammas))
    if len(gammas) == 0:
        raise ValueError("gammas must hold at least one offset")
    if not np.isfinite(gammas).all():
        raise ValueError("gammas must be finite")
    missing = sorted({int(c) for c in seen_ids} - set(prototypes.class_ids))
    if missing:
        raise ValueError(f"seen_ids without a prototype: {missing}")
    ids = np.asarray(prototypes.class_ids)
    seen_mask = np.isin(ids, np.asarray(sorted(seen_ids)))
    argmax_seen = calibrated_argmax(similarity_matrix(seen_x, prototypes), seen_mask)
    argmax_unseen = calibrated_argmax(similarity_matrix(unseen_x, prototypes), seen_mask)

    def accuracies(gamma: float) -> tuple[float, float]:
        pred_s = ids[argmax_seen(gamma)]
        pred_u = ids[argmax_unseen(gamma)]
        return float((pred_s == seen_y).mean()), float((pred_u == unseen_y).mean())

    points = [accuracies(g) for g in gammas]
    gammas = list(gammas)
    for _ in range(8):
        if points[-1][0] == 0.0:
            break
        gammas.append(gammas[-1] * 2.0 if gammas[-1] > 0 else 2.0)
        points.append(accuracies(gammas[-1]))
    for _ in range(8):
        if points[0][1] == 0.0:
            break
        gammas.insert(0, gammas[0] * 2.0 if gammas[0] < 0 else -2.0)
        points.insert(0, accuracies(gammas[0]))
    seen_acc = np.asarray([p[0] for p in points])
    unseen_acc = np.asarray([p[1] for p in points])
    return SeenUnseenCurve(gammas=np.asarray(gammas), seen_accuracy=seen_acc,
                           unseen_accuracy=unseen_acc)


def ausuc(curve: SeenUnseenCurve) -> float:
    """Trapezoidal area under the U-versus-S polyline, points sorted by S.

    Sweep plateaus produce repeated S values; only the best U per distinct S
    (the operating frontier) contributes, so dominated points never add area.
    """
    if len(curve.gammas) < 2:
        raise ValueError("curve needs at least two points")
    s = np.clip(curve.seen_accuracy, 0.0, 1.0)
    u = np.clip(curve.unseen_accuracy, 0.0, 1.0)
    frontier: dict[float, float] = {}
    for si, ui in zip(s, u):
        frontier[float(si)] = max(frontier.get(float(si), 0.0), float(ui))
    s_sorted = np.asarray(sorted(frontier))
    u_sorted = np.asarray([frontier[si] for si in s_sorted])
    return float(np.trapezoid(u_sorted, s_sorted))


def retrieve_topk(prototypes: ClassPrototypes, pool: Array, class_id: int,
                  k: int = DEFAULT_TOP_K) -> list[tuple[int, float]]:
    """Indices and similarities of the pool rows closest to the class
    prototype, best first; ties break toward the lower index. Requests past
    the pool size return the full ranking."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(pool) == 0:
        raise ValueError("retrieval pool is empty")
    if int(class_id) not in prototypes.prototypes:
        raise KeyError(f"no prototype for class {class_id}")
    sims = cosine_rows(pool, prototypes.prototypes[int(class_id)][None, :])
    order = np.argsort(-sims, kind="stable")[:k]
    return [(int(i), float(sims[i])) for i in order]


# ---------------------------------------------------------------------------
# Whole-bundle evaluation drivers
# ---------------------------------------------------------------------------

def _unseen_top1(prototypes: ClassPrototypes, bundle: DatasetBundle
                 ) -> tuple[float, dict[int, int]]:
    """Top-1 accuracy of unseen samples among the unseen classes' prototypes,
    with the number of correct samples per unseen class."""
    ids = bundle.unseen_ids
    y = bundle.unseen_sample_species()
    if len(y) == 0:
        raise ValueError("the unseen evaluation set must be non-empty")
    unseen = ClassPrototypes({c: prototypes.prototypes[c] for c in ids}, prototypes.n_syn)
    predictions = classify_top1(unseen, bundle.unseen_visuals())
    per_class = {c: int(((predictions == y) & (y == c)).sum()) for c in ids}
    return float((predictions == y).mean()), per_class


def evaluate_zsl(model: FusionGan, bundle: DatasetBundle, n_syn: int = DEFAULT_N_SYN,
                 seed: int = 0) -> tuple[float, dict[int, int]]:
    """Unseen-only protocol: classify unseen samples among unseen classes."""
    semantics = {c: bundle.semantic_for(c) for c in bundle.unseen_ids}
    return _unseen_top1(synthesize_prototypes(model, semantics, n_syn, seed), bundle)


def evaluate_gzsl(model: FusionGan, bundle: DatasetBundle, n_syn: int = DEFAULT_N_SYN,
                  seed: int = 0, fusion_mode: str | None = None
                  ) -> tuple[Metrics, SeenUnseenCurve]:
    """Joint protocol over all classes, reporting uncalibrated accuracies,
    the best-offset harmonic mean, curve area, and retrieval precision.

    ``top1_unseen`` reuses the unseen prototypes: each class draws its own
    noise stream, so they equal what ``evaluate_zsl`` synthesizes.
    ``fusion_mode`` is checked as in ``synthesize_prototypes``."""
    semantics = dict(zip(bundle.taxonomy[:, 0].tolist(), bundle.semantics))
    prototypes = synthesize_prototypes(model, semantics, n_syn, seed, fusion_mode)
    seen_x, seen_y = bundle.seen_visuals(), bundle.seen_sample_species()
    unseen_x, unseen_y = bundle.unseen_visuals(), bundle.unseen_sample_species()
    curve = seen_unseen_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                              bundle.seen_ids)
    at_zero = int(np.argmin(np.abs(curve.gammas)))
    s0 = float(curve.seen_accuracy[at_zero])
    u0 = float(curve.unseen_accuracy[at_zero])
    h_values = [harmonic_mean(s, u) for s, u in
                zip(curve.seen_accuracy, curve.unseen_accuracy)]
    best = int(np.argmax(h_values))
    top1_unseen, per_class = _unseen_top1(prototypes, bundle)
    precision = retrieval_precision(prototypes, unseen_x, unseen_y, bundle.unseen_ids)
    metrics = Metrics(top1_unseen=top1_unseen, seen_accuracy=s0, unseen_accuracy=u0,
                      harmonic=harmonic_mean(s0, u0),
                      best_harmonic=float(h_values[best]),
                      best_gamma=float(curve.gammas[best]),
                      ausuc=ausuc(curve), retrieval_precision=precision,
                      per_class_correct=per_class)
    return metrics, curve


def retrieval_precision(prototypes: ClassPrototypes, pool: Array, pool_labels: Array,
                        class_ids: list[int], k: int = DEFAULT_TOP_K) -> float:
    """Mean fraction of correct classes among each class's top-k retrievals."""
    if len(class_ids) == 0:
        return 0.0
    scores = []
    for class_id in sorted(class_ids):
        hits = retrieve_topk(prototypes, pool, class_id, k)
        correct = sum(1 for i, _ in hits if int(pool_labels[i]) == int(class_id))
        scores.append(correct / len(hits))
    return float(np.mean(scores))
