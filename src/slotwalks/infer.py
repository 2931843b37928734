"""Turning trained parameters plus features into masks and reports.

Inference always uses eval-mode slots (the learned means, no sampling),
so identical checkpoints and inputs give bit-identical masks. The soft
mask of a scene is the parts -> whole transition matrix in walk space;
hard labels take the argmax slot per cell, ties to the lowest index.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import Scene
from .errors import ConfigError, DataFormatError, ShapeError, UndefinedMetricError
from .metrics import EvalReport, ari_fg, assign_classes, dice, kmeans, miou
from .slots import SlotParams, encode
from .walks import WalkConfig, WalkProjection, adjacency


def _sorted_scenes(scenes: Sequence[Scene]) -> list[Scene]:
    # pooling and report order is fixed by scene name when present
    return sorted(scenes, key=lambda s: (s.name is None, s.name or ""))


def _require_labels(scene: Scene, label: str) -> np.ndarray:
    if scene.labels is None:
        raise UndefinedMetricError(f"{label}: scene has no ground-truth labels")
    return scene.labels


def _walks(features, params: SlotParams, proj: WalkProjection, cfg: WalkConfig, iterations: int):
    """Eval-mode (m_sx, m_xs) of one scene: the K x N and N x K walk matrices."""
    slots_hat, _ = encode(features, params, iterations, mode="eval")
    m_sx, m_xs = adjacency(ad.matmul(slots_hat, proj.p_s), ad.matmul(features, proj.p_x), cfg.tau)
    return m_sx.value, m_xs.value


def slot_masks(
    features: np.ndarray,
    params: SlotParams,
    proj: WalkProjection,
    cfg: WalkConfig,
    iterations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Soft N x K masks (rows sum to 1) and hard per-cell slot labels."""
    _, soft = _walks(features, params, proj, cfg, iterations)
    return soft, np.argmax(soft, axis=1)


def foreground_select(
    hard_labels: np.ndarray, num_slots: int, gt_foreground: np.ndarray
) -> tuple[int, np.ndarray]:
    """Pick the slot whose cells intersect the ground-truth foreground most.

    Returns (slot index, predicted foreground mask); intersection ties go
    to the lowest slot index.
    """
    hard_labels = np.asarray(hard_labels)
    gt = np.asarray(gt_foreground).astype(bool)
    if hard_labels.shape != gt.shape:
        raise ShapeError(
            f"foreground_select: {hard_labels.shape} labels vs {gt.shape} ground truth"
        )
    overlaps = [int(np.count_nonzero((hard_labels == k) & gt)) for k in range(num_slots)]
    best = int(np.argmax(overlaps))
    return best, hard_labels == best


def _evaluate(report: EvalReport, score, scenes, params, proj, cfg, iterations: int) -> EvalReport:
    """One row per scene from score(hard slot labels, ground-truth labels), then the mean."""
    for i, scene in enumerate(_sorted_scenes(scenes)):
        labels = _require_labels(scene, f"evaluate {report.task}: scene {i}")
        _, hard = slot_masks(scene.features, params, proj, cfg, iterations)
        report.add(scene.name or str(i), score(hard, labels))
    report.finalize_mean()
    return report


def evaluate_foreground(
    scenes: Sequence[Scene],
    params: SlotParams,
    proj: WalkProjection,
    cfg: WalkConfig,
    iterations: int,
) -> EvalReport:
    """Foreground extraction: mIoU and Dice per scene against labels != 0."""

    def score(hard, labels):
        gt = labels != 0
        _, pred = foreground_select(hard, params.num_slots, gt)
        return {"miou": miou(pred, gt), "dice": dice(pred, gt)}

    report = EvalReport(task="fg", columns=["miou", "dice"])
    return _evaluate(report, score, scenes, params, proj, cfg, iterations)


def evaluate_discovery(
    scenes: Sequence[Scene],
    params: SlotParams,
    proj: WalkProjection,
    cfg: WalkConfig,
    iterations: int,
) -> EvalReport:
    """Object discovery: adjusted Rand index on the labeled foreground."""
    report = EvalReport(task="discovery", columns=["ari_fg"])
    return _evaluate(
        report, lambda hard, labels: {"ari_fg": ari_fg(hard, labels, labels != 0)},
        scenes, params, proj, cfg, iterations,
    )


def semantic_segment(
    scenes: Sequence[Scene],
    params: SlotParams,
    proj: WalkProjection,
    cfg: WalkConfig,
    iterations: int,
    num_classes: int,
    seed: int = 0,
) -> EvalReport:
    """Cluster slot-pooled object features dataset-wide and match to classes.

    Per scene, the whole -> parts transition pools features into one
    vector per slot; the pooled vectors from all scenes are k-means
    clustered into num_classes groups, clusters are matched to ground
    truth classes by IoU, and every cell inherits the class of its
    binding slot's cluster. Rows are per-class IoUs over the whole
    dataset; the summary averages them.
    """
    if num_classes < 1:
        raise ConfigError(f"semantic_segment: num_classes must be >= 1, got {num_classes}")
    ordered = _sorted_scenes(scenes)
    pooled: list[np.ndarray] = []
    cell_slot: list[np.ndarray] = []
    gt_all: list[np.ndarray] = []
    for i, scene in enumerate(ordered):
        labels = _require_labels(scene, f"semantic_segment: scene {i}")
        m_sx, m_xs = _walks(scene.features, params, proj, cfg, iterations)
        pooled.append(m_sx @ scene.features)
        cell_slot.append(np.argmax(m_xs, axis=1))
        gt_all.append(np.asarray(labels))
    pool = np.concatenate(pooled, axis=0)
    if pool.shape[0] < num_classes:
        raise ConfigError(
            f"semantic_segment: only {pool.shape[0]} pooled vectors for"
            f" {num_classes} classes"
        )
    _, cluster_of = kmeans(pool, num_classes, seed)

    k = params.num_slots
    pred_cluster = np.concatenate(
        [cluster_of[i * k + slots] for i, slots in enumerate(cell_slot)]
    )
    gt = np.concatenate(gt_all)

    score = np.zeros((num_classes, num_classes))
    for c in range(num_classes):
        for g in range(num_classes):
            score[c, g] = miou(pred_cluster == c, gt == g)
    assignment = assign_classes(score)

    report = EvalReport(task="semantic", columns=["iou"], assignment=assignment)
    class_to_cluster = {g: c for c, g in assignment}
    ious = []
    for g in range(num_classes):
        if g in class_to_cluster:
            value = miou(pred_cluster == class_to_cluster[g], gt == g)
        else:
            value = 0.0
        ious.append(value)
        report.add(f"class_{g}", {"iou": value})
    report.summary = {"iou": float(np.mean(ious))}
    return report


def write_mask_pgm(labels, height: int, width: int, path, num_labels: int | None = None) -> None:
    """Write hard labels as a binary (P5) PGM image.

    Pixel value is label * floor(255 / (num_labels - 1)) when num_labels
    is above 1, else 0; labels must stay below 256 and below num_labels.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size != height * width:
        raise ShapeError(
            f"write_mask_pgm: {labels.shape} labels do not fill a {height}x{width} grid"
        )
    if num_labels is None:
        num_labels = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= num_labels:
        raise DataFormatError(
            f"write_mask_pgm: labels outside [0, {num_labels})"
        )
    if labels.max() >= 256:
        raise DataFormatError("write_mask_pgm: label overflow, ids must stay below 256")
    step = 255 // (num_labels - 1) if num_labels > 1 else 0
    values = (labels * step).astype(np.int64)
    if values.max() > 255:
        raise DataFormatError("write_mask_pgm: scaled label overflows 8-bit range")
    header = f"P5\n{width} {height}\n255\n".encode()
    Path(path).write_bytes(header + values.astype(np.uint8).tobytes())
