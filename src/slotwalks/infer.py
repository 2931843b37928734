"""Turning trained parameters plus features into masks and reports.

Inference always starts the slots at the learned means (no sampling),
so identical checkpoints and inputs give bit-identical masks. The soft
mask of a scene is the parts -> whole transition matrix in walk space;
hard labels take the argmax slot per cell, ties to the lowest index.
Datasets are evaluated with one forward pass per group of scenes with
the same number of cells, on the stacked features (a large group in
chunks of bounded size).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import Scene, check_feature_width, group_by_cells, write_bytes_atomic
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
    """(m_sx, m_xs), the K x N and N x K walk matrices of a scene or a stack, from the learned means."""
    slots_hat, _ = encode(features, params, iterations)
    m_sx, m_xs, _ = adjacency(ad.matmul(slots_hat, proj.p_s), ad.matmul(features, proj.p_x), cfg.tau)
    return m_sx.value, m_xs.value


def slot_masks(
    features: np.ndarray,
    params: SlotParams,
    proj: WalkProjection,
    cfg: WalkConfig,
    iterations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Soft N x K masks (rows sum to 1) and hard per-cell slot labels; a B x N x D stack gives B of each."""
    _, soft = _walks(features, params, proj, cfg, iterations)
    return soft, np.argmax(soft, axis=-1)


# cells per stacked forward pass: a pass holds a few arrays of this many
# rows, so its memory does not grow with the dataset; on 8x8 and 24x24
# scenes larger passes were no faster
_STACK_CELLS = 4096


def _per_scene(scenes: list[Scene], forward) -> list:
    """forward(stacked features) per group of equal-N scenes, split back into scene order.

    A group of more than _STACK_CELLS cells is stacked in chunks of at most
    that many; a scene's results do not depend on what it is stacked with.
    """
    out: list = [None] * len(scenes)
    for group in group_by_cells(scenes):
        per_pass = max(1, _STACK_CELLS // scenes[group[0]].n)
        for start in range(0, len(group), per_pass):
            chunk = group[start : start + per_pass]
            results = forward(np.stack([scenes[i].features for i in chunk]))
            for j, i in enumerate(chunk):
                out[i] = tuple(r[j] for r in results)
    return out


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
    ordered = _sorted_scenes(scenes)
    labels = [_require_labels(s, f"evaluate {report.task}: scene {i}") for i, s in enumerate(ordered)]
    check_feature_width(ordered, params.input_dim, f"evaluate {report.task}")
    params, proj = params.lift(ad.constant), proj.lift(ad.constant)
    masks = _per_scene(ordered, lambda x: slot_masks(x, params, proj, cfg, iterations))
    for i, scene in enumerate(ordered):
        report.add(scene.name or str(i), score(masks[i][1], labels[i]))
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
) -> EvalReport:
    """Cluster slot-pooled object features dataset-wide and match to classes.

    Per scene, the whole -> parts transition pools features into one
    vector per slot; the pooled vectors from all scenes are k-means
    clustered into num_classes groups, clusters are matched to ground
    truth classes by IoU, and every cell inherits the class of its
    binding slot's cluster. Rows are per-class IoUs over the whole
    dataset; the summary averages them. Every label must lie in
    [0, num_classes).
    """
    if num_classes < 1:
        raise ConfigError(f"semantic_segment: num_classes must be >= 1, got {num_classes}")
    ordered = _sorted_scenes(scenes)
    gt_all: list[np.ndarray] = []
    for i, scene in enumerate(ordered):
        labels = np.asarray(_require_labels(scene, f"semantic_segment: scene {i}"))
        outside = (labels < 0) | (labels >= num_classes)
        if outside.any():
            raise ConfigError(
                f"semantic_segment: scene {scene.name or i} has label"
                f" {int(labels[outside][0])} outside [0, {num_classes})"
            )
        gt_all.append(labels)
    check_feature_width(ordered, params.input_dim, "semantic_segment")
    params, proj = params.lift(ad.constant), proj.lift(ad.constant)

    def pool_and_bind(x):
        m_sx, m_xs = _walks(x, params, proj, cfg, iterations)
        return m_sx @ x, np.argmax(m_xs, axis=-1)

    pooled, cell_slot = zip(*_per_scene(ordered, pool_and_bind))
    pool = np.concatenate(pooled, axis=0)
    if pool.shape[0] < num_classes:
        raise ConfigError(
            f"semantic_segment: only {pool.shape[0]} pooled vectors for"
            f" {num_classes} classes"
        )
    _, cluster_of = kmeans(pool, num_classes, seed=0)

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
            value = float(score[class_to_cluster[g], g])
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
    write_bytes_atomic(path, header + values.astype(np.uint8).tobytes())
