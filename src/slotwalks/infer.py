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
from .data import Scene, check_features, group_by_cells, write_bytes_atomic
from .errors import ConfigError, DataFormatError, ShapeError, UndefinedMetricError
from .metrics import EvalReport, ari_fg, assign_classes, dice, kmeans, miou
from .slots import SlotParams, encode
from .walks import WalkConfig, WalkProjection, adjacency


def _prelude(scenes: Sequence[Scene], params: SlotParams, proj: WalkProjection, who: str):
    """(scenes in name order, their labels, params and proj lifted as constants).

    The order fixes pooling and report rows; every scene must carry labels
    and finite features of the model's width.
    """
    if not scenes:
        raise ConfigError(f"{who}: no scenes")
    ordered = sorted(scenes, key=lambda s: (s.name is None, s.name or ""))
    for i, scene in enumerate(ordered):
        if scene.labels is None:
            raise UndefinedMetricError(f"{who}: scene {scene.name or i} has no ground-truth labels")
    check_features(ordered, params.input_dim, who)
    labels = [np.asarray(s.labels) for s in ordered]
    return ordered, labels, params.lift(ad.constant), proj.lift(ad.constant)


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
    """One row per scene from score(hard slot labels, ground-truth labels)."""
    ordered, labels, params, proj = _prelude(scenes, params, proj, f"evaluate {report.task}")
    masks = _per_scene(ordered, lambda x: slot_masks(x, params, proj, cfg, iterations))
    for i, scene in enumerate(ordered):
        report.add(scene.name or str(i), score(masks[i][1], labels[i]))
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
    ordered, gt_all, params, proj = _prelude(scenes, params, proj, "semantic_segment")
    for i, (scene, labels) in enumerate(zip(ordered, gt_all)):
        outside = labels[(labels < 0) | (labels >= num_classes)]
        if outside.size:
            raise ConfigError(
                f"semantic_segment: scene {scene.name or i} has label"
                f" {int(outside[0])} outside [0, {num_classes})"
            )
    k = params.num_slots
    if len(ordered) * k < num_classes:
        raise ConfigError(
            f"semantic_segment: only {len(ordered) * k} pooled vectors for"
            f" {num_classes} classes"
        )

    def pool_and_bind(x):
        m_sx, m_xs = _walks(x, params, proj, cfg, iterations)
        return m_sx @ x, np.argmax(m_xs, axis=-1)

    pooled, cell_slot = zip(*_per_scene(ordered, pool_and_bind))
    _, cluster_of = kmeans(np.concatenate(pooled, axis=0), num_classes, seed=0)
    pred = np.concatenate([cluster_of[i * k + slots] for i, slots in enumerate(cell_slot)])

    # joint[c, g] counts the cells of cluster c and class g; an empty union scores 1, as in miou
    gt = np.concatenate(gt_all).astype(np.int64)  # labels of any numeric dtype, checked in range above
    joint = np.bincount(pred * num_classes + gt, minlength=num_classes**2)
    joint = joint.reshape(num_classes, num_classes)
    union = joint.sum(axis=1, keepdims=True) + joint.sum(axis=0) - joint
    score = np.divide(joint, union, out=np.ones(joint.shape), where=union > 0)
    assignment = assign_classes(score)

    # a square score matrix assigns every class to one cluster
    report = EvalReport(task="semantic", columns=["iou"], assignment=assignment)
    for c, g in sorted(assignment, key=lambda pair: pair[1]):
        report.add(f"class_{g}", {"iou": float(score[c, g])})
    return report


def write_mask_pgm(labels, height: int, width: int, path, num_labels: int | None = None) -> None:
    """Write hard labels as a binary (P5) PGM image.

    Pixel value is label * floor(255 / (num_labels - 1)) when num_labels
    is above 1, else 0; labels must stay below 256 and below num_labels.
    """
    labels = np.asarray(labels)
    if height < 1 or width < 1:
        raise ShapeError(f"write_mask_pgm: a {height}x{width} grid has no cells")
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
    values = (labels * step).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode()
    write_bytes_atomic(path, header + values.tobytes())
