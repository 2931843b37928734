"""Segmentation metrics, optimal class matching, and k-means.

All functions are pure; masks are boolean arrays, label maps are integer
arrays. Both overlap metrics define the empty-vs-empty case as 1 so a
slot that predicts nothing against an empty ground truth does not zero
an aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError, UndefinedMetricError

_TIE_TOL = 1e-9


def _as_mask(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ShapeError(f"{name}: expected a flat mask, got shape {arr.shape}")
    return arr.astype(bool)


def miou(pred, gt) -> float:
    """Intersection over union of two binary masks; 1 when both are empty."""
    pred, gt = _as_mask(pred, "pred"), _as_mask(gt, "gt")
    if pred.shape != gt.shape:
        raise ShapeError(f"miou: mask lengths {pred.shape} and {gt.shape} differ")
    union = int(np.count_nonzero(pred | gt))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(pred & gt)) / union


def dice(pred, gt) -> float:
    """2|ab| / (|a| + |b|); 1 when both masks are empty."""
    pred, gt = _as_mask(pred, "pred"), _as_mask(gt, "gt")
    if pred.shape != gt.shape:
        raise ShapeError(f"dice: mask lengths {pred.shape} and {gt.shape} differ")
    total = int(np.count_nonzero(pred)) + int(np.count_nonzero(gt))
    if total == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(pred & gt)) / total


def _comb2(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x * (x - 1.0) / 2.0


def ari_fg(pred, gt, fg) -> float:
    """Adjusted Rand index restricted to the foreground cells.

    Uses the permutation-model adjustment on the contingency table of the
    two partitions over cells where fg is True. Degenerate cases where
    max equals expected (e.g. both partitions a single cluster) score 1.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    fg = _as_mask(fg, "fg")
    if pred.shape != gt.shape or pred.shape != fg.shape:
        raise ShapeError(
            f"ari_fg: shapes differ pred={pred.shape} gt={gt.shape} fg={fg.shape}"
        )
    if not fg.any():
        raise UndefinedMetricError("ari_fg: empty foreground mask")
    p, g = pred[fg], gt[fg]
    n = p.size
    _, pi = np.unique(p, return_inverse=True)
    _, gi = np.unique(g, return_inverse=True)
    table = np.zeros((pi.max() + 1, gi.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, gi), 1)
    if n < 2:
        return 1.0
    index = _comb2(table).sum()
    sum_rows = _comb2(table.sum(axis=1)).sum()
    sum_cols = _comb2(table.sum(axis=0)).sum()
    pairs = _comb2(np.array([n]))[0]
    expected = sum_rows * sum_cols / pairs
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0
    return float((index - expected) / (maximum - expected))


def assign_classes(score) -> list[tuple[int, int]]:
    """One-to-one partial assignment of rows to columns maximizing total score.

    Returns min(K, C) pairs sorted by row. Among equally scoring optima the
    result prefers the lowest row index, then the lowest column index,
    fixed greedily against exact solves of the remaining subproblem.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] < 1 or score.shape[1] < 1:
        raise ShapeError(f"assign_classes: expected a K x C matrix, got {score.shape}")
    bad = np.argwhere(~np.isfinite(score))
    if bad.size:
        r, c = bad[0]
        raise DegenerateInputError(f"assign_classes: score[{r}, {c}] is {score[r, c]}, not finite")
    # imported here, not at module level: scipy.optimize adds about 50 MB to a
    # process's RSS, and training never assigns classes
    from scipy.optimize import linear_sum_assignment

    def best(rows: list[int], cols: list[int]) -> float:
        if not rows or not cols:
            return 0.0
        sub = score[np.ix_(rows, cols)]
        ri, ci = linear_sum_assignment(-sub)
        return float(sub[ri, ci].sum())

    rows = list(range(score.shape[0]))
    cols = list(range(score.shape[1]))
    target = best(rows, cols)
    pairs: list[tuple[int, int]] = []
    fixed = 0.0
    for r in list(rows):
        if not cols:
            break
        rest_rows = [x for x in rows if x != r]
        chosen = None
        for c in cols:
            rest_cols = [x for x in cols if x != c]
            t = fixed + score[r, c] + best(rest_rows, rest_cols)
            if t >= target - _TIE_TOL * max(1.0, abs(target)):
                chosen = c
                break
        if chosen is None:
            # row r is unassigned in every optimal solution
            rows.remove(r)
            continue
        pairs.append((r, chosen))
        fixed += score[r, chosen]
        rows.remove(r)
        cols.remove(chosen)
    return pairs


def kmeans(
    points, k: int, seed, distortion_trace: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations with distance-weighted probabilistic seeding.

    Deterministic per seed. Stops when the largest center shift drops
    below 1e-6 or after 100 iterations; a cluster that empties is
    re-seeded to the point farthest from its assigned center. When a list
    is passed as distortion_trace, the total squared distance after every
    assignment is appended to it.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"kmeans: expected n x d points, got {points.shape}")
    n = points.shape[0]
    if not n >= k >= 1:
        raise ConfigError(f"kmeans: need n >= k >= 1, got n={n}, k={k}")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1)
        if distortion_trace is not None:
            distortion_trace.append(float(dists[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
            else:
                farthest = int(np.argmax(dists[np.arange(n), labels]))
                new_centers[j] = points[farthest]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift < 1e-6:
            break
    dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(dists, axis=1)
    return centers, labels


@dataclass
class EvalReport:
    """Per-item metric rows; the summary is their column-wise mean.

    For the per-image tasks the rows are images; for semantic
    segmentation they are per-class IoUs, so the summary averages over
    classes.
    """

    task: str
    columns: list[str]
    rows: list[tuple[str, dict[str, float]]] = field(default_factory=list)
    assignment: list[tuple[int, int]] | None = None

    def add(self, label: str, values: dict[str, float]) -> None:
        self.rows.append((label, values))

    @property
    def summary(self) -> dict[str, float]:
        return {c: float(np.mean([v[c] for _, v in self.rows])) for c in self.columns}

    def to_text(self) -> str:
        lines = [f"# task={self.task}"]
        if self.assignment is not None:
            pairs = " ".join(f"{r}->{c}" for r, c in self.assignment)
            lines.append(f"# assignment {pairs}")
        lines.append("\t".join(["item"] + self.columns))
        for label, values in self.rows:
            lines.append("\t".join([label] + [f"{values[c]:.6f}" for c in self.columns]))
        summary = self.summary
        lines.append("\t".join(["mean"] + [f"{summary[c]:.6f}" for c in self.columns]))
        return "\n".join(lines) + "\n"
