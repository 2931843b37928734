"""Two-hop walk losses tying slot vectors ("whole") to feature vectors ("parts").

A walk between two node sets is a row-stochastic adjacency matrix of
temperature-softmaxed cosine similarities; both directions come from one
slot-feature cosine matrix (`adjacency`). Training asks two round trips
to be consistent:

* whole -> parts -> whole: the composed K x K transition should be the
  identity, so each slot must own a distinct region of the features;
* parts -> whole -> parts: the composed N x N transition should match the
  thresholded feature-feature correspondence target, so together the
  slots must cover everything the features consider similar.

Both node sets are first mapped by trainable linear projections into a
shared walk space of width W. Every function here also takes a stack
of scenes with equal N (B x K x W slots, B x N x W features) and then
returns one matrix per scene, or a loss summed over the scenes.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

_NO_THRESHOLD = float("-inf")


@dataclass(frozen=True)
class WalkConfig:
    """Hyperparameters of the walk losses.

    tau is finite and positive; gamma may be -inf (no threshold) or a
    finite value in (-1, 1); alpha weights the whole-parts-whole term and
    beta the parts-whole-parts term, both finite and non-negative.
    """

    tau: float = 0.1
    gamma: float = 0.7
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        # the chained comparisons also refuse NaN, which compares False
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"WalkConfig: tau must be finite and positive, got {self.tau}")
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ConfigError(
                "WalkConfig: loss coefficients must be finite and non-negative,"
                f" got alpha={self.alpha}, beta={self.beta}"
            )
        if self.alpha + self.beta <= 0.0:
            raise ConfigError("WalkConfig: alpha + beta must be positive")
        if self.gamma != _NO_THRESHOLD and not (-1.0 < self.gamma < 1.0):
            raise ConfigError(
                f"WalkConfig: gamma must be -inf or inside (-1, 1), got {self.gamma}"
            )


@dataclass
class WalkProjection:
    """Trainable linear maps taking features and slots into the walk space."""

    p_x: Any
    p_s: Any

    @staticmethod
    def shapes(input_dim: int, slot_dim: int, dim: int) -> dict[str, tuple[int, int]]:
        """Field name -> shape, in declaration order."""
        return {"p_x": (input_dim, dim), "p_s": (slot_dim, dim)}

    @classmethod
    def create(cls, input_dim: int, slot_dim: int, dim: int, seed: int = 0) -> "WalkProjection":
        """Scaled-normal (1/sqrt(fan_in)) maps, drawn in declaration order."""
        rng = np.random.default_rng(seed)
        shapes = cls.shapes(input_dim, slot_dim, dim)
        return cls(**{k: rng.normal(size=shape) / math.sqrt(shape[0]) for k, shape in shapes.items()})

    def named(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def lift(self, make: Callable[[Any], ad.Node]) -> "WalkProjection":
        """Copy with every field wrapped by `make`: `ad.leaf` to train, `ad.constant` to evaluate."""
        return dataclasses.replace(self, **{k: make(v) for k, v in self.named().items()})


def adjacency(slots_p, feats_p, tau: float) -> tuple[ad.Node, ad.Node, ad.Node]:
    """Both walk transition matrices, from one cosine matrix (the walk kernel).

    Each input is l2-normalized per row once, S holds the K x N cosine
    similarities, and the result is (m_sx, m_xs, feats_n) = (softmax_rows(S
    / tau), softmax_rows(S^T / tau), the unit feature rows): slots ->
    features, features -> slots, and the rows `pwp_target` takes.
    """
    feats_n = ad.l2_normalize_rows(feats_p)
    sims = ad.matmul(ad.l2_normalize_rows(slots_p), ad.transpose(feats_n))
    return ad.softmax_rows(sims, tau), ad.softmax_rows(ad.transpose(sims), tau), feats_n


# rounding leaves an l2-normalized row's squared norm this close to 1
_UNIT_TOL = 1e-9

# rows per block of a round-trip loss: nothing of size N x N is held at
# once, only one block of rows across the whole stack
_BLOCK_ROWS = 32


def _unit_rows(feats, name: str) -> np.ndarray:
    """The rows of feats as an array, l2-normalized unless they already have unit norm."""
    f = feats.value if isinstance(feats, ad.Node) else ad.as_matrix(feats, name)
    if not np.all(np.abs(np.einsum("...i,...i->...", f, f) - 1.0) <= _UNIT_TOL):
        f = ad.l2_normalize_rows(f).value
    return f


def pwp_target(
    feats, gamma: float, rows: slice | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Thresholded feature-feature correspondence target (plain arrays, no gradient).

    Rows are l2-normalized first, unless they already have unit norm (the
    third output of `adjacency`), so f f^T are the pairwise cosine
    similarities. Similarities at or below gamma are excluded; the
    survivors are row-softmaxed at temperature 1. The diagonal always
    survives because every row has cosine 1 with itself, which is why
    gamma must stay below 1.

    `rows` builds only that block of rows of each target, for a caller
    that walks the target block by block (`pwp_loss`); such a caller
    passes an array of unit rows, which is used as given, unchecked. The
    block comes back sparse, as `(cells, q)`: the flat indices of its
    surviving entries within the block's full `(..., rows, N)` shape, in
    row order, and their probabilities. Every other entry is exactly 0.
    Without `rows` the result is the dense target, those cells scattered
    into zeros.
    """
    if not gamma < 1.0:
        raise ConfigError(
            f"pwp_target: gamma must be < 1 so self-similarity survives, got {gamma}"
        )
    dense = rows is None
    if dense:
        f, rows = _unit_rows(feats, "pwp_target features"), slice(None)
    else:
        f = feats
    n = f.shape[-2]
    start, stop, _ = rows.indices(n)
    cos = f[..., start:stop, :] @ np.swapaxes(f, -1, -2)
    keep = cos > gamma
    # self-similarity is exactly 1 mathematically; keep the diagonal even
    # when rounding drops it a few ulps below a gamma chosen right at 1
    diag = np.arange(stop - start)
    keep[..., diag, start + diag] = True
    cells = np.flatnonzero(keep)
    # cosines are at most 1, so exp needs no shift by the row max
    q = np.exp(cos.reshape(-1)[cells])
    # cells run in row order and every row holds its diagonal, so row i's
    # run is nonempty and lies between the first cells at or past flat
    # indices i N and (i + 1) N
    bounds = np.searchsorted(cells, np.arange(0, cos.size + 1, n))
    q /= np.repeat(np.add.reduceat(q, bounds[:-1]), bounds[1:] - bounds[:-1])
    if not dense:
        return cells, q
    out = np.zeros_like(cos)
    out.reshape(-1)[cells] = q
    return out


# round-trip probabilities this small are clamped before any log
LOG_CLAMP = 1e-12

# round-trip probabilities this close to 1 are treated as exactly 1 inside the log
ONE_SNAP = 1e-9


def _clamped(p: np.ndarray) -> np.ndarray:
    """A copy of p clamped to [LOG_CLAMP, 1], with entries within ONE_SNAP of 1 set to 1."""
    pc = np.clip(p, LOG_CLAMP, 1.0)
    pc[pc >= 1.0 - ONE_SNAP] = 1.0
    return pc


def _round_trip_loss(
    a: ad.Node, b: ad.Node, target_rows: Callable[[slice], tuple[np.ndarray, np.ndarray]]
) -> ad.Node:
    """Clamped cross entropy of the round trip a b against a target, one block of rows at a time.

    The loss is the mean over rows of -sum_j q_ij log (a b)_ij, summed over
    a stack; `target_rows(rows)` returns that block of q sparse, as
    `(cells, q)`: the flat indices of its nonzero entries within the
    block's full `(..., rows, N)` shape and their values. The same blocks
    of `_BLOCK_ROWS` rows carry the whole computation: the round-trip
    rows, then, on the target's cells only, their clamped cross entropy
    and the gradient with respect to them, which is scattered back to the
    block's shape for both input gradients. The loss is a scalar, so the
    vjps only scale those gradients, and nothing of the round trip's size
    outlives one block. The value equals the dense cross entropy of the
    whole product a b against q up to the order of summation: an entry
    where q is 0 adds nothing to the loss or to either gradient.
    Before the log the probabilities pass through `_clamped`, and the
    gradient is 0 where it changed them: a one-hot target then scores
    non-negative and a numerically perfect round trip exactly zero.
    """
    av, bv = a.value, b.value
    n = av.shape[-2]
    if av.shape[:-2] != bv.shape[:-2] or bv.shape[-2:] != (av.shape[-1], n):
        raise ShapeError(f"round trip of {av.shape} and {bv.shape}: not one walk pair")
    d_a, d_b = np.empty_like(av), np.zeros_like(bv)
    b_t = np.swapaxes(bv, -1, -2)
    total = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        cells, q = target_rows(rows)
        a_r = av[..., rows, :]
        p = a_r @ bv
        # a fresh product is contiguous, so flat is a view of p
        flat = p.reshape(-1)
        pq = flat[cells]
        pc = _clamped(pq)
        interior = (pq > LOG_CLAMP) & (pc < 1.0)
        total += np.dot(q, np.log(pc, out=pq))
        # d(sum q log pc) / dp is q / pc where the clamp is inactive, else 0
        g = np.divide(q, pc, out=pc)
        g *= interior
        # p's buffer now holds G: g at the target's cells, 0 elsewhere
        flat.fill(0.0)
        flat[cells] = g
        d_a[..., rows, :] = p @ b_t
        d_b += np.swapaxes(a_r, -1, -2) @ p
    out = np.array([[-total / n]])
    return ad.Node(
        out,
        (a, b),
        (lambda g: d_a * (-g[0, 0] / n), lambda g: d_b * (-g[0, 0] / n)),
    )


def wpw_loss(m_sx, m_xs) -> ad.Node:
    """Cross entropy of the whole->parts->whole round trip m_sx m_xs against the identity."""
    m_sx, m_xs = ad._as_node(m_sx, "m_sx"), ad._as_node(m_xs, "m_xs")
    k = m_sx.value.shape[-2]
    stack = math.prod(m_sx.value.shape[:-2])

    def diagonal(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        start, stop, _ = rows.indices(k)
        block = np.arange(stop - start)
        # row i of the block, in every scene, keeps only column start + i
        stacked_rows = np.arange(stack)[:, None] * block.size + block
        cells = (stacked_rows * k + start + block).ravel()
        return cells, np.ones(cells.size)

    return _round_trip_loss(m_sx, m_xs, diagonal)


def pwp_loss(m_sx, m_xs, feats, gamma: float) -> ad.Node:
    """Cross entropy of the parts->whole->parts round trip m_xs m_sx against the target.

    The target is `pwp_target(feats, gamma)`, built `_BLOCK_ROWS` rows at a
    time, and carries no gradient. In training `total_loss` passes the
    current unit feature rows (the supervisory signal tracks the
    projection as it moves, step by step); finite-difference verification
    of a single step passes feature rows held fixed instead.
    """
    m_sx, m_xs = ad._as_node(m_sx, "m_sx"), ad._as_node(m_xs, "m_xs")
    f = _unit_rows(feats, "pwp_loss features")
    if f.shape[:-1] != m_xs.value.shape[:-1]:
        raise ShapeError(f"pwp_loss: features {f.shape} do not fit m_xs {m_xs.value.shape}")
    return _round_trip_loss(m_xs, m_sx, lambda rows: pwp_target(f, gamma, rows))


def total_loss(
    x,
    slots_hat,
    proj: WalkProjection,
    cfg: WalkConfig,
    pwp_frozen_feats: np.ndarray | None = None,
) -> ad.Node:
    """Weighted sum alpha * wpw + beta * pwp on projected inputs.

    Both round trips read the same two walk matrices, built once. A term
    whose coefficient is 0 is never evaluated, which is what the
    single-direction ablations rely on. The pwp target is computed from
    the kernel's unit feature rows unless `pwp_frozen_feats` is given.
    For a stack of scenes the loss is the sum of the per-scene losses.
    """
    feats_p = ad.matmul(x, proj.p_x)
    slots_p = ad.matmul(slots_hat, proj.p_s)
    m_sx, m_xs, feats_n = adjacency(slots_p, feats_p, cfg.tau)
    terms: list[ad.Node] = []
    if cfg.alpha > 0.0:
        terms.append(ad.mul(wpw_loss(m_sx, m_xs), cfg.alpha))
    if cfg.beta > 0.0:
        feats = feats_n if pwp_frozen_feats is None else pwp_frozen_feats
        pwp = pwp_loss(m_sx, m_xs, feats, cfg.gamma)
        terms.append(ad.mul(pwp, cfg.beta))
    return functools.reduce(ad.add, terms)
