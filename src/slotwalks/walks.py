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

    gamma may be -inf (no threshold) or a finite value in (-1, 1); alpha
    weights the whole-parts-whole term and beta the parts-whole-parts term.
    """

    tau: float = 0.1
    gamma: float = 0.7
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ConfigError(f"WalkConfig: tau must be positive, got {self.tau}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigError(
                f"WalkConfig: negative loss coefficient alpha={self.alpha}, beta={self.beta}"
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

    @classmethod
    def create(cls, input_dim: int, slot_dim: int, dim: int, seed: int = 0) -> "WalkProjection":
        rng = np.random.default_rng(seed)
        return cls(
            p_x=rng.normal(size=(input_dim, dim)) / math.sqrt(input_dim),
            p_s=rng.normal(size=(slot_dim, dim)) / math.sqrt(slot_dim),
        )

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
    if not np.all(np.abs((f * f).sum(axis=-1) - 1.0) <= _UNIT_TOL):
        f = ad.l2_normalize_rows(f).value
    return f


def pwp_target(feats, gamma: float, rows: slice | None = None) -> np.ndarray:
    """Thresholded feature-feature correspondence target (plain array, no gradient).

    Rows are l2-normalized first, unless they already have unit norm (the
    third output of `adjacency`), so f f^T are the pairwise cosine
    similarities. Similarities at or below gamma are excluded; the
    survivors are row-softmaxed at temperature 1. The diagonal always
    survives because every row has cosine 1 with itself, which is why
    gamma must stay below 1.

    `rows` builds only that block of rows of each target, for a caller
    that walks the target block by block (`pwp_loss`); such a caller
    passes an array of unit rows, which is used as given, unchecked.
    """
    if not gamma < 1.0:
        raise ConfigError(
            f"pwp_target: gamma must be < 1 so self-similarity survives, got {gamma}"
        )
    if rows is None:
        f, rows = _unit_rows(feats, "pwp_target features"), slice(None)
    else:
        f = feats
    start, stop, _ = rows.indices(f.shape[-2])
    # every step after the product works in place on the block
    cos = f[..., start:stop, :] @ np.swapaxes(f, -1, -2)
    keep = cos > gamma
    # self-similarity is exactly 1 mathematically; keep the diagonal even
    # when rounding drops it a few ulps below a gamma chosen right at 1
    cells = np.arange(stop - start)
    keep[..., cells, start + cells] = True
    # cosines are at most 1, so exp needs no shift by the row max
    np.exp(cos, out=cos)
    cos *= keep
    cos /= cos.sum(axis=-1, keepdims=True)
    return cos


def _round_trip_loss(a: ad.Node, b: ad.Node, target_rows: Callable[[slice], np.ndarray]) -> ad.Node:
    """Clamped cross entropy of the round trip a b against a target, one block of rows at a time.

    The loss is the mean over rows of -sum_j q_ij log (a b)_ij, summed over
    a stack; `target_rows(rows)` returns that block of q's rows at the
    block's full shape. The same blocks of `_BLOCK_ROWS` rows carry the
    whole computation: the round-trip rows, their clamped cross entropy
    (clamp and snap as in `autodiff.cross_entropy_rows`) and, because the
    loss is a scalar, both gradients, which the vjps only scale. So
    nothing of the round trip's size outlives one block. The value equals
    `cross_entropy_rows(matmul(a, b), q)` up to the order of summation.
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
        q = target_rows(rows)
        a_r = av[..., rows, :]
        p = a_r @ bv
        pc = ad._clamped(p)
        interior = (p > ad.LOG_CLAMP) & (pc < 1.0)
        total += np.vdot(q, np.log(pc, out=p))
        # d(sum q log pc) / dp is q / pc where the clamp is inactive, else 0
        g = np.divide(q, pc, out=pc)
        g *= interior
        d_a[..., rows, :] = g @ b_t
        d_b += np.swapaxes(a_r, -1, -2) @ g
    out = np.array([[-total / n]])
    return ad.Node(
        out,
        (a, b),
        (lambda g: d_a * (-g[0, 0] / n), lambda g: d_b * (-g[0, 0] / n)),
    )


def wpw_loss(m_sx, m_xs) -> ad.Node:
    """Cross entropy of the whole->parts->whole round trip m_sx m_xs against the identity."""
    m_sx, m_xs = ad._as_node(m_sx, "m_sx"), ad._as_node(m_xs, "m_xs")
    lead, eye = m_sx.value.shape[:-2], np.eye(m_sx.value.shape[-2])
    # the kernel reads target rows at the block's full shape; a broadcast view copies nothing
    return _round_trip_loss(m_sx, m_xs, lambda rows: np.broadcast_to(eye[rows], lead + eye[rows].shape))


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
