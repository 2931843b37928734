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
shared walk space of width `dim`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

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
    dim: int = 128

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
        if self.dim < 1:
            raise ConfigError(f"WalkConfig: dim must be >= 1, got {self.dim}")


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


def adjacency(slots_p, feats_p, tau: float) -> tuple[ad.Node, ad.Node]:
    """Both walk transition matrices, from one cosine matrix (the walk kernel).

    Each input is l2-normalized per row once, S holds the K x N cosine
    similarities, and the result is (m_sx, m_xs) = (softmax_rows(S / tau),
    softmax_rows(S^T / tau)): slots -> features and features -> slots.
    """
    sims = ad.matmul(ad.l2_normalize_rows(slots_p), ad.transpose(ad.l2_normalize_rows(feats_p)))
    return ad.softmax_rows(sims, tau), ad.softmax_rows(ad.transpose(sims), tau)


def wpw_loss(m_sx, m_xs) -> ad.Node:
    """Cross entropy of the whole->parts->whole round trip m_sx m_xs against the identity."""
    round_trip = ad.matmul(m_sx, m_xs)
    k = round_trip.value.shape[0]
    return ad.cross_entropy_rows(round_trip, ad.constant(np.eye(k)))


def pwp_target(feats_p, gamma: float) -> np.ndarray:
    """Thresholded feature-feature correspondence target (plain array, no gradient).

    Pairwise cosine similarities at or below gamma are excluded; the
    survivors are row-softmaxed at temperature 1. The diagonal always
    survives because every row has cosine 1 with itself, which is why
    gamma must stay below 1.
    """
    if not gamma < 1.0:
        raise ConfigError(
            f"pwp_target: gamma must be < 1 so self-similarity survives, got {gamma}"
        )
    f = ad.l2_normalize_rows(feats_p).value
    sims = f @ f.T
    logits = np.where(sims <= gamma, -np.inf, sims)
    # self-similarity is exactly 1 mathematically; keep the diagonal even
    # when rounding drops it a few ulps below a gamma chosen right at 1
    np.fill_diagonal(logits, np.diag(sims))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def pwp_loss(m_sx, m_xs, target: np.ndarray) -> ad.Node:
    """Cross entropy of the parts->whole->parts round trip m_xs m_sx against the target.

    The target carries no gradient. In training `total_loss` recomputes it
    from the current feats_p (the supervisory signal tracks the projection
    as it moves, step by step); finite-difference verification of a single
    step holds it fixed instead.
    """
    return ad.cross_entropy_rows(ad.matmul(m_xs, m_sx), ad.constant(target))


def total_loss(
    x,
    slots_hat,
    proj: WalkProjection,
    cfg: WalkConfig,
    pwp_frozen_target: np.ndarray | None = None,
) -> ad.Node:
    """Weighted sum alpha * wpw + beta * pwp on projected inputs.

    Both round trips read the same two walk matrices, built once. A term
    whose coefficient is 0 is never evaluated, which is what the
    single-direction ablations rely on. The pwp target is computed from
    the projected features unless `pwp_frozen_target` is given.
    """
    feats_p = ad.matmul(x, proj.p_x)
    slots_p = ad.matmul(slots_hat, proj.p_s)
    m_sx, m_xs = adjacency(slots_p, feats_p, cfg.tau)
    terms: list[ad.Node] = []
    if cfg.alpha > 0.0:
        terms.append(ad.mul(wpw_loss(m_sx, m_xs), cfg.alpha))
    if cfg.beta > 0.0:
        target = pwp_target(feats_p, cfg.gamma) if pwp_frozen_target is None else pwp_frozen_target
        terms.append(ad.mul(pwp_loss(m_sx, m_xs, target), cfg.beta))
    return functools.reduce(ad.add, terms)
