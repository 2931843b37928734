"""End-to-end gradient verification of the encoder + walk-loss stack.

Builds a random instance, runs the full training loss with train-mode
slot sampling (so the gradient reaches the slot mean and log-variance),
and compares every parameter's reverse-mode gradient against central
finite differences.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .slots import SlotParams, encode
from .walks import WalkConfig, WalkProjection, pwp_target, total_loss

_SLOT_FIELDS = tuple(f.name for f in dataclasses.fields(SlotParams))
_PROJ_FIELDS = tuple(f.name for f in dataclasses.fields(WalkProjection))

# field-name prefix -> reporting group; any other parameter reports alone
_GROUP_PREFIXES = (("w_", "qkv"), ("gru_", "gru"), ("ln_", "layer_norm"))

# parameter name -> reporting group
PARAM_GROUPS = {
    name: next((group for prefix, group in _GROUP_PREFIXES if name.startswith(prefix)), name)
    for name in _SLOT_FIELDS + _PROJ_FIELDS
}

GROUP_ORDER = ("mu", "log_sigma", "qkv", "gru", "layer_norm", "p_x", "p_s")


def full_model_errors(
    n: int,
    k: int,
    d: int,
    iterations: int = 2,
    tau: float = 0.1,
    gamma: float = 0.7,
    alpha: float = 1.0,
    beta: float = 1.0,
    seed: int = 0,
    fd_step: float = 1e-5,
) -> dict[str, float]:
    """Max relative gradient error per parameter on a random instance.

    The instance uses width d everywhere (features, slots, attention,
    walk space) and a fixed slot-noise seed so the loss is a
    deterministic function of the parameters.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    params = SlotParams.create(k, input_dim=d, slot_dim=d, seed=seed + 1)
    proj = WalkProjection.create(input_dim=d, slot_dim=d, dim=d, seed=seed + 2)
    cfg = WalkConfig(tau=tau, gamma=gamma, alpha=alpha, beta=beta, dim=d)
    slot_seed = (seed, 12345)

    base = dict(params.named())
    base.update(proj.named())

    # the parts-whole-parts target is a detached supervisory signal: the
    # verified gradient is of the loss with the target held at the base
    # point, exactly what the optimizer consumes at one step
    frozen_target = None
    if beta > 0.0:
        frozen_target = pwp_target(ad.matmul(ad.constant(x), proj.p_x), gamma)

    def make_loss(nodes):
        p = SlotParams(**{f: nodes[f] for f in _SLOT_FIELDS})
        pr = WalkProjection(**{f: nodes[f] for f in _PROJ_FIELDS})
        x_node = ad.constant(x)
        slots_hat, _ = encode(x_node, p, iterations, mode="train", seed=slot_seed)
        return total_loss(x_node, slots_hat, pr, cfg, pwp_frozen_target=frozen_target)

    return ad.check_gradients(make_loss, base, step=fd_step)


def grouped_errors(errors: dict[str, float]) -> dict[str, float]:
    """Collapse per-parameter errors into the reporting groups, in order."""
    grouped = ad.max_group_errors(errors, PARAM_GROUPS)
    return {g: grouped[g] for g in GROUP_ORDER if g in grouped}
