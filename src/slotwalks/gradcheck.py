"""End-to-end gradient verification of the encoder + walk-loss stack.

Builds a random instance, runs the full training loss with train-mode
slot sampling (so the gradient reaches the slot mean and log-variance),
and compares every parameter's reverse-mode gradient against central
finite differences.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .slots import encode
from .train import TrainConfig, _from_named, _init_model, _named_parameters
from .walks import total_loss

# field-name prefix -> reporting group; any other parameter reports alone
_GROUP_PREFIXES = (("w_", "qkv"), ("gru_", "gru"), ("ln_", "layer_norm"))


def full_model_errors(
    n: int,
    k: int,
    d: int,
    iterations: int = 2,
    seed: int = 0,
) -> dict[str, float]:
    """Max relative gradient error per named parameter on a random instance.

    The instance is the trainer's model with width d everywhere (features,
    slots, walk space), seeded from seed + 1, under the default
    walk config and a fixed slot-noise seed, so the loss is a
    deterministic function of the parameters. Keys are the trainer's
    parameter names, for example "slots.mu".
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    cfg = TrainConfig(
        num_slots=k, input_dim=d, slot_dim=d, walk_dim=d, iterations=iterations, seed=seed + 1
    )
    params, proj = _init_model(cfg)
    slot_seed = (seed, 12345)

    # the parts-whole-parts target is a detached supervisory signal: the
    # verified gradient is of the loss with the target's feature rows held
    # at the base point, exactly what the optimizer consumes at one step
    frozen_feats = x @ proj.p_x

    def make_loss(nodes):
        p, pr = _from_named(nodes)
        x_node = ad.constant(x)
        slots_hat, _ = encode(x_node, p, cfg.iterations, mode="train", seed=slot_seed)
        return total_loss(x_node, slots_hat, pr, cfg.walk(), pwp_frozen_feats=frozen_feats)

    return ad.check_gradients(make_loss, _named_parameters(params, proj))


def grouped_errors(errors: dict[str, float]) -> dict[str, float]:
    """Collapse per-parameter errors to their maximum per reporting group.

    A parameter's group is set by its field name, the part after the last
    ".": a prefix in _GROUP_PREFIXES names the group, any other field
    reports alone. Groups come in order of first appearance.
    """
    grouped: dict[str, float] = {}
    for name, err in errors.items():
        field = name.rpartition(".")[2]
        group = next((g for prefix, g in _GROUP_PREFIXES if field.startswith(prefix)), field)
        grouped[group] = max(grouped.get(group, 0.0), err)
    return grouped
