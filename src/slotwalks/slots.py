"""Slot attention: K latent slots compete to bind N feature vectors.

One encode runs T rounds of cross-attention followed by a gated recurrent
update. Attention logits between projected features (keys) and projected
slots (queries) are normalized first across slots at every location, so
slots compete for each location, and then across locations per slot, so
each slot pools a weighted mean of the value vectors it won.

Parameters may be held as numpy arrays or lifted to autodiff nodes
(leaves in training, constants in inference); every function here works
with either. Features may be one scene (N x D) or a stack of scenes with
equal N (B x N x D); the parameters are shared by every scene of a stack.
Slot noise comes in as an array drawn by the caller: no random stream
lives here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

# guards the per-slot pooling denominator when a slot attracts ~no attention
EPS_ATTN = 1e-8


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, ad.Node) else x


@dataclass
class SlotParams:
    """All trainable parameters of the encoder.

    mu / log_sigma parameterize the Gaussian the initial slots are drawn
    from. w_q, w_k, w_v project slots and features to the slot width,
    which is also the attention width; the six gru_* weight matrices and
    three biases implement the gated update; the ln_* rows are the
    layer-norm parameters for the feature input (gain and bias, applied
    once per encode) and for the slots (a gain only, applied before the
    query projection at every round: a slot bias would add the same logit
    to every slot at a location, which the softmax over slots cancels).
    """

    mu: Any
    log_sigma: Any
    w_q: Any
    w_k: Any
    w_v: Any
    gru_wz: Any
    gru_uz: Any
    gru_bz: Any
    gru_wr: Any
    gru_ur: Any
    gru_br: Any
    gru_wh: Any
    gru_uh: Any
    gru_bh: Any
    ln_x_gain: Any
    ln_x_bias: Any
    ln_s_gain: Any

    @staticmethod
    def shapes(num_slots: int, input_dim: int, slot_dim: int) -> dict[str, tuple[int, int]]:
        """Field name -> shape, in declaration order."""
        s, d = slot_dim, input_dim
        return {
            "mu": (num_slots, s), "log_sigma": (num_slots, s),
            "w_q": (s, s), "w_k": (d, s), "w_v": (d, s),
            "gru_wz": (s, s), "gru_uz": (s, s), "gru_bz": (1, s),
            "gru_wr": (s, s), "gru_ur": (s, s), "gru_br": (1, s),
            "gru_wh": (s, s), "gru_uh": (s, s), "gru_bh": (1, s),
            "ln_x_gain": (1, d), "ln_x_bias": (1, d), "ln_s_gain": (1, s),
        }

    @classmethod
    def create(
        cls,
        num_slots: int,
        input_dim: int,
        slot_dim: int = 256,
        seed: int = 0,
    ) -> "SlotParams":
        """Deterministic initialization from a seed, field by field in declaration order.

        mu is scaled-normal (1/sqrt(slot_dim)) and log_sigma starts at -1,
        so the initial slot noise is well below the spread of mu. The
        w_* and gru_w*/gru_u* weight matrices are scaled-normal
        (1/sqrt(fan_in)), layer-norm gains one, biases zero. The rule is
        chosen by name, never by shape, since any width may be 1.
        """
        if num_slots < 1 or input_dim < 1 or slot_dim < 1:
            raise ConfigError(
                f"SlotParams.create: bad shape num_slots={num_slots},"
                f" input_dim={input_dim}, slot_dim={slot_dim}"
            )
        rng = np.random.default_rng(seed)
        fields = {}
        for name, shape in cls.shapes(num_slots, input_dim, slot_dim).items():
            if name == "mu":
                fields[name] = rng.normal(size=shape) / math.sqrt(slot_dim)
            elif name == "log_sigma":
                fields[name] = np.full(shape, -1.0)
            elif name.startswith(("w_", "gru_w", "gru_u")):
                fields[name] = rng.normal(size=shape) / math.sqrt(shape[0])
            else:
                fields[name] = np.ones(shape) if name.endswith("_gain") else np.zeros(shape)
        return cls(**fields)

    @property
    def num_slots(self) -> int:
        return _value(self.mu).shape[0]

    @property
    def slot_dim(self) -> int:
        return _value(self.mu).shape[1]

    @property
    def input_dim(self) -> int:
        return _value(self.w_k).shape[0]

    def named(self) -> dict[str, Any]:
        """Field name -> value, in declaration order."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def lift(self, make: Callable[[Any], ad.Node]) -> "SlotParams":
        """Copy with every field wrapped by `make`: `ad.leaf` to train, `ad.constant` to evaluate."""
        return dataclasses.replace(self, **{k: make(v) for k, v in self.named().items()})


@dataclass
class SlotState:
    """Intermediate state of one attention round.

    attn rows (locations) sum to 1 over the slots; weights columns sum
    to 1 over locations up to the EPS_ATTN guard; updates holds the
    pooled value vectors, one row per slot.
    """

    slots: Any
    attn: Any
    weights: Any
    updates: Any


def init_slots(params: SlotParams, noise=None):
    """Initial slots: mu exactly when noise is None, else mu + exp(log_sigma) * noise.

    noise is standard normal, K x d or a B x K x d stack (one per scene);
    the draw is reparameterized, so gradients reach both mu and log_sigma.
    """
    if noise is None:
        return params.mu
    return ad.add(params.mu, ad.mul(ad.exp(params.log_sigma), ad.constant(noise)))


def _attend(keys, values, slots, params: SlotParams) -> SlotState:
    """One attention round given precomputed keys/values."""
    s_norm = ad.layer_norm_rows(slots, params.ln_s_gain)
    queries = ad.matmul(s_norm, params.w_q)
    logits = ad.mul(ad.matmul(keys, ad.transpose(queries)), 1.0 / math.sqrt(params.slot_dim))
    attn = ad.softmax_rows(logits, 1.0)
    n = _value(attn).shape[-2]
    # the guard keeps an all-unattended slot from dividing by ~0 while the
    # normalization stays exactly column-stochastic
    guarded = ad.add(attn, EPS_ATTN)
    col_sums = ad.matmul(ad.constant(np.ones((1, n))), guarded)
    weights = ad.div(guarded, col_sums)
    updates = ad.matmul(ad.transpose(weights), values)
    return SlotState(slots=slots, attn=attn, weights=weights, updates=updates)


def _project_features(x, params: SlotParams):
    x_norm = ad.add(ad.layer_norm_rows(x, params.ln_x_gain), params.ln_x_bias)
    return ad.matmul(x_norm, params.w_k), ad.matmul(x_norm, params.w_v)


def attention_step(x, slots, params: SlotParams) -> SlotState:
    """Single attention round on raw features (layer-norms them first)."""
    keys, values = _project_features(x, params)
    return _attend(keys, values, slots, params)


def gru_update(slots, updates, params: SlotParams):
    """Gated recurrent update applied independently to each slot row.

    z = logistic(u Wz + s Uz + bz), r = logistic(u Wr + s Ur + br),
    h = tanh(u Wh + (r*s) Uh + bh), s' = (1-z)*s + z*h.
    """
    def gate(w, u, b, state):
        return ad.add(ad.add(ad.matmul(updates, w), ad.matmul(state, u)), b)

    z = ad.sigmoid(gate(params.gru_wz, params.gru_uz, params.gru_bz, slots))
    r = ad.sigmoid(gate(params.gru_wr, params.gru_ur, params.gru_br, slots))
    h = ad.tanh(gate(params.gru_wh, params.gru_uh, params.gru_bh, ad.mul(r, slots)))
    one_minus_z = ad.add(ad.mul(z, -1.0), 1.0)
    return ad.add(ad.mul(one_minus_z, slots), ad.mul(z, h))


def encode(x, params: SlotParams, iterations: int, noise=None):
    """Run the encoder for `iterations` rounds; returns (slots, last state).

    x is one scene (N x D) or a stack (B x N x D), and noise goes to
    init_slots as it is. The feature layer-norm and key/value projections
    are computed once per encode. With iterations == 0 the initial slots
    are returned unchanged and the state is None.
    """
    if iterations < 0:
        raise ConfigError(f"encode: iterations must be >= 0, got {iterations}")
    slots = init_slots(params, noise)
    state: SlotState | None = None
    if iterations > 0:
        keys, values = _project_features(x, params)
        for _ in range(iterations):
            state = _attend(keys, values, slots, params)
            slots = gru_update(slots, state.updates, params)
    return slots, state
