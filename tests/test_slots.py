"""Tests for the slot-attention encoder."""

import dataclasses

import numpy as np
import pytest

from slotwalks import autodiff as ad
from slotwalks.errors import ConfigError
from slotwalks.slots import EPS_ATTN, SlotParams, attention_step, encode, gru_update, init_slots


def make_params(num_slots, input_dim, slot_dim, seed=0):
    return SlotParams.create(num_slots, input_dim=input_dim, slot_dim=slot_dim, seed=seed)


def as_value(x):
    return x.value if isinstance(x, ad.Node) else np.asarray(x)


def layer_norm_np(m, gain, bias, eps=1e-5):
    mean = m.mean(axis=1, keepdims=True)
    var = ((m - mean) ** 2).mean(axis=1, keepdims=True)
    return (m - mean) / np.sqrt(var + eps) * gain + bias


def attention_oracle(x, slots, p):
    """Direct plain-numpy evaluation of one attention round."""
    x_n = layer_norm_np(x, as_value(p.ln_x_gain), as_value(p.ln_x_bias))
    s_n = layer_norm_np(slots, as_value(p.ln_s_gain), 0.0)
    keys = x_n @ as_value(p.w_k)
    values = x_n @ as_value(p.w_v)
    queries = s_n @ as_value(p.w_q)
    logits = keys @ queries.T / np.sqrt(as_value(p.w_q).shape[1])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    guarded = attn + EPS_ATTN
    w = guarded / guarded.sum(axis=0, keepdims=True)
    return attn, w, w.T @ values


def gru_oracle(slots, updates, p):
    """Element-by-element evaluation of the three-gate update."""
    k, d = slots.shape
    wz, uz, bz = as_value(p.gru_wz), as_value(p.gru_uz), as_value(p.gru_bz)
    wr, ur, br = as_value(p.gru_wr), as_value(p.gru_ur), as_value(p.gru_br)
    wh, uh, bh = as_value(p.gru_wh), as_value(p.gru_uh), as_value(p.gru_bh)
    out = np.zeros_like(slots)
    for i in range(k):
        u, s = updates[i], slots[i]
        z = 1 / (1 + np.exp(-(u @ wz + s @ uz + bz[0])))
        r = 1 / (1 + np.exp(-(u @ wr + s @ ur + br[0])))
        h = np.tanh(u @ wh + (r * s) @ uh + bh[0])
        out[i] = (1 - z) * s + z * h
    return out


class TestShapes:
    @pytest.mark.parametrize("widths", [(3, 5, 4), (1, 1, 1)])
    def test_every_field_in_declaration_order_with_the_created_shape(self, widths):
        shapes = SlotParams.shapes(*widths)
        assert list(shapes) == [f.name for f in dataclasses.fields(SlotParams)]
        created = SlotParams.create(*widths, seed=2).named()
        assert {k: v.shape for k, v in created.items()} == shapes


class TestInitSlots:
    def test_tiny_sigma_collapses_to_mu(self):
        p = make_params(3, 4, 4)
        p = dataclasses.replace(p, log_sigma=np.full((3, 4), -30.0))
        out = as_value(init_slots(p, "train", seed=5))
        assert np.max(np.abs(out - p.mu)) <= 1e-10

    def test_eval_mode_returns_mu_exactly(self):
        p = make_params(2, 4, 6)
        assert np.array_equal(as_value(init_slots(p, "eval")), p.mu)

    def test_same_seed_bit_identical(self):
        p = make_params(4, 4, 8)
        a = as_value(init_slots(p, "train", seed=11))
        b = as_value(init_slots(p, "train", seed=11))
        assert np.array_equal(a, b)

    def test_train_mode_requires_seed(self):
        with pytest.raises(ConfigError):
            init_slots(make_params(2, 4, 4), "train")
        with pytest.raises(ConfigError):
            init_slots(make_params(2, 4, 4), "train", seed=[])

    def test_seed_list_draws_each_scene_as_alone(self):
        p = make_params(3, 4, 5)
        seeds = [(7, 0, 0), (7, 0, 1), (7, 0, 2)]
        stack = as_value(init_slots(p, "train", seed=seeds))
        assert stack.shape == (3, 3, 5)
        for i, seed in enumerate(seeds):
            assert np.array_equal(stack[i], as_value(init_slots(p, "train", seed=seed)))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            init_slots(make_params(2, 4, 4), "sample")

    def test_gradient_reaches_mu_and_log_sigma(self):
        p = make_params(2, 4, 3)
        params = {"mu": p.mu, "log_sigma": p.log_sigma}

        def make_loss(nodes):
            q = dataclasses.replace(p, mu=nodes["mu"], log_sigma=nodes["log_sigma"])
            s = init_slots(q, "train", seed=3)
            return ad.sum_all(ad.mul(s, s))

        errors = ad.check_gradients(make_loss, params)
        assert max(errors.values()) <= 1e-3


class TestAttentionStep:
    def test_single_slot_degenerate(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        p = make_params(1, 4, 4)
        state = attention_step(x, p.mu, p)
        assert np.array_equal(as_value(state.attn), np.ones((6, 1)))
        assert np.allclose(as_value(state.weights), 1.0 / 6.0, atol=1e-8)
        x_n = layer_norm_np(x, p.ln_x_gain, p.ln_x_bias)
        v = x_n @ p.w_v
        assert np.allclose(as_value(state.updates), v.mean(axis=0, keepdims=True), atol=1e-7)

    def test_matches_direct_formula_oracle(self):
        # identity projections, standardized orthogonal rows
        x = np.array([[1.0, -1.0], [-1.0, 1.0]])
        slots = np.array([[1.0, -1.0], [-1.0, 1.0]])
        p = make_params(2, 2, 2)
        p = dataclasses.replace(p, w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
        state = attention_step(x, slots, p)
        attn, w, updates = attention_oracle(x, slots, p)
        assert np.allclose(as_value(state.attn), attn, atol=1e-12)
        assert np.allclose(as_value(state.weights), w, atol=1e-12)
        assert np.allclose(as_value(state.updates), updates, atol=1e-12)

    def test_random_instance_matches_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 5))
        p = make_params(3, 5, 4, seed=2)
        slots = rng.normal(size=(3, 4))
        state = attention_step(x, slots, p)
        attn, w, updates = attention_oracle(x, slots, p)
        assert np.allclose(as_value(state.attn), attn, atol=1e-12)
        assert np.allclose(as_value(state.updates), updates, atol=1e-12)

    def test_attn_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            x = rng.normal(size=(8, 6)) * (1 + trial)
            p = make_params(4, 6, 5, seed=trial)
            state = attention_step(x, rng.normal(size=(4, 5)), p)
            sums = as_value(state.attn).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_weight_cols_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 4))
        p = make_params(3, 4, 4, seed=5)
        state = attention_step(x, rng.normal(size=(3, 4)), p)
        attn = as_value(state.attn)
        w = as_value(state.weights)
        for k in range(3):
            if attn[:, k].sum() >= 1e-6:
                assert abs(w[:, k].sum() - 1.0) <= 1e-9


class TestGruUpdate:
    def test_closed_gate_keeps_state(self):
        p = make_params(3, 4, 4, seed=6)
        p = dataclasses.replace(
            p,
            gru_wz=np.zeros((4, 4)),
            gru_uz=np.zeros((4, 4)),
            gru_bz=np.full((1, 4), -30.0),
        )
        rng = np.random.default_rng(7)
        s, u = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = as_value(gru_update(s, u, p))
        assert np.max(np.abs(out - s)) <= 1e-10

    def test_open_gate_returns_candidate(self):
        p = make_params(3, 4, 4, seed=8)
        p = dataclasses.replace(
            p,
            gru_wz=np.zeros((4, 4)),
            gru_uz=np.zeros((4, 4)),
            gru_bz=np.full((1, 4), 30.0),
        )
        rng = np.random.default_rng(9)
        s, u = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = as_value(gru_update(s, u, p))
        r = 1 / (1 + np.exp(-(u @ p.gru_wr + s @ p.gru_ur + p.gru_br)))
        h = np.tanh(u @ p.gru_wh + (r * s) @ p.gru_uh + p.gru_bh)
        assert np.max(np.abs(out - h)) <= 1e-10

    def test_random_weights_match_scalar_oracle(self):
        p = make_params(4, 5, 6, seed=10)
        rng = np.random.default_rng(11)
        s, u = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        out = as_value(gru_update(s, u, p))
        assert np.allclose(out, gru_oracle(s, u, p), atol=1e-12)


class TestEncode:
    def test_zero_iterations_returns_initial(self):
        p = make_params(3, 4, 5, seed=12)
        slots, state = encode(np.random.default_rng(13).normal(size=(7, 4)), p, 0, mode="eval")
        assert np.array_equal(as_value(slots), p.mu)
        assert state is None

    def test_one_iteration_composes_step_and_update(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6, 4))
        p = make_params(2, 4, 4, seed=15)
        slots, _ = encode(x, p, 1, mode="eval")
        state = attention_step(x, p.mu, p)
        composed = gru_update(p.mu, state.updates, p)
        assert np.array_equal(as_value(slots), as_value(composed))

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(8, 4))
        p = make_params(3, 4, 4, seed=17)
        a, _ = encode(x, p, 3, mode="train", seed=99)
        b, _ = encode(x, p, 3, mode="train", seed=99)
        assert np.array_equal(as_value(a), as_value(b))

    def test_stack_needs_one_seed_per_scene(self):
        p = make_params(2, 4, 4)
        x = np.ones((3, 5, 4))
        for seed in (0, (0, 1), [0, 1]):
            with pytest.raises(ConfigError, match="3 seeds"):
                encode(x, p, 1, mode="train", seed=seed)

    def test_stack_matches_per_scene_encodes(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 7, 4))
        p = make_params(2, 4, 6)
        seeds = [(1, 2, pos) for pos in range(3)]
        for mode, seed in (("train", seeds), ("eval", None)):
            stacked, _ = encode(x, p, 3, mode=mode, seed=seed)
            for i in range(3):
                alone, _ = encode(x[i], p, 3, mode=mode, seed=seeds[i] if seed else None)
                assert np.allclose(as_value(stacked)[i], as_value(alone), rtol=0, atol=1e-12)

    def test_negative_iterations_rejected(self):
        p = make_params(2, 4, 4)
        with pytest.raises(ConfigError):
            encode(np.ones((4, 4)), p, -1, mode="eval")

    def test_slot_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(10, 6))
        p = make_params(4, 6, 5, seed=19)
        perm = np.array([2, 0, 3, 1])
        p_perm = dataclasses.replace(p, mu=p.mu[perm], log_sigma=p.log_sigma[perm])
        base, _ = encode(x, p, 3, mode="eval")
        permuted, _ = encode(x, p_perm, 3, mode="eval")
        assert np.max(np.abs(as_value(permuted) - as_value(base)[perm])) <= 1e-10


class TestEncoderGradients:
    def test_all_parameter_groups_pass_finite_differences(self):
        """Scalar function of the encoded slots, N=12 K=3 D=8 T=2."""
        rng = np.random.default_rng(20)
        x = rng.normal(size=(12, 8))
        p = make_params(3, 8, 8, seed=21)
        weight = rng.normal(size=(3, 8))
        base = p.named()

        def make_loss(nodes):
            q = SlotParams(**nodes)
            slots, _ = encode(ad.constant(x), q, 2, mode="train", seed=(22, 0))
            return ad.sum_all(ad.mul(slots, ad.constant(weight)))

        errors = ad.check_gradients(make_loss, base)
        assert max(errors.values()) <= 1e-3, errors
