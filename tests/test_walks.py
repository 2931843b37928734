"""Tests for adjacency construction, the two walk losses, and the dense cross entropy they are checked against."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotwalks import autodiff as ad
from slotwalks import walks
from slotwalks.errors import ConfigError, DegenerateInputError, ShapeError
from slotwalks.gradcheck import full_model_errors, grouped_errors
from slotwalks.walks import WalkConfig, WalkProjection, adjacency, pwp_loss, pwp_target, total_loss, wpw_loss


def adjacency_oracle(a, b, tau):
    """Explicit normalize -> dot -> softmax evaluation."""
    an = a / np.linalg.norm(a, axis=1, keepdims=True)
    bn = b / np.linalg.norm(b, axis=1, keepdims=True)
    logits = an @ bn.T / tau
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pwp_target_oracle(x, gamma):
    """Mask-then-softmax with explicit loops."""
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    f = xn @ xn.T
    n = f.shape[0]
    out = np.zeros_like(f)
    for i in range(n):
        survivors = [j for j in range(n) if f[i, j] > gamma]
        logits = np.array([f[i, j] for j in survivors])
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        for j, pj in zip(survivors, p):
            out[i, j] = pj
    return out


def cross_entropy_oracle(p, q):
    rows, cols = p.shape
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            total += q[i, j] * np.log(max(p[i, j], 1e-12))
    return -total / rows


def clamped(p):
    """A copy of p clamped to [LOG_CLAMP, 1], with entries within ONE_SNAP of 1 set to 1."""
    pc = np.clip(p, walks.LOG_CLAMP, 1.0)
    pc[pc >= 1.0 - walks.ONE_SNAP] = 1.0
    return pc


def cross_entropy_rows(pred, target) -> ad.Node:
    """Dense reference of the round-trip kernel: mean over rows of -sum_j target_ij log(pred_ij), summed over a stack.

    pred is n x m or a stack of them; the loss is the sum over the stack of
    each matrix's row mean, so it stays 1 x 1. target is a fixed array of
    pred's shape or one that broadcasts to it, such as one eye(m) for
    every matrix; only pred gets a gradient. Before the log, pred is
    clamped and snapped as the kernel does, and the gradient is 0 where
    that changed an entry.
    """
    pred = ad._as_node(pred, "pred")
    p, q = pred.value, ad.as_matrix(target, "target")
    rows = p.shape[-2]
    logp = clamped(p)
    np.log(logp, out=logp)
    total = np.vdot(q, logp) if q.shape == p.shape else (q * logp).sum()
    out = np.array([[-total / rows]])

    def vjp_pred(g):
        grad = clamped(p)
        interior = (p > walks.LOG_CLAMP) & (grad < 1.0)
        np.divide(q, grad, out=grad)
        grad *= interior
        grad *= -g[0, 0] / rows
        return grad

    return ad.Node(out, (pred,), (vjp_pred,))


class TestCrossEntropyRows:
    """The dense reference itself, against loops, closed forms and finite differences."""

    def test_identity_rows_zero(self):
        eye = np.eye(4)
        assert cross_entropy_rows(eye, eye).value[0, 0] == 0.0

    def test_uniform_vs_onehot_ln2(self):
        p = np.full((1, 2), 0.5)
        q = np.array([[1.0, 0.0]])
        out = cross_entropy_rows(p, q).value[0, 0]
        assert abs(out - np.log(2.0)) <= 1e-12

    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(5), size=4)
        q = rng.dirichlet(np.ones(5), size=4)
        out = cross_entropy_rows(p, q).value[0, 0]
        assert abs(out - cross_entropy_oracle(p, q)) <= 1e-12

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6), size=3)
            q = rng.dirichlet(np.ones(6), size=3)
            self_ce = cross_entropy_rows(p, p).value[0, 0]
            cross_ce = cross_entropy_rows(q, p).value[0, 0]
            assert self_ce <= cross_ce + 1e-12

    def test_cross_entropy_sums_the_row_means_of_each_matrix(self):
        rng = np.random.default_rng(22)
        p = rng.dirichlet(np.ones(3), size=(2, 3))
        q = rng.dirichlet(np.ones(3), size=(2, 3))
        out = cross_entropy_rows(p, q).value
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - sum(cross_entropy_oracle(p[i], q[i]) for i in range(2))) <= 1e-12
        shared = cross_entropy_rows(p, np.eye(3)).value[0, 0]
        assert abs(shared - sum(cross_entropy_oracle(p[i], np.eye(3)) for i in range(2))) <= 1e-12

    def test_pred_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        params = {"logits": rng.normal(size=(3, 4))}
        q = ad.softmax_rows(rng.normal(size=(3, 4)), 1.0).value

        def make_loss(nodes):
            return cross_entropy_rows(ad.softmax_rows(nodes["logits"], 1.0), q)

        errors = ad.check_gradients(make_loss, params)
        assert max(errors.values()) <= 1e-3, errors


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    lead=st.sampled_from([(), (1,), (2,), (3,)]),
    shared_target=st.booleans(),
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cross_entropy_matches_finite_differences_in_pred(lead, shared_target, rows, cols, seed):
    # the target is held fixed; a shared one is a single matrix for the whole stack
    rng = np.random.default_rng(seed)
    q_lead = () if shared_target else lead
    params = {"p": rng.normal(size=lead + (rows, cols))}
    q = ad.softmax_rows(rng.normal(size=q_lead + (rows, cols)), 1.0).value

    def make_loss(nodes):
        return cross_entropy_rows(ad.softmax_rows(nodes["p"], 1.0), q)

    assert max(ad.check_gradients(make_loss, params).values()) <= 1e-3


def test_projection_shapes_name_every_field_in_declaration_order():
    shapes = WalkProjection.shapes(input_dim=6, slot_dim=5, dim=4)
    assert list(shapes) == [f.name for f in dataclasses.fields(WalkProjection)]
    created = WalkProjection.create(input_dim=6, slot_dim=5, dim=4, seed=13).named()
    assert {k: v.shape for k, v in created.items()} == shapes


class TestWalkConfig:
    def test_defaults_valid(self):
        cfg = WalkConfig()
        assert cfg.tau == 0.1 and cfg.gamma == 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": -0.5},
            {"alpha": -1.0},
            {"alpha": 0.0, "beta": 0.0},
            {"gamma": 1.0},
            {"gamma": 1.5},
            {"gamma": -2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WalkConfig(**kwargs)

    def test_no_threshold_sentinel_allowed(self):
        assert WalkConfig(gamma=float("-inf")).gamma == float("-inf")


class TestAdjacency:
    def test_single_matching_vector(self):
        v = np.array([[0.6, 0.8]])
        assert all(m.value[0, 0] == 1.0 for m in adjacency(v, v, 0.1)[:2])

    def test_matching_vs_orthogonal_mass(self):
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = adjacency(a, b, 0.05)[0].value  # the one row of a walks to b
        closed_form = np.exp(20.0) / (np.exp(20.0) + 1.0)
        assert out[0, 0] >= 1.0 - 2.1e-9
        assert abs(out[0, 0] - closed_form) <= 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        m_ab, m_ba, _ = adjacency(a, b, 0.3)
        assert np.allclose(m_ab.value, adjacency_oracle(a, b, 0.3), atol=1e-12)
        assert np.allclose(m_ba.value, adjacency_oracle(b, a, 0.3), atol=1e-12)

    def test_zero_row_rejected(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            adjacency(a, np.ones((2, 2)), 0.1)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.normal(size=(rng.integers(1, 6), 4))
            b = rng.normal(size=(rng.integers(1, 6), 4))
            for m in adjacency(a, b, 0.2)[:2]:
                assert np.max(np.abs(m.value.sum(axis=1) - 1.0)) <= 1e-12

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        scales_a = rng.uniform(0.1, 10.0, size=(3, 1))
        scales_b = rng.uniform(0.1, 10.0, size=(5, 1))
        base = adjacency(a, b, 0.1)
        scaled = adjacency(a * scales_a, b * scales_b, 0.1)
        for m, m_scaled in zip(base, scaled):
            assert np.max(np.abs(m.value - m_scaled.value)) <= 1e-12


class TestWpwLoss:
    def test_single_slot_exact_zero(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            x = rng.normal(size=(6, 4))
            s = rng.normal(size=(1, 4))
            assert wpw_loss(*adjacency(s, x, 0.1)[:2]).value[0, 0] == 0.0

    def test_orthogonal_clusters_near_zero(self):
        rng = np.random.default_rng(4)
        slots = np.eye(2, 6)
        noise = rng.normal(scale=0.01, size=(10, 6))
        x = np.vstack([np.tile(slots[0], (5, 1)), np.tile(slots[1], (5, 1))]) + noise
        loss = wpw_loss(*adjacency(slots, x, 0.05)[:2]).value[0, 0]
        assert loss <= 1e-3
        # direct evaluation of the two-hop product
        m = adjacency_oracle(slots, x, 0.05) @ adjacency_oracle(x, slots, 0.05)
        expect = -np.log(np.clip(np.diag(m), 1e-12, 1.0)).mean()
        assert abs(loss - expect) <= 1e-9

    def test_matches_diagonal_log_oracle(self):
        rng = np.random.default_rng(5)
        s, x = rng.normal(size=(3, 4)), rng.normal(size=(9, 4))
        loss = wpw_loss(*adjacency(s, x, 0.1)[:2]).value[0, 0]
        m = adjacency_oracle(s, x, 0.1) @ adjacency_oracle(x, s, 0.1)
        expect = -np.log(np.maximum(np.diag(m), 1e-12)).sum() / 3
        assert abs(loss - expect) <= 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            s = rng.normal(size=(rng.integers(1, 5), 4))
            x = rng.normal(size=(rng.integers(5, 12), 4))
            assert wpw_loss(*adjacency(s, x, 0.2)[:2]).value[0, 0] >= 0.0

    def test_round_trip_rows_stochastic(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = rng.normal(size=(3, 5))
            x = rng.normal(size=(8, 5))
            m = ad.matmul(*adjacency(s, x, 0.1)[:2]).value
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-9


class TestPwpTarget:
    def test_orthogonal_rows_identity(self):
        x = np.eye(4, 5) * 3.0
        assert np.array_equal(pwp_target(x, 0.7), np.eye(4))

    def test_identical_rows_half(self):
        x = np.tile(np.array([[1.0, 2.0, -1.0]]), (2, 1))
        assert np.allclose(pwp_target(x, 0.7), 0.5, atol=1e-15)

    def test_matches_mask_then_softmax_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 4))
        for gamma in (0.3, 0.0, -0.5, float("-inf")):
            assert np.allclose(pwp_target(x, gamma), pwp_target_oracle(x, gamma), atol=1e-12)

    def test_gamma_at_or_above_one_rejected(self):
        with pytest.raises(ConfigError):
            pwp_target(np.eye(3), 1.0)

    def test_unit_rows_used_as_given(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 4))
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert np.allclose(pwp_target(unit, 0.3), pwp_target(x, 0.3), rtol=0, atol=1e-12)

    def test_stack_gives_one_target_per_scene(self):
        x = np.random.default_rng(11).normal(size=(3, 6, 4))
        stacked = pwp_target(x, 0.3)
        for i in range(3):
            assert np.array_equal(stacked[i], pwp_target(x[i], 0.3))

    @pytest.mark.parametrize("gamma", [0.3, float("-inf"), 0.999])
    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    @pytest.mark.parametrize("n", [1, 31, 33, 100])
    def test_row_block_names_the_dense_nonzero_cells(self, gamma, lead, n):
        rng = np.random.default_rng(n + 7 * len(lead))
        x = rng.normal(size=lead + (n, 5))
        unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
        dense = pwp_target(unit, gamma)
        for start in range(0, n, walks._BLOCK_ROWS):
            block = dense[..., start:start + walks._BLOCK_ROWS, :]
            cells, q = pwp_target(unit, gamma, slice(start, start + walks._BLOCK_ROWS))
            assert np.array_equal(cells, np.flatnonzero(block))
            np.testing.assert_allclose(q, block.reshape(-1)[cells], rtol=1e-15, atol=0)

    def test_rows_stochastic_and_diagonal_survives(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = rng.normal(size=(7, 5))
            s = pwp_target(x, 0.7)
            assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(np.diag(s) > 0.0)


class TestPwpLoss:
    def test_slots_equal_features_near_zero(self):
        x = np.eye(4, 4)
        loss = pwp_loss(*adjacency(x, x, 0.05), 0.7).value[0, 0]
        assert loss <= 1e-2

    def test_matches_product_then_ce_oracle(self):
        rng = np.random.default_rng(10)
        x, s = rng.normal(size=(7, 4)), rng.normal(size=(3, 4))
        loss = pwp_loss(*adjacency(s, x, 0.1), 0.3).value[0, 0]
        m = adjacency_oracle(x, s, 0.1) @ adjacency_oracle(s, x, 0.1)
        target = pwp_target_oracle(x, 0.3)
        expect = -(target * np.log(np.clip(m, 1e-12, 1.0))).sum() / 7
        assert abs(loss - expect) <= 1e-9

    def test_frozen_target_is_used(self):
        rng = np.random.default_rng(11)
        x, s, frozen = rng.normal(size=(5, 4)), rng.normal(size=(2, 4)), rng.normal(size=(5, 4))
        m_sx, m_xs, _ = adjacency(s, x, 0.1)
        loss = pwp_loss(m_sx, m_xs, frozen, 0.3).value[0, 0]
        m = adjacency_oracle(x, s, 0.1) @ adjacency_oracle(s, x, 0.1)
        expect = -(pwp_target_oracle(frozen, 0.3) * np.log(np.clip(m, 1e-12, 1.0))).sum() / 5
        assert abs(loss - expect) <= 1e-9


def dense_oracle(loss, s, x, tau, gamma, frozen=None):
    """`loss` and both input gradients through the dense round trip and the reference `cross_entropy_rows`.

    wpw_loss's round trip m_sx m_xs is scored against eye(K), pwp_loss's
    m_xs m_sx against the target of the unit features or of `frozen`.
    """
    s, x = ad.leaf(s), ad.leaf(x)
    m_sx, m_xs, feats_n = adjacency(s, x, tau)
    if loss is wpw_loss:
        out = cross_entropy_rows(ad.matmul(m_sx, m_xs), np.eye(m_sx.shape[-2]))
    else:
        feats = feats_n if frozen is None else frozen
        out = cross_entropy_rows(ad.matmul(m_xs, m_sx), pwp_target(feats, gamma))
    ad.backward(out)
    return out.value[0, 0], s.grad, x.grad


def assert_matches_dense_oracle(loss, s0, x0, tau, gamma, frozen=None):
    expect, ds, dx = dense_oracle(loss, s0, x0, tau, gamma, frozen)
    s, x = ad.leaf(s0), ad.leaf(x0)
    m_sx, m_xs, feats_n = adjacency(s, x, tau)
    if loss is wpw_loss:
        out = wpw_loss(m_sx, m_xs)
    else:
        out = pwp_loss(m_sx, m_xs, feats_n if frozen is None else frozen, gamma)
    ad.backward(out)
    assert out.value[0, 0] == pytest.approx(expect, rel=1e-12, abs=1e-300)
    np.testing.assert_allclose(s.grad, ds, rtol=1e-9, atol=1e-12 * np.abs(ds).max())
    np.testing.assert_allclose(x.grad, dx, rtol=1e-9, atol=1e-12 * np.abs(dx).max())


class TestBlockedPwpLoss:
    """Both losses walk their round trip in row blocks; each must equal its dense round trip."""

    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_matches_dense_oracle(self, lead, n, frozen):
        rng = np.random.default_rng(n + 7 * len(lead))
        s0, x0 = rng.normal(size=lead + (4, 5)), rng.normal(size=lead + (n, 5))
        feats = rng.normal(size=lead + (n, 5)) if frozen else None
        # no threshold keeps every cell, the densest target; the largest
        # float below 1 keeps only cosines of exactly 1, the diagonal
        for gamma in (0.3, float("-inf"), np.nextafter(1.0, 0.0)):
            assert_matches_dense_oracle(pwp_loss, s0, x0, 0.2, gamma, feats)

    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    @pytest.mark.parametrize("k", [1, 3, 32, 33, 40])
    def test_wpw_matches_dense_oracle(self, lead, k):
        # K = 33 and 40 put wpw's K x K round trip across a block boundary
        rng = np.random.default_rng(k + 7 * len(lead))
        s0, x0 = rng.normal(size=lead + (k, 5)), rng.normal(size=lead + (20, 5))
        assert_matches_dense_oracle(wpw_loss, s0, x0, 0.2, 0.3)

    def test_each_loss_is_one_node_over_the_walk_pair(self):
        rng = np.random.default_rng(17)
        s, x = ad.leaf(rng.normal(size=(3, 4))), ad.leaf(rng.normal(size=(9, 4)))
        m_sx, m_xs, feats_n = adjacency(s, x, 0.1)
        assert wpw_loss(m_sx, m_xs)._parents == (m_sx, m_xs)
        assert set(map(id, pwp_loss(m_sx, m_xs, feats_n, 0.7)._parents)) == {id(m_sx), id(m_xs)}

    def test_perfect_round_trip_scores_the_dense_value(self):
        # one orthogonal slot per feature across two blocks: every round
        # trip returns home with probability 1, which scores exactly 0
        x = np.eye(40)
        expect = dense_oracle(pwp_loss, x, x, 0.01, 0.7)[0]
        loss = pwp_loss(*adjacency(x, x, 0.01), 0.7).value[0, 0]
        assert loss == expect == 0.0

    def test_frozen_target_holds_the_features_out(self):
        # with frozen feature rows, total_loss builds the pwp target from
        # them, not from the projected features of the current step
        rng = np.random.default_rng(14)
        x, s_hat, frozen = rng.normal(size=(40, 6)), rng.normal(size=(3, 5)), rng.normal(size=(40, 4))
        proj = WalkProjection.create(input_dim=6, slot_dim=5, dim=4, seed=13)
        cfg = WalkConfig(alpha=0.0, beta=1.0, gamma=0.5)
        held = total_loss(x, s_hat, proj, cfg, pwp_frozen_feats=frozen).value[0, 0]
        m_sx, m_xs, feats_n = adjacency(ad.matmul(s_hat, proj.p_s), ad.matmul(x, proj.p_x), 0.1)
        assert held == pwp_loss(m_sx, m_xs, frozen, 0.5).value[0, 0]
        assert held != pwp_loss(m_sx, m_xs, feats_n, 0.5).value[0, 0]

    def test_target_rows_checked_once_per_call(self, monkeypatch):
        rng = np.random.default_rng(15)
        x, s = rng.normal(size=(2, 70, 4)), rng.normal(size=(2, 3, 4))
        blocks, checks = [], []
        target, unit = walks.pwp_target, walks._unit_rows

        def counted_target(feats, gamma, rows=None):
            blocks.append(rows)
            return target(feats, gamma, rows)

        def counted_unit(feats, name):
            checks.append(name)
            return unit(feats, name)

        monkeypatch.setattr(walks, "pwp_target", counted_target)
        monkeypatch.setattr(walks, "_unit_rows", counted_unit)
        pwp_loss(*adjacency(s, x, 0.1), 0.3)
        assert [(b.start, b.stop) for b in blocks] == [(0, 32), (32, 64), (64, 96)]
        assert len(checks) == 1

    @pytest.mark.parametrize(
        "m_xs, feats",
        [(np.full((5, 3), 1 / 3), np.ones((5, 3))), (np.full((4, 2), 0.5), np.ones((5, 3)))],
    )
    def test_mismatched_shapes_rejected(self, m_xs, feats):
        with pytest.raises(ShapeError):
            pwp_loss(np.full((2, 4), 0.25), m_xs, feats, 0.3)

    def test_unpaired_wpw_rejected(self):
        with pytest.raises(ShapeError):
            wpw_loss(np.full((2, 4), 0.25), np.full((5, 3), 1 / 3))

    def test_non_finite_frozen_target_rejected(self):
        # the frozen target's feature rows are checked where they come in
        frozen = np.ones((4, 3))
        frozen[1, 2] = np.nan
        with pytest.raises(DegenerateInputError):
            pwp_loss(np.full((2, 4), 0.25), np.full((4, 2), 0.5), frozen, 0.3)

    def test_backward_keeps_no_stack_of_n_by_n_arrays(self):
        # B=4, N=512: one B x N x N float64 array is 8.4 MB, and the
        # dense round trip used to hold several at once
        rng = np.random.default_rng(16)
        s, x = ad.leaf(rng.normal(size=(4, 7, 16))), ad.leaf(rng.normal(size=(4, 512, 16)))
        m_sx, m_xs, feats_n = adjacency(s, x, 0.1)
        tracemalloc.start()
        try:
            ad.backward(pwp_loss(m_sx, m_xs, feats_n, 0.7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 512 * 512 * 8, peak


class TestTotalLoss:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.x = rng.normal(size=(8, 6))
        self.s_hat = rng.normal(size=(3, 5))
        self.proj = WalkProjection.create(input_dim=6, slot_dim=5, dim=4, seed=13)

    def _projected(self):
        feats_p = ad.matmul(self.x, self.proj.p_x)
        slots_p = ad.matmul(self.s_hat, self.proj.p_s)
        return feats_p, slots_p

    def test_alpha_only_equals_wpw(self):
        cfg = WalkConfig(alpha=1.0, beta=0.0, tau=0.1, gamma=0.7)
        feats_p, slots_p = self._projected()
        expect = wpw_loss(*adjacency(slots_p, feats_p, 0.1)[:2]).value[0, 0]
        assert total_loss(self.x, self.s_hat, self.proj, cfg).value[0, 0] == expect

    def test_beta_only_equals_pwp(self):
        cfg = WalkConfig(alpha=0.0, beta=1.0, tau=0.1, gamma=0.7)
        feats_p, slots_p = self._projected()
        expect = pwp_loss(*adjacency(slots_p, feats_p, 0.1), 0.7).value[0, 0]
        assert total_loss(self.x, self.s_hat, self.proj, cfg).value[0, 0] == expect

    def test_both_terms_sum(self):
        cfg = WalkConfig(alpha=1.0, beta=1.0, tau=0.1, gamma=0.7)
        feats_p, slots_p = self._projected()
        wpw = wpw_loss(*adjacency(slots_p, feats_p, 0.1)[:2]).value[0, 0]
        pwp = pwp_loss(*adjacency(slots_p, feats_p, 0.1), 0.7).value[0, 0]
        total = total_loss(self.x, self.s_hat, self.proj, cfg).value[0, 0]
        assert abs(total - (wpw + pwp)) <= 1e-12

    def test_beta_zero_never_evaluates_pwp(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("pwp path evaluated despite beta == 0")

        monkeypatch.setattr(walks, "pwp_loss", boom)
        cfg = WalkConfig(alpha=1.0, beta=0.0, tau=0.1, gamma=0.7)
        total_loss(self.x, self.s_hat, self.proj, cfg)

    def test_total_loss_calls_kernel_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return adjacency(*args)

        monkeypatch.setattr(walks, "adjacency", counted)
        cfg = WalkConfig(alpha=1.0, beta=1.0, tau=0.1, gamma=0.7)
        total_loss(self.x, self.s_hat, self.proj, cfg)
        assert len(calls) == 1

    def test_features_normalized_once(self, monkeypatch):
        calls = []
        normalize = ad.l2_normalize_rows

        def counted(m):
            calls.append(m)
            return normalize(m)

        monkeypatch.setattr(ad, "l2_normalize_rows", counted)
        cfg = WalkConfig(alpha=1.0, beta=1.0, tau=0.1, gamma=0.7)
        total_loss(self.x, self.s_hat, self.proj, cfg)
        assert len(calls) == 2  # the slots and the features, each once

    def test_coefficients_scale_terms(self):
        cfg = WalkConfig(alpha=2.0, beta=0.5, tau=0.1, gamma=0.7)
        feats_p, slots_p = self._projected()
        wpw = wpw_loss(*adjacency(slots_p, feats_p, 0.1)[:2]).value[0, 0]
        pwp = pwp_loss(*adjacency(slots_p, feats_p, 0.1), 0.7).value[0, 0]
        total = total_loss(self.x, self.s_hat, self.proj, cfg).value[0, 0]
        assert abs(total - (2.0 * wpw + 0.5 * pwp)) <= 1e-12


class TestWalkGradients:
    def test_full_loss_passes_finite_differences_small(self):
        errors = full_model_errors(8, 2, 5, iterations=1, seed=3)
        assert max(errors.values()) <= 1e-3, errors

    def test_grouping_reports_every_parameter(self):
        grouped = grouped_errors({"slots.mu": 1e-9, "slots.new_field": 0.5})
        assert grouped == {"mu": 1e-9, "new_field": 0.5}
