"""Tests for the matrix ops and the reverse-mode engine.

Derived expectations are computed by independent oracles (explicit loops,
direct formula evaluation, central finite differences) rather than by the
code under test.
"""

import numpy as np
import pytest

from slotwalks import autodiff as ad
from slotwalks.errors import ConfigError, DegenerateInputError, ShapeError


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def cross_entropy_oracle(p, q):
    rows, cols = p.shape
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            total += q[i, j] * np.log(max(p[i, j], 1e-12))
    return -total / rows


def layer_norm_oracle(m, gain, bias, eps=1e-5):
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        row = m[i]
        mean = row.sum() / row.size
        var = ((row - mean) ** 2).sum() / row.size
        out[i] = (row - mean) / np.sqrt(var + eps) * gain[0] + bias[0]
    return out


class TestMatmul:
    def test_identity(self):
        b = np.random.default_rng(0).normal(size=(3, 3))
        assert np.array_equal(ad.matmul(np.eye(3), b).value, b)

    def test_scalar_case(self):
        assert ad.matmul([[2.0]], [[3.0]]).value[0, 0] == 6.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        assert np.allclose(ad.matmul(a, b).value, matmul_oracle(a, b), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))


class TestSoftmax:
    def test_constant_row_uniform(self):
        for tau in (0.05, 1.0, 7.0):
            out = ad.softmax_rows(np.full((1, 5), 3.2), tau).value
            assert np.allclose(out, 0.2, atol=1e-12)

    def test_two_entry_closed_form(self):
        a, c = 0.4, 1.3
        out = ad.softmax_rows(np.array([[a, a + c]]), 1.0).value
        expect = np.array([1.0, np.exp(c)]) / (1.0 + np.exp(c))
        assert np.allclose(out, expect, atol=1e-12)

    def test_matches_unstabilized_oracle(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(-1.0, 1.0, size=(4, 5))
        tau = 0.1
        e = np.exp(m / tau)  # no max subtraction; inputs small enough
        expect = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(ad.softmax_rows(m, tau).value, expect, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(5, 7)) * 30
            out = ad.softmax_rows(m, 0.3).value
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 6))
        base = ad.softmax_rows(m, 0.5).value
        shifted = ad.softmax_rows(m + 17.0, 0.5).value
        assert np.max(np.abs(base - shifted)) <= 1e-12
        assert np.array_equal(np.argmax(base, axis=1), np.argmax(shifted, axis=1))

    def test_bad_temperature(self):
        with pytest.raises(ConfigError):
            ad.softmax_rows(np.ones((2, 2)), 0.0)
        with pytest.raises(ConfigError):
            ad.softmax_rows(np.ones((2, 2)), -1.0)


class TestL2NormalizeRows:
    def test_unit_row_unchanged(self):
        row = np.array([[0.6, 0.8]])
        assert np.allclose(ad.l2_normalize_rows(row).value, row, atol=1e-15)

    def test_three_four_five(self):
        out = ad.l2_normalize_rows(np.array([[3.0, 4.0]])).value
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_errors_with_index(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        with pytest.raises(DegenerateInputError, match="row 1"):
            ad.l2_normalize_rows(m)
        with pytest.raises(DegenerateInputError, match=r"row \(1, 1\)"):
            ad.l2_normalize_rows(np.stack([m[[0, 2, 2]], m]))

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.normal(size=(4, 5))
            norms = np.linalg.norm(ad.l2_normalize_rows(m).value, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12


class TestCrossEntropyRows:
    def test_identity_rows_zero(self):
        eye = np.eye(4)
        assert ad.cross_entropy_rows(eye, eye).value[0, 0] == 0.0

    def test_uniform_vs_onehot_ln2(self):
        p = np.full((1, 2), 0.5)
        q = np.array([[1.0, 0.0]])
        out = ad.cross_entropy_rows(p, q).value[0, 0]
        assert abs(out - np.log(2.0)) <= 1e-12

    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(5), size=4)
        q = rng.dirichlet(np.ones(5), size=4)
        out = ad.cross_entropy_rows(p, q).value[0, 0]
        assert abs(out - cross_entropy_oracle(p, q)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy_rows(np.ones((2, 3)) / 3, np.ones((3, 2)) / 2)

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6), size=3)
            q = rng.dirichlet(np.ones(6), size=3)
            self_ce = ad.cross_entropy_rows(p, p).value[0, 0]
            cross_ce = ad.cross_entropy_rows(q, p).value[0, 0]
            assert self_ce <= cross_ce + 1e-12


class TestLayerNormRows:
    def test_constant_row_gives_bias(self):
        bias = np.array([[0.3, -0.1, 2.0]])
        out = ad.layer_norm_rows(np.full((2, 3), 5.0), np.ones((1, 3)), bias).value
        assert np.allclose(out, np.vstack([bias, bias]), atol=1e-12)

    def test_already_standardized_row(self):
        out = ad.layer_norm_rows(
            np.array([[-1.0, 1.0]]), np.ones((1, 2)), np.zeros((1, 2))
        ).value
        # variance is 1, so only the eps correction shrinks the row
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)
        assert abs(out[0, 1] - 1.0 / np.sqrt(1.0 + 1e-5)) <= 1e-12

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(5, 8)) * 3
        gain = rng.normal(size=(1, 8))
        bias = rng.normal(size=(1, 8))
        out = ad.layer_norm_rows(m, gain, bias).value
        assert np.allclose(out, layer_norm_oracle(m, gain, bias), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.layer_norm_rows(np.ones((2, 3)), np.ones((1, 4)), np.zeros((1, 3)))


class TestElementwiseOps:
    def test_add_row_broadcast(self):
        a = np.arange(6.0).reshape(2, 3)
        row = np.array([[10.0, 20.0, 30.0]])
        assert np.array_equal(ad.add(a, row).value, a + row)

    def test_div_cols(self):
        a = np.arange(1.0, 7.0).reshape(2, 3)
        denom = np.array([[1.0, 2.0, 4.0]])
        assert np.allclose(ad.div(a, denom).value, a / denom, atol=1e-15)

    def test_non_finite_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            ad.leaf(np.array([[1.0, np.inf]]))

    def test_number_operand_is_a_constant(self):
        a = ad.leaf(np.arange(6.0).reshape(2, 3))
        out = ad.add(ad.mul(2.0, a), 1)
        assert np.array_equal(out.value, 2.0 * a.value + 1.0)
        assert out._parents[1].value.shape == (1, 1)
        assert not out._parents[1].needs_grad

    def test_non_finite_number_rejected(self):
        with pytest.raises(DegenerateInputError):
            ad.mul(np.ones((2, 2)), float("nan"))

    @pytest.mark.parametrize("op, name", [(ad.add, "add"), (ad.mul, "mul"), (ad.div, "div")])
    def test_shapes_that_do_not_broadcast(self, op, name):
        with pytest.raises(ShapeError, match=rf"{name}: shapes \(2, 3\) and \(1, 2\)"):
            op(np.ones((2, 3)), np.ones((1, 2)))
        with pytest.raises(ShapeError):
            op(np.ones((2, 3)), np.ones((3, 2)))


class TestStacks:
    """A stack (B x n x m) runs every op on each matrix; 2-D operands are shared."""

    def test_matmul_per_matrix_and_shared_factor(self):
        rng = np.random.default_rng(20)
        a, b, w = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2, 5)), rng.normal(size=(2, 5))
        assert np.array_equal(ad.matmul(a, b).value, np.stack([a[i] @ b[i] for i in range(3)]))
        assert np.array_equal(ad.matmul(a, w).value, np.stack([a[i] @ w for i in range(3)]))

    def test_matmul_batch_axes_must_broadcast(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(np.ones((2, 3, 4)), np.ones((3, 4, 5)))

    def test_transpose_swaps_the_last_two_axes(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(ad.transpose(a).value, a.transpose(0, 2, 1))

    def test_shared_parameter_gradient_sums_over_the_stack(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 4, 2))
        w = ad.leaf(rng.normal(size=(2, 5)))
        ad.backward(ad.sum_all(ad.matmul(x, w)))
        expect = sum(x[i].T @ np.ones((4, 5)) for i in range(3))
        assert np.allclose(w.grad, expect, atol=1e-12)

    def test_cross_entropy_sums_the_row_means_of_each_matrix(self):
        rng = np.random.default_rng(22)
        p = rng.dirichlet(np.ones(3), size=(2, 3))
        q = rng.dirichlet(np.ones(3), size=(2, 3))
        out = ad.cross_entropy_rows(p, q).value
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - sum(cross_entropy_oracle(p[i], q[i]) for i in range(2))) <= 1e-12
        shared = ad.cross_entropy_rows(p, np.eye(3)).value[0, 0]
        assert abs(shared - sum(cross_entropy_oracle(p[i], np.eye(3)) for i in range(2))) <= 1e-12

    def test_cross_entropy_target_must_fit_pred(self):
        p = np.full((2, 3, 3), 1.0 / 3)
        for target in (np.ones((3, 2)), np.ones((3, 3, 3)), np.ones((1, 2, 3, 3))):
            with pytest.raises(ShapeError):
                ad.cross_entropy_rows(p, target)


class TestGraphRetention:
    def test_constant_chain_keeps_no_parents(self):
        c = ad.constant(np.ones((2, 3)))
        out = ad.sum_all(ad.exp(ad.add(ad.matmul(c, ad.transpose(c)), 1.0)))
        assert not out.needs_grad
        assert out._parents == () and out._vjps == ()

    def test_graph_from_a_leaf_keeps_its_parents(self):
        x = ad.leaf(np.ones((2, 3)))
        c = ad.constant(np.ones((3, 2)))
        prod = ad.matmul(x, c)
        out = ad.sum_all(ad.exp(prod))
        assert out._parents[0]._parents == (prod,)
        assert prod._parents == (x, c) and len(prod._vjps) == 2
        ad.backward(out)
        assert np.allclose(x.grad, np.full((2, 3), 2.0 * np.exp(3.0)), atol=1e-9)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = ad.leaf(np.array([[1.0, -2.0], [0.5, 3.0]]))
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        assert np.allclose(x.grad, 2 * x.value, atol=1e-15)

    def test_constant_loss_zero_gradients(self):
        x = ad.leaf(np.ones((2, 2)))
        loss = ad.constant([[4.0]])
        ad.backward(loss)
        assert np.array_equal(x.grad, np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        x = ad.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(x, x))

    def test_reused_leaf_accumulates(self):
        x = ad.leaf(np.array([[3.0]]))
        loss = ad.sum_all(ad.mul(x, x))  # same node twice
        ad.backward(loss)
        assert np.allclose(x.grad, [[6.0]], atol=1e-15)


def _fd_check(make_loss, params, tol=1e-3):
    errors = ad.check_gradients(make_loss, params)
    worst = max(errors.values())
    assert worst <= tol, errors


class TestFiniteDifferenceChecks:
    """Every differentiable op passes the central-difference check on random shapes."""

    def test_matmul_transpose_add_scale(self):
        rng = np.random.default_rng(10)
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}

        def make_loss(nodes):
            prod = ad.matmul(nodes["a"], nodes["b"])
            return ad.sum_all(ad.mul(prod, ad.transpose(ad.mul(ad.transpose(prod), 0.7))))

        _fd_check(make_loss, params)

    def test_softmax_rows_and_cols(self):
        rng = np.random.default_rng(11)
        weight = rng.normal(size=(4, 5))
        params = {"m": rng.normal(size=(4, 5))}

        def make_loss(nodes):
            return ad.sum_all(ad.mul(ad.softmax_rows(nodes["m"], 0.3), ad.constant(weight)))

        _fd_check(make_loss, params)

    def test_l2_normalize(self):
        rng = np.random.default_rng(12)
        weight = rng.normal(size=(4, 3))
        params = {"m": rng.normal(size=(4, 3)) + 2.0}

        def make_loss(nodes):
            return ad.sum_all(ad.mul(ad.l2_normalize_rows(nodes["m"]), ad.constant(weight)))

        _fd_check(make_loss, params)

    def test_layer_norm(self):
        rng = np.random.default_rng(13)
        weight = rng.normal(size=(3, 6))
        params = {
            "m": rng.normal(size=(3, 6)),
            "gain": rng.normal(size=(1, 6)),
            "bias": rng.normal(size=(1, 6)),
        }

        def make_loss(nodes):
            out = ad.layer_norm_rows(nodes["m"], nodes["gain"], nodes["bias"])
            return ad.sum_all(ad.mul(out, ad.constant(weight)))

        _fd_check(make_loss, params)

    def test_cross_entropy_both_arguments(self):
        rng = np.random.default_rng(14)
        params = {
            "logits": rng.normal(size=(3, 4)),
            "target_logits": rng.normal(size=(3, 4)),
        }

        def make_loss(nodes):
            p = ad.softmax_rows(nodes["logits"], 1.0)
            q = ad.softmax_rows(nodes["target_logits"], 1.0)
            return ad.cross_entropy_rows(p, q)

        _fd_check(make_loss, params)

    def test_activations_and_bias(self):
        rng = np.random.default_rng(15)
        weight = rng.normal(size=(3, 4))
        params = {
            "m": rng.normal(size=(3, 4)),
            "row": rng.normal(size=(1, 4)),
        }

        def make_loss(nodes):
            z = ad.add(nodes["m"], nodes["row"])
            out = ad.add(ad.sigmoid(z), ad.add(ad.tanh(z), ad.exp(ad.mul(z, 0.2))))
            return ad.sum_all(ad.mul(out, ad.constant(weight)))

        _fd_check(make_loss, params)

    def test_div_cols(self):
        rng = np.random.default_rng(16)
        weight = rng.normal(size=(4, 3))
        params = {
            "a": rng.normal(size=(4, 3)),
            "denom": rng.uniform(1.0, 2.0, size=(1, 3)),
        }

        def make_loss(nodes):
            return ad.sum_all(ad.mul(ad.div(nodes["a"], nodes["denom"]), ad.constant(weight)))

        _fd_check(make_loss, params)


@pytest.mark.parametrize("op", [ad.add, ad.mul, ad.div])
class TestBroadcastGradients:
    """Finite-difference checks with a stretched operand on either side."""

    @pytest.mark.parametrize("shape", [(1, 4), (1, 1)])
    @pytest.mark.parametrize("small_first", [False, True])
    def test_row_or_1x1_operand(self, op, shape, small_first):
        rng = np.random.default_rng(17)
        weight = rng.normal(size=(3, 4))
        params = {
            "m": rng.uniform(1.0, 2.0, size=(3, 4)),
            "s": rng.uniform(1.0, 2.0, size=shape),
        }

        def make_loss(nodes):
            args = (nodes["s"], nodes["m"]) if small_first else (nodes["m"], nodes["s"])
            return ad.sum_all(ad.mul(op(*args), ad.constant(weight)))

        _fd_check(make_loss, params)

    def test_number_operand(self, op):
        rng = np.random.default_rng(18)
        weight = rng.normal(size=(3, 4))
        params = {"m": rng.uniform(1.0, 2.0, size=(3, 4))}

        def make_loss(nodes):
            out = ad.add(op(nodes["m"], 1.7), op(-0.6, nodes["m"]))
            return ad.sum_all(ad.mul(out, ad.constant(weight)))

        _fd_check(make_loss, params)
