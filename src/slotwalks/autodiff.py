"""Dense-matrix numerics with reverse-mode differentiation.

Values are float64 numpy arrays of at least two dimensions: an n x m
matrix, or a stack of them (... x n x m) whose leading axes are batch
axes; a 2-D value is the no-batch case of the same ops. Differentiable
computations build a graph of `Node` objects; `backward` fills in the
gradient of a scalar loss with respect to every leaf created by `leaf`.
Graphs are rebuilt from scratch for every loss evaluation and walked
exactly once, which keeps replay deterministic.

Every op accepts either a `Node` or anything `as_matrix` understands;
raw arrays and numbers are lifted to constants that do not receive
gradients. `add`, `mul`, `div` and the batch axes of `matmul` broadcast
like numpy, so a 1 x n row, a number (a 1 x 1 constant) or a 2-D
parameter stretches to the other operand's shape, and its gradient is
summed back to its own shape. `transpose` swaps the last two axes and the
row ops act on the last axis.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError

Array = np.ndarray

# entries this small are clamped before any log
LOG_CLAMP = 1e-12

# probabilities this close to 1 are treated as exactly 1 inside the log
ONE_SNAP = 1e-9

_NORM_FLOOR = 1e-12


def as_matrix(data, name: str = "matrix") -> Array:
    """Coerce to a finite, non-empty float64 array of at least 2-D (a number is 1 x 1, a vector one row)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if min(arr.shape) < 1:
        raise ShapeError(f"{name}: degenerate shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError(f"{name}: contains non-finite entries")
    return np.ascontiguousarray(arr)


class Node:
    """One vertex of the differentiation graph.

    `value` holds the forward result; `grad` holds d(loss)/d(value) once
    `backward` has reached the node (a fresh leaf holds zeros, an op None).
    `_vjps[i]` maps the output gradient to the i-th parent's gradient. A
    node that needs no gradient keeps neither, so the arrays its vjps
    hold are freed as soon as nothing else reads them.
    """

    __slots__ = ("value", "grad", "needs_grad", "_parents", "_vjps", "__weakref__")

    def __init__(
        self,
        value: Array,
        parents: tuple["Node", ...] = (),
        vjps: tuple[Callable[[Array], Array], ...] = (),
        needs_grad: bool | None = None,
    ):
        self.value = value
        self.grad: Array | None = None
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad
        self._parents = parents if needs_grad else ()
        self._vjps = vjps if needs_grad else ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        kind = "leaf" if not self._parents else "op"
        return f"Node({kind}, shape={self.value.shape}, needs_grad={self.needs_grad})"


def leaf(value) -> Node:
    """Trainable leaf; `backward` fills its gradient (zeros if unreachable)."""
    node = Node(as_matrix(value, "leaf"), needs_grad=True)
    node.grad = np.zeros_like(node.value)
    return node


def constant(value) -> Node:
    """Fixed input; excluded from gradient propagation."""
    return Node(as_matrix(value, "constant"), needs_grad=False)


def _as_node(x, name: str = "operand") -> Node:
    if isinstance(x, Node):
        return x
    if isinstance(x, (int, float)) and math.isfinite(x):
        # a number operand skips as_matrix's array checks, which cost more
        # than the op it feeds
        return Node(np.array(float(x), ndmin=2), needs_grad=False)
    return Node(as_matrix(x, name), needs_grad=False)


def _swap(v: Array) -> Array:
    return np.swapaxes(v, -1, -2)


def matmul(a, b) -> Node:
    """Matrix product over the last two axes; batch axes broadcast as in numpy's `@`."""
    a, b = _as_node(a, "matmul lhs"), _as_node(b, "matmul rhs")
    av, bv = a.value, b.value
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions {av.shape} x {bv.shape} do not agree")
    out = _broadcast("matmul", np.matmul, av, bv)
    return Node(
        out,
        (a, b),
        (lambda g: _sum_to(g @ _swap(bv), av.shape), lambda g: _sum_to(_swap(av) @ g, bv.shape)),
    )


def transpose(a) -> Node:
    """Swap the last two axes."""
    a = _as_node(a)
    return Node(np.ascontiguousarray(_swap(a.value)), (a,), (_swap,))


def _broadcast(op: str, ufunc, a: Array, b: Array) -> Array:
    try:
        return ufunc(a, b)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _sum_to(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum g over the axes along which an operand of `shape` was stretched or added."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n != g.shape[i])
    return g.sum(axis=axes, keepdims=True) if axes else g


def _identity(g: Array) -> Array:
    return g


def _add_vjp(shape: tuple[int, ...], out_shape: tuple[int, ...]) -> Callable[[Array], Array]:
    # an operand that was not stretched shares one function instead of a new
    # closure: thousands of closures per step make the garbage collector run
    # measurably more often
    return _identity if shape == out_shape else (lambda g: _sum_to(g, shape))


def add(a, b) -> Node:
    """Elementwise sum under numpy broadcasting (a 1 x n row, a number)."""
    a, b = _as_node(a), _as_node(b)
    out = _broadcast("add", np.add, a.value, b.value)
    vjps = (_add_vjp(a.value.shape, out.shape), _add_vjp(b.value.shape, out.shape))
    return Node(out, (a, b), vjps)


def mul(a, b) -> Node:
    """Elementwise (Hadamard) product under numpy broadcasting."""
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    out = _broadcast("mul", np.multiply, av, bv)
    return Node(
        out,
        (a, b),
        (lambda g: _sum_to(g * bv, av.shape), lambda g: _sum_to(g * av, bv.shape)),
    )


def div(a, b) -> Node:
    """Elementwise quotient a / b under numpy broadcasting."""
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    out = _broadcast("div", np.divide, av, bv)
    return Node(
        out,
        (a, b),
        (
            lambda g: _sum_to(g / bv, av.shape),
            lambda g: _sum_to(-(g * av / (bv * bv)), bv.shape),
        ),
    )


def exp(a) -> Node:
    a = _as_node(a)
    out = np.exp(a.value)
    return Node(out, (a,), (lambda g: g * out,))


def sigmoid(a) -> Node:
    a = _as_node(a)
    out = 1.0 / (1.0 + np.exp(-a.value))
    return Node(out, (a,), (lambda g: g * out * (1.0 - out),))


def tanh(a) -> Node:
    a = _as_node(a)
    out = np.tanh(a.value)
    return Node(out, (a,), (lambda g: g * (1.0 - out * out),))


def sum_all(a) -> Node:
    """Sum every entry, over every axis, into a 1 x 1 matrix."""
    a = _as_node(a)
    av = a.value
    out = np.array([[av.sum()]])
    return Node(out, (a,), (lambda g: np.full_like(av, g[0, 0]),))


def softmax_rows(m, tau: float) -> Node:
    """Temperature softmax over the last axis; each row becomes a distribution.

    The max of each row is subtracted before exponentiation, which leaves
    the result unchanged but keeps exp() in range.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ConfigError(f"softmax_rows: temperature must be positive, got {tau}")
    m = _as_node(m)
    z = m.value
    shifted = (z - z.max(axis=-1, keepdims=True)) / tau
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: Array) -> Array:
        inner = (g * p).sum(axis=-1, keepdims=True)
        return p * (g - inner) / tau

    return Node(p, (m,), (vjp,))


def l2_normalize_rows(m) -> Node:
    """Scale each row (the last axis) to unit Euclidean norm."""
    m = _as_node(m)
    v = m.value
    norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    small = norms[..., 0] <= _NORM_FLOOR
    if small.any():
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(small), small.shape))
        where = idx[0] if len(idx) == 1 else idx
        raise DegenerateInputError(f"l2_normalize_rows: row {where} has near-zero norm")
    y = v / norms

    def vjp(g: Array) -> Array:
        dots = (g * y).sum(axis=-1, keepdims=True)
        return (g - y * dots) / norms

    return Node(y, (m,), (vjp,))


def layer_norm_rows(m, gain, bias, eps: float = 1e-5) -> Node:
    """Per-row standardization followed by an affine map.

    gain and bias are 1 x n, shared by every row of a stack; variance is
    the population variance over the n columns of each row.
    """
    if float(eps) <= 0.0:
        raise ConfigError(f"layer_norm_rows: eps must be positive, got {eps}")
    m, gain, bias = _as_node(m), _as_node(gain, "gain"), _as_node(bias, "bias")
    n = m.value.shape[-1]
    if gain.value.shape != (1, n) or bias.value.shape != (1, n):
        raise ShapeError(
            f"layer_norm_rows: gain {gain.value.shape} / bias {bias.value.shape}"
            f" do not match {m.value.shape}"
        )
    v = m.value
    mean = v.mean(axis=-1, keepdims=True)
    var = ((v - mean) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (v - mean) * inv_std
    out = xhat * gain.value + bias.value
    gv = gain.value

    def vjp_m(g: Array) -> Array:
        dxhat = g * gv
        term = dxhat - dxhat.mean(axis=-1, keepdims=True)
        term -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        return term * inv_std

    def over_rows(g: Array) -> Array:
        return g.reshape(-1, n).sum(axis=0, keepdims=True)

    return Node(
        out,
        (m, gain, bias),
        (vjp_m, lambda g: over_rows(g * xhat), over_rows),
    )


def _clamped(p: Array) -> Array:
    """A copy of p clamped to [LOG_CLAMP, 1], with entries within ONE_SNAP of 1 set to 1."""
    pc = np.clip(p, LOG_CLAMP, 1.0)
    pc[pc >= 1.0 - ONE_SNAP] = 1.0
    return pc


def cross_entropy_rows(pred, target) -> Node:
    """Mean over rows of -sum_j target_ij * log(pred_ij), summed over a stack.

    pred is n x m or a stack of them; the loss is the sum over the stack of
    each matrix's row mean, so it stays 1 x 1. target has pred's shape or
    one that broadcasts to it, such as one eye(m) for every matrix.

    Predictions are probabilities by contract; before the log they are
    clamped below at 1e-12 and above at 1, and entries within ONE_SNAP of
    1 are treated as exactly 1. The guards keep the loss non-negative for
    one-hot targets and make a numerically perfect round trip score an
    exact zero; they only matter within rounding error of the boundaries.
    """
    pred, target = _as_node(pred, "pred"), _as_node(target, "target")
    p, q = pred.value, target.value
    if q.ndim > p.ndim or any(t not in (1, s) for s, t in zip(p.shape[::-1], q.shape[::-1])):
        raise ShapeError(f"cross_entropy_rows: target {q.shape} does not fit pred {p.shape}")
    rows = p.shape[-2]
    # a stack of N x N round trips is large: nothing of p's size is kept
    # beyond the operands, and each pass below allocates one such array
    logp = _clamped(p)
    np.log(logp, out=logp)
    total = np.vdot(q, logp) if q.shape == p.shape else (q * logp).sum()
    del logp
    out = np.array([[-total / rows]])

    def vjp_pred(g: Array) -> Array:
        grad = _clamped(p)
        interior = (p > LOG_CLAMP) & (grad < 1.0)
        np.divide(q, grad, out=grad)
        grad *= interior
        grad *= -g[0, 0] / rows
        return grad

    def vjp_target(g: Array) -> Array:
        return _sum_to(np.log(_clamped(p)) * (-g[0, 0] / rows), q.shape)

    return Node(out, (pred, target), (vjp_pred, vjp_target))


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable trainable leaf.

    The loss must be 1 x 1. Gradients of all nodes on the path are reset
    before accumulation, so calling backward on a fresh graph is always
    exact; graphs are not meant to be reused across calls. Contributions
    are summed out of place: a vjp may return its input or a view of it.
    """
    if loss.value.shape != (1, 1):
        raise ShapeError(f"backward: loss must be 1x1, got {loss.value.shape}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.needs_grad:
                stack.append((p, False))
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        g = node.grad
        for parent, vjp in zip(node._parents, node._vjps):
            if parent.needs_grad:
                parent.grad = vjp(g) if parent.grad is None else parent.grad + vjp(g)


def finite_difference_gradients(
    make_loss: Callable[[Mapping[str, Node]], Node],
    params: Mapping[str, Array],
    step: float = 1e-5,
) -> dict[str, Array]:
    """Central-difference gradient of the loss for every parameter entry.

    `make_loss` must rebuild the loss deterministically from the given
    name -> Node mapping on every call.
    """
    grads: dict[str, Array] = {}
    work = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}

    def evaluate() -> float:
        nodes = {k: constant(v) for k, v in work.items()}
        return float(make_loss(nodes).value[0, 0])

    for name in params:
        flat = work[name].reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = evaluate()
            flat[i] = orig - step
            lo = evaluate()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads[name] = g.reshape(work[name].shape)
    return grads


def check_gradients(
    make_loss: Callable[[Mapping[str, Node]], Node],
    params: Mapping[str, Array],
    step: float = 1e-5,
    denom_floor: float = 1e-6,
) -> dict[str, float]:
    """Max relative error per parameter between graph and finite-difference grads.

    Relative error of entries a (graph) and b (finite difference) is
    |a - b| / max(|a|, |b|, denom_floor); the floor keeps near-zero
    gradients from dividing by finite-difference noise.
    """
    nodes = {k: leaf(v) for k, v in params.items()}
    loss = make_loss(nodes)
    backward(loss)
    fd = finite_difference_gradients(make_loss, params, step)
    out: dict[str, float] = {}
    for name in params:
        a, b = nodes[name].grad, fd[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), denom_floor)
        out[name] = float(np.max(np.abs(a - b) / denom))
    return out


def max_group_errors(
    errors: Mapping[str, float], groups: Mapping[str, str]
) -> dict[str, float]:
    """Collapse per-parameter errors to a max per named group."""
    out: dict[str, float] = {}
    for name, err in errors.items():
        group = groups.get(name, name)
        out[group] = max(out.get(group, 0.0), err)
    return out
