"""Dense-matrix numerics with reverse-mode differentiation.

Values are plain 2-D float64 numpy arrays. Differentiable computations
build a graph of `Node` objects; `backward` fills in the gradient of a
scalar loss with respect to every leaf created by `leaf`. Graphs are
rebuilt from scratch for every loss evaluation and walked exactly once,
which keeps replay deterministic.

Every op accepts either a `Node` or anything `as_matrix` understands;
raw arrays are lifted to constants that do not receive gradients.
"""

from __future__ import annotations

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
    """Coerce to a 2-D float64 matrix and validate it is finite and non-empty."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D data, got {arr.ndim}-D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name}: degenerate shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError(f"{name}: contains non-finite entries")
    return np.ascontiguousarray(arr)


class Node:
    """One vertex of the differentiation graph.

    `value` holds the forward result; `grad` holds d(loss)/d(value) once
    `backward` has reached the node (a fresh leaf holds zeros, an op None).
    `_vjps[i]` maps the output gradient to the i-th parent's gradient.
    """

    __slots__ = ("value", "grad", "needs_grad", "_parents", "_vjps")

    def __init__(
        self,
        value: Array,
        parents: tuple["Node", ...] = (),
        vjps: tuple[Callable[[Array], Array], ...] = (),
        needs_grad: bool | None = None,
    ):
        self.value = value
        self.grad: Array | None = None
        self._parents = parents
        self._vjps = vjps
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, int]:
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
    return x if isinstance(x, Node) else Node(as_matrix(x, name), needs_grad=False)


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def matmul(a, b) -> Node:
    """Matrix product, differentiable w.r.t. both factors."""
    a, b = _as_node(a, "matmul lhs"), _as_node(b, "matmul rhs")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions {a.value.shape} x {b.value.shape} do not agree"
        )
    av, bv = a.value, b.value
    return Node(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


def transpose(a) -> Node:
    a = _as_node(a)
    return Node(np.ascontiguousarray(a.value.T), (a,), (lambda g: g.T,))


def add(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    _same_shape(a, b, "add")
    return Node(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def sub(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    _same_shape(a, b, "sub")
    return Node(a.value - b.value, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b) -> Node:
    """Elementwise (Hadamard) product."""
    a, b = _as_node(a), _as_node(b)
    _same_shape(a, b, "mul")
    av, bv = a.value, b.value
    return Node(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def add_row(a, row) -> Node:
    """Add a 1 x n row vector to every row of an m x n matrix."""
    a, row = _as_node(a), _as_node(row, "row")
    if row.value.shape != (1, a.value.shape[1]):
        raise ShapeError(
            f"add_row: row shape {row.value.shape} does not match columns of {a.value.shape}"
        )
    return Node(
        a.value + row.value,
        (a, row),
        (lambda g: g, lambda g: g.sum(axis=0, keepdims=True)),
    )


def scale(a, c: float) -> Node:
    a = _as_node(a)
    c = float(c)
    return Node(a.value * c, (a,), (lambda g: g * c,))


def add_scalar(a, c: float) -> Node:
    a = _as_node(a)
    return Node(a.value + float(c), (a,), (lambda g: g,))


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
    """Sum every entry into a 1 x 1 matrix."""
    a = _as_node(a)
    av = a.value
    out = np.array([[av.sum()]])
    return Node(out, (a,), (lambda g: np.full_like(av, g[0, 0]),))


def div_cols(a, denom) -> Node:
    """Divide each column j of a by denom[0, j]."""
    a, denom = _as_node(a), _as_node(denom, "denominator")
    if denom.value.shape != (1, a.value.shape[1]):
        raise ShapeError(
            f"div_cols: denominator shape {denom.value.shape} does not match columns"
            f" of {a.value.shape}"
        )
    av, dv = a.value, denom.value
    out = av / dv
    return Node(
        out,
        (a, denom),
        (
            lambda g: g / dv,
            lambda g: -(g * av / (dv * dv)).sum(axis=0, keepdims=True),
        ),
    )


def softmax(m, axis: str, tau: float) -> Node:
    """Temperature softmax; each slice along `axis` becomes a distribution.

    axis="rows" normalizes every row, axis="cols" every column. The max of
    each slice is subtracted before exponentiation, which leaves the result
    unchanged but keeps exp() in range.
    """
    if axis == "cols":
        return transpose(softmax(transpose(m), "rows", tau))
    if axis != "rows":
        raise ConfigError(f'softmax: axis must be "rows" or "cols", got {axis!r}')
    tau = float(tau)
    if tau <= 0.0:
        raise ConfigError(f"softmax: temperature must be positive, got {tau}")
    m = _as_node(m)
    z = m.value
    shifted = (z - z.max(axis=1, keepdims=True)) / tau
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array) -> Array:
        inner = (g * p).sum(axis=1, keepdims=True)
        return p * (g - inner) / tau

    return Node(p, (m,), (vjp,))


def l2_normalize_rows(m) -> Node:
    """Scale each row to unit Euclidean norm."""
    m = _as_node(m)
    v = m.value
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    small = norms[:, 0] <= _NORM_FLOOR
    if small.any():
        idx = int(np.argmax(small))
        raise DegenerateInputError(f"l2_normalize_rows: row {idx} has near-zero norm")
    y = v / norms

    def vjp(g: Array) -> Array:
        dots = (g * y).sum(axis=1, keepdims=True)
        return (g - y * dots) / norms

    return Node(y, (m,), (vjp,))


def layer_norm_rows(m, gain, bias, eps: float = 1e-5) -> Node:
    """Per-row standardization followed by an affine map.

    gain and bias are 1 x n; variance is the population variance over the
    n columns of each row.
    """
    if float(eps) <= 0.0:
        raise ConfigError(f"layer_norm_rows: eps must be positive, got {eps}")
    m, gain, bias = _as_node(m), _as_node(gain, "gain"), _as_node(bias, "bias")
    n = m.value.shape[1]
    if gain.value.shape != (1, n) or bias.value.shape != (1, n):
        raise ShapeError(
            f"layer_norm_rows: gain {gain.value.shape} / bias {bias.value.shape}"
            f" do not match {m.value.shape}"
        )
    v = m.value
    mean = v.mean(axis=1, keepdims=True)
    var = ((v - mean) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (v - mean) * inv_std
    out = xhat * gain.value + bias.value
    gv = gain.value

    def vjp_m(g: Array) -> Array:
        dxhat = g * gv
        term = dxhat - dxhat.mean(axis=1, keepdims=True)
        term -= xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        return term * inv_std

    return Node(
        out,
        (m, gain, bias),
        (
            vjp_m,
            lambda g: (g * xhat).sum(axis=0, keepdims=True),
            lambda g: g.sum(axis=0, keepdims=True),
        ),
    )


def cross_entropy_rows(pred, target) -> Node:
    """Mean over rows of -sum_j target_ij * log(pred_ij).

    Predictions are probabilities by contract; before the log they are
    clamped below at 1e-12 and above at 1, and entries within ONE_SNAP of
    1 are treated as exactly 1. The guards keep the loss non-negative for
    one-hot targets and make a numerically perfect round trip score an
    exact zero; they only matter within rounding error of the boundaries.
    """
    pred, target = _as_node(pred, "pred"), _as_node(target, "target")
    _same_shape(pred, target, "cross_entropy_rows")
    p, q = pred.value, target.value
    rows = p.shape[0]
    pc = np.clip(p, LOG_CLAMP, 1.0)
    pc[np.abs(p - 1.0) <= ONE_SNAP] = 1.0
    logp = np.log(pc)
    out = np.array([[-(q * logp).sum() / rows]])
    interior = (p > LOG_CLAMP) & (pc < 1.0)

    def vjp_pred(g: Array) -> Array:
        return g[0, 0] * (-(q / pc) * interior) / rows

    def vjp_target(g: Array) -> Array:
        return g[0, 0] * (-logp) / rows

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
