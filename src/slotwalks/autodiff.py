"""Dense-matrix numerics with reverse-mode differentiation.

Values are float64 numpy arrays of at least two dimensions: an n x m
matrix, or a stack of them (... x n x m) whose leading axes are batch
axes; a 2-D value is the no-batch case of the same ops. Differentiable
computations build a graph of `Node` objects; `backward` fills in the
gradient of a scalar loss with respect to every leaf created by `leaf`.
Graphs are rebuilt from scratch for every loss evaluation and walked
exactly once, which keeps replay deterministic. `backward` consumes the
graph as it walks it, so activations are freed during the walk:
afterwards an op node's `grad` is None, only leaves keep gradients, and a
second `backward` over a spent graph raises.

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

_NORM_FLOOR = 1e-12
# added to each row's variance in layer_norm_rows
LAYER_NORM_EPS = 1e-5
# central-difference step of finite_difference_gradients
FD_STEP = 1e-5
# check_gradients' relative-error denominator floor, which keeps near-zero
# gradients from dividing by finite-difference noise
GRAD_ERROR_FLOOR = 1e-6


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

    `value` holds the forward result. A leaf's `grad` holds d(loss)/d(value)
    (zeros until a `backward` reaches it); an op's `grad` is None outside
    `backward`. `_vjps[i]` maps the output gradient to the i-th parent's
    gradient. A node that needs no gradient keeps neither, so the arrays
    its vjps hold are freed as soon as nothing else reads them; `backward`
    drops both from each op it passes, which leaves the op spent.
    """

    __slots__ = ("value", "grad", "needs_grad", "_op", "_parents", "_vjps", "__weakref__")

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
        self._op = bool(parents)
        self._parents = parents if needs_grad else ()
        self._vjps = vjps if needs_grad else ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def _spent(self) -> bool:
        """An op whose parents a `backward` has dropped."""
        return self._op and self.needs_grad and not self._parents

    def __repr__(self) -> str:
        if self._spent():
            kind = "spent op"
        elif self._op:
            kind = "op"
        else:
            kind = "leaf" if self.needs_grad else "constant"
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


def add(a, b) -> Node:
    """Elementwise sum under numpy broadcasting (a 1 x n row, a number)."""
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    out = _broadcast("add", np.add, av, bv)
    return Node(out, (a, b), (lambda g: _sum_to(g, av.shape), lambda g: _sum_to(g, bv.shape)))


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


def layer_norm_rows(m, gain) -> Node:
    """Per-row standardization scaled by gain.

    gain is 1 x n, shared by every row of a stack; variance is the
    population variance over the n columns of each row, plus LAYER_NORM_EPS.
    """
    m, gain = _as_node(m), _as_node(gain, "gain")
    n = m.value.shape[-1]
    if gain.value.shape != (1, n):
        raise ShapeError(f"layer_norm_rows: gain {gain.value.shape} does not match {m.value.shape}")
    v = m.value
    mean = v.mean(axis=-1, keepdims=True)
    var = ((v - mean) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    gv = gain.value

    # the vjps recompute the standardized rows instead of holding them, so
    # the graph keeps one array of m's size here: the output
    def xhat() -> Array:
        return (v - mean) * inv_std

    def vjp_m(g: Array) -> Array:
        x = xhat()
        dxhat = g * gv
        term = dxhat - dxhat.mean(axis=-1, keepdims=True)
        term -= x * (dxhat * x).mean(axis=-1, keepdims=True)
        return term * inv_std

    def vjp_gain(g: Array) -> Array:
        return (g * xhat()).reshape(-1, n).sum(axis=0, keepdims=True)

    return Node(xhat() * gv, (m, gain), (vjp_m, vjp_gain))


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable trainable leaf.

    The loss must be 1 x 1. Gradients of the leaves on the path are reset
    before accumulation, so a leaf may feed a fresh graph after an earlier
    backward. Contributions are summed out of place: a vjp may return its
    input or a view of it.

    The walk consumes the graph. Once an op node's gradient has been pushed
    to its parents, the node drops its gradient, parents and vjps, so each
    activation and interior gradient is freed as soon as nothing upstream
    needs it. Afterwards every op node's `grad` is None, the loss's
    included, and only leaves hold gradients. A second backward over any
    part of a spent graph raises RuntimeError.
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
        if node._spent():
            raise RuntimeError("backward: the graph was consumed by an earlier backward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.needs_grad:
                stack.append((p, False))
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    while order:
        node = order.pop()
        g = node.grad
        for parent, vjp in zip(node._parents, node._vjps):
            if parent.needs_grad:
                parent.grad = vjp(g) if parent.grad is None else parent.grad + vjp(g)
        if node._op:
            node.grad = None
            node._parents = node._vjps = ()


def finite_difference_gradients(
    make_loss: Callable[[Mapping[str, Node]], Node],
    params: Mapping[str, Array],
) -> dict[str, Array]:
    """Central-difference gradient of the loss for every parameter entry, with step FD_STEP.

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
            flat[i] = orig + FD_STEP
            hi = evaluate()
            flat[i] = orig - FD_STEP
            lo = evaluate()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * FD_STEP)
        grads[name] = g.reshape(work[name].shape)
    return grads


def check_gradients(
    make_loss: Callable[[Mapping[str, Node]], Node],
    params: Mapping[str, Array],
) -> dict[str, float]:
    """Max relative error per parameter between graph and finite-difference grads.

    Relative error of entries a (graph) and b (finite difference) is
    |a - b| / max(|a|, |b|, GRAD_ERROR_FLOOR). A non-finite error (a NaN
    or infinite gradient on either side) is reported as inf, so that a
    max over the errors, or a comparison with a tolerance, cannot drop it.
    """
    nodes = {k: leaf(v) for k, v in params.items()}
    loss = make_loss(nodes)
    backward(loss)
    fd = finite_difference_gradients(make_loss, params)
    out: dict[str, float] = {}
    for name in params:
        a, b = nodes[name].grad, fd[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), GRAD_ERROR_FLOOR)
        err = float(np.max(np.abs(a - b) / denom))
        out[name] = err if math.isfinite(err) else math.inf
    return out

