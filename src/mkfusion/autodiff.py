"""Dense float64 tensors with a reverse-mode tape, Adam, and weight clipping.

Every numeric value in the package flows through :class:`Tensor`. While
gradients are enabled, every operation is recorded on a single module-level
tape; ``no_grad`` is the only switch that turns recording off.
``backward(loss, wrt=tensors)`` replays only the part of the tape that lies
on a path from ``tensors`` to ``loss`` and returns the gradients as arrays,
one per tensor; no tensor holds gradient state. The tape is cleared
explicitly by the caller between training steps.

Each recorded op has a vector-Jacobian product ``vjp(g, need)``: ``g`` is the
gradient of the loss with respect to the op's output, and ``need`` holds one
bool per input, true when that input lies on a path from ``wrt``. The vjp
returns one entry per input: the gradient for each needed input and ``None``
for the rest, which it does not compute (data batches, and parameters that
are not in ``wrt``).

Finiteness is checked at the boundaries, not per op. A ``Tensor`` built from
caller data rejects NaN and infinity; the output of an op is not scanned,
because it is computed from tensors that were checked when they entered. A
value that overflows inside the tape reaches the caller's own check: the
per-loop loss check in ``trainer.train``, the stability scores in
``genetics.stability_scores``, the prototypes in
``evaluation.synthesize_prototypes``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray
# vjp(output gradient, which inputs need a gradient) -> one gradient or None per input.
Vjp = Callable[[Array, tuple[bool, ...]], tuple[Array | None, ...]]


class Tensor:
    """A dense real-valued array, stored row-major in float64.

    A tensor built from caller data must be finite; op outputs are built
    without that scan. It holds the caller's array, or a copy of it if that
    array is a view of another's memory. Whether an op on it is taped depends
    only on ``no_grad``, and which tensors are differentiated only on
    ``backward``'s ``wrt``. Recording an op makes the arrays it read and wrote
    read-only, so taped data changes only by assigning a new array to
    ``data``, which ``backward`` then refuses to replay.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        arr = arr if arr.base is None else arr.copy()
        if not np.isfinite(arr).all():
            raise ValueError("tensor data contains non-finite entries")
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)


class _Node:
    """One recorded operation: inputs, output, vjp, and the arrays the inputs
    and the output held when it was recorded, now read-only."""

    __slots__ = ("inputs", "output", "vjp", "arrays")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor, vjp: Vjp):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp
        self.arrays = [t.data for t in (*inputs, output)]
        for arr in self.arrays:
            arr.setflags(write=False)


# Append-only record of the forward pass; acyclic because inputs precede outputs.
_graph: list[_Node] = []
_grad_enabled = True


def active_graph() -> list[_Node]:
    return _graph


def clear_graph() -> None:
    _graph.clear()


@contextlib.contextmanager
def no_grad():
    """Record no operation within the block; outputs are untaped leaves."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _record(inputs: tuple[Tensor, ...], value: Array, vjp: Vjp) -> Tensor:
    # ``value`` is float64 computed from checked tensors, so the output
    # skips ``Tensor.__init__``'s conversion and finiteness scan. Arithmetic
    # on 0-d arrays yields a numpy scalar, which is wrapped back into one.
    if type(value) is not np.ndarray:
        value = np.asarray(value)
    out = object.__new__(Tensor)
    out.data = value
    if _grad_enabled:
        _graph.append(_Node(inputs, out, vjp))
    return out


def _require_shape(cond: bool, op: str, *shapes: tuple[int, ...]) -> None:
    if not cond:
        raise ValueError(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, *, bias: Tensor) -> Tensor:
    """``a @ b`` with ``bias`` added to every row: one dense layer, one node."""
    _require_shape(a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0]
                   and bias.shape == (b.shape[1],), "matmul", a.shape, b.shape, bias.shape)
    ad, bd = a.data, b.data
    out = ad @ bd
    out += bias.data  # in place on the fresh product, before it is recorded

    def vjp(g: Array, need):
        return (g @ bd.T if need[0] else None, ad.T @ g if need[1] else None,
                g.sum(axis=0) if need[2] else None)

    return _record((a, b, bias), out, vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    # Equal shapes only: a dense layer's bias is added by ``matmul``.
    _require_shape(a.shape == b.shape, "add", a.shape, b.shape)
    return _record((a, b), a.data + b.data,
                   lambda g, need: (g if need[0] else None, g if need[1] else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_shape(a.shape == b.shape, "sub", a.shape, b.shape)
    return _record((a, b), a.data - b.data,
                   lambda g, need: (g if need[0] else None, -g if need[1] else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    # Equal shapes, or matrix * column vector (each row scaled by one entry).
    ad, bd = a.data, b.data
    if a.shape == b.shape:
        return _record((a, b), ad * bd, lambda g, need: (g * bd if need[0] else None,
                                                         g * ad if need[1] else None))
    _require_shape(a.ndim == 2 and b.shape == (a.shape[0], 1), "mul", a.shape, b.shape)

    def vjp(g: Array, need):
        return (g * bd if need[0] else None,
                (g * ad).sum(axis=1, keepdims=True) if need[1] else None)

    return _record((a, b), ad * bd, vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    _require_shape(a.shape == b.shape, "div", a.shape, b.shape)
    ad, bd = a.data, b.data

    def vjp(g: Array, need):
        return g / bd if need[0] else None, -g * ad / (bd * bd) if need[1] else None

    return _record((a, b), ad / bd, vjp)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record((a,), a.data * c, lambda g, need: (g * c,))


def reduce_mean(a: Tensor) -> Tensor:
    n = a.data.size
    shape = a.shape
    return _record((a,), np.asarray(a.data.mean()),
                   lambda g, need: (np.full(shape, g / n),))


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.shape
    return _record((a,), np.asarray(a.data.sum()),
                   lambda g, need: (np.full(shape, g),))


def square(a: Tensor) -> Tensor:
    ad = a.data
    return _record((a,), ad * ad, lambda g, need: (2.0 * ad * g,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    ad = a.data
    return _record((a,), np.log(ad), lambda g, need: (g / ad,))


def sigmoid(a: Tensor) -> Tensor:
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _record((a,), out, lambda g, need: (g * out * (1.0 - out),))


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    """x where x > 0, else alpha * x; ``alpha`` must lie in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"leaky_relu: alpha must lie in [0, 1], got {alpha!r}")
    ad = a.data
    # For 0 <= alpha <= 1 the larger of x and alpha*x is the leaky-relu, and the
    # larger of sign(x) and alpha is its slope (alpha at x = 0).
    return _record((a,), np.maximum(ad, alpha * ad),
                   lambda g, need: (g * np.maximum(np.sign(ad), alpha),))


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; rows are strictly positive and sum to 1."""
    _require_shape(a.ndim == 2, "softmax", a.shape)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array, need):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _record((a,), out, vjp)


def l2_squared_distance(a: Tensor, b: Tensor) -> Tensor:
    """Total squared distance sum((a - b)^2) over all entries, as a scalar."""
    _require_shape(a.shape == b.shape, "l2_squared_distance", a.shape, b.shape)
    diff = a.data - b.data

    def vjp(g: Array, need):
        return 2.0 * diff * g if need[0] else None, -2.0 * diff * g if need[1] else None

    return _record((a, b), np.asarray((diff * diff).sum()), vjp)


def cross_entropy_with_logits(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax."""
    _require_shape(logits.ndim == 2, "cross_entropy_with_logits", logits.shape)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"cross_entropy_with_logits: expected {n} labels, got {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValueError("cross_entropy_with_logits: label out of range")
    x = logits.data
    xmax = x.max(axis=1, keepdims=True)
    lse = xmax[:, 0] + np.log(np.exp(x - xmax).sum(axis=1))
    picked = x[np.arange(n), labels]
    out = np.asarray((lse - picked).mean())

    def vjp(g: Array, need):
        probs = np.exp(x - xmax)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        return (probs * (g / n),)

    return _record((logits,), out, vjp)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between two 1-D vectors, as a scalar in [-1, 1]."""
    _require_shape(a.ndim == 1 and a.shape == b.shape, "cosine_similarity", a.shape, b.shape)
    ad, bd = a.data, b.data
    na = float(np.linalg.norm(ad))
    nb = float(np.linalg.norm(bd))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_similarity: undefined for zero-norm vector")
    cos = float(ad @ bd) / (na * nb)

    def vjp(g: Array, need):
        ga = (bd / (na * nb) - cos * ad / (na * na)) * g if need[0] else None
        gb = (ad / (na * nb) - cos * bd / (nb * nb)) * g if need[1] else None
        return ga, gb

    return _record((a, b), np.asarray(cos), vjp)


OPS: dict[str, Callable[..., Tensor]] = {
    "matmul": matmul,
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "scalar-mul": scalar_mul,
    "mean": reduce_mean,
    "sum": reduce_sum,
    "square": square,
    "log": log,
    "sigmoid": sigmoid,
    "leaky-relu": leaky_relu,
    "softmax": softmax,
    "l2-squared-distance": l2_squared_distance,
    "cross-entropy-with-logits": cross_entropy_with_logits,
    "cosine-similarity": cosine_similarity,
}


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor, *, wrt: Sequence[Tensor]) -> list[Array]:
    """d(loss)/d(t) for each tensor ``t`` in ``wrt``, in order.

    ``wrt`` holds tensors that no taped op produced, such as parameters. Only
    tape nodes on a path from ``wrt`` to ``loss`` run their vjp, and each vjp
    computes gradients only for its inputs on such a path. Raises if ``loss``
    does not depend on some ``wrt[i]``.
    """
    if loss.shape != ():
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    live = {id(t) for t in wrt}  # tensors that depend on some wrt tensor
    path = []
    for node in _graph:
        if not live.isdisjoint(map(id, node.inputs)):
            live.add(id(node.output))
            path.append(node)
        if node.output is loss:
            break
    else:
        raise ValueError("backward: loss is not on the active graph")

    pending: dict[int, Array] = {id(loss): np.ones(())}
    for node in reversed(path):
        g = pending.pop(id(node.output), None)
        if g is None:
            continue
        if any(t.data is not arr for t, arr in zip((*node.inputs, node.output), node.arrays)):
            raise ValueError(f"backward: a tensor of a taped op (output shape "
                             f"{node.output.shape}) was changed after the op was recorded")
        need = tuple(id(t) in live for t in node.inputs)
        for tensor, gin in zip(node.inputs, node.vjp(g, need)):
            if gin is not None:
                acc = pending.get(id(tensor))
                pending[id(tensor)] = gin if acc is None else acc + gin
    for i, t in enumerate(wrt):
        if id(t) not in pending:
            raise ValueError(f"backward: loss does not depend on wrt[{i}]")
    return [pending[id(t)] for t in wrt]


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.9
ADAM_EPS = 1e-8


class AdamState:
    """Adam with bias correction over a fixed parameter list.

    First and second moment arrays track the parameters positionally and are
    updated in place; each parameter is assigned a new array. The step count
    increases by one per ``step`` call.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: Sequence[Array]) -> None:
        """Update each parameter from the gradient at the same position."""
        if len(grads) != len(self.params):
            raise ValueError(f"adam step: {len(grads)} gradients for "
                             f"{len(self.params)} parameters")
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        # m and v in place and p as a new array (a taped one is read-only),
        # keeping the operation order (and so the bits) of
        #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        #   p = p - (lr * (m / (1-b1**t))) / (sqrt(v / (1-b2**t)) + eps)
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            gg = (1.0 - b2) * g
            gg *= g
            v += gg
            update = m / (1.0 - b1 ** t)
            update *= self.lr
            denom = np.sqrt(v / (1.0 - b2 ** t))
            denom += ADAM_EPS
            update /= denom
            p.data = np.asarray(p.data - update)  # a 0-d difference is a numpy scalar


def clip_weights(params: Iterable[Tensor], c: float) -> None:
    """Clamp every entry of every parameter into [-c, c]."""
    if c <= 0.0:
        raise ValueError("clip constant must be positive")
    for p in params:
        p.data = np.clip(p.data, -c, c)
