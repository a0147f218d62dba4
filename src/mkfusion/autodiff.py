"""Dense float64 tensors with a reverse-mode tape, Adam, and weight clipping.

Every numeric value in the package flows through :class:`Tensor`. Operations
are recorded on a single module-level tape while gradients are enabled;
``backward`` replays the tape in reverse and accumulates gradients into the
participating leaf tensors. The tape is cleared explicitly by the caller
between training steps.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray


class Tensor:
    """A dense real-valued array that can participate in gradient taping.

    Data is stored row-major in float64. ``grad`` stays ``None`` until a
    backward pass deposits into it; deposits accumulate additively until the
    caller zeroes them.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data contains non-finite entries")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __neg__(self) -> "Tensor":
        return scalar_mul(self, -1.0)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Node:
    """One recorded operation: inputs, produced output, and its vector-Jacobian product."""

    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor,
                 vjp: Callable[[Array], tuple[Array | None, ...]]):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


# Append-only record of the forward pass; acyclic because inputs precede outputs.
_graph: list[_Node] = []
_grad_enabled = True


def active_graph() -> list[_Node]:
    return _graph


def clear_graph() -> None:
    _graph.clear()


@contextlib.contextmanager
def no_grad():
    """Disable taping within the block; outputs become constant leaves."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _record(inputs: tuple[Tensor, ...], out_data: Array,
            vjp: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.is_leaf = False
        _graph.append(_Node(inputs, out, vjp))
    return out


def _require_shape(cond: bool, op: str, *shapes: tuple[int, ...]) -> None:
    if not cond:
        raise ValueError(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_shape(a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0],
                   "matmul", a.shape, b.shape)
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return g @ bd.T, ad.T @ g

    return _record((a, b), ad @ bd, vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    # Equal shapes, or matrix + row vector (bias added to every row).
    if a.shape == b.shape:
        return _record((a, b), a.data + b.data, lambda g: (g, g))
    _require_shape(a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0],
                   "add", a.shape, b.shape)
    return _record((a, b), a.data + b.data, lambda g: (g, g.sum(axis=0)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_shape(a.shape == b.shape, "sub", a.shape, b.shape)
    return _record((a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    # Equal shapes, or matrix * column vector (each row scaled by one entry).
    if a.shape == b.shape:
        ad, bd = a.data, b.data
        return _record((a, b), ad * bd, lambda g: (g * bd, g * ad))
    _require_shape(a.ndim == 2 and b.shape == (a.shape[0], 1), "mul", a.shape, b.shape)
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return g * bd, (g * ad).sum(axis=1, keepdims=True)

    return _record((a, b), ad * bd, vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    _require_shape(a.shape == b.shape, "div", a.shape, b.shape)
    ad, bd = a.data, b.data
    out = ad / bd

    def vjp(g: Array):
        return g / bd, -g * ad / (bd * bd)

    return _record((a, b), out, vjp)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record((a,), a.data * c, lambda g: (g * c,))


def reduce_mean(a: Tensor) -> Tensor:
    n = a.data.size
    shape = a.shape
    return _record((a,), np.asarray(a.data.mean()),
                   lambda g: (np.full(shape, g / n),))


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.shape
    return _record((a,), np.asarray(a.data.sum()),
                   lambda g: (np.full(shape, g),))


def square(a: Tensor) -> Tensor:
    ad = a.data
    return _record((a,), ad * ad, lambda g: (2.0 * ad * g,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    ad = a.data
    return _record((a,), np.log(ad), lambda g: (g / ad,))


def sigmoid(a: Tensor) -> Tensor:
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _record((a,), out, lambda g: (g * out * (1.0 - out),))


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    ad = a.data
    positive = ad > 0.0
    return _record((a,), np.where(positive, ad, alpha * ad),
                   lambda g: (np.where(positive, g, alpha * g),))


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; rows are strictly positive and sum to 1."""
    _require_shape(a.ndim == 2, "softmax", a.shape)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _record((a,), out, vjp)


def l2_squared_distance(a: Tensor, b: Tensor) -> Tensor:
    """Total squared distance sum((a - b)^2) over all entries, as a scalar."""
    _require_shape(a.shape == b.shape, "l2_squared_distance", a.shape, b.shape)
    diff = a.data - b.data

    def vjp(g: Array):
        return 2.0 * diff * g, -2.0 * diff * g

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

    def vjp(g: Array):
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

    def vjp(g: Array):
        ga = (bd / (na * nb) - cos * ad / (na * na)) * g
        gb = (ad / (na * nb) - cos * bd / (nb * nb)) * g
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

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf on the tape.

    Repeated calls keep adding into ``grad`` until the caller zeroes it.
    """
    if loss.shape != ():
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    start = None
    for i in range(len(_graph) - 1, -1, -1):
        if _graph[i].output is loss:
            start = i
            break
    if start is None:
        raise ValueError("backward: loss is not on the active graph")

    pending: dict[int, Array] = {id(loss): np.ones(())}
    for node in reversed(_graph[: start + 1]):
        g = pending.pop(id(node.output), None)
        if g is None:
            continue
        for tensor, gin in zip(node.inputs, node.vjp(g)):
            if gin is None or not tensor.requires_grad:
                continue
            if tensor.is_leaf:
                if tensor.grad is None:
                    tensor.grad = np.zeros_like(tensor.data)
                tensor.grad += gin
            else:
                acc = pending.get(id(tensor))
                pending[id(tensor)] = gin if acc is None else acc + gin


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

class AdamState:
    """Adam with bias correction over a fixed parameter list.

    First and second moment arrays track the parameters positionally; the
    step count increases by one per ``step`` call.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.5, beta2: float = 0.9, eps: float = 1e-8):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise ValueError("adam step: parameter has no gradient")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1 ** t)
            v_hat = self.v[i] / (1.0 - b2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self) -> dict:
        """Serializable snapshot of the moment arrays and step counter."""
        return {
            "step_count": self.step_count,
            "m": [a.tolist() for a in self.m],
            "v": [a.tolist() for a in self.v],
        }

    def load_state_arrays(self, state: dict) -> None:
        self.step_count = int(state["step_count"])
        self.m = [np.asarray(a, dtype=np.float64).reshape(p.data.shape)
                  for a, p in zip(state["m"], self.params)]
        self.v = [np.asarray(a, dtype=np.float64).reshape(p.data.shape)
                  for a, p in zip(state["v"], self.params)]


def clip_weights(params: Iterable[Tensor], c: float) -> None:
    """Clamp every entry of every parameter into [-c, c] in place."""
    if c <= 0.0:
        raise ValueError("clip constant must be positive")
    for p in params:
        np.clip(p.data, -c, c, out=p.data)
