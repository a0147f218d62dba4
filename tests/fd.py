"""Central finite-difference gradient oracle shared by the test modules.

The oracle never touches the tape: losses are re-evaluated forward-only under
``no_grad`` while one leaf coordinate is perturbed at a time.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from mkfusion import autodiff as ad


def fd_gradient(loss_fn: Callable[[], ad.Tensor], leaf: ad.Tensor,
                index: tuple[int, ...], h: float = 1e-5) -> float:
    """d(loss)/d(leaf[index]) by central differences around the current value.

    The leaf's array may be read-only (an op has recorded it), so the leaf
    holds a perturbed copy while the loss is evaluated, and its original
    array object afterwards.
    """
    original = leaf.data
    perturbed = original.copy()
    try:
        with ad.no_grad():
            leaf.data = perturbed
            perturbed[index] = original[index] + h
            f_plus = loss_fn().item()
            perturbed[index] = original[index] - h
            f_minus = loss_fn().item()
    finally:
        leaf.data = original
    return (f_plus - f_minus) / (2.0 * h)


def assert_grads_match(loss_fn: Callable[[], ad.Tensor], leaves: Sequence[ad.Tensor],
                       rng: np.random.Generator, coords_per_leaf: int = 0,
                       h: float = 1e-5, rel_tol: float = 1e-4,
                       abs_floor: float = 1e-6,
                       grads: Sequence[np.ndarray] | None = None) -> int:
    """Compare taped gradients of ``loss_fn``, or the given ``grads`` of it,
    against the oracle.

    Checks every coordinate when ``coords_per_leaf`` is 0, otherwise a random
    sample per leaf. Returns the number of coordinates checked.
    """
    if grads is None:
        ad.clear_graph()
        grads = ad.backward(loss_fn(), wrt=leaves)
        ad.clear_graph()
    checked = 0
    for leaf, grad in zip(leaves, grads):
        all_coords = list(np.ndindex(leaf.data.shape))
        if coords_per_leaf and len(all_coords) > coords_per_leaf:
            picks = rng.choice(len(all_coords), size=coords_per_leaf, replace=False)
            coords = [all_coords[i] for i in picks]
        else:
            coords = all_coords
        for index in coords:
            numeric = fd_gradient(loss_fn, leaf, index, h=h)
            analytic = float(grad[index])
            tol = max(abs_floor, rel_tol * max(abs(numeric), abs(analytic)))
            assert abs(numeric - analytic) <= tol, (
                f"gradient mismatch at {index}: analytic {analytic!r} vs "
                f"finite-difference {numeric!r}")
            checked += 1
    return checked
