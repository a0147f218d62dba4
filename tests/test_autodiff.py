import itertools

import numpy as np
import pytest

from mkfusion import autodiff as ad
from fd import assert_grads_match


@pytest.fixture(autouse=True)
def fresh_graph():
    ad.clear_graph()
    yield
    ad.clear_graph()


def t(data):
    return ad.Tensor(np.asarray(data, dtype=np.float64))


class TestForward:
    def test_matmul_identity(self):
        out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t(np.eye(2)), bias=t(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_analytic_pointwise_values(self):
        assert ad.sigmoid(t([0.0])).data[0] == 0.5
        assert ad.leaky_relu(t([-1.0]), alpha=0.2).data[0] == pytest.approx(-0.2)
        assert ad.leaky_relu(t([2.0]), alpha=0.2).data[0] == 2.0

    def test_softmax_symmetry(self):
        out = ad.softmax(t([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        out = ad.softmax(t(rng.normal(0, 5, (1000, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out.data > 0.0)

    def test_shape_mismatch_reports_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))), bias=t(np.zeros(3)))
        with pytest.raises(ValueError):
            ad.sub(t(np.zeros(3)), t(np.zeros(4)))
        with pytest.raises(ValueError) as err:
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((3, 4))), bias=t(np.zeros(5)))
        assert str(err.value) == "matmul: incompatible shapes (2, 3) vs (3, 4) vs (5,)"
        # A bias goes through matmul only: add takes equal shapes.
        with pytest.raises(ValueError) as err:
            ad.add(t(np.zeros((2, 4))), t(np.zeros(4)))
        assert str(err.value) == "add: incompatible shapes (2, 4) vs (4,)"
        assert ad.active_graph() == []

    def test_matmul_bias_is_keyword_only_and_required(self):
        x, w, b = t(np.zeros((2, 3))), t(np.zeros((3, 4))), t(np.zeros(4))
        with pytest.raises(TypeError):
            ad.matmul(x, w)
        with pytest.raises(TypeError):
            ad.matmul(x, w, b)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.Tensor([np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            ad.Tensor([np.inf, 1.0])

    def test_log_domain(self):
        with pytest.raises(ValueError, match="positive"):
            ad.log(t([1.0, 0.0]))

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            ad.cosine_similarity(t([0.0, 0.0]), t([1.0, 0.0]))

    def test_ops_table(self):
        assert len(ad.OPS) == 16
        for op in ad.OPS.values():
            assert getattr(ad, op.__name__) is op
        assert ad.OPS["scalar-mul"](t([2.0]), 3.0).data[0] == 6.0

    def test_leaky_relu_alpha_range(self):
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError, match="alpha must lie in"):
                ad.leaky_relu(t([1.0]), alpha=alpha)

    def test_cross_entropy_label_validation(self):
        logits = t(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="label out of range"):
            ad.cross_entropy_with_logits(logits, np.array([0, 3]))
        with pytest.raises(ValueError, match="expected 2 labels"):
            ad.cross_entropy_with_logits(logits, np.array([0]))


class TestBackward:
    def test_sum_gives_ones(self):
        w = t(np.arange(6.0).reshape(2, 3))
        (grad,) = ad.backward(ad.reduce_sum(w), wrt=[w])
        np.testing.assert_array_equal(grad, np.ones((2, 3)))

    def test_squared_error_derivative(self):
        w = t([3.0])
        (grad,) = ad.backward(ad.l2_squared_distance(w, t([0.0])), wrt=[w])
        np.testing.assert_allclose(grad, [6.0])

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = t(rng.normal(0, 0.5, (4, 5)))
        b1 = t(rng.normal(0, 0.5, 5))
        w2 = t(rng.normal(0, 0.5, (5, 3)))
        b2 = t(rng.normal(0, 0.5, 3))
        x = t(rng.normal(0, 1, (6, 4)))
        target = t(rng.normal(0, 1, (6, 3)))

        def loss_fn():
            h = ad.leaky_relu(ad.matmul(x, w1, bias=b1), alpha=0.2)
            out = ad.matmul(h, w2, bias=b2)
            return ad.scalar_mul(ad.l2_squared_distance(out, target), 1.0 / 6)

        assert_grads_match(loss_fn, [w1, b1, w2, b2], rng, h=1e-4)
        loss = loss_fn()
        full = ad.backward(loss, wrt=[w1, b1, w2, b2])
        subset = ad.backward(loss, wrt=[w2, b1])
        np.testing.assert_array_equal(subset[0], full[2])
        np.testing.assert_array_equal(subset[1], full[1])

    def test_linearity_of_accumulation(self):
        rng = np.random.default_rng(3)
        w = t(rng.normal(0, 1, (3, 3)))

        def loss_a():
            return ad.reduce_mean(ad.square(w))

        def loss_b():
            return ad.reduce_sum(ad.sigmoid(w))

        (ga,) = ad.backward(loss_a(), wrt=[w])
        (gb,) = ad.backward(loss_b(), wrt=[w])
        (g,) = ad.backward(ad.add(loss_a(), loss_b()), wrt=[w])
        np.testing.assert_allclose(g, ga + gb, rtol=1e-12)

    def test_repeated_backward_returns_equal_grads(self):
        w = t([2.0])
        loss = ad.reduce_sum(ad.square(w))
        first = ad.backward(loss, wrt=[w])
        second = ad.backward(loss, wrt=[w])
        np.testing.assert_array_equal(first[0], [4.0])
        np.testing.assert_array_equal(second[0], first[0])

    def test_unreached_wrt_rejected(self):
        w = t([1.0])
        unused = t([2.0])
        loss = ad.reduce_sum(ad.square(w))
        with pytest.raises(ValueError, match=r"does not depend on wrt\[1\]"):
            ad.backward(loss, wrt=[w, unused])

    def test_loss_must_be_scalar_and_on_tape(self):
        w = t([1.0, 2.0])
        vec = ad.square(w)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(vec, wrt=[w])
        detached = t(5.0)
        with pytest.raises(ValueError, match="not on the active graph"):
            ad.backward(detached, wrt=[w])

    def test_no_grad_suppresses_taping(self):
        w = t([1.0])
        with ad.no_grad():
            ad.square(w)
        assert len(ad.active_graph()) == 0


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def leaky_relu_reference(x, alpha):
    """The masked-select leaky-relu the branch-free op must reproduce bit for bit."""
    return np.where(x > 0.0, x, alpha * x)


def leaky_relu_vjp_reference(x, g, alpha):
    return np.where(x > 0.0, g, alpha * g)


class TestLeakyReluBits:
    TINY = np.finfo(np.float64).smallest_subnormal
    X = np.array([0.0, -0.0, TINY, -TINY, 7 * TINY, -7 * TINY, 1e-310, -1e-310,
                  0.5, -0.5, 3.0, -3.0, 1e300, -1e300])

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_forward_and_vjp_match_masked_select(self, alpha):
        rng = np.random.default_rng(5)
        x = np.concatenate([self.X, rng.normal(0, 1, 50)])
        grads = [np.ones_like(x), -np.ones_like(x), np.zeros_like(x), -np.zeros_like(x),
                 rng.permutation(np.resize(self.X, x.shape)), rng.normal(0, 1, x.shape)]
        out = ad.leaky_relu(t(x), alpha=alpha)
        assert bits(out.data) == bits(leaky_relu_reference(x, alpha))
        (node,) = ad.active_graph()
        for g in grads:
            (got,) = node.vjp(g, (True,))
            assert bits(got) == bits(leaky_relu_vjp_reference(x, g, alpha))


class TestVjpNeeds:
    """A vjp computes gradients only for the inputs marked as needed."""

    @pytest.mark.parametrize("case", ["matmul", "add", "sub", "mul", "mul-column", "div",
                                      "l2-squared-distance", "cosine-similarity"])
    def test_unneeded_inputs_get_none(self, case):
        rng = np.random.default_rng(hash(case) % (2 ** 31))
        inputs = OP_CASES[case](rng)
        out = (OP_BUILDERS.get(case) or ad.OPS[case])(*inputs)
        (node,) = ad.active_graph()
        g = rng.normal(0, 1, out.shape)
        every = node.vjp(g, (True,) * len(inputs))
        for need in itertools.product((False, True), repeat=len(inputs)):
            got = node.vjp(g, need)
            assert len(got) == len(inputs)
            for needed, grad, full in zip(need, got, every):
                if needed:
                    assert bits(grad) == bits(full)
                else:
                    assert grad is None

    def test_data_matrix_gradient_is_not_computed(self):
        x = t(np.ones((2, 3)))
        w = t(np.ones((3, 4)))
        loss = ad.reduce_sum(ad.matmul(x, w, bias=t(np.zeros(4))))
        calls = []
        node = ad.active_graph()[0]
        vjp = node.vjp
        node.vjp = lambda g, need: calls.append(need) or vjp(g, need)
        ad.backward(loss, wrt=[w])
        assert calls == [(False, True, False)]


OP_CASES = {
    "matmul": lambda rng: (t(rng.normal(0, 1, (3, 4))), t(rng.normal(0, 1, (4, 2))),
                           t(rng.normal(0, 1, 2))),
    "add": lambda rng: (t(rng.normal(0, 1, (3, 4))), t(rng.normal(0, 1, (3, 4)))),
    "sub": lambda rng: (t(rng.normal(0, 1, (3, 4))), t(rng.normal(0, 1, (3, 4)))),
    "mul": lambda rng: (t(rng.normal(0, 1, (3, 4))), t(rng.normal(0, 1, (3, 4)))),
    "mul-column": lambda rng: (t(rng.normal(0, 1, (3, 4))), t(rng.normal(0, 1, (3, 1)))),
    "div": lambda rng: (t(rng.normal(0, 1, (3, 4))),
                        t(rng.uniform(0.5, 2.0, (3, 4)))),
    "scalar-mul": lambda rng: (t(rng.normal(0, 1, (3, 4))),),
    "mean": lambda rng: (t(rng.normal(0, 1, (3, 4))),),
    "sum": lambda rng: (t(rng.normal(0, 1, (3, 4))),),
    "square": lambda rng: (t(rng.normal(0, 1, (3, 4))),),
    "log": lambda rng: (t(rng.uniform(0.2, 3.0, (3, 4))),),
    "sigmoid": lambda rng: (t(rng.normal(0, 2, (3, 4))),),
    "leaky-relu": lambda rng: (t(rng.normal(0, 1, (3, 4)) + np.sign(rng.normal(0, 1, (3, 4))) * 0.2),),
    "softmax": lambda rng: (t(rng.normal(0, 1, (3, 4))),),
    "l2-squared-distance": lambda rng: (t(rng.normal(0, 1, (3, 4))),
                                        t(rng.normal(0, 1, (3, 4)))),
    "cross-entropy-with-logits": lambda rng: (t(rng.normal(0, 1, (5, 4))),),
    "cosine-similarity": lambda rng: (t(rng.normal(0, 1, 5) + 1.0),
                                      t(rng.normal(0, 1, 5) + 1.0)),
}

OP_BUILDERS = {
    "matmul": lambda a, b, bias: ad.matmul(a, b, bias=bias),
    "mul-column": ad.mul,
}


@pytest.mark.parametrize("case", sorted(OP_CASES))
def test_every_op_gradient_matches_finite_differences(case):
    rng = np.random.default_rng(hash(case) % (2 ** 31))
    inputs = OP_CASES[case](rng)
    op = OP_BUILDERS.get(case) or ad.OPS[case]
    attrs = {}
    if case == "scalar-mul":
        attrs = {"c": 1.7}
    elif case == "leaky-relu":
        attrs = {"alpha": 0.2}
    elif case == "cross-entropy-with-logits":
        attrs = {"labels": rng.integers(0, 4, size=5)}
    weights = None

    def loss_fn():
        nonlocal weights
        out = op(*inputs, **attrs)
        if out.shape == ():
            return out
        if weights is None:
            weights = t(rng.normal(0, 1, out.shape))
        return ad.reduce_sum(ad.mul(out, weights))

    assert_grads_match(loss_fn, list(inputs), rng)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = t([1.0, -2.0])
        state = ad.AdamState([p], lr=0.1)
        state.step([np.zeros(2)])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_moves_by_learning_rate(self):
        # Hand evaluation with beta1=0.5, beta2=0.9: m_hat = v_hat = g on step 1,
        # so the update is -lr * g / (|g| + eps).
        p = t([0.0])
        state = ad.AdamState([p], lr=0.1)
        state.step([np.array([1.0])])
        assert p.data[0] == pytest.approx(-0.1, abs=1e-6)

    def test_two_steps_decrease_convex_quadratic(self):
        p = t([5.0])
        state = ad.AdamState([p], lr=0.1)
        losses = []
        for _ in range(2):
            ad.clear_graph()
            loss = ad.l2_squared_distance(p, t([3.0]))
            losses.append(loss.item())
            state.step(ad.backward(loss, wrt=[p]))
        final = ad.l2_squared_distance(p, t([3.0])).item()
        assert losses[1] < losses[0]
        assert final < losses[1]

    def test_gradient_count_must_match_params(self):
        p = t([1.0])
        state = ad.AdamState([p])
        with pytest.raises(ValueError, match="2 gradients for 1 parameters"):
            state.step([np.zeros(1), np.zeros(1)])
        with pytest.raises(ValueError, match="0 gradients for 1 parameters"):
            state.step([])
        assert state.step_count == 0


def adam_reference(params, m, v, grads, t, lr=1e-3, b1=0.5, b2=0.9, eps=1e-8):
    """The out-of-place Adam step the in-place update must reproduce bit for bit."""
    out = []
    for p, mi, vi, g in zip(params, m, v, grads):
        mi = b1 * mi + (1.0 - b1) * g
        vi = b2 * vi + (1.0 - b2) * g * g
        m_hat = mi / (1.0 - b1 ** t)
        v_hat = vi / (1.0 - b2 ** t)
        out.append((p - lr * m_hat / (np.sqrt(v_hat) + eps), mi, vi))
    return [list(col) for col in zip(*out)]


class TestAdamBits:
    def test_five_steps_match_out_of_place_reference(self):
        rng = np.random.default_rng(8)
        shapes = [(4, 3), (3,), ()]
        params = [t(rng.normal(0, 1, s)) for s in shapes]
        state = ad.AdamState(params, lr=0.01)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        for step in range(1, 6):
            grads = [rng.normal(0, 10.0 ** rng.integers(-6, 3), s) for s in shapes]
            grads[0][0, 0] = 0.0
            state.step(grads)
            ref_p, ref_m, ref_v = adam_reference(ref_p, ref_m, ref_v, grads, step,
                                                 lr=0.01)
            for p, m, v, rp, rm, rv in zip(params, state.m, state.v, ref_p, ref_m, ref_v):
                assert bits(p.data) == bits(rp)
                assert bits(m) == bits(rm) and bits(v) == bits(rv)


class TestClipWeights:
    def test_clamp_examples(self):
        p = t([0.5, -0.003, 0.0])
        ad.clip_weights([p], 0.01)
        np.testing.assert_allclose(p.data, [0.01, -0.003, 0.0])

    def test_all_zero_fixed_point(self):
        p = t(np.zeros((2, 2)))
        ad.clip_weights([p], 0.01)
        np.testing.assert_array_equal(p.data, np.zeros((2, 2)))

    def test_max_abs_bounded_after_clip(self):
        rng = np.random.default_rng(11)
        params = [t(rng.normal(0, 1, (4, 4))) for _ in range(3)]
        ad.clip_weights(params, 0.05)
        for p in params:
            assert np.abs(p.data).max() <= 0.05

    def test_positive_constant_required(self):
        with pytest.raises(ValueError, match="positive"):
            ad.clip_weights([t([1.0])], 0.0)
