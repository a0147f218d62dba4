import numpy as np
import pytest

from mkfusion import autodiff as ad
from fd import assert_grads_match


@pytest.fixture(autouse=True)
def fresh_graph():
    ad.clear_graph()
    yield
    ad.clear_graph()


def t(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestForward:
    def test_matmul_identity(self):
        out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t(np.eye(2)))
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
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            ad.sub(t(np.zeros(3)), t(np.zeros(4)))

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

    def test_cross_entropy_label_validation(self):
        logits = t(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="label out of range"):
            ad.cross_entropy_with_logits(logits, np.array([0, 3]))
        with pytest.raises(ValueError, match="expected 2 labels"):
            ad.cross_entropy_with_logits(logits, np.array([0]))


class TestBackward:
    def test_sum_gives_ones(self):
        w = t(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.reduce_sum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_squared_error_derivative(self):
        w = t([3.0], requires_grad=True)
        ad.backward(ad.l2_squared_distance(w, t([0.0])))
        np.testing.assert_allclose(w.grad, [6.0])

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = t(rng.normal(0, 0.5, (4, 5)), requires_grad=True)
        b1 = t(rng.normal(0, 0.5, 5), requires_grad=True)
        w2 = t(rng.normal(0, 0.5, (5, 3)), requires_grad=True)
        b2 = t(rng.normal(0, 0.5, 3), requires_grad=True)
        x = t(rng.normal(0, 1, (6, 4)))
        target = t(rng.normal(0, 1, (6, 3)))

        def loss_fn():
            h = ad.leaky_relu(ad.add(ad.matmul(x, w1), b1), alpha=0.2)
            out = ad.add(ad.matmul(h, w2), b2)
            return ad.scalar_mul(ad.l2_squared_distance(out, target), 1.0 / 6)

        assert_grads_match(loss_fn, [w1, b1, w2, b2], rng, h=1e-4)

    def test_linearity_of_accumulation(self):
        rng = np.random.default_rng(3)
        w = t(rng.normal(0, 1, (3, 3)), requires_grad=True)

        def loss_a():
            return ad.reduce_mean(ad.square(w))

        def loss_b():
            return ad.reduce_sum(ad.sigmoid(w))

        ad.backward(loss_a())
        ga = w.grad.copy()
        w.zero_grad()
        ad.clear_graph()
        ad.backward(loss_b())
        gb = w.grad.copy()
        w.zero_grad()
        ad.clear_graph()
        la, lb = loss_a(), loss_b()
        ad.backward(ad.add(la, lb))
        np.testing.assert_allclose(w.grad, ga + gb, rtol=1e-12)

    def test_grads_accumulate_until_zeroed(self):
        w = t([2.0], requires_grad=True)
        loss = ad.reduce_sum(ad.square(w))
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, [8.0])
        w.zero_grad()
        assert w.grad is None

    def test_loss_must_be_scalar_and_on_tape(self):
        w = t([1.0, 2.0], requires_grad=True)
        vec = ad.square(w)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(vec)
        detached = t(5.0)
        with pytest.raises(ValueError, match="not on the active graph"):
            ad.backward(detached)

    def test_no_grad_suppresses_taping(self):
        w = t([1.0], requires_grad=True)
        with ad.no_grad():
            out = ad.square(w)
        assert len(ad.active_graph()) == 0
        assert not out.requires_grad


OP_CASES = {
    "matmul": lambda rng: (t(rng.normal(0, 1, (3, 4)), True), t(rng.normal(0, 1, (4, 2)), True)),
    "add": lambda rng: (t(rng.normal(0, 1, (3, 4)), True), t(rng.normal(0, 1, (3, 4)), True)),
    "add-bias": lambda rng: (t(rng.normal(0, 1, (3, 4)), True), t(rng.normal(0, 1, 4), True)),
    "sub": lambda rng: (t(rng.normal(0, 1, (3, 4)), True), t(rng.normal(0, 1, (3, 4)), True)),
    "mul": lambda rng: (t(rng.normal(0, 1, (3, 4)), True), t(rng.normal(0, 1, (3, 4)), True)),
    "mul-column": lambda rng: (t(rng.normal(0, 1, (3, 4)), True), t(rng.normal(0, 1, (3, 1)), True)),
    "div": lambda rng: (t(rng.normal(0, 1, (3, 4)), True),
                        t(rng.uniform(0.5, 2.0, (3, 4)), True)),
    "scalar-mul": lambda rng: (t(rng.normal(0, 1, (3, 4)), True),),
    "mean": lambda rng: (t(rng.normal(0, 1, (3, 4)), True),),
    "sum": lambda rng: (t(rng.normal(0, 1, (3, 4)), True),),
    "square": lambda rng: (t(rng.normal(0, 1, (3, 4)), True),),
    "log": lambda rng: (t(rng.uniform(0.2, 3.0, (3, 4)), True),),
    "sigmoid": lambda rng: (t(rng.normal(0, 2, (3, 4)), True),),
    "leaky-relu": lambda rng: (t(rng.normal(0, 1, (3, 4)) + np.sign(rng.normal(0, 1, (3, 4))) * 0.2, True),),
    "softmax": lambda rng: (t(rng.normal(0, 1, (3, 4)), True),),
    "l2-squared-distance": lambda rng: (t(rng.normal(0, 1, (3, 4)), True),
                                        t(rng.normal(0, 1, (3, 4)), True)),
    "cross-entropy-with-logits": lambda rng: (t(rng.normal(0, 1, (5, 4)), True),),
    "cosine-similarity": lambda rng: (t(rng.normal(0, 1, 5) + 1.0, True),
                                      t(rng.normal(0, 1, 5) + 1.0, True)),
}

OP_BUILDERS = {
    "add-bias": ad.add,
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
        p = t([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        state = ad.AdamState([p], lr=0.1)
        state.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_moves_by_learning_rate(self):
        # Hand evaluation with beta1=0.5, beta2=0.9: m_hat = v_hat = g on step 1,
        # so the update is -lr * g / (|g| + eps).
        p = t([0.0], requires_grad=True)
        p.grad = np.array([1.0])
        state = ad.AdamState([p], lr=0.1, beta1=0.5, beta2=0.9)
        state.step()
        assert p.data[0] == pytest.approx(-0.1, abs=1e-6)

    def test_two_steps_decrease_convex_quadratic(self):
        p = t([5.0], requires_grad=True)
        state = ad.AdamState([p], lr=0.1)
        losses = []
        for _ in range(2):
            ad.clear_graph()
            p.zero_grad()
            loss = ad.l2_squared_distance(p, t([3.0]))
            losses.append(loss.item())
            ad.backward(loss)
            state.step()
        final = ad.l2_squared_distance(p, t([3.0])).item()
        assert losses[1] < losses[0]
        assert final < losses[1]

    def test_missing_grad_rejected(self):
        p = t([1.0], requires_grad=True)
        state = ad.AdamState([p])
        with pytest.raises(ValueError, match="no gradient"):
            state.step()

    def test_state_roundtrip(self):
        p = t([1.0, 2.0], requires_grad=True)
        p.grad = np.array([0.3, -0.4])
        state = ad.AdamState([p], lr=0.05)
        state.step()
        snapshot = state.state_arrays()
        clone = ad.AdamState([p], lr=0.05)
        clone.load_state_arrays(snapshot)
        assert clone.step_count == state.step_count
        np.testing.assert_array_equal(clone.m[0], state.m[0])
        np.testing.assert_array_equal(clone.v[0], state.v[0])


class TestClipWeights:
    def test_clamp_examples(self):
        p = t([0.5, -0.003, 0.0], requires_grad=True)
        ad.clip_weights([p], 0.01)
        np.testing.assert_allclose(p.data, [0.01, -0.003, 0.0])

    def test_all_zero_fixed_point(self):
        p = t(np.zeros((2, 2)), requires_grad=True)
        ad.clip_weights([p], 0.01)
        np.testing.assert_array_equal(p.data, np.zeros((2, 2)))

    def test_max_abs_bounded_after_clip(self):
        rng = np.random.default_rng(11)
        params = [t(rng.normal(0, 1, (4, 4)), requires_grad=True) for _ in range(3)]
        ad.clip_weights(params, 0.05)
        for p in params:
            assert np.abs(p.data).max() <= 0.05

    def test_positive_constant_required(self):
        with pytest.raises(ValueError, match="positive"):
            ad.clip_weights([t([1.0])], 0.0)
