import numpy as np
import pytest

from mkfusion import autodiff as ad
from mkfusion import model as mdl
from mkfusion.autodiff import Tensor
from mkfusion.dataset import LEVELS
from mkfusion.trainer import TrainConfig
from fd import assert_grads_match


@pytest.fixture(autouse=True)
def fresh_graph():
    ad.clear_graph()
    yield
    ad.clear_graph()


def small_model(seed=0, n_classes=5, fusion_mode="adaptive"):
    config = TrainConfig(noise_dim=3, gen_hidden=8, disc_hidden=(8, 7), fusion_hidden=5,
                         seed=seed, fusion_mode=fusion_mode)
    return mdl.FusionGan(config, 6, 4, n_classes)


def batch_inputs(rng, n=4, t_dim=4, z_dim=3):
    return rng.normal(0, 1, (n, t_dim)), rng.normal(0, 1, (n, z_dim))


class TestGenerate:
    def test_zero_parameters_give_zero_output(self):
        m = small_model()
        gen = m.generators["species"]
        for p in m.group("generator/species/"):
            p.data[...] = 0.0
        t, z = batch_inputs(np.random.default_rng(0))
        out = mdl.generate(gen, t, z)
        np.testing.assert_array_equal(out.data, np.zeros((4, 6)))

    def test_pure_function(self):
        m = small_model()
        t, z = batch_inputs(np.random.default_rng(1))
        a = mdl.generate(m.generators["genus"], t, z)
        b = mdl.generate(m.generators["genus"], t, z)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rows_are_independent(self):
        m = small_model()
        rng = np.random.default_rng(2)
        t, z = batch_inputs(rng, n=6)
        perm = rng.permutation(6)
        direct = mdl.generate(m.generators["family"], t, z).data
        permuted = mdl.generate(m.generators["family"], t[perm], z[perm]).data
        np.testing.assert_array_equal(permuted, direct[perm])

    def test_dim_mismatch(self):
        m = small_model()
        with pytest.raises(ValueError, match="semantic rows"):
            mdl.generate(m.generators["species"], np.zeros((2, 9)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="noise"):
            mdl.generate(m.generators["species"], np.zeros((2, 4)), np.zeros((2, 9)))


class TestDiscriminate:
    def test_zero_heads_give_zero_realness_and_uniform_softmax(self):
        m = small_model()
        for p in m.group("discriminator/"):
            p.data[...] = 0.0
        realness, logits = mdl.discriminate(m.discriminator, Tensor(np.ones((3, 6))))
        np.testing.assert_array_equal(realness.data, np.zeros((3, 1)))
        probs = ad.softmax(logits)
        np.testing.assert_allclose(probs.data, np.full((3, 5), 0.2), atol=1e-15)

    def test_rows_are_independent(self):
        m = small_model()
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (5, 6))
        perm = rng.permutation(5)
        r1, l1 = mdl.discriminate(m.discriminator, Tensor(x))
        r2, l2 = mdl.discriminate(m.discriminator, Tensor(x[perm]))
        np.testing.assert_array_equal(r2.data, r1.data[perm])
        np.testing.assert_array_equal(l2.data, l1.data[perm])

    def test_dim_mismatch(self):
        m = small_model()
        with pytest.raises(ValueError, match="expected"):
            mdl.discriminate(m.discriminator, Tensor(np.zeros((2, 5))))

    def test_without_class_head(self):
        m = small_model()
        x = Tensor(np.random.default_rng(4).normal(0, 1, (5, 6)))
        realness, _ = mdl.discriminate(m.discriminator, x)
        taped = len(ad.active_graph())
        alone, logits = mdl.discriminate(m.discriminator, x, classify=False)
        assert logits is None
        assert alone.data.tobytes() == realness.data.tobytes()
        # The second call tapes everything but the class head's matmul.
        assert len(ad.active_graph()) == 2 * taped - 1


class TestFusion:
    def test_identical_nets_and_inputs_give_uniform_weights(self):
        m = small_model()
        source = m.fusion.layers["species"]
        for level in ("genus", "family"):
            for key, tensor in m.fusion.layers[level].items():
                tensor.data[...] = source[key].data
        x = Tensor(np.random.default_rng(4).normal(0, 1, (3, 6)))
        fused, weights = mdl.fuse(m.fusion, {level: x for level in LEVELS})
        for level in LEVELS:
            np.testing.assert_allclose(weights[level].data, 1 / 3, atol=1e-9)
        baseline = mdl.fuse_baseline({level: x for level in LEVELS})
        np.testing.assert_allclose(fused.data, baseline.data, atol=1e-12)

    def test_weights_are_a_distribution(self):
        m = small_model(seed=7)
        rng = np.random.default_rng(5)
        features = {level: Tensor(rng.normal(0, 2, (50, 6))) for level in LEVELS}
        _, weights = mdl.fuse(m.fusion, features)
        total = sum(weights[level].data for level in LEVELS)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)
        for level in LEVELS:
            assert np.all(weights[level].data > 0.0)
            assert np.all(weights[level].data < 1.0)

    def test_hand_computed_normalization(self):
        scores = {"species": Tensor([[0.2]]), "genus": Tensor([[0.3]]),
                  "family": Tensor([[0.5]])}
        weights = mdl.normalize_scores(scores)
        assert weights["species"].data[0, 0] == 0.2
        assert weights["genus"].data[0, 0] == 0.3
        assert weights["family"].data[0, 0] == 0.5

    def test_scale_invariance_of_normalization(self):
        rng = np.random.default_rng(6)
        raw = {level: rng.uniform(0.1, 0.9, (4, 1)) for level in LEVELS}
        base = mdl.normalize_scores({lv: Tensor(raw[lv]) for lv in LEVELS})
        scaled = mdl.normalize_scores({lv: Tensor(raw[lv] * 37.5) for lv in LEVELS})
        for level in LEVELS:
            np.testing.assert_allclose(scaled[level].data, base[level].data, rtol=1e-12)

    def test_fused_rows_stay_in_convex_hull(self):
        m = small_model(seed=9)
        rng = np.random.default_rng(7)
        features = {level: Tensor(rng.normal(0, 1, (8, 6))) for level in LEVELS}
        fused, _ = mdl.fuse(m.fusion, features)
        stacked = np.stack([features[level].data for level in LEVELS])
        low, high = stacked.min(axis=0), stacked.max(axis=0)
        assert np.all(fused.data >= low - 1e-12)
        assert np.all(fused.data <= high + 1e-12)

    def test_baseline_examples(self):
        v = np.array([[0.75, -2.0]])
        features = {level: Tensor(v) for level in LEVELS}
        np.testing.assert_allclose(mdl.fuse_baseline(features).data, v, atol=1e-15)
        triple = {"species": Tensor([[3.0, 0.0]]), "genus": Tensor([[0.0, 3.0]]),
                  "family": Tensor([[0.0, 0.0]])}
        np.testing.assert_allclose(mdl.fuse_baseline(triple).data, [[1.0, 1.0]],
                                   atol=1e-15)

    def test_forced_uniform_weights_equal_baseline_bitwise(self):
        rng = np.random.default_rng(8)
        features = {level: Tensor(rng.normal(0, 3, (5, 6))) for level in LEVELS}
        third = Tensor(np.full((5, 1), 1.0 / 3.0))
        forced = mdl.weighted_sum(features, {level: third for level in LEVELS})
        baseline = mdl.fuse_baseline(features)
        np.testing.assert_array_equal(forced.data, baseline.data)

    def test_shape_mismatch(self):
        m = small_model()
        features = {"species": Tensor(np.zeros((2, 6))), "genus": Tensor(np.zeros((2, 6))),
                    "family": Tensor(np.zeros((3, 6)))}
        with pytest.raises(ValueError, match="differ"):
            mdl.fuse(m.fusion, features)
        with pytest.raises(ValueError, match="differ"):
            mdl.fuse_baseline(features)


class TestLosses:
    def test_kr_zero_at_centers(self):
        centers = np.random.default_rng(9).normal(0, 1, (4, 6))
        assert mdl.loss_kr(Tensor(centers), centers).item() == 0.0

    def test_kr_single_sample_arithmetic(self):
        loss = mdl.loss_kr(Tensor([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
        assert loss.item() == pytest.approx(2.0)

    def test_kr_matches_bruteforce_loop(self):
        rng = np.random.default_rng(10)
        generated = rng.normal(0, 1, (7, 5))
        centers = rng.normal(0, 1, (7, 5))
        expected = 0.0
        for i in range(7):
            for j in range(5):
                expected += (generated[i, j] - centers[i, j]) ** 2
        expected /= 7
        assert mdl.loss_kr(Tensor(generated), centers).item() == pytest.approx(expected)

    def test_generator_loss_is_sum_of_terms(self):
        m = small_model(seed=11)
        rng = np.random.default_rng(11)
        t, z = batch_inputs(rng)
        labels = rng.integers(0, 5, 4)
        centers = rng.normal(0, 1, (4, 6))
        generated = mdl.generate(m.generators["species"], t, z)
        total = mdl.loss_generator(m.discriminator, generated, labels, centers).item()
        with ad.no_grad():
            realness, logits = mdl.discriminate(m.discriminator, Tensor(generated.data))
            adv = -realness.data.mean()
            ce = ad.cross_entropy_with_logits(logits, labels).item()
            kr = mdl.loss_kr(Tensor(generated.data), centers).item()
        assert total == pytest.approx(adv + ce + kr, rel=1e-12)

    def test_uniform_logits_classification_is_log_k(self):
        m = small_model(n_classes=5)
        for p in m.group("discriminator/"):
            p.data[...] = 0.0
        loss = mdl.adversarial_and_classification(
            m.discriminator, Tensor(np.ones((3, 6))), np.array([0, 2, 4]))
        assert loss.item() == pytest.approx(np.log(5.0))

    def test_increasing_realness_decreases_adversarial_term(self):
        m = small_model(seed=12)
        batch = Tensor(np.random.default_rng(12).normal(0, 1, (4, 6)))
        labels = np.zeros(4, dtype=np.int64)
        before = mdl.adversarial_and_classification(m.discriminator, batch, labels).item()
        m.discriminator.params["b_real"].data = m.discriminator.params["b_real"].data + 1.0
        after = mdl.adversarial_and_classification(m.discriminator, batch, labels).item()
        assert after == pytest.approx(before - 1.0)

    def test_discriminator_wasserstein_cancels_on_equal_batches(self):
        m = small_model(seed=13)
        rng = np.random.default_rng(13)
        batch = rng.normal(0, 1, (4, 6))
        labels = rng.integers(0, 5, 4)
        loss = mdl.loss_discriminator(m.discriminator, batch, batch, labels).item()
        with ad.no_grad():
            _, logits = mdl.discriminate(m.discriminator, Tensor(batch))
            ce = ad.cross_entropy_with_logits(logits, labels).item()
        assert loss == pytest.approx(ce, rel=1e-12)

    def test_discriminator_loss_classifies_the_real_batch_only(self):
        m = small_model()
        rng = np.random.default_rng(13)
        mdl.loss_discriminator(m.discriminator, rng.normal(0, 1, (4, 6)),
                               rng.normal(0, 1, (4, 6)), rng.integers(0, 5, 4))
        class_head = [node for node in ad.active_graph()
                      if any(t is m.discriminator.params["w_cls"] for t in node.inputs)]
        assert len(class_head) == 1

    def test_discriminator_training_decreases_loss(self):
        m = small_model(seed=14)
        rng = np.random.default_rng(14)
        real = rng.normal(2.0, 0.2, (8, 6))
        fake = rng.normal(-2.0, 0.2, (8, 6))
        labels = rng.integers(0, 5, 8)
        params = m.group("discriminator/")
        ad.clip_weights(m.discriminator.critic_params(), 0.01)
        opt = ad.AdamState(params, lr=1e-3)
        history = []
        for _ in range(100):
            ad.clear_graph()
            loss = mdl.loss_discriminator(m.discriminator, real, fake, labels)
            history.append(loss.item())
            opt.step(ad.backward(loss, wrt=params))
            ad.clip_weights(m.discriminator.critic_params(), 0.01)
        assert history[-1] < history[0]

    def test_generator_loss_gradients_match_finite_differences(self):
        m = small_model(seed=15)
        rng = np.random.default_rng(15)
        t, z = batch_inputs(rng, n=3)
        labels = rng.integers(0, 5, 3)
        centers = rng.normal(0, 1, (3, 6))

        def loss_fn():
            generated = mdl.generate(m.generators["species"], t, z)
            return mdl.loss_generator(m.discriminator, generated, labels, centers)

        leaves = m.group("generator/species/")
        assert_grads_match(loss_fn, leaves, rng, coords_per_leaf=6)


    def test_generator_gradients_do_not_depend_on_wrt(self):
        m = small_model(seed=16)
        rng = np.random.default_rng(16)
        t, z = batch_inputs(rng, n=5)
        labels = rng.integers(0, 5, 5)
        features, _, _ = m.generate_fused(t, z)
        losses = [mdl.loss_generator(m.discriminator, features[level], labels,
                                     rng.normal(0, 1, (5, 6))) for level in LEVELS]
        loss = ad.add(ad.add(losses[0], losses[1]), losses[2])
        gen = m.group("generator/")
        full = ad.backward(loss, wrt=gen + m.group("discriminator/"))
        alone = ad.backward(loss, wrt=gen)
        assert [g.tobytes() for g in alone] == [g.tobytes() for g in full[:len(gen)]]


def taped_kinds() -> list[str]:
    """The op kind of each node on the tape, in order, read from the op
    function that defines the node's vector-Jacobian product."""
    return [node.vjp.__qualname__.split(".")[0] for node in ad.active_graph()]


DENSE = ["matmul"]
HIDDEN = DENSE + ["leaky_relu"]


class TestTapedOps:
    """The op sequence each network call records. A change to it changes the
    per-op counts of the benchmark and can change the output bits."""

    def test_generate(self):
        m = small_model()
        mdl.generate(m.generators["species"], *batch_inputs(np.random.default_rng(0)))
        assert taped_kinds() == HIDDEN + DENSE

    def test_discriminate(self):
        m = small_model()
        mdl.discriminate(m.discriminator, Tensor(np.ones((3, 6))))
        assert taped_kinds() == HIDDEN + HIDDEN + DENSE + DENSE

    def test_fuse(self):
        m = small_model()
        rng = np.random.default_rng(1)
        mdl.fuse(m.fusion, {level: Tensor(rng.normal(0, 1, (3, 6))) for level in LEVELS})
        assert taped_kinds() == (3 * (HIDDEN + DENSE + ["sigmoid"]) + ["add", "add"]
                                 + 3 * ["div"] + 3 * ["mul"] + ["add", "add"])


class TestInitialization:
    def test_parameters_follow_the_documented_draw_order(self):
        """One ``default_rng(seed)`` stream draws the generators (species,
        genus, family), the discriminator, then the fusion nets (species,
        genus, family); within a network layer by layer, the weight and then
        the bias, uniform in +-1/sqrt(fan_in). Checkpoints and the Adam
        moment lists rely on this order of names."""
        seed = 23
        rng = np.random.default_rng(seed)
        expected = {}

        def draw(prefix, *layers):
            for name, n_in, n_out in layers:
                bound = 1.0 / np.sqrt(n_in)
                expected[f"{prefix}/w{name}"] = rng.uniform(-bound, bound, (n_in, n_out))
                expected[f"{prefix}/b{name}"] = rng.uniform(-bound, bound, (n_out,))

        # small_model: visual 6, semantic 4, noise 3, generator hidden 8,
        # critic hidden (8, 7), fusion hidden 5, 5 classes.
        for level in LEVELS:
            draw(f"generator/{level}", ("1", 7, 8), ("2", 8, 6))
        draw("discriminator", ("1", 6, 8), ("2", 8, 7), ("_real", 7, 1), ("_cls", 7, 5))
        for level in LEVELS:
            draw(f"fusion/{level}", ("1", 6, 5), ("2", 5, 1))
        params = small_model(seed=seed).params
        assert list(params) == list(expected)
        for name, values in expected.items():
            assert params[name].shape == values.shape, name
            assert params[name].data.tobytes() == values.tobytes(), name


class TestFusionGan:
    def test_parameter_inventory(self):
        m = small_model()
        assert len(m.params) == 32
        groups = [m.group(prefix) for prefix in ("generator/", "discriminator/", "fusion/")]
        assert [len(group) for group in groups] == [12, 8, 12]
        # The groups split the table: in order, none left over, none counted twice.
        split = [id(p) for group in groups for p in group]
        assert split == [id(p) for p in m.params.values()]
        assert len(set(split)) == 32
        critic = m.discriminator.critic_params()
        assert len(critic) == 6
        assert {id(p) for p in critic} <= {id(p) for p in groups[1]}

    def test_generate_fused_modes(self):
        adaptive = small_model(seed=16)
        summing = small_model(seed=16, fusion_mode="summing")
        rng = np.random.default_rng(16)
        t, z = batch_inputs(rng)
        features, fused, weights = adaptive.generate_fused(t, z)
        assert weights is not None
        assert fused.shape == (4, 6)
        summed_features, fused_sum, no_weights = summing.generate_fused(t, z)
        assert no_weights is None
        for level in LEVELS:
            np.testing.assert_array_equal(summed_features[level].data,
                                          features[level].data)
        stacked = sum(features[level].data for level in LEVELS) / 3.0
        np.testing.assert_allclose(fused_sum.data, stacked, atol=1e-12)

    def test_unknown_fusion_mode_rejected(self):
        with pytest.raises(ValueError, match="fusion mode"):
            small_model(fusion_mode="max")

    def test_same_seed_same_init(self):
        a = small_model(seed=21).params
        b = small_model(seed=21).params
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)
