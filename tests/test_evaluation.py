import numpy as np
import pytest

from mkfusion import autodiff as ad
from mkfusion import evaluation as ev
from mkfusion import trainer as tr
from mkfusion.dataset import SyntheticSpec, generate_synthetic
from mkfusion.model import FusionGan


def tiny_model(seed=0):
    return FusionGan(visual_dim=6, semantic_dim=4, n_classes=5, noise_dim=3,
                     gen_hidden=8, disc_hidden=(8, 6), fusion_hidden=5, seed=seed)


def fixed_prototypes(vectors: dict[int, list[float]]) -> ev.ClassPrototypes:
    return ev.ClassPrototypes({k: np.asarray(v, dtype=np.float64)
                               for k, v in vectors.items()}, n_syn=1)


class TestPrototypes:
    def test_single_generation_prototype(self):
        model = tiny_model()
        semantic = np.arange(4.0)
        prototypes = ev.synthesize_prototypes(model, {3: semantic}, n_syn=1, seed=5)
        rng = np.random.default_rng([5, 3])
        z = rng.standard_normal((1, model.noise_dim))
        with ad.no_grad():
            _, fused, _ = model.generate_fused(semantic[None, :], z)
        np.testing.assert_array_equal(prototypes.prototypes[3], fused.data[0])

    def test_doubling_n_syn_reuses_stream_prefix(self):
        model = tiny_model(seed=1)
        semantic = np.array([0.5, -1.0, 0.25, 2.0])
        small = ev.synthesize_prototypes(model, {0: semantic}, n_syn=4, seed=9)
        rng = np.random.default_rng([9, 0])
        z8 = rng.standard_normal((8, model.noise_dim))
        with ad.no_grad():
            _, fused, _ = model.generate_fused(np.tile(semantic, (8, 1)), z8)
        np.testing.assert_allclose(small.prototypes[0], fused.data[:4].mean(axis=0),
                                   atol=1e-12)
        big = ev.synthesize_prototypes(model, {0: semantic}, n_syn=8, seed=9)
        np.testing.assert_allclose(big.prototypes[0], fused.data.mean(axis=0),
                                   atol=1e-12)

    def test_deterministic_per_seed(self):
        model = tiny_model(seed=2)
        semantics = {0: np.ones(4), 1: np.arange(4.0)}
        a = ev.synthesize_prototypes(model, semantics, n_syn=3, seed=4)
        b = ev.synthesize_prototypes(model, semantics, n_syn=3, seed=4)
        for c in semantics:
            np.testing.assert_array_equal(a.prototypes[c], b.prototypes[c])

    def test_n_syn_must_be_positive(self):
        with pytest.raises(ValueError, match="n_syn"):
            ev.synthesize_prototypes(tiny_model(), {0: np.ones(4)}, n_syn=0)


class TestClassify:
    def test_exact_prototype_match(self):
        prototypes = fixed_prototypes({0: [1.0, 0.0], 1: [0.0, 1.0]})
        assert ev.classify_top1(prototypes, np.array([[0.0, 2.0]]))[0] == 1

    def test_orthonormal_basis(self):
        prototypes = fixed_prototypes({i: np.eye(4)[i].tolist() for i in range(4)})
        x = np.eye(4)[2][None, :]
        assert ev.classify_top1(prototypes, x)[0] == 2

    def test_ties_break_to_lowest_class_id(self):
        prototypes = fixed_prototypes({7: [1.0, 0.0], 3: [1.0, 0.0]})
        assert ev.classify_top1(prototypes, np.array([[1.0, 0.0]]))[0] == 3

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(0)
        prototypes = fixed_prototypes({i: rng.normal(0, 1, 5).tolist()
                                       for i in range(8)})
        x = rng.normal(0, 1, (20, 5))
        got = ev.classify_top1(prototypes, x)
        for i in range(20):
            best, best_score = None, -np.inf
            for class_id in sorted(prototypes.prototypes):
                p = prototypes.prototypes[class_id]
                score = x[i] @ p / (np.linalg.norm(x[i]) * np.linalg.norm(p))
                if score > best_score:
                    best, best_score = class_id, score
            assert got[i] == best

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(1)
        prototypes = fixed_prototypes({i: rng.normal(0, 1, 5).tolist()
                                       for i in range(6)})
        x = rng.normal(0, 1, (10, 5))
        np.testing.assert_array_equal(ev.classify_top1(prototypes, x),
                                      ev.classify_top1(prototypes, 37.5 * x))

    def test_zero_norm_rejected(self):
        prototypes = fixed_prototypes({0: [1.0, 0.0]})
        with pytest.raises(ValueError, match="zero-norm"):
            ev.classify_top1(prototypes, np.zeros((1, 2)))


class TestHarmonicMean:
    def test_published_reference_rows(self):
        assert ev.harmonic_mean(94.0, 30.2) == pytest.approx(45.7, abs=0.05)

    def test_equal_arguments_identity(self):
        for v in (0.0, 0.25, 0.8, 1.0):
            assert ev.harmonic_mean(v, v) == pytest.approx(v)

    def test_zero_when_both_zero(self):
        assert ev.harmonic_mean(0.0, 0.0) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s, u = rng.uniform(0, 1, 2)
            h = ev.harmonic_mean(s, u)
            assert h == pytest.approx(ev.harmonic_mean(u, s))
            assert h <= 2 * min(s, u) + 1e-12
            assert h <= max(s, u) + 1e-12


class TestCurveAndArea:
    def toy_setup(self):
        # Seen classes 0, 1 and unseen class 2 on an orthonormal basis.
        prototypes = fixed_prototypes({0: [1.0, 0.0, 0.0], 1: [0.0, 1.0, 0.0],
                                       2: [0.0, 0.0, 1.0]})
        seen_x = np.array([[1.0, 0.0, 0.0]])
        seen_y = np.array([0])
        unseen_x = np.array([[0.9002, 0.0, 0.4354]])
        unseen_y = np.array([2])
        return prototypes, seen_x, seen_y, unseen_x, unseen_y

    def test_hand_enumerated_tradeoff(self):
        prototypes, seen_x, seen_y, unseen_x, unseen_y = self.toy_setup()
        curve = ev.seen_unseen_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                     seen_ids=[0, 1],
                                     gammas=np.array([-2.0, 0.0, 0.6, 1.5, 2.0]))
        by_gamma = dict(zip(curve.gammas.tolist(),
                            zip(curve.seen_accuracy, curve.unseen_accuracy)))
        assert by_gamma[-2.0] == (1.0, 0.0)
        assert by_gamma[0.0] == (1.0, 0.0)
        assert by_gamma[0.6] == (1.0, 1.0)
        assert by_gamma[1.5] == (0.0, 1.0)

    def test_saturation_endpoints(self):
        prototypes, seen_x, seen_y, unseen_x, unseen_y = self.toy_setup()
        curve = ev.seen_unseen_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                     seen_ids=[0, 1])
        assert curve.unseen_accuracy[0] == 0.0
        assert curve.seen_accuracy[-1] == 0.0
        assert np.all(np.diff(curve.gammas) > 0)

    def test_gamma_zero_reproduces_uncalibrated(self):
        prototypes, seen_x, seen_y, unseen_x, unseen_y = self.toy_setup()
        curve = ev.seen_unseen_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                     seen_ids=[0, 1])
        at_zero = int(np.argmin(np.abs(curve.gammas)))
        assert curve.gammas[at_zero] == 0.0
        predictions = ev.classify_top1(prototypes, unseen_x)
        assert curve.unseen_accuracy[at_zero] == (predictions == unseen_y).mean()

    def test_perfect_oracle_area_is_one(self):
        prototypes = fixed_prototypes({i: np.eye(4)[i].tolist() for i in range(4)})
        seen_x = np.eye(4)[:2] + 0.0
        unseen_x = np.eye(4)[2:] + 0.0
        curve = ev.seen_unseen_curve(prototypes, seen_x, np.array([0, 1]),
                                     unseen_x, np.array([2, 3]), seen_ids=[0, 1])
        assert ev.ausuc(curve) == pytest.approx(1.0, abs=1e-9)

    def test_hand_set_three_point_curve(self):
        curve = ev.SeenUnseenCurve(gammas=np.array([-1.0, 0.0, 1.0]),
                                   seen_accuracy=np.array([1.0, 0.5, 0.0]),
                                   unseen_accuracy=np.array([0.0, 0.5, 1.0]))
        assert ev.ausuc(curve) == pytest.approx(0.5)

    def test_constant_zero_unseen_gives_zero_area(self):
        curve = ev.SeenUnseenCurve(gammas=np.array([-1.0, 1.0]),
                                   seen_accuracy=np.array([1.0, 0.0]),
                                   unseen_accuracy=np.array([0.0, 0.0]))
        assert ev.ausuc(curve) == 0.0

    def test_dominated_point_never_increases_area(self):
        base = ev.SeenUnseenCurve(gammas=np.array([-1.0, 0.0, 1.0]),
                                  seen_accuracy=np.array([1.0, 0.5, 0.0]),
                                  unseen_accuracy=np.array([0.0, 0.5, 1.0]))
        padded = ev.SeenUnseenCurve(gammas=np.array([-1.0, -0.5, 0.0, 1.0]),
                                    seen_accuracy=np.array([1.0, 0.5, 0.5, 0.0]),
                                    unseen_accuracy=np.array([0.0, 0.25, 0.5, 1.0]))
        assert ev.ausuc(padded) <= ev.ausuc(base) + 1e-12

    def test_too_few_points_rejected(self):
        curve = ev.SeenUnseenCurve(gammas=np.array([0.0]),
                                   seen_accuracy=np.array([1.0]),
                                   unseen_accuracy=np.array([0.0]))
        with pytest.raises(ValueError, match="two points"):
            ev.ausuc(curve)

    def test_empty_eval_set_rejected(self):
        prototypes, seen_x, seen_y, unseen_x, unseen_y = self.toy_setup()
        with pytest.raises(ValueError, match="non-empty"):
            ev.seen_unseen_curve(prototypes, np.zeros((0, 3)), np.zeros(0),
                                 unseen_x, unseen_y, seen_ids=[0, 1])


class TestRetrieval:
    def test_single_sample_pool(self):
        prototypes = fixed_prototypes({0: [1.0, 0.0]})
        hits = ev.retrieve_topk(prototypes, np.array([[0.5, 0.5]]), 0, k=5)
        assert hits == [(0, pytest.approx(1 / np.sqrt(2)))]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(3)
        prototypes = fixed_prototypes({4: rng.normal(0, 1, 6).tolist()})
        pool = rng.normal(0, 1, (30, 6))
        hits = ev.retrieve_topk(prototypes, pool, 4, k=7)
        anchor = prototypes.prototypes[4]
        sims = [float(p @ anchor / (np.linalg.norm(p) * np.linalg.norm(anchor)))
                for p in pool]
        expected = sorted(range(30), key=lambda i: (-sims[i], i))[:7]
        assert [i for i, _ in hits] == expected
        similarities = [s for _, s in hits]
        assert similarities == sorted(similarities, reverse=True)

    def test_oversized_k_returns_full_ranking(self):
        prototypes = fixed_prototypes({0: [1.0, 0.0]})
        pool = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        hits = ev.retrieve_topk(prototypes, pool, 0, k=10)
        assert len(hits) == 3

    def test_unknown_class_rejected(self):
        prototypes = fixed_prototypes({0: [1.0, 0.0]})
        with pytest.raises(KeyError, match="99"):
            ev.retrieve_topk(prototypes, np.ones((2, 2)), 99)

    def test_precision_on_labeled_pool(self):
        prototypes = fixed_prototypes({0: [1.0, 0.0], 1: [0.0, 1.0]})
        pool = np.array([[1.0, 0.1], [1.0, 0.2], [0.1, 1.0], [0.2, 1.0]])
        labels = np.array([0, 0, 1, 1])
        precision = ev.retrieval_precision(prototypes, pool, labels, [0, 1], k=2)
        assert precision == 1.0


class TestDrivers:
    def test_end_to_end_metrics_shape(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=8,
                                                  semantic_dim=6), seed=2)
        config = tr.TrainConfig(steps=2, n_nfg=1, batch_size=8, noise_dim=4,
                                gen_hidden=12, disc_hidden=(12, 10), fusion_hidden=6,
                                offspring_budget=4, seed=2)
        result = tr.train(config, bundle)
        metrics, curve = ev.evaluate_gzsl(result.model, bundle, n_syn=5, seed=2)
        assert 0.0 <= metrics.top1_unseen <= 1.0
        assert 0.0 <= metrics.ausuc <= 1.0
        assert metrics.harmonic == pytest.approx(
            ev.harmonic_mean(metrics.seen_accuracy, metrics.unseen_accuracy))
        assert metrics.best_harmonic >= metrics.harmonic - 1e-12
        assert sum(metrics.per_class_correct.values()) <= len(bundle.unseen_visuals())
        assert set(metrics.per_class_correct) == set(bundle.unseen_ids)
        text = metrics.to_text()
        assert "H_best=" in text and "AUSUC=" in text
        csv = curve.to_csv()
        assert csv.startswith("gamma,S,U\n")
        svg = curve.to_svg()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_gzsl_unseen_top1_matches_zsl(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=6,
                                                  semantic_dim=4), seed=5)
        model = FusionGan(visual_dim=6, semantic_dim=4, n_classes=len(bundle.seen_ids),
                          noise_dim=3, gen_hidden=8, disc_hidden=(8, 6),
                          fusion_hidden=5, seed=5)
        top1, per_class, _ = ev.evaluate_zsl(model, bundle, n_syn=7, seed=3)
        metrics, _ = ev.evaluate_gzsl(model, bundle, n_syn=7, seed=3)
        assert metrics.top1_unseen == top1
        assert metrics.per_class_correct == per_class

    def test_per_class_csv(self):
        out = ev.per_class_correct_csv({3: 5, 1: 2})
        assert out == "class_id,correct\n1,2\n3,5\n"
