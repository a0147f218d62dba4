import tracemalloc

import numpy as np
import pytest

from mkfusion import autodiff as ad
from mkfusion import evaluation as ev
from mkfusion import trainer as tr
from mkfusion.dataset import SyntheticSpec, csv_text, generate_synthetic
from mkfusion.model import FusionGan


def tiny_model(seed=0):
    config = tr.TrainConfig(noise_dim=3, gen_hidden=8, disc_hidden=(8, 6), fusion_hidden=5,
                            seed=seed)
    return FusionGan(config, 6, 4, 5)


def fixed_prototypes(vectors: dict[int, list[float]]) -> ev.ClassPrototypes:
    return ev.ClassPrototypes({k: np.asarray(v, dtype=np.float64)
                               for k, v in vectors.items()}, n_syn=1)


def brute_force_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y, seen_ids,
                      gammas=None):
    """The sweep as first written: a full argmax over the score matrix per
    gamma. Kept as the reference the linear-time sweep must match bit for bit."""
    if len(seen_x) == 0 or len(unseen_x) == 0:
        raise ValueError("both evaluation sets must be non-empty")
    if gammas is None:
        gammas = np.linspace(-ev.DEFAULT_GAMMA_SPAN, ev.DEFAULT_GAMMA_SPAN,
                             ev.DEFAULT_GAMMA_POINTS)
    gammas = np.asarray(sorted(float(g) for g in gammas))
    ids = np.asarray(prototypes.class_ids)
    seen_mask = np.isin(ids, np.asarray(sorted(seen_ids)))
    scores_seen = ev.similarity_matrix(seen_x, prototypes)
    scores_unseen = ev.similarity_matrix(unseen_x, prototypes)

    def accuracies(gamma: float) -> tuple[float, float]:
        shift = seen_mask * gamma
        pred_s = ids[np.argmax(scores_seen - shift, axis=1)]
        pred_u = ids[np.argmax(scores_unseen - shift, axis=1)]
        return float((pred_s == seen_y).mean()), float((pred_u == unseen_y).mean())

    points = [accuracies(g) for g in gammas]
    gammas = list(gammas)
    for _ in range(8):
        if points[-1][0] == 0.0:
            break
        gammas.append(gammas[-1] * 2.0 if gammas[-1] > 0 else 2.0)
        points.append(accuracies(gammas[-1]))
    for _ in range(8):
        if points[0][1] == 0.0:
            break
        gammas.insert(0, gammas[0] * 2.0 if gammas[0] < 0 else -2.0)
        points.insert(0, accuracies(gammas[0]))
    seen_acc = np.asarray([p[0] for p in points])
    unseen_acc = np.asarray([p[1] for p in points])
    return ev.SeenUnseenCurve(gammas=np.asarray(gammas), seen_accuracy=seen_acc,
                              unseen_accuracy=unseen_acc)


def assert_same_curve(got, expected):
    for name in ("gammas", "seen_accuracy", "unseen_accuracy"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


@pytest.fixture
def scores_as_features(monkeypatch):
    """Make ``similarity_matrix`` return its feature argument, so a curve can
    be swept over a chosen score matrix."""
    monkeypatch.setattr(ev, "similarity_matrix", lambda x, prototypes: x)


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

    def test_non_finite_weight_rejected(self):
        model = tiny_model()
        model.generators["genus"].params["w1"].data[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            ev.synthesize_prototypes(model, {0: np.ones(4)}, n_syn=2)

    def test_n_syn_must_be_positive(self):
        with pytest.raises(ValueError, match="n_syn"):
            ev.synthesize_prototypes(tiny_model(), {0: np.ones(4)}, n_syn=0)

    def test_fusion_mode_must_match_the_model(self):
        with pytest.raises(ValueError, match="'summing'.*'adaptive'"):
            ev.synthesize_prototypes(tiny_model(), {0: np.ones(4)}, fusion_mode="summing")
        prototypes = ev.synthesize_prototypes(tiny_model(), {0: np.ones(4)}, seed=1,
                                              fusion_mode="adaptive")
        assert prototypes.prototypes[0].shape == (6,)


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"gammas": []}, "at least one offset"),
        ({"gammas": [0.0, float("nan")]}, "gammas must be finite"),
        ({"gammas": [0.0, float("inf")]}, "gammas must be finite"),
        ({"seen_ids": [0, 1, 9]}, r"without a prototype: \[9\]"),
        ({"seen_x": np.array([[np.nan, 0.0, 0.0]])}, "finite"),
    ])
    def test_bad_curve_inputs_rejected(self, kwargs, message):
        prototypes, seen_x, seen_y, unseen_x, unseen_y = self.toy_setup()
        args = {"seen_x": seen_x, "seen_y": seen_y, "unseen_x": unseen_x,
                "unseen_y": unseen_y, "seen_ids": [0, 1], **kwargs}
        with pytest.raises(ValueError, match=message):
            ev.seen_unseen_curve(prototypes, **args)


class TestLinearTimeCurve:
    """The O(n) per-gamma sweep against the brute-force oracle."""

    def test_matches_bruteforce_on_quantized_scores(self, scores_as_features):
        rng = np.random.default_rng(11)
        tie_kinds = set()
        for _ in range(200):
            k = int(rng.integers(2, 9))
            seen_ids = sorted(rng.choice(k, int(rng.integers(1, k + 1)), replace=False))
            mask = np.isin(np.arange(k), seen_ids)
            prototypes = fixed_prototypes({c: [1.0] for c in range(k)})
            # Multiples of 1/8, with gammas on the same grid, so that equal
            # scores and seen scores shifted onto unseen ones occur often.
            seen_x, unseen_x = (rng.integers(-8, 9, (int(rng.integers(1, 13)), k)) / 8.0
                                for _ in range(2))
            seen_y = rng.choice(seen_ids, len(seen_x))
            unseen_y = rng.integers(0, k, len(unseen_x))
            gammas = rng.integers(-24, 25, int(rng.integers(1, 12))) / 8.0
            assert_same_curve(
                ev.seen_unseen_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                     seen_ids, gammas),
                brute_force_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                  seen_ids, gammas))
            for scores in (seen_x, unseen_x):
                argmax = ev.calibrated_argmax(scores, mask)
                for gamma in gammas:
                    shifted = scores - mask * gamma
                    np.testing.assert_array_equal(argmax(gamma),
                                                  np.argmax(shifted, axis=1))
                    winners = shifted == shifted.max(axis=1, keepdims=True)
                    n_seen, n_unseen = winners[:, mask].sum(1), winners[:, ~mask].sum(1)
                    tie_kinds.update(
                        kind for kind, tied in (("seen", n_seen > 1),
                                                ("unseen", n_unseen > 1),
                                                ("mixed", (n_seen > 0) & (n_unseen > 0)))
                        if tied.any())
        assert tie_kinds == {"seen", "unseen", "mixed"}

    def test_matches_bruteforce_on_cosine_scores(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prototypes = fixed_prototypes({c: rng.normal(0, 1, 5).tolist()
                                           for c in range(10)})
            seen_x, unseen_x = rng.normal(0, 1, (40, 5)), rng.normal(0, 1, (30, 5))
            seen_y, unseen_y = rng.integers(0, 6, 40), rng.integers(6, 10, 30)
            assert_same_curve(
                ev.seen_unseen_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                     list(range(6))),
                brute_force_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                  list(range(6))))

    def test_rounding_merge_breaks_toward_lower_column(self, scores_as_features):
        # 0.5 + 512 and 0.5 + 2**-45 + 512 both round to 512.5, so argmax of
        # the shifted row picks column 0 although column 1 holds the best score.
        prototypes = fixed_prototypes({0: [1.0], 1: [1.0], 2: [1.0]})
        seen_x = np.array([[0.5, 0.5 + 2.0**-45, 0.25]])
        unseen_x = np.array([[0.0, 0.0, 0.25]])
        mask = np.array([True, True, False])
        assert ev.calibrated_argmax(seen_x, mask)(-512.0).tolist() == [0]
        args = (prototypes, seen_x, np.array([0]), unseen_x, np.array([2]), [0, 1],
                [-512.0])
        curve = ev.seen_unseen_curve(*args)
        assert curve.seen_accuracy[list(curve.gammas).index(-512.0)] == 1.0
        assert_same_curve(curve, brute_force_curve(*args))


    @pytest.mark.parametrize("n", [1, ev.CURVE_BLOCK_ROWS - 1, ev.CURVE_BLOCK_ROWS,
                                   ev.CURVE_BLOCK_ROWS + 1, 3 * ev.CURVE_BLOCK_ROWS + 7])
    def test_block_boundaries_match_bruteforce(self, n):
        """Row counts around the block size, with a mask that has no unseen
        column and one with a single seen column among the masks."""
        rng = np.random.default_rng(n)
        scores = rng.integers(-8, 9, (n, 7)) / 8.0
        columns = np.arange(7)
        for mask in (np.isin(columns, [0, 2, 3, 5]), columns >= 0, columns == 4):
            argmax = ev.calibrated_argmax(scores, mask)
            for gamma in np.arange(-24, 25) / 8.0:
                np.testing.assert_array_equal(argmax(gamma),
                                              np.argmax(scores - mask * gamma, axis=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_last_block_rejected(self, value):
        scores = np.zeros((3 * ev.CURVE_BLOCK_ROWS + 7, 4))
        scores[-1, 2] = value
        with pytest.raises(ValueError, match="scores must be finite"):
            ev.calibrated_argmax(scores, np.array([True, False, True, False]))

    def test_curve_holds_less_than_two_seen_score_matrices(self):
        """The sweep keeps both score matrices and one block of masked copies:
        below twice the 4,800 x 144 seen matrix (5.53 MB) on an eval-large shape."""
        rng = np.random.default_rng(5)
        prototypes = fixed_prototypes({c: rng.normal(0, 1, 64).tolist()
                                       for c in range(144)})
        seen_x, unseen_x = rng.normal(0, 1, (4800, 64)), rng.normal(0, 1, (960, 64))
        seen_y, unseen_y = rng.integers(0, 120, 4800), rng.integers(120, 144, 960)
        tracemalloc.start()
        try:
            ev.seen_unseen_curve(prototypes, seen_x, seen_y, unseen_x, unseen_y,
                                 list(range(120)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4800 * 144 * 8


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

    def test_summing_model_fuses_in_its_own_mode(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=8,
                                                  semantic_dim=6), seed=2)
        config = tr.TrainConfig(steps=2, n_nfg=1, batch_size=8, noise_dim=4,
                                gen_hidden=12, disc_hidden=(12, 10), fusion_hidden=6,
                                offspring_budget=4, seed=2, fusion_mode="summing")
        model = tr.train(config, bundle).model
        implied, _ = ev.evaluate_gzsl(model, bundle, n_syn=5, seed=2)
        checked, _ = ev.evaluate_gzsl(model, bundle, n_syn=5, seed=2,
                                      fusion_mode="summing")
        assert implied.to_csv() == checked.to_csv()
        with pytest.raises(ValueError, match="'adaptive'.*'summing'"):
            ev.evaluate_gzsl(model, bundle, n_syn=5, seed=2, fusion_mode="adaptive")

    def test_gzsl_unseen_top1_matches_zsl(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=6,
                                                  semantic_dim=4), seed=5)
        config = tr.TrainConfig(noise_dim=3, gen_hidden=8, disc_hidden=(8, 6),
                                fusion_hidden=5, seed=5)
        model = FusionGan(config, 6, 4, len(bundle.seen_ids))
        top1, per_class = ev.evaluate_zsl(model, bundle, n_syn=7, seed=3)
        metrics, _ = ev.evaluate_gzsl(model, bundle, n_syn=7, seed=3)
        assert metrics.top1_unseen == top1
        assert metrics.per_class_correct == per_class

    def test_per_class_csv(self):
        """The per-class table ``eval`` writes: one row per class in id order."""
        out = csv_text(("class_id", "correct"), sorted({3: 5, 1: 2}.items()))
        assert out == "class_id,correct\n1,2\n3,5\n"
