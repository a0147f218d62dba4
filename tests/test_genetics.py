import types

import numpy as np
import pytest

from mkfusion import autodiff as ad
from mkfusion import genetics as gn
from mkfusion import model as mdl
from mkfusion import trainer as tr
from mkfusion.dataset import (LEVELS, SyntheticSpec, compute_visual_centers,
                              derive_knowledge_datasets, generate_synthetic)
from mkfusion.trainer import TrainConfig


@pytest.fixture(autouse=True)
def fresh_graph():
    ad.clear_graph()
    yield
    ad.clear_graph()


def forced_draw(loc1=(), loc2=()):
    return gn.GeneticDraw(loc1=np.array(loc1, dtype=np.int64),
                          loc2=np.array(loc2, dtype=np.int64))


class TestGeneticDraw:
    def test_sampled_draws_are_valid(self):
        """Both position sets are distinct, in-range int64 positions."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            draw = gn.GeneticDraw.sample(16, rng)
            for locs in (draw.loc1, draw.loc2):
                assert locs.dtype == np.int64
                assert len(locs) < 16
                assert len(set(locs.tolist())) == len(locs)
                if len(locs):
                    assert 0 <= locs.min() and locs.max() < 16

    def test_sample_matches_checked_constructor(self):
        """Same positions and the same generator state as drawing r1, r2,
        then floor(dim * r1) and floor(dim * r2) positions from the same
        stream and building each draw through the constructor."""
        fast, checked = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(200):
            draw = gn.GeneticDraw.sample(16, fast)
            r1, r2 = float(checked.uniform()), float(checked.uniform())
            expected = gn.GeneticDraw(
                loc1=checked.choice(16, size=int(16 * r1), replace=False),
                loc2=checked.choice(16, size=int(16 * r2), replace=False))
            np.testing.assert_array_equal(draw.loc1, expected.loc1)
            np.testing.assert_array_equal(draw.loc2, expected.loc2)
        assert fast.bit_generator.state == checked.bit_generator.state


def mutate_per_position(t_a, rng, draw):
    """The reference mutation: one ``rng.uniform()`` per position of ``loc1``,
    in order, multiplying a nonzero entry and adding to a zero one."""
    out = np.array(t_a, dtype=np.float64)
    for position in draw.loc1:
        r = float(rng.uniform())
        if out[position] != 0.0:
            out[position] *= r
        else:
            out[position] += r
    return out


class TestMutate:
    def test_matches_per_position_reference(self):
        rng = np.random.default_rng(11)
        for i in range(300):
            dim = int(rng.integers(1, 20))
            t_a = rng.normal(0, 1, dim)
            t_a[rng.random(dim) < 0.3] = 0.0
            t_a[rng.random(dim) < 0.2] = -0.0
            draw = (forced_draw() if i % 10 == 0
                    else gn.GeneticDraw.sample(dim, rng))
            seed = int(rng.integers(2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            out = gn.mutate(t_a, ours, draw)
            expected = mutate_per_position(t_a, theirs, draw)
            assert out.tobytes() == expected.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_empty_mutation_set_is_identity(self):
        rng = np.random.default_rng(1)
        t_a = rng.normal(0, 1, 8)
        out = gn.mutate(t_a, rng, draw=forced_draw())
        np.testing.assert_array_equal(out, t_a)

    def test_zero_entry_gets_fresh_uniform(self):
        rng = np.random.default_rng(2)
        t_a = np.zeros(6)
        out = gn.mutate(t_a, rng, draw=forced_draw(loc1=(3,)))
        assert 0.0 < out[3] < 1.0
        assert np.all(out[[0, 1, 2, 4, 5]] == 0.0)

    def test_nonzero_entries_shrink_without_sign_change(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            t_a = rng.normal(0, 2, 12)
            t_a[rng.integers(0, 12)] = 0.0
            out = gn.mutate(t_a, rng, gn.GeneticDraw.sample(12, rng))
            nonzero = t_a != 0.0
            assert np.all(np.abs(out[nonzero]) <= np.abs(t_a[nonzero]))
            assert np.all(np.sign(out[nonzero] * t_a[nonzero]) >= 0.0)

    def test_only_drawn_positions_change(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            t_a = rng.normal(0, 1, 10)
            draw = gn.GeneticDraw.sample(10, rng)
            out = gn.mutate(t_a, rng, draw=draw)
            untouched = np.setdiff1d(np.arange(10), draw.loc1)
            np.testing.assert_array_equal(out[untouched], t_a[untouched])


class TestCrossover:
    def test_identical_parents_fixed_point(self):
        rng = np.random.default_rng(5)
        t_a = rng.normal(0, 1, 9)
        out = gn.crossover(t_a, t_a.copy(), gn.GeneticDraw.sample(9, rng))
        np.testing.assert_array_equal(out, t_a)

    def test_empty_swap_is_identity(self):
        rng = np.random.default_rng(6)
        t_a, t_b = rng.normal(0, 1, (2, 7))
        out = gn.crossover(t_a, t_b, draw=forced_draw())
        np.testing.assert_array_equal(out, t_a)

    def test_positionwise_membership(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            t_a, t_b = rng.normal(0, 1, (2, 11))
            out = gn.crossover(t_a, t_b, gn.GeneticDraw.sample(11, rng))
            assert np.all((out == t_a) | (out == t_b))

    def test_dim_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="mismatch"):
            gn.crossover(np.zeros(3), np.zeros(4), gn.GeneticDraw.sample(3, rng))


def desk_context(seed=0):
    bundle = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=8,
                                              semantic_dim=6), seed=seed)
    datasets = derive_knowledge_datasets(bundle)
    centers = {level: compute_visual_centers(datasets[level]) for level in LEVELS}
    config = tr.TrainConfig(noise_dim=4, gen_hidden=8, disc_hidden=(8, 6), fusion_hidden=5,
                            seed=seed)
    model = mdl.FusionGan(config, 8, 6, len(bundle.seen_ids))
    return bundle, datasets, centers, model


class TestSampleParents:
    def test_single_candidate_forces_equal_parents(self):
        bundle, datasets, _, _ = desk_context()
        species_ds = datasets["species"]
        class_id = species_ds.class_ids[0]
        idx = species_ds.indices_by_class[class_id]
        # Shrink the dataset to one entry of one class at every level.
        one = gn.Pools()
        tiny = {level: type(datasets[level])(
            visuals=species_ds.visuals[idx[:1]], labels=np.array([class_id]),
            semantics=species_ds.semantics[idx[:1]])
            for level in LEVELS}
        rng = np.random.default_rng(9)
        level, cid, t_a, t_b = gn.sample_parents(tiny, one, rng)
        np.testing.assert_array_equal(t_a, t_b)

    def test_parents_share_the_chosen_class(self):
        bundle, datasets, _, _ = desk_context()
        pools = gn.Pools()
        rng = np.random.default_rng(10)
        for _ in range(300):
            level, class_id, t_a, t_b = gn.sample_parents(datasets, pools, rng)
            ds = datasets[level]
            members = ds.semantics[ds.indices_by_class[class_id]]
            assert any(np.array_equal(t_a, row) for row in members)
            assert any(np.array_equal(t_b, row) for row in members)

    def test_enhanced_entries_become_sampleable(self):
        bundle, datasets, _, _ = desk_context()
        pools = gn.Pools()
        marker = np.full(6, 123.456)
        level, class_id = "species", datasets["species"].class_ids[0]
        pools.enhanced.add(level, class_id, marker)
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(10_000):
            lv, cid, t_a, t_b = gn.sample_parents(datasets, pools, rng)
            if lv == level and cid == class_id:
                hits += int(np.array_equal(t_a, marker)) + int(np.array_equal(t_b, marker))
        assert hits > 0

    def test_empty_dataset_rejected(self):
        empty = {level: type(desk_context()[1]["species"])(
            visuals=np.zeros((0, 8)), labels=np.zeros(0, dtype=np.int64),
            semantics=np.zeros((0, 6)))
            for level in LEVELS}
        with pytest.raises(ValueError, match="no classes"):
            gn.sample_parents(empty, gn.Pools(), np.random.default_rng(0))


class TestStability:
    def test_cosine_identities(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        b = np.array([[3.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        got = gn.cosine_rows(a, b)
        np.testing.assert_allclose(got, [1.0, 0.0, 1.0 / np.sqrt(2.0)], atol=1e-12)
        row = np.array([[1.0, 1.0]])
        np.testing.assert_array_equal(gn.cosine_rows(a, row),
                                      gn.cosine_rows(a, np.repeat(row, 3, axis=0)))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            gn.cosine_rows(np.zeros((1, 3)), np.ones((1, 3)))

    def test_non_finite_weight_rejected(self):
        """A NaN score would fall through both gates and be discarded silently."""
        bundle, datasets, centers, model = desk_context(seed=3)
        model.generators["species"].params["w1"].data[0, 0] = np.inf
        class_id = datasets["species"].class_ids[0]
        with pytest.raises(ValueError, match="non-finite"):
            gn.stability_scores(np.ones(6), model, centers["species"][class_id],
                                np.random.default_rng(0))

    def test_scores_in_unit_interval_and_deterministic(self):
        bundle, datasets, centers, model = desk_context(seed=3)
        species_ds = datasets["species"]
        class_id = species_ds.class_ids[0]
        t_vec = species_ds.semantics[species_ds.indices_by_class[class_id][0]]
        center = centers["species"][class_id]
        d1 = gn.stability_scores(t_vec, model, center, np.random.default_rng(42))
        d2 = gn.stability_scores(t_vec, model, center, np.random.default_rng(42))
        assert d1.shape == (1,)
        assert -1.0 <= d1[0] <= 1.0
        assert d1[0] == d2[0]


def flat_reference(pool):
    """The enhanced pool flattened into a list, key by key in insertion order."""
    return [(level, class_id, vector)
            for (level, class_id), vectors in pool.entries.items()
            for vector in vectors]


def replay_loss_er(reference, species_under, seed, batch_size, noise_dim):
    """The rows, labels and noise ``loss_er`` must hand to ``enhanced_terms``:
    its draws replayed with pick ``i`` read as ``reference[i]``."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(reference), size=min(len(reference), batch_size),
                       replace=False)
    rows, labels = [], []
    for i in picks:
        level, class_id, vector = reference[int(i)]
        rows.append(vector)
        members = species_under[(level, class_id)]
        labels.append(members[int(rng.integers(0, len(members)))])
    return np.stack(rows), labels, rng.standard_normal((len(rows), noise_dim))


def captured_loss_er(monkeypatch, pools, species_under, seed, batch_size, noise_dim):
    """The (rows, labels, noise) ``loss_er`` passes to ``enhanced_terms``."""
    seen = []

    def enhanced_terms(model, t_batch, labels, z):
        seen.append((t_batch, labels, z))
        return ad.Tensor(0.0)

    monkeypatch.setattr(gn, "enhanced_terms", enhanced_terms)
    model = types.SimpleNamespace(noise_dim=noise_dim)
    gn.loss_er(model, pools, species_under, np.random.default_rng(seed), batch_size)
    assert len(seen) == 1
    return seen[0]


class TestEnhancedDraw:
    """How ``loss_er`` maps a drawn index to one pooled vector and its key."""

    def test_matches_flattened_list(self, monkeypatch):
        rng = np.random.default_rng(21)
        pools = gn.Pools()
        keys = [(level, class_id) for level in LEVELS for class_id in range(4)]
        # Keys with 1..12 member labels, so the label draw depends on the key.
        species_under = {key: list(range(10 * n, 11 * n + 1))
                         for n, key in enumerate(keys)}
        # A key with no vectors, as a restored checkpoint may hold, is skipped.
        pools.enhanced.entries[("genus", 99)] = []
        species_under[("genus", 99)] = [0]
        for n in range(1, 301):
            level, class_id = keys[int(rng.integers(len(keys)))]
            pools.enhanced.add(level, class_id, rng.normal(size=3))
            if n % 25 == 0:
                # A batch as large as the pool draws every index, key starts too.
                for batch_size in (8, n):
                    got = captured_loss_er(monkeypatch, pools, species_under, n,
                                           batch_size, 2)
                    expected = replay_loss_er(flat_reference(pools.enhanced),
                                              species_under, n, batch_size, 2)
                    assert got[0].tobytes() == expected[0].tobytes()
                    assert got[1].tolist() == expected[1]
                    assert got[2].tobytes() == expected[2].tobytes()
        assert pools.enhanced.size == 300
        assert len(pools.enhanced.entries) == len(keys) + 1

    def test_empty_pool(self):
        assert gn.EnhancedPool().flat() == []
        model = types.SimpleNamespace(noise_dim=2)
        for pools in (gn.Pools(), gn.Pools(gn.EnhancedPool({("species", 0): []}))):
            rng = np.random.default_rng(4)
            before = rng.bit_generator.state
            assert gn.loss_er(model, pools, {("species", 0): [0]}, rng, 8).item() == 0.0
            assert rng.bit_generator.state == before

    def test_matches_after_checkpoint_roundtrip(self, tmp_path, monkeypatch):
        bundle = desk_context()[0]
        config = TrainConfig(steps=3, n_nfg=0, batch_size=8, noise_dim=4,
                             gen_hidden=8, disc_hidden=(8, 6), fusion_hidden=5,
                             offspring_budget=16, kappa1=-0.5, kappa2=-0.9)
        state = tr.train(config, bundle).state
        assert len(state.pools.enhanced.entries) > 1
        path = tmp_path / "run.ckpt"
        tr.save_checkpoint(str(path), state)
        restored = tr.restore_checkpoint(str(path)).pools
        size = state.pools.enhanced.size
        assert restored.enhanced.size == size
        species_under = tr.species_groups(bundle)
        got, expected = (captured_loss_er(monkeypatch, pools, species_under, 5, size, 4)
                         for pools in (restored, state.pools))
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tolist() == expected[1].tolist()
        assert got[2].tobytes() == expected[2].tobytes()


class TestSelect:
    def test_threshold_examples(self):
        pools = gn.Pools()
        vec = np.ones(4)
        assert gn.select(vec, 0.9, 0.8, 0.2, pools, "species", 1) == "enhanced"
        assert gn.select(vec, 0.5, 0.8, 0.2, pools, "species", 1) == "discarded"
        assert gn.select(vec, 0.1, 0.8, 0.2, pools, "species", 1) == "novel"
        assert pools.enhanced.size == 1
        assert pools.novel.size == 1

    def test_trichotomy_is_exhaustive(self):
        rng = np.random.default_rng(12)
        pools = gn.Pools()
        for _ in range(1000):
            d = rng.uniform(-1, 1)
            outcome = gn.select(np.ones(3), d, 0.8, 0.2, pools, "genus", 0)
            expected = "enhanced" if d > 0.8 else "novel" if d < 0.2 else "discarded"
            assert outcome == expected

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError, match="kappa1"):
            gn.select(np.ones(3), 0.5, 0.2, 0.8, gn.Pools(), "species", 0)

    def test_pools_only_grow(self):
        rng = np.random.default_rng(13)
        pools = gn.Pools()
        sizes = []
        for _ in range(200):
            gn.select(rng.normal(0, 1, 3), rng.uniform(-1, 1), 0.8, 0.2,
                      pools, "species", 0)
            sizes.append((pools.enhanced.size, pools.novel.size))
        for earlier, later in zip(sizes, sizes[1:]):
            assert later[0] >= earlier[0]
            assert later[1] >= earlier[1]


def label_context(bundle):
    """The class-head label of each seen species (its index in sorted id
    order), and those labels grouped under every (level, class id) key."""
    label_index = {sid: i for i, sid in enumerate(sorted(bundle.seen_ids))}
    taxonomy = {row[0]: row for row in bundle.taxonomy.tolist()}
    species_under = {}
    for sid, label in label_index.items():
        _, genus_id, family_id = taxonomy[sid]
        species_under.setdefault(("species", sid), []).append(label)
        species_under.setdefault(("genus", genus_id), []).append(label)
        species_under.setdefault(("family", family_id), []).append(label)
    return species_under, label_index


class TestPoolLosses:
    def test_trainer_groups_hold_class_head_labels(self):
        bundle = desk_context()[0]
        species_under, _ = label_context(bundle)
        assert tr.species_groups(bundle) == species_under

    def test_empty_pools_give_zero(self):
        bundle, datasets, centers, model = desk_context()
        species_under, _ = label_context(bundle)
        rng = np.random.default_rng(14)
        er = gn.loss_er(model, gn.Pools(), species_under, rng, 8)
        nr = gn.loss_nr(model, gn.Pools(), 1.0, rng, 8)
        assert er.item() == 0.0
        assert nr.item() == 0.0

    def test_er_matches_fusion_terms_on_same_batch(self):
        bundle, datasets, centers, model = desk_context(seed=5)
        species_under, label_index = label_context(bundle)
        pools = gn.Pools()
        vec = datasets["species"].semantics[0]
        class_id = int(datasets["species"].labels[0])
        pools.enhanced.add("species", class_id, vec)
        value = gn.loss_er(model, pools, species_under, np.random.default_rng(77),
                           8).item()
        # Replay the identical rng stream to reproduce the sampled batch.
        rng = np.random.default_rng(77)
        rng.choice(1, size=1, replace=False)
        rng.integers(0, 1)
        z = rng.standard_normal((1, model.noise_dim))
        with ad.no_grad():
            expected = gn.enhanced_terms(model, vec[None, :],
                                         np.array([label_index[class_id]]), z).item()
        assert value == pytest.approx(expected, rel=1e-12)

    def test_er_label_comes_from_group_members(self):
        bundle, datasets, centers, model = desk_context(seed=6)
        species_under, _ = label_context(bundle)
        pools = gn.Pools()
        genus_id = int(bundle.taxonomy[bundle.rows_of(bundle.seen_ids[0]), 1])
        pools.enhanced.add("genus", genus_id, datasets["genus"].semantics[0])
        rng = np.random.default_rng(15)
        loss = gn.loss_er(model, pools, species_under, rng, 4)
        assert np.isfinite(loss.item())

    def test_nr_uniform_posterior_zeroes_mismatch(self):
        bundle, datasets, centers, model = desk_context()
        for p in model.group("discriminator/"):
            p.data[...] = 0.0
        t_batch = datasets["species"].semantics[:3]
        z = np.zeros((3, model.noise_dim))
        loss = gn.novel_terms(model, t_batch, z, lam=5.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_nr_lambda_zero_reduces_to_realness(self):
        bundle, datasets, centers, model = desk_context(seed=7)
        t_batch = datasets["species"].semantics[:4]
        rng = np.random.default_rng(16)
        z = rng.standard_normal((4, model.noise_dim))
        loss = gn.novel_terms(model, t_batch, z, lam=0.0)
        with ad.no_grad():
            _, fused, _ = model.generate_fused(t_batch, z)
            realness, _ = mdl.discriminate(model.discriminator, fused)
        assert loss.item() == pytest.approx(realness.data.mean(), rel=1e-12)

    def test_nr_negative_lambda_rejected(self):
        _, _, _, model = desk_context()
        with pytest.raises(ValueError, match="non-negative"):
            gn.loss_nr(model, gn.Pools(), -1.0, np.random.default_rng(0), 4)

    def test_uniform_target_width_matches_seen_classes(self):
        _, _, _, model = desk_context()
        assert model.n_classes == model.discriminator.params["w_cls"].shape[1]
        uniform = np.full(model.n_classes, 1.0 / model.n_classes)
        assert uniform.sum() == pytest.approx(1.0)
