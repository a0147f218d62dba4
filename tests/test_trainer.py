import numpy as np
import pytest

from mkfusion import trainer as tr
from mkfusion.dataset import DatasetBundle, SyntheticSpec, generate_synthetic
from mkfusion.trainer import TrainConfig


def small_config(**overrides):
    defaults = dict(steps=4, n_nfg=2, batch_size=8, noise_dim=4, gen_hidden=12,
                    disc_hidden=(12, 10), fusion_hidden=6, offspring_budget=8,
                    seed=1)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def small_bundle(seed=1):
    return generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=8,
                                            semantic_dim=6), seed=seed)


def csv_without_seconds(report: tr.TrainReport) -> str:
    lines = report.to_csv().strip().split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError, match="kappa1"):
            TrainConfig(kappa1=0.2, kappa2=0.8)
        with pytest.raises(ValueError, match="non-negative"):
            TrainConfig(steps=-1)
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="fusion mode"):
            TrainConfig(fusion_mode="concat")

    def test_steps_zero_is_valid(self):
        assert TrainConfig(steps=0).steps == 0


class TestSchedule:
    def test_zero_steps_returns_untrained_model(self):
        bundle = small_bundle()
        config = small_config(steps=0)
        result = tr.train(config, bundle)
        assert result.report.rows == []
        assert result.report.d_updates == 0
        fresh = tr.build_model(config, bundle.visual_dim, bundle.semantic_dim,
                               len(bundle.seen_ids))
        for name, p in fresh.named_params().items():
            np.testing.assert_array_equal(result.model.named_params()[name].data, p.data)

    def test_five_discriminator_updates_per_loop(self):
        result = tr.train(small_config(steps=4), small_bundle())
        assert result.report.d_updates == 20
        assert [r.loop for r in result.report.rows] == [1, 2, 3, 4]

    def test_pools_closed_until_gate_opens(self):
        result = tr.train(small_config(steps=5, n_nfg=3), small_bundle())
        for row in result.report.rows:
            if row.loop <= 3:
                assert row.enhanced_size == 0
                assert row.novel_size == 0
        sizes = [(r.enhanced_size, r.novel_size) for r in result.report.rows]
        for earlier, later in zip(sizes, sizes[1:]):
            assert later[0] >= earlier[0] and later[1] >= earlier[1]

    def test_gate_never_opens_when_n_nfg_exceeds_steps(self):
        result = tr.train(small_config(steps=4, n_nfg=10), small_bundle())
        assert result.pools.enhanced.size == 0
        assert result.pools.novel.size == 0

    def test_all_losses_finite(self):
        result = tr.train(small_config(steps=5, n_nfg=1), small_bundle())
        for row in result.report.rows:
            for name in ("l_d", "l_g_species", "l_g_genus", "l_g_family",
                         "l_fm", "l_er", "l_nr"):
                assert np.isfinite(getattr(row, name))

    def test_summing_mode_keeps_fusion_parameters_frozen(self):
        bundle = small_bundle()
        config = small_config(fusion_mode="summing")
        result = tr.train(config, bundle)
        fresh = tr.build_model(config, bundle.visual_dim, bundle.semantic_dim,
                               len(bundle.seen_ids))
        for name, p in result.model.named_params().items():
            if name.startswith("fusion/"):
                np.testing.assert_array_equal(p.data, fresh.named_params()[name].data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_loop_index(self):
        config = small_config(steps=3, n_nfg=0, learning_rate=1e200)
        with pytest.raises(RuntimeError, match="at loop"):
            tr.train(config, small_bundle())

    def test_empty_seen_split_rejected(self):
        bundle = small_bundle()
        broken = DatasetBundle(bundle.classes, bundle.sample_species,
                               bundle.sample_visuals, seen_ids=[],
                               unseen_ids=sorted({c.species_id for c in bundle.classes}),
                               visual_dim=bundle.visual_dim,
                               semantic_dim=bundle.semantic_dim)
        with pytest.raises(ValueError, match="seen"):
            tr.train(small_config(), broken)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = tr.train(small_config(steps=3, n_nfg=1), small_bundle())
        b = tr.train(small_config(steps=3, n_nfg=1), small_bundle())
        assert csv_without_seconds(a.report) == csv_without_seconds(b.report)
        for name, p in a.model.named_params().items():
            np.testing.assert_array_equal(p.data, b.model.named_params()[name].data)

    def test_different_seed_changes_report(self):
        a = tr.train(small_config(steps=3), small_bundle())
        b = tr.train(small_config(steps=3, seed=2), small_bundle())
        assert csv_without_seconds(a.report) != csv_without_seconds(b.report)

    def test_csv_columns(self):
        result = tr.train(small_config(steps=1), small_bundle())
        header = result.report.to_csv().split("\n", 1)[0]
        assert header == ("loop,l_d,l_g_species,l_g_genus,l_g_family,"
                          "l_fm,l_er,l_nr,enhanced_size,novel_size,seconds")


class TestZslContract:
    def test_training_never_reads_unseen_visuals(self):
        bundle = small_bundle()

        class TrackingBundle(DatasetBundle):
            unseen_visual_reads = 0

            def unseen_visuals(self):
                TrackingBundle.unseen_visual_reads += 1
                return super().unseen_visuals()

            def unseen_sample_species(self):
                TrackingBundle.unseen_visual_reads += 1
                return super().unseen_sample_species()

        tracked = TrackingBundle(bundle.classes, bundle.sample_species,
                                 bundle.sample_visuals, bundle.seen_ids,
                                 bundle.unseen_ids, bundle.visual_dim,
                                 bundle.semantic_dim)
        tr.train(small_config(steps=3, n_nfg=0), tracked)
        assert TrackingBundle.unseen_visual_reads == 0


class TestCheckpoint:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        result = tr.train(small_config(steps=3, n_nfg=0), small_bundle())
        path = tmp_path / "run.ckpt"
        tr.save_checkpoint(str(path), result.state)
        restored = tr.restore_checkpoint(str(path))
        for name, p in result.model.named_params().items():
            np.testing.assert_array_equal(p.data, restored.model.named_params()[name].data)
        assert restored.loop_index == 3
        assert restored.rng_state == result.state.rng_state
        assert restored.pools.enhanced.size == result.pools.enhanced.size
        assert restored.pools.novel.size == result.pools.novel.size
        for (key, vectors) in result.pools.enhanced.entries.items():
            stored = restored.pools.enhanced.entries[key]
            for a, b in zip(vectors, stored):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(result.pools.novel.vectors, restored.pools.novel.vectors):
            np.testing.assert_array_equal(a, b)

    def test_split_run_matches_straight_run(self, tmp_path):
        bundle = small_bundle()
        straight = tr.train(small_config(steps=6, n_nfg=2), bundle)

        first = tr.train(small_config(steps=3, n_nfg=2), bundle)
        path = tmp_path / "mid.ckpt"
        tr.save_checkpoint(str(path), first.state)
        restored = tr.restore_checkpoint(str(path))
        resumed = tr.train(small_config(steps=6, n_nfg=2), bundle, resume=restored)

        for name, p in straight.model.named_params().items():
            np.testing.assert_allclose(
                p.data, resumed.model.named_params()[name].data, atol=1e-9, rtol=0)
        assert [r.loop for r in resumed.report.rows] == [4, 5, 6]
        straight_tail = [r for r in straight.report.rows if r.loop >= 4]
        for a, b in zip(straight_tail, resumed.report.rows):
            assert a.l_d == b.l_d
            assert a.l_fm == b.l_fm
            assert a.enhanced_size == b.enhanced_size
            assert a.novel_size == b.novel_size

    def test_corrupted_file_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{truncated")
        with pytest.raises(ValueError, match="malformed"):
            tr.restore_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version mismatch"):
            tr.restore_checkpoint(str(path))

    def test_mismatched_bundle_rejected_on_resume(self, tmp_path):
        result = tr.train(small_config(steps=1), small_bundle())
        other = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=8,
                                                 semantic_dim=6), seed=9)
        if sorted(other.seen_ids) == result.state.seen_species:
            pytest.skip("seed 9 produced an identical split")
        with pytest.raises(ValueError, match="seen classes"):
            tr.train(small_config(steps=2), other, resume=result.state)
