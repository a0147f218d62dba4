import base64
import json
import re

import numpy as np
import pytest

from mkfusion.dataset import (
    BUNDLE_VERSION,
    ClassRecord,
    DatasetBundle,
    LevelDataset,
    SyntheticSpec,
    compute_visual_centers,
    decode_array,
    encode_array,
    derive_knowledge_datasets,
    generate_synthetic,
    load_bundle,
    save_bundle,
    LEVELS,
)


def f64(*values):
    """The ``f64`` text of the float64 array ``values``."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()


F64_ONE = f64(1.0)


def tiny_bundle():
    """One family, one genus, two seen species, two samples each."""
    classes = [
        ClassRecord(0, 0, 0, "a", np.array([1.0, 0.0])),
        ClassRecord(1, 0, 0, "b", np.array([0.0, 1.0])),
    ]
    species = np.array([0, 0, 1, 1])
    visuals = np.array([[0.0, 0.0], [2.0, 4.0], [1.0, 1.0], [3.0, 3.0]])
    return DatasetBundle(classes, species, visuals, seen_ids=[0, 1], unseen_ids=[],
                         visual_dim=2, semantic_dim=2)


class TestDerive:
    def test_single_family_collapses_to_one_class(self):
        datasets = derive_knowledge_datasets(tiny_bundle())
        assert datasets["family"].n_classes == 1
        assert len(datasets["family"]) == 4
        assert datasets["species"].n_classes == 2

    def test_cub_like_shape_counts(self):
        spec = SyntheticSpec(families=5, genera_per_family=8, species_per_genus=5,
                             samples_per_species=2, visual_dim=8, semantic_dim=6)
        bundle = generate_synthetic(spec, seed=3)
        assert len(bundle.classes) == 200
        datasets = derive_knowledge_datasets(bundle)
        n_seen_samples = len(bundle.seen_sample_species())
        for level in LEVELS:
            assert len(datasets[level]) == n_seen_samples
        assert datasets["species"].n_classes == len(bundle.seen_ids)
        assert datasets["genus"].n_classes < datasets["species"].n_classes
        assert datasets["family"].n_classes < datasets["genus"].n_classes

    def test_empty_bundle_gives_empty_datasets(self):
        bundle = DatasetBundle([], np.zeros(0, dtype=np.int64), np.zeros((0, 3)),
                               seen_ids=[], unseen_ids=[], visual_dim=3, semantic_dim=2)
        datasets = derive_knowledge_datasets(bundle)
        for level in LEVELS:
            assert len(datasets[level]) == 0
            assert datasets[level].n_classes == 0

    def test_relabeling_partitions_samples(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=3, visual_dim=6,
                                                  semantic_dim=4), seed=5)
        datasets = derive_knowledge_datasets(bundle)
        for level in LEVELS:
            ds = datasets[level]
            sizes = [len(idx) for idx in ds.indices_by_class.values()]
            assert sum(sizes) == len(ds)
            seen_records = [bundle.by_species[s] for s in bundle.seen_ids]
            assert set(ds.class_ids) == {r.level_id(level) for r in seen_records}

    def test_semantics_stay_species_level(self):
        bundle = tiny_bundle()
        datasets = derive_knowledge_datasets(bundle)
        for level in LEVELS:
            for row, sid in zip(datasets[level].semantics, bundle.seen_sample_species()):
                np.testing.assert_array_equal(row, bundle.semantic_for(sid))

    @pytest.mark.parametrize("seen,unseen,message", [
        ([0, 999], [1], "seen split: species [999] have no class record"),
        ([0], [1, 998, 999], "unseen split: species [998, 999] have no class record"),
        ([0, 0], [1], "seen split: species [0] are listed more than once"),
        ([0], [1, 1, 1], "unseen split: species [1] are listed more than once")])
    def test_split_ids_must_be_known_and_distinct(self, seen, unseen, message):
        classes = [ClassRecord(i, 0, 0, f"s{i}", np.zeros(2)) for i in (0, 1)]
        with pytest.raises(ValueError, match=re.escape(message)):
            DatasetBundle(classes, np.array([0, 1]), np.zeros((2, 2)),
                          seen_ids=seen, unseen_ids=unseen, visual_dim=2, semantic_dim=2)

    def test_unknown_species_rejected(self):
        classes = [ClassRecord(0, 0, 0, "a", np.zeros(2))]
        with pytest.raises(ValueError, match="unknown species"):
            DatasetBundle(classes, np.array([5]), np.zeros((1, 2)),
                          seen_ids=[0], unseen_ids=[], visual_dim=2, semantic_dim=2)


class TestCenters:
    def test_single_sample_class(self):
        ds = LevelDataset("species", np.array([[1.0, 2.0]]), np.array([7]),
                          np.zeros((1, 2)))
        centers = compute_visual_centers(ds)
        np.testing.assert_array_equal(centers.centers[7], [1.0, 2.0])

    def test_arithmetic_mean(self):
        datasets = derive_knowledge_datasets(tiny_bundle())
        centers = compute_visual_centers(datasets["species"])
        np.testing.assert_allclose(centers.centers[0], [1.0, 2.0])
        np.testing.assert_allclose(centers.centers[1], [2.0, 2.0])

    def test_family_center_is_weighted_genus_combination(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=6,
                                                  semantic_dim=4), seed=9)
        datasets = derive_knowledge_datasets(bundle)
        family_centers = compute_visual_centers(datasets["family"])
        genus_ds = datasets["genus"]
        family_of_genus = {bundle.by_species[s].genus_id: bundle.by_species[s].family_id
                           for s in bundle.seen_ids}
        for fam, center in family_centers.centers.items():
            total = np.zeros(bundle.visual_dim)
            count = 0
            for genus, idx in genus_ds.indices_by_class.items():
                if family_of_genus[genus] == fam:
                    total += genus_ds.visuals[idx].sum(axis=0)
                    count += len(idx)
            np.testing.assert_allclose(center, total / count, atol=1e-12)

    def test_centers_match_bruteforce_mean(self):
        bundle = generate_synthetic(SyntheticSpec(visual_dim=6, semantic_dim=4), seed=2)
        datasets = derive_knowledge_datasets(bundle)
        for level in LEVELS:
            ds = datasets[level]
            centers = compute_visual_centers(ds)
            for class_id in ds.class_ids:
                rows = [ds.visuals[i] for i in range(len(ds))
                        if ds.labels[i] == class_id]
                brute = sum(rows) / len(rows)
                assert np.linalg.norm(centers.centers[class_id] - brute) <= 1e-12

    def test_missing_center_lookup_raises(self):
        centers = compute_visual_centers(derive_knowledge_datasets(tiny_bundle())["species"])
        with pytest.raises(KeyError, match="99"):
            centers.rows_for(np.array([0, 99]))


# Every bounded SyntheticSpec field just past each end of its range:
# (dataclass, field, bad value). A closed end is passed by the smallest
# step, an open end by the bound itself.
OUT_OF_RANGE = [
    (SyntheticSpec, "families", 0),
    (SyntheticSpec, "genera_per_family", 0),
    (SyntheticSpec, "species_per_genus", 0),
    (SyntheticSpec, "samples_per_species", 0),
    (SyntheticSpec, "visual_dim", 0),
    (SyntheticSpec, "semantic_dim", -1),
    (SyntheticSpec, "unseen_fraction", 0.0),
    (SyntheticSpec, "unseen_fraction", 1),
    (SyntheticSpec, "sigma_family", 0.0),
    (SyntheticSpec, "sigma_genus", 0.0),
    (SyntheticSpec, "sigma_species", 0.0),
    (SyntheticSpec, "sigma_species", -0.25),
    (SyntheticSpec, "noise_std", 0),
    (SyntheticSpec, "semantic_noise_std", -1e-12),
    (SyntheticSpec, "noise_std", float("nan")),
]


class TestSynthetic:
    def test_default_counts(self):
        bundle = generate_synthetic(SyntheticSpec(), seed=1)
        assert len(bundle.classes) == 36
        assert bundle.n_samples == 720
        assert len(bundle.unseen_ids) == 6
        assert not set(bundle.seen_ids) & set(bundle.unseen_ids)
        assert sorted(bundle.seen_ids + bundle.unseen_ids) == list(range(36))

    def test_same_seed_is_identical(self):
        a = generate_synthetic(SyntheticSpec(), seed=4)
        b = generate_synthetic(SyntheticSpec(), seed=4)
        c = generate_synthetic(SyntheticSpec(), seed=5)
        assert a == b
        assert a != c

    def test_every_genus_keeps_a_seen_species(self):
        for seed in range(5):
            bundle = generate_synthetic(SyntheticSpec(), seed=seed)
            seen_genera = {bundle.by_species[s].genus_id for s in bundle.seen_ids}
            all_genera = {c.genus_id for c in bundle.classes}
            assert seen_genera == all_genera

    def test_true_center_classifier_on_seen(self):
        bundle = generate_synthetic(SyntheticSpec(), seed=1)
        datasets = derive_knowledge_datasets(bundle)
        centers = compute_visual_centers(datasets["species"])
        ids = sorted(centers.centers)
        matrix = np.stack([centers.centers[c] for c in ids])
        x = bundle.seen_visuals()
        distance = ((x[:, None, :] - matrix[None, :, :]) ** 2).sum(axis=2)
        predicted = np.asarray(ids)[np.argmin(distance, axis=1)]
        accuracy = (predicted == bundle.seen_sample_species()).mean()
        assert accuracy >= 0.99

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unseen_fraction"):
            SyntheticSpec(unseen_fraction=1.0)
        with pytest.raises(ValueError, match="families"):
            SyntheticSpec(families=0)
        with pytest.raises(ValueError, match="decrease"):
            SyntheticSpec(sigma_family=0.1, sigma_genus=0.5)

    @pytest.mark.parametrize("cls,name,value", OUT_OF_RANGE)
    def test_out_of_range_names_the_field(self, cls, name, value):
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("families", True), ("visual_dim", 4.0), ("sigma_family", "1"),
        ("noise_std", None)])
    def test_wrong_type_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            SyntheticSpec(**{name: value})

    def test_closed_range_ends_are_valid(self):
        spec = SyntheticSpec(families=1, genera_per_family=1, species_per_genus=2,
                             samples_per_species=1, visual_dim=1, semantic_dim=1,
                             semantic_noise_std=0)
        assert spec.semantic_noise_std == 0.0
        assert type(SyntheticSpec(sigma_family=2).sigma_family) is float


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(visual_dim=7, semantic_dim=5), seed=8)
        path = tmp_path / "bundle.json"
        save_bundle(bundle, str(path))
        assert load_bundle(str(path)) == bundle

    def test_full_precision_floats_roundtrip(self, tmp_path):
        awkward = np.nextafter(0.1, 1.0)
        classes = [ClassRecord(0, 0, 0, "a", np.array([awkward, 1/ 3]))]
        bundle = DatasetBundle(classes, np.array([0]),
                               np.array([[np.pi, np.e]]), seen_ids=[0], unseen_ids=[],
                               visual_dim=2, semantic_dim=2)
        path = tmp_path / "bundle.json"
        save_bundle(bundle, str(path))
        loaded = load_bundle(str(path))
        assert loaded.sample_visuals[0, 0] == np.pi
        assert loaded.classes[0].semantic[0] == awkward

    def test_missing_top_level_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"format_version": BUNDLE_VERSION,
                                    "dims": {"visual": 2, "semantic": 2},
                                    "samples": [], "splits": {"seen": [], "unseen": []}}))
        with pytest.raises(ValueError, match="missing field: classes"):
            load_bundle(str(path))

    def test_missing_nested_field_names_entry(self, tmp_path):
        path = tmp_path / "broken.json"
        semantic = encode_array(np.zeros(2))
        document = {"format_version": BUNDLE_VERSION,
                    "dims": {"visual": 2, "semantic": 2},
                    "classes": [{"species_id": 0, "genus_id": 0, "family_id": 0,
                                 "name": "a", "semantic": semantic},
                                {"genus_id": 0, "family_id": 0,
                                 "name": "b", "semantic": semantic}],
                    "samples": {"species_id": [0],
                                "visual": encode_array(np.array([[1.0, 2.0]]))},
                    "splits": {"seen": [0], "unseen": []}}
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=r"classes\[1\].*missing field: species_id"):
            load_bundle(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for text, message in (("{not json", "malformed"), ("5", "JSON object"),
                              ('{"dims": {}}', "missing field: format_version"),
                              ('{"format_version": 0}', "version mismatch: found 0,")):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                load_bundle(str(path))

    @pytest.mark.parametrize("a", [
        np.arange(6.0).reshape(2, 3) / 7, np.zeros((0, 3)), np.array(np.pi),
        np.array([-0.0, 0.0]),
        np.array([np.finfo(np.float64).smallest_subnormal, -5e-324,
                  np.finfo(np.float64).tiny / 3]),
        np.array([np.finfo(np.float64).max, -np.finfo(np.float64).max]),
        (np.arange(12.0).reshape(3, 4) / 7).T,
        (np.arange(6.0).reshape(2, 3) / 7).astype(">f8"),
    ], ids=["matrix", "empty", "scalar", "signed-zero", "subnormal", "max",
            "transposed", "big-endian"])
    def test_array_codec_roundtrip(self, a):
        entry = json.loads(json.dumps(encode_array(a)))
        decoded = decode_array(entry, "probe", shape=a.shape)
        assert decoded.dtype == np.float64 and decoded.shape == a.shape
        assert decoded.tobytes() == np.ascontiguousarray(a, dtype=np.float64).tobytes()
        assert decoded.flags.writeable and decoded.flags.owndata

    @pytest.mark.parametrize("entry,message", [
        ([1.0], "expected an object"),
        ({"f64": F64_ONE}, "missing field: shape"),
        ({"shape": [1]}, "missing field: f64"),
        ({"shape": [1.0], "f64": F64_ONE}, "non-negative integers"),
        ({"shape": [True], "f64": F64_ONE}, "non-negative integers"),
        ({"shape": [-1], "f64": ""}, "non-negative integers"),
        ({"shape": [1, 1], "f64": F64_ONE}, "does not match expected"),
        ({"shape": [2], "f64": F64_ONE}, "do not fill"),
        ({"shape": [1], "f64": [1.0]}, "must be a string"),
        ({"shape": [1], "f64": "not base64!"}, "not base64"),
        ({"shape": [1], "f64": F64_ONE[:4] + "\n" + F64_ONE[4:]}, "not base64"),
        ({"shape": [1], "f64": base64.b64encode(bytes(7)).decode()}, "do not fill"),
        ({"shape": [1], "f64": f64(float("inf"))}, "non-finite"),
        ({"shape": [1], "f64": f64(-float("inf"))}, "non-finite"),
        ({"shape": [1], "f64": f64(float("nan"))}, "non-finite"),
        ({"shape": [1], "f64": f64(1.0, 2.0)}, "do not fill"),
        ({"shape": [1], "f64": "é" + F64_ONE[1:]}, "not base64"),
    ])
    def test_decode_array_rejects(self, entry, message):
        with pytest.raises(ValueError, match=f"^probe: .*{message}"):
            decode_array(entry, "probe", shape=(None,))
