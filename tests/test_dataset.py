import base64
import hashlib
import json
import re

import numpy as np
import pytest

from mkfusion import dataset
from mkfusion.dataset import (
    BUNDLE_VERSION,
    DatasetBundle,
    LevelDataset,
    SyntheticSpec,
    atomic_write_json,
    compute_visual_centers,
    csv_text,
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


def saved_bytes(bundle, tmp_path):
    """The bytes ``save_bundle`` writes for ``bundle``."""
    path = tmp_path / "saved.json"
    save_bundle(bundle, str(path))
    return path.read_bytes()


def tiny_bundle():
    """One family, one genus, two seen species, two samples each."""
    species = np.array([0, 0, 1, 1])
    visuals = np.array([[0.0, 0.0], [2.0, 4.0], [1.0, 1.0], [3.0, 3.0]])
    return DatasetBundle([[0, 0, 0], [1, 0, 0]], ["a", "b"], np.eye(2), species, visuals,
                         seen_ids=[0, 1], unseen_ids=[])


def gapped_bundle():
    """Class rows out of id order, ids with gaps, and an unseen species; each
    species' semantic value is its id."""
    species = np.array([5, 7, 3, 5, 7])
    visuals = np.arange(10.0).reshape(5, 2) / 7
    return DatasetBundle([[7, 2, 1], [3, 1, 0], [5, 1, 0]], ["g", "c", "e"],
                         [[7.0], [3.0], [5.0]], species, visuals, seen_ids=[3, 7],
                         unseen_ids=[5])


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
        assert len(bundle.names) == 200
        datasets = derive_knowledge_datasets(bundle)
        n_seen_samples = len(bundle.seen_sample_species())
        for level in LEVELS:
            assert len(datasets[level]) == n_seen_samples
        assert datasets["species"].n_classes == len(bundle.seen_ids)
        assert datasets["genus"].n_classes < datasets["species"].n_classes
        assert datasets["family"].n_classes < datasets["genus"].n_classes

    def test_empty_bundle_gives_empty_datasets(self):
        bundle = DatasetBundle(np.zeros((0, 3)), [], np.zeros((0, 2)),
                               np.zeros(0, dtype=np.int64), np.zeros((0, 3)),
                               seen_ids=[], unseen_ids=[])
        datasets = derive_knowledge_datasets(bundle)
        for level in LEVELS:
            assert len(datasets[level]) == 0
            assert datasets[level].n_classes == 0
            assert datasets[level].semantics.shape == (0, 2)

    def test_relabeling_partitions_samples(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=3, visual_dim=6,
                                                  semantic_dim=4), seed=5)
        datasets = derive_knowledge_datasets(bundle)
        for level in LEVELS:
            ds = datasets[level]
            sizes = [len(idx) for idx in ds.indices_by_class.values()]
            assert sum(sizes) == len(ds)
            seen_rows = np.isin(bundle.taxonomy[:, 0], bundle.seen_ids)
            assert set(ds.class_ids) == set(bundle.taxonomy[seen_rows, LEVELS.index(level)])

    def test_labels_follow_each_samples_record(self):
        bundle = gapped_bundle()
        datasets = derive_knowledge_datasets(bundle)
        table = {row[0]: row for row in bundle.taxonomy.tolist()}
        records = [table[s] for s in bundle.seen_sample_species().tolist()]
        for i, level in enumerate(LEVELS):
            assert datasets[level].labels.tolist() == [r[i] for r in records]
            np.testing.assert_array_equal(datasets[level].semantics,
                                          [[r[0]] for r in records])

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
        with pytest.raises(ValueError, match=re.escape(message)):
            DatasetBundle([[0, 0, 0], [1, 0, 0]], ["s0", "s1"], np.zeros((2, 2)),
                          np.array([0, 1]), np.zeros((2, 2)), seen_ids=seen, unseen_ids=unseen)

    @pytest.mark.parametrize("taxonomy,semantics,message", [
        ([[0, 0, 0], [1, -1, 0]], [[0.0], [0.0]], "class ids must be non-negative"),
        ([[0, 0, 0], [1, 0, 0]], [[0.0], [np.nan]], "class 1: non-finite semantic vector"),
        ([[0, 0, 0], [0, 0, 0]], [[0.0], [0.0]], "duplicate species id in class records"),
        ([[0, 0, 0], [1, 0, 0]], np.zeros((2, 0)),
         "dataset semantic width must be at least 1, got 0"),
        ([[0, 0], [1, 0]], [[0.0], [0.0]], "class table: taxonomy (2, 2), 2 names"),
        ([[0, 0, 0], [1, 0, 0]], [[0.0]], "semantics (1, 1) do not match")])
    def test_class_table_checked(self, taxonomy, semantics, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DatasetBundle(taxonomy, ["a", "b"], semantics, np.array([0]), np.zeros((1, 2)),
                          seen_ids=[0], unseen_ids=[])

    def test_unknown_species_rejected(self):
        with pytest.raises(ValueError, match="unknown species"):
            DatasetBundle([[0, 0, 0]], ["a"], np.zeros((1, 2)), np.array([5]),
                          np.zeros((1, 2)), seen_ids=[0], unseen_ids=[])


class TestCenters:
    def test_single_sample_class(self):
        ds = LevelDataset(np.array([[1.0, 2.0]]), np.array([7]), np.zeros((1, 2)))
        centers = compute_visual_centers(ds)
        np.testing.assert_array_equal(centers[7], [1.0, 2.0])

    def test_arithmetic_mean(self):
        datasets = derive_knowledge_datasets(tiny_bundle())
        centers = compute_visual_centers(datasets["species"])
        np.testing.assert_allclose(centers[0], [1.0, 2.0])
        np.testing.assert_allclose(centers[1], [2.0, 2.0])

    def test_family_center_is_weighted_genus_combination(self):
        bundle = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=6,
                                                  semantic_dim=4), seed=9)
        datasets = derive_knowledge_datasets(bundle)
        family_centers = compute_visual_centers(datasets["family"])
        genus_ds = datasets["genus"]
        family_of_genus = dict(bundle.taxonomy[:, 1:].tolist())
        for fam, center in family_centers.items():
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
                assert np.linalg.norm(centers[class_id] - brute) <= 1e-12


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
        assert len(bundle.names) == 36
        assert len(bundle.sample_species) == 720
        assert len(bundle.unseen_ids) == 6
        assert not set(bundle.seen_ids) & set(bundle.unseen_ids)
        assert sorted(bundle.seen_ids + bundle.unseen_ids) == list(range(36))

    def test_same_seed_is_identical(self, tmp_path):
        a, b, c = (saved_bytes(generate_synthetic(SyntheticSpec(), seed=seed), tmp_path)
                   for seed in (4, 4, 5))
        assert a == b
        assert a != c

    def test_draw_order_is_pinned(self):
        # The visuals and the split involve no matrix product, so their bits
        # do not depend on the BLAS build; any reordered draw changes them.
        bundle = generate_synthetic(SyntheticSpec(), seed=1)
        digest = hashlib.sha256(bundle.sample_visuals.tobytes()).hexdigest()
        assert digest.startswith("8ea68ebc")
        assert bundle.unseen_ids == [5, 23, 25, 29, 31, 35]

    def test_every_genus_keeps_a_seen_species(self):
        for seed in range(5):
            bundle = generate_synthetic(SyntheticSpec(), seed=seed)
            seen_rows = np.isin(bundle.taxonomy[:, 0], bundle.seen_ids)
            seen_genera = set(bundle.taxonomy[seen_rows, 1].tolist())
            all_genera = set(bundle.taxonomy[:, 1].tolist())
            assert seen_genera == all_genera

    def test_true_center_classifier_on_seen(self):
        bundle = generate_synthetic(SyntheticSpec(), seed=1)
        datasets = derive_knowledge_datasets(bundle)
        centers = compute_visual_centers(datasets["species"])
        ids = sorted(centers)
        matrix = np.stack([centers[c] for c in ids])
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

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("name", ["unseen_fraction", "sigma_family", "sigma_genus",
                                      "sigma_species", "noise_std", "semantic_noise_std"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be finite, got {value!r}")):
            SyntheticSpec(**{name: value})

    def test_closed_range_ends_are_valid(self):
        spec = SyntheticSpec(families=1, genera_per_family=1, species_per_genus=2,
                             samples_per_species=1, visual_dim=1, semantic_dim=1,
                             semantic_noise_std=0)
        assert spec.semantic_noise_std == 0.0
        assert type(SyntheticSpec(sigma_family=2).sigma_family) is float


def one_shot_bundle_text(bundle):
    """The dataset file as the one-shot writer made it: ``json.dumps`` of the
    whole document, with every array already run through ``encode_array``."""
    species, genus, family = bundle.taxonomy.T.tolist()
    return json.dumps({
        "format_version": BUNDLE_VERSION,
        "classes": {"species_id": species, "genus_id": genus, "family_id": family,
                    "name": bundle.names, "semantic": encode_array(bundle.semantics)},
        "samples": {"species_id": bundle.sample_species.tolist(),
                    "visual": encode_array(bundle.sample_visuals)},
        "splits": {"seen": bundle.seen_ids, "unseen": bundle.unseen_ids},
    })


def two_class_document():
    """A valid hand-written dataset document: two seen species, one sample each."""
    return {"format_version": BUNDLE_VERSION,
            "classes": {"species_id": [0, 1], "genus_id": [0, 0], "family_id": [0, 0],
                        "name": ["a", "b"], "semantic": encode_array(np.eye(2))},
            "samples": {"species_id": [0, 1],
                        "visual": encode_array(np.array([[1.0, 2.0], [3.0, 4.0]]))},
            "splits": {"seen": [0, 1], "unseen": []}}


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(visual_dim=7, semantic_dim=5), seed=8)
        path = tmp_path / "bundle.json"
        save_bundle(bundle, str(path))
        assert saved_bytes(load_bundle(str(path)), tmp_path) == path.read_bytes()

    def test_roundtrip_keeps_a_hand_built_table(self, tmp_path):
        # A rewrite that sorted the class table by id would change the bytes.
        path = tmp_path / "bundle.json"
        save_bundle(gapped_bundle(), str(path))
        assert json.loads(path.read_text())["classes"]["species_id"] == [7, 3, 5]
        assert saved_bytes(load_bundle(str(path)), tmp_path) == path.read_bytes()

    def test_file_matches_one_shot_writer(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(visual_dim=7, semantic_dim=5), seed=8)
        path = tmp_path / "bundle.json"
        save_bundle(bundle, str(path))
        assert path.read_text() == one_shot_bundle_text(bundle)

    def test_full_precision_floats_roundtrip(self, tmp_path):
        awkward = np.nextafter(0.1, 1.0)
        bundle = DatasetBundle([[0, 0, 0]], ["a"], [[awkward, 1/ 3]], np.array([0]),
                               np.array([[np.pi, np.e]]), seen_ids=[0], unseen_ids=[])
        path = tmp_path / "bundle.json"
        save_bundle(bundle, str(path))
        loaded = load_bundle(str(path))
        assert loaded.sample_visuals[0, 0] == np.pi
        assert loaded.semantics[0, 0] == awkward

    def test_hand_written_document_loads(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(two_class_document()))
        bundle = load_bundle(str(path))
        assert bundle.taxonomy.tolist() == [[0, 0, 0], [1, 0, 0]]
        assert bundle.names == ["a", "b"] and bundle.semantics.tolist() == np.eye(2).tolist()
        assert (bundle.visual_dim, bundle.semantic_dim) == (2, 2)

    def test_missing_top_level_field(self, tmp_path):
        path = tmp_path / "broken.json"
        document = two_class_document()
        del document["classes"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="missing field: classes"):
            load_bundle(str(path))

    def test_missing_nested_field_names_entry(self, tmp_path):
        path = tmp_path / "broken.json"
        for column in ("classes/species_id", "classes/genus_id", "classes/family_id",
                       "classes/name", "classes/semantic", "samples/species_id",
                       "samples/visual", "splits/seen", "splits/unseen"):
            document = two_class_document()
            parent, key = column.split("/")
            del document[parent][key]
            path.write_text(json.dumps(document))
            with pytest.raises(ValueError, match=f"^missing field: {column}$"):
                load_bundle(str(path))

    @pytest.mark.parametrize("column,value,entries", [
        ("genus_id", [0], 1), ("family_id", [0, 0, 0], 3), ("name", ["a"], 1),
        ("semantic", encode_array(np.eye(3)), 3)])
    def test_ragged_columns_are_named(self, tmp_path, column, value, entries):
        path = tmp_path / "ragged.json"
        document = two_class_document()
        document["classes"][column] = value
        path.write_text(json.dumps(document))
        message = f"classes/{column} has {entries} entries, but classes/species_id has 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_bundle(str(path))

    @pytest.mark.parametrize("shape", [[4], [2, 1, 2]])
    def test_semantic_must_be_a_matrix(self, tmp_path, shape):
        path = tmp_path / "broken.json"
        document = two_class_document()
        document["classes"]["semantic"] = encode_array(np.zeros(shape))
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=r"^classes/semantic: shape .* does not match "
                                             r"expected \(None, None\)$"):
            load_bundle(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for text, message in (("{not json", "malformed"), ("5", "JSON object"),
                              ('{"classes": {}}', "missing field: format_version"),
                              ('{"format_version": 0}', "version mismatch: found 0,"),
                              ('{"format_version": -9223372036854775809}',
                               "'format_version' must be a 64-bit integer")):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                load_bundle(str(path))
        # Not UTF-8 (a UTF-16 byte-order mark): the error names the file.
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match=f"^malformed dataset file {re.escape(str(path))}: "):
            load_bundle(str(path))

    def test_version_2_layout_rejected(self, tmp_path):
        """A file in the previous layout (one record per species, and a
        ``dims`` object) stops on the version line, before any field."""
        document = two_class_document()
        document.update(format_version=2, dims={"visual": 2, "semantic": 2}, classes=[
            {"species_id": i, "genus_id": 0, "family_id": 0, "name": name,
             "semantic": encode_array(np.eye(2)[i])} for i, name in enumerate("ab")])
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=f"^dataset file version mismatch: found 2, "
                                             f"expected {BUNDLE_VERSION}$"):
            load_bundle(str(path))

    @pytest.mark.parametrize("dims", [(0, 2), (2, 0)])
    def test_widths_below_one_rejected(self, tmp_path, dims):
        """The widths are the arrays' own: a ``samples/visual`` or
        ``classes/semantic`` matrix with no columns is rejected."""
        visual, semantic = dims
        name = "visual" if visual < 1 else "semantic"
        document = two_class_document()
        document["classes"]["semantic"] = encode_array(np.zeros((2, semantic)))
        document["samples"]["visual"] = encode_array(np.zeros((2, visual)))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=f"^dataset {name} width must be at least 1, got 0$"):
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

    # An error in the entry's ``shape`` or ``f64`` field names the field's
    # path and is given as an anchored pattern, under the case's short id;
    # the array's own errors start with the array's path.
    @pytest.mark.parametrize("entry,message", [
        pytest.param([1.0], "^expected an object holding field 'probe/shape'",
                     id="entry0-expected an object"),
        pytest.param({"f64": F64_ONE}, "^missing field: probe/shape$",
                     id="entry1-missing field: shape"),
        pytest.param({"shape": [1]}, "^missing field: probe/f64$",
                     id="entry2-missing field: f64"),
        ({"shape": [1.0], "f64": F64_ONE}, "non-negative integers"),
        ({"shape": [True], "f64": F64_ONE}, "non-negative integers"),
        ({"shape": [-1], "f64": ""}, "non-negative integers"),
        ({"shape": [1, 1], "f64": F64_ONE}, "does not match expected"),
        ({"shape": [2], "f64": F64_ONE}, "do not fill"),
        pytest.param({"shape": [1], "f64": [1.0]}, "^field 'probe/f64' must be a string",
                     id="entry8-must be a string"),
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
        pattern = message if message.startswith("^") else f"^probe: .*{message}"
        with pytest.raises(ValueError, match=pattern):
            decode_array(entry, "probe", shape=(None,))


class TestCsvText:
    def test_numpy_scalars_print_as_python_numbers(self):
        rows = [(np.float64(0.5), np.int64(3)), (0.25, 7)]
        assert csv_text(("x", "n"), rows) == "x,n\n0.5,3\n0.25,7\n"


class TestAtomicWriteJson:
    @pytest.mark.parametrize("value", [
        np.int64(3), np.arange(3), np.zeros(2, dtype=np.float32), object(),
    ], ids=["int64-scalar", "int-array", "float32-array", "object"])
    def test_unsupported_value_raises_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError, match="is not JSON serializable"):
            atomic_write_json(str(path), {"first": np.zeros(3), "bad": [value]})
        assert list(tmp_path.iterdir()) == []

    def test_error_midway_keeps_existing_target(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text('{"old": 1}')
        before = path.read_bytes()
        written = []

        def fail_second(a):
            written.append(sum(p.stat().st_size for p in tmp_path.glob("*.tmp")))
            if len(written) == 2:
                raise OSError("disk full")
            return encode_array(a)

        monkeypatch.setattr(dataset, "encode_array", fail_second)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_json(str(path), {"first": np.zeros(100_000),
                                          "second": np.zeros(1)})
        # The first array's text was already in the temporary file.
        assert written[1] > 8 * 100_000
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_document_matches_json_dumps_of_encoded_arrays(self, tmp_path):
        arrays = [np.arange(6.0).reshape(2, 3) / 7, np.zeros((0, 4)), np.array(-0.0)]
        document = {"arrays": arrays, "nested": {"a": arrays[0], "n": [1, 2.5, None]},
                    "text": "é\n", "flag": True, "inf": float("inf")}
        path = tmp_path / "out.json"
        atomic_write_json(str(path), document)
        encoded = {"arrays": [encode_array(a) for a in arrays],
                   "nested": {"a": encode_array(arrays[0]), "n": [1, 2.5, None]},
                   "text": "é\n", "flag": True, "inf": float("inf")}
        assert path.read_text() == json.dumps(encoded)
