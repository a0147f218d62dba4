"""Taxonomy datasets: species/genus/family label maps, level-relabeled views,
visual centers, synthetic benchmark generation, and JSON persistence."""

from __future__ import annotations

import base64
import json
import math
import operator
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

LEVELS = ("species", "genus", "family")

Array = np.ndarray

# Bound keys a field's metadata may hold, each with its test and symbol;
# ``check_fields`` applies them.
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def fits(value, default) -> bool:
    """Whether ``value`` may stand for a setting whose default is ``default``:
    the default's type, an int for a float, a list of fitting items for a
    tuple; a bool never fits."""
    if isinstance(value, bool):
        return False
    if isinstance(default, tuple):
        return (isinstance(value, (tuple, list)) and len(value) == len(default)
                and all(fits(v, d) for v, d in zip(value, default)))
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj``: its value must ``fit`` the
    default, be finite if it is a float, and meet the field's bounds, entry by
    entry for a tuple. An int given for a float is stored as a float, a list
    for a tuple as a tuple."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not fits(value, f.default):
            raise ValueError(f"field {f.name!r} must be {f.type}, got {value!r}")
        if isinstance(f.default, (float, tuple)):
            value = type(f.default)(value)
            setattr(obj, f.name, value)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        entries = value if isinstance(value, tuple) else (value,)
        for key, bound in f.metadata.items():
            test, symbol = _BOUNDS[key]
            if not all(test(v, bound) for v in entries):
                raise ValueError(f"{f.name} must be {symbol} {bound}, got {value!r}")


@dataclass(frozen=True)
class ClassRecord:
    """One species with its taxonomy position and per-class semantic vector."""

    species_id: int
    genus_id: int
    family_id: int
    name: str
    semantic: Array

    def __post_init__(self):
        if min(self.species_id, self.genus_id, self.family_id) < 0:
            raise ValueError("class ids must be non-negative")
        object.__setattr__(self, "semantic", np.asarray(self.semantic, dtype=np.float64))
        if not np.all(np.isfinite(self.semantic)):
            raise ValueError(f"class {self.species_id}: non-finite semantic vector")

    def level_id(self, level: str) -> int:
        if level == "species":
            return self.species_id
        if level == "genus":
            return self.genus_id
        if level == "family":
            return self.family_id
        raise ValueError(f"unknown level: {level!r}")


class DatasetBundle:
    """Class records plus sample arrays split into seen and unseen species.

    Samples are stored as parallel arrays (species id per row, visual vector
    per row). Seen and unseen species sets are disjoint and every sample's
    species belongs to exactly one of them.
    """

    def __init__(self, classes: list[ClassRecord], sample_species: Array,
                 sample_visuals: Array, seen_ids: list[int], unseen_ids: list[int],
                 visual_dim: int, semantic_dim: int):
        self.classes = list(classes)
        self.sample_species = np.asarray(sample_species, dtype=np.int64)
        self.sample_visuals = np.asarray(sample_visuals, dtype=np.float64)
        self.seen_ids = sorted(int(i) for i in seen_ids)
        self.unseen_ids = sorted(int(i) for i in unseen_ids)
        self.visual_dim = int(visual_dim)
        self.semantic_dim = int(semantic_dim)
        self._validate()

    def _validate(self) -> None:
        if set(self.seen_ids) & set(self.unseen_ids):
            raise ValueError("seen and unseen species sets overlap")
        known = {c.species_id for c in self.classes}
        if len(known) != len(self.classes):
            raise ValueError("duplicate species id in class records")
        for split, ids in (("seen", self.seen_ids), ("unseen", self.unseen_ids)):
            if set(ids) - known:
                raise ValueError(f"{split} split: species {sorted(set(ids) - known)} "
                                 f"have no class record")
            repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
            if repeated:
                raise ValueError(f"{split} split: species {repeated} are listed "
                                 f"more than once")
        split_union = set(self.seen_ids) | set(self.unseen_ids)
        for sid in self.sample_species:
            if int(sid) not in known:
                raise ValueError(f"sample references unknown species {int(sid)}")
            if int(sid) not in split_union:
                raise ValueError(f"species {int(sid)} missing from both splits")
        if self.sample_visuals.shape != (len(self.sample_species), self.visual_dim):
            raise ValueError("sample visual matrix does not match declared dims")
        for c in self.classes:
            if c.semantic.shape != (self.semantic_dim,):
                raise ValueError(f"class {c.species_id}: semantic dim "
                                 f"{c.semantic.shape} != ({self.semantic_dim},)")
        if not np.all(np.isfinite(self.sample_visuals)):
            raise ValueError("non-finite sample visuals")

    @cached_property
    def by_species(self) -> dict[int, ClassRecord]:
        return {c.species_id: c for c in self.classes}

    @cached_property
    def _seen_mask(self) -> Array:
        return np.isin(self.sample_species, np.asarray(self.seen_ids, dtype=np.int64))

    # Seen-side accessors: the only sample data the training path may touch.
    def seen_visuals(self) -> Array:
        return self.sample_visuals[self._seen_mask]

    def seen_sample_species(self) -> Array:
        return self.sample_species[self._seen_mask]

    # Unseen-side accessors: evaluation only.
    def unseen_visuals(self) -> Array:
        return self.sample_visuals[~self._seen_mask]

    def unseen_sample_species(self) -> Array:
        return self.sample_species[~self._seen_mask]

    def semantic_for(self, species_id: int) -> Array:
        return self.by_species[int(species_id)].semantic

    @property
    def n_samples(self) -> int:
        return len(self.sample_species)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DatasetBundle):
            return NotImplemented
        if (self.visual_dim, self.semantic_dim) != (other.visual_dim, other.semantic_dim):
            return False
        if self.seen_ids != other.seen_ids or self.unseen_ids != other.unseen_ids:
            return False
        if len(self.classes) != len(other.classes):
            return False
        for a, b in zip(self.classes, other.classes):
            if (a.species_id, a.genus_id, a.family_id, a.name) != \
                    (b.species_id, b.genus_id, b.family_id, b.name):
                return False
            if not np.array_equal(a.semantic, b.semantic):
                return False
        return (np.array_equal(self.sample_species, other.sample_species)
                and np.array_equal(self.sample_visuals, other.sample_visuals))


@dataclass
class LevelDataset:
    """Seen samples relabeled at one hierarchy level.

    Entries keep the per-sample species semantics; only the class id column
    changes between levels.
    """

    level: str
    visuals: Array
    labels: Array
    semantics: Array

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown level: {self.level!r}")
        if not (len(self.visuals) == len(self.labels) == len(self.semantics)):
            raise ValueError("entry columns must have equal length")

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def class_ids(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.labels))

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @cached_property
    def indices_by_class(self) -> dict[int, Array]:
        return {c: np.flatnonzero(self.labels == c) for c in self.class_ids}


@dataclass
class LevelCenters:
    """Per-class mean visual vector at one hierarchy level."""

    level: str
    centers: dict[int, Array]

    def rows_for(self, labels: Array) -> Array:
        """Stack the centers matching each label into a matrix."""
        missing = [int(c) for c in np.unique(labels) if int(c) not in self.centers]
        if missing:
            raise KeyError(f"no {self.level} center for class ids {missing}")
        return np.stack([self.centers[int(c)] for c in labels])


def derive_knowledge_datasets(bundle: DatasetBundle) -> dict[str, LevelDataset]:
    """Build the three level-relabeled datasets over the seen samples.

    All three share the same sample rows and per-sample species semantics;
    they differ only in the class id column.
    """
    species = bundle.seen_sample_species()
    visuals = bundle.seen_visuals()
    if len(species):
        semantics = np.stack([bundle.semantic_for(s) for s in species])
    else:
        semantics = np.zeros((0, bundle.semantic_dim))
    out = {}
    for level in LEVELS:
        labels = np.asarray([bundle.by_species[int(s)].level_id(level) for s in species],
                            dtype=np.int64)
        out[level] = LevelDataset(level=level, visuals=visuals, labels=labels,
                                  semantics=semantics)
    return out


def compute_visual_centers(ds: LevelDataset) -> LevelCenters:
    centers = {}
    for class_id, idx in ds.indices_by_class.items():
        if len(idx) == 0:
            raise ValueError(f"class {class_id} has no samples at level {ds.level}")
        centers[class_id] = ds.visuals[idx].mean(axis=0)
    return LevelCenters(level=ds.level, centers=centers)


# ---------------------------------------------------------------------------
# Synthetic benchmark generation
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Shape and scale parameters for a hierarchical Gaussian benchmark.

    Visual clusters nest: species mean = family mean + genus offset + species
    offset, with per-sample noise on top. Semantics are a fixed random linear
    map of the species' latent offsets plus small noise, so semantics predict
    visuals and a semantic-to-visual regressor is learnable.
    """

    families: int = field(default=3, metadata={"ge": 1})
    genera_per_family: int = field(default=3, metadata={"ge": 1})
    species_per_genus: int = field(default=4, metadata={"ge": 1})
    samples_per_species: int = field(default=20, metadata={"ge": 1})
    visual_dim: int = field(default=32, metadata={"ge": 1})
    semantic_dim: int = field(default=16, metadata={"ge": 1})
    unseen_fraction: float = field(default=0.17, metadata={"gt": 0, "lt": 1})
    sigma_family: float = field(default=1.0, metadata={"gt": 0})
    sigma_genus: float = field(default=0.5, metadata={"gt": 0})
    sigma_species: float = field(default=0.25, metadata={"gt": 0})
    noise_std: float = field(default=0.08, metadata={"gt": 0})
    semantic_noise_std: float = field(default=0.05, metadata={"ge": 0})

    def __post_init__(self):
        check_fields(self)
        sigmas = (self.sigma_family, self.sigma_genus, self.sigma_species)
        if not sigmas[0] > sigmas[1] > sigmas[2]:
            raise ValueError("cluster scales must decrease: sigma_family > sigma_genus > "
                             f"sigma_species, got {sigmas}")

    @property
    def n_species(self) -> int:
        return self.families * self.genera_per_family * self.species_per_genus


def generate_synthetic(spec: SyntheticSpec, seed: int) -> DatasetBundle:
    """Draw a deterministic desk-scale bundle from ``spec`` under ``seed``."""
    rng = np.random.default_rng(seed)
    f_count, g_count, s_count = spec.families, spec.genera_per_family, spec.species_per_genus
    v, t = spec.visual_dim, spec.semantic_dim

    family_means = rng.normal(0.0, spec.sigma_family, (f_count, v))
    genus_offsets = rng.normal(0.0, spec.sigma_genus, (f_count, g_count, v))
    species_offsets = rng.normal(0.0, spec.sigma_species, (f_count, g_count, s_count, v))
    semantic_map = rng.normal(0.0, 1.0, (t, 3 * v)) / np.sqrt(3 * v)

    classes: list[ClassRecord] = []
    species_means: list[Array] = []
    genus_of: list[int] = []
    for f in range(f_count):
        for g in range(g_count):
            genus_id = f * g_count + g
            for s in range(s_count):
                species_id = (f * g_count + g) * s_count + s
                latent = np.concatenate([family_means[f], genus_offsets[f, g],
                                         species_offsets[f, g, s]])
                semantic = semantic_map @ latent + rng.normal(0.0, spec.semantic_noise_std, t)
                classes.append(ClassRecord(species_id=species_id, genus_id=genus_id,
                                           family_id=f, name=f"species-{species_id:03d}",
                                           semantic=semantic))
                species_means.append(family_means[f] + genus_offsets[f, g]
                                     + species_offsets[f, g, s])
                genus_of.append(genus_id)

    n_species = spec.n_species
    n_unseen = min(max(int(round(n_species * spec.unseen_fraction)), 1), n_species - 1)
    order = rng.permutation(n_species)
    seen_left = {g: genus_of.count(g) for g in set(genus_of)}
    unseen: list[int] = []
    for c in order:
        if len(unseen) == n_unseen:
            break
        if seen_left[genus_of[c]] > 1:
            unseen.append(int(c))
            seen_left[genus_of[c]] -= 1
    for c in order:
        # Quota unreachable under the one-seen-per-genus constraint; relax it.
        if len(unseen) == n_unseen:
            break
        if int(c) not in unseen:
            unseen.append(int(c))
    unseen = sorted(unseen)
    seen = [c for c in range(n_species) if c not in unseen]

    sample_species = []
    sample_visuals = []
    for c in range(n_species):
        draws = species_means[c] + rng.normal(0.0, spec.noise_std,
                                              (spec.samples_per_species, v))
        sample_visuals.append(draws)
        sample_species.extend([c] * spec.samples_per_species)
    return DatasetBundle(classes=classes,
                         sample_species=np.asarray(sample_species, dtype=np.int64),
                         sample_visuals=np.vstack(sample_visuals),
                         seen_ids=seen, unseen_ids=unseen,
                         visual_dim=v, semantic_dim=t)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_KINDS = {int: "an integer", str: "a string", dict: "an object", list: "a list",
          list[int]: "a list of integers"}


def _is_kind(value, kind) -> bool:
    """Whether the JSON ``value`` is a ``kind``; a bool is never an int."""
    if kind == list[int]:
        return isinstance(value, list) and all(_is_kind(v, int) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _require_field(mapping, name: str, kind=None):
    """``mapping[name]``, checked to be a ``kind`` (a key of ``_KINDS``) when given."""
    if not isinstance(mapping, dict):
        raise ValueError(f"expected an object holding field {name!r}, "
                         f"got {mapping!r:.40}")
    if name not in mapping:
        raise ValueError(f"missing field: {name}")
    value = mapping[name]
    if kind is not None and not _is_kind(value, kind):
        raise ValueError(f"field {name!r} must be {_KINDS[kind]}, got {value!r:.40}")
    return value


def encode_array(a: Array) -> dict:
    """The JSON form of a float array: its shape and the base64 of its
    little-endian float64 bytes in C order."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f64": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(entry, what: str, shape: tuple | None = None) -> Array:
    """The float64 array stored by ``encode_array``, as a new writable array;
    ``what`` names the entry in errors. ``shape``, when given, is the expected
    shape, with ``None`` for an axis of any length."""
    try:
        dims = _require_field(entry, "shape", list)
        text = _require_field(entry, "f64", str)
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None
    if not all(_is_kind(n, int) and n >= 0 for n in dims):
        raise ValueError(f"{what}: shape must be a list of non-negative integers, "
                         f"got {dims!r:.40}")
    if shape is not None and (len(dims) != len(shape) or any(
            want is not None and n != want for n, want in zip(dims, shape))):
        raise ValueError(f"{what}: shape {tuple(dims)} does not match expected {shape}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:
        raise ValueError(f"{what}: f64 is not base64: {err}") from None
    size = 8 * math.prod(dims)
    if len(raw) != size:
        raise ValueError(f"{what}: {len(raw)} bytes do not fill shape {tuple(dims)} "
                         f"of float64 ({size} bytes)")
    # frombuffer gives a read-only view of ``raw``; astype copies it into an
    # array of its own, which in-place updates (Adam on a resumed run) need.
    array = np.frombuffer(raw, dtype="<f8").reshape(dims).astype(np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{what}: non-finite value")
    return array


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in ``path``; ``what`` names the file in errors."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed {what} {path}: {err}") from None
    if not isinstance(document, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return document


def _atomic_write_chunks(path: str, chunks) -> None:
    """Write the strings ``chunks`` to a temporary file beside ``path``, then
    move it over ``path``; on any error ``path`` is left as it was. The file
    gets the mode any new file gets under the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    _atomic_write_chunks(path, (text,))


def _array_entry(value) -> dict:
    """The JSON encoder's hook for values it cannot encode itself: a float64
    array becomes its ``encode_array`` entry; anything else is a TypeError."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        return encode_array(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def atomic_write_json(path: str, document) -> None:
    """Write ``document``, whose float64 arrays stand as themselves, as the
    text ``json.dumps`` gives with each array replaced by its
    ``encode_array`` entry. The text is written chunk by chunk and each array
    encoded only when the writer reaches it, so the memory held at once is
    about one array's text, not the whole file."""
    _atomic_write_chunks(path, json.JSONEncoder(default=_array_entry).iterencode(document))


BUNDLE_VERSION = 2


def save_bundle(bundle: DatasetBundle, path: str) -> None:
    atomic_write_json(path, {
        "format_version": BUNDLE_VERSION,
        "dims": {"visual": bundle.visual_dim, "semantic": bundle.semantic_dim},
        "classes": [
            {"species_id": c.species_id, "genus_id": c.genus_id,
             "family_id": c.family_id, "name": c.name, "semantic": c.semantic}
            for c in bundle.classes
        ],
        "samples": {"species_id": bundle.sample_species.tolist(),
                    "visual": bundle.sample_visuals},
        "splits": {"seen": bundle.seen_ids, "unseen": bundle.unseen_ids},
    })


def load_bundle(path: str) -> DatasetBundle:
    document = read_json_object(path, "dataset file")
    version = _require_field(document, "format_version", int)
    if version != BUNDLE_VERSION:
        raise ValueError(f"dataset file version mismatch: found {version}, "
                         f"expected {BUNDLE_VERSION}")
    dims = _require_field(document, "dims", dict)
    classes_raw = _require_field(document, "classes", list)
    samples = _require_field(document, "samples", dict)
    splits = _require_field(document, "splits", dict)
    visual_dim = _require_field(dims, "visual", int)
    semantic_dim = _require_field(dims, "semantic", int)
    classes = []
    for i, c in enumerate(classes_raw):
        try:
            classes.append(ClassRecord(
                species_id=_require_field(c, "species_id", int),
                genus_id=_require_field(c, "genus_id", int),
                family_id=_require_field(c, "family_id", int),
                name=_require_field(c, "name", str),
                semantic=decode_array(_require_field(c, "semantic"), "semantic",
                                      shape=(semantic_dim,))))
        except ValueError as err:
            raise ValueError(f"classes[{i}]: {err}") from None
    species = _require_field(samples, "species_id", list[int])
    visuals = decode_array(_require_field(samples, "visual"), "samples/visual",
                           shape=(len(species), visual_dim))
    return DatasetBundle(classes=classes,
                         sample_species=np.asarray(species, dtype=np.int64),
                         sample_visuals=visuals,
                         seen_ids=_require_field(splits, "seen", list[int]),
                         unseen_ids=_require_field(splits, "unseen", list[int]),
                         visual_dim=visual_dim, semantic_dim=semantic_dim)
