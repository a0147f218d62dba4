"""Taxonomy datasets: the class table as arrays, level-relabeled views,
visual centers, synthetic benchmark generation, JSON persistence, and the
CSV text of every output table."""

from __future__ import annotations

import base64
import json
import math
import operator
import os
from collections import Counter
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
    tuple; a bool never fits, and an int must fit in int64, as numpy stores
    ids, counts and sizes."""
    if isinstance(value, bool) or isinstance(value, int) and not -2**63 <= value < 2**63:
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
            kind = "int64" if type(f.default) is int else f.type
            raise ValueError(f"field {f.name!r} must be {kind}, got {value!r}")
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


class DatasetBundle:
    """The class table plus sample arrays split into seen and unseen species.

    Row ``i`` of the class table, in file order, is species ``taxonomy[i, 0]``
    of genus ``taxonomy[i, 1]`` and family ``taxonomy[i, 2]`` (the ``LEVELS``
    columns), named ``names[i]``, with semantic vector ``semantics[i]``.
    Samples are stored as parallel arrays (species id per row, visual vector
    per row). Seen and unseen species sets are disjoint and every sample's
    species belongs to exactly one of them. The visual and semantic widths
    are those of the arrays.
    """

    def __init__(self, taxonomy: Array, names: list[str], semantics: Array,
                 sample_species: Array, sample_visuals: Array, seen_ids: list[int],
                 unseen_ids: list[int]):
        self.taxonomy = np.asarray(taxonomy, dtype=np.int64)
        self.names = list(names)
        self.semantics = np.asarray(semantics, dtype=np.float64)
        self.sample_species = np.asarray(sample_species, dtype=np.int64)
        self.sample_visuals = np.asarray(sample_visuals, dtype=np.float64)
        self.seen_ids = sorted(int(i) for i in seen_ids)
        self.unseen_ids = sorted(int(i) for i in unseen_ids)
        self._validate()

    @property
    def visual_dim(self) -> int:
        return self.sample_visuals.shape[1]

    @property
    def semantic_dim(self) -> int:
        return self.semantics.shape[1]

    def _validate(self) -> None:
        n = len(self.names)
        if (self.taxonomy.shape != (n, len(LEVELS)) or self.semantics.ndim != 2
                or len(self.semantics) != n):
            raise ValueError(f"class table: taxonomy {self.taxonomy.shape}, {n} names "
                             f"and semantics {self.semantics.shape} do not match")
        visuals = self.sample_visuals
        if visuals.ndim != 2 or visuals.shape[:1] != self.sample_species.shape:
            raise ValueError("sample visual matrix does not match the sample species")
        for name, width in (("visual", self.visual_dim), ("semantic", self.semantic_dim)):
            if width < 1:
                raise ValueError(f"dataset {name} width must be at least 1, got {width}")
        if (self.taxonomy < 0).any():
            raise ValueError("class ids must be non-negative")
        finite = np.isfinite(self.semantics).all(axis=1)
        if not finite.all():
            raise ValueError(f"class {self.taxonomy[np.argmin(finite), 0]}: "
                             f"non-finite semantic vector")
        if set(self.seen_ids) & set(self.unseen_ids):
            raise ValueError("seen and unseen species sets overlap")
        known = set(self.taxonomy[:, 0].tolist())
        if len(known) != n:
            raise ValueError("duplicate species id in class records")
        for split, ids in (("seen", self.seen_ids), ("unseen", self.unseen_ids)):
            if set(ids) - known:
                raise ValueError(f"{split} split: species {sorted(set(ids) - known)} "
                                 f"have no class record")
            repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
            if repeated:
                raise ValueError(f"{split} split: species {repeated} are listed "
                                 f"more than once")
        # Every split id has a record, so the first sample outside both splits
        # is the first with an unknown species or a known one left unsplit.
        split_union = np.asarray(self.seen_ids + self.unseen_ids, dtype=np.int64)
        outside = self.sample_species[~np.isin(self.sample_species, split_union)]
        if outside.size:
            sid = int(outside[0])
            raise ValueError(f"species {sid} missing from both splits" if sid in known
                             else f"sample references unknown species {sid}")
        if not np.all(np.isfinite(self.sample_visuals)):
            raise ValueError("non-finite sample visuals")

    def rows_of(self, species_ids) -> Array:
        """The class-table row of each of ``species_ids``, all known species."""
        ids = self.taxonomy[:, 0]
        order = np.argsort(ids)
        return order[np.searchsorted(ids, species_ids, sorter=order)]

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
        if species_id not in self.taxonomy[:, 0]:
            raise ValueError(f"unknown class id: {species_id}")
        return self.semantics[self.rows_of(species_id)]


@dataclass
class LevelDataset:
    """Seen samples relabeled at one hierarchy level.

    Entries keep the per-sample species semantics; only the class id column
    changes between levels.
    """

    visuals: Array
    labels: Array
    semantics: Array

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def class_ids(self) -> list[int]:
        return sorted(set(self.labels.tolist()))

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @cached_property
    def indices_by_class(self) -> dict[int, Array]:
        return {c: np.flatnonzero(self.labels == c) for c in self.class_ids}


def derive_knowledge_datasets(bundle: DatasetBundle) -> dict[str, LevelDataset]:
    """Build the three level-relabeled datasets over the seen samples.

    All three share the same sample rows and per-sample species semantics;
    they differ only in the class id column.
    """
    rows = bundle.rows_of(bundle.seen_sample_species())
    visuals, semantics = bundle.seen_visuals(), bundle.semantics[rows]
    return {level: LevelDataset(visuals=visuals, labels=bundle.taxonomy[rows, i],
                                semantics=semantics)
            for i, level in enumerate(LEVELS)}


def compute_visual_centers(ds: LevelDataset) -> dict[int, Array]:
    """The mean visual vector of each class at ``ds``'s level, by class id."""
    return {class_id: ds.visuals[idx].mean(axis=0)
            for class_id, idx in ds.indices_by_class.items()}


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
    v, t, n_species = spec.visual_dim, spec.semantic_dim, spec.n_species

    family_means = rng.normal(0.0, spec.sigma_family, (f_count, v))
    genus_offsets = rng.normal(0.0, spec.sigma_genus, (f_count * g_count, v))
    species_offsets = rng.normal(0.0, spec.sigma_species, (n_species, v))
    semantic_map = rng.normal(0.0, 1.0, (t, 3 * v)) / np.sqrt(3 * v)
    semantic_noise = rng.normal(0.0, spec.semantic_noise_std, (n_species, t))

    genus = np.arange(n_species) // s_count
    family = genus // g_count
    parts = (family_means[family], genus_offsets[genus], species_offsets)
    means = parts[0] + parts[1] + parts[2]
    latents = np.concatenate(parts, axis=1)
    # One matrix-vector product per species: a batched product may round
    # differently, and the semantics' bits are part of the dataset contract.
    semantics = np.stack([semantic_map @ row for row in latents]) + semantic_noise

    n_unseen = min(max(int(round(n_species * spec.unseen_fraction)), 1), n_species - 1)
    order = rng.permutation(n_species)
    seen_left = np.full(f_count * g_count, s_count)
    unseen: list[int] = []
    for c in order:
        if len(unseen) < n_unseen and seen_left[genus[c]] > 1:
            unseen.append(int(c))
            seen_left[genus[c]] -= 1
    # Quota unreachable under the one-seen-per-genus constraint; relax it.
    unseen += [int(c) for c in order if c not in unseen][:n_unseen - len(unseen)]
    unseen = sorted(unseen)
    seen = [c for c in range(n_species) if c not in unseen]

    sample_species = np.repeat(np.arange(n_species), spec.samples_per_species)
    noise = rng.normal(0.0, spec.noise_std, (len(sample_species), v))
    return DatasetBundle(taxonomy=np.stack([np.arange(n_species), genus, family], axis=1),
                         names=[f"species-{c:03d}" for c in range(n_species)],
                         semantics=semantics, sample_species=sample_species,
                         sample_visuals=means[sample_species] + noise,
                         seen_ids=seen, unseen_ids=unseen)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_KINDS = {int: "a 64-bit integer", str: "a string", dict: "an object", list: "a list",
          list[int]: "a list of 64-bit integers", list[str]: "a list of strings"}


def _is_kind(value, kind) -> bool:
    """Whether the JSON ``value`` is a ``kind``, as ``fits`` decides it; a
    ``list[item]`` is a list of ``item`` values."""
    if kind in (list[int], list[str]):
        item = kind.__args__[0]()
        return isinstance(value, list) and all(fits(v, item) for v in value)
    return fits(value, kind())


def require_fields(mapping, path: str, kinds: dict) -> dict:
    """The fields of the object ``mapping`` at ``path`` (``""`` for the file's
    root) by name, in ``kinds`` order: exactly the names in ``kinds``, each of
    its kind (a key of ``_KINDS``; ``None`` where the caller checks the value).
    A missing field is named before an unknown one."""
    prefix = f"{path}/" if path else ""
    if not isinstance(mapping, dict):
        raise ValueError(f"expected an object holding field {prefix + next(iter(kinds))!r}, "
                         f"got {mapping!r:.40}")
    problems = ([f"missing field: {prefix}{name}" for name in kinds if name not in mapping]
                + [f"unknown field: {prefix}{key}" for key in mapping if key not in kinds])
    if problems:
        raise ValueError(problems[0])
    for name, kind in kinds.items():
        if kind is not None and not _is_kind(mapping[name], kind):
            raise ValueError(f"field {prefix + name!r} must be {_KINDS[kind]}, "
                             f"got {mapping[name]!r:.40}")
    return {name: mapping[name] for name in kinds}


def require_count(value: int, path: str, least: int) -> int:
    """``value``, the integer field at ``path``, which must be at least ``least``."""
    if value < least:
        raise ValueError(f"{path} must be at least {least}, got {value}")
    return value


def encode_array(a: Array) -> dict:
    """The JSON form of a float array: its shape and the base64 of its
    little-endian float64 bytes in C order."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f64": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(entry, path: str, shape: tuple | None = None) -> Array:
    """The float64 array stored by ``encode_array`` at ``path``, as a new
    writable array. ``shape``, when given, is the expected shape, with
    ``None`` for an axis of any length."""
    dims, text = require_fields(entry, path, {"shape": list, "f64": str}).values()
    if not all(_is_kind(n, int) and n >= 0 for n in dims):
        raise ValueError(f"{path}: shape must be a list of non-negative integers, "
                         f"got {dims!r:.40}")
    if shape is not None and (len(dims) != len(shape) or any(
            want is not None and n != want for n, want in zip(dims, shape))):
        raise ValueError(f"{path}: shape {tuple(dims)} does not match expected {shape}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:
        raise ValueError(f"{path}: f64 is not base64: {err}") from None
    size = 8 * math.prod(dims)
    if len(raw) != size:
        raise ValueError(f"{path}: {len(raw)} bytes do not fill shape {tuple(dims)} "
                         f"of float64 ({size} bytes)")
    # frombuffer gives a read-only view of ``raw``; astype copies it into an
    # array of its own, which the caller may write before any op records it.
    array = np.frombuffer(raw, dtype="<f8").reshape(dims).astype(np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{path}: non-finite value")
    return array


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``pairs`` as a dict; a key given twice is an error."""
    repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
    if repeated:
        raise ValueError(f"repeated key {repeated[0]!r}")
    return dict(pairs)


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in ``path``, no key repeated; ``what`` names the file in errors."""
    with open(path) as handle:
        try:
            document = json.load(handle, object_pairs_hook=_unique_keys)
        except ValueError as err:
            raise ValueError(f"malformed {what} {path}: {err}") from None
    if not isinstance(document, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return document


def read_document(path: str, what: str, version: int, kinds: dict) -> dict:
    """The root fields of the ``what`` file at ``path``, by ``require_fields``;
    ``format_version`` is checked first, alone, so another version stops there."""
    document = read_json_object(path, what)
    found = require_fields(document, "", {**dict.fromkeys(document), "format_version": int})
    if found["format_version"] != version:
        raise ValueError(f"{what} version mismatch: found {found['format_version']}, "
                         f"expected {version}")
    return require_fields(document, "", {"format_version": int, **kinds})


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


def csv_text(header, rows) -> str:
    """A CSV table: the ``header`` names, then one line per row with each cell
    the ``repr`` of a Python number; numpy scalars are converted first, so a
    cell never reads ``np.float64(...)``."""
    lines = [",".join(header)]
    lines += [",".join(repr(v.item() if isinstance(v, np.generic) else v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


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


BUNDLE_VERSION = 3


def save_bundle(bundle: DatasetBundle, path: str) -> None:
    ids = {f"{level}_id": column for level, column in zip(LEVELS, bundle.taxonomy.T.tolist())}
    atomic_write_json(path, {
        "format_version": BUNDLE_VERSION,
        "classes": {**ids, "name": bundle.names, "semantic": bundle.semantics},
        "samples": {"species_id": bundle.sample_species.tolist(),
                    "visual": bundle.sample_visuals},
        "splits": {"seen": bundle.seen_ids, "unseen": bundle.unseen_ids},
    })


def load_bundle(path: str) -> DatasetBundle:
    kinds = {"classes": {**{f"{level}_id": list[int] for level in LEVELS},
                         "name": list[str], "semantic": None},
             "samples": {"species_id": list[int], "visual": None},
             "splits": {"seen": list[int], "unseen": list[int]}}
    document = read_document(path, "dataset file", BUNDLE_VERSION, dict.fromkeys(kinds, dict))
    columns, samples, splits = (require_fields(document[name], name, fields)
                                for name, fields in kinds.items())
    columns["semantic"] = decode_array(columns["semantic"], "classes/semantic",
                                       shape=(None, None))
    n = len(columns["species_id"])
    for name, column in columns.items():
        if len(column) != n:
            raise ValueError(f"classes/{name} has {len(column)} entries, but "
                             f"classes/species_id has {n}")
    species = samples["species_id"]
    visuals = decode_array(samples["visual"], "samples/visual", shape=(len(species), None))
    taxonomy = np.array([columns[f"{level}_id"] for level in LEVELS], dtype=np.int64).T
    return DatasetBundle(taxonomy=taxonomy, names=columns["name"],
                         semantics=columns["semantic"], sample_species=species,
                         sample_visuals=visuals, seen_ids=splits["seen"],
                         unseen_ids=splits["unseen"])
