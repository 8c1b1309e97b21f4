"""Samples, datasets, feature-file and manifest ingestion, stream orderings,
and the synthetic Gaussian generator used by the tests and demos.

Feature files are a small binary format: the 4-byte magic ``FEAT``, a
little-endian u32 version (currently 1), u64 row count, u64 dimension,
followed by the matrix as float32 little-endian in row-major order.
Manifests are CSV files with the header
``sample_id,row,split,class_label,instance_id,frame_index``.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, UsageError, require_int

FEATURE_MAGIC = b"FEAT"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<IQQ")

MANIFEST_FIELDS = ("sample_id", "row", "split", "class_label", "instance_id", "frame_index")

ORDERING_KINDS = ("iid", "class_iid", "instance", "class_instance")


@dataclass(frozen=True)
class LabeledSample:
    """One stream element: a feature vector plus its label and provenance."""

    features: np.ndarray
    class_label: int
    instance_id: int
    frame_index: int
    split: str


@dataclass
class Dataset:
    """Train/test samples sharing one feature dimension and a dense label set."""

    train: list[LabeledSample]
    test: list[LabeledSample]
    num_classes: int
    dim: int
    name: str = "dataset"

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return _to_arrays(self.train, self.dim)

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return _to_arrays(self.test, self.dim)


def _to_arrays(samples, dim):
    if not samples:
        return np.zeros((0, dim)), np.zeros(0, dtype=np.int64)
    x = np.stack([s.features for s in samples]).astype(np.float64, copy=False)
    y = np.array([s.class_label for s in samples], dtype=np.int64)
    return x, y


@dataclass(frozen=True)
class StreamOrdering:
    """How the training set is presented: one of ``iid``, ``class_iid``,
    ``instance`` or ``class_instance``, plus the shuffle seed."""

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ORDERING_KINDS:
            raise UsageError(f"unknown ordering kind {self.kind!r}; expected one of {ORDERING_KINDS}")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic Gaussian-cluster dataset."""

    num_classes: int
    dim: int
    samples_per_class_train: int
    samples_per_class_test: int
    instances_per_class: int = 1
    class_mean_separation: float = 5.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "dim", "samples_per_class_train",
                     "samples_per_class_test", "instances_per_class", "seed"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.num_classes < 1 or self.dim < 1:
            raise UsageError("num_classes and dim must be at least 1")
        if self.samples_per_class_train < 1 or self.samples_per_class_test < 1:
            raise UsageError("per-class sample counts must be at least 1")
        if self.instances_per_class < 1:
            raise UsageError("instances_per_class must be at least 1")
        if min(self.samples_per_class_train, self.samples_per_class_test) < self.instances_per_class:
            raise UsageError("need at least one sample per instance in each split")
        if not self.noise_std > 0:
            raise UsageError("noise_std must be positive")
        if self.class_mean_separation < 0:
            raise UsageError("class_mean_separation must be non-negative")


def save_feature_matrix(path, matrix) -> None:
    """Write a 2-D real matrix in the FEAT binary layout (float32, row-major)."""
    x = np.asarray(matrix)
    if x.ndim != 2:
        raise UsageError(f"feature matrix must be 2-D, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise DataFormatError("feature matrix contains non-finite values")
    x32 = np.ascontiguousarray(x, dtype="<f4")
    n, d = x32.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(_HEADER.pack(FEATURE_VERSION, n, d))
        fh.write(x32.tobytes(order="C"))


def load_feature_matrix(path) -> np.ndarray:
    """Read a FEAT file back as an (n, d) float32 array.

    Raises DataFormatError on a bad magic, an unsupported version, a payload
    whose length does not match the header, or non-finite values.
    """
    blob = Path(path).read_bytes()
    if len(blob) >= 4 and blob[:4] != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    if len(blob) < 4 + _HEADER.size:
        raise DataFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    version, n, d = _HEADER.unpack_from(blob, 4)
    if version != FEATURE_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    payload = blob[4 + _HEADER.size:]
    expected = n * d * 4
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}")
    x = np.frombuffer(payload, dtype="<f4").reshape(n, d).copy()
    if x.size and not np.isfinite(x).all():
        raise DataFormatError(f"{path}: non-finite value in feature matrix")
    return x


def l2_normalize(vector, eps: float = 1e-12) -> np.ndarray:
    """Scale a vector to unit Euclidean norm; vectors with norm below eps
    are returned unchanged."""
    v = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm < eps:
        return v.copy()
    return v / norm


def write_manifest(path, rows) -> None:
    """Write manifest rows (dicts keyed by MANIFEST_FIELDS) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(MANIFEST_FIELDS), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_dataset(dataset: Dataset, features_path, manifest_path) -> None:
    """Serialize a dataset as a FEAT file plus manifest, train rows first."""
    samples = list(dataset.train) + list(dataset.test)
    matrix = np.stack([s.features for s in samples])
    save_feature_matrix(features_path, matrix)
    rows = []
    for i, s in enumerate(samples):
        rows.append({
            "sample_id": i,
            "row": i,
            "split": s.split,
            "class_label": s.class_label,
            "instance_id": s.instance_id,
            "frame_index": s.frame_index,
        })
    write_manifest(manifest_path, rows)


def load_manifest(path, features, name: str | None = None, normalize: bool = True) -> Dataset:
    """Assemble a Dataset from a manifest CSV and its feature matrix.

    Integer class labels must densely cover [0, K); other label values are
    mapped to dense integers in sorted order. Every test class must also
    appear in train. Rows are L2-normalized unless ``normalize`` is False.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise UsageError("features must be a 2-D matrix")
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [f for f in MANIFEST_FIELDS if f not in header]
        if missing:
            raise DataFormatError(f"{path}: manifest header missing columns {missing}")
        raw_rows = list(reader)
    if not raw_rows:
        raise DataFormatError(f"{path}: manifest has no rows")

    labels = _map_labels(path, [r["class_label"] for r in raw_rows])
    num_classes = max(labels) + 1

    train: list[LabeledSample] = []
    test: list[LabeledSample] = []
    seen = set()
    for lineno, (row, label) in enumerate(zip(raw_rows, labels), start=2):
        split = row["split"]
        if split not in ("train", "test"):
            raise DataFormatError(f"{path}:{lineno}: split must be 'train' or 'test', got {split!r}")
        try:
            idx = int(row["row"])
            instance = int(row["instance_id"])
            frame = int(row["frame_index"])
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}:{lineno}: non-integer row/instance/frame field") from exc
        if not 0 <= idx < len(features):
            raise DataFormatError(
                f"{path}:{lineno}: row index {idx} outside feature matrix of {len(features)} rows")
        if frame < 0:
            raise DataFormatError(f"{path}:{lineno}: negative frame_index")
        key = (split, label, instance, frame)
        if key in seen:
            raise DataFormatError(
                f"{path}:{lineno}: duplicate (class, instance, frame) within split {split}")
        seen.add(key)
        vec = features[idx]
        if normalize:
            vec = l2_normalize(vec)
        else:
            vec = vec.copy()
        sample = LabeledSample(vec, label, instance, frame, split)
        (train if split == "train" else test).append(sample)

    train_classes = {s.class_label for s in train}
    test_classes = {s.class_label for s in test}
    orphans = sorted(test_classes - train_classes)
    if orphans:
        raise DataFormatError(f"{path}: test classes {orphans} never appear in train")
    return Dataset(train, test, num_classes, features.shape[1], name or path.stem)


def _map_labels(path, raw_labels):
    try:
        ints = [int(v) for v in raw_labels]
    except (TypeError, ValueError):
        ints = None
    if ints is not None:
        classes = sorted(set(ints))
        if classes[0] < 0 or classes != list(range(len(classes))):
            raise DataFormatError(
                f"{path}: integer class labels must densely cover [0, K); saw {classes[:10]}...")
        return ints
    mapping = {lab: i for i, lab in enumerate(sorted(set(raw_labels)))}
    return [mapping[v] for v in raw_labels]


def order_stream(dataset: Dataset, ordering: StreamOrdering) -> np.ndarray:
    """Return a permutation of train indices realizing the requested ordering.

    iid shuffles everything; class_iid shuffles within seeded class blocks;
    instance shuffles (class, instance) groups with frames contiguous and
    sorted by frame_index; class_instance nests instance groups inside
    seeded class blocks.
    """
    train = dataset.train
    if not train:
        raise UsageError("cannot order an empty train split")
    rng = np.random.default_rng(ordering.seed)
    n = len(train)
    if ordering.kind == "iid":
        return rng.permutation(n)

    labels = np.array([s.class_label for s in train])
    if ordering.kind == "class_iid":
        chunks = []
        for cls in rng.permutation(dataset.num_classes):
            idx = np.flatnonzero(labels == cls)
            chunks.append(rng.permutation(idx))
        return np.concatenate(chunks).astype(np.int64)

    groups: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(train):
        groups.setdefault((s.class_label, s.instance_id), []).append(i)
    for key, members in groups.items():
        members.sort(key=lambda i: (train[i].frame_index, i))
    keys = sorted(groups)

    if ordering.kind == "instance":
        order = rng.permutation(len(keys))
        return np.concatenate([np.asarray(groups[keys[j]]) for j in order]).astype(np.int64)

    # class_instance: seeded class order, then seeded instance order per class
    chunks = []
    for cls in rng.permutation(dataset.num_classes):
        cls_keys = [k for k in keys if k[0] == cls]
        if not cls_keys:
            continue
        for j in rng.permutation(len(cls_keys)):
            chunks.append(np.asarray(groups[cls_keys[j]]))
    return np.concatenate(chunks).astype(np.int64)


def synth_gaussian(spec: SynthSpec) -> Dataset:
    """Draw a synthetic dataset of Gaussian instance clusters.

    Class means are a seeded random configuration rescaled so the minimum
    pairwise distance equals class_mean_separation (all means coincide at
    separation 0). Each instance gets a mean offset with std noise_std and
    its frames add per-sample noise on top; test instances draw fresh
    offsets so they are genuinely unseen.
    """
    rng = np.random.default_rng(spec.seed)
    k, d = spec.num_classes, spec.dim
    if k == 1:
        means = np.zeros((1, d))
    else:
        while True:
            raw = rng.standard_normal((k, d))
            diffs = raw[:, None, :] - raw[None, :, :]
            dist = np.sqrt((diffs ** 2).sum(axis=2))
            dmin = dist[np.triu_indices(k, 1)].min()
            if dmin > 0:
                break
        means = raw * (spec.class_mean_separation / dmin)

    def build(split, per_class):
        counts = _split_counts(per_class, spec.instances_per_class)
        samples = []
        for cls in range(k):
            for inst, frames in enumerate(counts):
                offset = rng.standard_normal(d) * spec.noise_std
                center = means[cls] + offset
                for frame in range(frames):
                    x = center + rng.standard_normal(d) * spec.noise_std
                    samples.append(LabeledSample(x, cls, inst, frame, split))
        return samples

    train = build("train", spec.samples_per_class_train)
    test = build("test", spec.samples_per_class_test)
    name = f"synth-k{k}-d{d}-seed{spec.seed}"
    return Dataset(train, test, k, d, name)


def _split_counts(total, parts):
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]
