"""Datasets, feature-file and manifest ingestion, stream orderings, and the
synthetic Gaussian generator used by the tests and demos.

A Dataset holds one Split per split: read-only row-aligned arrays, built
once and shared by every run. LabeledSample is the view of one row.

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

from .errors import DataFormatError, UsageError, require_int, require_seed

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


class Split:
    """One split's rows as read-only arrays: features (n, d) float64, and
    int64 labels, instance ids and frame indices. Indexing and iteration
    (the sequence protocol) give LabeledSample row views."""

    def __init__(self, features, labels, instances, frames, name: str):
        arrays = [np.asarray(a, dtype).view() for a, dtype in zip(
            (features, labels, instances, frames), (np.float64, np.int64, np.int64, np.int64))]
        for a in arrays:
            a.flags.writeable = False
        self.features, self.labels, self.instances, self.frames = arrays
        self.name = name
        shapes = {a.shape for a in (self.labels, self.instances, self.frames)}
        if self.features.ndim != 2 or shapes != {(len(self.features),)}:
            raise UsageError(f"a {name} split needs (n, d) features and n of each id")

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        return LabeledSample(self.features[i], int(self.labels[i]), int(self.instances[i]),
                             int(self.frames[i]), self.name)


@dataclass(eq=False)
class Dataset:
    """Train and test Splits sharing one feature dimension and a dense label
    set. Either split may be given as a sequence of LabeledSample.

    Datasets compare by identity; compare content through the arrays
    (``train_arrays``, ``test_arrays`` and each Split's id arrays)."""

    train: Split
    test: Split
    num_classes: int
    dim: int
    name: str = "dataset"

    def __post_init__(self):
        for part in ("train", "test"):
            rows = getattr(self, part)
            if not isinstance(rows, Split):
                rows = list(rows)
                if any(np.shape(s.features) != (self.dim,) for s in rows):
                    raise UsageError(f"every {part} row must be a vector of length {self.dim}")
                ids = [(s.class_label, s.instance_id, s.frame_index) for s in rows]
                x = np.array([s.features for s in rows], dtype=np.float64).reshape(-1, self.dim)
                rows = Split(x, *np.array(ids, dtype=np.int64).reshape(-1, 3).T, part)
            if rows.features.shape[1] != self.dim:
                raise UsageError(f"{part} rows have length {rows.features.shape[1]}, not {self.dim}")
            setattr(self, part, rows)

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.train.features, self.train.labels

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.test.features, self.test.labels


@dataclass(frozen=True)
class StreamOrdering:
    """How the training set is presented: one of ``iid``, ``class_iid``,
    ``instance`` or ``class_instance``, plus the shuffle seed."""

    kind: str
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", require_seed(self.seed))
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
                     "samples_per_class_test", "instances_per_class"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        object.__setattr__(self, "seed", require_seed(self.seed))
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
    splits = (dataset.train, dataset.test)
    save_feature_matrix(features_path, np.concatenate([s.features for s in splits]))
    rows = [(s.name, *ids) for s in splits
            for ids in zip(s.labels.tolist(), s.instances.tolist(), s.frames.tolist())]
    write_manifest(manifest_path, (dict(zip(MANIFEST_FIELDS, (i, i, *row)))
                                   for i, row in enumerate(rows)))


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

    ids = []
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
        ids.append((idx, label, instance, frame, split == "train"))

    rows, labels, instances, frames, in_train = np.array(ids, dtype=np.int64).T
    norm = l2_normalize if normalize else np.asarray
    x = np.stack([norm(features[i]) for i in rows])
    orphans = sorted(set(labels[in_train == 0].tolist()) - set(labels[in_train == 1].tolist()))
    if orphans:
        raise DataFormatError(f"{path}: test classes {orphans} never appear in train")
    train, test = (Split(x[m], labels[m], instances[m], frames[m], part)
                   for m, part in ((in_train == 1, "train"), (in_train == 0, "test")))
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
    if len(train) == 0:
        raise UsageError("cannot order an empty train split")
    rng = np.random.default_rng(ordering.seed)
    if ordering.kind == "iid":
        return rng.permutation(len(train))

    labels = train.labels
    if ordering.kind == "class_iid":
        chunks = []
        for cls in rng.permutation(dataset.num_classes):
            idx = np.flatnonzero(labels == cls)
            chunks.append(rng.permutation(idx))
        return np.concatenate(chunks).astype(np.int64)

    # (class, instance) groups in key order, each by (frame, row): a stable lexsort
    rows = np.lexsort((train.frames, train.instances, labels))
    keys = np.stack([labels[rows], train.instances[rows]])
    starts = np.flatnonzero(np.r_[True, (np.diff(keys, axis=1) != 0).any(axis=0)])
    groups = np.split(rows, starts[1:])
    group_class = keys[0, starts]

    if ordering.kind == "instance":
        order = rng.permutation(len(groups))
        return np.concatenate([groups[j] for j in order]).astype(np.int64)

    # class_instance: seeded class order, then seeded instance order per class
    chunks = []
    for cls in rng.permutation(dataset.num_classes):
        members = np.flatnonzero(group_class == cls)
        for j in rng.permutation(len(members)):
            chunks.append(groups[members[j]])
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
        # one (frames, d) draw per instance: the stream of frames (d,) draws
        counts = _split_counts(per_class, spec.instances_per_class)
        x = np.empty((k * per_class, d))
        row = 0
        for cls in range(k):
            for frames in counts:
                center = means[cls] + rng.standard_normal(d) * spec.noise_std
                x[row:row + frames] = center + rng.standard_normal((frames, d)) * spec.noise_std
                row += frames
        instances = np.repeat(np.arange(len(counts)), counts)
        frames = np.concatenate([np.arange(c) for c in counts])
        return Split(x, np.repeat(np.arange(k), per_class), np.tile(instances, k),
                     np.tile(frames, k), split)

    train = build("train", spec.samples_per_class_train)
    test = build("test", spec.samples_per_class_test)
    name = f"synth-k{k}-d{d}-seed{spec.seed}"
    return Dataset(train, test, k, d, name)


def _split_counts(total, parts):
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]
