"""Feature files, manifests, normalization, datasets, orderings, synthetic
data, and per-row reference versions of the generator and the orderings."""

import numpy as np
import pytest

from protostream import (ORDERING_KINDS, Dataset, DataFormatError, LabeledSample,
                         MLPClassifier, MLPConfig, Split, StreamOrdering, SynthSpec,
                         UsageError, fit_offline, l2_normalize, load_feature_matrix,
                         load_manifest, order_stream, save_feature_matrix,
                         synth_gaussian, write_manifest)

# Synthetic shapes of the benchmark's workloads (perfbench/workloads.py).
WORKLOAD_SHAPES = {
    "paper_embed": dict(num_classes=10, dim=2048, samples_per_class_train=30,
                        samples_per_class_test=20, instances_per_class=4,
                        class_mean_separation=60.0, noise_std=1.0),
    "buffer_compress": dict(num_classes=8, dim=64, samples_per_class_train=200,
                            samples_per_class_test=50, instances_per_class=8,
                            class_mean_separation=10.0, noise_std=1.0),
    "cli_sweep": dict(num_classes=4, dim=16, samples_per_class_train=100,
                      samples_per_class_test=50, instances_per_class=4,
                      class_mean_separation=6.0, noise_std=1.0),
}


class TestFeatureFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        """A written matrix reads back with identical float32 values."""
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((1000, 2048)).astype(np.float32)
        path = tmp_path / "x.feat"
        save_feature_matrix(path, matrix)
        loaded = load_feature_matrix(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, matrix)

    def test_empty_matrix_keeps_dimension(self, tmp_path):
        path = tmp_path / "empty.feat"
        save_feature_matrix(path, np.zeros((0, 7)))
        assert load_feature_matrix(path).shape == (0, 7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataFormatError, match="magic"):
            load_feature_matrix(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.feat"
        save_feature_matrix(path, np.ones((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="version"):
            load_feature_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.feat"
        save_feature_matrix(path, np.ones((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataFormatError, match="payload"):
            load_feature_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.feat"
        save_feature_matrix(path, np.ones((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[24:28] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_feature_matrix(path)
        with pytest.raises(DataFormatError):
            save_feature_matrix(tmp_path / "inf.feat", np.array([[np.inf]]))


class TestL2Normalize:
    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v = rng.standard_normal(rng.integers(2, 64))
            np.testing.assert_allclose(np.linalg.norm(l2_normalize(v)), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(32) * 100
        once = l2_normalize(v)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-12)

    def test_near_zero_vector_unchanged(self):
        v = np.full(4, 1e-20)
        np.testing.assert_array_equal(l2_normalize(v), v)


def _manifest_rows(entries):
    rows = []
    for i, (split, label, inst, frame) in enumerate(entries):
        rows.append({"sample_id": i, "row": i, "split": split, "class_label": label,
                     "instance_id": inst, "frame_index": frame})
    return rows


class TestManifest:
    def _write(self, tmp_path, entries, n_features=None, dim=3):
        n = n_features if n_features is not None else len(entries)
        rng = np.random.default_rng(0)
        features = rng.standard_normal((n, dim))
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, _manifest_rows(entries))
        return manifest, features

    def test_assembles_splits(self, tmp_path):
        entries = [("train", 0, 0, 0), ("train", 1, 0, 0), ("test", 0, 0, 0), ("test", 1, 0, 0)]
        manifest, features = self._write(tmp_path, entries)
        ds = load_manifest(manifest, features)
        assert len(ds.train) == 2 and len(ds.test) == 2
        assert ds.num_classes == 2 and ds.dim == 3

    def test_rows_are_normalized_by_default(self, tmp_path):
        entries = [("train", 0, 0, 0), ("test", 0, 0, 0)]
        manifest, features = self._write(tmp_path, entries)
        ds = load_manifest(manifest, features)
        np.testing.assert_allclose(np.linalg.norm(ds.train[0].features), 1.0, atol=1e-12)
        raw = load_manifest(manifest, features, normalize=False)
        np.testing.assert_array_equal(raw.train[0].features, features[0])

    def test_row_index_out_of_range(self, tmp_path):
        entries = [("train", 0, 0, 0), ("test", 0, 0, 0)]
        manifest, features = self._write(tmp_path, entries, n_features=1)
        with pytest.raises(DataFormatError, match="row index"):
            load_manifest(manifest, features)

    def test_label_gap_rejected(self, tmp_path):
        entries = [("train", 0, 0, 0), ("train", 2, 0, 0), ("test", 0, 0, 0)]
        manifest, features = self._write(tmp_path, entries)
        with pytest.raises(DataFormatError, match="densely"):
            load_manifest(manifest, features)

    def test_string_labels_mapped_sorted(self, tmp_path):
        entries = [("train", "mug", 0, 0), ("train", "cup", 0, 0), ("test", "cup", 0, 0),
                   ("test", "mug", 0, 0)]
        manifest, features = self._write(tmp_path, entries)
        ds = load_manifest(manifest, features)
        assert [s.class_label for s in ds.train] == [1, 0]  # cup -> 0, mug -> 1

    def test_duplicate_identity_rejected(self, tmp_path):
        entries = [("train", 0, 0, 0), ("train", 0, 0, 0), ("test", 0, 0, 0)]
        manifest, features = self._write(tmp_path, entries)
        with pytest.raises(DataFormatError, match="duplicate"):
            load_manifest(manifest, features)

    def test_test_class_missing_from_train(self, tmp_path):
        entries = [("train", 0, 0, 0), ("test", 0, 0, 0), ("test", 1, 0, 0)]
        manifest, features = self._write(tmp_path, entries)
        with pytest.raises(DataFormatError, match="never appear in train"):
            load_manifest(manifest, features)

    def test_bad_split_and_missing_column(self, tmp_path):
        entries = [("validation", 0, 0, 0)]
        manifest, features = self._write(tmp_path, entries)
        with pytest.raises(DataFormatError, match="split"):
            load_manifest(manifest, features)
        bad = tmp_path / "short.csv"
        bad.write_text("sample_id,row\n0,0\n")
        with pytest.raises(DataFormatError, match="missing columns"):
            load_manifest(bad, features)


def _toy_dataset(num_classes=3, instances=2, frames=4, seed=0):
    rng = np.random.default_rng(seed)
    train = []
    for cls in range(num_classes):
        for inst in range(instances):
            for frame in range(frames):
                train.append(LabeledSample(rng.standard_normal(5), cls, inst, frame, "train"))
    test = [LabeledSample(rng.standard_normal(5), cls, 0, 0, "test")
            for cls in range(num_classes)]
    return Dataset(train, test, num_classes, 5, "toy")


def _scrambled_dataset(seed=0):
    """Rows in random order with repeated frame indices inside an instance
    (ties broken by row) and a class (3) that has no rows at all."""
    rng = np.random.default_rng(seed)
    train = [LabeledSample(rng.standard_normal(4), int(rng.integers(3)), int(rng.integers(3)),
                           int(rng.integers(3)), "train") for _ in range(40)]
    test = [LabeledSample(rng.standard_normal(4), 0, 0, 0, "test")]
    return Dataset(train, test, 4, 4, "scrambled")


def _edge_dataset(seed=0):
    """Rows in seeded order where class 1 has no train rows, instance
    (2, 5) has a single frame, and (class, instance, frame) keys repeat."""
    rng = np.random.default_rng(seed)
    ids = [(0, 0, 1), (2, 5, 0), (0, 0, 0), (3, 1, 2), (0, 0, 1), (3, 1, 0), (3, 0, 0),
           (3, 1, 2), (0, 1, 0), (3, 0, 0), (2, 0, 3), (2, 0, 3)]
    train = [LabeledSample(rng.standard_normal(3), *ids[i], "train")
             for i in rng.permutation(len(ids))]
    test = [LabeledSample(rng.standard_normal(3), cls, 0, 0, "test") for cls in (0, 2, 3)]
    return Dataset(train, test, 4, 3, "edges")


def _split_arrays(split):
    return split.features, split.labels, split.instances, split.frames


class TestDataset:
    def test_rebuilt_from_rows_is_equal(self):
        """A Dataset built from its own row views has the same arrays and
        the same orderings."""
        datasets = [_toy_dataset(), _scrambled_dataset(),
                    synth_gaussian(SynthSpec(3, 6, 12, 5, instances_per_class=2, seed=4))]
        for ds in datasets:
            rebuilt = Dataset(list(ds.train), list(ds.test), ds.num_classes, ds.dim, ds.name)
            for old, new in ((ds.train, rebuilt.train), (ds.test, rebuilt.test)):
                assert old.name == new.name
                for a, b in zip(_split_arrays(old), _split_arrays(new)):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
            for kind in ORDERING_KINDS:
                for seed in (0, 1, 2):
                    ordering = StreamOrdering(kind, seed)
                    np.testing.assert_array_equal(order_stream(ds, ordering),
                                                  order_stream(rebuilt, ordering))

    def test_arrays_are_shared_and_read_only(self):
        ds = _toy_dataset()
        (x, y), (x2, y2) = ds.train_arrays(), ds.train_arrays()
        assert x is x2 and y is y2
        assert ds.test_arrays()[0] is ds.test_arrays()[0]
        assert x.dtype == np.float64 and y.dtype == np.int64
        for a in (*_split_arrays(ds.train), *_split_arrays(ds.test)):
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1.0

    def test_split_leaves_the_callers_array_writable(self):
        x = np.zeros((2, 3))
        split = Split(x, [0, 1], [0, 0], [0, 0], "train")
        assert x.flags.writeable and not split.features.flags.writeable

    def test_row_views(self):
        ds = _toy_dataset()
        row = ds.train[5]
        assert isinstance(row, LabeledSample)
        assert (row.class_label, row.instance_id, row.frame_index, row.split) == (0, 1, 1, "train")
        assert type(row.class_label) is int
        np.testing.assert_array_equal(row.features, ds.train.features[5])
        assert len(ds.train) == 24 and len(list(ds.test)) == 3
        assert [s.class_label for s in ds.test] == [0, 1, 2]

    def test_row_length_must_match_dim(self):
        good = [LabeledSample(np.zeros(5), 0, 0, 0, "train")]
        for bad in (np.zeros(4), np.zeros(6), np.zeros((1, 5)), 1.0):
            row = [LabeledSample(bad, 0, 0, 1, "train")]
            with pytest.raises(UsageError, match="length 5"):
                Dataset(good + row, good, 1, 5)
            with pytest.raises(UsageError, match="length 5"):
                Dataset(good, row, 1, 5)
        narrow = Split(np.zeros((2, 4)), [0, 0], [0, 0], [0, 1], "train")
        with pytest.raises(UsageError, match="length 4"):
            Dataset(narrow, good, 1, 5)

    def test_split_arrays_must_align(self):
        with pytest.raises(UsageError, match="split"):
            Split(np.zeros((2, 4)), [0], [0, 0], [0, 1], "train")
        with pytest.raises(UsageError, match="split"):
            Split(np.zeros(4), [0], [0], [0], "train")

    def test_datasets_compare_by_identity(self):
        spec = SynthSpec(3, 6, 12, 5, instances_per_class=2, seed=4)
        a, b = synth_gaussian(spec), synth_gaussian(spec)
        assert a == a and a != b
        for (xa, ya), (xb, yb) in ((a.train_arrays(), b.train_arrays()),
                                   (a.test_arrays(), b.test_arrays())):
            assert xa.tobytes() == xb.tobytes() and ya.tobytes() == yb.tobytes()

    def test_empty_split_keeps_dimension(self):
        ds = Dataset([LabeledSample(np.ones(3), 0, 0, 0, "train")], [], 1, 3)
        x, y = ds.test_arrays()
        assert x.shape == (0, 3) and y.shape == (0,) and y.dtype == np.int64


class TestOrderStream:
    def test_every_kind_is_a_permutation(self):
        ds = _toy_dataset()
        n = len(ds.train)
        for kind in ("iid", "class_iid", "instance", "class_instance"):
            for seed in (0, 1, 2):
                order = order_stream(ds, StreamOrdering(kind, seed))
                assert sorted(order.tolist()) == list(range(n)), (kind, seed)

    def test_deterministic_per_seed(self):
        ds = _toy_dataset()
        for kind in ("iid", "class_iid", "instance", "class_instance"):
            a = order_stream(ds, StreamOrdering(kind, 3))
            b = order_stream(ds, StreamOrdering(kind, 3))
            np.testing.assert_array_equal(a, b)

    def test_iid_seeds_differ(self):
        """Distinct seeds give distinct shuffles (100 seeds, all unique)."""
        ds = _toy_dataset()
        perms = {tuple(order_stream(ds, StreamOrdering("iid", s)).tolist())
                 for s in range(100)}
        assert len(perms) == 100

    def test_class_iid_blocks(self):
        ds = _toy_dataset()
        labels = np.array([s.class_label for s in ds.train])
        order = order_stream(ds, StreamOrdering("class_iid", 5))
        seq = labels[order]
        # exactly one contiguous block per class
        assert int(np.sum(np.diff(seq) != 0)) == ds.num_classes - 1

    def test_instance_frames_contiguous_and_sorted(self):
        ds = _toy_dataset(frames=5)
        order = order_stream(ds, StreamOrdering("instance", 9))
        seen = []
        pos = 0
        while pos < len(order):
            s = ds.train[order[pos]]
            group = [(s.class_label, s.instance_id)]
            frames = [s.frame_index]
            while pos + 1 < len(order):
                nxt = ds.train[order[pos + 1]]
                if (nxt.class_label, nxt.instance_id) != group[0]:
                    break
                frames.append(nxt.frame_index)
                pos += 1
            assert frames == sorted(frames) and len(frames) == 5
            seen.append(group[0])
            pos += 1
        assert len(seen) == len(set(seen)) == ds.num_classes * 2

    def test_class_instance_blocks(self):
        ds = _toy_dataset()
        labels = np.array([s.class_label for s in ds.train])
        order = order_stream(ds, StreamOrdering("class_instance", 11))
        seq = labels[order]
        assert int(np.sum(np.diff(seq) != 0)) == ds.num_classes - 1
        # frames ascending inside each instance block
        for start in range(0, len(order), 4):
            chunk = [ds.train[i] for i in order[start:start + 4]]
            assert len({(c.class_label, c.instance_id) for c in chunk}) == 1
            assert [c.frame_index for c in chunk] == sorted(c.frame_index for c in chunk)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError, match="ordering"):
            StreamOrdering("shuffled", 0)

    @pytest.mark.parametrize("seed, match", [(-1, "non-negative"), (1.5, "integer"),
                                             (True, "integer")],
                             ids=["negative", "fraction", "bool"])
    def test_seed_must_be_a_non_negative_integer(self, seed, match):
        with pytest.raises(UsageError, match=match):
            StreamOrdering("iid", seed)


class TestSynthGaussian:
    def test_shapes_and_instances(self):
        spec = SynthSpec(num_classes=3, dim=6, samples_per_class_train=20,
                         samples_per_class_test=10, instances_per_class=3, seed=1)
        ds = synth_gaussian(spec)
        assert len(ds.train) == 60 and len(ds.test) == 30
        for cls in range(3):
            ids = {s.instance_id for s in ds.train if s.class_label == cls}
            assert ids == {0, 1, 2}

    def test_bitwise_deterministic(self):
        spec = SynthSpec(2, 4, 8, 4, seed=9)
        a, b = synth_gaussian(spec), synth_gaussian(spec)
        for split_a, split_b in ((a.train, b.train), (a.test, b.test)):
            for s, t in zip(split_a, split_b):
                assert np.array_equal(s.features, t.features)
                assert (s.class_label, s.instance_id, s.frame_index) == \
                       (t.class_label, t.instance_id, t.frame_index)

    def test_minimum_separation_is_exact(self):
        for k, sep in ((3, 4.0), (5, 10.0)):
            spec = SynthSpec(k, 8, k, k, class_mean_separation=sep, noise_std=1.0, seed=2)
            ds = synth_gaussian(spec)
            # recover class means from large fresh draw
            big = synth_gaussian(SynthSpec(k, 8, 2000, k, class_mean_separation=sep,
                                           noise_std=1e-6, seed=2))
            x, y = big.train_arrays()
            means = np.stack([x[y == c].mean(axis=0) for c in range(k)])
            dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
            dmin = dists[np.triu_indices(k, 1)].min()
            np.testing.assert_allclose(dmin, sep, rtol=1e-3)
            assert ds.num_classes == k

    def test_separable_dataset_supports_accurate_offline_model(self):
        """Well-separated clusters are learnable to 99%+ by the MLP."""
        spec = SynthSpec(2, 10, 200, 100, instances_per_class=4,
                         class_mean_separation=10.0, noise_std=1.0, seed=0)
        ds = synth_gaussian(spec)
        model = MLPClassifier(MLPConfig(layer_sizes=(32,), learning_rate=0.05,
                                        batch_size=32, seed=0), ds.dim, ds.num_classes)
        _, acc = fit_offline(model, ds, epochs=10)
        assert acc >= 0.99

    def test_zero_separation_is_chance_level(self):
        """Coincident class means leave nothing to learn: ~50% accuracy.

        One frame per test instance keeps test samples independent, so the
        band below is about three standard errors wide.
        """
        accs = []
        for seed in (0, 1, 2):
            spec = SynthSpec(2, 10, 200, 100, instances_per_class=100,
                             class_mean_separation=0.0, noise_std=1.0, seed=seed)
            ds = synth_gaussian(spec)
            model = MLPClassifier(MLPConfig(layer_sizes=(32,), learning_rate=0.05,
                                            batch_size=32, seed=0), ds.dim, ds.num_classes)
            _, acc = fit_offline(model, ds, epochs=10)
            assert 0.38 <= acc <= 0.62, seed
            accs.append(acc)
        assert 0.42 <= float(np.mean(accs)) <= 0.58

    def test_invalid_specs_rejected(self):
        with pytest.raises(UsageError):
            SynthSpec(0, 4, 8, 4)
        with pytest.raises(UsageError):
            SynthSpec(2, 4, 8, 4, noise_std=0.0)
        with pytest.raises(UsageError):
            SynthSpec(2, 4, 2, 4, instances_per_class=3)
        kw = dict(num_classes=2, dim=4, samples_per_class_train=8,
                  samples_per_class_test=4, seed=0)
        for field in ("num_classes", "dim", "samples_per_class_train",
                      "samples_per_class_test", "instances_per_class", "seed"):
            for value in (10.5, 2.0, True, "3"):
                with pytest.raises(UsageError, match=field):
                    SynthSpec(**{**kw, field: value})
        with pytest.raises(UsageError, match="seed must be non-negative"):
            SynthSpec(**{**kw, "seed": -1})

    def test_numpy_integers_accepted(self):
        spec = SynthSpec(np.int64(2), np.int32(4), 8, 4, seed=np.int64(3))
        assert type(spec.num_classes) is int and type(spec.seed) is int
        assert synth_gaussian(spec).name == "synth-k2-d4-seed3"


# --------------------------------------------------------------- references
# The per-row generator and the dict-of-lists grouping that synth_gaussian
# and order_stream replaced with array code. The array versions must give
# the same bytes and the same permutations.

def reference_synth_rows(spec):
    """(train, test) lists of (features, class, instance, frame) rows, one
    (d,) draw per row."""
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
    splits = []
    for per_class in (spec.samples_per_class_train, spec.samples_per_class_test):
        base, extra = divmod(per_class, spec.instances_per_class)
        counts = [base + (1 if i < extra else 0) for i in range(spec.instances_per_class)]
        rows = []
        for cls in range(k):
            for inst, frames in enumerate(counts):
                offset = rng.standard_normal(d) * spec.noise_std
                center = means[cls] + offset
                for frame in range(frames):
                    x = center + rng.standard_normal(d) * spec.noise_std
                    rows.append((x, cls, inst, frame))
        splits.append(rows)
    return splits


def reference_order(train, num_classes, ordering):
    """order_stream over a list of LabeledSample, grouping (class, instance)
    keys in a dict of index lists."""
    rng = np.random.default_rng(ordering.seed)
    if ordering.kind == "iid":
        return rng.permutation(len(train))
    labels = np.array([s.class_label for s in train])
    if ordering.kind == "class_iid":
        chunks = []
        for cls in rng.permutation(num_classes):
            chunks.append(rng.permutation(np.flatnonzero(labels == cls)))
        return np.concatenate(chunks).astype(np.int64)
    groups = {}
    for i, s in enumerate(train):
        groups.setdefault((s.class_label, s.instance_id), []).append(i)
    for members in groups.values():
        members.sort(key=lambda i: (train[i].frame_index, i))
    keys = sorted(groups)
    if ordering.kind == "instance":
        order = rng.permutation(len(keys))
        return np.concatenate([np.asarray(groups[keys[j]]) for j in order]).astype(np.int64)
    chunks = []
    for cls in rng.permutation(num_classes):
        cls_keys = [k for k in keys if k[0] == cls]
        if not cls_keys:
            continue
        for j in rng.permutation(len(cls_keys)):
            chunks.append(np.asarray(groups[cls_keys[j]]))
    return np.concatenate(chunks).astype(np.int64)


class TestReferenceParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", list(WORKLOAD_SHAPES))
    def test_synth_matches_per_row_draws(self, shape, seed):
        spec = SynthSpec(**WORKLOAD_SHAPES[shape], seed=seed)
        ds = synth_gaussian(spec)
        for split, rows in zip((ds.train, ds.test), reference_synth_rows(spec)):
            assert split.features.tobytes() == np.array([r[0] for r in rows]).tobytes()
            ids = np.stack([split.labels, split.instances, split.frames], axis=1)
            np.testing.assert_array_equal(ids, [r[1:] for r in rows])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("source", ["toy", "scrambled", "edges", *WORKLOAD_SHAPES])
    def test_orderings_match_dict_grouping(self, source, seed):
        if source == "toy":
            ds = _toy_dataset(seed=seed)
        elif source == "scrambled":
            ds = _scrambled_dataset(seed)
        elif source == "edges":
            ds = _edge_dataset(seed)
        else:
            ds = synth_gaussian(SynthSpec(**WORKLOAD_SHAPES[source], seed=seed))
        rows = list(ds.train)
        for kind in ORDERING_KINDS:
            ordering = StreamOrdering(kind, seed)
            expected = reference_order(rows, ds.num_classes, ordering)
            got = order_stream(ds, ordering)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected, err_msg=kind)
