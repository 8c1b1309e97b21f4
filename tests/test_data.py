"""Feature files, manifests, normalization, orderings, synthetic data."""

import numpy as np
import pytest

from protostream import (Dataset, DataFormatError, LabeledSample, MLPClassifier,
                         MLPConfig, StreamOrdering, SynthSpec, UsageError,
                         fit_offline, l2_normalize, load_feature_matrix,
                         load_manifest, order_stream, save_feature_matrix,
                         synth_gaussian, write_manifest)


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
        for s, t in zip(a.train + a.test, b.train + b.test):
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

    def test_numpy_integers_accepted(self):
        spec = SynthSpec(np.int64(2), np.int32(4), 8, 4, seed=np.int64(3))
        assert type(spec.num_classes) is int and type(spec.seed) is int
        assert synth_gaussian(spec).name == "synth-k2-d4-seed3"
