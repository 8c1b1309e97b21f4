"""Streaming protocol: event grid, rehearsal pass, end-to-end runs."""

import tracemalloc
from contextlib import suppress

import numpy as np
import pytest

from protostream import (AccuracyCurve, BOUNDED_STRATEGIES, BufferManager, MLPClassifier,
                         MLPConfig, RunConfig, StreamOrdering, SynthSpec, UsageError,
                         evaluate_accuracy, event_times, execute_run,
                         order_stream, protocol, rehearsal_update, run_offline_baseline,
                         synth_gaussian)
from protostream.data import ORDERING_KINDS


def stream_dataset(seed=0):
    return synth_gaussian(SynthSpec(2, 10, 200, 100, instances_per_class=4,
                                    class_mean_separation=5.0, noise_std=1.0,
                                    seed=seed))


def stream_config(strategy, buffer_size, ordering="class_iid", eval_every=100,
                  o_seed=0, m_seed=0, **mlp_kw):
    mlp_kw.setdefault("layer_sizes", (32,))
    mlp_kw.setdefault("learning_rate", 0.5)
    mlp_kw.setdefault("batch_size", 32)
    return RunConfig(strategy, buffer_size, StreamOrdering(ordering, o_seed),
                     MLPConfig(seed=m_seed, **mlp_kw), eval_every=eval_every)


class TestEventTimes:
    def test_stride_plus_final(self):
        assert event_times(10, 3) == [3, 6, 9, 10]

    def test_final_already_on_grid(self):
        assert event_times(10, 5) == [5, 10]

    def test_stride_longer_than_stream(self):
        assert event_times(10, 20) == [10]

    def test_unit_stride(self):
        assert event_times(5, 1) == [1, 2, 3, 4, 5]

    def test_invalid(self):
        with pytest.raises(UsageError):
            event_times(0, 1)
        with pytest.raises(UsageError):
            event_times(5, 0)


class TestAccuracyCurve:
    def test_validates_alignment_and_range(self):
        with pytest.raises(UsageError):
            AccuracyCurve([1, 2], [0.5])
        with pytest.raises(UsageError):
            AccuracyCurve([], [])
        with pytest.raises(UsageError):
            AccuracyCurve([2, 2], [0.5, 0.6])
        with pytest.raises(UsageError):
            AccuracyCurve([1, 2], [0.5, 1.2])
        with pytest.raises(UsageError):
            AccuracyCurve([1, 2], [0.5, np.nan])

    def test_events_view(self):
        curve = AccuracyCurve([5, 10], [0.25, 0.75])
        assert curve.num_events == 2
        assert curve.events == [(5, 0.25), (10, 0.75)]


class TestRunConfig:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(UsageError, match="strategy"):
            stream_config("sliding_window", 4)

    def test_bounded_needs_positive_size(self):
        with pytest.raises(UsageError, match="buffer_size"):
            stream_config("queue", 0)

    def test_unbounded_methods_take_size_zero(self):
        assert stream_config("full", 0).buffer_size == 0
        assert stream_config("no_buffer", 0).buffer_size == 0

    @pytest.mark.parametrize("strategy", ["full", "no_buffer"])
    def test_unbounded_methods_refuse_a_negative_size(self, strategy):
        with pytest.raises(UsageError, match="buffer_size"):
            stream_config(strategy, -1)

    def test_eval_every_positive(self):
        with pytest.raises(UsageError, match="eval_every"):
            stream_config("queue", 4, eval_every=0)

    @pytest.mark.parametrize("field, value", [
        ("buffer_size", 2.7), ("buffer_size", True), ("buffer_size", "4"),
        ("eval_every", 2.5), ("eval_every", 2.0), ("buffer_seed", 1.5),
        ("buffer_seed", False),
    ])
    def test_rejects_non_integers(self, field, value):
        kw = dict(buffer_size=4, eval_every=1, buffer_seed=0)
        kw[field] = value
        with pytest.raises(UsageError, match=field):
            RunConfig("queue", kw.pop("buffer_size"), StreamOrdering("iid", 0),
                      MLPConfig(), **kw)

    def test_negative_buffer_seed_rejected(self):
        with pytest.raises(UsageError, match="buffer_seed must be non-negative"):
            RunConfig("queue", 4, StreamOrdering("iid", 0), MLPConfig(), buffer_seed=-1)

    def test_numpy_integers_stored_as_int(self):
        config = RunConfig("queue", np.int64(4), StreamOrdering("iid", 0), MLPConfig(),
                           eval_every=np.int32(2), buffer_seed=np.uint8(3))
        assert (config.buffer_size, config.eval_every, config.buffer_seed) == (4, 2, 3)
        assert all(type(v) is int for v in (config.buffer_size, config.eval_every,
                                            config.buffer_seed))


class TestRehearsalUpdate:
    def test_empty_buffer_is_complete_noop(self):
        model = MLPClassifier(MLPConfig(layer_sizes=(4,), seed=0), 3, 2)
        manager = BufferManager("queue", 4, num_classes=2)
        before = [p.copy() for _, p in model.named_parameters()]
        rng = np.random.default_rng(9)
        rehearsal_update(model, manager, rng)
        for old, (_, new) in zip(before, model.named_parameters()):
            np.testing.assert_array_equal(old, new)
        # the shuffle generator was never consumed
        fresh = np.random.default_rng(9)
        assert rng.integers(1 << 30) == fresh.integers(1 << 30)

    def test_each_prototype_trains_exactly_once(self):
        model = MLPClassifier(MLPConfig(layer_sizes=(4,), batch_size=2, seed=0), 1, 2)
        manager = BufferManager("queue", 8, num_classes=2)
        for i in range(5):
            manager.insert([float(i)], i % 2, i)
        seen = []
        original = model.train_minibatch

        def spy(inputs, labels):
            seen.extend(np.asarray(inputs).ravel().tolist())
            return original(inputs, labels)

        model.train_minibatch = spy
        rehearsal_update(model, manager, np.random.default_rng(0))
        assert sorted(seen) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_minibatch_chunking(self):
        model = MLPClassifier(MLPConfig(layer_sizes=(), batch_size=2, seed=0), 1, 2)
        manager = BufferManager("queue", 8, num_classes=2)
        for i in range(5):
            manager.insert([float(i)], i % 2, i)
        sizes = []
        original = model.train_minibatch

        def spy(inputs, labels):
            sizes.append(len(inputs))
            return original(inputs, labels)

        model.train_minibatch = spy
        rehearsal_update(model, manager, np.random.default_rng(0))
        assert sizes == [2, 2, 1]

    def test_warm_pass_copies_no_buffer_sized_array(self):
        """Rehearsal gathers each minibatch from the manager's array; the
        stored prototypes are never copied whole."""
        model = MLPClassifier(MLPConfig(layer_sizes=(), batch_size=16, seed=0), 32, 4)
        manager = BufferManager("exstream", 16, num_classes=4)
        rows = np.random.default_rng(3).standard_normal((100, 32))
        for t, x in enumerate(rows, start=1):
            manager.insert(x, t % 4, t)
        prototypes = manager.contents()[0]
        assert prototypes.shape == (64, 32)
        rng = np.random.default_rng(0)
        rehearsal_update(model, manager, rng)  # warm
        tracemalloc.start()
        try:
            rehearsal_update(model, manager, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < prototypes.nbytes


class TestRunStreaming:
    def test_curve_matches_event_grid(self):
        ds = stream_dataset()
        curve = execute_run(ds, stream_config("queue", 8, eval_every=150)).curve
        assert curve.times.tolist() == [150, 300, 400]

    def test_deterministic(self):
        """A run repeats byte for byte in one process, the paper's learner
        (three batch-norm layers, dropout, weight decay, batch 256) on a
        class iid stream included, with an offline baseline trained between
        the two runs as in a benchmark round."""
        ds = stream_dataset()
        cfg = stream_config("reservoir", 8)
        a = execute_run(ds, cfg).curve
        b = execute_run(ds, cfg).curve
        np.testing.assert_array_equal(a.values, b.values)
        paper = dict(layer_sizes=(300, 150, 100), activation="relu", dropout_keep=0.5,
                     weight_decay=0.005, learning_rate=0.03, batch_size=256)
        for strategy, size in (("exstream", 4), ("no_buffer", 0)):
            cfg = stream_config(strategy, size, eval_every=25, **paper)
            first = execute_run(ds, cfg).curve
            run_offline_baseline(ds, cfg, epochs=2)
            again = execute_run(ds, cfg).curve
            assert first.times.tobytes() == again.times.tobytes()
            assert first.values.tobytes() == again.values.tobytes()

    def test_ordering_seed_changes_run(self):
        ds = stream_dataset()
        a = execute_run(ds, stream_config("queue", 8, ordering="iid", o_seed=0)).curve
        b = execute_run(ds, stream_config("queue", 8, ordering="iid", o_seed=1)).curve
        assert not np.array_equal(a.values, b.values)

    def test_no_buffer_forgets_first_class(self):
        """Without rehearsal, sequential class exposure erases the first
        class: its recall ends below 10%."""
        ds = stream_dataset()
        cfg = stream_config("no_buffer", 0)
        order = order_stream(ds, cfg.ordering)
        first = ds.train[order[0]].class_label
        model = MLPClassifier(cfg.mlp, ds.dim, ds.num_classes)
        x, y = ds.train_arrays()
        for idx in order:
            model.train_minibatch(x[idx:idx + 1], y[idx:idx + 1])
        xt, yt = ds.test_arrays()
        mask = yt == first
        assert evaluate_accuracy(model, xt[mask], yt[mask]) < 0.10

    def test_no_buffer_trains_on_each_arriving_sample(self):
        """no_buffer is one plain step per sample, with no rehearsal pass,
        scored on the event grid."""
        ds = stream_dataset()
        cfg = stream_config("no_buffer", 0, eval_every=150)
        curve = execute_run(ds, cfg).curve
        model = MLPClassifier(cfg.mlp, ds.dim, ds.num_classes)
        x, y = ds.train_arrays()
        xt, yt = ds.test_arrays()
        times, values = [], []
        for t, idx in enumerate(order_stream(ds, cfg.ordering), start=1):
            model.train_minibatch(x[idx:idx + 1], y[idx:idx + 1])
            if t in (150, 300, 400):
                times.append(t)
                values.append(evaluate_accuracy(model, xt, yt))
        assert curve.times.tolist() == times
        assert curve.values.tolist() == values

    def test_full_rehearsal_matches_offline_at_the_end(self):
        # widely separated classes so both training regimes saturate
        ds = synth_gaussian(SynthSpec(2, 10, 200, 100, instances_per_class=4,
                                      class_mean_separation=10.0, noise_std=1.0,
                                      seed=0))
        cfg = stream_config("full", 0, eval_every=400)
        curve = execute_run(ds, cfg).curve
        _, offline = run_offline_baseline(ds, cfg, epochs=20)
        assert abs(curve.values[-1] - offline) <= 0.02

    def test_exstream_at_full_capacity_equals_full(self):
        """With room for every sample no merge ever fires, so the merging
        buffer and the unbounded buffer drive identical runs."""
        ds = synth_gaussian(SynthSpec(2, 6, 20, 10, instances_per_class=2,
                                      class_mean_separation=5.0, seed=3))
        kw = dict(ordering="iid", eval_every=10, learning_rate=0.1)
        a = execute_run(ds, stream_config("exstream", 20, **kw)).curve
        b = execute_run(ds, stream_config("full", 0, **kw)).curve
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)

    def test_bounded_runs_equal_full_until_a_class_passes_its_pool(self, monkeypatch):
        """Until one of its classes passes its pool, a bounded store only
        appends, so the learner sees what full shows it: at every event
        before the (b+1)-th sample of a class (the 2b-th for clustream,
        whose k-means seeding runs on its pool's last point), theta and the
        batch-norm running statistics equal full's byte for byte."""
        ds = synth_gaussian(SynthSpec(4, 8, 30, 10, instances_per_class=2,
                                      class_mean_separation=5.0, seed=1))
        y = ds.train_arrays()[1]
        mlp = MLPConfig(layer_sizes=(8,), dropout_keep=0.8, learning_rate=0.1,
                        batch_size=16, seed=0)

        class Enough(Exception):
            """Stops a run after the events it is compared on."""

        def states(strategy, b, ordering, events):
            """The learner's state at each of the run's first events."""
            seen = []

            def evaluate(model, x, labels):
                if len(seen) == events:
                    raise Enough
                seen.append(np.concatenate([model.theta, *model.bn_mean, *model.bn_var]))
                return evaluate_accuracy(model, x, labels)

            monkeypatch.setattr(protocol, "evaluate_accuracy", evaluate)
            with suppress(Enough):
                execute_run(ds, RunConfig(strategy, b, ordering, mlp, eval_every=1))
            return [state.tobytes() for state in seen]

        for kind in ORDERING_KINDS:
            ordering = StreamOrdering(kind, 2)
            full = states("full", 0, ordering, len(y))
            # rank[t - 1]: how many samples of its class the stream has shown by t
            labels = y[order_stream(ds, ordering)]
            rank = [np.count_nonzero(labels[:t] == c) for t, c in enumerate(labels, start=1)]
            for strategy in BOUNDED_STRATEGIES:
                for b in (2, 4, 8):
                    passes = 2 * b if strategy == "clustream" else b + 1
                    events = rank.index(passes)  # the events before the pool is passed
                    got = states(strategy, b, ordering, events)
                    differ = [t for t, (a, want) in enumerate(zip(got, full), start=1)
                              if a != want]
                    assert len(got) == events and not differ, \
                        f"{strategy} b={b} on {kind} leaves full's run at t={differ[:1]}"


class TestBaselineAndExecute:
    def test_offline_baseline_constant_curve(self):
        ds = stream_dataset()
        cfg = stream_config("full", 0, eval_every=100, learning_rate=0.05)
        curve, accuracy = run_offline_baseline(ds, cfg, epochs=5)
        assert curve.times.tolist() == [100, 200, 300, 400]
        np.testing.assert_array_equal(curve.values, np.full(4, accuracy))

    def test_execute_run_reports_cost_and_time(self):
        ds = stream_dataset()
        result = execute_run(ds, stream_config("queue", 8, eval_every=200))
        assert result.memory_cost == 16  # two classes, eight vectors each
        assert result.wall_clock_s > 0
        assert result.curve.num_events == 2

    def test_execute_run_no_buffer_costs_nothing(self):
        ds = stream_dataset()
        result = execute_run(ds, stream_config("no_buffer", 0, eval_every=400))
        assert result.memory_cost == 0

    def test_execute_run_clustream_counts_cluster_units(self):
        ds = stream_dataset()
        result = execute_run(ds, stream_config("clustream", 4, eval_every=400))
        assert result.memory_cost == 16  # 2 classes x 4 clusters x 2 units
