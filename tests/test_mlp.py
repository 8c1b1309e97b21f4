"""Classifier internals: initialization, forward, gradients, training steps."""

import tracemalloc

import numpy as np
import pytest

from protostream import (Dataset, MLPClassifier, MLPConfig, NumericError, UsageError,
                         evaluate_accuracy, fit_offline, synth_gaussian,
                         SynthSpec)
from protostream.mlp import BN_MOMENTUM, log_softmax, train_epochs


def small_model(layer_sizes=(4,), dim=5, num_classes=3, **kw):
    kw.setdefault("learning_rate", 0.1)
    kw.setdefault("batch_size", 8)
    kw.setdefault("seed", 0)
    return MLPClassifier(MLPConfig(layer_sizes=layer_sizes, **kw), dim, num_classes)


def apply_gradients(model, grads):
    """The reference SGD step, w <- w - lr * (g + weight_decay * w), with
    the decay term on weight matrices only; grads is not modified."""
    lr = model.config.learning_rate
    wd = model.config.weight_decay
    for i, w in enumerate(model.weights):
        step = grads[f"w{i}"] + wd * w
        step *= lr
        w -= step
    for i, b in enumerate(model.biases):
        b -= lr * grads[f"b{i}"]
    for i in range(model.num_hidden):
        model.bn_scale[i] -= lr * grads[f"bn_scale{i}"]
        model.bn_shift[i] -= lr * grads[f"bn_shift{i}"]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(UsageError):
            MLPConfig(activation="tanh")
        with pytest.raises(UsageError):
            MLPConfig(dropout_keep=0.0)
        with pytest.raises(UsageError):
            MLPConfig(dropout_keep=1.5)
        with pytest.raises(UsageError):
            MLPConfig(learning_rate=-0.1)
        with pytest.raises(UsageError):
            MLPConfig(batch_size=0)
        with pytest.raises(UsageError):
            MLPConfig(weight_decay=-1e-6)
        for field, value in (("layer_sizes", [2.7]), ("layer_sizes", [True]),
                             ("layer_sizes", ["8"]), ("batch_size", 2.5),
                             ("batch_size", 8.0), ("batch_size", "8"),
                             ("seed", 1.5), ("seed", True), ("seed", -1)):
            with pytest.raises(UsageError, match=field):
                MLPConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "dropout_keep"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       True, "0.1", None])
    def test_rejects_non_finite_or_non_real(self, field, value):
        with pytest.raises(UsageError, match=field):
            MLPConfig(**{field: value})

    def test_numpy_reals_accepted(self):
        config = MLPConfig(learning_rate=np.float32(0.5), weight_decay=np.float64(0.01),
                           dropout_keep=1)
        assert (config.learning_rate, config.weight_decay, config.dropout_keep) == (
            0.5, 0.01, 1.0)
        assert type(config.learning_rate) is float and type(config.dropout_keep) is float

    def test_numpy_integers_accepted(self):
        config = MLPConfig(layer_sizes=np.array([4, 3]), batch_size=np.int64(8),
                           seed=np.int32(2))
        assert config.layer_sizes == (4, 3) and type(config.layer_sizes[0]) is int
        assert type(config.batch_size) is int and type(config.seed) is int

    def test_zero_learning_rate_allowed(self):
        assert MLPConfig(learning_rate=0.0).learning_rate == 0.0

    def test_layer_sizes_coerced_to_tuple(self):
        assert MLPConfig(layer_sizes=[30, 20]).layer_sizes == (30, 20)


class TestInitialization:
    def test_shapes_for_wide_network(self):
        model = MLPClassifier(MLPConfig(layer_sizes=(300, 150, 100)), 2048, 10)
        assert [w.shape for w in model.weights] == [
            (2048, 300), (300, 150), (150, 100), (100, 10)]
        assert [b.shape for b in model.biases] == [(300,), (150,), (100,), (10,)]
        assert [s.shape for s in model.bn_scale] == [(300,), (150,), (100,)]
        x = np.random.default_rng(0).standard_normal((6, 2048))
        probs = model.forward(x)
        assert probs.shape == (6, 10)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    def test_same_seed_same_weights(self):
        a, b = small_model(seed=3), small_model(seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa, pb)
        c = small_model(seed=4)
        assert any(not np.array_equal(pa, pc)
                   for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters()))

    def test_no_hidden_layers_is_plain_softmax_regression(self):
        model = small_model(layer_sizes=())
        assert len(model.weights) == 1 and model.num_hidden == 0
        x = np.zeros((2, 5))
        probs = model.forward(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zeroed_output_layer_gives_exact_uniform(self):
        model = small_model(layer_sizes=(), num_classes=4)
        model.weights[0][:] = 0.0
        probs = model.forward(np.ones((3, 5)))
        np.testing.assert_array_equal(probs, np.full((3, 4), 0.25))

    def test_he_scale(self):
        model = MLPClassifier(MLPConfig(layer_sizes=(512,), seed=0), 1024, 2)
        std = model.weights[0].std()
        np.testing.assert_allclose(std, np.sqrt(2.0 / 1024), rtol=0.05)

    def test_tiny_dimensions_rejected(self):
        with pytest.raises(UsageError):
            MLPClassifier(MLPConfig(), 0, 3)
        with pytest.raises(UsageError):
            MLPClassifier(MLPConfig(), 5, 1)


class TestForward:
    def test_eval_is_deterministic_with_dropout_configured(self):
        model = small_model(dropout_keep=0.5)
        x = np.random.default_rng(1).standard_normal((4, 5))
        np.testing.assert_array_equal(model.forward(x), model.forward(x))

    def test_train_dropout_draws_fresh_masks(self):
        model = small_model(layer_sizes=(64,), dropout_keep=0.5)
        x = np.random.default_rng(1).standard_normal((4, 5))
        y = np.array([0, 1, 2, 0])
        loss_a, grads_a, _ = model.loss_and_gradients(x, y, dropout_rng=model.rng)
        loss_b, grads_b, _ = model.loss_and_gradients(x, y, dropout_rng=model.rng)
        assert loss_a != loss_b
        assert not np.array_equal(grads_a["w1"], grads_b["w1"])

    def test_bad_mode_and_bad_shape(self):
        model = small_model()
        with pytest.raises(UsageError, match="inputs"):
            model.forward(np.zeros((2, 4)))

    def test_non_finite_input_raises(self):
        model = small_model()
        bad = np.zeros((2, 5))
        bad[0, 0] = np.inf
        with pytest.raises(NumericError):
            model.forward(bad)

    def test_argmax_tie_goes_to_lowest_class(self):
        model = small_model(layer_sizes=(), num_classes=4)
        model.weights[0][:] = 0.0
        preds = model.predict(np.ones((3, 5)))
        np.testing.assert_array_equal(preds, [0, 0, 0])


class TestPredict:
    @pytest.mark.parametrize("layer_sizes", [(), (6,), (6, 4)],
                             ids=["no_hidden", "one_hidden", "two_hidden"])
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_is_argmax_of_forward(self, layer_sizes, activation):
        """After a few steps, so batch norm runs on statistics other than
        its initial (0, 1)."""
        model = small_model(layer_sizes, activation=activation, dropout_keep=0.8)
        rng = np.random.default_rng(13)
        for m in (8, 1, 5, 8):
            model.train_minibatch(rng.standard_normal((m, 5)), rng.integers(3, size=m))
        for mean, var in zip(model.bn_mean, model.bn_var):
            assert (mean != 0).all() and (var != 1).all()
        x = rng.standard_normal((200, 5)) * 3
        np.testing.assert_array_equal(model.predict(x), np.argmax(model.forward(x), axis=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("layer, where", [(0, "hidden layer 0"), (1, "hidden layer 1"),
                                              (2, "output layer")])
    def test_non_finite_weight_raises(self, layer, where, value):
        model = small_model((4, 3))
        model.weights[layer][0, 0] = value
        with pytest.raises(NumericError, match=where):
            model.predict(np.ones((3, 5)))


def central_difference_error(model, x, y, dropout_seed=None):
    """Worst relative gap between loss_and_gradients and central differences
    (eps 1e-6) over every parameter entry. With dropout_seed, each loss is
    evaluated under the dropout masks of a generator freshly seeded with it.
    For relu, every activation input of the batch must lie further from the
    kink at 0 than an eps-perturbation can move it. Every parameter must get
    a non-zero gradient somewhere, so that no layer is checked vacuously."""
    def masks():
        return None if dropout_seed is None else np.random.default_rng(dropout_seed)

    def loss_grads():
        loss, grads, _ = model.loss_and_gradients(x, y, dropout_rng=masks())
        return loss, grads
    if model.config.activation == "relu":
        _, caches, _ = model._forward(np.asarray(x, dtype=np.float64), True, masks())
        for i, cache in enumerate(caches[:-1]):
            u = cache[1] * model.bn_scale[i] + model.bn_shift[i]
            assert np.abs(u).min() > 1e-3, f"hidden layer {i} input near the relu kink"
    _, grads = loss_grads()
    for name, g in grads.items():
        assert np.any(g), f"{name} has an all-zero gradient"
    eps = 1e-6
    worst = 0.0
    for name, param in model.named_parameters():
        flat = param.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up, _ = loss_grads()
            flat[idx] = keep - eps
            dn, _ = loss_grads()
            flat[idx] = keep
            num = (up - dn) / (2 * eps)
            ana = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(num - ana) / max(1.0, abs(num) + abs(ana)))
    return worst


class TestGradients:
    @pytest.mark.parametrize("layer_sizes", [(), (4,), (4, 3)],
                             ids=["no_hidden", "one_hidden", "two_hidden"])
    def test_central_difference_check(self, layer_sizes):
        """Analytic gradients match central differences on a smooth net
        with zero, one and two hidden layers."""
        model = small_model(layer_sizes, activation="elu", dropout_keep=1.0,
                            weight_decay=0.0)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 5))
        y = rng.integers(3, size=8)
        assert central_difference_error(model, x, y) < 1e-5

    @pytest.mark.parametrize("layer_sizes", [(4,), (4, 3)],
                             ids=["one_hidden", "two_hidden"])
    def test_central_difference_check_relu(self, layer_sizes):
        """relu on a batch whose activation inputs stay clear of the kink."""
        model = small_model(layer_sizes, activation="relu")
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 5))
        y = rng.integers(3, size=8)
        assert central_difference_error(model, x, y) < 1e-5

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_central_difference_check_batch_of_one(self, activation):
        """A single row: batch norm runs on its running statistics (moved
        off (0, 1) by two steps first) and the weight gradient is an outer
        product."""
        model = small_model((4, 3), activation=activation)
        rng = np.random.default_rng(10)
        for _ in range(2):
            model.train_minibatch(rng.standard_normal((6, 5)), rng.integers(3, size=6))
        x = rng.standard_normal((1, 5))
        assert central_difference_error(model, x, [2]) < 1e-5

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_central_difference_check_fixed_dropout_mask(self, activation):
        model = small_model((4, 3), activation=activation, dropout_keep=0.6)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 5))
        y = rng.integers(3, size=8)
        assert central_difference_error(model, x, y, dropout_seed=21) < 1e-5

    def test_loss_and_gradients_is_pure(self):
        model = small_model()
        x = np.random.default_rng(2).standard_normal((6, 5))
        y = np.array([0, 1, 2, 0, 1, 2])
        before = [p.copy() for _, p in model.named_parameters()]
        stats_before = [s.copy() for s in model.bn_mean + model.bn_var]
        model.loss_and_gradients(x, y)
        for old, (_, new) in zip(before, model.named_parameters()):
            np.testing.assert_array_equal(old, new)
        for old, new in zip(stats_before, model.bn_mean + model.bn_var):
            np.testing.assert_array_equal(old, new)

    def test_label_validation(self):
        model = small_model()
        x = np.zeros((2, 5))
        with pytest.raises(UsageError):
            model.loss_and_gradients(x, [0])
        with pytest.raises(UsageError):
            model.loss_and_gradients(x, [0, 3])
        with pytest.raises(UsageError):
            model.loss_and_gradients(np.zeros((0, 5)), [])


class TestTraining:
    def test_zero_learning_rate_is_parameter_noop(self):
        model = small_model(learning_rate=0.0)
        x = np.random.default_rng(3).standard_normal((4, 5))
        y = np.array([0, 1, 2, 0])
        before = [p.copy() for _, p in model.named_parameters()]
        model.train_minibatch(x, y)
        for old, (_, new) in zip(before, model.named_parameters()):
            np.testing.assert_array_equal(old, new)

    def test_weight_decay_shrinks_weights_only(self):
        """One step with and one without decay, from the same weights and
        batch: they differ by lr * wd * w0 on the weights and not at all
        elsewhere."""
        decayed = small_model(learning_rate=0.5, weight_decay=0.1)
        plain = small_model(learning_rate=0.5)
        w0 = [w.copy() for w in plain.weights]
        x = np.random.default_rng(6).standard_normal((4, 5))
        y = np.array([0, 1, 2, 0])
        decayed.train_minibatch(x, y)
        plain.train_minibatch(x, y)
        for old, a, b in zip(w0, plain.weights, decayed.weights):
            np.testing.assert_allclose(a - b, 0.5 * 0.1 * old, rtol=0, atol=1e-14)
        for name in ("b0", "b1", "bn_scale0", "bn_shift0"):
            np.testing.assert_array_equal(dict(plain.named_parameters())[name],
                                          dict(decayed.named_parameters())[name])

    def test_single_sample_uses_running_stats_without_update(self):
        model = small_model()
        mean_before = [m.copy() for m in model.bn_mean]
        var_before = [v.copy() for v in model.bn_var]
        w_before = model.weights[0].copy()
        model.train_minibatch(np.ones((1, 5)), [1])
        for old, new in zip(mean_before, model.bn_mean):
            np.testing.assert_array_equal(old, new)
        for old, new in zip(var_before, model.bn_var):
            np.testing.assert_array_equal(old, new)
        assert not np.array_equal(w_before, model.weights[0])

    def test_batch_updates_running_stats_by_momentum(self):
        model = small_model()
        x = np.random.default_rng(4).standard_normal((6, 5))
        z = x @ model.weights[0] + model.biases[0]
        want_mean = BN_MOMENTUM * model.bn_mean[0] + (1 - BN_MOMENTUM) * z.mean(axis=0)
        want_var = BN_MOMENTUM * model.bn_var[0] + (1 - BN_MOMENTUM) * z.var(axis=0)
        model.train_minibatch(x, [0, 1, 2, 0, 1, 2])
        np.testing.assert_allclose(model.bn_mean[0], want_mean, rtol=1e-12)
        np.testing.assert_allclose(model.bn_var[0], want_var, rtol=1e-12)

    def test_overfits_one_sample(self):
        model = small_model(layer_sizes=(16,), learning_rate=0.1)
        x = np.full((1, 5), 0.3)
        for _ in range(200):
            model.train_minibatch(x, [2])
        prob = model.forward(x)[0, 2]
        assert prob > 0.99

    def test_loss_decreases_on_separable_data(self):
        ds = synth_gaussian(SynthSpec(3, 6, 30, 9, class_mean_separation=8.0, seed=0))
        x, y = ds.train_arrays()
        model = MLPClassifier(MLPConfig(layer_sizes=(16,), learning_rate=0.1,
                                        batch_size=32, seed=1), 6, 3)
        first = model.train_minibatch(x, y)
        for _ in range(30):
            last = model.train_minibatch(x, y)
        assert last < first / 2


class TestLogSoftmax:
    """The row maximum and the label pick take faster routes than the plain
    formula; both must give the plain formula's bits."""

    @staticmethod
    def plain(logits):
        shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
        return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))

    def test_equals_plain_formula(self):
        rng = np.random.default_rng(31)
        for m, k in ((1, 2), (7, 3), (256, 8), (33, 10)):
            for logits in (rng.standard_normal((m, k)) * 5,
                           np.round(rng.standard_normal((m, k))),  # ties and zeros
                           -np.zeros((m, k))):
                assert log_softmax(logits).tobytes() == self.plain(logits).tobytes()

    def test_loss_and_head_gradient_use_two_dimensional_pick(self):
        model = small_model(layer_sizes=(), num_classes=4)
        rng = np.random.default_rng(32)
        x = rng.standard_normal((9, 5))
        y = rng.integers(4, size=9)
        loss, grads, _ = model.loss_and_gradients(x, y)
        log_probs = self.plain(x @ model.weights[0] + model.biases[0])
        rows = np.arange(9)
        assert loss == -float(np.add.reduce(log_probs[rows, y]) / 9)
        dz = np.exp(log_probs)
        dz[rows, y] -= 1.0
        dz /= 9
        assert grads["w0"].tobytes() == (x.T @ dz).tobytes()
        assert grads["b0"].tobytes() == np.add.reduce(dz, axis=0).tobytes()


class TestInPlaceStep:
    """train_minibatch steps theta in place with a step vector it reuses;
    the reference step is loss_and_gradients followed by this module's
    apply_gradients."""

    @pytest.mark.parametrize("layer_sizes", [(), (6,), (6, 4)],
                             ids=["no_hidden", "one_hidden", "two_hidden"])
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("dropout_keep", [1.0, 0.7])
    def test_matches_reference_step(self, layer_sizes, activation, dropout_keep):
        kw = dict(layer_sizes=layer_sizes, activation=activation,
                  dropout_keep=dropout_keep, weight_decay=0.01)
        fast, ref = small_model(**kw), small_model(**kw)
        rng = np.random.default_rng(11)
        for m in (4, 1, 7, 1, 2):
            x = rng.standard_normal((m, 5))
            y = rng.integers(3, size=m)
            masks = None
            if dropout_keep < 1.0:
                masks = np.random.default_rng()
                masks.bit_generator.state = fast.rng.bit_generator.state
            fast.train_minibatch(x, y)
            _, grads, stats = ref.loss_and_gradients(x, y, dropout_rng=masks)
            apply_gradients(ref, grads)
            for i, (mu, var) in enumerate(stats):
                ref.bn_mean[i] = BN_MOMENTUM * ref.bn_mean[i] + (1 - BN_MOMENTUM) * mu
                ref.bn_var[i] = BN_MOMENTUM * ref.bn_var[i] + (1 - BN_MOMENTUM) * var
        for (name, a), (_, b) in zip(fast.named_parameters(), ref.named_parameters()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
        for a, b in zip(fast.bn_mean + fast.bn_var, ref.bn_mean + ref.bn_var):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_step_allocates_nothing_weight_sized(self, m):
        model = MLPClassifier(MLPConfig(layer_sizes=(256, 32), dropout_keep=0.5,
                                        weight_decay=0.01), 512, 10)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((m, 512))
        y = rng.integers(10, size=m)
        model.train_minibatch(x, y)  # warm-up
        tracemalloc.start()
        try:
            model.train_minibatch(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.weights[0].nbytes


class TestParameterLayout:
    @pytest.mark.parametrize("layer_sizes, names", [
        ((), ["w0", "b0"]),
        ((4,), ["w0", "w1", "b0", "b1", "bn_scale0", "bn_shift0"]),
        ((4, 3), ["w0", "w1", "w2", "b0", "b1", "b2",
                  "bn_scale0", "bn_shift0", "bn_scale1", "bn_shift1"]),
    ], ids=["no_hidden", "one_hidden", "two_hidden"])
    def test_named_parameters_tile_theta_in_order(self, layer_sizes, names):
        model = small_model(layer_sizes)
        named = model.named_parameters()
        assert [name for name, _ in named] == names
        start = model.theta.ctypes.data
        offset = 0
        for name, p in named:
            assert np.shares_memory(p, model.theta), name
            assert p.ctypes.data - start == offset * p.itemsize, name
            offset += p.size
        assert offset == model.theta.size

    def test_writes_through_a_weight_show_everywhere(self):
        model = small_model((4,))
        model.weights[0][1, 2] = 7.5
        assert dict(model.named_parameters())["w0"][1, 2] == 7.5
        assert model.theta[1 * 4 + 2] == 7.5

    def test_gradients_share_no_memory_with_the_model(self):
        model = small_model((4, 3), dropout_keep=0.7, weight_decay=0.01)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 5))
        y = rng.integers(3, size=6)
        model.train_minibatch(x, y)
        _, grads, _ = model.loss_and_gradients(x, y)
        assert list(grads) == [name for name, _ in model.named_parameters()]
        for name, g in grads.items():
            assert not np.shares_memory(g, model.theta), name
            assert not np.shares_memory(g, model._step), name

    def test_running_statistics_update_in_place(self):
        model = small_model((4, 3))
        stats = model.bn_mean + model.bn_var
        before = [s.copy() for s in stats]
        rng = np.random.default_rng(15)
        model.train_minibatch(rng.standard_normal((6, 5)), rng.integers(3, size=6))
        for old, kept, new in zip(before, stats, model.bn_mean + model.bn_var):
            assert kept is new
            assert not np.array_equal(old, new)


class TestTrainEpochs:
    """One train_epochs pass feeds train_minibatch the rows of its
    permutation in full chunks of batch_size, then the partial tail."""

    @pytest.mark.parametrize("n, sizes", [(103, [9] * 11 + [4]), (5, [5])],
                             ids=["partial_tail", "single_chunk"])
    @pytest.mark.parametrize("indexed", [False, True], ids=["all_rows", "index"])
    @pytest.mark.parametrize("layer_sizes", [(), (6,), (6, 4)],
                             ids=["no_hidden", "one_hidden", "two_hidden"])
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_equals_minibatches_by_hand(self, n, sizes, indexed, layer_sizes, activation):
        kw = dict(layer_sizes=layer_sizes, activation=activation, dropout_keep=0.7,
                  weight_decay=0.01, batch_size=9)
        looped, by_hand = small_model(**kw), small_model(**kw)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2 * n + 3, 5))
        y = rng.integers(3, size=n)
        index = rng.permutation(len(x))[:n] if indexed else None
        rows = x if index is None else x[index]

        fed = []
        step = looped.train_minibatch

        def spy(inputs, labels):
            fed.append(inputs.copy())  # train_epochs reuses its row array
            return step(inputs, labels)

        looped.train_minibatch = spy
        train_epochs(looped, x, y, np.random.default_rng(17), 1, index)
        perm = np.random.default_rng(17).permutation(n)
        assert [len(batch) for batch in fed] == sizes
        np.testing.assert_array_equal(np.concatenate(fed), rows[perm])  # each row once

        for chunk in np.split(perm, np.cumsum(sizes)[:-1]):
            by_hand.train_minibatch(rows[chunk], y[chunk])
        assert looped.theta.tobytes() == by_hand.theta.tobytes()
        for a, b in zip(looped.bn_mean + looped.bn_var, by_hand.bn_mean + by_hand.bn_var):
            assert a.tobytes() == b.tobytes()
        assert looped.rng.bit_generator.state == by_hand.rng.bit_generator.state


class TestEvaluateAccuracy:
    def test_counts_argmax_matches(self):
        model = small_model(layer_sizes=(), num_classes=4)
        model.weights[0][:] = 0.0  # uniform probabilities, predicts class 0
        acc = evaluate_accuracy(model, np.ones((4, 5)), [0, 0, 1, 2])
        assert acc == 0.5

    def test_draws_nothing_from_the_dropout_generator(self):
        """Evaluation runs between training steps, so a stray draw would
        change every later dropout mask."""
        model = small_model(layer_sizes=(8,), dropout_keep=0.5)
        x = np.random.default_rng(8).standard_normal((6, 5))
        before = model.rng.bit_generator.state
        evaluate_accuracy(model, x, [0, 1, 2, 0, 1, 2])
        model.predict(x)
        assert model.rng.bit_generator.state == before

    def test_rejects_empty_or_misaligned(self):
        model = small_model()
        with pytest.raises(UsageError):
            evaluate_accuracy(model, np.zeros((0, 5)), [])
        with pytest.raises(UsageError):
            evaluate_accuracy(model, np.zeros((2, 5)), [0])


class TestFitOffline:
    def test_rejects_zero_epochs(self):
        ds = synth_gaussian(SynthSpec(2, 4, 8, 4, seed=0))
        model = small_model(dim=4, num_classes=2)
        with pytest.raises(UsageError):
            fit_offline(model, ds, epochs=0)

    def test_rejects_empty_train_split(self):
        """train_epochs needs a row; fit_offline checks for one first."""
        ds = synth_gaussian(SynthSpec(2, 4, 8, 4, seed=0))
        empty = Dataset([], ds.test, ds.num_classes, ds.dim, "empty")
        with pytest.raises(UsageError, match="empty train split"):
            fit_offline(small_model(dim=4, num_classes=2), empty, epochs=1)

    def test_deterministic(self):
        ds = synth_gaussian(SynthSpec(2, 4, 24, 8, seed=1))
        def run():
            model = MLPClassifier(MLPConfig(layer_sizes=(8,), learning_rate=0.05,
                                            batch_size=8, seed=2), 4, 2)
            fit_offline(model, ds, epochs=3)
            return [p.copy() for _, p in model.named_parameters()]
        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)
