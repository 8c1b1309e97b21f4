"""Fully connected softmax classifier trained with plain SGD.

Hidden blocks run affine -> batch norm -> activation -> dropout; the head
is a single affine into a softmax. Everything is numpy in float64 and
deterministic under the config seed. Batch norm keeps running statistics
with momentum 0.9 and falls back to them for batch-size-1 training steps,
where batch variance would be zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError, require_int

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
ACTIVATIONS = ("relu", "elu")


@dataclass(frozen=True)
class MLPConfig:
    """Architecture and optimizer settings.

    dropout_keep is the keep probability (1.0 disables dropout);
    weight_decay is the L2 coefficient of the SGD step, applied as
    w <- (1 - lr * weight_decay) * w - lr * grad on weight matrices only.
    """

    layer_sizes: tuple[int, ...] = ()
    activation: str = "relu"
    dropout_keep: float = 1.0
    weight_decay: float = 0.0
    learning_rate: float = 0.01
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes",
                           tuple(require_int(w, "layer_sizes entry") for w in self.layer_sizes))
        object.__setattr__(self, "batch_size", require_int(self.batch_size, "batch_size"))
        object.__setattr__(self, "seed", require_int(self.seed, "seed"))
        if any(w < 1 for w in self.layer_sizes):
            raise UsageError("hidden widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise UsageError("dropout_keep must be in (0, 1]")
        if self.weight_decay < 0:
            raise UsageError("weight_decay must be non-negative")
        if self.learning_rate < 0:
            raise UsageError("learning_rate must be non-negative")
        if self.batch_size < 1:
            raise UsageError("batch_size must be at least 1")


class MLPClassifier:
    """Multinomial MLP with explicit forward/backward passes.

    Weights use He-style fan-in initialization, biases start at zero,
    batch-norm scale/shift at one/zero with running stats (0, 1). Two
    independent seeded generators cover initialization and dropout.
    """

    def __init__(self, config: MLPConfig, dim: int, num_classes: int):
        if dim < 1 or num_classes < 2:
            raise UsageError("need dim >= 1 and num_classes >= 2")
        self.config = config
        self.dim = dim
        self.num_classes = num_classes
        init_rng = np.random.default_rng([config.seed, 0])
        self.rng = np.random.default_rng([config.seed, 1])

        sizes = [dim, *config.layer_sizes, num_classes]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(init_rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))
        # train_minibatch writes its weight gradients here, step after step
        self._w_grads = [np.empty_like(w) for w in self.weights]
        hidden = list(config.layer_sizes)
        self.bn_scale = [np.ones(h) for h in hidden]
        self.bn_shift = [np.zeros(h) for h in hidden]
        self.bn_mean = [np.zeros(h) for h in hidden]
        self.bn_var = [np.ones(h) for h in hidden]

    @property
    def num_hidden(self):
        return len(self.config.layer_sizes)

    # -- forward -------------------------------------------------------

    def forward(self, inputs) -> np.ndarray:
        """Class probability rows for a (m, dim) batch: batch norm uses its
        running statistics, no dropout is applied, and nothing is drawn
        from the model's generator."""
        log_probs, _, _ = self._forward(self._check_inputs(inputs), False, None)
        return np.exp(log_probs)

    def predict(self, inputs) -> np.ndarray:
        """Arg-max class per row of forward(inputs); ties go to the lowest index."""
        return np.argmax(self.forward(inputs), axis=1)

    def _check_inputs(self, inputs):
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise UsageError(f"inputs must be (m, {self.dim}), got {x.shape}")
        return x

    def _forward(self, x, train, dropout_rng):
        """Returns (log-probabilities, caches, batch stats). caches[i] is a
        tuple that starts with the input of layer i; hidden layers add
        (zhat, inv, u, a, mask). Batch stats are (mean, var) per hidden layer,
        empty when running statistics were used. Dropout masks are drawn
        from dropout_rng when one is given."""
        keep = self.config.dropout_keep
        use_batch_stats = train and len(x) >= 2
        h = x
        caches = []
        stats = []
        # the isfinite checks below turn numeric blowups into NumericError,
        # so numpy's intermediate inf/nan warnings are suppressed
        with np.errstate(invalid="ignore", over="ignore"):
            for i in range(self.num_hidden):
                z = h @ self.weights[i] + self.biases[i]
                if use_batch_stats:
                    mu = z.mean(axis=0)
                    var = z.var(axis=0)
                    stats.append((mu, var))
                else:
                    mu = self.bn_mean[i]
                    var = self.bn_var[i]
                inv = 1.0 / np.sqrt(var + BN_EPS)
                zhat = (z - mu) * inv
                u = self.bn_scale[i] * zhat + self.bn_shift[i]
                a = self._activate(u)
                if dropout_rng is not None:
                    mask = (dropout_rng.random(a.shape) < keep) / keep
                    out = a * mask
                else:
                    mask = None
                    out = a
                if not np.isfinite(out).all():
                    raise NumericError(f"non-finite activation in hidden layer {i}")
                caches.append((h, zhat, inv, u, a, mask))
                h = out
            logits = h @ self.weights[-1] + self.biases[-1]
            if not np.isfinite(logits).all():
                raise NumericError("non-finite logits in output layer")
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            log_probs = shifted - log_z
        caches.append((h,))
        return log_probs, caches, stats

    def _activate(self, u):
        if self.config.activation == "relu":
            return np.maximum(u, 0.0)
        return np.where(u > 0, u, np.expm1(u))  # elu, alpha = 1

    def _activate_grad(self, u, a):
        if self.config.activation == "relu":
            return (u > 0).astype(np.float64)
        return np.where(u > 0, 1.0, a + 1.0)

    # -- training ------------------------------------------------------

    def loss_and_gradients(self, inputs, labels, dropout_rng=None):
        """Cross-entropy loss plus gradients for every parameter.

        Pure: parameters and running statistics are untouched. Returns
        (loss, grads dict keyed like named_parameters, batch_stats list).
        """
        x, y = self._check_batch(inputs, labels)
        return self._gradients(x, y, dropout_rng, 1.0,
                               [np.empty_like(w) for w in self.weights])

    def _check_batch(self, inputs, labels):
        x = self._check_inputs(inputs)
        y = np.asarray(labels, dtype=np.int64).ravel()
        if len(y) != len(x) or len(x) == 0:
            raise UsageError("labels must match a non-empty batch")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise UsageError("label outside [0, num_classes)")
        return x, y

    def _gradients(self, x, y, dropout_rng, scale, w_grads):
        """loss_and_gradients on a checked batch, each gradient times scale
        (folded into the head error), weight gradient i written to w_grads[i]."""
        m = len(x)
        log_probs, caches, stats = self._forward(x, True, dropout_rng)
        loss = float(-log_probs[np.arange(m), y].mean())
        if not np.isfinite(loss):
            raise NumericError("non-finite training loss")

        grads = {}
        dz = np.exp(log_probs)
        dz[np.arange(m), y] -= 1.0
        dz /= m
        dz *= scale
        for i in range(self.num_hidden, -1, -1):
            if i < self.num_hidden:
                _, zhat, inv, u, a, mask = caches[i]
                if mask is not None:
                    dh *= mask
                du = dh * self._activate_grad(u, a)
                grads[f"bn_scale{i}"] = (du * zhat).sum(axis=0)
                grads[f"bn_shift{i}"] = du.sum(axis=0)
                dzhat = du * self.bn_scale[i]
                if stats:
                    dz = (inv / m) * (m * dzhat - dzhat.sum(axis=0)
                                      - zhat * (dzhat * zhat).sum(axis=0))
                else:
                    dz = dzhat * inv
            h = caches[i][0]
            if m == 1:  # an outer product; matmul takes no BLAS path for it
                grads[f"w{i}"] = np.einsum("i,j->ij", h[0], dz[0], out=w_grads[i])
            else:
                grads[f"w{i}"] = np.matmul(h.T, dz, out=w_grads[i])
            grads[f"b{i}"] = dz.sum(axis=0)
            if i > 0:  # nothing reads the gradient of the network input
                dh = dz @ self.weights[i].T
        return loss, grads, stats

    def train_minibatch(self, inputs, labels) -> float:
        """One in-place SGD step, w <- (1 - lr*wd)*w - lr*grad, with the weight
        gradients in reused buffers; returns the pre-update loss."""
        x, y = self._check_batch(inputs, labels)
        lr = self.config.learning_rate
        wd = self.config.weight_decay
        rng = self.rng if self.config.dropout_keep < 1.0 else None
        loss, steps, stats = self._gradients(x, y, rng, lr, self._w_grads)
        if wd:
            for w in self.weights:
                w *= 1.0 - lr * wd
        for name, param in self.named_parameters():
            param -= steps[name]
        for i, (mu, var) in enumerate(stats):
            self.bn_mean[i] = BN_MOMENTUM * self.bn_mean[i] + (1.0 - BN_MOMENTUM) * mu
            self.bn_var[i] = BN_MOMENTUM * self.bn_var[i] + (1.0 - BN_MOMENTUM) * var
        return loss

    def named_parameters(self):
        """(name, array) pairs; arrays are live references."""
        out = []
        for i, w in enumerate(self.weights):
            out.append((f"w{i}", w))
        for i, b in enumerate(self.biases):
            out.append((f"b{i}", b))
        for i in range(self.num_hidden):
            out.append((f"bn_scale{i}", self.bn_scale[i]))
            out.append((f"bn_shift{i}", self.bn_shift[i]))
        return out


def evaluate_accuracy(model: MLPClassifier, inputs, labels) -> float:
    """Fraction of arg-max predictions matching labels."""
    x = np.asarray(inputs)
    y = np.asarray(labels, dtype=np.int64).ravel()
    if len(x) == 0 or len(x) != len(y):
        raise UsageError("evaluation needs a non-empty, aligned test set")
    return float((model.predict(x) == y).mean())


def minibatch_slices(total: int, batch_size: int):
    """Consecutive index ranges covering [0, total) in chunks of
    min(batch_size, total); the final chunk may be smaller."""
    if total < 1:
        return []
    size = min(batch_size, total)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def train_epoch(model: MLPClassifier, x, y, rng: np.random.Generator) -> None:
    """One pass over (x, y) in an order drawn from rng, split by
    minibatch_slices, so each row receives exactly one gradient step."""
    perm = rng.permutation(len(x))
    for lo, hi in minibatch_slices(len(x), model.config.batch_size):
        chunk = perm[lo:hi]
        model.train_minibatch(x[chunk], y[chunk])


def fit_offline(model: MLPClassifier, dataset, epochs: int) -> tuple[MLPClassifier, float]:
    """Multi-epoch minibatch SGD over the train split with a seeded
    reshuffle per epoch; returns the model and its final test accuracy."""
    if epochs < 1:
        raise UsageError("epochs must be at least 1")
    x, y = dataset.train_arrays()
    xt, yt = dataset.test_arrays()
    if len(x) == 0:
        raise UsageError("cannot fit on an empty train split")
    rng = np.random.default_rng([model.config.seed, 2])
    for _ in range(epochs):
        train_epoch(model, x, y, rng)
    return model, evaluate_accuracy(model, xt, yt)
