"""Single-pass streaming runs: buffer update, rehearsal step, periodic
evaluation; and the offline baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .buffers import BOUNDED_STRATEGIES, BufferManager, STRATEGIES, check_capacity
from .data import Dataset, StreamOrdering, order_stream
from .errors import UsageError, require_int, require_seed
from .metrics import AccuracyCurve, event_times
from .mlp import MLPClassifier, MLPConfig, evaluate_accuracy, fit_offline, train_epochs

METHODS = STRATEGIES + ("no_buffer",)


@dataclass
class RunConfig:
    """One streaming run: buffer strategy and size, stream ordering,
    learner settings, evaluation stride, and the buffer RNG seed.

    The three seeds of a run live in ordering.seed (stream shuffle),
    mlp.seed (init, dropout, rehearsal shuffle) and buffer_seed
    (reservoir draws and k-means initialization).
    """

    strategy: str
    buffer_size: int
    ordering: StreamOrdering
    mlp: MLPConfig
    eval_every: int = 1
    buffer_seed: int = 0
    dataset_name: str = ""

    def __post_init__(self):
        self.buffer_size = require_int(self.buffer_size, "buffer_size")
        self.eval_every = require_int(self.eval_every, "eval_every")
        self.buffer_seed = require_seed(self.buffer_seed, "buffer_seed")
        if self.strategy not in METHODS:
            raise UsageError(f"unknown strategy {self.strategy!r}; expected one of {METHODS}")
        if self.eval_every < 1:
            raise UsageError("eval_every must be at least 1")
        if self.strategy in BOUNDED_STRATEGIES:
            check_capacity(self.strategy, self.buffer_size, "buffer_size")
        elif self.buffer_size < 0:  # full and no_buffer read no size
            raise UsageError(f"buffer_size must be non-negative, got {self.buffer_size}")


def rehearsal_update(model: MLPClassifier, manager: BufferManager,
                     shuffle_rng: np.random.Generator) -> None:
    """One shuffled pass over the stored prototypes (mlp.train_epochs), so
    each receives exactly one gradient step. Minibatches are gathered
    straight from the manager's prototype array, with no copy of the whole
    buffer first. An empty buffer is a no-op that draws nothing from
    shuffle_rng."""
    prototypes, index, labels = manager.filled()
    if len(index):
        train_epochs(model, prototypes, labels, shuffle_rng, 1, index)


def run_offline_baseline(dataset: Dataset, config: RunConfig,
                         epochs: int) -> tuple[AccuracyCurve, float]:
    """Train once on everything, then emit that accuracy as a constant
    curve on the same event grid a streaming run would use."""
    model = MLPClassifier(config.mlp, dataset.dim, dataset.num_classes)
    _, accuracy = fit_offline(model, dataset, epochs)
    times = event_times(len(dataset.train), config.eval_every)
    curve = AccuracyCurve(np.array(times), np.full(len(times), accuracy))
    return curve, accuracy


@dataclass
class RunResult:
    """A finished run: its curve plus bookkeeping for the results log."""

    curve: AccuracyCurve
    memory_cost: int
    wall_clock_s: float


def execute_run(dataset: Dataset, config: RunConfig) -> RunResult:
    """The one streaming loop: a single pass over the ordered train stream
    with rehearsal after every sample, evaluating on the test split at each
    event time; timed end to end, with the final buffer memory cost.

    full keeps every sample: its capacity is the train split's largest
    class. no_buffer has no buffer manager: each step trains on the
    arriving sample alone (batch norm falls back to running statistics),
    and the memory cost is 0.
    """
    start = time.perf_counter()
    x, y = dataset.train_arrays()
    xt, yt = dataset.test_arrays()
    order = order_stream(dataset, config.ordering)
    model = MLPClassifier(config.mlp, dataset.dim, dataset.num_classes)
    manager = None
    if config.strategy != "no_buffer":
        size = int(np.bincount(y).max()) if config.strategy == "full" else config.buffer_size
        manager = BufferManager(config.strategy, size, dataset.num_classes,
                                seed=config.buffer_seed)
    shuffle_rng = np.random.default_rng([config.mlp.seed, 3])
    events = set(event_times(len(order), config.eval_every))
    times, values = [], []
    for t, idx in enumerate(order, start=1):
        if manager is None:
            model.train_minibatch(x[idx:idx + 1], y[idx:idx + 1])
        else:
            manager.insert(x[idx], int(y[idx]), t)
            rehearsal_update(model, manager, shuffle_rng)
        if t in events:
            times.append(t)
            values.append(evaluate_accuracy(model, xt, yt))
    cost = 0 if manager is None else manager.memory_cost()
    curve = AccuracyCurve(np.array(times), np.array(values))
    return RunResult(curve, cost, time.perf_counter() - start)
