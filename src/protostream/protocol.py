"""Single-pass streaming runs: buffer update, rehearsal step, periodic
evaluation; and the offline baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .buffers import BOUNDED_STRATEGIES, BufferManager, STRATEGIES
from .data import Dataset, StreamOrdering, order_stream
from .errors import UsageError
from .mlp import MLPClassifier, MLPConfig, evaluate_accuracy, fit_offline, train_epoch

METHODS = STRATEGIES + ("no_buffer",)


@dataclass
class AccuracyCurve:
    """Test accuracy measured at increasing stream positions."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise UsageError("curve times and values must be aligned 1-D arrays")
        if len(self.times) == 0:
            raise UsageError("curve must hold at least one event")
        if (np.diff(self.times) <= 0).any():
            raise UsageError("curve times must be strictly increasing")
        if (self.values < 0).any() or (self.values > 1).any():
            raise UsageError("accuracies must lie in [0, 1]")

    @property
    def num_events(self) -> int:
        return len(self.times)

    @property
    def events(self):
        return list(zip(self.times.tolist(), self.values.tolist()))


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
        if self.strategy not in METHODS:
            raise UsageError(f"unknown strategy {self.strategy!r}; expected one of {METHODS}")
        if self.eval_every < 1:
            raise UsageError("eval_every must be at least 1")
        if self.strategy in BOUNDED_STRATEGIES and self.buffer_size < 1:
            raise UsageError("bounded strategies need buffer_size >= 1")
        if self.strategy == "exstream" and self.buffer_size < 2:
            raise UsageError("exstream needs capacity >= 2 to merge a closest pair")


def event_times(num_samples: int, eval_every: int) -> list[int]:
    """Evaluation positions: every eval_every samples plus the final one."""
    if num_samples < 1 or eval_every < 1:
        raise UsageError("need at least one sample and a positive stride")
    times = list(range(eval_every, num_samples + 1, eval_every))
    if not times or times[-1] != num_samples:
        times.append(num_samples)
    return times


def rehearsal_update(model: MLPClassifier, manager: BufferManager,
                     shuffle_rng: np.random.Generator) -> None:
    """One shuffled pass over the buffer contents (mlp.train_epoch), so
    each prototype receives exactly one gradient step. An empty buffer is
    a no-op that draws nothing from shuffle_rng."""
    vectors, labels = manager.contents()
    if len(vectors):
        train_epoch(model, vectors, labels, shuffle_rng)


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

    no_buffer has no buffer manager: each step trains on the arriving
    sample alone (batch norm falls back to running statistics), and the
    memory cost is 0.
    """
    start = time.perf_counter()
    x, y = dataset.train_arrays()
    xt, yt = dataset.test_arrays()
    order = order_stream(dataset, config.ordering)
    model = MLPClassifier(config.mlp, dataset.dim, dataset.num_classes)
    manager = None
    if config.strategy != "no_buffer":
        manager = BufferManager(config.strategy, config.buffer_size, dataset.num_classes,
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
