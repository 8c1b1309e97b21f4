"""Accuracy curves, their event grid, and normalized streaming
performance: per-size omega scores (time-averaged ratio of streaming
accuracy to the offline baseline at matching events) and their mean
across buffer sizes. Omega above 1 is legitimate and is never clamped."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericError, UsageError


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
        if not ((self.values >= 0) & (self.values <= 1)).all():  # NaN fails both
            raise UsageError("accuracies must be numbers in [0, 1]")

    @property
    def num_events(self) -> int:
        return len(self.times)

    @property
    def events(self):
        return list(zip(self.times.tolist(), self.values.tolist()))


def event_times(num_samples: int, eval_every: int) -> list[int]:
    """Evaluation positions: every eval_every samples plus the final one."""
    if num_samples < 1 or eval_every < 1:
        raise UsageError("need at least one sample and a positive stride")
    times = list(range(eval_every, num_samples + 1, eval_every))
    if not times or times[-1] != num_samples:
        times.append(num_samples)
    return times


@dataclass(frozen=True)
class OmegaResult:
    """Omega for one buffer size (0 is the unbounded/no-buffer sentinel)."""

    buffer_size: int
    omega: float
    num_events: int


def omega_score(stream_curve: AccuracyCurve, offline_curve: AccuracyCurve,
                buffer_size: int = 0) -> OmegaResult:
    """Average the event-wise ratio stream/offline over the run.

    Both curves must share identical event times; every offline accuracy
    must be positive.
    """
    if not np.array_equal(stream_curve.times, offline_curve.times):
        raise DataFormatError("stream and offline curves have mismatched event times")
    if (offline_curve.values <= 0).any():
        raise NumericError("offline accuracy must be positive at every event")
    ratios = stream_curve.values / offline_curve.values
    return OmegaResult(int(buffer_size), float(ratios.mean()), stream_curve.num_events)


def mu_total(omegas: Mapping[int, float]) -> float:
    """Arithmetic mean of omega over buffer sizes, given {buffer size: omega}."""
    if not omegas:
        raise UsageError("mu_total needs at least one omega")
    return float(np.mean(list(omegas.values())))
