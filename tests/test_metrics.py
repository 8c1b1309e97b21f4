"""Score exactness and validation for omega and its cross-size mean."""

import numpy as np
import pytest

from protostream import (AccuracyCurve, DataFormatError, NumericError, UsageError,
                         mu_total, omega_score)


def curve(values, times=None):
    if times is None:
        times = list(range(1, len(values) + 1))
    return AccuracyCurve(times, values)


class TestOmegaScore:
    def test_identical_curves_score_exactly_one(self):
        c = curve([0.3, 0.6, 0.9])
        result = omega_score(c, c, buffer_size=8)
        assert result.omega == 1.0
        assert result.buffer_size == 8
        assert result.num_events == 3

    def test_halved_curve_scores_exactly_half(self):
        offline = curve([0.8, 0.4, 0.6])
        stream = curve([0.4, 0.2, 0.3])
        assert omega_score(stream, offline).omega == 0.5

    def test_single_event_ratio_is_exact(self):
        assert omega_score(curve([0.2]), curve([0.4])).omega == 0.5

    def test_mean_of_ratios_not_ratio_of_means(self):
        stream = curve([0.2, 0.9])
        offline = curve([0.8, 0.9])
        np.testing.assert_allclose(omega_score(stream, offline).omega,
                                   (0.25 + 1.0) / 2)

    def test_above_one_is_not_clamped(self):
        stream = curve([0.9, 0.9])
        offline = curve([0.6, 0.6])
        assert omega_score(stream, offline).omega == 1.5

    def test_default_buffer_size_is_unbounded_sentinel(self):
        c = curve([0.5])
        assert omega_score(c, c).buffer_size == 0

    def test_mismatched_event_times(self):
        with pytest.raises(DataFormatError, match="event times"):
            omega_score(curve([0.5, 0.5], [1, 2]), curve([0.5, 0.5], [1, 3]))
        with pytest.raises(DataFormatError):
            omega_score(curve([0.5]), curve([0.5, 0.5]))

    def test_zero_offline_accuracy(self):
        with pytest.raises(NumericError, match="positive"):
            omega_score(curve([0.5, 0.5]), curve([0.5, 0.0]))


class TestMuTotal:
    def test_exact_mean(self):
        assert mu_total({2: 0.8, 4: 1.0}) == 0.9

    def test_single_entry(self):
        assert mu_total({16: 0.75}) == 0.75

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            mu_total({})
