"""Buffer strategies against hand-computed traces and independent simulators.

The simulators here are deliberately plain Python (lists, loops, math) so
they share no code with the implementations they check.
"""

import numpy as np
import pytest

from protostream import (BufferManager, STRATEGIES, UsageError, assign_projected_dims,
                         kmeans_lloyd)
from protostream.buffers import (CLUSTREAM_HORIZON, HPSTREAM_DECAY_RATE, HPSTREAM_SPEED,
                                 CluStreamBuffer, ExStreamBuffer, HPStreamBuffer,
                                 OnlineKMeansBuffer, QueueBuffer, ReservoirBuffer, _centroid,
                                 _radii, _relevance_stamp, _rms_radius)


# ---------------------------------------------------------------- simulators

def sim_exstream(stream, cap):
    vecs, counts = [], []
    for x in stream:
        x = [float(v) for v in x]
        if len(vecs) < cap:
            vecs.append(x)
            counts.append(1)
            continue
        best = None
        for i in range(cap):
            for j in range(i + 1, cap):
                d = sum((a - b) ** 2 for a, b in zip(vecs[i], vecs[j]))
                if best is None or d < best[0]:
                    best = (d, i, j)
        _, i, j = best
        ci, cj = counts[i], counts[j]
        vecs[i] = [(ci * a + cj * b) / (ci + cj) for a, b in zip(vecs[i], vecs[j])]
        counts[i] = ci + cj
        vecs[j] = x
        counts[j] = 1
    return vecs, counts


def sim_online_kmeans(stream, cap):
    vecs, counts = [], []
    for x in stream:
        x = [float(v) for v in x]
        if len(vecs) < cap:
            vecs.append(x)
            counts.append(1)
            continue
        best = None
        for i in range(cap):
            d = sum((a - b) ** 2 for a, b in zip(vecs[i], x))
            if best is None or d < best[0]:
                best = (d, i)
        _, i = best
        c = counts[i]
        vecs[i] = [(c * a + b) / (c + 1) for a, b in zip(vecs[i], x)]
        counts[i] = c + 1
    return vecs, counts


def sim_queue(stream, cap):
    return [list(map(float, x)) for x in stream][-cap:]


def sim_projected_bits(radii, per_cluster):
    k, d = len(radii), len(radii[0])
    pairs = sorted((radii[i][j], i, j) for i in range(k) for j in range(d))
    bits = [[False] * d for _ in range(k)]
    for _, i, j in pairs[: k * per_cluster]:
        bits[i][j] = True
    for i in range(k):
        if not any(bits[i]):
            bits[i][min(range(d), key=lambda j: (radii[i][j], j))] = True
    return bits


def stable_sort_bits(radii, per_cluster):
    """The k*l smallest radii picked by a stable sort of the flat array."""
    k, d = radii.shape
    bits = np.zeros(k * d, dtype=bool)
    bits[np.argsort(radii.ravel(), kind="stable")[: k * per_cluster]] = True
    bits = bits.reshape(k, d)
    empty = np.flatnonzero(~bits.any(axis=1))
    bits[empty, np.argmin(radii[empty], axis=1)] = True
    return bits


def fade_factor(buf, t):
    """Each HPStream cluster's fade from its last update to time t (in
    units of HPSTREAM_SPEED samples)."""
    return 2.0 ** (-HPSTREAM_DECAY_RATE * (t - buf._last_update))


def faded_weight(buf, t):
    """Each HPStream cluster's weight faded to time t."""
    return buf._weight * fade_factor(buf, t)


def faded_centroid_radii(buf, i, t):
    """Centroid and per-dimension radii of HPStream cluster i at time t."""
    centroid = _centroid(buf._weight[i], buf._linear[i])
    return centroid, _radii(buf._weight[i], fade_factor(buf, t)[i], buf._squared[i], centroid)


def gaussian_stream(n, dim, seed, spread=3.0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, dim)) * spread
    return centers[rng.integers(4, size=n)] + rng.standard_normal((n, dim))


# ------------------------------------------------------------------ exstream

class TestExStream:
    def test_scalar_trace(self):
        buf = ExStreamBuffer(2)
        for v in (0.0, 2.0, 10.0):
            buf.insert(np.array([v]))
        np.testing.assert_array_equal(buf.vectors(), [[1.0], [10.0]])
        np.testing.assert_array_equal(buf.counts(), [2, 1])

    def test_count_weighted_merge(self):
        buf = ExStreamBuffer(2)
        for v in (1.0, 1.0, 5.0, 9.0):
            buf.insert(np.array([v]))
        # second merge folds count-2 prototype 1 with count-1 prototype 5
        np.testing.assert_allclose(buf.vectors(), [[7.0 / 3.0], [9.0]])
        np.testing.assert_array_equal(buf.counts(), [3, 1])

    def test_tie_breaks_to_lowest_pair(self):
        buf = ExStreamBuffer(3)
        for v in (0.0, 1.0, 2.0, 10.0):
            buf.insert(np.array([v]))
        # pairs (0,1) and (1,2) tie at distance 1; (0,1) merges
        np.testing.assert_array_equal(buf.vectors(), [[0.5], [10.0], [2.0]])
        np.testing.assert_array_equal(buf.counts(), [2, 1, 1])

    def test_matches_simulator(self):
        stream = gaussian_stream(200, 3, seed=11)
        for cap in (2, 5, 16):
            buf = ExStreamBuffer(cap)
            for x in stream:
                buf.insert(x)
            vecs, counts = sim_exstream(stream, cap)
            np.testing.assert_allclose(buf.vectors(), vecs, atol=1e-9)
            np.testing.assert_array_equal(buf.counts(), counts)

    def test_counts_sum_to_inserts(self):
        buf = ExStreamBuffer(4)
        stream = gaussian_stream(333, 2, seed=3)
        for x in stream:
            buf.insert(x)
        assert int(buf.counts().sum()) == 333
        # count-weighted prototype sum preserves the running data sum
        weighted = (buf.vectors() * buf.counts()[:, None]).sum(axis=0)
        np.testing.assert_allclose(weighted, stream.sum(axis=0), atol=1e-8)

    def test_capacity_one_rejected(self):
        with pytest.raises(UsageError, match="capacity"):
            ExStreamBuffer(1)


# ------------------------------------------------------------- online kmeans

class TestOnlineKMeans:
    def test_single_slot_running_mean(self):
        buf = OnlineKMeansBuffer(1)
        for v in (1.0, 2.0, 3.0, 4.0):
            buf.insert(np.array([v]))
        np.testing.assert_allclose(buf.vectors(), [[2.5]])
        np.testing.assert_array_equal(buf.counts(), [4])

    def test_nearest_prototype_absorbs(self):
        buf = OnlineKMeansBuffer(2)
        for v in (0.0, 10.0, 1.0, 9.0):
            buf.insert(np.array([v]))
        np.testing.assert_allclose(buf.vectors(), [[0.5], [9.5]])
        np.testing.assert_array_equal(buf.counts(), [2, 2])

    def test_matches_simulator(self):
        stream = gaussian_stream(200, 3, seed=12)
        for cap in (1, 4, 9):
            buf = OnlineKMeansBuffer(cap)
            for x in stream:
                buf.insert(x)
            vecs, counts = sim_online_kmeans(stream, cap)
            np.testing.assert_allclose(buf.vectors(), vecs, atol=1e-9)
            np.testing.assert_array_equal(buf.counts(), counts)

    def test_weighted_sum_conserved(self):
        stream = gaussian_stream(250, 2, seed=4)
        buf = OnlineKMeansBuffer(3)
        for x in stream:
            buf.insert(x)
        weighted = (buf.vectors() * buf.counts()[:, None]).sum(axis=0)
        np.testing.assert_allclose(weighted, stream.sum(axis=0), atol=1e-8)
        assert int(buf.counts().sum()) == 250


# ----------------------------------------------------------------- clustream

class TestMicroCluster:
    """Cluster-feature arithmetic, read off capacity-1 CluStream buffers."""

    def _buf(self, points):
        buf = CluStreamBuffer(1, np.random.default_rng(0))
        for p, t in points:
            buf.insert(np.array(p), t)
        return buf

    def test_from_point_and_absorb(self):
        # two staged points seed the single cluster with both of them
        buf = self._buf([([1.0, 2.0], 1.0), ([2.0, 3.0], 2.0)])
        n, linear, squared = buf._n[0], buf._linear[0], buf._squared[0]
        assert n == 2
        np.testing.assert_array_equal(linear, [3.0, 5.0])
        np.testing.assert_array_equal(squared, [5.0, 13.0])
        assert buf._t_sum[0] == 3.0 and buf._t_sq_sum[0] == 5.0
        np.testing.assert_array_equal(_centroid(n, linear), [1.5, 2.5])
        np.testing.assert_allclose(_rms_radius(n, linear, squared), np.sqrt(0.5))
        np.testing.assert_allclose(
            _relevance_stamp(n, buf._t_sum[0], buf._t_sq_sum[0], 2.0), 2.5)

    def test_merge_adds_statistics(self):
        # [10, 0] lies outside the boundary, opens a singleton, and nothing
        # is stale, so the singleton merges into the seeded cluster
        buf = self._buf([([1.0, 1.0], 0.0), ([3.0, 3.0], 2.0), ([10.0, 0.0], 4.0)])
        assert buf.size == 1
        assert buf._n[0] == 3
        np.testing.assert_array_equal(buf._linear[0], [14.0, 4.0])
        np.testing.assert_array_equal(buf._squared[0], [110.0, 10.0])
        assert buf._t_sum[0] == 6.0 and buf._t_sq_sum[0] == 20.0


class TestCluStream:
    def _buf(self, capacity, seed=0):
        return CluStreamBuffer(capacity, np.random.default_rng(seed))

    def test_staging_then_initialize(self):
        buf = self._buf(2)
        pts = [np.array(p) for p in ([0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0])]
        for t, p in enumerate(pts[:3]):
            buf.insert(p, t)
            assert not buf.initialized
        buf.insert(pts[3], 3)
        assert buf.initialized and buf.size == 2
        got = sorted(buf.vectors().tolist())
        np.testing.assert_allclose(got, [[0.05, 0.0], [10.05, 10.0]], atol=1e-12)

    def test_absorb_within_boundary(self):
        buf = self._buf(2)
        for t, p in enumerate(([0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0])):
            buf.insert(np.array(p), t)
        buf.insert(np.array([0.0, 0.05]), 4)
        assert buf.size == 2
        assert buf._n[:buf.size].sum() == 5

    def test_merge_when_nothing_is_stale(self):
        buf = self._buf(2)
        for t, p in enumerate(([0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0])):
            buf.insert(np.array(p), t)
        buf.insert(np.array([5.0, 5.0]), 4)  # rejected by both, nothing stale
        assert buf.size == 2
        assert buf._n[:buf.size].sum() == 5

    def test_eviction_outside_horizon(self):
        buf = self._buf(2)
        for t, p in enumerate(([0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0])):
            buf.insert(np.array(p), t)
        buf.insert(np.array([50.0, 50.0]), 3 * CLUSTREAM_HORIZON)
        assert buf.size == 2
        got = sorted(buf.vectors().tolist())
        # older group (stamp 1.5) evicted; newer group and fresh singleton stay
        np.testing.assert_allclose(got, [[10.05, 10.0], [50.0, 50.0]], atol=1e-12)

    def test_singleton_boundary_is_nearest_neighbor_distance(self):
        buf = self._buf(2)
        for t, p in enumerate(([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [8.0, 8.0])):
            buf.insert(np.array(p), t)
        assert sorted(buf._n[:buf.size].tolist()) == [1, 3]
        # within 11.3 of the singleton at [8, 8], so it absorbs
        buf.insert(np.array([8.5, 8.0]), 4)
        assert sorted(buf._n[:buf.size].tolist()) == [2, 3]

    def test_single_cluster_buffer_merges(self):
        buf = self._buf(1)
        buf.insert(np.array([0.0, 0.0]), 0)
        buf.insert(np.array([0.0, 0.0]), 1)
        assert buf.initialized and buf.size == 1
        buf.insert(np.array([3.0, 0.0]), 2)  # zero radius rejects, then merge
        assert buf.size == 1
        assert buf._n[0] == 3
        np.testing.assert_allclose(_centroid(buf._n[0], buf._linear[0]), [1.0, 0.0])

    def test_lone_singleton_joins_any_point(self):
        # capacity 1: once the stale cluster is evicted, the singleton left
        # has no other centroid to bound it, so the next point joins it,
        # though the singleton is stale by then and a rejected point would
        # have evicted it
        buf = self._buf(1)
        buf.insert(np.array([0.0, 0.0]), 1)
        buf.insert(np.array([0.0, 1.0]), 2)
        buf.insert(np.array([50.0, 50.0]), 3 + CLUSTREAM_HORIZON)  # stamp 2.5 < 3: evicted
        assert buf.size == 1 and buf._n[0] == 1
        np.testing.assert_array_equal(buf.vectors(), [[50.0, 50.0]])
        buf.insert(np.array([90.0, 10.0]), 4 + 2 * CLUSTREAM_HORIZON)
        assert buf.size == 1 and buf._n[0] == 2
        np.testing.assert_array_equal(buf.vectors(), [[70.0, 30.0]])

    def test_count_conserved_on_long_stream(self):
        buf = self._buf(4)
        stream = gaussian_stream(300, 3, seed=5)
        for t, x in enumerate(stream):
            buf.insert(x, t)
        assert buf.initialized
        assert buf._n[:buf.size].sum() == 300
        total = buf._linear[:buf.size].sum(axis=0)
        np.testing.assert_allclose(total, stream.sum(axis=0), atol=1e-8)
        assert buf.size <= 4


class TestKMeansLloyd:
    def test_recovers_separated_groups(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 2)) * 0.01
        b = rng.standard_normal((10, 2)) * 0.01 + 100.0
        pts = np.concatenate([a, b])
        centers, labels = kmeans_lloyd(pts, 2, np.random.default_rng(1))
        got = sorted(centers.tolist())
        want = sorted([a.mean(axis=0).tolist(), b.mean(axis=0).tolist()])
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert len(set(labels[:10])) == 1 and len(set(labels[10:])) == 1

    def test_deterministic_for_same_rng_seed(self):
        pts = np.random.default_rng(2).standard_normal((40, 3))
        c1, l1 = kmeans_lloyd(pts, 5, np.random.default_rng(7))
        c2, l2 = kmeans_lloyd(pts, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(l1, l2)

    def test_duplicate_points_fill_every_cluster(self):
        pts = np.zeros((5, 2))
        centers, labels = kmeans_lloyd(pts, 3, np.random.default_rng(0))
        assert set(labels.tolist()) == {0, 1, 2}
        np.testing.assert_array_equal(centers, np.zeros((3, 2)))

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            kmeans_lloyd(np.zeros((2, 2)), 3, np.random.default_rng(0))


# ------------------------------------------------------------------ hpstream

class TestFadedCluster:
    """Fade and absorb arithmetic, read off HPStream buffers over two
    dimensions (one projected), with times given in units of
    HPSTREAM_SPEED samples. Each cluster's statistics stay as of its last
    update; its weight at a later time t is the stored weight times
    fade_factor."""

    def _buf(self, capacity, points):
        buf = HPStreamBuffer(capacity, 2)
        for p, t in points:
            buf.insert(np.array(p), t * HPSTREAM_SPEED)
        return buf

    def test_fade_halves_at_unit_rate(self):
        # 2^(-0.5 * 2) = 0.5 halves the cluster before [2, 0] is absorbed
        # (it matches the centroid on the projected dimension 0)
        buf = self._buf(1, [([2.0, 4.0], 0.0), ([2.0, 0.0], 2.0)])
        assert buf._weight[0] == 0.5 * 1.0 + 1.0
        np.testing.assert_array_equal(buf._linear[0], [0.5 * 2.0 + 2.0, 0.5 * 4.0 + 0.0])
        np.testing.assert_array_equal(buf._squared[0], [0.5 * 4.0 + 4.0, 0.5 * 16.0 + 0.0])
        # stored as of the absorb at t = 2: no fade left to apply then
        assert buf._last_update[0] == 2.0 and faded_weight(buf, 2.0)[0] == 1.5

    def test_absorb_after_fade(self):
        buf = self._buf(1, [([2.0, 4.0], 0.0), ([2.0, 0.0], 2.0)])
        assert buf._weight[0] == 1.5
        np.testing.assert_array_equal(buf._linear[0], [3.0, 2.0])
        np.testing.assert_array_equal(buf._squared[0], [6.0, 8.0])
        centroid, radii = faded_centroid_radii(buf, 0, 2.0)
        np.testing.assert_array_equal(assign_projected_dims(radii[None], buf.dims)[0],
                                      [True, False])
        np.testing.assert_allclose(centroid, [2.0, 4.0 / 3.0])
        np.testing.assert_allclose(radii, [0.0, np.sqrt(32.0 / 9.0)])

    def test_light_cluster_has_zero_radius(self):
        buf = self._buf(2, [([3.0, -1.0], 0.0), ([100.0, 100.0], 0.0)])
        np.testing.assert_array_equal(faded_centroid_radii(buf, 0, 0.0)[1], [0.0, 0.0])
        buf.insert(np.array([100.0, 7.0]), 4.0 * HPSTREAM_SPEED)  # cluster 1 absorbs it
        # cluster 0 is untouched: weight 1 as of t = 0, faded to 0.25 at t = 4
        assert buf._weight[0] == 1.0 and buf._last_update[0] == 0.0
        assert faded_weight(buf, 4.0)[0] == 0.25
        np.testing.assert_array_equal(faded_centroid_radii(buf, 0, 4.0)[1], [0.0, 0.0])

    def test_fade_preserves_centroid_and_radii(self):
        # cluster 1 absorbs [1, 1]; the probe at t=0.5 lands in cluster 0,
        # so cluster 1 is only faded
        buf = self._buf(2, [([50.0, 50.0], 0.0), ([1.0, 5.0], 0.0), ([1.0, 1.0], 0.0)])
        assert buf._weight[1] == 2.0
        centroid, radii = faded_centroid_radii(buf, 1, 0.0)
        buf.insert(np.array([50.0, 50.0]), 0.5 * HPSTREAM_SPEED)
        assert buf._weight[1] == 2.0 and buf._last_update[1] == 0.0
        np.testing.assert_allclose(faded_weight(buf, 0.5)[1], 2.0 * 2.0 ** -0.25)
        after_centroid, after_radii = faded_centroid_radii(buf, 1, 0.5)
        np.testing.assert_allclose(after_centroid, centroid)
        np.testing.assert_allclose(after_radii, radii)
        np.testing.assert_allclose(radii, [0.0, 2.0])

    def test_first_fade_uses_each_seed_time_later_fades_one_gap(self):
        # clusters seeded at t = 0, 1, 2; far probes at t = 4 and 6 are never
        # absorbed (light clusters have radius 0) and replace the least
        # recently updated cluster
        buf = self._buf(3, [([0.0, 0.0], 0.0), ([10.0, 10.0], 1.0), ([20.0, 20.0], 2.0),
                            ([100.0, 100.0], 4.0)])
        # at t = 4: cluster 1 faded by its gap of 3, cluster 2 by its gap of 2
        np.testing.assert_array_equal(buf._last_update, [4.0, 1.0, 2.0])
        np.testing.assert_allclose(faded_weight(buf, 4.0), [1.0, 2.0 ** -1.5, 0.5])
        np.testing.assert_allclose(buf._linear[1] * fade_factor(buf, 4.0)[1],
                                   [10.0 * 2.0 ** -1.5] * 2)
        buf.insert(np.array([200.0, 200.0]), 6.0 * HPSTREAM_SPEED)
        # two more units halve every cluster's weight at t = 4, including
        # cluster 2, seeded 4 units ago; cluster 1 is replaced
        np.testing.assert_array_equal(buf._weight, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(faded_weight(buf, 6.0), [0.5, 1.0, 0.25])
        np.testing.assert_array_equal(buf._linear * fade_factor(buf, 6.0)[:, None],
                                      [[50.0, 50.0], [200.0, 200.0], [5.0, 5.0]])
        np.testing.assert_array_equal(buf.vectors(), [[100.0, 100.0], [200.0, 200.0],
                                                      [20.0, 20.0]])


class TestRadii:
    def test_equals_full_formula_for_mixed_weights(self):
        # stored weights whose fades give 0.25, 1, 1 + 1e-12, 2.5, 0.9 and 7:
        # heaviness is judged on the faded weight, the spread on the stored
        # statistics (a fade scales weight and sums alike)
        rng = np.random.default_rng(17)
        weight = np.array([0.5, 2.0, 2.0 + 2e-12, 5.0, 1.8, 7.0])
        factor = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 1.0])
        linear = rng.standard_normal((6, 5)) * weight[:, None]
        squared = linear ** 2 / weight[:, None] + rng.random((6, 5))
        centroid = _centroid(weight, linear)
        var = squared / weight[:, None] - centroid * centroid
        want = np.where((weight * factor)[:, None] <= 1.0, 0.0, np.sqrt(np.maximum(var, 0.0)))
        np.testing.assert_array_equal(_radii(weight, factor, squared, centroid), want)
        for i in range(6):  # one row at a time
            np.testing.assert_array_equal(
                _radii(weight[i], factor[i], squared[i], centroid[i]), want[i])
        # a fade leaves the radii as they are: the faded statistics give the same
        faded = _radii(weight * factor, 1.0, squared * factor[:, None], centroid)
        np.testing.assert_allclose(faded, want, rtol=1e-12, atol=1e-12)


class TestProjectedDims:
    def test_smallest_radii_win(self):
        bits = assign_projected_dims(np.array([[0.1, 5.0], [0.2, 4.0]]), 1)
        np.testing.assert_array_equal(bits, [[True, False], [True, False]])

    def test_all_equal_breaks_ties_lexicographically(self):
        bits = assign_projected_dims(np.ones((2, 2)), 1)
        # budget lands on row 0 twice; row 1 falls back to its first dim
        np.testing.assert_array_equal(bits, [[True, True], [True, False]])

    def test_full_budget_sets_everything(self):
        bits = assign_projected_dims(np.random.default_rng(0).random((3, 4)), 4)
        assert bits.all()

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k, d = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            radii = np.round(rng.random((k, d)) * 4) / 4  # force ties
            per = int(rng.integers(1, d + 1))
            got = assign_projected_dims(radii, per)
            want = sim_projected_bits(radii.tolist(), per)
            np.testing.assert_array_equal(got, np.array(want))

    @pytest.mark.parametrize("kind", ["zeros", "ties", "random", "nan"])
    def test_matches_stable_sort_at_64_by_64(self, kind):
        rng = np.random.default_rng(21)
        radii = {"zeros": np.zeros((64, 64)),
                 "ties": np.round(rng.random((64, 64)) * 3) / 3,
                 "random": rng.random((64, 64)),
                 "nan": np.where(rng.random((64, 64)) < 0.6, np.nan, rng.random((64, 64)))}[kind]
        for per in (1, 7, 32, 64):
            np.testing.assert_array_equal(assign_projected_dims(radii, per),
                                          stable_sort_bits(radii, per))

    def test_invalid_budget(self):
        with pytest.raises(UsageError):
            assign_projected_dims(np.ones((2, 3)), 0)
        with pytest.raises(UsageError):
            assign_projected_dims(np.ones((2, 3)), 4)


class TestHPStream:
    """Times are given in units of HPSTREAM_SPEED samples."""

    def test_fills_with_singletons(self):
        buf = HPStreamBuffer(2, 2)
        buf.insert(np.array([0.0, 0.0]), 0)
        buf.insert(np.array([10.0, 10.0]), 1 * HPSTREAM_SPEED)
        assert buf.size == 2
        np.testing.assert_array_equal(buf.vectors(), [[0.0, 0.0], [10.0, 10.0]])

    def test_absorbs_point_equal_on_projected_dims(self):
        buf = HPStreamBuffer(2, 2)
        buf.insert(np.array([0.0, 0.0]), 0)
        buf.insert(np.array([10.0, 10.0]), 1 * HPSTREAM_SPEED)
        # bits give cluster 1 only dim 0; [10, -3] matches it there exactly
        buf.insert(np.array([10.0, -3.0]), 2 * HPSTREAM_SPEED)
        f = 2.0 ** -0.5
        np.testing.assert_allclose(buf._weight[1], f + 1.0)
        np.testing.assert_allclose(buf._linear[1], [10.0 * f + 10.0, 10.0 * f - 3.0])
        assert buf._last_update[1] == 2.0
        centroid, radii = faded_centroid_radii(buf, 1, 2.0)
        np.testing.assert_allclose(centroid[0], 10.0)
        assert radii[0] == 0.0 and radii[1] > 1.0

    def test_outlier_replaces_least_recently_updated(self):
        buf = HPStreamBuffer(2, 2)
        buf.insert(np.array([0.0, 0.0]), 0)
        buf.insert(np.array([10.0, 10.0]), 1 * HPSTREAM_SPEED)
        buf.insert(np.array([10.0, -3.0]), 2 * HPSTREAM_SPEED)   # refreshes cluster 1
        buf.insert(np.array([50.0, 50.0]), 3 * HPSTREAM_SPEED)   # too far from anything
        np.testing.assert_array_equal(buf._linear[0], [50.0, 50.0])
        assert buf._weight[0] == 1.0 and buf._last_update[0] == 3.0
        np.testing.assert_allclose(buf._weight[1], 2.0 ** -0.5 + 1)  # as of t = 2
        np.testing.assert_allclose(faded_weight(buf, 3.0)[1], (2.0 ** -0.5 + 1) * 2.0 ** -0.5)

    def test_exact_repeat_of_a_stored_point_is_absorbed(self):
        # the centroid of a cluster seeded with p is p itself, at distance
        # 0 from a repeat of p, and a light cluster's limit is 0
        p = np.array([0.1, -0.3])
        buf = HPStreamBuffer(2, 2)
        for x, t in ((p, 0), ([40.0, 40.0], 1), ([40.0, 41.0], 2), (p, 3)):
            buf.insert(np.array(x), t)
        t = 3 / HPSTREAM_SPEED
        assert buf._last_update[0] == t and buf._last_update[1] == 2 / HPSTREAM_SPEED
        np.testing.assert_allclose(buf._weight[0], 2.0 ** (-HPSTREAM_DECAY_RATE * t) + 1.0)
        np.testing.assert_allclose(buf.vectors()[0], p)

    def test_insert_changes_only_the_cluster_it_seeds_or_that_absorbs(self):
        # rounded points repeat on projected dimensions, so some are absorbed
        buf = HPStreamBuffer(4, 6)
        kinds = []
        for t, x in enumerate(np.round(gaussian_stream(300, 6, seed=8))):
            stats, means = buf._stats.copy(), buf._means.copy()
            buf.insert(x, t)
            changed = np.flatnonzero((buf._stats != stats).any(axis=1)
                                     | (buf._means != means).any(axis=1))
            assert len(changed) == 1, t
            i = changed[0]
            assert buf._last_update[i] == t / HPSTREAM_SPEED
            kinds.append("seed" if buf._weight[i] == 1.0 else "absorb")
        assert kinds[4:].count("seed") > 0 and kinds.count("absorb") > 0

    def test_capacity_respected_on_long_stream(self):
        buf = HPStreamBuffer(3, 4)
        for t, x in enumerate(gaussian_stream(400, 4, seed=6)):
            buf.insert(x, t)
        assert buf.size == 3
        assert buf.memory_units() == 6
        assert np.isfinite(buf.vectors()).all()


# --------------------------------------------------------- reservoir / queue

class TestReservoir:
    def test_fills_then_replaces_uniformly(self):
        hits = np.zeros(4)
        trials = 4000
        stream = [np.array([float(i)]) for i in range(4)]
        for seed in range(trials):
            buf = ReservoirBuffer(2, np.random.default_rng(seed))
            for x in stream:
                buf.insert(x)
            kept = {int(v[0]) for v in buf.vectors()}
            assert len(kept) == 2
            for i in kept:
                hits[i] += 1
        # every item survives with probability b/m = 1/2
        np.testing.assert_allclose(hits / trials, 0.5, atol=0.03)

    def test_short_stream_keeps_everything(self):
        buf = ReservoirBuffer(8, np.random.default_rng(0))
        for i in range(5):
            buf.insert(np.array([float(i)]))
        assert buf.size == 5
        np.testing.assert_array_equal(buf.vectors().ravel(), np.arange(5.0))

    def test_contents_come_from_stream(self):
        stream = gaussian_stream(120, 2, seed=8)
        buf = ReservoirBuffer(6, np.random.default_rng(3))
        for x in stream:
            buf.insert(x)
        for v in buf.vectors():
            assert any(np.array_equal(v, s) for s in stream)


class TestQueue:
    def test_keeps_most_recent(self):
        buf = QueueBuffer(3)
        for i in range(5):
            buf.insert(np.array([float(i)]))
        np.testing.assert_array_equal(buf.vectors(), [[2.0], [3.0], [4.0]])

    def test_matches_simulator(self):
        stream = gaussian_stream(50, 2, seed=9)
        buf = QueueBuffer(7)
        for x in stream:
            buf.insert(x)
        np.testing.assert_array_equal(buf.vectors(), sim_queue(stream, 7))


# -------------------------------------------------------------- manager glue

class TestBufferManager:
    def test_contents_in_class_order(self):
        mgr = BufferManager("queue", 4, num_classes=3)
        mgr.insert([2.0], 2, 0)
        mgr.insert([0.0], 0, 1)
        mgr.insert([2.5], 2, 2)
        vecs, labels = mgr.contents()
        np.testing.assert_array_equal(labels, [0, 2, 2])
        np.testing.assert_array_equal(vecs, [[0.0], [2.0], [2.5]])

    def test_label_out_of_range(self):
        mgr = BufferManager("queue", 4, num_classes=2)
        with pytest.raises(UsageError, match="label"):
            mgr.insert([1.0], 2, 0)
        with pytest.raises(UsageError, match="label"):
            mgr.insert([1.0], -1, 0)

    @pytest.mark.parametrize("capacity, num_classes", [
        (2.5, 3), (True, 3), ("4", 3), (4, 3.0), (4, np.float64(2)),
    ], ids=["capacity_fraction", "capacity_bool", "capacity_string", "classes_float",
            "classes_numpy_float"])
    def test_sizes_must_be_integers(self, capacity, num_classes):
        with pytest.raises(UsageError, match="integer"):
            BufferManager("exstream", capacity, num_classes)

    @pytest.mark.parametrize("seed, match", [(1.5, "integer"), (True, "integer"),
                                             (-1, "non-negative")],
                             ids=["fraction", "bool", "negative"])
    @pytest.mark.parametrize("strategy", ["reservoir", "clustream", "queue"])
    def test_seed_checked_at_construction(self, strategy, seed, match):
        with pytest.raises(UsageError, match=match):
            BufferManager(strategy, 4, num_classes=2, seed=seed)

    @pytest.mark.parametrize("t", [None, float("nan"), True],
                             ids=["none", "nan", "bool"])
    @pytest.mark.parametrize("strategy", ["clustream", "hpstream"])
    def test_time_must_be_a_finite_number(self, strategy, t):
        mgr = BufferManager(strategy, 2, num_classes=1)
        mgr.insert([1.0, 2.0], 0, 1)
        cost = mgr.memory_cost()
        with pytest.raises(UsageError, match="stream time"):
            mgr.insert([3.0, 4.0], 0, t)
        assert mgr.memory_cost() == cost and len(mgr.contents()[0]) == 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stream_time_never_runs_backwards(self, strategy):
        """An equal time is accepted; an earlier one is rejected, for any
        class, and leaves every store and the stream clock as they were."""
        mgr = BufferManager(strategy, 3 if strategy == "full" else 2, num_classes=2)
        for i, t in enumerate((1, 3, 3)):
            mgr.insert([float(i), 2.0], i % 2, t)
        before, cost = mgr.contents(), mgr.memory_cost()
        for label in (0, 1):
            with pytest.raises(UsageError, match="stream time"):
                mgr.insert([5.0, 5.0], label, 2.5)
        with pytest.raises(UsageError, match="finite"):
            mgr.insert([np.nan, 0.0], 0, 9)  # a rejected sample does not advance the clock
        after = mgr.contents()
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        assert mgr.memory_cost() == cost
        mgr.insert([5.0, 5.0], 1, 3)
        mgr.insert([6.0, 5.0], 0, 4)

    @pytest.mark.parametrize("label", [1.5, 1.0, True, "1"],
                             ids=["fraction", "float", "bool", "string"])
    def test_label_must_be_integer(self, label):
        mgr = BufferManager("queue", 4, num_classes=2)
        with pytest.raises(UsageError, match="integer"):
            mgr.insert([1.0], label, 0)
        assert mgr.memory_cost() == 0

    @pytest.mark.parametrize("strategy, second, label", [
        ("reservoir", [5.0], 0),            # would broadcast into [5, 5, 5]
        ("hpstream", [7.0], 0),             # would seed a cluster at [7, 7, 7]
        ("queue", [1.0, 2.0], 1),           # a second class of another length
        ("queue", [[1.0, 2.0, 3.0]], 0),    # a row of a matrix
    ], ids=["reservoir_short", "hpstream_short", "second_class_short", "matrix"])
    def test_first_insert_fixes_dimension(self, strategy, second, label):
        mgr = BufferManager(strategy, 2, num_classes=2)
        mgr.insert([1.0, 2.0, 3.0], 0, 1)
        with pytest.raises(UsageError, match="length 3"):
            mgr.insert(second, label, 2)
        np.testing.assert_array_equal(mgr.contents()[0], [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("first", [[], 3.0, [[1.0, 2.0]]], ids=["empty", "scalar", "matrix"])
    def test_first_sample_must_be_a_vector(self, first):
        mgr = BufferManager("queue", 2, num_classes=1)
        with pytest.raises(UsageError, match="1-D"):
            mgr.insert(first, 0, 1)
        mgr.insert([1.0, 2.0], 0, 2)  # the dimension is still open
        assert mgr.contents()[0].shape == (1, 2)

    def test_unknown_strategy(self):
        with pytest.raises(UsageError, match="strategy"):
            BufferManager("ring", 4, num_classes=2)

    def test_exstream_needs_two_slots(self):
        with pytest.raises(UsageError):
            BufferManager("exstream", 1, num_classes=2)

    def test_full_needs_one_slot(self):
        with pytest.raises(UsageError, match="full needs capacity >= 1"):
            BufferManager("full", 0, num_classes=2)

    def test_per_class_capacity(self):
        mgr = BufferManager("queue", 2, num_classes=2)
        for i in range(10):
            mgr.insert([float(i)], i % 2, i)
        vecs, labels = mgr.contents()
        assert (labels == 0).sum() == 2 and (labels == 1).sum() == 2
        assert vecs.shape == (4, 1)

    def test_memory_cost_vector_strategies(self):
        for strategy in ("exstream", "queue", "reservoir", "online_kmeans"):
            mgr = BufferManager(strategy, 3, num_classes=2)
            for i in range(20):
                mgr.insert([float(i), 0.0], i % 2, i)
            assert mgr.memory_cost() == 6, strategy

    def test_memory_cost_cluster_strategies(self):
        for strategy in ("clustream", "hpstream"):
            mgr = BufferManager(strategy, 3, num_classes=1)
            for i in range(40):
                mgr.insert([float(i), float(i % 5)], 0, i)
            assert mgr.memory_cost() == 6, strategy

    def test_clustream_staging_counts_as_vectors(self):
        mgr = BufferManager("clustream", 8, num_classes=1)
        for i in range(5):
            mgr.insert([float(i)], 0, i)
        assert mgr.memory_cost() == 5  # raw staged points, one unit each
        vecs, _ = mgr.contents()
        assert vecs.shape == (5, 1)

    def test_full_holds_its_capacity_per_class(self):
        """full keeps up to capacity rows per class in arrival order; an
        insert into a full class is an error that changes nothing."""
        mgr = BufferManager("full", 3, num_classes=2)
        rows = np.arange(8.0).reshape(4, 2)
        for t, (row, label) in enumerate(zip(rows, (0, 1, 0, 0)), start=1):
            mgr.insert(row, label, t)
        vecs, labels = mgr.contents()
        np.testing.assert_array_equal(vecs, rows[[0, 2, 3, 1]])
        np.testing.assert_array_equal(labels, [0, 0, 0, 1])
        with pytest.raises(UsageError, match="store of 3 slots is full"):
            mgr.insert([9.0, 9.0], 0, 5)
        after = mgr.contents()
        assert after[0].tobytes() == vecs.tobytes() and after[1].tobytes() == labels.tobytes()
        assert mgr.memory_cost() == 4
        mgr.insert([9.0, 9.0], 1, 5)  # the other class still has room
        np.testing.assert_array_equal(mgr.contents()[0][-1], [9.0, 9.0])

    def test_reservoir_seed_changes_selection(self):
        def fill(seed):
            mgr = BufferManager("reservoir", 2, num_classes=1, seed=seed)
            for i in range(60):
                mgr.insert([float(i)], 0, i)
            return mgr.contents()[0].ravel().tolist()

        assert fill(0) == fill(0)
        distinct = {tuple(fill(s)) for s in range(10)}
        assert len(distinct) > 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_non_finite_sample_rejected(self, strategy, bad):
        mgr = BufferManager(strategy, 3 if strategy == "full" else 2, num_classes=2)
        for i in range(3):
            mgr.insert([float(i), 2.0], 0, i + 1)
        before, cost = mgr.contents(), mgr.memory_cost()
        for label in (0, 1):
            with pytest.raises(UsageError, match="finite"):
                mgr.insert([bad, 0.0], label, 4)
        after = mgr.contents()
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        assert mgr.memory_cost() == cost

    def test_non_finite_first_sample_leaves_dimension_open(self):
        mgr = BufferManager("queue", 2, num_classes=1)
        with pytest.raises(UsageError, match="finite"):
            mgr.insert([1.0, np.nan, 3.0], 0, 1)
        mgr.insert([1.0, 2.0], 0, 2)
        assert mgr.contents()[0].shape == (1, 2)


def class_reference(strategy, capacity, label, seed, dim):
    """A store of its own for one class, fed what the manager's class gets."""
    if strategy == "exstream":
        return ExStreamBuffer(capacity)
    if strategy == "online_kmeans":
        return OnlineKMeansBuffer(capacity)
    if strategy == "clustream":
        return CluStreamBuffer(capacity, np.random.default_rng([seed, 5, label]))
    if strategy == "hpstream":
        return HPStreamBuffer(capacity, dim)
    if strategy == "reservoir":
        return ReservoirBuffer(capacity, np.random.default_rng([seed, 4, label]))
    return QueueBuffer(capacity)  # queue, or full, which fills like a queue and never overflows


class TestManagerArray:
    """Every store writes into the manager's one prototype array; reads
    through it must equal a per-class concatenation after every insert."""

    @pytest.mark.parametrize("stream", ["iid", "class_iid", "rounded"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_contents_equals_per_class_concatenation(self, strategy, stream):
        classes, capacity, dim, seed = 3, 4, 3, 7
        rng = np.random.default_rng(5)
        labels = rng.integers(classes, size=120)
        if stream == "class_iid":
            labels = np.sort(labels)
        rows = gaussian_stream(120, dim, seed=2)
        if stream == "rounded":
            rows = np.round(rows)  # repeated points and tied distances
        if strategy == "full":
            capacity = int(np.bincount(labels).max())  # the stream's largest class
        mgr = BufferManager(strategy, capacity, classes, seed=seed)
        refs = {}
        for t, (x, c) in enumerate(zip(rows, labels.tolist()), start=1):
            mgr.insert(x, c, t)
            if c not in refs:
                refs[c] = class_reference(strategy, capacity, c, seed, dim)
            refs[c].insert(x, t)
            blocks = [refs[k].vectors() for k in sorted(refs)]
            want = np.concatenate(blocks)
            want_labels = np.repeat(sorted(refs), [len(b) for b in blocks])
            got, got_labels = mgr.contents()
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, t
            np.testing.assert_array_equal(got_labels, want_labels)
            prototypes, index, filled_labels = mgr.filled()
            assert prototypes[index].tobytes() == want.tobytes()
            np.testing.assert_array_equal(filled_labels, want_labels)
        if strategy == "clustream":
            assert all(ref.initialized for ref in refs.values())

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_prototype_array_never_moves(self, strategy):
        """The array ``filled`` returns is allocated at the first insert and
        is the same object after every later one, past every overflow."""
        labels = np.random.default_rng(3).integers(3, size=90)
        capacity = int(np.bincount(labels).max()) if strategy == "full" else 2
        mgr = BufferManager(strategy, capacity, 3)
        array = None
        for t, (x, c) in enumerate(zip(gaussian_stream(90, 3, seed=4), labels.tolist()), start=1):
            mgr.insert(x, c, t)
            array = mgr.filled()[0] if array is None else array
            assert mgr.filled()[0] is array, t

    def test_empty_stores_keep_their_shapes(self):
        assert CluStreamBuffer(2, np.random.default_rng(0)).vectors().shape == (0, 0)
        assert ExStreamBuffer(2).vectors().shape == (0, 0)
        assert HPStreamBuffer(2, 3).vectors().shape == (0, 3)
        for strategy in STRATEGIES:
            mgr = BufferManager(strategy, 2, num_classes=3)
            _, index, labels = mgr.filled()
            for array in (index, labels):
                assert array.shape == (0,) and array.dtype == np.int64, strategy
                assert not array.flags.writeable, strategy
            assert mgr.contents()[0].shape == (0, 0) and mgr.memory_cost() == 0

    def test_contents_is_a_copy(self):
        mgr = BufferManager("queue", 2, num_classes=1)
        mgr.insert([1.0, 2.0], 0, 1)
        vectors, labels = mgr.contents()
        vectors[:] = 0.0
        labels[:] = 5
        np.testing.assert_array_equal(mgr.contents()[0], [[1.0, 2.0]])
        np.testing.assert_array_equal(mgr.contents()[1], [0])
