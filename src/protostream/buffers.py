"""Memory-bounded per-class prototype stores for rehearsal.

Every class gets its own buffer of capacity b. The vector strategies share
one slot store: per-class arrays of vectors and counts, filled by copying
each incoming sample in with count 1 while a slot is free. Once full, each
strategy decides how to compress:

* exstream        merge the two closest prototypes count-weighted, then
                  store the new point in the freed slot
* online_kmeans   fold the new point into its nearest prototype's running
                  mean and bump that prototype's count
* clustream       micro-clusters (n, linear/squared sums, timestamp sums)
                  with an absorb boundary, horizon-based eviction and
                  closest-pair merging, seeded from a staging store
* hpstream        exponentially faded projected clusters with per-cluster
                  dimension bit vectors
* reservoir       classic reservoir sampling (replace with prob b/M)
* queue           FIFO of the last b samples
* full            unbounded; stores everything

Distance ties always resolve to the lowest slot index. Micro-cluster
strategies cost 2 memory units per cluster, everything else 1 per stored
vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError

STRATEGIES = ("exstream", "online_kmeans", "clustream", "hpstream", "reservoir", "queue", "full")
BOUNDED_STRATEGIES = tuple(s for s in STRATEGIES if s != "full")


@dataclass(frozen=True)
class CluStreamParams:
    """CluStream knobs: eviction horizon, RMS boundary factor, and the
    staged-point multiple (init runs after init_multiplier * b points)."""

    horizon: float = 1000.0
    boundary_factor: float = 2.0
    init_multiplier: int = 2

    def __post_init__(self):
        if self.horizon <= 0 or self.boundary_factor <= 0 or self.init_multiplier < 1:
            raise UsageError("invalid clustream parameters")


@dataclass(frozen=True)
class HPStreamParams:
    """HPStream knobs: decay rate (base-2 exponent per unit time), spread
    radius factor, samples per unit time, and projected dimension count
    (None means half the feature dimension, at least 1)."""

    decay_rate: float = 0.5
    spread_radius_factor: float = 2.0
    speed: float = 200.0
    projected_dims: int | None = None

    def __post_init__(self):
        if self.decay_rate < 0 or self.spread_radius_factor <= 0 or self.speed <= 0:
            raise UsageError("invalid hpstream parameters")
        if self.projected_dims is not None and self.projected_dims < 1:
            raise UsageError("projected_dims must be at least 1")


# Cluster-feature formulas; each takes stacked rows or a single row.
def _centroid(mass, linear):
    return linear / np.asarray(mass, dtype=np.float64)[..., None]


def _rms_radius(n, linear, squared):
    # root of the summed per-dimension variance, clamped at zero
    n = np.asarray(n, dtype=np.float64)[..., None]
    var = squared / n - (linear / n) ** 2
    return np.sqrt(np.maximum(var, 0.0).sum(axis=-1))


def _relevance_stamp(n, timestamp_sum, timestamp_sq_sum, factor):
    mean = timestamp_sum / n
    var = np.maximum(timestamp_sq_sum / n - mean * mean, 0.0)
    return mean + factor * np.sqrt(var)


def _fade(gaps, decay_rate):
    return np.where(gaps > 0, 2.0 ** (-decay_rate * gaps), 1.0)


def _radii(weight, squared, centroid):
    # per-dimension spread; weight <= 1 means radius 0 everywhere
    w = np.asarray(weight, dtype=np.float64)[..., None]
    var = squared / w - centroid * centroid
    return np.where(w <= 1.0, 0.0, np.sqrt(np.maximum(var, 0.0)))


@lru_cache(maxsize=16)
def _upper_pairs(k):
    return np.triu_indices(k, 1)


def _closest_pair(v):
    """Rows (i, j), i < j, at the smallest squared distance; ties go to
    the lexicographically lowest pair."""
    sq = np.einsum("ij,ij->i", v, v)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
    iu, ju = _upper_pairs(len(v))
    k = int(np.argmin(d2[iu, ju]))  # first minimum = lexicographically lowest (i, j)
    return int(iu[k]), int(ju[k])


class SlotStore:
    """At most ``capacity`` vectors with integer counts.

    The (capacity, d) vector array is allocated on the first insert, once
    d is known. While a slot is free an insert copies the sample in with
    count 1; an insert into a full store goes to ``overflow``, the one rule
    each strategy supplies. ``vectors`` and ``counts`` are views of the
    filled rows.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise UsageError("capacity must be at least 1")
        self.capacity = capacity
        self.size = 0
        self._vecs = np.zeros((capacity, 0))
        self._counts = np.zeros(capacity, dtype=np.int64)

    def insert(self, x, t=None):
        if self._vecs.size == 0:
            self._vecs = np.zeros((self.capacity, x.shape[0]))
        if self.size == self.capacity:
            self.overflow(x)
            return
        self._vecs[self.size] = x
        self._counts[self.size] = 1
        self.size += 1

    def overflow(self, x):
        raise UsageError(f"store of {self.capacity} slots is full")

    def vectors(self):
        return self._vecs[: self.size]

    def counts(self):
        return self._counts[: self.size]

    def memory_units(self):
        return self.size


class ExStreamBuffer(SlotStore):
    """Bounded store that merges the two closest prototypes on overflow.

    The merge is count-weighted, (c_i w_i + c_j w_j) / (c_i + c_j) with
    c_i <- c_i + c_j, and the incoming point takes the freed slot with
    count 1. Total count therefore always equals the number of inserts.
    """

    def __init__(self, capacity: int):
        if capacity < 2:
            raise UsageError("exstream needs capacity >= 2 to merge a closest pair")
        super().__init__(capacity)

    def overflow(self, x):
        v, c = self._vecs, self._counts
        i, j = _closest_pair(v)
        ci, cj = c[i], c[j]
        v[i] = (ci * v[i] + cj * v[j]) / (ci + cj)
        c[i] = ci + cj
        v[j] = x
        c[j] = 1


class OnlineKMeansBuffer(SlotStore):
    """Bounded store of running means; the nearest prototype absorbs each
    new point, w_i <- (c_i w_i + x) / (c_i + 1)."""

    def overflow(self, x):
        v, c = self._vecs, self._counts
        i = int(np.argmin(((v - x) ** 2).sum(axis=1)))
        ci = c[i]
        v[i] = (ci * v[i] + x) / (ci + 1)
        c[i] = ci + 1


class ReservoirBuffer(SlotStore):
    """Uniform sample of the stream: the m-th point replaces a uniformly
    chosen slot with probability b/m once the buffer is full."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        super().__init__(capacity)
        self.rng = rng
        self._overflows = 0

    def overflow(self, x):
        self._overflows += 1
        j = int(self.rng.integers(self.capacity + self._overflows))  # m inserts so far
        if j < self.capacity:
            self._vecs[j] = x


class QueueBuffer(SlotStore):
    """FIFO of the most recent b samples, oldest first."""

    def overflow(self, x):
        self._vecs[:-1] = self._vecs[1:]
        self._vecs[-1] = x


class FullBuffer(SlotStore):
    """Unbounded store of every sample, for the full-rehearsal baseline.
    Its arrays double in size whenever they fill."""

    def __init__(self):
        super().__init__(16)

    def overflow(self, x):
        self.capacity *= 2
        self._vecs = np.concatenate([self._vecs, np.zeros_like(self._vecs)])
        self._counts = np.concatenate([self._counts, np.zeros_like(self._counts)])
        self.insert(x)


@dataclass(frozen=True)
class MicroCluster:
    """Read-only snapshot of a CluStream cluster feature vector: count,
    linear and squared sums, and first/second timestamp moments."""

    n: int
    linear_sum: np.ndarray
    squared_sum: np.ndarray
    timestamp_sum: float
    timestamp_sq_sum: float

    def centroid(self):
        return _centroid(self.n, self.linear_sum)

    def rms_radius(self):
        return float(_rms_radius(self.n, self.linear_sum, self.squared_sum))

    def relevance_stamp(self, factor):
        return _relevance_stamp(self.n, self.timestamp_sum, self.timestamp_sq_sum, factor)


class CluStreamBuffer:
    """Micro-cluster store seeded by k-means over a staging pool.

    Raw points are staged in a slot store until init_multiplier * b
    arrive, then Lloyd's algorithm (seeded k-means++ start) builds exactly
    b micro-clusters. A new point joins its nearest cluster when within
    boundary_factor times the cluster RMS deviation (singletons use the
    distance to the nearest other centroid); otherwise it opens a new
    cluster and the structure sheds one cluster, either by evicting a
    cluster whose relevance stamp fell out of the horizon or by merging the
    closest pair. Dropping a cluster keeps the others in order.

    The cluster features live in stacked arrays with one spare row, where
    a new cluster waits until one is shed.
    """

    def __init__(self, capacity: int, params: CluStreamParams, rng: np.random.Generator):
        if capacity < 1:
            raise UsageError("capacity must be at least 1")
        self.capacity = capacity
        self.params = params
        self.rng = rng
        self.staging: SlotStore | None = SlotStore(params.init_multiplier * capacity)
        self._staged_t = np.zeros(self.staging.capacity)
        self._n: np.ndarray | None = None

    @property
    def initialized(self):
        return self._n is not None

    def insert(self, x, t):
        if self._n is None:
            self._staged_t[self.staging.size] = t
            self.staging.insert(x)
            if self.staging.size == self.staging.capacity:
                self._initialize()
            return
        self._stream_insert(x, float(t))

    def _initialize(self):
        points, times = self.staging.vectors(), self._staged_t
        labels = kmeans_lloyd(points, self.capacity, self.rng)[1]
        rows, dim = self.capacity + 1, points.shape[1]
        self._n = np.zeros(rows, dtype=np.int64)
        self._linear = np.zeros((rows, dim))
        self._squared = np.zeros((rows, dim))
        self._t_sum = np.zeros(rows)
        self._t_sq_sum = np.zeros(rows)
        for j in range(self.capacity):
            members = np.flatnonzero(labels == j)
            pts = points[members]
            self._n[j] = len(members)
            self._linear[j] = pts.sum(axis=0)
            self._squared[j] = (pts * pts).sum(axis=0)
            self._t_sum[j] = times[members].sum()
            self._t_sq_sum[j] = (times[members] ** 2).sum()
        self.staging = self._staged_t = None

    def _features(self):
        return self._n, self._linear, self._squared, self._t_sum, self._t_sq_sum

    def _stream_insert(self, x, t):
        k, params = self.capacity, self.params
        n, linear, squared, t_sum, t_sq_sum = self._features()
        cents = _centroid(n[:k], linear[:k])
        d2 = ((cents - x) ** 2).sum(axis=1)
        near = int(np.argmin(d2))
        dist = float(np.sqrt(d2[near]))
        if n[near] >= 2:
            boundary = params.boundary_factor * _rms_radius(n[near], linear[near], squared[near])
        elif k > 1:
            others = ((cents - cents[near]) ** 2).sum(axis=1)
            others[near] = np.inf
            boundary = float(np.sqrt(others.min()))
        else:
            boundary = np.inf
        if dist <= boundary:
            n[near] += 1
            linear[near] += x
            squared[near] += x * x
            t_sum[near] += t
            t_sq_sum[near] += t * t
            return
        n[k], linear[k], squared[k], t_sum[k], t_sq_sum[k] = 1, x, x * x, t, t ** 2
        stamps = _relevance_stamp(n[:k], t_sum[:k], t_sq_sum[:k], params.boundary_factor)
        victim = int(np.argmin(stamps))
        if stamps[victim] < t - params.horizon:
            self._drop(victim)
            return
        # merge the closest pair (the fresh singleton is a candidate too)
        i, j = _closest_pair(_centroid(n, linear))
        for feature in self._features():
            feature[i] += feature[j]
        self._drop(j)

    def _drop(self, j):
        k = self.capacity
        for feature in self._features():
            feature[j:k] = feature[j + 1:k + 1]

    @property
    def clusters(self) -> list[MicroCluster]:
        """Current micro-clusters as snapshots (empty while staging)."""
        if self._n is None:
            return []
        return [MicroCluster(int(self._n[i]), self._linear[i].copy(), self._squared[i].copy(),
                             float(self._t_sum[i]), float(self._t_sq_sum[i]))
                for i in range(self.capacity)]

    def vectors(self):
        if self._n is None:
            return self.staging.vectors()
        return _centroid(self._n[: self.capacity], self._linear[: self.capacity])

    def memory_units(self):
        return self.staging.size if self._n is None else 2 * self.capacity

    @property
    def size(self):
        return self.staging.size if self._n is None else self.capacity


LLOYD_SWEEPS = 100
LLOYD_TOL = 1e-6


def kmeans_lloyd(points, k, rng):
    """Plain Lloyd's k-means with seeded k-means++ initialization.

    Runs at most LLOYD_SWEEPS sweeps or until the largest centroid shift
    drops below LLOYD_TOL. Empty clusters are re-seeded from the point
    farthest from its assigned centroid. Returns (centroids, labels).
    """
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    if k < 1 or m < k:
        raise UsageError(f"k-means needs at least k={k} points, got {m}")
    centers = _kmeans_pp(points, k, rng)
    labels = _assign(points, centers)
    for _ in range(LLOYD_SWEEPS):
        new_centers = centers.copy()
        empty = []
        for j in range(k):
            members = np.flatnonzero(labels == j)
            if len(members):
                new_centers[j] = points[members].mean(axis=0)
            else:
                empty.append(j)
        # re-seed empties from the farthest points, one point per empty cluster
        if empty:
            dists = ((points - new_centers[labels]) ** 2).sum(axis=1)
            for j in empty:
                far = int(np.argmax(dists))
                dists[far] = -np.inf
                new_centers[j] = points[far]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        labels = _assign(points, centers)
        if shift < LLOYD_TOL:
            break
    # pathological duplicate data can still leave a cluster empty; steal
    # one point per empty cluster from the largest cluster so every
    # cluster is non-empty
    for j in range(k):
        if not (labels == j).any():
            counts = np.bincount(labels, minlength=k)
            donor = int(np.argmax(counts))
            steal = int(np.flatnonzero(labels == donor)[-1])
            labels[steal] = j
            centers[j] = points[steal]
    return centers, labels


def _assign(points, centers):
    sq = np.einsum("ij,ij->i", centers, centers)
    d2 = sq[None, :] - 2.0 * (points @ centers.T)
    return np.argmin(d2, axis=1)


def _kmeans_pp(points, k, rng):
    m = len(points)
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(m, p=probs))
        else:
            idx = int(rng.integers(m))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


@dataclass(frozen=True)
class FadedCluster:
    """Read-only snapshot of an HPStream cluster: faded weight and sums,
    the last absorb time (drives replacement), the last fade time, and the
    projected-dimension bit vector."""

    weight: float
    linear_sum: np.ndarray
    squared_sum: np.ndarray
    last_update: float
    last_fade: float
    bits: np.ndarray

    def centroid(self):
        return _centroid(self.weight, self.linear_sum)

    def radii(self):
        return _radii(self.weight, self.squared_sum, self.centroid())


def assign_projected_dims(radii: np.ndarray, dims_per_cluster: int) -> np.ndarray:
    """Pick the k*l globally smallest-radius (cluster, dim) pairs.

    Ties resolve lexicographically by (cluster index, dimension index).
    Any cluster left without a bit afterwards gets its single
    smallest-radius dimension set, so every row has at least one bit.
    """
    radii = np.asarray(radii, dtype=np.float64)
    k, d = radii.shape
    if not 1 <= dims_per_cluster <= d:
        raise UsageError(f"projected_dims must be in [1, {d}], got {dims_per_cluster}")
    # a stable sort of the flat radii keeps (cluster, dim) order among ties
    order = np.argsort(radii.ravel(), kind="stable")
    bits = np.zeros(k * d, dtype=bool)
    bits[order[: k * dims_per_cluster]] = True
    bits = bits.reshape(k, d)
    empty = np.flatnonzero(~bits.any(axis=1))
    bits[empty, np.argmin(radii[empty], axis=1)] = True
    return bits


class HPStreamBuffer:
    """Projected faded-cluster store.

    On every insert into a full buffer the clusters fade by
    2^(-decay_rate * gap), bit vectors are recomputed from per-dimension
    radii (weight <= 1 means radius 0 everywhere), and the point joins the
    cluster with the smallest normalized projected distance if that
    distance is within spread_radius_factor times the cluster's mean
    per-set-bit radius; otherwise it replaces the least recently updated
    cluster. Stream time is the sample index divided by speed.

    Cluster statistics live in stacked arrays so the whole update is a
    handful of vectorized operations.
    """

    def __init__(self, capacity: int, params: HPStreamParams, dim: int):
        if capacity < 1:
            raise UsageError("capacity must be at least 1")
        self.capacity = capacity
        self.params = params
        self.dims = params.projected_dims if params.projected_dims is not None else max(1, dim // 2)
        if self.dims > dim:
            raise UsageError(f"projected_dims {self.dims} exceeds feature dimension {dim}")
        self.size = 0
        self._weight = np.zeros(capacity)
        self._linear = np.zeros((capacity, dim))
        self._squared = np.zeros((capacity, dim))
        self._last_update = np.zeros(capacity)
        self._last_fade = np.zeros(capacity)
        self._bits = np.zeros((capacity, dim), dtype=bool)

    def _seed(self, i, x, t):
        self._weight[i] = 1.0
        self._linear[i] = x
        self._squared[i] = x * x
        self._last_update[i] = t
        self._last_fade[i] = t
        self._bits[i] = False

    def insert(self, x, t_sample):
        t = float(t_sample) / self.params.speed
        if self.size < self.capacity:
            self._seed(self.size, x, t)
            self.size += 1
            return
        if self.params.decay_rate > 0:
            factor = _fade(t - self._last_fade, self.params.decay_rate)
            self._weight *= factor
            self._linear *= factor[:, None]
            self._squared *= factor[:, None]
        self._last_fade[:] = t
        means = _centroid(self._weight, self._linear)
        radii = _radii(self._weight, self._squared, means)
        bits = assign_projected_dims(radii, self.dims)
        self._bits = bits
        d2 = (x - means) ** 2
        dists = np.sqrt((d2 * bits).sum(axis=1) / bits.sum(axis=1))
        near = int(np.argmin(dists))
        limit = self.params.spread_radius_factor * radii[near, bits[near]].mean()
        if dists[near] <= limit:
            self._weight[near] += 1.0
            self._linear[near] += x
            self._squared[near] += x * x
            self._last_update[near] = t
        else:
            self._seed(int(np.argmin(self._last_update)), x, t)

    @property
    def clusters(self) -> list[FadedCluster]:
        """Current clusters as snapshots."""
        return [FadedCluster(float(self._weight[i]), self._linear[i].copy(),
                             self._squared[i].copy(), float(self._last_update[i]),
                             float(self._last_fade[i]), self._bits[i].copy())
                for i in range(self.size)]

    def vectors(self):
        if self.size == 0:
            return np.zeros((0, 0))
        return _centroid(self._weight[: self.size], self._linear[: self.size])

    def memory_units(self):
        return 2 * self.size


class BufferManager:
    """Per-class buffers behind one insert/contents interface.

    Buffers are created lazily on the first sample of each class so the
    feature dimension never has to be declared up front. ``contents``
    returns prototypes in deterministic (class, slot) order.
    """

    def __init__(self, strategy: str, capacity: int, num_classes: int, seed: int = 0):
        if strategy not in STRATEGIES:
            raise UsageError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if num_classes < 1:
            raise UsageError("num_classes must be at least 1")
        if strategy != "full" and capacity < 1:
            raise UsageError("bounded strategies need capacity >= 1")
        self.strategy = strategy
        self.capacity = capacity
        self.num_classes = num_classes
        self.seed = seed
        self._buffers: dict[int, object] = {}
        if strategy == "exstream" and capacity < 2:
            raise UsageError("exstream needs capacity >= 2 to merge a closest pair")

    def _make_buffer(self, label, dim):
        s = self.strategy
        if s == "exstream":
            return ExStreamBuffer(self.capacity)
        if s == "online_kmeans":
            return OnlineKMeansBuffer(self.capacity)
        if s == "clustream":
            rng = np.random.default_rng([self.seed, 5, label])
            return CluStreamBuffer(self.capacity, CluStreamParams(), rng)
        if s == "hpstream":
            return HPStreamBuffer(self.capacity, HPStreamParams(), dim)
        if s == "reservoir":
            rng = np.random.default_rng([self.seed, 4, label])
            return ReservoirBuffer(self.capacity, rng)
        if s == "queue":
            return QueueBuffer(self.capacity)
        return FullBuffer()

    def insert(self, x, label: int, t: float):
        """Route one sample into its class buffer at stream time t."""
        if not 0 <= label < self.num_classes:
            raise UsageError(f"class label {label} outside [0, {self.num_classes})")
        x = np.asarray(x, dtype=np.float64)
        label = int(label)
        if label not in self._buffers:
            self._buffers[label] = self._make_buffer(label, x.shape[0])
        self._buffers[label].insert(x, t)

    def contents(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored prototypes as (vectors, labels), classes in order."""
        blocks = []
        labels = []
        for cls in range(self.num_classes):
            buf = self._buffers.get(cls)
            if buf is None:
                continue
            vecs = buf.vectors()
            if len(vecs):
                blocks.append(vecs)
                labels.append(np.full(len(vecs), cls, dtype=np.int64))
        if not blocks:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        return np.concatenate(blocks, axis=0), np.concatenate(labels)

    def memory_cost(self) -> int:
        """Total units held: 2 per micro/faded cluster, 1 per stored vector."""
        return int(sum(b.memory_units() for b in self._buffers.values()))
