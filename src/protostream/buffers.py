"""Memory-bounded per-class prototype stores for rehearsal.

Every class gets its own buffer of capacity b. All buffers of a
BufferManager keep their prototypes in one array, a block of rows per
class. The vector strategies share one slot store: per-class vectors and
counts, filled by copying each incoming sample in with count 1 while a slot
is free. Once full, each strategy decides how to compress:

* exstream        merge the two closest prototypes count-weighted, then
                  store the new point in the freed slot
* online_kmeans   fold the new point into its nearest prototype's running
                  mean and bump that prototype's count
* clustream       micro-clusters (n, linear/squared sums, timestamp sums)
                  with an absorb boundary, horizon-based eviction and
                  closest-pair merging, seeded by k-means over staged points
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

from functools import lru_cache

import numpy as np

from .errors import UsageError, require_int, require_real, require_seed

STRATEGIES = ("exstream", "online_kmeans", "clustream", "hpstream", "reservoir", "queue", "full")
BOUNDED_STRATEGIES = tuple(s for s in STRATEGIES if s != "full")


def check_capacity(strategy: str, capacity: int, what: str = "capacity") -> None:
    """The capacity rule: a bounded strategy needs at least one slot, and
    exstream two, to merge a closest pair; any other method takes any."""
    least = 2 if strategy == "exstream" else int(strategy in BOUNDED_STRATEGIES)
    if capacity < least:
        raise UsageError(f"{strategy} needs capacity >= {least}, got {what} {capacity}")


# CluStream: eviction horizon in samples, RMS boundary factor, and the
# staging multiple (k-means seeding runs after CLUSTREAM_INIT_MULTIPLIER * b
# points).
CLUSTREAM_HORIZON = 1000.0
CLUSTREAM_BOUNDARY_FACTOR = 2.0
CLUSTREAM_INIT_MULTIPLIER = 2

# HPStream: decay rate (base-2 exponent per unit time), spread radius
# factor, and samples per unit time. Each cluster projects onto half the
# feature dimensions, at least one.
HPSTREAM_DECAY_RATE = 0.5
HPSTREAM_SPREAD_RADIUS_FACTOR = 2.0
HPSTREAM_SPEED = 200.0


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


def _radii(weight, factor, squared, centroid):
    # per-dimension spread of clusters whose statistics fade by factor: a
    # fade leaves the spread as it is, and a faded weight <= 1 means radius
    # 0 everywhere, so only the heavier rows are computed
    w = np.asarray(weight, dtype=np.float64)
    radii = np.zeros(np.shape(centroid))
    heavy = w * factor > 1.0
    if heavy.any():
        c = centroid[heavy]
        var = squared[heavy] / w[heavy][..., None] - c * c
        radii[heavy] = np.sqrt(np.maximum(var, 0.0))
    return radii


def _point_row(x, *head):
    """One point's row of a cluster-statistics matrix: the head columns,
    then x and x * x."""
    return np.concatenate((head, x, x * x))


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

    The vectors live in ``rows``, a (capacity, d) block; a BufferManager
    hands each class a block of its prototype array. A store made without
    one allocates its own on the first insert, once d is known. While a
    slot is free an insert copies the sample in with count 1; an insert
    into a full store goes to ``overflow``, the one rule each strategy
    supplies. ``vectors`` and ``counts`` are views of the filled rows.
    """

    def __init__(self, capacity: int, rows: np.ndarray | None = None):
        if capacity < 1:
            raise UsageError("capacity must be at least 1")
        self.capacity = capacity
        self.size = 0
        self._vecs = np.zeros((capacity, 0)) if rows is None else rows
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

    def move_to(self, rows):
        """Continue in ``rows``, a larger block; filled rows and counts carry over."""
        rows[: self.size] = self.vectors()
        counts = np.zeros(len(rows), dtype=np.int64)
        counts[: self.size] = self.counts()
        self._vecs, self._counts, self.capacity = rows, counts, len(rows)

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

    def __init__(self, capacity: int, rows: np.ndarray | None = None):
        check_capacity("exstream", capacity)
        super().__init__(capacity, rows)

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

    def __init__(self, capacity: int, rng: np.random.Generator,
                 rows: np.ndarray | None = None):
        super().__init__(capacity, rows)
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


class CluStreamBuffer:
    """Micro-cluster store seeded by k-means over a staging pool.

    Raw points are staged in the store's block until
    CLUSTREAM_INIT_MULTIPLIER times b arrive, then Lloyd's algorithm
    (seeded k-means++ start) builds exactly b micro-clusters. A new point
    joins its nearest cluster when within CLUSTREAM_BOUNDARY_FACTOR times
    the cluster RMS deviation (singletons use the distance to the nearest
    other centroid); otherwise it opens a new cluster and the structure
    sheds one cluster, either by evicting a cluster whose relevance stamp
    fell more than CLUSTREAM_HORIZON samples behind, or by merging the
    closest pair. Dropping a cluster keeps the others in order.

    The block is ``rows``, (CLUSTREAM_INIT_MULTIPLIER * b, d), allocated on
    the first insert when not given. Its first ``size`` rows are the
    store's vectors: the staged points, then the b centroids, rewritten
    after every insert. The cluster features are the columns of one
    (b + 1, 3 + 2d) matrix, n, timestamp sum, timestamp squared sum, linear
    sum and squared sum, with a spare row where a new cluster waits until
    one is shed.
    """

    def __init__(self, capacity: int, rng: np.random.Generator,
                 rows: np.ndarray | None = None):
        check_capacity("clustream", capacity)
        self.capacity = capacity
        self.rng = rng
        self.size = 0
        pool = CLUSTREAM_INIT_MULTIPLIER * capacity
        self._rows = np.zeros((pool, 0)) if rows is None else rows
        self._staged_t = np.zeros(pool)
        self._stats: np.ndarray | None = None

    @property
    def initialized(self):
        return self._stats is not None

    def insert(self, x, t):
        if self._stats is not None:
            self._stream_insert(x, float(t))
        else:
            if self._rows.size == 0:
                self._rows = np.zeros((len(self._staged_t), x.shape[0]))
            self._rows[self.size] = x
            self._staged_t[self.size] = t
            self.size += 1
            if self.size < len(self._staged_t):
                return
            self._initialize()
        k = self.capacity
        np.divide(self._linear[:k], self._n[:k, None], out=self._rows[:k])

    def _initialize(self):
        points, times, k = self._rows, self._staged_t, self.capacity
        labels = kmeans_lloyd(points, k, self.rng)[1]
        dim = points.shape[1]
        stats = np.zeros((k + 1, 3 + 2 * dim))
        for j in range(k):
            members = np.flatnonzero(labels == j)
            pts, ts = points[members], times[members]
            stats[j] = np.concatenate(((len(members), ts.sum(), (ts ** 2).sum()),
                                       pts.sum(axis=0), (pts * pts).sum(axis=0)))
        self._stats = stats
        self._n, self._t_sum, self._t_sq_sum = stats[:, 0], stats[:, 1], stats[:, 2]
        self._linear, self._squared = stats[:, 3:3 + dim], stats[:, 3 + dim:]
        self.size = k

    def _stream_insert(self, x, t):
        k, stats = self.capacity, self._stats
        n, linear, squared = self._n, self._linear, self._squared
        cents = self._rows[:k]
        d2 = ((cents - x) ** 2).sum(axis=1)
        near = int(np.argmin(d2))
        dist = float(np.sqrt(d2[near]))
        if n[near] >= 2:
            boundary = CLUSTREAM_BOUNDARY_FACTOR * _rms_radius(n[near], linear[near], squared[near])
        else:  # a lone cluster has no other centroid: boundary inf
            others = ((cents - cents[near]) ** 2).sum(axis=1)
            others[near] = np.inf
            boundary = float(np.sqrt(others.min()))
        point = _point_row(x, 1.0, t, t * t)
        if dist <= boundary:
            stats[near] += point
            return
        stats[k] = point
        stamps = _relevance_stamp(n[:k], self._t_sum[:k], self._t_sq_sum[:k],
                                  CLUSTREAM_BOUNDARY_FACTOR)
        victim = int(np.argmin(stamps))
        if stamps[victim] < t - CLUSTREAM_HORIZON:
            self._drop(victim)
            return
        # merge the closest pair (the fresh singleton is a candidate too)
        i, j = _closest_pair(_centroid(n, linear))
        stats[i] += stats[j]
        self._drop(j)

    def _drop(self, j):
        k = self.capacity
        self._stats[j:k] = self._stats[j + 1:k + 1]

    def vectors(self):
        return self._rows[: self.size]

    def memory_units(self):
        return 2 * self.size if self.initialized else self.size


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
    # every pair below the budget's largest radius v, then the first pairs
    # at v in (cluster, dim) order: what a stable sort would select. NaN
    # sorts last, so a NaN v takes every number, then NaNs in order.
    flat = radii.ravel()
    budget = k * dims_per_cluster
    v = np.partition(flat, budget - 1)[budget - 1]
    if v == v:
        bits = flat < v
        at_v = flat == v
    else:
        bits = ~np.isnan(flat)
        at_v = ~bits
    bits[np.flatnonzero(at_v)[: budget - np.count_nonzero(bits)]] = True
    bits = bits.reshape(k, d)
    empty = np.flatnonzero(~np.logical_or.reduce(bits, axis=1))
    if len(empty):
        bits[empty, np.argmin(radii[empty], axis=1)] = True
    return bits


class HPStreamBuffer:
    """Projected faded-cluster store.

    A cluster fades by 2^(-HPSTREAM_DECAY_RATE * gap) over the time since
    its last update, so each cluster's statistics are kept as of that
    update. On every insert into a full buffer, bit vectors over
    max(1, dim // 2) dimensions per cluster are recomputed from
    per-dimension radii (a faded weight <= 1 means radius 0 everywhere),
    and the point joins the cluster with the smallest normalized projected
    distance if that distance is within HPSTREAM_SPREAD_RADIUS_FACTOR times
    the cluster's mean per-set-bit radius, fading that cluster to now
    first; otherwise it replaces the least recently updated cluster. Stream
    time is the sample index divided by HPSTREAM_SPEED.

    Cluster statistics are the columns of one (capacity, 1 + 2 dim)
    matrix, weight, linear sum and squared sum, so a fade is one row
    multiply. The centroids live in ``rows``, a (capacity, dim) block
    (allocated when not given); an insert rewrites only the row of the
    cluster it seeds or that absorbs it.
    """

    def __init__(self, capacity: int, dim: int, rows: np.ndarray | None = None):
        check_capacity("hpstream", capacity)
        self.capacity = capacity
        self.dims = max(1, dim // 2)
        self.size = 0
        self._means = np.zeros((capacity, dim)) if rows is None else rows
        self._stats = np.zeros((capacity, 1 + 2 * dim))
        self._weight = self._stats[:, 0]
        self._linear, self._squared = self._stats[:, 1:1 + dim], self._stats[:, 1 + dim:]
        self._last_update = np.zeros(capacity)

    def _seed(self, i, x, t):
        self._stats[i] = _point_row(x, 1.0)
        self._last_update[i] = t
        self._means[i] = x  # x / weight 1

    def insert(self, x, t_sample):
        t = float(t_sample) / HPSTREAM_SPEED
        if self.size < self.capacity:
            self._seed(self.size, x, t)
            self.size += 1
            return
        factor = 2.0 ** (-HPSTREAM_DECAY_RATE * (t - self._last_update))
        means = self._means
        radii = _radii(self._weight, factor, self._squared, means)
        bits = assign_projected_dims(radii, self.dims)
        d2 = (x - means) ** 2
        dists = np.sqrt(np.add.reduce(d2 * bits, axis=1) / np.add.reduce(bits, axis=1))
        near = int(np.argmin(dists))
        near_radii = radii[near, bits[near]]
        limit = HPSTREAM_SPREAD_RADIUS_FACTOR * (np.add.reduce(near_radii) / len(near_radii))
        if dists[near] <= limit:
            self._stats[near] *= factor[near]
            self._stats[near] += _point_row(x, 1.0)
            self._last_update[near] = t
            means[near] = self._linear[near] / self._weight[near]
        else:
            self._seed(int(np.argmin(self._last_update)), x, t)

    def vectors(self):
        return self._means[: self.size]

    def memory_units(self):
        return 2 * self.size


class BufferManager:
    """Per-class stores over one prototype array, behind one insert/contents
    interface.

    Class c owns rows [c*B, (c+1)*B) of a (num_classes*B, d) array. B is
    the capacity, twice it for clustream's staging pool, and for full 16
    rows that double whenever a class fills its block. Each store keeps its
    prototypes in its own block, so they are read where they live:
    ``filled`` gives the array with the index of its filled rows in
    (class, slot) order, rebuilt only when a class's size changes, and
    ``contents`` gathers a fresh copy through that index.

    The feature dimension is never declared up front: the first insert
    fixes it, allocates the array and builds every class's store, and
    every later sample must be a finite 1-D vector of that length.
    Stream time never runs backwards: an insert at a time before the
    previous insert's is rejected (an equal time is allowed), because
    hpstream's fading and clustream's relevance stamps assume time order.
    """

    def __init__(self, strategy: str, capacity: int, num_classes: int, seed: int = 0):
        if strategy not in STRATEGIES:
            raise UsageError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        capacity = require_int(capacity, "capacity")
        num_classes = require_int(num_classes, "num_classes")
        if num_classes < 1:
            raise UsageError("num_classes must be at least 1")
        check_capacity(strategy, capacity)
        self.strategy = strategy
        self.capacity = capacity
        self.num_classes = num_classes
        self.seed = require_seed(seed)
        self._dim: int | None = None
        self._block = {"clustream": CLUSTREAM_INIT_MULTIPLIER * capacity,
                       "full": 16}.get(strategy, capacity)
        self._rows = np.zeros((0, 0))
        self._stores: list = []
        self._index: np.ndarray | None = None
        self._t = -np.inf  # stream time of the latest insert

    def _class_rows(self, label):
        return self._rows[label * self._block:(label + 1) * self._block]

    def _make_buffer(self, label):
        s, rows = self.strategy, self._class_rows(label)
        if s == "exstream":
            return ExStreamBuffer(self.capacity, rows)
        if s == "online_kmeans":
            return OnlineKMeansBuffer(self.capacity, rows)
        if s == "clustream":
            rng = np.random.default_rng([self.seed, 5, label])
            return CluStreamBuffer(self.capacity, rng, rows)
        if s == "hpstream":
            return HPStreamBuffer(self.capacity, self._dim, rows)
        if s == "reservoir":
            rng = np.random.default_rng([self.seed, 4, label])
            return ReservoirBuffer(self.capacity, rng, rows)
        if s == "queue":
            return QueueBuffer(self.capacity, rows)
        return SlotStore(self._block, rows)  # full: grown by _grow before it overflows

    def _grow(self):
        """Double every class block of full's array; stores keep their rows."""
        self._block *= 2
        self._rows = np.zeros((self.num_classes * self._block, self._dim))
        for label, store in enumerate(self._stores):
            store.move_to(self._class_rows(label))
        self._index = None

    def insert(self, x, label: int, t: float):
        """Route one sample into its class buffer at stream time t, a finite
        number no smaller than the previous insert's."""
        label = require_int(label, "class label")
        if not 0 <= label < self.num_classes:
            raise UsageError(f"class label {label} outside [0, {self.num_classes})")
        t = require_real(t, "stream time t")
        if t < self._t:
            raise UsageError(f"stream time t={t} is before the previous insert's {self._t}")
        x = np.asarray(x, dtype=np.float64)
        dim = self._dim or (len(x) if x.ndim == 1 else 0)
        if dim == 0 or x.shape != (dim,):
            raise UsageError(f"sample must be a 1-D vector of length {self._dim or '>= 1'}, "
                             f"got shape {x.shape}")
        if not np.isfinite(x).all():
            raise UsageError("sample values must be finite numbers")
        if self._dim is None:
            self._dim = dim
            self._rows = np.zeros((self.num_classes * self._block, dim))
            self._stores = [self._make_buffer(c) for c in range(self.num_classes)]
        self._t = t
        store = self._stores[label]
        if self.strategy == "full" and store.size == store.capacity:
            self._grow()
        size = store.size
        store.insert(x, t)
        if store.size != size:
            self._index = None

    def filled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(prototypes, index, labels): the live prototype array, the rows
        of it that hold prototypes in (class, slot) order, and their class
        labels. Callers only read them, and only until the next insert;
        rehearsal gathers its minibatches through them."""
        if self._index is None:
            sizes = np.array([store.size for store in self._stores], dtype=np.int64)
            self._index = np.flatnonzero(np.arange(self._block) < sizes[:, None])
            self._labels = self._index // self._block
            self._index.flags.writeable = self._labels.flags.writeable = False
        return self._rows, self._index, self._labels

    def contents(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored prototypes as (vectors, labels), classes in order: a
        fresh copy, gathered through ``filled``."""
        rows, index, labels = self.filled()
        return rows.take(index, axis=0), labels.copy()

    def memory_cost(self) -> int:
        """Total units held: 2 per micro/faded cluster, 1 per stored vector."""
        return int(sum(store.memory_units() for store in self._stores))
