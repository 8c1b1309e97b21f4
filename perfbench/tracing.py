"""Spans around the calls into protostream's layers.

The tracer replaces public functions and methods of the layer modules
with timing wrappers while it is installed, and puts the originals back
when it is removed. Spans (name, start, end, parent) stay in memory and
are written out once, at the end of the run. A layer is a module; its
self time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

import protostream.cli  # noqa: F401  (loads every layer module the targets name)

LAYERS = ("buffers", "mlp", "protocol", "data", "cli")
STRATEGIES = ("exstream", "online_kmeans", "clustream", "hpstream", "reservoir", "queue", "full")
METHODS = STRATEGIES + ("no_buffer",)


def _note_rows(tracer, idx, args, result):
    tracer.notes[idx] = len(result[0])


def _note_train(tracer, idx, args, result):
    model, inputs = args[0], args[1]
    sizes = (model.dim, *model.config.layer_sizes, model.num_classes)
    tracer.notes[idx] = (len(inputs), sizes)


def _note_run(tracer, idx, args, result):
    tracer.notes[idx] = (args[1].strategy, result.wall_clock_s)


# (module, attribute, span name, note). A dotted attribute is a method
# patched on its class; a plain one is a function replaced in every
# protostream module that imported it by name.
TARGETS = (
    ("protostream.buffers", "BufferManager.insert",
     lambda args: "buffers.insert." + args[0].strategy, None),
    ("protostream.buffers", "BufferManager.contents", "buffers.contents", _note_rows),
    ("protostream.mlp", "MLPClassifier.train_minibatch", "mlp.train_minibatch", _note_train),
    ("protostream.mlp", "evaluate_accuracy", "mlp.evaluate_accuracy", None),
    ("protostream.mlp", "fit_offline", "mlp.fit_offline", None),
    ("protostream.protocol", "execute_run", "protocol.execute_run", _note_run),
    ("protostream.protocol", "rehearsal_update", "protocol.rehearsal_update", None),
    ("protostream.protocol", "run_offline_baseline", "protocol.run_offline_baseline", None),
    ("protostream.data", "synth_gaussian", "data.synth_gaussian", None),
    ("protostream.data", "load_feature_matrix", "data.load_feature_matrix", None),
    ("protostream.data", "load_manifest", "data.load_manifest", None),
    ("protostream.data", "order_stream", "data.order_stream", None),
    ("protostream.data", "Dataset.train_arrays", "data.train_arrays", None),
    ("protostream.data", "Dataset.test_arrays", "data.test_arrays", None),
    ("protostream.cli", "cmd_synth", "cli.synth", None),
    ("protostream.cli", "cmd_baseline", "cli.baseline", None),
    ("protostream.cli", "cmd_run", "cli.run", None),
    ("protostream.cli", "cmd_report", "cli.report", None),
)


class Tracer:
    """In-memory span recorder. Use ``installed()`` around traced work."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []

    def _wrapper(self, fn, name, note):
        tracer = self
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name if isinstance(name, str) else name(args))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(tracer, idx, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self):
        patches = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "protostream" or n.startswith("protostream."))]
        try:
            for module_name, attr, name, note in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    patches.append((owner, meth, original))
                    setattr(owner, meth, self._wrapper(original, name, note))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrapper(original, name, note)
                for owner in modules:
                    if owner.__dict__.get(attr) is original:
                        patches.append((owner, attr, original))
                        setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def save(self, path):
        """Write the spans as arrays (name table plus per-span columns)."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(path, names=np.array(table),
                 name=np.array([index[n] for n in self.names], dtype=np.int32),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int32))


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def matmul_floor_s(m, sizes, reps=3):
    """Fastest of ``reps`` runs of the bare matmuls one SGD step needs at
    batch m: forward X@W, then weight grad H^T@dZ and input grad dZ@W^T
    for every layer."""
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    x = rng.standard_normal((m, sizes[0]))

    def step():
        h, acts = x, []
        for w in weights:
            acts.append(h)
            h = h @ w
        dz = h
        for w, a in zip(reversed(weights), reversed(acts)):
            a.T @ dz
            dz = dz @ w.T

    step()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - t0)
    return best


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of ``rounds`` traced rounds.

    Counts and self times are per round. Medians are per call. Layers,
    strategies or methods that a workload does not run read 0.
    """
    n = len(tracer.names)
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0.0] * n
    context = [""] * n  # "stream" under execute_run, "offline" under fit_offline
    by_name: dict[str, list[int]] = {}
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        if parent >= 0:
            child[parent] += durations[i]
            context[i] = context[parent]
        if name == "protocol.execute_run":
            context[i] = "stream"
        elif name == "mlp.fit_offline":
            context[i] = "offline"
        by_name.setdefault(name, []).append(i)

    def spans(name, where=None):
        return [i for i in by_name.get(name, ()) if where is None or context[i] == where]

    def durs(idx, scale=1.0):
        return [durations[i] * scale for i in idx]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(tracer.names):
        self_s[name.split(".", 1)[0]] += durations[i] - child[i]

    inserts = [i for name, idx in by_name.items()
               if name.startswith("buffers.insert.") for i in idx]
    contents = spans("buffers.contents", "stream")
    train_stream = spans("mlp.train_minibatch", "stream")
    evals = spans("mlp.evaluate_accuracy", "stream")
    runs = spans("protocol.execute_run")
    streaming = sum(durs(runs)) or float("inf")
    buffer_busy = sum(durs(inserts)) + sum(durs(contents))
    mlp_busy = sum(durs(train_stream)) + sum(durs(evals))

    all_train = spans("mlp.train_minibatch")
    shapes: dict[tuple, int] = {}
    for i in all_train:
        shapes[tracer.notes[i]] = shapes.get(tracer.notes[i], 0) + 1
    floor = sum(count * matmul_floor_s(m, sizes) for (m, sizes), count in shapes.items())

    out = {
        "buffers.insert_us": (_median(durs(inserts), 1e6), "us"),
        "buffers.contents_us": (_median(durs(contents), 1e6), "us"),
        "buffers.inserts": (len(inserts) / rounds, "count"),
        "buffers.contents_rows": (float(np.mean([tracer.notes[i] for i in contents]))
                                  if contents else 0.0, "rows"),
        "buffers.busy_share": (buffer_busy / streaming, "share"),
        "mlp.train_us": (_median(durs(train_stream), 1e6), "us"),
        "mlp.train_us.single": (_median([durations[i] * 1e6 for i in train_stream
                                         if tracer.notes[i][0] == 1]), "us"),
        "mlp.offline_train_us": (_median(durs(spans("mlp.train_minibatch", "offline"), 1e6)), "us"),
        "mlp.floor_ratio": (sum(durs(all_train)) / floor if floor else 0.0, "ratio"),
        "mlp.train_calls": (len(train_stream) / rounds, "count"),
        "mlp.train_rows": (sum(tracer.notes[i][0] for i in train_stream) / rounds, "count"),
        "mlp.busy_share": (mlp_busy / streaming, "share"),
        "mlp.eval_ms": (_median(durs(evals), 1e3), "ms"),
        "mlp.eval_calls": (len(evals) / rounds, "count"),
        "protocol.rehearsal_us": (_median(durs(spans("protocol.rehearsal_update")), 1e6), "us"),
        "protocol.self_share": (1.0 - (buffer_busy + mlp_busy) / streaming if runs else 0.0,
                                "share"),
        "data.synth_ms": (_median(durs(spans("data.synth_gaussian")), 1e3), "ms"),
        "data.load_feature_matrix_ms": (_median(durs(spans("data.load_feature_matrix")), 1e3),
                                        "ms"),
        "data.load_manifest_ms": (_median(durs(spans("data.load_manifest")), 1e3), "ms"),
        "data.order_stream_ms": (_median(durs(spans("data.order_stream")), 1e3), "ms"),
        "data.train_arrays_ms": (_median(durs(spans("data.train_arrays")), 1e3), "ms"),
        "cli.run_s": (_median(durs(spans("cli.run"))), "s"),
        "cli.report_s": (_median(durs(spans("cli.report"))), "s"),
        "trace.spans": (n / rounds, "count"),
    }
    for s in STRATEGIES:
        out[f"buffers.insert_us.{s}"] = (_median(durs(spans(f"buffers.insert.{s}")), 1e6), "us")
    for m in METHODS:
        walls = [tracer.notes[i][1] for i in runs if tracer.notes[i][0] == m]
        out[f"protocol.run_s.{m}"] = (_median(walls), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer] / rounds, "s")
    return out
