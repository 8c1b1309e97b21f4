"""The benchmark's workloads.

A workload builds its inputs from the seed, runs one round of timed work
(set-up, offline reference, streaming runs, scoring) and then checks the
round's outputs with ``checks``. Every round of a run repeats the same
operations on the same inputs. Calls into the program go through module
attributes (``P.execute_run``, not a name imported once) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import protostream.buffers as B
import protostream.cli as C
import protostream.data as D
import protostream.metrics as M
import protostream.mlp as ML
import protostream.protocol as P

import checks as K

clock = time.perf_counter
JOBS = min(2, len(os.sched_getaffinity(0)))
# Short set-up and baseline steps are repeated within a round and reported
# as medians, so that one slow repeat does not set the figure.
SETUP_REPEATS = 3
BASELINE_REPEATS = 3


@dataclass
class Round:
    """Timings and outputs of one round; ``omegas`` maps run label to Ω."""

    setup_s: list[float]
    baseline_s: list[float]
    stream_s: float
    samples: int
    omegas: dict[str, float]
    extra: dict = field(default_factory=dict)

    @property
    def runs(self):
        return len(self.omegas)


@dataclass(frozen=True)
class InProcessSpec:
    """A workload that calls the library in this process."""

    synth: dict
    normalize: bool
    mlp: dict
    runs: tuple  # (method, buffer size)
    ordering: str
    eval_every: int
    epochs: int
    baseline_repeats: int


PAPER_EMBED = InProcessSpec(
    synth=dict(num_classes=10, dim=2048, samples_per_class_train=30,
               samples_per_class_test=20, instances_per_class=4,
               class_mean_separation=60.0, noise_std=1.0),
    normalize=True,
    mlp=dict(layer_sizes=(300, 150, 100), activation="relu", dropout_keep=0.5,
             weight_decay=0.005, learning_rate=0.03, batch_size=256),
    runs=(("exstream", 16), ("no_buffer", 0)),
    ordering="class_iid", eval_every=25, epochs=60, baseline_repeats=1)

BUFFER_COMPRESS = InProcessSpec(
    synth=dict(num_classes=8, dim=64, samples_per_class_train=200,
               samples_per_class_test=50, instances_per_class=8,
               class_mean_separation=10.0, noise_std=1.0),
    normalize=False,
    mlp=dict(layer_sizes=(), learning_rate=0.1, batch_size=256),
    runs=(("exstream", 64), ("online_kmeans", 64), ("clustream", 64), ("hpstream", 64)),
    ordering="class_instance", eval_every=50, epochs=100, baseline_repeats=3)

# Accuracy margins, checked on every seed the benchmark runs: the offline
# reference, and rehearsal runs at the end of a class_iid stream, are at
# least ABOVE_CHANCE over chance; there no_buffer ends at most NEAR_CHANCE
# over chance and full at most NEAR_OFFLINE under the offline reference.
ABOVE_CHANCE = 0.3
NEAR_CHANCE = 0.25
NEAR_OFFLINE = 0.1


def _normalized(ds):
    def norm(samples):
        return [D.LabeledSample(D.l2_normalize(s.features), s.class_label, s.instance_id,
                                s.frame_index, s.split) for s in samples]
    return D.Dataset(norm(ds.train), norm(ds.test), ds.num_classes, ds.dim, ds.name)


def _class_counts(ds):
    counts = np.bincount([s.class_label for s in ds.train], minlength=ds.num_classes)
    return counts.tolist()


def _final(values):
    return float(values[-1])


class InProcessWorkload:
    """paper_embed and buffer_compress: ``execute_run`` per method against
    one ``run_offline_baseline`` reference."""

    def __init__(self, name, spec: InProcessSpec, seed: int, workdir: Path):
        self.name, self.spec, self.seed, self.workdir = name, spec, seed, workdir

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _config(self, method, b):
        mlp = ML.MLPConfig(**self.spec.mlp, seed=self.seed)
        return P.RunConfig(method, b, D.StreamOrdering(self.spec.ordering, self.seed), mlp,
                           eval_every=self.spec.eval_every, buffer_seed=self.seed)

    def round(self, k, in_process=True):
        """One round. These workloads always run in this process;
        ``in_process`` is taken for the same call as ``CliSweep.round``."""
        spec = self.spec
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            ds = D.synth_gaussian(D.SynthSpec(**spec.synth, seed=self.seed))
            if spec.normalize:
                ds = _normalized(ds)
            setup_s.append(clock() - t0)
        configs = [self._config(m, b) for m, b in spec.runs]
        baseline_s = []
        for _ in range(spec.baseline_repeats):
            t0 = clock()
            offline_curve, offline_acc = P.run_offline_baseline(ds, configs[0], spec.epochs)
            baseline_s.append(clock() - t0)
        t0 = clock()
        results = [P.execute_run(ds, cfg) for cfg in configs]
        scores = [M.omega_score(r.curve, offline_curve, cfg.buffer_size).omega
                  for r, cfg in zip(results, configs)]
        stream_s = clock() - t0
        labels = [f"{cfg.strategy}-b{cfg.buffer_size}" for cfg in configs]
        rnd = Round(setup_s, baseline_s, stream_s, len(ds.train) * len(configs),
                    dict(zip(labels, scores)))
        return rnd, (ds, configs, results, scores, offline_curve, offline_acc)

    def check(self, outputs):
        ds, configs, results, scores, offline_curve, offline_acc = outputs
        spec, n, k = self.spec, len(ds.train), ds.num_classes
        counts = _class_counts(ds)
        K.check_above_chance("offline reference", offline_acc, k, ABOVE_CHANCE)
        K.check_curve("offline reference", offline_curve.times, offline_curve.values,
                      n, spec.eval_every, len(ds.test))
        for cfg, result, score in zip(configs, results, scores):
            label = f"{self.name} {cfg.strategy}"
            values = result.curve.values.tolist()
            K.check_curve(label, result.curve.times.tolist(), values, n, spec.eval_every,
                          len(ds.test))
            K.check_memory_cost(label, cfg.strategy, cfg.buffer_size, counts, result.memory_cost)
            K.check_omega_exact(label, values, offline_acc, score)
            if spec.ordering == "class_iid":
                if cfg.strategy == "no_buffer":
                    K.check_near_chance(label + " final", _final(values), k, NEAR_CHANCE)
                else:
                    K.check_above_chance(label + " final", _final(values), k, ABOVE_CHANCE)
        for cfg in configs:
            if cfg.strategy == "exstream":
                self._check_exstream_mass(ds, cfg)
        return {}

    def _check_exstream_mass(self, ds, config):
        """Replay the run's stream into per-class ExStream stores; the
        manager the protocol uses must hold the same prototypes."""
        x, y = ds.train_arrays()
        order = D.order_stream(ds, config.ordering)
        b = config.buffer_size
        manager = B.BufferManager("exstream", b, ds.num_classes, seed=config.buffer_seed)
        stores, streams = {}, {}
        for t, idx in enumerate(order, start=1):
            c = int(y[idx])
            manager.insert(x[idx], c, t)
            if c not in stores:
                stores[c], streams[c] = B.ExStreamBuffer(b), []
            stores[c].insert(x[idx], t)
            streams[c].append(x[idx])
        vectors, labels = manager.contents()
        for c, store in stores.items():
            K.require(np.array_equal(vectors[labels == c], store.vectors()),
                      f"exstream class {c}: manager prototypes differ from the store's")
        K.check_exstream_mass(f"{self.name} exstream", streams,
                              {c: s.counts() for c, s in stores.items()},
                              {c: s.vectors() for c, s in stores.items()})


class CliSweep:
    """The user's sweep path: synth -> baseline -> run -> report."""

    DATASET = "bench"
    SYNTH = dict(num_classes=4, dim=16, samples_per_class_train=100,
                 samples_per_class_test=50, instances_per_class=4,
                 class_mean_separation=6.0, noise_std=1.0)
    MLP = dict(layer_sizes=[32], learning_rate=0.1, batch_size=32)
    EPOCHS = 30
    METHODS = ("exstream", "reservoir", "queue", "full", "no_buffer")
    SIZES = (2, 8, 32)
    ORDERINGS = ("iid", "class_iid")
    EVAL_EVERY = 1
    # (method, buffer size, ordering, seed offset) re-executed in process
    RERUN = (("exstream", 8, "class_iid", 0), ("reservoir", 2, "iid", 2))

    def __init__(self, name, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.seeds = [seed, seed + 1, seed + 2]
        self.synth_cfg = workdir / "synth.json"
        self.synth_cfg.write_text(json.dumps({**self.SYNTH, "seed": seed}))
        self.baseline_cfg = workdir / "baseline.json"
        self.baseline_cfg.write_text(json.dumps(
            {"dataset": self.DATASET, "epochs": self.EPOCHS, "mlp": {**self.MLP, "seed": seed}}))
        self.env = dict(os.environ, PYTHONPATH=str(Path(C.__file__).resolve().parents[1]),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def expected_runs(self):
        """run_id -> (dataset, ordering, method, buffer size) for every run of the sweep."""
        runs = {}
        for method in self.METHODS:
            for b in ((0,) if method in ("full", "no_buffer") else self.SIZES):
                for ordering in self.ORDERINGS:
                    for s in self.seeds:
                        run_id = f"{self.DATASET}-{method}-b{b}-{ordering}-s{s}"
                        runs[run_id] = (self.DATASET, ordering, method, b)
        return runs

    def _cli(self, in_process, *args):
        args = [str(a) for a in args]
        if in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = C.main(args)
            if code != 0:
                raise RuntimeError(f"protostream {args[0]} exited {code}")
            return
        proc = subprocess.run([sys.executable, "-m", "protostream.cli", *args], env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"protostream {args[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")

    def round(self, k, in_process=False):
        """One pass of the sweep path. ``in_process`` runs each command through
        ``cli.main`` in this process with ``--jobs 1`` (for tracing); otherwise
        each command is its own process and ``run`` uses ``--jobs JOBS``."""
        rd = self.workdir / f"round{k}"
        data = rd / "data"
        feat, manifest = data / "features.feat", data / "manifest.csv"
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            self._cli(in_process, "synth", "--config", self.synth_cfg, "--out", data)
            ds = D.load_manifest(manifest, D.load_feature_matrix(feat), name=self.DATASET)
            setup_s.append(clock() - t0)
        baseline = rd / "baseline_out.json"
        baseline_s = []
        for _ in range(BASELINE_REPEATS):
            t0 = clock()
            self._cli(in_process, "baseline", "--features", feat, "--manifest", manifest,
                      "--config", self.baseline_cfg, "--out", baseline)
            baseline_s.append(clock() - t0)
        sweep = rd / "sweep.json"
        sweep.write_text(json.dumps({
            "dataset": self.DATASET, "features": str(feat), "manifest": str(manifest),
            "methods": list(self.METHODS), "orderings": list(self.ORDERINGS),
            "seeds": self.seeds, "buffer_sizes": list(self.SIZES),
            "eval_every": self.EVAL_EVERY, "mlp": self.MLP}))
        log, report = rd / "results.jsonl", rd / "report"
        jobs = 1 if in_process else JOBS
        t0 = clock()
        self._cli(in_process, "run", "--config", sweep, "--baseline", baseline,
                  "--jobs", jobs, "--out", log)
        t1 = clock()
        self._cli(in_process, "report", "--results", log, "--baseline", baseline, "--out", report)
        t2 = clock()
        runs = self.expected_runs()
        rnd = Round(setup_s, baseline_s, t2 - t0, len(ds.train) * len(runs), {},
                    extra={"run_s": t1 - t0})
        return rnd, (rnd, ds, runs, baseline, log, report)

    def check(self, outputs):
        """Fills the round's per-run Ω from the log and returns figures read
        off the log for the traced run."""
        rnd, ds, runs, baseline_path, log, report = outputs
        n, k = len(ds.train), ds.num_classes
        counts = _class_counts(ds)
        offline_acc = float(json.loads(baseline_path.read_text())["accuracy"])
        K.check_above_chance("offline reference", offline_acc, k, ABOVE_CHANCE)
        records = K.parse_log(log)
        events, terminal = K.split_log(records, list(runs))
        omegas, forgetting = {}, []
        for run_id, (_, ordering, method, b) in runs.items():
            times = [t for t, _ in events.get(run_id, [])]
            values = [a for _, a in events.get(run_id, [])]
            K.check_curve(run_id, times, values, n, self.EVAL_EVERY, len(ds.test))
            K.check_memory_cost(run_id, method, b, counts, terminal[run_id]["memory_cost"])
            omegas[run_id] = K.recompute_omega(values, offline_acc)
            if ordering == "class_iid":
                final = _final(values)
                if method == "no_buffer":
                    forgetting.append(final)
                elif method in ("exstream", "full"):
                    K.check_above_chance(run_id + " final", final, k, ABOVE_CHANCE)
                if method == "full":
                    K.check_near_offline(run_id, final, offline_acc, NEAR_OFFLINE)
        # A single 16-d no_buffer run sometimes keeps part of one earlier
        # class (up to 0.45 at chance 0.25 over 60 runs), so the mean over
        # the sweep's seeds is held near chance (at most 0.36 on seeds 0-19).
        K.check_near_chance("no_buffer class_iid mean final", float(np.mean(forgetting)),
                            k, NEAR_CHANCE)
        K.check_omega_table(K.read_table(report / "omega_table.csv"), omegas, runs,
                            len(self.seeds))
        for method, b, ordering, offset in self.RERUN:
            s = self.seeds[offset]
            run_id = f"{self.DATASET}-{method}-b{b}-{ordering}-s{s}"
            config = P.RunConfig(method, b, D.StreamOrdering(ordering, s),
                                 ML.MLPConfig(**{**self.MLP, "seed": s}),
                                 eval_every=self.EVAL_EVERY, buffer_seed=s,
                                 dataset_name=self.DATASET)
            curve = P.execute_run(ds, config).curve
            K.require(curve.events == events[run_id],
                      f"{run_id}: curve re-executed in process differs from the log")
        rnd.omegas.update(omegas)
        wall_sum = sum(float(r["wall_clock_s"]) for r in terminal.values())
        return {"log_bytes": log.stat().st_size, "log_records": len(records),
                "parallel_speedup": wall_sum / rnd.extra["run_s"]}


def make(name, seed, workdir):
    if name == "paper_embed":
        return InProcessWorkload(name, PAPER_EMBED, seed, workdir)
    if name == "buffer_compress":
        return InProcessWorkload(name, BUFFER_COMPRESS, seed, workdir)
    if name == "cli_sweep":
        return CliSweep(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
