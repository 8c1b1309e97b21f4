"""The names the benchmark's tracer patches still exist and are still called,
and the command line still accepts the configs the benchmark writes.

perfbench/tracing.py wraps functions and methods of the package by name
(its TARGETS). A refactor that renames one, or routes the work around it,
leaves the benchmark silently reading zeros; these tests catch that, and a
change to the CLI's config schema that the benchmark's sweep would trip on.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import protostream.protocol as P
from protostream import (STRATEGIES, Dataset, LabeledSample, MLPConfig, RunConfig,
                         StreamOrdering, SynthSpec, l2_normalize, omega_score, synth_gaussian)
from protostream.buffers import ExStreamBuffer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_perfbench("tracing")
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_streaming_and_offline_spans_are_recorded():
    tracing = load_perfbench("tracing")
    ds = synth_gaussian(SynthSpec(3, 6, 12, 4, class_mean_separation=6.0, seed=0))
    config = RunConfig("exstream", 4, StreamOrdering("class_iid", 0),
                       MLPConfig(layer_sizes=(8,), learning_rate=0.1, batch_size=8),
                       eval_every=12)
    tracer = tracing.Tracer()
    with tracer.installed():
        P.execute_run(ds, config)
        P.run_offline_baseline(ds, config, 2)
    names = set(tracer.names)
    for span in ("mlp.train_minibatch", "buffers.insert.exstream",
                 "protocol.rehearsal_update", "mlp.fit_offline"):
        assert span in names, span


# perfbench/run.py's imports in a fresh interpreter: the script's directory
# first on the path, src before it, then checks and workloads, then tracing
TRACE_FRESH = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import checks, workloads
import tracing
from protostream import MLPConfig, RunConfig, StreamOrdering, SynthSpec, synth_gaussian
import protostream.protocol as P
ds = synth_gaussian(SynthSpec(3, 6, 12, 4, class_mean_separation=6.0, seed=0))
config = RunConfig("exstream", 4, StreamOrdering("class_iid", 0),
                   MLPConfig(layer_sizes=(8,), learning_rate=0.1, batch_size=8), eval_every=12)
tracer = tracing.Tracer()
with tracer.installed():
    P.execute_run(ds, config)
print(json.dumps(sorted(set(tracer.names))))
"""


def test_spans_are_recorded_in_a_fresh_benchmark_process():
    """The benchmark's tracer finds every module it patches when imported
    as perfbench/run.py imports it, though the package loads its layers
    only on first use."""
    src = Path(P.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", TRACE_FRESH, str(src), str(PERFBENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert "protocol.execute_run" in names and "mlp.train_minibatch" in names


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rehearsal_steps_are_recorded_for_every_strategy(strategy):
    """Every sample's rehearsal pass is a protocol.rehearsal_update span
    holding its mlp.train_minibatch step (one: the batch exceeds the buffer)."""
    tracing = load_perfbench("tracing")
    ds = synth_gaussian(SynthSpec(3, 6, 12, 4, class_mean_separation=6.0, seed=0))
    config = RunConfig(strategy, 0 if strategy == "full" else 4, StreamOrdering("iid", 0),
                       MLPConfig(layer_sizes=(8,), learning_rate=0.1, batch_size=64),
                       eval_every=12)
    tracer = tracing.Tracer()
    with tracer.installed():
        P.execute_run(ds, config)
    names, parents = tracer.names, tracer.parents
    rehearsals = [i for i, n in enumerate(names) if n == "protocol.rehearsal_update"]
    steps = [parents[i] for i, n in enumerate(names) if n == "mlp.train_minibatch"]
    assert len(rehearsals) == len(ds.train) == names.count(f"buffers.insert.{strategy}")
    assert sorted(steps) == rehearsals


def test_workload_call_shapes():
    """The constructions perfbench/workloads.py makes with the package's
    public names, called the way it calls them."""
    raw = synth_gaussian(SynthSpec(3, 6, 12, 4, class_mean_separation=6.0, seed=0))

    def norm(samples):
        return [LabeledSample(l2_normalize(s.features), s.class_label, s.instance_id,
                              s.frame_index, s.split) for s in samples]
    ds = Dataset(norm(raw.train), norm(raw.test), raw.num_classes, raw.dim, raw.name)
    assert sorted({s.class_label for s in ds.train}) == [0, 1, 2]
    config = RunConfig("exstream", 4, StreamOrdering("class_iid", 0),
                       MLPConfig(layer_sizes=(8,), learning_rate=0.1, batch_size=8),
                       eval_every=12, buffer_seed=0, dataset_name="bench")
    result = P.execute_run(ds, config)
    offline_curve, _ = P.run_offline_baseline(ds, config, 2)
    assert [t for t, _ in result.curve.events] == [12, 24, 36]
    assert result.memory_cost == 3 * 4 and result.wall_clock_s > 0
    assert 0 <= omega_score(result.curve, offline_curve, config.buffer_size).omega

    store = ExStreamBuffer(4)
    x, _ = ds.train_arrays()
    for t, row in enumerate(x[:6], start=1):
        store.insert(row, t)
    assert store.vectors().shape == (4, ds.dim) and store.counts().sum() == 6
    np.testing.assert_allclose(store.counts() @ store.vectors(), x[:6].sum(axis=0))


def test_cli_accepts_the_benchmark_configs(tmp_path, monkeypatch):
    """cli_sweep's round, shrunk to a tiny dataset, 1 epoch and 1 seed:
    its synth, baseline and sweep configs keep the benchmark's keys, and
    each command it runs in process (run with --jobs 1) must exit 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports checks
    workloads = load_perfbench("workloads")

    class TinySweep(workloads.CliSweep):
        SYNTH = {**workloads.CliSweep.SYNTH, "num_classes": 2, "dim": 4,
                 "samples_per_class_train": 10, "samples_per_class_test": 5,
                 "instances_per_class": 2}
        EPOCHS = 1
        METHODS = ("exstream", "no_buffer")
        SIZES = (2,)
        ORDERINGS = ("iid",)

    sweep = TinySweep("cli_sweep", 0, tmp_path)
    sweep.seeds = [0]
    rnd, (_, _, runs, _, log, report) = sweep.round(0, in_process=True)
    assert {r["run_id"] for r in map(json.loads, log.read_text().splitlines())} == set(runs)
    assert (report / "omega_table.csv").exists() and rnd.samples == 20 * len(runs)
