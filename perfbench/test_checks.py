"""Self-tests of the benchmark's checks: each passes on a tiny workload and
fails on tampered output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks as K  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

TINY_STREAM = dataclasses.replace(
    W.BUFFER_COMPRESS,
    synth=dict(num_classes=4, dim=16, samples_per_class_train=50, samples_per_class_test=20,
               instances_per_class=2, class_mean_separation=6.0, noise_std=1.0),
    normalize=True, mlp=dict(layer_sizes=(16,), learning_rate=0.1, batch_size=16),
    runs=(("exstream", 4), ("clustream", 4), ("no_buffer", 0)),
    ordering="class_iid", eval_every=7)


class TinySweep(W.CliSweep):
    SYNTH = dict(num_classes=4, dim=16, samples_per_class_train=40, samples_per_class_test=20,
                 instances_per_class=2, class_mean_separation=6.0, noise_std=1.0)
    MLP = dict(layer_sizes=[16], learning_rate=0.1, batch_size=16)
    EPOCHS = 20
    METHODS = ("exstream", "full", "no_buffer")
    SIZES = (2, 4)
    ORDERINGS = ("class_iid",)
    EVAL_EVERY = 10
    RERUN = (("exstream", 4, "class_iid", 1),)


@pytest.fixture
def stream(tmp_path):
    workload = W.InProcessWorkload("tiny", TINY_STREAM, 3, tmp_path)
    rnd, outputs = workload.round(0)
    return workload, rnd, outputs


@pytest.fixture
def sweep(tmp_path):
    workload = TinySweep("tiny_sweep", 3, tmp_path)
    rnd, outputs = workload.round(0, in_process=True)
    return workload, rnd, outputs


def test_stream_checks_pass(stream):
    workload, rnd, outputs = stream
    assert workload.check(outputs) == {}
    assert rnd.runs == 3


def test_stream_omega_off_by_a_hundredth_fails(stream):
    workload, _, outputs = stream
    outputs[3][0] += 0.01
    with pytest.raises(K.CheckFailed, match="omega"):
        workload.check(outputs)


def test_stream_memory_cost_one_too_high_fails(stream):
    workload, _, outputs = stream
    outputs[2][1].memory_cost += 1
    with pytest.raises(K.CheckFailed, match="memory_cost"):
        workload.check(outputs)


def test_stream_off_grid_event_fails(stream):
    workload, _, outputs = stream
    outputs[2][0].curve.times[0] += 1
    with pytest.raises(K.CheckFailed, match="grid"):
        workload.check(outputs)


def test_mass_check_catches_a_lost_count():
    stream = {0: [[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]]}
    vectors = {0: [[2.0, 3.0], [5.0, 0.0]]}
    K.check_exstream_mass("ok", stream, {0: [2, 1]}, vectors)
    with pytest.raises(K.CheckFailed, match="counts sum"):
        K.check_exstream_mass("lost", stream, {0: [1, 1]}, vectors)
    with pytest.raises(K.CheckFailed, match="weighted prototype sum"):
        K.check_exstream_mass("moved", stream, {0: [2, 1]}, {0: [[2.0, 3.0], [5.0, 0.1]]})


def test_memory_formula():
    counts = [3, 10, 40]
    assert K.expected_memory_cost("exstream", 8, counts) == 3 + 8 + 8
    assert K.expected_memory_cost("hpstream", 8, counts) == 6 + 16 + 16
    assert K.expected_memory_cost("clustream", 8, counts) == 3 + 10 + 16
    assert K.expected_memory_cost("full", 8, counts) == 53
    assert K.expected_memory_cost("no_buffer", 8, counts) == 0


def test_sweep_checks_pass(sweep):
    workload, rnd, outputs = sweep
    extra = workload.check(outputs)
    assert rnd.runs == len(workload.expected_runs()) == 12
    assert extra["log_records"] == 12 * (16 + 1)


def _rewrite(path, keep):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if keep(json.loads(line))))


def test_sweep_missing_terminal_record_fails(sweep):
    workload, _, outputs = sweep
    log = outputs[4]
    victim = sorted(workload.expected_runs())[0]
    _rewrite(log, lambda r: not (r["run_id"] == victim and "memory_cost" in r))
    with pytest.raises(K.CheckFailed, match="terminal records"):
        workload.check(outputs)


def test_sweep_memory_cost_one_too_high_fails(sweep):
    workload, _, outputs = sweep
    log = outputs[4]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for r in records:
        if "memory_cost" in r and r["method"] == "exstream":
            r["memory_cost"] += 1
            break
    log.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    with pytest.raises(K.CheckFailed, match="memory_cost"):
        workload.check(outputs)


def test_sweep_report_omega_off_by_a_hundredth_fails(sweep):
    workload, _, outputs = sweep
    table = outputs[5] / "omega_table.csv"
    header, first, *rest = table.read_text().splitlines()
    cells = first.split(",")
    cells[4] = f"{float(cells[4]) + 0.01:.3f}"
    table.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    with pytest.raises(K.CheckFailed, match="omega table"):
        workload.check(outputs)


def test_sweep_torn_log_line_fails(sweep):
    workload, _, outputs = sweep
    log = outputs[4]
    log.write_bytes(log.read_bytes()[:-20])
    with pytest.raises(K.CheckFailed, match="does not parse"):
        workload.check(outputs)


def test_tracer_records_layers_and_restores_originals(tmp_path):
    original = W.P.execute_run
    tracer = T.Tracer()
    workload = W.InProcessWorkload("tiny", TINY_STREAM, 3, tmp_path)
    with tracer.installed():
        assert W.P.execute_run is not original
        workload.round(0)
    assert W.P.execute_run is original
    assert W.B.BufferManager.insert.__name__ == "insert"
    assert not hasattr(W.B.BufferManager.insert, "__wrapped__")
    metrics = T.layer_metrics(tracer, 1)
    assert metrics["buffers.inserts"][0] == 2 * 200
    assert metrics["mlp.eval_calls"][0] == 3 * len(K.grid(200, 7))
    assert metrics["protocol.run_s.no_buffer"][0] > 0
    assert metrics["cli.run_s"][0] == 0
    shares = (metrics["buffers.busy_share"][0] + metrics["mlp.busy_share"][0]
              + metrics["protocol.self_share"][0])
    assert shares == pytest.approx(1.0)


def test_sweep_duplicated_table_row_fails(sweep):
    workload, _, outputs = sweep
    table = outputs[5] / "omega_table.csv"
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(lines + lines[1:2]))
    with pytest.raises(K.CheckFailed, match="duplicate"):
        workload.check(outputs)
