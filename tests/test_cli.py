"""End-to-end command line flows: synth, baseline, run, report."""

import csv
import ctypes
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from protostream import NumericError, cli, protocol
from protostream.cli import main
from protostream.protocol import AccuracyCurve, RunResult

MLP = {"layer_sizes": [8], "learning_rate": 0.1, "batch_size": 16, "seed": 0}
# a sweep's learner seed is each run's seed, so its mlp takes none
SWEEP_MLP = {k: v for k, v in MLP.items() if k != "seed"}

SYNTH = {"num_classes": 2, "dim": 4, "samples_per_class_train": 30,
         "samples_per_class_test": 10, "instances_per_class": 3,
         "class_mean_separation": 8.0, "noise_std": 1.0, "seed": 0}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synth a small dataset and its baseline once for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = write_json(root / "synth.json", SYNTH)
    data_dir = root / "data"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)]) == 0
    base_cfg = write_json(root / "baseline.json",
                          {"dataset": "toy", "epochs": 5, "mlp": MLP})
    baseline = root / "baseline_out.json"
    assert main(["baseline",
                 "--features", str(data_dir / "features.feat"),
                 "--manifest", str(data_dir / "manifest.csv"),
                 "--config", str(base_cfg),
                 "--out", str(baseline)]) == 0
    return {"root": root, "data": data_dir, "baseline": baseline,
            "features": data_dir / "features.feat",
            "manifest": data_dir / "manifest.csv"}


def sweep_config(ws, **overrides):
    payload = {"dataset": "toy",
               "features": str(ws["features"]),
               "manifest": str(ws["manifest"]),
               "methods": ["queue", "no_buffer"],
               "orderings": ["iid"],
               "seeds": [0, 1],
               "buffer_sizes": [2, 4],
               "eval_every": 30,
               "mlp": SWEEP_MLP}
    payload.update(overrides)
    return payload


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


class TestSynth:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", SYNTH)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/features.feat").read_bytes() == \
               (tmp_path / "b/features.feat").read_bytes()
        assert (tmp_path / "a/manifest.csv").read_bytes() == \
               (tmp_path / "b/manifest.csv").read_bytes()

    def test_config_seed_changes_data(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", SYNTH)
        cfg7 = write_json(tmp_path / "s7.json", {**SYNTH, "seed": 7})
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["synth", "--config", str(cfg7), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/features.feat").read_bytes() != \
               (tmp_path / "b/features.feat").read_bytes()

    def test_missing_config(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", {**SYNTH, "sigma": 2.0})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_negative_config_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", {**SYNTH, "seed": -1})
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBaseline:
    def test_output_fields(self, workspace):
        record = json.loads(workspace["baseline"].read_text())
        assert record["dataset"] == "toy"
        assert record["epochs"] == 5
        assert record["seed"] == 0
        assert 0.0 <= record["accuracy"] <= 1.0

    def test_resynth_into_same_directory_is_reloaded(self, tmp_path):
        """A baseline after re-synthesizing into the same paths, in the same
        process, trains on the new files."""
        cfg = write_json(tmp_path / "s.json", SYNTH)
        cfg7 = write_json(tmp_path / "s7.json", {**SYNTH, "seed": 7})
        base_cfg = write_json(tmp_path / "b.json", {"dataset": "toy", "epochs": 5, "mlp": MLP})

        def baseline(data, out):
            assert main(["baseline", "--features", str(data / "features.feat"),
                         "--manifest", str(data / "manifest.csv"),
                         "--config", str(base_cfg), "--out", str(out)]) == 0
            return json.loads(out.read_text())["accuracy"]

        data, fresh = tmp_path / "data", tmp_path / "fresh"
        main(["synth", "--config", str(cfg), "--out", str(data)])
        baseline(data, tmp_path / "seed0.json")
        main(["synth", "--config", str(cfg7), "--out", str(data)])
        again = baseline(data, tmp_path / "seed7.json")
        main(["synth", "--config", str(cfg7), "--out", str(fresh)])
        assert again == baseline(fresh, tmp_path / "fresh7.json")

    def baseline_exit(self, ws, tmp_path, payload):
        cfg = write_json(tmp_path / "b.json", payload)
        return main(["baseline", "--features", str(ws["features"]),
                     "--manifest", str(ws["manifest"]), "--config", str(cfg),
                     "--out", str(tmp_path / "base.json")])

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        payload = {"dataset": "toy", "epoch": 1, "mlp": MLP}
        assert self.baseline_exit(workspace, tmp_path, payload) == 2
        assert "epoch" in capsys.readouterr().err
        assert not (tmp_path / "base.json").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("epochs", "many", "epochs"),
        ("epochs", 2.5, "epochs"),
        ("normalize", "false", "normalize"),
        ("mlp", {**MLP, "batch_size": 2.5}, "batch_size"),
    ], ids=["epochs_word", "epochs_fraction", "normalize_string", "batch_size_fraction"])
    def test_malformed_config_value(self, workspace, tmp_path, capsys, key, value, named):
        payload = {"dataset": "toy", "epochs": 1, "mlp": MLP, key: value}
        assert self.baseline_exit(workspace, tmp_path, payload) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "base.json").exists()

    def test_config_seed_recorded(self, workspace, tmp_path):
        payload = {"dataset": "toy", "epochs": 1, "mlp": {**MLP, "seed": 9}}
        assert self.baseline_exit(workspace, tmp_path, payload) == 0
        assert json.loads((tmp_path / "base.json").read_text())["seed"] == 9

    def test_negative_config_seed(self, workspace, tmp_path, capsys):
        payload = {"dataset": "toy", "epochs": 1, "mlp": {**MLP, "seed": -1}}
        assert self.baseline_exit(workspace, tmp_path, payload) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "base.json").exists()


class TestRun:
    def test_sweep_structure(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", sweep_config(workspace))
        out = tmp_path / "results.jsonl"
        assert main(["run", "--config", str(cfg),
                     "--baseline", str(workspace["baseline"]),
                     "--out", str(out)]) == 0
        records = read_jsonl(out)
        run_ids = {r["run_id"] for r in records}
        # queue gets both sizes, no_buffer collapses to the size-0 sentinel
        assert run_ids == {
            "toy-queue-b2-iid-s0", "toy-queue-b2-iid-s1",
            "toy-queue-b4-iid-s0", "toy-queue-b4-iid-s1",
            "toy-no_buffer-b0-iid-s0", "toy-no_buffer-b0-iid-s1"}
        terminals = [r for r in records if "memory_cost" in r]
        assert len(terminals) == 6
        for r in terminals:
            assert r["wall_clock_s"] > 0
        events = [r for r in records if "t" in r]
        # 60 train samples at stride 30: events at t=30 and t=60 per run
        assert sorted({r["t"] for r in events}) == [30, 60]
        assert len(events) == 12
        for r in events:
            assert 0.0 <= r["accuracy"] <= 1.0

    def test_no_buffer_records_use_zero_size_and_cost(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "sweep.json",
                         sweep_config(workspace, methods=["no_buffer"], seeds=[0]))
        out = tmp_path / "results.jsonl"
        main(["run", "--config", str(cfg),
              "--baseline", str(workspace["baseline"]), "--out", str(out)])
        records = read_jsonl(out)
        assert all(r["buffer_size"] == 0 for r in records)
        terminal = [r for r in records if "memory_cost" in r][0]
        assert terminal["memory_cost"] == 0

    def test_resume_skips_completed_runs(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json",
                         sweep_config(workspace, methods=["queue"], seeds=[0]))
        out = tmp_path / "results.jsonl"
        main(["run", "--config", str(cfg),
              "--baseline", str(workspace["baseline"]), "--out", str(out)])
        first = out.read_text()
        capsys.readouterr()
        main(["run", "--config", str(cfg),
              "--baseline", str(workspace["baseline"]), "--out", str(out)])
        assert out.read_text() == first
        assert "0 to execute" in capsys.readouterr().out

    def test_resume_refuses_a_changed_configuration(self, workspace, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        base = str(workspace["baseline"])

        def sweep(lr):
            return str(write_json(tmp_path / f"sweep-{lr}.json", sweep_config(
                workspace, methods=["queue"], seeds=[0], buffer_sizes=[2],
                mlp={**SWEEP_MLP, "learning_rate": lr})))

        assert main(["run", "--config", sweep(0.1), "--baseline", base, "--out", str(out)]) == 0
        first = out.read_bytes()
        capsys.readouterr()
        assert main(["run", "--config", sweep(0.5), "--baseline", base, "--out", str(out)]) == 2
        assert out.read_bytes() == first
        err = capsys.readouterr().err
        assert "toy-queue-b2-iid-s0" in err and "--out" in err
        # a terminal record without a config hash cannot be matched either
        records = [{k: v for k, v in r.items() if k != "config"} for r in read_jsonl(out)]
        out.write_text("".join(json.dumps(r) + "\n" for r in records))
        stripped = out.read_bytes()
        assert main(["run", "--config", sweep(0.1), "--baseline", base, "--out", str(out)]) == 2
        assert out.read_bytes() == stripped

    @pytest.mark.parametrize("changed", [{"mlp": {**SWEEP_MLP, "layer_sizes": [16, 16]}},
                                         {"eval_every": 20}], ids=["mlp", "eval_every"])
    def test_one_configuration_per_log(self, workspace, tmp_path, capsys, changed):
        """A sweep of another configuration is refused on a log holding any
        finished run, though the two share no run id; a sweep of the same
        configuration adds its new runs to the log."""
        base, out = str(workspace["baseline"]), tmp_path / "results.jsonl"

        def run(seed, **overrides):
            cfg = write_json(tmp_path / "sweep.json", sweep_config(
                workspace, methods=["queue"], seeds=[seed], buffer_sizes=[2], **overrides))
            return main(["run", "--config", str(cfg), "--baseline", base, "--out", str(out)])

        assert run(0) == 0
        logged = out.read_bytes()
        capsys.readouterr()
        assert run(1, **changed) == 2
        assert out.read_bytes() == logged
        assert "finished run toy-queue-b2-iid-s0 with another configuration" in \
            capsys.readouterr().err
        assert run(1) == 0
        assert {r["seed"] for r in read_jsonl(out) if "memory_cost" in r} == {0, 1}

    @pytest.mark.parametrize("overrides", [
        {"methods": ["queue", "queue"]}, {"seeds": [0, 0]}, {"buffer_sizes": [2, 2]},
        {"orderings": ["iid", "iid"]},
    ], ids=["method", "seed", "buffer_size", "ordering"])
    def test_sweep_listing_a_run_twice(self, workspace, tmp_path, capsys, overrides):
        payload = {"methods": ["queue"], "seeds": [0], "buffer_sizes": [2], **overrides}
        assert self.run_exit(workspace, tmp_path, **payload) == 2
        assert "sweep lists run toy-queue-b2-iid-s0 more than once" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failed_run_is_a_record(self, workspace, tmp_path, capsys, monkeypatch, jobs):
        """Seed 0 fails: `run` writes its failed record and every other run,
        in sweep order, and exits 4; a second `run` executes nothing and
        exits 4 again; `report` scores the other runs and skips the failed one."""
        executed = []
        real_execute_run = protocol.execute_run

        def execute_run(dataset, config):
            executed.append(config.buffer_seed)
            if config.buffer_seed == 0:
                raise NumericError("loss is not finite")
            return real_execute_run(dataset, config)

        # threads share this process, so the patched execute_run is the one
        # called, and the BLAS thread count they would set is this process's
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(cli, "_one_blas_thread", lambda: None)
        monkeypatch.setattr(protocol, "execute_run", execute_run)
        cfg = str(write_json(tmp_path / "sweep.json", sweep_config(
            workspace, methods=["queue"], seeds=[0, 1, 2], buffer_sizes=[2])))
        base, out = str(workspace["baseline"]), tmp_path / "results.jsonl"
        argv = ["run", "--config", cfg, "--baseline", base, "--jobs", jobs, "--out", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "run toy-queue-b2-iid-s0 failed: loss is not finite" in err
        assert "numeric error: 1 of the sweep's 3 runs failed" in err
        records = read_jsonl(out)
        assert [r["seed"] for r in records if "t" not in r] == [0, 1, 2]
        failed = [r for r in records if "error" in r]
        assert len(failed) == 1 and failed[0]["error"] == "loss is not finite"
        assert failed[0]["run_id"] == "toy-queue-b2-iid-s0" and "memory_cost" not in failed[0]
        logged = out.read_bytes()
        executed.clear()
        assert main(argv) == 4
        assert executed == [] and out.read_bytes() == logged
        assert "3 already complete (1 failed), 0 to execute" in capsys.readouterr().out
        report = tmp_path / "report"
        assert main(["report", "--results", str(out), "--baseline", base,
                     "--out", str(report)]) == 0
        assert capsys.readouterr().err == "skipped 1 failed run(s)\n"
        with open(report / "omega_table.csv", newline="") as fh:
            assert next(csv.DictReader(fh))["seeds"] == "2"

    def test_resume_after_a_cut_inside_the_first_run(self, workspace, tmp_path, capsys):
        """A sweep cut inside its first run's event lines and resumed with
        another eval_every logs what a fresh sweep logs: the cut run's
        events never join the new run's curve."""
        base = str(workspace["baseline"])

        def run(out, eval_every):
            cfg = write_json(tmp_path / "sweep.json", sweep_config(
                workspace, methods=["queue"], seeds=[0], buffer_sizes=[2],
                eval_every=eval_every))
            assert main(["run", "--config", str(cfg), "--baseline", base,
                         "--out", str(out)]) == 0
            return [{k: v for k, v in r.items() if k != "wall_clock_s"}
                    for r in read_jsonl(out)]

        out = tmp_path / "results.jsonl"
        run(out, 1)
        data = out.read_bytes()
        out.write_bytes(data[:data.index(b"\n", len(data) // 2) - 5])
        capsys.readouterr()
        assert run(out, 20) == run(tmp_path / "fresh.jsonl", 20)
        assert f"dropping what follows the last finished run in {out}" in \
            capsys.readouterr().err

    def test_resume_refuses_rewritten_inputs(self, workspace, tmp_path, capsys):
        """A sweep resumed after its input files were rewritten in place
        exits 2: one log never mixes runs on different data."""
        synth = write_json(tmp_path / "synth.json", SYNTH)
        data, out = tmp_path / "data", tmp_path / "results.jsonl"
        inputs = {"features": data / "features.feat", "manifest": data / "manifest.csv"}

        def run(seeds):
            cfg = write_json(tmp_path / "sweep.json", sweep_config(
                inputs, methods=["queue"], seeds=seeds, buffer_sizes=[2]))
            return main(["run", "--config", str(cfg),
                         "--baseline", str(workspace["baseline"]), "--out", str(out)])

        assert main(["synth", "--config", str(synth), "--out", str(data)]) == 0
        assert run([0]) == 0
        first = out.read_bytes()
        synth7 = write_json(tmp_path / "synth7.json", {**SYNTH, "seed": 7})
        assert main(["synth", "--config", str(synth7), "--out", str(data)]) == 0
        capsys.readouterr()
        assert run([0, 1]) == 2
        assert out.read_bytes() == first
        assert "toy-queue-b2-iid-s0" in capsys.readouterr().err

    def test_resume_finishes_interrupted_run(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "sweep.json",
                         sweep_config(workspace, methods=["queue"],
                                      seeds=[0], buffer_sizes=[2]))
        out = tmp_path / "results.jsonl"
        main(["run", "--config", str(cfg),
              "--baseline", str(workspace["baseline"]), "--out", str(out)])
        full = read_jsonl(out)
        # drop the terminal record, as if the process died mid-run
        out.write_text("\n".join(json.dumps(r) for r in full if "memory_cost" not in r) + "\n")
        main(["run", "--config", str(cfg),
              "--baseline", str(workspace["baseline"]), "--out", str(out)])
        records = read_jsonl(out)
        assert sum(1 for r in records if "memory_cost" in r) == 1

    def test_resume_past_torn_last_line(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", sweep_config(workspace))
        base = str(workspace["baseline"])
        full = tmp_path / "full.jsonl"
        assert main(["run", "--config", str(cfg), "--baseline", base, "--out", str(full)]) == 0
        assert main(["report", "--results", str(full), "--baseline", base,
                     "--out", str(tmp_path / "full_report")]) == 0
        # cut the log mid-line, as a crash during a write leaves it
        data = full.read_bytes()
        cut = data.index(b"\n", len(data) // 2) - 5
        out = tmp_path / "results.jsonl"
        out.write_bytes(data[:cut])
        # report scores the runs finished before the cut and skips the torn line
        assert main(["report", "--results", str(out), "--baseline", base,
                     "--out", str(tmp_path / "cut_report")]) == 0
        assert main(["run", "--config", str(cfg), "--baseline", base, "--out", str(out)]) == 0
        records = read_jsonl(out)
        terminals = [r["run_id"] for r in records if "memory_cost" in r]
        assert sorted(terminals) == sorted({r["run_id"] for r in records})
        assert len(terminals) == 6
        assert main(["report", "--results", str(out), "--baseline", base,
                     "--out", str(tmp_path / "report")]) == 0
        assert (tmp_path / "report/omega_table.csv").read_bytes() == \
               (tmp_path / "full_report/omega_table.csv").read_bytes()

    def test_run_re_executes_exactly_the_runs_report_skips(self, workspace, tmp_path,
                                                            capsys):
        """One log of three runs: s0 finished, s1 cut off before its terminal
        record, and s2 executed again in full after a partial write."""
        base = str(workspace["baseline"])
        cfg = write_json(tmp_path / "sweep.json", sweep_config(
            workspace, methods=["queue"], seeds=[0, 1, 2], buffer_sizes=[2]))
        full = tmp_path / "full.jsonl"
        assert main(["run", "--config", str(cfg), "--baseline", base, "--out", str(full)]) == 0
        runs = {s: [r for r in read_jsonl(full) if r["seed"] == s] for s in (0, 1, 2)}
        out = tmp_path / "results.jsonl"
        records = runs[0] + runs[2][:1] + runs[1][:-1] + runs[2]
        out.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()

        def report(name):
            assert main(["report", "--results", str(out), "--baseline", base,
                         "--out", str(tmp_path / name)]) == 0
            with open(tmp_path / name / "omega_table.csv", newline="") as fh:
                return next(csv.DictReader(fh))["seeds"], capsys.readouterr().err

        assert report("before") == ("2", "skipped 1 unfinished run(s) with no terminal record\n")
        logged = out.read_bytes()
        assert main(["run", "--config", str(cfg), "--baseline", base, "--out", str(out)]) == 0
        assert "2 already complete (0 failed), 1 to execute" in capsys.readouterr().out
        appended = read_jsonl(out)[len(records):]
        assert out.read_bytes().startswith(logged)
        assert {r["run_id"] for r in appended} == {"toy-queue-b2-iid-s1"}
        assert report("after") == ("3", "")
        assert main(["report", "--results", str(full), "--baseline", base,
                     "--out", str(tmp_path / "full_report")]) == 0
        assert (tmp_path / "after/omega_table.csv").read_bytes() == \
               (tmp_path / "full_report/omega_table.csv").read_bytes()

    def test_jobs_start_no_more_workers_than_runs_left(self, workspace, tmp_path, capsys,
                                                        monkeypatch):
        """A pool starts all its workers at once: --jobs 64 over three runs
        starts three, and one run left runs in this process."""
        started = []

        class InlinePool:
            """Records its worker count and runs each task inline: no process starts."""

            def __init__(self, max_workers, initializer):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        cfg = str(write_json(tmp_path / "sweep.json", sweep_config(
            workspace, methods=["queue"], seeds=[0, 1, 2], buffer_sizes=[2])))
        base, out = str(workspace["baseline"]), tmp_path / "results.jsonl"
        assert main(["run", "--config", cfg, "--baseline", base, "--jobs", "64",
                     "--out", str(out)]) == 0
        assert started == [3]
        assert "3 to execute in 3 worker processes" in capsys.readouterr().out
        records = read_jsonl(out)
        out.write_text("".join(json.dumps(r) + "\n" for r in records[:-1]))
        assert main(["run", "--config", cfg, "--baseline", base, "--jobs", "8",
                     "--out", str(out)]) == 0
        assert started == [3]
        assert "1 to execute in this process" in capsys.readouterr().out
        assert sum("memory_cost" in r for r in read_jsonl(out)) == 3

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs one BLAS thread")
    def test_jobs_workers_run_one_blas_thread(self, workspace, tmp_path, capsys, monkeypatch):
        """This process runs two BLAS threads; each --jobs 2 worker runs one,
        and logs the count it sees as its run's memory_cost."""
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas*.so"))
        blas = ctypes.CDLL(str(libs[0])) if libs else None
        if not hasattr(blas, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy links a BLAS with no known thread count")
        get, set_ = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        set_.argtypes, set_.restype = [ctypes.c_int], None
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        # workers fork from this process, so they call this execute_run
        monkeypatch.setattr(protocol, "execute_run", lambda dataset, config: RunResult(
            AccuracyCurve([60], [0.5]), get(), 0.0))
        cfg = str(write_json(tmp_path / "sweep.json", sweep_config(
            workspace, methods=["queue"], seeds=[0, 1], buffer_sizes=[2])))
        before = get()
        set_(2)
        try:
            assert main(["run", "--config", cfg, "--baseline", str(workspace["baseline"]),
                         "--jobs", "2", "--out", str(tmp_path / "results.jsonl")]) == 0
        finally:
            set_(before)
        costs = [r["memory_cost"] for r in read_jsonl(tmp_path / "results.jsonl")
                 if "memory_cost" in r]
        assert costs == [1, 1]
        assert "2 worker processes, one BLAS thread each" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", [[1, 2], {"dataset": "toy", "accuracy": float("nan")}],
                             ids=["not_an_object", "accuracy_nan"])
    def test_malformed_baseline(self, workspace, tmp_path, capsys, payload):
        bad = write_json(tmp_path / "base.json", payload)
        cfg = write_json(tmp_path / "sweep.json", sweep_config(workspace))
        assert main(["run", "--config", str(cfg), "--baseline", str(bad),
                     "--out", str(tmp_path / "r.jsonl")]) == 3
        assert "baseline needs a dataset name and an accuracy" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_wrong_baseline_dataset(self, workspace, tmp_path, capsys):
        bad = write_json(tmp_path / "base.json",
                         {"dataset": "other", "accuracy": 0.9, "seed": 0, "epochs": 1})
        cfg = write_json(tmp_path / "sweep.json", sweep_config(workspace))
        code = main(["run", "--config", str(cfg), "--baseline", str(bad),
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "protostream baseline" in err and "toy" in err

    @pytest.mark.parametrize("case", ["rewritten_inputs", "older_baseline", "other_normalize"])
    def test_baseline_is_bound_to_its_inputs(self, tmp_path, capsys, case):
        """A baseline scores a sweep only on the feature and manifest bytes
        and the normalization it was trained on; one that does not record
        them, from an older version, must be trained again."""
        synth = write_json(tmp_path / "synth.json", SYNTH)
        data, baseline = tmp_path / "data", tmp_path / "baseline.json"
        inputs = {"features": data / "features.feat", "manifest": data / "manifest.csv"}
        base_cfg = write_json(tmp_path / "b.json", {"dataset": "toy", "epochs": 1, "mlp": MLP})
        assert main(["synth", "--config", str(synth), "--out", str(data)]) == 0
        assert main(["baseline", "--features", str(inputs["features"]),
                     "--manifest", str(inputs["manifest"]), "--config", str(base_cfg),
                     "--out", str(baseline)]) == 0
        overrides = {}
        if case == "rewritten_inputs":
            synth7 = write_json(tmp_path / "synth7.json", {**SYNTH, "seed": 7})
            assert main(["synth", "--config", str(synth7), "--out", str(data)]) == 0
        elif case == "older_baseline":
            record = json.loads(baseline.read_text())
            del record["inputs_crc32"], record["normalize"]
            write_json(baseline, record)
        else:
            overrides["normalize"] = False
        cfg = write_json(tmp_path / "sweep.json", sweep_config(inputs, **overrides))
        out = tmp_path / "sweeps" / "results.jsonl"
        assert main(["run", "--config", str(cfg), "--baseline", str(baseline),
                     "--out", str(out)]) == 2
        assert "run 'protostream baseline' again" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("overrides", [
        {"methods": ["queue", "exstream"], "buffer_sizes": []},
        {"methods": []}, {"orderings": []}, {"seeds": []},
    ], ids=["bounded_without_sizes", "no_method", "no_ordering", "no_seed"])
    def test_sweep_without_runs(self, workspace, tmp_path, capsys, overrides):
        assert self.run_exit(workspace, tmp_path, **overrides) == 2
        assert "sweep has no runs" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_unknown_method(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json",
                         sweep_config(workspace, methods=["lru"]))
        assert main(["run", "--config", str(cfg),
                     "--baseline", str(workspace["baseline"]),
                     "--out", str(tmp_path / "r.jsonl")]) == 2
        assert "lru" in capsys.readouterr().err

    def test_missing_sweep_key(self, workspace, tmp_path, capsys):
        payload = sweep_config(workspace)
        del payload["methods"]
        cfg = write_json(tmp_path / "sweep.json", payload)
        assert main(["run", "--config", str(cfg),
                     "--baseline", str(workspace["baseline"]),
                     "--out", str(tmp_path / "r.jsonl")]) == 2
        assert "methods" in capsys.readouterr().err

    def run_exit(self, ws, tmp_path, **overrides):
        cfg = write_json(tmp_path / "sweep.json", sweep_config(ws, **overrides))
        return main(["run", "--config", str(cfg), "--baseline", str(ws["baseline"]),
                     "--out", str(tmp_path / "r.jsonl")])

    def test_bad_run_fails_the_sweep_before_any_run(self, workspace, tmp_path, capsys):
        """exstream cannot run at one slot; the queue runs listed before it
        must not execute either."""
        code = self.run_exit(workspace, tmp_path, methods=["queue", "exstream"],
                             buffer_sizes=[1])
        assert code == 2
        assert "exstream needs capacity >= 2" in capsys.readouterr().err
        log = tmp_path / "r.jsonl"
        assert not log.exists() or log.read_text() == ""

    @pytest.mark.parametrize("key, value", [
        ("buffer_size", [4]),
        ("clustream", {"horizon": 50.0}),
        ("hpstream", {"decay_rate": 0.1}),
    ], ids=["buffer_size", "clustream", "hpstream"])
    def test_unknown_sweep_key(self, workspace, tmp_path, capsys, key, value):
        assert self.run_exit(workspace, tmp_path, **{key: value}) == 2
        assert f"unknown sweep config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("seeds", ["zero"], "seeds"),
        ("eval_every", "often", "eval_every"),
        ("mlp", {**SWEEP_MLP, "layer_sizes": ["a"]}, "mlp config"),
        ("features", 5, "features"),
        ("normalize", "false", "normalize"),
        ("buffer_sizes", [2.7], "buffer_sizes"),
        ("buffer_sizes", [True], "buffer_sizes"),
        ("seeds", [True], "seeds"),
        ("eval_every", 2.5, "eval_every"),
        ("mlp", {**SWEEP_MLP, "batch_size": 2.5}, "batch_size"),
        ("mlp", {**SWEEP_MLP, "layer_sizes": [2.7]}, "layer_sizes"),
        ("mlp", {**SWEEP_MLP, "learning_rate": float("nan")}, "learning_rate"),
        ("mlp", {**SWEEP_MLP, "learning_rate": "0.1"}, "learning_rate"),
        ("mlp", {**SWEEP_MLP, "weight_decay": float("inf")}, "weight_decay"),
        ("mlp", {**SWEEP_MLP, "dropout_keep": True}, "dropout_keep"),
        ("mlp", MLP, "sweep mlp takes no 'seed'"),
        ("seeds", [0, -1], "seed"),
        ("buffer_sizes", [2, 0], "queue needs capacity >= 1, got buffer_size 0"),
    ], ids=["seeds", "eval_every", "layer_sizes", "features", "normalize_string",
            "buffer_size_fraction", "buffer_size_bool", "seed_bool",
            "eval_every_fraction", "batch_size_fraction", "layer_size_fraction",
            "learning_rate_nan", "learning_rate_string", "weight_decay_inf",
            "dropout_keep_bool", "mlp_seed", "seed_negative", "buffer_size_zero"])
    def test_malformed_sweep_value(self, workspace, tmp_path, capsys, key, value, named):
        assert self.run_exit(workspace, tmp_path, **{key: value}) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_corrupt_results_log(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", sweep_config(workspace))
        out = tmp_path / "results.jsonl"
        # unparseable, then parseable but not a run record
        for line in ("{broken\n", "[1, 2]\n"):
            out.write_text(line)
            assert main(["run", "--config", str(cfg),
                         "--baseline", str(workspace["baseline"]),
                         "--out", str(out)]) == 3
            assert out.read_text() == line


RUN_RECORD = {"run_id": "toy-queue-b2-iid-s0", "dataset": "toy", "method": "queue",
              "buffer_size": 2, "ordering": "iid", "seed": 0}
# what a terminal record and its baseline say the run was trained on
INPUTS = {"inputs_crc32": ["0badf00d", "0badf00d"], "normalize": True}


def event(run_id, meta, t, accuracy):
    return json.dumps({"run_id": run_id, **meta, "t": t, "accuracy": accuracy})


def terminal(run_id, meta, cost=4):
    return json.dumps({"run_id": run_id, **meta, **INPUTS,
                       "wall_clock_s": 0.1, "memory_cost": cost})


def craft_results(path, rows, unfinished=()):
    """A results log of the given runs; the (method, size, seed) runs named
    in ``unfinished`` get no terminal record."""
    lines = []
    for method, size, seed, accuracies in rows:
        meta = {"dataset": "toy", "method": method, "buffer_size": size,
                "ordering": "iid", "seed": seed}
        run_id = f"toy-{method}-b{size}-iid-s{seed}"
        for t, acc in accuracies:
            lines.append(event(run_id, meta, t, acc))
        if (method, size, seed) not in unfinished:
            lines.append(terminal(run_id, meta))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReport:
    def run_report(self, tmp_path, rows, baseline=None, unfinished=()):
        results = craft_results(tmp_path / "results.jsonl", rows, unfinished)
        base = write_json(tmp_path / "base.json",
                          baseline or {"dataset": "toy", "accuracy": 1.0,
                                       "seed": 0, "epochs": 1, **INPUTS})
        out = tmp_path / "report"
        code = main(["report", "--results", str(results),
                     "--baseline", str(base), "--out", str(out)])
        return code, out

    def read_table(self, out):
        with open(out / "omega_table.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_perfect_runs_score_one(self, tmp_path):
        rows = [("queue", 2, s, [(30, 1.0), (60, 1.0)]) for s in (0, 1)]
        code, out = self.run_report(tmp_path, rows)
        assert code == 0
        table = self.read_table(out)
        scores = {r["buffer_size"]: r for r in table}
        assert scores["2"]["omega"] == "1.000"
        assert scores["2"]["omega_std"] == "0.000"
        assert scores["2"]["seeds"] == "2"
        assert scores["mu_total"]["omega"] == "1.000"

    def test_mu_is_mean_over_sizes(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 0.5), (60, 0.5)]),
                ("queue", 4, 0, [(30, 1.0), (60, 1.0)])]
        code, out = self.run_report(tmp_path, rows)
        table = self.read_table(out)
        by_size = {r["buffer_size"]: r["omega"] for r in table}
        assert by_size == {"2": "0.500", "4": "1.000", "mu_total": "0.750"}

    def test_seed_spread_reported(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 0.4), (60, 0.4)]),
                ("queue", 2, 1, [(30, 0.6), (60, 0.6)])]
        _, out = self.run_report(tmp_path, rows)
        table = self.read_table(out)
        row = next(r for r in table if r["buffer_size"] == "2")
        assert row["omega"] == "0.500" and row["omega_std"] == "0.100"

    def test_duplicate_events_last_wins(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 0.2), (60, 0.2), (30, 0.8), (60, 0.8)])]
        _, out = self.run_report(tmp_path, rows)
        row = next(r for r in self.read_table(out) if r["buffer_size"] == "2")
        assert row["omega"] == "0.800"

    def test_report_writes_one_table(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 1.0)]), ("queue", 4, 0, [(30, 1.0)])]
        _, out = self.run_report(tmp_path, rows)
        assert [p.name for p in out.iterdir()] == ["omega_table.csv"]
        assert [r["buffer_size"] for r in self.read_table(out)] == ["2", "4", "mu_total"]

    def test_report_is_byte_deterministic(self, tmp_path):
        rows = [("queue", b, s, [(30, 0.7), (60, 0.9)])
                for b in (2, 4) for s in (0, 1)]
        _, out = self.run_report(tmp_path, rows)
        first = (out / "omega_table.csv").read_bytes()
        code = main(["report", "--results", str(tmp_path / "results.jsonl"),
                     "--baseline", str(tmp_path / "base.json"), "--out", str(out)])
        assert code == 0
        assert (out / "omega_table.csv").read_bytes() == first

    def test_unfinished_runs_are_not_scored(self, tmp_path, capsys):
        rows = [("queue", 2, 0, [(30, 1.0), (60, 1.0)]),
                ("queue", 4, 0, [(30, 0.5)])]
        code, out = self.run_report(tmp_path, rows, unfinished={("queue", 4, 0)})
        assert code == 0
        assert "skipped 1 unfinished run" in capsys.readouterr().err
        table = self.read_table(out)
        assert [r["buffer_size"] for r in table] == ["2", "mu_total"]
        assert table[1]["omega"] == "1.000"

    def test_no_finished_run(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 1.0), (60, 1.0)])]
        code, _ = self.run_report(tmp_path, rows, unfinished={("queue", 2, 0)})
        assert code == 3

    def test_incomplete_baseline(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 1.0)])]
        for baseline in ({"dataset": "toy"}, [1, 2], {"accuracy": 1.0},
                         {"dataset": 5, "accuracy": 1.0},
                         {"dataset": "toy", "accuracy": None},
                         {"dataset": "toy", "accuracy": "x"},
                         {"dataset": "toy", "accuracy": True},
                         {"dataset": "toy", "accuracy": float("nan")},
                         {"dataset": "toy", "accuracy": float("inf")},
                         {"dataset": "toy", "accuracy": 2.0},
                         {"dataset": "toy", "accuracy": -0.1}):
            code, out = self.run_report(tmp_path, rows, baseline=baseline)
            assert code == 3, baseline
            assert not (out / "omega_table.csv").exists()
        # a well-formed accuracy of 0 leaves omega undefined: a numeric error
        assert self.run_report(tmp_path, rows, {"dataset": "toy", "accuracy": 0,
                                                **INPUTS})[0] == 4

    def test_dataset_mismatch(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 1.0)])]
        baseline = {"dataset": "other", "accuracy": 1.0, **INPUTS}
        code, _ = self.run_report(tmp_path, rows, baseline)
        assert code == 3

    @pytest.mark.parametrize("record_inputs, baseline_inputs", [
        (INPUTS, {**INPUTS, "inputs_crc32": ["0badf00d", "00000000"]}),
        (INPUTS, {**INPUTS, "normalize": False}),
        ({}, INPUTS),
        ({}, {}),
    ], ids=["inputs_crc32", "normalize", "older_record", "older_record_and_baseline"])
    def test_baseline_of_other_inputs(self, tmp_path, capsys, record_inputs, baseline_inputs):
        """A run is scored only against a baseline of the same dataset name,
        input bytes and normalization; a terminal record written by an
        earlier version names no inputs and is scored against no baseline."""
        results = tmp_path / "results.jsonl"
        results.write_text(event(RUN_RECORD["run_id"], RUN_RECORD, 30, 1.0) + "\n" + json.dumps(
            {**RUN_RECORD, **record_inputs, "wall_clock_s": 0.1, "memory_cost": 4}) + "\n")
        base = write_json(tmp_path / "base.json",
                          {"dataset": "toy", "accuracy": 1.0, **baseline_inputs})
        assert main(["report", "--results", str(results), "--baseline", str(base),
                     "--out", str(tmp_path / "report")]) == 3
        assert "differ in dataset, inputs_crc32 or normalize" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        {"run_id": "x", "t": 1, "accuracy": 0.5},
        [1, 2],
        {**RUN_RECORD, "t": 60},
        {**RUN_RECORD, "t": 60, "accuracy": None},
        {**RUN_RECORD, "t": 60, "accuracy": "0.5"},
        {**RUN_RECORD, "t": 60, "accuracy": float("nan")},
        {**RUN_RECORD, "t": 60, "accuracy": 1.7},
        {**RUN_RECORD, "t": "x", "accuracy": 0.5},
        {**RUN_RECORD, "t": 0, "accuracy": 0.5},
        {**RUN_RECORD, "t": 60.5, "accuracy": 0.5},
        {**RUN_RECORD, "buffer_size": "two", "t": 60, "accuracy": 0.5},
        {**RUN_RECORD, "seed": True, "t": 60, "accuracy": 0.5},
        {**RUN_RECORD, "method": 3, "t": 60, "accuracy": 0.5},
        {**RUN_RECORD, "config": 7, "t": 60, "accuracy": 0.5},
        {**RUN_RECORD, "wall_clock_s": 0.1, "memory_cost": 4},
        # a tuple is several lines: a bare record after an event of its run
        ({**RUN_RECORD, "t": 60, "accuracy": 0.5}, RUN_RECORD),
        {**RUN_RECORD, "t": 60, "accuracy": 0.5, "memory_cost": 4},
        ({**RUN_RECORD, "t": 60, "accuracy": 0.5},
         {**RUN_RECORD, "wall_clock_s": 0.1, "memory_cost": 4, "error": "diverged"}),
        {**RUN_RECORD, "error": 7},
    ], ids=["no_run_fields", "not_an_object", "event_without_accuracy", "accuracy_null",
            "accuracy_string", "accuracy_nan", "accuracy_above_one", "t_string", "t_zero",
            "t_fraction", "buffer_size_string", "seed_bool", "method_number",
            "config_number", "terminal_without_events", "neither_event_nor_terminal",
            "event_and_terminal", "failed_and_finished", "error_not_a_string"])
    def test_malformed_record(self, tmp_path, capsys, line):
        code, out = self.run_report(tmp_path, [("queue", 2, 0, [(30, 1.0)])])
        assert code == 0
        results = tmp_path / "results.jsonl"
        lines = line if isinstance(line, tuple) else (line,)
        results.write_text(results.read_text() + "".join(json.dumps(x) + "\n" for x in lines))
        assert main(["report", "--results", str(results), "--baseline",
                     str(tmp_path / "base.json"), "--out", str(out)]) == 3
        assert "not a run record" in capsys.readouterr().err

    def test_empty_results(self, tmp_path):
        results = tmp_path / "results.jsonl"
        results.write_text("")
        base = write_json(tmp_path / "base.json", {"dataset": "toy", "accuracy": 1.0})
        assert main(["report", "--results", str(results),
                     "--baseline", str(base), "--out", str(tmp_path / "o")]) == 3


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["run"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["synth", "baseline"])
    def test_seeds_come_only_from_config_files(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "synth": ["--config", str(write_json(tmp_path / "s.json", SYNTH))],
            "baseline": ["--features", str(workspace["features"]),
                         "--manifest", str(workspace["manifest"]),
                         "--config", str(write_json(tmp_path / "b.json", {
                             "dataset": "toy", "epochs": 1, "mlp": MLP}))],
        }[command]
        with pytest.raises(SystemExit) as info:
            main([command, *argv, "--seed", "7", "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "baseline", "run", "report"])
    def test_out_of_the_wrong_kind(self, workspace, tmp_path, capsys, command):
        """An --out that is a file where a directory belongs (synth, report)
        or a directory where a file belongs (baseline, run) is a usage error
        that names it and leaves it as it was."""
        taken_file, taken_dir = tmp_path / "taken.txt", tmp_path / "taken"
        taken_file.write_text("keep\n")
        taken_dir.mkdir()
        base = str(workspace["baseline"])
        argv = {
            "synth": ["--config", str(write_json(tmp_path / "s.json", SYNTH)),
                      "--out", str(taken_file)],
            "baseline": ["--features", str(workspace["features"]),
                         "--manifest", str(workspace["manifest"]),
                         "--config", str(write_json(tmp_path / "b.json", {
                             "dataset": "toy", "epochs": 1, "mlp": MLP})),
                         "--out", str(taken_dir)],
            "run": ["--config", str(write_json(tmp_path / "w.json", sweep_config(workspace))),
                    "--baseline", base, "--out", str(taken_dir)],
            "report": ["--results", str(craft_results(tmp_path / "r.jsonl",
                                                      [("queue", 2, 0, [(30, 1.0)])])),
                       "--baseline", str(write_json(tmp_path / "b_out.json", {
                           "dataset": "toy", "accuracy": 1.0, **INPUTS})),
                       "--out", str(taken_file)],
        }[command]
        assert main([command, *argv]) == 2
        out = taken_file if command in ("synth", "report") else taken_dir
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert taken_file.read_text() == "keep\n" and not any(taken_dir.iterdir())


# runs one command in a fresh interpreter; its last line of output is the
# exit code, the protostream modules loaded, and whether a process pool was
LOADS = """
import json, sys
from protostream import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("protostream.")),
                  "concurrent.futures.process" in sys.modules]))
"""
SRC = Path(cli.__file__).resolve().parents[1]
EVERY_LAYER = sorted(f"protostream.{p.stem}" for p in (SRC / "protostream").glob("*.py")
                     if p.stem != "__init__")


class TestLoads:
    @pytest.mark.parametrize("command, jobs, layers", [
        ("synth", None, ["cli", "data", "errors"]),
        ("baseline", None, ["cli", "data", "errors", "mlp"]),
        ("report", None, ["cli", "errors", "metrics"]),
        ("run", "1", None),
        ("run", "2", None),
    ], ids=["synth", "baseline", "report", "run-jobs1", "run-jobs2"])
    def test_a_command_loads_only_the_layers_it_runs(self, workspace, tmp_path, command, jobs,
                                                     layers):
        """synth loads data, baseline data and mlp, report metrics, and run
        every layer (errors and cli come with each); only run --jobs 2
        loads the process pool."""
        base = str(workspace["baseline"])
        sweep = str(write_json(tmp_path / "sweep.json", sweep_config(
            workspace, methods=["queue"], seeds=[0, 1], buffer_sizes=[2])))
        results = tmp_path / "results.jsonl"
        argv = {
            "synth": ["--config", str(write_json(tmp_path / "s.json", SYNTH)),
                      "--out", str(tmp_path / "data")],
            "baseline": ["--features", str(workspace["features"]),
                         "--manifest", str(workspace["manifest"]),
                         "--config", str(write_json(tmp_path / "b.json", {
                             "dataset": "toy", "epochs": 1, "mlp": MLP})),
                         "--out", str(tmp_path / "b_out.json")],
            "run": ["--config", sweep, "--baseline", base, "--jobs", str(jobs),
                    "--out", str(results)],
            "report": ["--results", str(results), "--baseline", base,
                       "--out", str(tmp_path / "report")],
        }[command]
        if command == "report":
            assert main(["run", "--config", sweep, "--baseline", base,
                         "--out", str(results)]) == 0
        proc = subprocess.run([sys.executable, "-c", LOADS, command, *argv],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, loaded, pool = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        expected = EVERY_LAYER if layers is None else [f"protostream.{m}" for m in layers]
        assert loaded == expected
        assert pool == (jobs == "2")
