"""End-to-end command line flows: synth, baseline, run, report."""

import csv
import json
from concurrent.futures import Future

import pytest

from protostream import cli
from protostream.cli import main

MLP = {"layer_sizes": [8], "learning_rate": 0.1, "batch_size": 16, "seed": 0}

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
               "mlp": MLP}
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

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", SYNTH)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "b")])
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

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", SYNTH)
        code = main(["synth", "--config", str(cfg), "--seed", "-1",
                     "--out", str(tmp_path / "o")])
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
        base_cfg = write_json(tmp_path / "b.json", {"dataset": "toy", "epochs": 5, "mlp": MLP})

        def baseline(data, out):
            assert main(["baseline", "--features", str(data / "features.feat"),
                         "--manifest", str(data / "manifest.csv"),
                         "--config", str(base_cfg), "--out", str(out)]) == 0
            return json.loads(out.read_text())["accuracy"]

        data, fresh = tmp_path / "data", tmp_path / "fresh"
        main(["synth", "--config", str(cfg), "--out", str(data)])
        baseline(data, tmp_path / "seed0.json")
        main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(data)])
        again = baseline(data, tmp_path / "seed7.json")
        main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(fresh)])
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

    def test_seed_override_recorded(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "b.json", {"dataset": "toy", "epochs": 1, "mlp": MLP})
        out = tmp_path / "base.json"
        assert main(["baseline",
                     "--features", str(workspace["features"]),
                     "--manifest", str(workspace["manifest"]),
                     "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 9

    def test_negative_seed_flag(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {"dataset": "toy", "epochs": 1, "mlp": MLP})
        assert main(["baseline",
                     "--features", str(workspace["features"]),
                     "--manifest", str(workspace["manifest"]),
                     "--config", str(cfg), "--seed", "-1",
                     "--out", str(tmp_path / "base.json")]) == 2
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
                mlp={**MLP, "learning_rate": lr})))

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
        assert main(["synth", "--config", str(synth), "--seed", "7", "--out", str(data)]) == 0
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
        assert "2 already complete, 1 to execute" in capsys.readouterr().out
        appended = read_jsonl(out)[len(records):]
        assert out.read_bytes().startswith(logged)
        assert {r["run_id"] for r in appended} == {"toy-queue-b2-iid-s1"}
        assert report("after") == ("3", "")
        assert main(["report", "--results", str(full), "--baseline", base,
                     "--out", str(tmp_path / "full_report")]) == 0
        for name in ("omega_table.csv", "plot_data.csv"):
            assert (tmp_path / "after" / name).read_bytes() == \
                   (tmp_path / "full_report" / name).read_bytes()

    def test_jobs_start_no_more_workers_than_runs_left(self, workspace, tmp_path, capsys,
                                                        monkeypatch):
        """A pool starts all its workers at once: --jobs 64 over three runs
        starts three, and one run left runs in this process."""
        started = []

        class InlinePool:
            """Records its worker count and runs each task inline: no process starts."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
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
        ("mlp", {**MLP, "layer_sizes": ["a"]}, "mlp config"),
        ("features", 5, "features"),
        ("normalize", "false", "normalize"),
        ("buffer_sizes", [2.7], "buffer_sizes"),
        ("buffer_sizes", [True], "buffer_sizes"),
        ("seeds", [True], "seeds"),
        ("eval_every", 2.5, "eval_every"),
        ("mlp", {**MLP, "batch_size": 2.5}, "batch_size"),
        ("mlp", {**MLP, "layer_sizes": [2.7]}, "layer_sizes"),
        ("mlp", {**MLP, "learning_rate": float("nan")}, "learning_rate"),
        ("mlp", {**MLP, "learning_rate": "0.1"}, "learning_rate"),
        ("mlp", {**MLP, "weight_decay": float("inf")}, "weight_decay"),
        ("mlp", {**MLP, "dropout_keep": True}, "dropout_keep"),
        ("seeds", [0, -1], "seed"),
        ("buffer_sizes", [2, 0], "queue needs capacity >= 1, got buffer_size 0"),
    ], ids=["seeds", "eval_every", "layer_sizes", "features", "normalize_string",
            "buffer_size_fraction", "buffer_size_bool", "seed_bool",
            "eval_every_fraction", "batch_size_fraction", "layer_size_fraction",
            "learning_rate_nan", "learning_rate_string", "weight_decay_inf",
            "dropout_keep_bool", "seed_negative", "buffer_size_zero"])
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


def event(run_id, meta, t, accuracy):
    return json.dumps({"run_id": run_id, **meta, "t": t, "accuracy": accuracy})


def terminal(run_id, meta, cost=4):
    return json.dumps({"run_id": run_id, **meta,
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
                                       "seed": 0, "epochs": 1})
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

    def test_plot_rows_exclude_summary(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 1.0)]), ("queue", 4, 0, [(30, 1.0)])]
        _, out = self.run_report(tmp_path, rows)
        with open(out / "plot_data.csv", newline="") as fh:
            plot = list(csv.DictReader(fh))
        assert [r["buffer_size"] for r in plot] == ["2", "4"]
        assert "seeds" not in plot[0]

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
        assert self.run_report(tmp_path, rows, {"dataset": "toy", "accuracy": 0})[0] == 4

    def test_dataset_mismatch(self, tmp_path):
        rows = [("queue", 2, 0, [(30, 1.0)])]
        baseline = {"dataset": "other", "accuracy": 1.0}
        code, _ = self.run_report(tmp_path, rows, baseline)
        assert code == 3

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
        {**RUN_RECORD, "config": 7, "wall_clock_s": 0.1, "memory_cost": 4},
    ], ids=["no_run_fields", "not_an_object", "event_without_accuracy", "accuracy_null",
            "accuracy_string", "accuracy_nan", "accuracy_above_one", "t_string", "t_zero",
            "t_fraction", "buffer_size_string", "seed_bool", "method_number",
            "config_number"])
    def test_malformed_record(self, tmp_path, capsys, line):
        code, out = self.run_report(tmp_path, [("queue", 2, 0, [(30, 1.0)])])
        assert code == 0
        results = tmp_path / "results.jsonl"
        results.write_text(results.read_text() + json.dumps(line) + "\n")
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
