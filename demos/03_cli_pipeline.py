"""The four CLI stages end to end: synth, baseline, run, report.

Everything lands in ./demo_workspace so you can poke at the files after.
Each stage is also printed as the equivalent shell command; with the
package installed, `protostream <cmd> ...` does the same thing.
Run: python demos/03_cli_pipeline.py
"""

import json
import shutil
from pathlib import Path

from protostream.cli import main

work = Path("demo_workspace")
if work.exists():
    shutil.rmtree(work)
work.mkdir()


def stage(argv):
    print(f"\n$ protostream {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"stage failed with exit code {code}"


# 1. synthesize a small labeled feature set
synth_cfg = work / "synth.json"
synth_cfg.write_text(json.dumps({
    "num_classes": 3, "dim": 16,
    "samples_per_class_train": 60, "samples_per_class_test": 20,
    "instances_per_class": 4, "class_mean_separation": 6.0,
    "noise_std": 1.0, "seed": 0}, indent=2))
stage(["synth", "--config", str(synth_cfg), "--out", str(work / "data")])

# 2. train the offline reference model on the full train split
mlp = {"layer_sizes": [32], "learning_rate": 0.1, "batch_size": 16}
base_cfg = work / "baseline.json"
base_cfg.write_text(json.dumps({"dataset": "demo", "epochs": 15,
                                "mlp": {**mlp, "seed": 0}}, indent=2))
stage(["baseline",
       "--features", str(work / "data" / "features.feat"),
       "--manifest", str(work / "data" / "manifest.csv"),
       "--config", str(base_cfg), "--out", str(work / "baseline.json.out")])

# 3. sweep three methods over two buffer sizes and two stream orders; each
#    run's learner seed is its seed from "seeds", so the sweep's mlp has none
sweep_cfg = work / "sweep.json"
sweep_cfg.write_text(json.dumps({
    "dataset": "demo",
    "features": str(work / "data" / "features.feat"),
    "manifest": str(work / "data" / "manifest.csv"),
    "methods": ["exstream", "queue", "no_buffer"],
    "orderings": ["iid", "class_iid"],
    "seeds": [0], "buffer_sizes": [4, 16], "eval_every": 45,
    "mlp": mlp}, indent=2))
stage(["run", "--config", str(sweep_cfg),
       "--baseline", str(work / "baseline.json.out"),
       "--out", str(work / "results.jsonl")])

# rerunning is a no-op: completed run ids are skipped, nothing is recomputed
stage(["run", "--config", str(sweep_cfg),
       "--baseline", str(work / "baseline.json.out"),
       "--out", str(work / "results.jsonl")])

# 4. summarize into a CSV table
stage(["report", "--results", str(work / "results.jsonl"),
       "--baseline", str(work / "baseline.json.out"),
       "--out", str(work / "report")])

print("\n--- report/omega_table.csv ---")
print((work / "report" / "omega_table.csv").read_text())
