"""Catastrophic forgetting on a sequential stream, and what rehearsal buys back.

Two Gaussian classes arrive one class at a time. A model fine-tuned on each
sample with no rehearsal forgets the first class while learning the second;
replaying a small merged buffer after every sample keeps both alive.
Takes about 15 seconds. Run: python demos/02_forgetting_and_rehearsal.py
"""

import numpy as np

from protostream import (MLPConfig, RunConfig, StreamOrdering, SynthSpec,
                         execute_run, omega_score, run_offline_baseline,
                         synth_gaussian)

dataset = synth_gaussian(SynthSpec(num_classes=2, dim=10,
                                   samples_per_class_train=200,
                                   samples_per_class_test=100,
                                   class_mean_separation=5.0, noise_std=1.0,
                                   seed=0))
mlp = MLPConfig(layer_sizes=(32,), learning_rate=0.5, batch_size=32, seed=0)
ordering = StreamOrdering("class_iid", seed=0)


def make_config(strategy, size):
    return RunConfig(strategy, size, ordering, mlp, eval_every=50, buffer_seed=0)


offline_curve, offline_acc = run_offline_baseline(dataset, make_config("full", 0),
                                                  epochs=20)
print(f"offline baseline (all 400 samples, 20 epochs): {offline_acc:.3f}")
print(f"stream order: 200 samples of class 0, then 200 of class 1\n")

curves = {}
for strategy, size in (("no_buffer", 0), ("exstream", 8), ("full", 0)):
    name = f"{strategy}" + (f" (8 per class)" if size else "")
    curves[name] = execute_run(dataset, make_config(strategy, size)).curve

header = "t".rjust(5) + "".join(name.rjust(22) for name in curves)
print(header)
times = next(iter(curves.values())).times
for i, t in enumerate(times):
    row = f"{t:5d}" + "".join(f"{c.values[i]:22.3f}" for c in curves.values())
    print(row)

print()
for name, curve in curves.items():
    omega = omega_score(curve, offline_curve).omega
    print(f"omega[{name}] = {omega:.3f}")
print("\nDuring the first block every run sits at 0.500: the model has only")
print("seen class 0, and on the balanced test set that is the ceiling. After")
print("t=200 the no-rehearsal run trades class 0 away while learning class 1")
print("and stalls; replaying 8 merged prototypes per class after each sample")
print("recovers nearly all of the offline accuracy. That one-class opening")
print("block also caps omega well below 1 for every method on this ordering.")
