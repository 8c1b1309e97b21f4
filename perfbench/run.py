#!/usr/bin/env python3
"""protostream benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``. The run repeats whole rounds of its workload until ``--seconds``
have passed (at least one round), checks every round's outputs, and prints
one JSON object as its last line of standard output. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced rounds and reports per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper_embed", "buffer_compress", "cli_sweep")
# BLAS threads of the benchmark process. Only paper_embed's 2048-d matmuls
# gain from a second thread; on small shapes it adds synchronisation and
# makes timings follow the load of the other core. cli_sweep's commands run
# in child processes with one thread each.
BLAS_THREADS = {"paper_embed": min(2, len(os.sched_getaffinity(0))),
                "buffer_compress": 1, "cli_sweep": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must lie in [0, 2**31)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _rounds(seconds, run_round):
    """Call run_round(k) until ``seconds`` have passed; at least once."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        run_round(k)
        k += 1


def _checked(workload, k, tracer=None, **kwargs):
    """One round, traced when a tracer is given, then its checks (never
    traced). The round's files are removed once checked."""
    if tracer is None:
        rnd, outputs = workload.round(k, **kwargs)
    else:
        with tracer.installed():
            rnd, outputs = workload.round(k, **kwargs)
    rnd.extra["peak_rss_mb"] = workload.peak_rss_mb()
    rnd.extra.update(workload.check(outputs))
    for path in workload.workdir.glob("round*"):
        shutil.rmtree(path)
    return rnd


def _same_results(rounds):
    import checks
    first = rounds[0].omegas
    for rnd in rounds[1:]:
        checks.require(rnd.omegas == first, "rounds on the same inputs gave different omegas")


def samples_per_s(rounds):
    """Samples of all rounds over their summed streaming time. Timings on
    a shared machine swing by tens of percent within seconds, and this
    uses every measured second rather than the middle round."""
    return sum(r.samples for r in rounds) / sum(r.stream_s for r in rounds)


def measure(workload, seconds):
    rounds = []
    _rounds(seconds, lambda k: rounds.append(_checked(workload, k)))
    _same_results(rounds)
    metrics = {
        "setup_s": (statistics.median(t for r in rounds for t in r.setup_s), "s"),
        "baseline_s": (statistics.median(t for r in rounds for t in r.baseline_s), "s"),
        "samples_per_s": (samples_per_s(rounds), "samples/s"),
        # The peak creeps up with every further round, so it is read after
        # the first one, before any check ran: the peak of one pass.
        "peak_rss_mb": (rounds[0].extra["peak_rss_mb"], "MB"),
        "omega_mean": (statistics.fmean(rounds[0].omegas.values()), "ratio"),
    }
    return rounds, metrics


def measure_traced(workload, seconds):
    """Cycles of an untraced and a traced round, in alternating order so
    that warm-up and drift do not all fall on one side. cli_sweep's traced
    round runs its commands in this process (pool workers would keep their
    spans), so its untraced round does too, and each cycle starts with a
    round as ``--trace 0`` runs it, which gives the parallel speedup."""
    import tracing
    tracer = tracing.Tracer()
    reference, untraced, traced = [], [], []

    def cycle(k):
        if workload.name == "cli_sweep":
            reference.append(_checked(workload, 3 * k))
        steps = [lambda: untraced.append(_checked(workload, 3 * k + 1, in_process=True)),
                 lambda: traced.append(_checked(workload, 3 * k + 2, tracer, in_process=True))]
        for step in (steps if k % 2 == 0 else steps[::-1]):
            step()

    _rounds(seconds, cycle)
    rounds = reference + untraced + traced
    _same_results(rounds)
    metrics = tracing.layer_metrics(tracer, len(traced))
    plain = samples_per_s(untraced)
    with_spans = samples_per_s(traced)
    metrics["trace.samples_per_s"] = (with_spans, "samples/s")
    metrics["trace.untraced_samples_per_s"] = (plain, "samples/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain - with_spans) / plain, "%")
    for key, unit in (("log_bytes", "bytes"), ("log_records", "count")):
        metrics[f"cli.{key}"] = (float(statistics.median(
            r.extra.get(key, 0) for r in traced)), unit)
    speedups = [r.extra["parallel_speedup"] for r in reference]
    metrics["cli.parallel_speedup"] = (statistics.median(speedups) if speedups else 0.0, "ratio")
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"trace-{workload.name}-s{workload.seed}.npz")
    return rounds, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "protostream" / "__init__.py").is_file():
        print(f"error: no protostream sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS[args.workload])
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, work)
        try:
            if args.trace:
                rounds, metrics = measure_traced(workload, args.seconds)
            else:
                rounds, metrics = measure(workload, args.seconds)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": True,
        "attempted": sum(r.runs for r in rounds),
        "failed": 0,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
