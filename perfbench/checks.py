"""Correctness checks on the program's outputs.

Each check recomputes what it needs from the workload's inputs or from
properties the method must have, never from a stored copy of earlier
output, and raises CheckFailed with a reason when the output is wrong.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

import numpy as np

# Ω is reported to three decimals; a recomputed value may sit half a unit
# of the last place away from the printed one.
REPORT_TOLERANCE = 0.0005 + 1e-9
# ExStream merges are count-weighted means, so the count-weighted prototype
# sum drifts from the stream sum only by rounding.
MASS_RELATIVE_TOLERANCE = 1e-9

PER_SLOT_ONE = ("exstream", "online_kmeans", "reservoir", "queue")


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def grid(num_samples, eval_every):
    """Event times a run must report: every eval_every samples plus the last."""
    times = list(range(eval_every, num_samples + 1, eval_every))
    if not times or times[-1] != num_samples:
        times.append(num_samples)
    return times


def check_curve(label, times, values, num_samples, eval_every, num_test):
    """Event times on the grid, accuracies in [0, 1] and whole multiples of
    1/num_test (an accuracy is a count of correct test predictions)."""
    times = [int(t) for t in times]
    require(times == grid(num_samples, eval_every),
            f"{label}: event times {times[:4]}... are not the grid every {eval_every} "
            f"up to {num_samples}")
    for t, v in zip(times, values):
        require(0.0 <= v <= 1.0, f"{label}: accuracy {v} at t={t} outside [0, 1]")
        hits = v * num_test
        require(abs(hits - round(hits)) < 1e-6,
                f"{label}: accuracy {v} at t={t} is not a count over {num_test} test samples")


def expected_memory_cost(method, buffer_size, class_counts):
    """Memory units a finished run must hold, from the stream's class counts."""
    b = buffer_size
    counts = [int(n) for n in class_counts]
    if method in PER_SLOT_ONE:
        return sum(min(n, b) for n in counts)
    if method == "hpstream":
        return sum(2 * min(n, b) for n in counts)
    if method == "clustream":
        return sum(n if n < 2 * b else 2 * b for n in counts)
    if method == "full":
        return sum(counts)
    if method == "no_buffer":
        return 0
    raise CheckFailed(f"no memory formula for method {method!r}")


def check_memory_cost(label, method, buffer_size, class_counts, cost):
    want = expected_memory_cost(method, buffer_size, class_counts)
    require(int(cost) == want, f"{label}: memory_cost {cost}, formula gives {want}")


def recompute_omega(values, offline_accuracy):
    """Mean over events of streaming accuracy / offline accuracy."""
    require(offline_accuracy > 0, "offline accuracy must be positive")
    ratios = [float(v) / float(offline_accuracy) for v in values]
    return float(np.mean(np.array(ratios)))


def check_omega_exact(label, values, offline_accuracy, reported):
    mine = recompute_omega(values, offline_accuracy)
    require(mine == reported, f"{label}: omega {reported!r}, recomputed {mine!r}")


def check_above_chance(label, accuracy, num_classes, margin):
    chance = 1.0 / num_classes
    require(accuracy >= chance + margin,
            f"{label}: accuracy {accuracy:.3f} not {margin} above chance {chance:.3f}")


def check_near_chance(label, accuracy, num_classes, margin):
    chance = 1.0 / num_classes
    require(accuracy <= chance + margin,
            f"{label}: accuracy {accuracy:.3f} not within {margin} of chance {chance:.3f}")


def check_near_offline(label, accuracy, offline_accuracy, margin):
    require(accuracy >= offline_accuracy - margin,
            f"{label}: final accuracy {accuracy:.3f} more than {margin} below "
            f"the offline reference {offline_accuracy:.3f}")


def check_exstream_mass(label, stream_by_class, counts_by_class, vectors_by_class):
    """Per class, prototype counts sum to the class's sample count and the
    count-weighted prototype sum equals the sum of the class's stream."""
    for cls, stream in stream_by_class.items():
        counts = np.asarray(counts_by_class[cls])
        vectors = np.asarray(vectors_by_class[cls])
        require(int(counts.sum()) == len(stream),
                f"{label}: class {cls} counts sum to {int(counts.sum())}, stream has {len(stream)}")
        want = np.asarray(stream).sum(axis=0)
        got = (counts[:, None] * vectors).sum(axis=0)
        err = float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))
        require(err <= MASS_RELATIVE_TOLERANCE,
                f"{label}: class {cls} weighted prototype sum off by relative {err:.2e}")


# -- the sweep log and report ------------------------------------------------

def parse_log(path):
    """Every line of a results log as a JSON object; a line that does not
    parse fails the check."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"{path}:{lineno}: log line does not parse: {exc}") from exc
    return records


def split_log(records, expected_ids):
    """Group a log by run: (events {run_id: [(t, acc)]}, terminal {run_id: record}).
    Each expected run has exactly one terminal record and no other run appears."""
    terminal_counts = Counter(r["run_id"] for r in records if "memory_cost" in r)
    seen = {r["run_id"] for r in records}
    require(seen == set(expected_ids),
            f"log runs differ from the sweep: missing {sorted(set(expected_ids) - seen)[:3]}, "
            f"extra {sorted(seen - set(expected_ids))[:3]}")
    for run_id in expected_ids:
        require(terminal_counts[run_id] == 1,
                f"run {run_id} has {terminal_counts[run_id]} terminal records, expected 1")
    events, terminal = {}, {}
    for r in records:
        if "memory_cost" in r:
            terminal[r["run_id"]] = r
        else:
            events.setdefault(r["run_id"], []).append((int(r["t"]), float(r["accuracy"])))
    for pairs in events.values():
        pairs.sort()
    return events, terminal


def read_table(path):
    """The omega table keyed by (dataset, ordering, method, buffer_size);
    a key that appears twice fails the check."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = {(r["dataset"], r["ordering"], r["method"], r["buffer_size"]): r for r in rows}
    require(len(table) == len(rows), f"{path}: {len(rows) - len(table)} duplicate rows")
    return table


def check_omega_table(table, run_omegas, run_keys, seeds_per_row):
    """The report's omega table has exactly one row per (ordering, method,
    size) plus one mu_total row per (ordering, method), and each value
    matches the mean recomputed from the log to the table's 3 decimals."""
    groups = {}
    for run_id, omega in run_omegas.items():
        groups.setdefault(run_keys[run_id], []).append(omega)
    expected = {}
    per_method = {}
    for key, omegas in groups.items():
        require(len(omegas) == seeds_per_row,
                f"{key}: {len(omegas)} runs, expected {seeds_per_row}")
        dataset, ordering, method, size = key
        mean = float(np.mean(omegas))
        expected[(dataset, ordering, method, str(size))] = (mean, len(omegas))
        per_method.setdefault((dataset, ordering, method), []).append(mean)
    for (dataset, ordering, method), means in per_method.items():
        expected[(dataset, ordering, method, "mu_total")] = (float(np.mean(means)), None)
    require(set(table) == set(expected),
            f"omega table rows differ: missing {sorted(set(expected) - set(table))[:3]}, "
            f"extra {sorted(set(table) - set(expected))[:3]}")
    for key, (mean, seeds) in expected.items():
        row = table[key]
        require(abs(float(row["omega"]) - mean) <= REPORT_TOLERANCE,
                f"omega table {key}: {row['omega']}, recomputed {mean:.6f}")
        if seeds is not None:
            require(int(row["seeds"]) == seeds,
                    f"omega table {key}: seeds {row['seeds']}, expected {seeds}")
