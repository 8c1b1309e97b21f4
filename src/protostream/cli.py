"""Command line entry points: synthesize datasets, train the offline
baseline, sweep streaming runs into a JSONL log, and report omega/mu CSVs.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .buffers import BOUNDED_STRATEGIES
from .data import (Dataset, ORDERING_KINDS, StreamOrdering, SynthSpec,
                   load_feature_matrix, load_manifest, synth_gaussian, write_dataset)
from .errors import DataFormatError, NumericError, UsageError, require_int
from .metrics import OmegaResult, mu_total, omega_score
from .mlp import MLPClassifier, MLPConfig, fit_offline
from .protocol import METHODS, AccuracyCurve, RunConfig, execute_run

SMALL_LABEL_SET_SIZES = (2, 4, 8, 16, 32, 64, 128, 256)
LARGE_LABEL_SET_SIZES = (2, 4, 8, 16)
LARGE_LABEL_SET_MIN = 100
# what identifies a run in every record of the results log, besides run_id
RUN_FIELDS = ("dataset", "method", "buffer_size", "ordering", "seed")
RECORD_KEYS = frozenset(("run_id",) + RUN_FIELDS)
SWEEP_KEYS = ("dataset", "features", "manifest", "methods", "orderings", "seeds",
              "normalize", "buffer_sizes", "eval_every", "mlp")
BASELINE_KEYS = ("dataset", "epochs", "normalize", "mlp")

_dataset_cache: dict[tuple, Dataset] = {}


def main(argv=None) -> int:
    # the cache lives for one command (and the workers `run` forks after
    # loading): a later command may find other files at the same paths
    _dataset_cache.clear()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args) or 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protostream",
        description="Streaming classification with memory-bounded rehearsal buffers.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="JSON file of synthesis parameters")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("baseline", help="train the offline baseline")
    p.add_argument("--features", required=True, help="FEAT binary feature file")
    p.add_argument("--manifest", required=True, help="manifest CSV")
    p.add_argument("--config", required=True, help="JSON with mlp settings and epochs")
    p.add_argument("--seed", type=int, help="override the learner seed")
    p.add_argument("--out", required=True, help="baseline JSON output path")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("run", help="execute a sweep of streaming runs")
    p.add_argument("--config", required=True, help="sweep JSON")
    p.add_argument("--baseline", required=True, help="baseline JSON from the baseline command")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="results JSONL (appended, resumable)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize results as omega/mu CSV tables")
    p.add_argument("--results", required=True, help="results JSONL from the run command")
    p.add_argument("--baseline", required=True, help="baseline JSON")
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.set_defaults(func=cmd_report)
    return parser


def _load_json(path, what):
    path = Path(path)
    if not path.exists():
        raise UsageError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc


def _check_keys(payload, keys, what):
    if not isinstance(payload, dict):
        raise UsageError(f"{what} must be a JSON object")
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise UsageError(f"unknown {what} keys: {unknown}")
    return payload


def _build(cls, payload, what):
    _check_keys(payload, cls.__dataclass_fields__, what)
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed {what}: {exc}") from exc


def _convert(convert, value, key):
    """convert(value); a malformed value is a usage error naming its key."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed {key!r} value {value!r}: {exc}") from exc


def _ints(values, key):
    return [require_int(v, f"{key} entry") for v in _convert(list, values, key)]


def _flag(payload, key, default):
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise UsageError(f"{key} must be true or false, got {value!r}")
    return value


def _is_accuracy(value) -> bool:
    """Whether a value parsed from JSON is a number in [0, 1]: not a bool,
    NaN or infinity."""
    return type(value) in (int, float) and 0 <= value <= 1


def _read_baseline(path) -> tuple[str, float]:
    """A baseline file's dataset name and offline accuracy, a number in
    [0, 1]; anything else in their place is a data error."""
    baseline = _load_json(path, "baseline")
    if not (isinstance(baseline, dict) and isinstance(baseline.get("dataset"), str)
            and _is_accuracy(baseline.get("accuracy"))):
        raise DataFormatError(f"{path}: baseline needs a dataset name and an accuracy in [0, 1]")
    return baseline["dataset"], float(baseline["accuracy"])


def _load_dataset(features_path, manifest_path, normalize, name=None) -> Dataset:
    key = (str(features_path), str(manifest_path), bool(normalize), name)
    if key not in _dataset_cache:
        for path, what in ((features_path, "features"), (manifest_path, "manifest")):
            if not Path(path).exists():
                raise UsageError(f"{what} file not found: {path}")
        matrix = load_feature_matrix(features_path)
        _dataset_cache[key] = load_manifest(manifest_path, matrix,
                                            name=name, normalize=normalize)
    return _dataset_cache[key]


# -- synth ---------------------------------------------------------------

def cmd_synth(args) -> int:
    payload = _load_json(args.config, "synth config")
    if args.seed is not None:
        payload["seed"] = args.seed
    spec = _build(SynthSpec, payload, "synth config")
    dataset = synth_gaussian(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    features = out / "features.feat"
    manifest = out / "manifest.csv"
    write_dataset(dataset, features, manifest)
    print(f"wrote {features} and {manifest}: "
          f"{len(dataset.train)} train / {len(dataset.test)} test samples, "
          f"{dataset.num_classes} classes, dim {dataset.dim}")
    return 0


# -- baseline ------------------------------------------------------------

def cmd_baseline(args) -> int:
    payload = _check_keys(_load_json(args.config, "baseline config"), BASELINE_KEYS,
                          "baseline config")
    mlp_payload = _convert(dict, payload.get("mlp", {}), "mlp")
    if args.seed is not None:
        mlp_payload["seed"] = args.seed
    config = _build(MLPConfig, mlp_payload, "mlp config")
    epochs = require_int(payload.get("epochs", 20), "epochs")
    normalize = _flag(payload, "normalize", True)
    name = str(payload["dataset"]) if "dataset" in payload else None
    dataset = _load_dataset(args.features, args.manifest, normalize, name)
    model = MLPClassifier(config, dataset.dim, dataset.num_classes)
    _, accuracy = fit_offline(model, dataset, epochs)
    record = {"dataset": dataset.name, "seed": config.seed,
              "accuracy": accuracy, "epochs": epochs}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"offline baseline for {dataset.name}: accuracy {accuracy:.4f} "
          f"({epochs} epochs) -> {out}")
    return 0


# -- run -----------------------------------------------------------------

def cmd_run(args) -> int:
    sweep = _check_keys(_load_json(args.config, "sweep config"), SWEEP_KEYS, "sweep config")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")

    for key in ("dataset", "features", "manifest", "methods", "orderings", "seeds"):
        if key not in sweep:
            raise UsageError(f"sweep config is missing the {key!r} key")
    dataset_name = str(sweep["dataset"])

    baseline_dataset, _ = _read_baseline(args.baseline)
    if baseline_dataset != dataset_name:
        raise UsageError(
            f"no baseline for dataset {dataset_name!r} in {args.baseline} "
            f"(found {baseline_dataset!r}); run 'protostream baseline' first")

    methods = _convert(list, sweep["methods"], "methods")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; expected one of {METHODS}")
    orderings = _convert(list, sweep["orderings"], "orderings")
    for o in orderings:
        if o not in ORDERING_KINDS:
            raise UsageError(f"unknown ordering {o!r}; expected one of {ORDERING_KINDS}")
    seeds = _ints(sweep["seeds"], "seeds")
    if not methods or not orderings or not seeds:
        raise UsageError("sweep needs at least one method, ordering and seed")

    normalize = _flag(sweep, "normalize", True)
    features, manifest = str(sweep["features"]), str(sweep["manifest"])
    dataset = _load_dataset(features, manifest, normalize, dataset_name)
    # the inputs' bytes enter every run's config hash, not just their paths
    inputs_crc32 = [f"{zlib.crc32(Path(p).read_bytes()):08x}" for p in (features, manifest)]

    sizes = sweep.get("buffer_sizes")
    if sizes is None:
        sizes = (LARGE_LABEL_SET_SIZES if dataset.num_classes >= LARGE_LABEL_SET_MIN
                 else SMALL_LABEL_SET_SIZES)
    sizes = _ints(sizes, "buffer_sizes")

    eval_every = require_int(sweep.get("eval_every", 1), "eval_every")
    mlp_payload = _convert(dict, sweep.get("mlp", {}), "mlp")

    tasks = []
    for method in methods:
        per_method_sizes = sizes if method in BOUNDED_STRATEGIES else [0]
        for b in per_method_sizes:
            for ordering in orderings:
                for seed in seeds:
                    run_id = f"{dataset_name}-{method}-b{b}-{ordering}-s{seed}"
                    tasks.append({
                        "run_id": run_id,
                        "dataset": dataset_name,
                        "features": features,
                        "manifest": manifest,
                        "inputs_crc32": inputs_crc32,
                        "normalize": normalize,
                        "method": method,
                        "buffer_size": b,
                        "ordering": ordering,
                        "seed": seed,
                        "eval_every": eval_every,
                        "mlp": mlp_payload,
                    })
    # a bad setting of any run fails the sweep before the first run executes
    for task in tasks:
        _run_config(task)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    runs, intact = _read_log(out)
    done = {run_id: run.terminal.get("config") for run_id, run in runs.items() if run.terminal}
    for task in tasks:
        run_id = task["run_id"]
        if run_id in done and done[run_id] != _config_hash(task):
            raise UsageError(f"{out} holds a finished run {run_id} with another "
                             f"configuration; write this sweep to a new --out")
    if out.exists() and out.stat().st_size > intact:
        print(f"dropping an unfinished write at the end of {out}", file=sys.stderr)
        os.truncate(out, intact)
    pending = [t for t in tasks if t["run_id"] not in done]
    # a pool starts all its workers at the first submit: never more than the runs
    workers = min(args.jobs, len(pending))
    where = f"{workers} worker processes" if workers > 1 else "this process"
    print(f"{len(tasks)} runs in sweep, {len(tasks) - len(pending)} already complete, "
          f"{len(pending)} to execute in {where}")

    with open(out, "a") as log:
        if workers <= 1:
            for task in pending:
                _write_records(log, _execute_task(task))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_execute_task, task) for task in pending]
                for future in as_completed(futures):
                    _write_records(log, future.result())
    return 0


def _is_run_record(record) -> bool:
    """Whether a parsed results line holds every value ``run`` and
    ``report`` read, each of its type: run_id, dataset, method, ordering
    and (where present) config strings, buffer_size and seed integers, and
    for an event (a record with ``t``) t an integer >= 1 and its accuracy a
    number in [0, 1]."""
    if not (isinstance(record, dict) and record.keys() >= RECORD_KEYS):
        return False
    strings = [k for k in ("run_id", "dataset", "method", "ordering", "config") if k in record]
    integers = [k for k in ("buffer_size", "seed", "t") if k in record]
    return (all(type(record[k]) is str for k in strings)
            and all(type(record[k]) is int for k in integers)  # bool is not
            and ("t" not in record
                 or (record["t"] >= 1 and _is_accuracy(record.get("accuracy")))))


def _log_records(path):
    """Yield (record, end offset) for each record of a results log.

    Every record ends with a newline, so a last line without one is a
    write cut short by a crash: it is skipped, and ``run`` cuts it off and
    re-executes its run. A corrupt line anywhere else is an error, and so is
    a line that is not a run record (``_is_run_record``).
    """
    end = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                return
            end += len(line)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: corrupt results line: {exc}") from exc
            if not _is_run_record(record):
                text = line.decode(errors="replace").strip()[:200]
                raise DataFormatError(f"{path}: not a run record: {text}")
            yield record, end


@dataclass
class _LoggedRun:
    """One run of a results log: its RUN_FIELDS, its events as {t: accuracy},
    and its terminal record (None while it has none)."""

    meta: dict
    events: dict[int, float] = field(default_factory=dict)
    terminal: dict | None = None


def _read_log(path: Path) -> tuple[dict[str, _LoggedRun], int]:
    """Each run of a results log by run_id, in order of first appearance,
    and the byte length of the log's intact part (up to its last newline);
    ``run`` resumes from it and ``report`` scores it. The last record of a
    (run, t) wins, so a run re-executed after a partial write never counts
    an event twice."""
    runs, intact = {}, 0
    if path.exists():
        for record, intact in _log_records(path):
            run = runs.get(record["run_id"])
            if run is None:
                run = runs[record["run_id"]] = _LoggedRun({k: record[k] for k in RUN_FIELDS})
            if "t" in record:
                run.events[int(record["t"])] = float(record["accuracy"])
            if "memory_cost" in record:
                run.terminal = record
    return runs, intact


def _config_hash(task) -> str:
    """CRC-32 of the task's canonical JSON, as 8 hex digits. Not hashlib:
    importing it loads OpenSSL, about 3.5 MB of resident memory."""
    return f"{zlib.crc32(json.dumps(task, sort_keys=True).encode()):08x}"


def _write_records(log, records):
    for record in records:
        log.write(json.dumps(record, sort_keys=True) + "\n")
    log.flush()


def _run_config(task) -> RunConfig:
    mlp_payload = dict(task["mlp"])
    mlp_payload["seed"] = task["seed"]
    return RunConfig(
        strategy=task["method"],
        buffer_size=task["buffer_size"],
        ordering=StreamOrdering(task["ordering"], task["seed"]),
        mlp=_build(MLPConfig, mlp_payload, "mlp config"),
        eval_every=task["eval_every"],
        buffer_seed=task["seed"],
        dataset_name=task["dataset"],
    )


def _execute_task(task) -> list[dict]:
    dataset = _load_dataset(task["features"], task["manifest"],
                            task["normalize"], task["dataset"])
    result = execute_run(dataset, _run_config(task))
    identity = {k: task[k] for k in ("run_id",) + RUN_FIELDS}
    records = []
    for t, accuracy in result.curve.events:
        records.append({**identity, "t": t, "accuracy": accuracy})
    records.append({**identity,
                    "config": _config_hash(task),
                    "wall_clock_s": result.wall_clock_s,
                    "memory_cost": result.memory_cost})
    return records


# -- report ----------------------------------------------------------------

def cmd_report(args) -> int:
    results_path = Path(args.results)
    if not results_path.exists():
        raise UsageError(f"results file not found: {results_path}")
    baseline = _read_baseline(args.baseline)

    runs, _ = _read_log(results_path)
    if not any(run.events for run in runs.values()):
        raise DataFormatError(f"{results_path}: no event records to report")

    omegas = _per_run_omegas(runs, *baseline)
    if not omegas:
        raise DataFormatError(f"{results_path}: no run has finished")
    table_rows, plot_rows = _aggregate(omegas)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "omega_table.csv"
    plot_path = out / "plot_data.csv"
    _write_csv(table_path, ("dataset", "ordering", "method", "buffer_size",
                            "omega", "omega_std", "seeds"), table_rows)
    _write_csv(plot_path, ("dataset", "ordering", "method", "buffer_size",
                           "omega", "omega_std"), plot_rows)
    print(f"wrote {table_path} and {plot_path}")
    return 0


def _per_run_omegas(runs, dataset, accuracy):
    """Omega per finished run with events, against the baseline's dataset
    and accuracy; runs without a terminal record are skipped (and counted
    on stderr): their curves may be cut short."""
    unfinished = [run for run in runs.values() if run.events and not run.terminal]
    if unfinished:
        print(f"skipped {len(unfinished)} unfinished run(s) with no terminal record",
              file=sys.stderr)

    omegas = []
    for run_id, run in runs.items():
        if not (run.events and run.terminal):
            continue
        meta = run.meta
        if meta["dataset"] != dataset:
            raise DataFormatError(
                f"run {run_id} is for dataset {meta['dataset']!r} but the baseline "
                f"covers {dataset!r}")
        times, values = map(np.array, zip(*sorted(run.events.items())))
        offline = np.full(len(times), accuracy)
        stream = AccuracyCurve(times, values)
        off = AccuracyCurve(times, offline)
        score = omega_score(stream, off, buffer_size=meta["buffer_size"])
        omegas.append((meta, score))
    return omegas


def _aggregate(omegas):
    groups: dict[tuple, list[float]] = {}
    for meta, score in omegas:
        key = (meta["dataset"], meta["ordering"], meta["method"], int(meta["buffer_size"]))
        groups.setdefault(key, []).append(score.omega)

    table_rows = []
    plot_rows = []
    by_method: dict[tuple, list] = {}
    for key in sorted(groups):
        dataset, ordering, method, size = key
        values = np.array(groups[key])
        mean = float(values.mean())
        std = float(values.std())
        row = (dataset, ordering, method, str(size), f"{mean:.3f}", f"{std:.3f}")
        table_rows.append(row + (str(len(values)),))
        plot_rows.append(row)
        by_method.setdefault((dataset, ordering, method), []).append((size, mean))

    summary_rows = []
    for (dataset, ordering, method), pairs in sorted(by_method.items()):
        per_size = [OmegaResult(size, mean, 0) for size, mean in pairs]
        mu = mu_total(per_size).mu
        summary_rows.append((dataset, ordering, method, "mu_total", f"{mu:.3f}", "", ""))

    return table_rows + summary_rows, plot_rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


if __name__ == "__main__":
    sys.exit(main())
