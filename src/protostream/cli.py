"""Command line entry points: synthesize datasets, train the offline
baseline, sweep streaming runs into a JSONL log, and report an omega/mu CSV.

Each command imports the layers it runs when it runs: synth the data
module, baseline data and mlp, run every layer (and the process pool only
when it starts one), report metrics.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric error or failed run.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import sys
import zlib
from contextlib import nullcontext
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataFormatError, NumericError, UsageError, require_int

if TYPE_CHECKING:
    from .data import Dataset
    from .protocol import RunConfig

SMALL_LABEL_SET_SIZES = (2, 4, 8, 16, 32, 64, 128, 256)
LARGE_LABEL_SET_SIZES = (2, 4, 8, 16)
LARGE_LABEL_SET_MIN = 100
# what identifies a run in every record of the results log, besides run_id
RUN_FIELDS = ("dataset", "method", "buffer_size", "ordering", "seed")
RECORD_KEYS = frozenset(("run_id",) + RUN_FIELDS)
SWEEP_KEYS = ("dataset", "features", "manifest", "methods", "orderings", "seeds",
              "buffer_sizes", "eval_every", "mlp")
BASELINE_KEYS = ("dataset", "epochs", "mlp")

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
    except OSError as exc:  # say, an --out that is a file where a directory belongs
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protostream",
        description="Streaming classification with memory-bounded rehearsal buffers.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="JSON file of synthesis parameters")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("baseline", help="train the offline baseline")
    p.add_argument("--features", required=True, help="FEAT binary feature file")
    p.add_argument("--manifest", required=True, help="manifest CSV")
    p.add_argument("--config", required=True, help="JSON with mlp settings and epochs")
    p.add_argument("--out", required=True, help="baseline JSON output path")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("run", help="execute a sweep of streaming runs")
    p.add_argument("--config", required=True, help="sweep JSON")
    p.add_argument("--baseline", required=True, help="baseline JSON from the baseline command")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="results JSONL (appended, resumable)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize results as an omega/mu CSV table")
    p.add_argument("--results", required=True, help="results JSONL from the run command")
    p.add_argument("--baseline", required=True, help="baseline JSON")
    p.add_argument("--out", required=True, help="output directory for the CSV")
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


def _typed(value, kind, key):
    """value, which must be a JSON array (kind list) or object (kind dict);
    anything else is a usage error naming its key."""
    if not isinstance(value, kind):
        raise UsageError(f"{key} must be a JSON {'array' if kind is list else 'object'}, "
                         f"got {value!r}")
    return value


def _ints(values, key):
    return [require_int(v, f"{key} entry") for v in _typed(values, list, key)]


def _is_accuracy(value) -> bool:
    """Whether a value parsed from JSON is a number in [0, 1]: not a bool,
    NaN or infinity."""
    return type(value) in (int, float) and 0 <= value <= 1


def _on_raw_rows(record) -> bool:
    """Whether a baseline file or terminal record says it was measured on
    rows that were not L2-normalized, as older versions could
    (``"normalize": false``)."""
    return record.get("normalize", True) is not True


def _read_baseline(path) -> dict:
    """A baseline file's fields, with its dataset name a string and its
    offline accuracy a float in (0, 1], as omega divides by it; anything
    else in their place is a data error."""
    baseline = _load_json(path, "baseline")
    if not (isinstance(baseline, dict) and isinstance(baseline.get("dataset"), str)
            and _is_accuracy(baseline.get("accuracy")) and baseline["accuracy"] > 0):
        raise DataFormatError(f"{path}: baseline needs a dataset name and an accuracy in (0, 1]")
    return {**baseline, "accuracy": float(baseline["accuracy"])}


def _inputs_crc32(features, manifest) -> list[str]:
    """CRC-32 of the features and manifest files' bytes, as 8 hex digits each."""
    return [f"{zlib.crc32(Path(p).read_bytes()):08x}" for p in (features, manifest)]


def _load_dataset(features_path, manifest_path, name=None) -> Dataset:
    from .data import load_feature_matrix, load_manifest
    key = (str(features_path), str(manifest_path), name)
    if key not in _dataset_cache:
        for path, what in ((features_path, "features"), (manifest_path, "manifest")):
            if not Path(path).exists():
                raise UsageError(f"{what} file not found: {path}")
        matrix = load_feature_matrix(features_path)
        _dataset_cache[key] = load_manifest(manifest_path, matrix, name=name)
    return _dataset_cache[key]


# -- synth ---------------------------------------------------------------

def cmd_synth(args) -> int:
    from .data import SynthSpec, synth_gaussian, write_dataset
    spec = _build(SynthSpec, _load_json(args.config, "synth config"), "synth config")
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
    from .mlp import MLPClassifier, MLPConfig, fit_offline
    payload = _check_keys(_load_json(args.config, "baseline config"), BASELINE_KEYS,
                          "baseline config")
    config = _build(MLPConfig, payload.get("mlp", {}), "mlp config")
    epochs = require_int(payload.get("epochs", 20), "epochs")
    name = str(payload["dataset"]) if "dataset" in payload else None
    dataset = _load_dataset(args.features, args.manifest, name)
    model = MLPClassifier(config, dataset.dim, dataset.num_classes)
    _, accuracy = fit_offline(model, dataset, epochs)
    # `run` scores a sweep against this baseline only on the same inputs
    record = {"dataset": dataset.name, "seed": config.seed, "accuracy": accuracy,
              "epochs": epochs, "inputs_crc32": _inputs_crc32(args.features, args.manifest)}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"offline baseline for {dataset.name}: accuracy {accuracy:.4f} "
          f"({epochs} epochs) -> {out}")
    return 0


# -- run -----------------------------------------------------------------

def cmd_run(args) -> int:
    from .buffers import BOUNDED_STRATEGIES
    sweep = _check_keys(_load_json(args.config, "sweep config"), SWEEP_KEYS, "sweep config")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")

    for key in ("dataset", "features", "manifest", "methods", "orderings", "seeds"):
        if key not in sweep:
            raise UsageError(f"sweep config is missing the {key!r} key")
    dataset_name = str(sweep["dataset"])

    baseline = _read_baseline(args.baseline)
    if baseline["dataset"] != dataset_name:
        raise UsageError(
            f"no baseline for dataset {dataset_name!r} in {args.baseline} "
            f"(found {baseline['dataset']!r}); run 'protostream baseline' first")

    methods = _typed(sweep["methods"], list, "methods")
    orderings = _typed(sweep["orderings"], list, "orderings")
    seeds = _ints(sweep["seeds"], "seeds")
    features, manifest = str(sweep["features"]), str(sweep["manifest"])
    dataset = _load_dataset(features, manifest, dataset_name)
    # the inputs' bytes enter the sweep's config hash, not just their paths
    inputs_crc32 = _inputs_crc32(features, manifest)

    sizes = sweep.get("buffer_sizes")
    if sizes is None:
        sizes = (LARGE_LABEL_SET_SIZES if dataset.num_classes >= LARGE_LABEL_SET_MIN
                 else SMALL_LABEL_SET_SIZES)
    sizes = _ints(sizes, "buffer_sizes")
    mlp_payload = _typed(sweep.get("mlp", {}), dict, "mlp")
    if "seed" in mlp_payload:
        raise UsageError("sweep mlp takes no 'seed': each run's learner seed is its own, "
                         "from 'seeds'")

    # the settings every run of the sweep shares; the run id fixes the rest
    common = {"dataset": dataset_name, "features": features, "manifest": manifest,
              "inputs_crc32": inputs_crc32, "eval_every": sweep.get("eval_every", 1),
              "mlp": mlp_payload}
    config_hash = _config_hash(common)
    # every run is configured, so checked, before the first one executes
    tasks = {}
    for method in methods:
        for b in sizes if method in BOUNDED_STRATEGIES else [0]:
            for ordering in orderings:
                for seed in seeds:
                    run_id = f"{dataset_name}-{method}-b{b}-{ordering}-s{seed}"
                    if run_id in tasks:
                        raise UsageError(f"sweep lists run {run_id} more than once")
                    task = {"run_id": run_id, **common, "config": config_hash, "method": method,
                            "buffer_size": b, "ordering": ordering, "seed": seed}
                    _run_config(task)
                    tasks[run_id] = task
    if not tasks:
        raise UsageError("sweep has no runs: it needs a method, an ordering and a seed, "
                         "and a buffer size for a bounded method")

    # one log holds one configuration: any finished run of another stops the sweep
    out = Path(args.out)
    runs, unfinished, intact = _read_log(out)
    for run_id, (terminal, *_) in runs.items():
        if terminal.get("config") != config_hash:
            raise UsageError(f"{out} holds a finished run {run_id} with another "
                             f"configuration; write this sweep to a new --out")
    # after the log's check: a log of other inputs needs a new --out whatever the baseline
    if baseline.get("inputs_crc32") != inputs_crc32 or _on_raw_rows(baseline):
        raise UsageError(f"baseline {args.baseline} was not trained on these features and "
                         f"manifest, L2-normalized; run 'protostream baseline' again")
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists() and out.stat().st_size > intact:
        cut = f"the unfinished run {unfinished}" if unfinished else "a torn last line"
        print(f"dropping what follows the last finished run in {out}: {cut}", file=sys.stderr)
        os.truncate(out, intact)
    pending = [task for run_id, task in tasks.items() if run_id not in runs]
    failed = sum("error" in runs[run_id][0] for run_id in tasks.keys() & runs.keys())
    # a pool starts all its workers at the first submit: never more than the runs
    workers = min(args.jobs, len(pending))
    blas = "one BLAS thread each" if _blas_thread_setter() else "BLAS threads left as they are"
    where = f"{workers} worker processes, {blas}" if workers > 1 else "this process"
    print(f"{len(tasks)} runs in sweep, {len(tasks) - len(pending)} already complete "
          f"({failed} failed), {len(pending)} to execute in {where}")

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, initializer=_one_blas_thread)
    else:
        pool = nullcontext()
    # serial or parallel, the runs are written in sweep order
    with pool, open(out, "a") as log:
        for lines, error in (pool.map if workers > 1 else map)(_execute_task, pending):
            log.write(lines)
            log.flush()
            if error:
                failed += 1
                print(error, file=sys.stderr)
    if failed:
        raise NumericError(f"{failed} of the sweep's {len(tasks)} runs failed; "
                           f"their records in {out} hold the errors")
    return 0


def _blas_thread_setter():
    """numpy's bundled OpenBLAS thread-count setter, void(int); None when the
    user set OPENBLAS_NUM_THREADS or numpy links a BLAS without a known one."""
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so")
    setters = (getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
               for lib in libs)
    return None if "OPENBLAS_NUM_THREADS" in os.environ else next(filter(None, setters), None)


def _one_blas_thread():
    """Pool initializer: one BLAS thread per worker, as N workers that each
    thread over every core slow each other down."""
    if setter := _blas_thread_setter():
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _is_run_record(record) -> bool:
    """Whether a parsed results line holds every value ``run`` and
    ``report`` read, each of its type: run_id, dataset, method, ordering
    and (where present) config strings, buffer_size and seed integers, and
    exactly one of ``t`` (an event), ``memory_cost`` (a finished run) or
    ``error`` (a failed run; a string), with t an integer >= 1 and its
    accuracy a number in [0, 1]."""
    if not (isinstance(record, dict) and record.keys() >= RECORD_KEYS):
        return False
    strings = [k for k in ("run_id", "dataset", "method", "ordering", "config", "error")
               if k in record]
    integers = [k for k in ("buffer_size", "seed", "t") if k in record]
    return (all(type(record[k]) is str for k in strings)
            and all(type(record[k]) is int for k in integers)  # bool is not
            and sum(k in record for k in ("t", "memory_cost", "error")) == 1
            and ("t" not in record
                 or (record["t"] >= 1 and _is_accuracy(record.get("accuracy")))))


def _read_log(path: Path) -> tuple[dict[str, tuple[dict, list[int], list]], str | None, int]:
    """The done runs of a results log, its unfinished run, and the byte
    length of the log up to its last done run.

    A log is a list of done runs, then at most the events of one
    unfinished run. A finished run is its event records at exactly the
    times ``event_times(last t, first t)``, then directly its terminal
    record (``memory_cost``); a failed run is one terminal record
    (``error``) on its own. Each done run comes by run_id, in the order
    written, as its terminal record and its event times and accuracies
    (none for a failed run); the unfinished run is the run_id of the
    events after the last done run, or None. ``run`` cuts the log back to
    its last done run before it appends, and ``report`` scores the
    finished runs.

    Every record ends with a newline, so a last line without one is a write
    cut short by a crash and is skipped. A corrupt line anywhere else is an
    error, and so is a line that is not a run record (``_is_run_record``)
    or that breaks this rule.
    """
    from .metrics import event_times
    if not path.exists():
        return {}, None, 0
    runs, run_id, times, values, intact, end = {}, None, [], [], 0, 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            end += len(line)
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: corrupt results line: {exc}") from exc
            fresh = _is_run_record(record) and record["run_id"] not in runs
            if fresh and "t" in record and run_id in (None, record["run_id"]):
                run_id = record["run_id"]
                times.append(record["t"])
                values.append(record["accuracy"])
            elif fresh and (run_id is None if "error" in record else run_id == record["run_id"]
                            and times[-1] <= len(times) * times[0]  # a grid no longer than times
                            and times == event_times(times[-1], times[0])):
                runs[record["run_id"]] = (record, times, values)
                run_id, times, values, intact = None, [], [], end
            else:
                text = line.decode(errors="replace").strip()[:200]
                raise DataFormatError(f"{path}: not a run record in its place: {text}")
    return runs, run_id, intact


def _config_hash(settings) -> str:
    """CRC-32 of the sweep's shared settings as canonical JSON, as 8 hex
    digits. Not hashlib: importing it loads OpenSSL, about 3.5 MB of
    resident memory."""
    return f"{zlib.crc32(json.dumps(settings, sort_keys=True).encode()):08x}"


def _run_config(task) -> RunConfig:
    """The run a task describes; its checks are the sweep's checks of
    method, ordering, capacity, eval_every and mlp."""
    from .data import StreamOrdering
    from .mlp import MLPConfig
    from .protocol import RunConfig
    return RunConfig(
        strategy=task["method"],
        buffer_size=task["buffer_size"],
        ordering=StreamOrdering(task["ordering"], task["seed"]),
        mlp=_build(MLPConfig, {**task["mlp"], "seed": task["seed"]}, "mlp config"),
        eval_every=task["eval_every"],
        buffer_seed=task["seed"],
    )


def _execute_task(task) -> tuple[str, str | None]:
    """One run's log lines, encoded in the worker so the parent's write
    stays short, and what to say if it failed: its events then its terminal
    record, or, if it raised NumericError, one failed record holding the
    message as ``error``. A terminal record names the inputs, as ``report``
    matches them against the baseline's."""
    from .protocol import execute_run
    dataset = _load_dataset(task["features"], task["manifest"], task["dataset"])
    identity = {k: task[k] for k in ("run_id",) + RUN_FIELDS}
    terminal = {**identity, **{k: task[k] for k in ("config", "inputs_crc32")}}
    try:
        result = execute_run(dataset, _run_config(task))
    except NumericError as exc:
        record = json.dumps({**terminal, "error": str(exc)}, sort_keys=True)
        return record + "\n", f"run {task['run_id']} failed: {exc}"
    records = [{**identity, "t": t, "accuracy": accuracy} for t, accuracy in result.curve.events]
    records.append({**terminal, "wall_clock_s": result.wall_clock_s,
                    "memory_cost": result.memory_cost})
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records), None


# -- report ----------------------------------------------------------------

def cmd_report(args) -> int:
    from .metrics import AccuracyCurve, mu_total, omega_score
    results_path = Path(args.results)
    if not results_path.exists():
        raise UsageError(f"results file not found: {results_path}")
    baseline = _read_baseline(args.baseline)

    # an unfinished or failed run is not scored: its curve is cut short or absent
    runs, unfinished, _ = _read_log(results_path)
    finished = {run_id: run for run_id, run in runs.items() if "error" not in run[0]}
    if unfinished:
        print(f"skipped the unfinished run {unfinished}", file=sys.stderr)
    if len(runs) > len(finished):
        print(f"skipped {len(runs) - len(finished)} failed run(s)", file=sys.stderr)
    if not finished:
        raise DataFormatError(f"{results_path}: no run has finished")

    # omega per finished run against the baseline, by (dataset, ordering, method, size)
    bound = ("dataset", "inputs_crc32")
    omegas: dict[tuple, list[float]] = {}
    for run_id, (meta, times, values) in finished.items():
        if (any(meta.get(k) is None or meta.get(k) != baseline.get(k) for k in bound)
                or _on_raw_rows(meta) or _on_raw_rows(baseline)):
            raise DataFormatError(f"run {run_id} and baseline {args.baseline} differ in "
                                  f"dataset or inputs_crc32, or one was measured on rows "
                                  f"that were not L2-normalized")
        offline = AccuracyCurve(times, np.full(len(times), baseline["accuracy"]))
        score = omega_score(AccuracyCurve(times, values), offline,
                            buffer_size=meta["buffer_size"])
        key = (meta["dataset"], meta["ordering"], meta["method"], meta["buffer_size"])
        omegas.setdefault(key, []).append(score.omega)

    # a row per size, its mean and spread over seeds; then mu over sizes per method
    table_rows, mu_rows = [], []
    for method_key, keys in groupby(sorted(omegas), key=lambda key: key[:3]):
        per_size = {}
        for key in keys:
            values = np.array(omegas[key])
            mean = float(values.mean())
            table_rows.append((*method_key, str(key[3]), f"{mean:.3f}",
                               f"{float(values.std()):.3f}", str(len(values))))
            per_size[key[3]] = mean
        mu_rows.append((*method_key, "mu_total", f"{mu_total(per_size):.3f}", "", ""))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "omega_table.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("dataset", "ordering", "method", "buffer_size",
                         "omega", "omega_std", "seeds"))
        writer.writerows(table_rows + mu_rows)
    print(f"wrote {table_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
