"""Streaming classification with memory-bounded per-class rehearsal buffers.

Every public name resolves on first use: ``import protostream`` loads no
layer module, and ``protostream.execute_run`` (or ``from protostream
import execute_run``) loads the module that defines it, with the modules
that one imports. Each command line command likewise loads only the layers
it runs: ``synth`` data; ``baseline`` data and mlp; ``run`` data, buffers,
mlp, protocol and metrics, plus a process pool under ``--jobs N``;
``report`` metrics. The errors module comes with every command.
"""

import importlib

__version__ = "0.1.0"

# the layer module each public name lives in
_EXPORTS = (
    ("buffers", ("BOUNDED_STRATEGIES", "BufferManager", "STRATEGIES",
                 "assign_projected_dims", "kmeans_lloyd")),
    ("data", ("Dataset", "LabeledSample", "ORDERING_KINDS", "Split", "StreamOrdering",
              "SynthSpec", "l2_normalize", "load_feature_matrix", "load_manifest",
              "order_stream", "save_feature_matrix", "synth_gaussian", "write_dataset",
              "write_manifest")),
    ("errors", ("DataFormatError", "NumericError", "UsageError")),
    ("metrics", ("AccuracyCurve", "OmegaResult", "mu_total", "omega_score")),
    ("mlp", ("MLPClassifier", "MLPConfig", "evaluate_accuracy", "fit_offline")),
    ("protocol", ("METHODS", "RunConfig", "RunResult", "event_times", "execute_run",
                  "rehearsal_update", "run_offline_baseline")),
)
_MODULE_OF = {name: module for module, names in _EXPORTS for name in names}

__all__ = [name for _, names in _EXPORTS for name in names]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
