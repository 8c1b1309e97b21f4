"""Streaming classification with memory-bounded per-class rehearsal buffers."""

from .buffers import (BOUNDED_STRATEGIES, BufferManager, STRATEGIES, assign_projected_dims,
                      kmeans_lloyd)
from .data import (Dataset, LabeledSample, ORDERING_KINDS, Split, StreamOrdering, SynthSpec,
                   l2_normalize, load_feature_matrix, load_manifest, order_stream,
                   save_feature_matrix, synth_gaussian, write_dataset, write_manifest)
from .errors import DataFormatError, NumericError, UsageError
from .metrics import OmegaResult, mu_total, omega_score
from .mlp import MLPClassifier, MLPConfig, evaluate_accuracy, fit_offline
from .protocol import (AccuracyCurve, METHODS, RunConfig, RunResult, event_times,
                       execute_run, rehearsal_update, run_offline_baseline)

__version__ = "0.1.0"

__all__ = [
    "AccuracyCurve", "BOUNDED_STRATEGIES", "BufferManager", "DataFormatError",
    "Dataset", "LabeledSample", "METHODS", "MLPClassifier", "MLPConfig",
    "NumericError", "OmegaResult", "ORDERING_KINDS", "RunConfig",
    "RunResult", "STRATEGIES", "Split", "StreamOrdering", "SynthSpec", "UsageError",
    "assign_projected_dims", "evaluate_accuracy", "event_times", "execute_run",
    "fit_offline", "kmeans_lloyd", "l2_normalize",
    "load_feature_matrix", "load_manifest", "mu_total", "omega_score",
    "order_stream", "rehearsal_update", "run_offline_baseline",
    "save_feature_matrix", "synth_gaussian", "write_dataset", "write_manifest",
]
