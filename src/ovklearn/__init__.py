"""Online learning of vector-valued functions with operator-valued kernels.

The package provides an online stochastic-gradient learner over a
single operator-valued kernel (:class:`ONORMA`), a multi-kernel variant
that learns the kernel weights online (:class:`MONORMA`), a batch
regularised-least-squares baseline, and tooling to verify the
cumulative-error guarantees the online learner satisfies.
"""

from .batch import BatchModel, fit as batch_fit, regularized_risk
from .bounds import (
    BoundConstants,
    BoundReport,
    HypothesisReport,
    check_cumulative_bound,
    check_hypotheses,
    coefficient_bound_ratios,
    compute_constants,
)
from .checkpoint import load_model, save_model
from .data import (
    Dataset,
    SynthSpec,
    feature_map,
    gen_synthetic,
    load_csv,
    save_csv,
    split_and_normalize,
    synthetic_weights,
)
from .exceptions import (
    ConfigError,
    DataError,
    DimensionMismatch,
    HypothesisViolation,
    NumericsError,
    OvkError,
)
from .experiments import (
    ExperimentConfig,
    KernelSpec,
    MetricsRecord,
    bound_check,
    read_config,
    run_experiment,
    sweep,
    write_metrics,
)
from .kernels import (
    NonSeparablePoly,
    OperatorKernel,
    SeparableGaussian,
    default_structure,
    kernel_from_dict,
    operator_norm_bound,
)
from .losses import (
    EpsilonInsensitive,
    SquaredLoss,
    decode_label,
    encode_labels,
    loss_from_name,
)
from .monorma import MONORMA, delta_update
from .onorma import ONORMA, StepResult, TruncationSchedule, truncation_window

__version__ = "0.1.0"

__all__ = [
    "BatchModel",
    "batch_fit",
    "regularized_risk",
    "BoundConstants",
    "BoundReport",
    "HypothesisReport",
    "check_cumulative_bound",
    "check_hypotheses",
    "coefficient_bound_ratios",
    "compute_constants",
    "load_model",
    "save_model",
    "Dataset",
    "SynthSpec",
    "feature_map",
    "gen_synthetic",
    "load_csv",
    "save_csv",
    "split_and_normalize",
    "synthetic_weights",
    "ConfigError",
    "DataError",
    "DimensionMismatch",
    "HypothesisViolation",
    "NumericsError",
    "OvkError",
    "ExperimentConfig",
    "KernelSpec",
    "MetricsRecord",
    "bound_check",
    "read_config",
    "run_experiment",
    "sweep",
    "write_metrics",
    "NonSeparablePoly",
    "OperatorKernel",
    "SeparableGaussian",
    "default_structure",
    "kernel_from_dict",
    "operator_norm_bound",
    "EpsilonInsensitive",
    "SquaredLoss",
    "decode_label",
    "encode_labels",
    "loss_from_name",
    "MONORMA",
    "delta_update",
    "ONORMA",
    "StepResult",
    "TruncationSchedule",
    "truncation_window",
    "__version__",
]
