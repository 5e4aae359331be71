"""Streaming nonlinear adaptive filtering with data selection and
l2-stability certificates.

The package turns a nonlinear finite-memory identification problem into a
linear-in-parameters one via the triangular Volterra expansion, runs the
data-selective (set-membership) normalized LMS update or the conventional
VNLMS baseline over generated signals, and certifies the energy bounds the
data-selective update satisfies, per iteration and globally.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidTermError,
    NumericInputError,
    UndefinedRatioError,
)
from .filters import (
    FilterState,
    StepOutcome,
    ThresholdPolicy,
    current_gamma,
    ds_vnlms_step,
    gamma_for_known_bound,
    push_sample,
    vnlms_step,
)
from .harness import (
    AlgorithmSpec,
    ExperimentConfig,
    builtin_presets,
    compare_algorithms,
    config_from_dict,
    config_to_dict,
    load_config,
    load_kernel_file,
    preset,
    run_experiment,
    run_trial,
    save_config,
)
from .robustness import (
    IterationRecord,
    RunVerdict,
    check_conditional_improvement,
    check_local,
    erfc_bound,
    global_ratio,
    monotonicity_stats,
    prefix_ratios,
    read_trace_csv,
    record_iteration,
    summarize_run,
    verify_trace,
    write_trace_csv,
)
from .signals import (
    Channel,
    NoiseSpec,
    SignalSpec,
    benchmark_channel,
    desired_signal,
    generate_input,
    generate_noise,
)
from .volterra import (
    ArrayF,
    TermIndex,
    VolterraConfig,
    embed_kernel,
    expand,
    expand_series,
    position_of,
    term_at,
    total_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayF",
    "AlgorithmSpec",
    "Channel",
    "ConfigError",
    "DimensionMismatchError",
    "ExperimentConfig",
    "FilterState",
    "InvalidTermError",
    "IterationRecord",
    "NoiseSpec",
    "NumericInputError",
    "RunVerdict",
    "SignalSpec",
    "StepOutcome",
    "TermIndex",
    "ThresholdPolicy",
    "UndefinedRatioError",
    "VolterraConfig",
    "benchmark_channel",
    "builtin_presets",
    "check_conditional_improvement",
    "check_local",
    "compare_algorithms",
    "config_from_dict",
    "config_to_dict",
    "current_gamma",
    "desired_signal",
    "ds_vnlms_step",
    "embed_kernel",
    "erfc_bound",
    "expand",
    "expand_series",
    "gamma_for_known_bound",
    "generate_input",
    "generate_noise",
    "global_ratio",
    "load_config",
    "load_kernel_file",
    "monotonicity_stats",
    "position_of",
    "prefix_ratios",
    "preset",
    "push_sample",
    "read_trace_csv",
    "record_iteration",
    "run_experiment",
    "run_trial",
    "save_config",
    "summarize_run",
    "term_at",
    "total_dimension",
    "verify_trace",
    "vnlms_step",
    "write_trace_csv",
]
