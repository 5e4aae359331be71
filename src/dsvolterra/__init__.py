"""Streaming nonlinear adaptive filtering with data selection and
l2-stability certificates.

The package turns a nonlinear finite-memory identification problem into a
linear-in-parameters one via the triangular Volterra expansion, runs the
data-selective (set-membership) normalized LMS update or the conventional
VNLMS baseline over generated signals, and certifies the energy bounds the
data-selective update satisfies, per iteration and globally.

The names below are the ones the demos, the README and the benchmark use;
everything else lives in the submodules (``harness`` for experiments and
configs, ``errors`` for the exception types).
"""

from .errors import NumericInputError
from .filters import FilterState, ThresholdPolicy, ds_vnlms_step, push_sample, vnlms_step
from .robustness import (
    erfc_bound,
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
    "Channel",
    "FilterState",
    "NoiseSpec",
    "NumericInputError",
    "SignalSpec",
    "TermIndex",
    "ThresholdPolicy",
    "VolterraConfig",
    "benchmark_channel",
    "desired_signal",
    "ds_vnlms_step",
    "embed_kernel",
    "erfc_bound",
    "expand",
    "expand_series",
    "generate_input",
    "generate_noise",
    "position_of",
    "prefix_ratios",
    "push_sample",
    "read_trace_csv",
    "record_iteration",
    "summarize_run",
    "term_at",
    "total_dimension",
    "verify_trace",
    "vnlms_step",
    "write_trace_csv",
]
