"""End-to-end experiments: configs, built-in presets, the trial engine, emitted files.

An experiment wires a generated input and noise realization through one or
more filter variants against the true channel, keeps the full per-iteration
ledger, and reduces it to per-run verdicts.  Trial seeds derive the streams
via ``SeedSequence([trial_seed, stream])`` (0 = input, 1 = noise), floats are
written at 17 significant digits and no timestamps are recorded: on one numpy
build and CPU every output byte is fixed by the config and the seeds, across
platforms every update flag, and each summary float within 1e-12 relative.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Literal, Mapping

import numpy as np

from .errors import ConfigError, InvalidTermError
from .filters import ThresholdPolicy, _store_floats
from .robustness import Ledger, RunVerdict, run_ledger, summarize_run, write_trace_csv
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
    expand_series,
    position_of,
    term_at,
    total_dimension,
)

SCHEMA_VERSION = 1


def _is_file_name(text: str) -> bool:
    """``text`` is one plain path component: a nonempty string, no / \\ or NUL, not . or .."""
    return isinstance(text, str) and text not in ("", ".", "..") and not set("/\\\0") & set(text)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One filter variant: DS-VNLMS with a threshold policy, or the VNLMS
    baseline with a constant step size."""

    label: str
    kind: Literal["ds_vnlms", "vnlms"]
    policy: ThresholdPolicy | None = None
    mu: float | None = None

    def __post_init__(self) -> None:
        _store_floats(self, "mu")
        if not _is_file_name(self.label):
            raise ConfigError(f"algorithm label {self.label!r} is not one plain path component")
        if self.kind == "ds_vnlms":
            if self.policy is None or self.mu is not None:
                raise ConfigError(
                    f"algorithm {self.label!r}: ds_vnlms takes a policy and no mu"
                )
        elif self.kind == "vnlms":
            if self.mu is None or self.policy is not None:
                raise ConfigError(
                    f"algorithm {self.label!r}: vnlms takes mu and no policy"
                )
            if not 0.0 < self.mu < 2.0:
                raise ConfigError(
                    f"algorithm {self.label!r}: mu must lie in (0, 2), got {self.mu!r}"
                )
        else:
            raise ConfigError(f"algorithm {self.label!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of an experiment; immutable and JSON-serializable."""

    name: str
    volterra: VolterraConfig
    channel: Channel
    input: SignalSpec
    noise: NoiseSpec
    algorithms: tuple[AlgorithmSpec, ...]
    iterations: int = 2500
    trials: int = 1
    seeds: tuple[int, ...] | None = None
    base_seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        problems = []
        if not _is_file_name(self.name):
            problems.append("name (must be one plain path component)")
        if type(self.iterations) is not int or self.iterations < 1:
            problems.append("iterations (must be an integer >= 1)")
        if type(self.trials) is not int or self.trials < 1:
            problems.append("trials (must be an integer >= 1)")
        if not self.algorithms:
            problems.append("algorithms (empty)")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            problems.append("algorithms (duplicate labels)")
        if type(self.base_seed) is not int or self.base_seed < 0:
            problems.append("seed (must be an integer >= 0)")
        if self.seeds is not None and len(self.seeds) != self.trials:
            problems.append("seeds (length must equal trials)")
        if self.seeds is not None and any(type(s) is not int or s < 0 for s in self.seeds):
            problems.append("seeds (must be integers >= 0)")
        if (
            self.channel.config.order > self.volterra.order
            or self.channel.config.memory > self.volterra.memory
        ):
            problems.append("channel (layout does not fit the filter layout)")
        if problems:
            raise ConfigError(
                "invalid experiment config, offending fields: " + ", ".join(problems)
            )

    def trial_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(self.seeds)
        return tuple(self.base_seed + i for i in range(self.trials))


def _derive_seed(trial_seed: int, stream: int) -> int:
    """Deterministic per-stream seed from a trial seed (input=0, noise=1)."""
    sequence = np.random.SeedSequence([int(trial_seed), int(stream)])
    return int(sequence.generate_state(1, np.uint64)[0])


def _realization(config: ExperimentConfig, trial_seed: int):
    """One trial's input x, its regressor matrix X in the filter layout, noise
    n, true kernels w* in the filter layout and desired signal d = X w* + n,
    the channel response of :func:`signals.desired_signal`."""
    input_spec = dataclasses.replace(config.input, seed=_derive_seed(trial_seed, 0))
    noise_spec = dataclasses.replace(config.noise, seed=_derive_seed(trial_seed, 1))
    x = generate_input(input_spec, config.iterations)
    n = generate_noise(noise_spec, config.iterations)
    w_star = embed_kernel(config.channel.kernel, config.channel.config, config.volterra)
    d = desired_signal(Channel(w_star, config.volterra), x, n)
    return x, expand_series(x, config.volterra), n, w_star, d


def _run_variants(
    config: ExperimentConfig,
    regressors: np.ndarray,
    d: np.ndarray,
    n: np.ndarray,
    w_star: np.ndarray,
) -> dict[str, Ledger]:
    """Every variant on one realization, sharing its regressor matrix."""
    delta = config.volterra.regularization
    return {
        alg.label: run_ledger(
            regressors, d, n, w_star, delta, alg.policy if alg.kind == "ds_vnlms" else alg.mu
        )
        for alg in config.algorithms
    }


def run_trial(config: ExperimentConfig, trial_seed: int) -> dict[str, Ledger]:
    """Run every variant on one shared realization of input and noise."""
    _, regressors, n, w_star, d = _realization(config, trial_seed)
    return _run_variants(config, regressors, d, n, w_star)


def _tau_for_bound(algorithm: AlgorithmSpec, noise: NoiseSpec) -> float | None:
    """Implied tau for the tail bound: gamma^2 / sigma_n^2 for a fixed
    threshold, the steady-state tau for a time-varying one."""
    if algorithm.kind != "ds_vnlms":
        return None
    policy = algorithm.policy
    if policy.mode == "time_varying":
        return policy.tau_steady
    if policy.gamma_fixed <= 0.0:
        return None
    return policy.gamma_fixed**2 / noise.variance


def compare_algorithms(config: ExperimentConfig, out_dir=None) -> dict:
    """Run every variant over all trials on shared per-trial realizations.

    Returns the full result structure (records and verdicts per trial plus a
    side-by-side aggregate).  Files are emitted only into ``out_dir``.
    """
    if out_dir is not None:
        # a run tree must re-run from its own config.json: fail before any file
        config_from_dict(config_to_dict(config))
    seeds = config.trial_seeds()
    trials = []
    for index, seed in enumerate(seeds):
        per_label = run_trial(config, seed)
        verdicts = {
            alg.label: summarize_run(
                per_label[alg.label], tau_for_bound=_tau_for_bound(alg, config.noise)
            )
            for alg in config.algorithms
        }
        trials.append(
            {"index": index, "seed": seed, "records": per_label, "verdicts": verdicts}
        )
    aggregate = {}
    for alg in config.algorithms:
        # each verdict field over the trials; an undefined global ratio is None
        runs = [t["verdicts"][alg.label].as_dict() for t in trials]
        column = {key: [run[key] for run in runs] for key in runs[0]}
        aggregate[alg.label] = {
            **{f"mean_{key}": sum(column[key]) / len(runs)
               for key in ("update_rate", "increase_fraction", "wtilde_sq_final")},
            **{f"total_{key}": sum(column[key])
               for key in ("local_violations", "conditional_violations")},
            "max_global_ratio": max(
                (ratio for ratio in column["global_ratio"] if ratio is not None), default=None
            ),
        }
    result = {
        "name": config.name,
        "labels": [a.label for a in config.algorithms],
        "seeds": list(seeds),
        "trials": trials,
        "aggregate": aggregate,
    }
    if out_dir is not None:
        _write_outputs(config, result, Path(out_dir))
    return result


# ---------------------------------------------------------------------------
# emitted files
# ---------------------------------------------------------------------------


def _dump_json(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_outputs(config: ExperimentConfig, result: dict, target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    _dump_json(config_to_dict(config), target / "config.json")
    flat_trials = []
    for trial in result["trials"]:
        trial_dir = target / f"trial_{trial['index']:03d}"
        for label in result["labels"]:
            run_dir = trial_dir / label
            run_dir.mkdir(parents=True, exist_ok=True)
            verdict: RunVerdict = trial["verdicts"][label]
            write_trace_csv(trial["records"][label], run_dir / "trace.csv")
            summary = {
                "experiment": config.name,
                "trial": trial["index"],
                "seed": trial["seed"],
                "variant": label,
                "noise_effective_variance": config.noise.effective_variance,
                **verdict.as_dict(),
            }
            _dump_json(summary, run_dir / "summary.json")
            flat_trials.append(summary)
    _dump_json(
        {
            "experiment": config.name,
            "seeds": result["seeds"],
            "aggregate": result["aggregate"],
            "runs": flat_trials,
        },
        target / "summary.json",
    )


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------


def _check_keys(obj, where: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj.keys())
    found = {"missing": sorted(required - keys), "unknown": sorted(keys - required - optional)}
    if any(found.values()):
        raise ConfigError(f"{where}: " + ", ".join(f"{k} {v}" for k, v in found.items() if v))


def _typed(value, kind: type, where: str):
    """``value`` if it is a ``kind``; ints widen to float, bools are not numbers,
    and floats must be finite."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{where}: {value} is out of range") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


@functools.cache
def _spec_fields(cls) -> tuple[tuple[str, str, object, bool], ...]:
    """(field, JSON key, type, required) for each field of a config dataclass.
    ``base_seed`` has the key ``seed``; the ``seed`` that runs derive per trial
    is left out."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            "seed" if f.name == "base_seed" else f.name,
            hints[f.name],
            f.default is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
        if f.name != "seed"
    )


def _encode(value):
    """The JSON form of a config value, mirroring :func:`_decode`."""
    if isinstance(value, Channel):
        return _channel_to_obj(value)
    if dataclasses.is_dataclass(value):
        return {
            key: _encode(getattr(value, name))
            for name, key, _, _ in _spec_fields(type(value))
            if getattr(value, name) is not None
        }
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


def _decode(kind, value, where: str, base_path: Path | None = None):
    """``value`` read as a ``kind``: a config dataclass from an object whose
    keys are its fields, a tuple from a list, ``X | None`` from null or an X,
    a ``Literal`` as a string, a scalar by :func:`_typed`, and a channel by
    its own codec (relative kernel files resolve against ``base_path``)."""
    if kind is Channel:
        return _channel_from_obj(value, where, base_path)
    if dataclasses.is_dataclass(kind):
        fields = _spec_fields(kind)
        _check_keys(
            value,
            where,
            required={key for _, key, _, required in fields if required},
            optional={key for _, key, _, required in fields if not required},
        )
        values = {
            name: _decode(field_kind, value[key], f"{where}.{key}", base_path)
            for name, key, field_kind, _ in fields
            if key in value
        }
        try:
            return kind(**values)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    origin = typing.get_origin(kind)
    if origin is tuple:
        item_kind = typing.get_args(kind)[0]
        return tuple(
            _decode(item_kind, item, f"{where}[{i}]", base_path)
            for i, item in enumerate(_typed(value, list, where))
        )
    if origin is types.UnionType:
        return None if value is None else _decode(typing.get_args(kind)[0], value, where, base_path)
    return _typed(value, str if origin is Literal else kind, where)


def _channel_to_obj(channel: Channel):
    bench = benchmark_channel()
    if channel.config == bench.config and np.array_equal(channel.kernel, bench.kernel):
        return "benchmark"
    terms = []
    for i, value in enumerate(channel.kernel):
        if value != 0.0:
            term = term_at(i, channel.config)
            terms.append({"order": term.order, "lags": list(term.lags), "value": value})
    return {"order": channel.config.order, "memory": channel.config.memory, "terms": terms}


def _channel_from_terms(obj, where: str, optional: set[str]) -> Channel:
    """A channel from its layout (``order``, ``memory``) and a sparse term
    list; a channel has no regularization of its own, so one among the
    ``optional`` keys is checked but not kept."""
    _check_keys(obj, where, required={"order", "memory", "terms"}, optional=optional)
    given = _decode(VolterraConfig, {k: v for k, v in obj.items() if k != "terms"}, where)
    layout = VolterraConfig(given.order, given.memory)
    kernel = np.zeros(total_dimension(layout))
    for i, entry in enumerate(_typed(obj["terms"], list, f"{where}.terms")):
        at = f"{where}.terms[{i}]"
        _check_keys(entry, at, required={"order", "lags", "value"}, optional=set())
        lags = _typed(entry["lags"], list, f"{at}.lags")
        order = _typed(entry["order"], int, f"{at}.order")
        value = _typed(entry["value"], float, f"{at}.value")
        try:
            term = TermIndex(order, tuple(_typed(lag, int, f"{at}.lags") for lag in lags))
            kernel[position_of(term, layout)] = value
        except InvalidTermError as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    return Channel(kernel=kernel, config=layout)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def load_kernel_file(path) -> Channel:
    """Read a channel from JSON: ``order``, ``memory`` and a sparse term list.
    An optional ``regularization`` is accepted and ignored.

    Schema::

        {"order": 2, "memory": 3,
         "terms": [{"order": 1, "lags": [0], "value": -0.76}, ...]}
    """
    path = Path(path)
    return _channel_from_terms(_read_json(path), str(path), optional={"regularization"})


def _channel_from_obj(obj, where: str, base_path: Path | None) -> Channel:
    if obj == "benchmark":
        return benchmark_channel()
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where}: expected 'benchmark', a kernel_file, or inline terms")
    if "kernel_file" in obj:
        _check_keys(obj, where, required={"kernel_file"}, optional=set())
        path = Path(_typed(obj["kernel_file"], str, f"{where}.kernel_file"))
        if base_path is not None and not path.is_absolute():
            path = base_path / path
        return load_kernel_file(path)
    return _channel_from_terms(obj, where, optional=set())


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON object of a config: ``seed`` only when no ``seeds`` pin the trials."""
    out = {"schema_version": SCHEMA_VERSION, **_encode(config)}
    if config.seeds is not None:
        del out["seed"]
    return out


def config_from_dict(payload: Mapping, base_path: Path | None = None) -> ExperimentConfig:
    """A config from its JSON object, decoded like every nested spec once its
    ``schema_version`` is checked."""
    if isinstance(payload, Mapping):
        if "schema_version" not in payload:
            raise ConfigError("config: missing ['schema_version']")
        if _typed(payload["schema_version"], int, "config.schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"config: unsupported schema_version {payload['schema_version']!r}"
                f" (expected {SCHEMA_VERSION})"
            )
        payload = {key: value for key, value in payload.items() if key != "schema_version"}
    return _decode(ExperimentConfig, payload, "config", base_path)


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a JSON file."""
    path = Path(path)
    return config_from_dict(_read_json(path), base_path=path.parent)


# ---------------------------------------------------------------------------
# built-in presets
# ---------------------------------------------------------------------------

_PRESET_DIR = resources.files(__package__) / "presets"


def _preset_names() -> list[str]:
    return sorted(
        entry.name.removesuffix(".json")
        for entry in _PRESET_DIR.iterdir()
        if entry.name.endswith(".json")
    )


def builtin_presets() -> dict[str, ExperimentConfig]:
    """The built-in benchmark scenarios, keyed by preset name in sorted order."""
    return {name: preset(name) for name in _preset_names()}


def preset(name: str) -> ExperimentConfig:
    """Load a built-in preset by name from the package's ``presets/*.json``."""
    names = _preset_names()
    if name not in names:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(names)}")
    return config_from_dict(json.loads((_PRESET_DIR / f"{name}.json").read_text()))
