"""Experiment configs, presets, shared realizations, emitted files, determinism."""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsvolterra import (
    Channel,
    FilterState,
    NoiseSpec,
    SignalSpec,
    ThresholdPolicy,
    VolterraConfig,
    benchmark_channel,
    ds_vnlms_step,
    push_sample,
    record_iteration,
    total_dimension,
)
from dsvolterra import harness
from dsvolterra.errors import ConfigError, NumericInputError
from dsvolterra.filters import ENERGY_NOT_FINITE
from dsvolterra.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    builtin_presets,
    compare_algorithms,
    config_from_dict,
    config_to_dict,
    load_config,
    load_kernel_file,
    preset,
)
from dsvolterra.cli import EXIT_USAGE, main
from dsvolterra.robustness import Ledger

PRESET_FILES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "dsvolterra" / "presets").glob("*.json"),
    key=lambda path: path.stem,
)


def small_config(**overrides):
    base = dict(
        name="small",
        volterra=VolterraConfig(2, 2, regularization=1e-9),
        channel=benchmark_channel_subset(),
        input=SignalSpec("white_gaussian", variance=1.0),
        noise=NoiseSpec("gaussian", variance=0.01),
        algorithms=(
            AlgorithmSpec(
                label="ds",
                kind="ds_vnlms",
                policy=ThresholdPolicy.fixed(math.sqrt(0.05), sigma_n_sq=0.01),
            ),
        ),
        iterations=250,
        trials=2,
        seeds=(11, 12),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def benchmark_channel_subset():
    """A small channel that fits inside the (2, 2) filter layout."""
    config = VolterraConfig(2, 2)
    kernel = np.zeros(total_dimension(config))
    kernel[0] = -0.76
    kernel[3] = 0.5
    return Channel(kernel, config)


class TestConfigValidation:
    def test_offending_fields_listed(self):
        with pytest.raises(ConfigError) as err:
            small_config(iterations=0, trials=0, seeds=None)
        assert "iterations" in str(err.value)
        assert "trials" in str(err.value)

    def test_seed_count_must_match_trials(self):
        with pytest.raises(ConfigError, match="seeds"):
            small_config(seeds=(1, 2, 3))

    def test_duplicate_labels_rejected(self):
        algs = (
            AlgorithmSpec(label="a", kind="vnlms", mu=0.8),
            AlgorithmSpec(label="a", kind="vnlms", mu=0.3),
        )
        with pytest.raises(ConfigError, match="duplicate"):
            small_config(algorithms=algs)

    def test_channel_must_fit_filter_layout(self):
        with pytest.raises(ConfigError, match="channel"):
            small_config(channel=benchmark_channel())  # (2,3) does not fit (2,2)

    def test_algorithm_spec_validation(self):
        with pytest.raises(ConfigError):
            AlgorithmSpec(label="x", kind="vnlms")  # mu missing
        with pytest.raises(ConfigError):
            AlgorithmSpec(label="x", kind="ds_vnlms")  # policy missing
        with pytest.raises(ConfigError):
            AlgorithmSpec(label="x", kind="vnlms", mu=2.5)
        with pytest.raises(ConfigError):
            AlgorithmSpec(label="x", kind="nothing", mu=0.5)

    @pytest.mark.parametrize(
        ("field", "overrides"),
        [
            ("iterations", {"iterations": 250.0}),
            ("iterations", {"iterations": True}),
            ("trials", {"trials": 2.0}),
            ("trials", {"trials": True, "seeds": (11,)}),
            ("seed", {"seeds": None, "base_seed": 1.5}),
            ("seed", {"seeds": None, "base_seed": False}),
            ("seeds", {"seeds": (11, 1.5)}),
            ("seeds", {"seeds": (True, 12)}),
            ("iterations", {"iterations": "250"}),
        ],
        ids=[
            "iterations_float", "iterations_bool", "trials_float", "trials_bool",
            "seed_float", "seed_bool", "seeds_float", "seeds_bool", "iterations_str",
        ],
    )
    def test_integer_fields_reject_floats_and_bools(self, field, overrides):
        # a float seed once ran as its int() while summary.json kept the float
        with pytest.raises(ConfigError, match=rf"offending fields: .*\b{field} \(must be"):
            small_config(**overrides)

    def test_trial_seeds_from_base(self):
        config = small_config(seeds=None, trials=3, base_seed=40)
        assert config.trial_seeds() == (40, 41, 42)


class TestPresets:
    def test_registry_names(self):
        names = set(builtin_presets())
        assert names == {
            "fig1a", "fig1b", "fig2a", "fig2b", "fig5", "fig6", "fig5-blue", "fig6-blue",
        }

    def test_certificate_presets_parameters(self):
        cfg = preset("fig1a")
        assert cfg.volterra == VolterraConfig(3, 3, regularization=1e-9)
        assert cfg.iterations == 2500
        assert cfg.input.kind == "white_gaussian"
        assert cfg.noise == NoiseSpec("gaussian", variance=0.01)
        policy = cfg.algorithms[0].policy
        assert policy.mode == "fixed"
        assert policy.gamma_fixed == pytest.approx(math.sqrt(0.05), rel=1e-15)

    def test_small_threshold_presets(self):
        assert preset("fig2a").algorithms[0].policy.gamma_fixed == pytest.approx(
            math.sqrt(0.02), rel=1e-15
        )
        assert preset("fig2b").input.kind == "ar1"
        assert preset("fig2b").input.ar_coefficient == 0.95

    def test_comparison_presets_variants(self):
        cfg = preset("fig5")
        labels = [a.label for a in cfg.algorithms]
        assert labels == [
            "vnlms_mu08", "vnlms_mu03", "ds_fixed", "ds_known_bound", "ds_time_varying",
        ]
        by_label = {a.label: a for a in cfg.algorithms}
        assert by_label["vnlms_mu08"].mu == 0.8
        assert by_label["vnlms_mu03"].mu == 0.3
        assert by_label["ds_known_bound"].policy.gamma_fixed == pytest.approx(0.2)
        tv = by_label["ds_time_varying"].policy
        assert tv.mode == "time_varying"
        assert tv.tau_transient == 5.0
        assert tv.tau_steady == 9.0
        assert tv.window_length == 20
        assert tv.steady_update_threshold == 5

    def test_bounded_presets_use_uniform_noise(self):
        for name in ("fig5-blue", "fig6-blue"):
            cfg = preset(name)
            assert cfg.noise.kind == "uniform_bounded"
            assert cfg.noise.bound == 0.1
            assert cfg.algorithms[0].policy.gamma_fixed == pytest.approx(0.2)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("fig9")

    def test_preset_files_load_and_round_trip(self):
        # the JSON files are the only preset source: each one loads, is
        # named after its file, and survives a round trip through the codec
        assert list(builtin_presets()) == [path.stem for path in PRESET_FILES]
        for path in PRESET_FILES:
            config = load_config(path)
            assert config.name == path.stem
            assert preset(path.stem) == config
            assert config_from_dict(config_to_dict(config)) == config


class TestConfigSerialization:
    def test_round_trip(self):
        config = small_config()
        payload = config_to_dict(config)
        back = config_from_dict(payload)
        assert back == config

    def test_round_trip_comparison_preset(self):
        config = preset("fig5")
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_keys_rejected(self):
        payload = config_to_dict(small_config())
        payload["extra"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(payload)

    def test_missing_keys_reported(self):
        payload = config_to_dict(small_config())
        del payload["noise"]
        with pytest.raises(ConfigError, match="missing"):
            config_from_dict(payload)

    def test_schema_version_required(self):
        payload = config_to_dict(small_config())
        del payload["schema_version"]
        with pytest.raises(ConfigError, match=r"^config: missing \['schema_version'\]$"):
            config_from_dict(payload)

    def test_schema_version_checked(self):
        payload = config_to_dict(small_config())
        payload["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(payload)

    def test_kernel_file_channel(self, tmp_path):
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(
            '{"order": 2, "memory": 2, "terms": [{"order": 1, "lags": [0], "value": 1.0}]}'
        )
        payload = config_to_dict(small_config())
        payload["channel"] = {"kernel_file": "kernel.json"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        config = load_config(config_path)
        assert config.channel.kernel[0] == 1.0

    def test_kernel_file_with_regularization_round_trips(self, tmp_path):
        (tmp_path / "kernel.json").write_text(
            '{"order": 2, "memory": 2, "regularization": 0.5,'
            ' "terms": [{"order": 1, "lags": [0], "value": 1.0}]}'
        )
        payload = config_to_dict(small_config())
        payload["channel"] = {"kernel_file": "kernel.json"}
        (tmp_path / "config.json").write_text(json.dumps(payload))
        config = load_config(tmp_path / "config.json")
        # a channel's layout is its order and memory only
        assert config.channel.config == VolterraConfig(2, 2)
        assert "regularization" not in config_to_dict(config)["channel"]
        assert config_from_dict(config_to_dict(config)) == config
        (tmp_path / "saved.json").write_text(json.dumps(config_to_dict(config)))
        assert load_config(tmp_path / "saved.json") == config
        # the inline form has no regularization key
        payload["channel"] = {**config_to_dict(config)["channel"], "regularization": 0.5}
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(payload)

    def test_save_and_load(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert load_config(path) == config

    def test_benchmark_channel_token_preserved(self):
        cfg = preset("fig1a")
        assert config_to_dict(cfg)["channel"] == "benchmark"

    def test_integer_beyond_float_is_out_of_range(self):
        payload = config_to_dict(small_config())
        payload["noise"]["variance"] = 10**400
        with pytest.raises(ConfigError, match=r"^config\.noise\.variance: 10+ is out of range$"):
            config_from_dict(payload)

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


def _setter(*path, value):
    """Mutation that sets the entry at ``path`` to ``value``."""

    def mutate(payload, directory):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return payload

    return mutate


def _drop_term_value(payload, directory):
    del payload["channel"]["terms"][0]["value"]
    return payload


def _kernel_without_terms(payload, directory):
    (directory / "kernel.json").write_text('{"order": 2, "memory": 2}')
    payload["channel"] = {"kernel_file": "kernel.json"}
    return payload


# (id, mutation of a valid payload, the path the error must name); a path
# starting with "/" is relative to the test's directory
MALFORMED = [
    ("term_without_value", _drop_term_value, "config.channel.terms[0]"),
    ("algorithms_not_a_list", _setter("algorithms", value=5), "config.algorithms"),
    ("volterra_not_an_object", _setter("volterra", value=[3, 3]), "config.volterra"),
    ("iterations_null", _setter("iterations", value=None), "config.iterations"),
    ("fractional_order", _setter("volterra", "order", value=2.5), "config.volterra.order"),
    (
        "fractional_window_length",
        _setter("algorithms", 0, "policy", "window_length", value=20.9),
        "config.algorithms[0].policy.window_length",
    ),
    ("top_level_list", lambda payload, directory: [payload], "config"),
    ("kind_not_a_string", _setter("algorithms", 0, "kind", value=5), "config.algorithms[0].kind"),
    ("zero_iterations", _setter("iterations", value=0), "config"),
    ("negative_seed", _setter("seed", value=-5), "config"),
    ("kernel_file_without_terms", _kernel_without_terms, "/kernel.json"),
    ("schema_version_true", _setter("schema_version", value=True), "config.schema_version"),
    ("schema_version_float", _setter("schema_version", value=1.0), "config.schema_version"),
    # a run's output directory is not part of its config
    ("output_dir_key", _setter("output_dir", value="o"), "config"),
    # names and labels become directories of the run tree
    ("name_with_separator", _setter("name", value="a/b"), "config"),
    ("name_dot_dot", _setter("name", value=".."), "config"),
    *(
        (case, _setter("algorithms", 0, "label", value=label), "config.algorithms[0]")
        for case, label in [
            ("label_escapes", "../../escaped"),
            ("label_dot", "."),
            ("label_with_dot_component", "a/."),
            ("label_with_backslash", "a\\b"),
            ("label_with_nul", "a\0b"),
        ]
    ),
]


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "mutate, where", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_rejected_with_path(self, mutate, where, tmp_path, capsys):
        if where.startswith("/"):
            where = f"{tmp_path}{where}"
        payload = mutate(config_to_dict(small_config()), tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{where}:"), str(err.value)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {where}:"), captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path",
        [("seeds",), ("algorithms", 0, "mu"), ("algorithms", 1, "policy")],
        ids=["seeds", "ds_mu", "vnlms_policy"],
    )
    def test_null_is_an_absent_key(self, path):
        baseline = AlgorithmSpec(label="baseline", kind="vnlms", mu=0.8)
        config = small_config(algorithms=(*small_config().algorithms, baseline))
        absent = config_to_dict(config)
        target = absent
        for key in path[:-1]:
            target = target[key]
        target.pop(path[-1], None)
        null = copy.deepcopy(absent)
        _setter(*path, value=None)(null, None)
        assert config_from_dict(null) == config_from_dict(absent)

    def test_ints_widen_to_float(self):
        payload = config_to_dict(small_config())
        payload["input"]["variance"] = 1
        assert config_from_dict(payload) == small_config()

    @pytest.mark.parametrize("value", [True, "0.5", None, float("nan")])
    def test_floats_are_not_converted(self, value):
        payload = config_to_dict(small_config())
        payload["noise"]["variance"] = value
        with pytest.raises(ConfigError, match=r"config\.noise\.variance"):
            config_from_dict(payload)


# values a fuzzed key may take; integers stay small so that a fuzzed layout
# stays cheap to build
_JUNK = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats()
    | st.text(max_size=6)
    | st.lists(st.integers(-2, 4), max_size=4)
    | st.dictionaries(st.text(max_size=4), st.integers(0, 3), max_size=2)
)


def _objects(value, found):
    """Every JSON object nested in ``value``, outermost first."""
    if isinstance(value, dict):
        found.append(value)
        for item in value.values():
            _objects(item, found)
    elif isinstance(value, list):
        for item in value:
            _objects(item, found)
    return found


@st.composite
def _one_key_mutation(draw, base):
    """``base`` with one key dropped, added or replaced in one nested object."""
    payload = copy.deepcopy(base)
    target = draw(st.sampled_from(_objects(payload, [])))
    op = draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "add" or not target:
        target[draw(st.text(max_size=8))] = draw(_JUNK)
    else:
        key = draw(st.sampled_from(sorted(target)))
        if op == "drop":
            del target[key]
        else:
            target[key] = draw(_JUNK)
    return payload


_FUZZ_BASES = [json.loads(path.read_text()) for path in PRESET_FILES] + [
    {
        **json.loads(PRESET_FILES[0].read_text()),
        "channel": {
            "order": 2,
            "memory": 3,
            "terms": [
                {"order": 1, "lags": [0], "value": -0.76},
                {"order": 2, "lags": [0, 2], "value": 2.0},
            ],
        },
    }
]
_KERNEL = {
    "order": 2,
    "memory": 3,
    "regularization": 1e-9,
    "terms": [
        {"order": 1, "lags": [0], "value": -0.76},
        {"order": 2, "lags": [3, 3], "value": -0.5},
    ],
}


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(payload=st.sampled_from(_FUZZ_BASES).flatmap(_one_key_mutation))
    def test_config_or_config_error(self, payload):
        try:
            config = config_from_dict(payload)
        except ConfigError:
            return
        assert config_from_dict(config_to_dict(config)) == config

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        text=st.one_of(
            _one_key_mutation(_KERNEL).map(json.dumps),
            st.text(max_size=40),
        )
    )
    def test_kernel_file_channel_or_config_error(self, text, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text(text)
        try:
            channel = load_kernel_file(path)
        except ConfigError:
            return
        assert isinstance(channel, Channel)


class TestRunExperiment:
    """A single-variant experiment through ``compare_algorithms``."""

    def test_verdicts_per_trial(self):
        result = compare_algorithms(small_config())
        verdicts = [trial["verdicts"]["ds"] for trial in result["trials"]]
        assert len(verdicts) == 2
        for v in verdicts:
            assert v.total_iterations == 250
            assert v.local_violations == 0

    def test_emitted_files(self, tmp_path):
        out = tmp_path / "out"
        compare_algorithms(small_config(), out)
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files == {
            "config.json",
            "summary.json",
            "trial_000/ds/trace.csv",
            "trial_000/ds/summary.json",
            "trial_001/ds/trace.csv",
            "trial_001/ds/summary.json",
        }
        summary = json.loads((out / "trial_000" / "ds" / "summary.json").read_text())
        assert summary["local_violations"] == 0
        assert summary["variant"] == "ds"
        assert summary["seed"] == 11

    def test_curve_lhs_never_exceeds_rhs(self, tmp_path):
        out = tmp_path / "out"
        compare_algorithms(small_config(trials=1, seeds=(11,)), out)

        lines = (out / "trial_000" / "ds" / "trace.csv").read_text().splitlines()
        header = lines[0].split(",")

        def column(name):
            i = header.index(name)
            return np.array([float(line.split(",")[i]) for line in lines[1:]])

        # the trace holds the inputs of the two sides, not the sides
        weight = np.where(column("updated") == 1.0, column("mu_bar") / column("alpha"), 0.0)
        lhs = column("wtilde_sq_after") + weight * column("e_tilde") ** 2
        rhs = column("wtilde_sq_before") + weight * column("n") ** 2
        assert column("updated").any()
        assert np.all(lhs <= rhs + 1e-10 * np.maximum(1.0, rhs))

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"algorithms": (AlgorithmSpec("v", "vnlms", mu=True),)}, "config.algorithms[0].mu"),
            (
                {"algorithms": (AlgorithmSpec("ds", "ds_vnlms", ThresholdPolicy.fixed(0.2, sigma_n_sq=True)),)},
                "config.algorithms[0].policy.sigma_n_sq",
            ),
            ({"noise": NoiseSpec("gaussian", variance=True)}, "config.noise.variance"),
            ({"input": SignalSpec("white_gaussian", ar_coefficient=math.nan)}, "config.input.ar_coefficient"),
            ({"noise": NoiseSpec("gaussian", bound=math.inf)}, "config.noise.bound"),
        ],
        ids=["bool_mu", "bool_sigma_n_sq", "bool_variance", "nan_ar_coefficient", "inf_bound"],
    )
    def test_config_that_would_not_reload_writes_nothing(self, overrides, where, tmp_path):
        # each builds in Python, but its config.json would fail load_config
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape(where + ": expected")):
            compare_algorithms(small_config(**overrides), out)
        assert not out.exists()

    def test_overflowing_energy_writes_nothing(self, tmp_path):
        # fig1a in layout (3, 3) on white input of variance 1e104: every
        # regressor entry is finite, x'x overflows, and the run is refused
        # before any file is written
        config = dataclasses.replace(
            preset("fig1a"),
            volterra=VolterraConfig(3, 3),
            input=SignalSpec("white_gaussian", variance=1e104),
        )
        out = tmp_path / "out"
        with pytest.raises(NumericInputError, match=re.escape(ENERGY_NOT_FINITE)):
            compare_algorithms(config, out)
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(trials=3, seeds=(1, 2, 3))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        compare_algorithms(config, out_a)
        compare_algorithms(config, out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


class TestCompareAlgorithms:
    @pytest.fixture()
    def comparison(self):
        config = small_config(
            algorithms=(
                AlgorithmSpec(label="vnlms", kind="vnlms", mu=1.0),
                AlgorithmSpec(
                    label="ds_zero",
                    kind="ds_vnlms",
                    policy=ThresholdPolicy.fixed(0.0),
                ),
                AlgorithmSpec(
                    label="ds",
                    kind="ds_vnlms",
                    policy=ThresholdPolicy.fixed(math.sqrt(0.05)),
                ),
            ),
            trials=2,
            seeds=(21, 22),
        )
        return compare_algorithms(config)

    def test_variants_share_noise_realization(self, comparison):
        for trial in comparison["trials"]:
            noise_columns = {
                label: [r.n for r in records]
                for label, records in trial["records"].items()
            }
            reference = noise_columns["vnlms"]
            for column in noise_columns.values():
                assert column == reference

    def test_zero_threshold_matches_unit_step_baseline(self, comparison):
        # same realization + equivalent updates => identical error sequences
        for trial in comparison["trials"]:
            e_vnlms = [r.e for r in trial["records"]["vnlms"]]
            e_ds = [r.e for r in trial["records"]["ds_zero"]]
            assert e_vnlms == e_ds

    def test_aggregate_keys(self, comparison):
        for label in ("vnlms", "ds_zero", "ds"):
            agg = comparison["aggregate"][label]
            assert set(agg) == {
                "mean_update_rate",
                "mean_increase_fraction",
                "mean_wtilde_sq_final",
                "total_local_violations",
                "total_conditional_violations",
                "max_global_ratio",
            }

    def test_comparison_summary_file(self, tmp_path):
        config = small_config(
            algorithms=(
                AlgorithmSpec(label="vnlms", kind="vnlms", mu=0.8),
                AlgorithmSpec(
                    label="ds",
                    kind="ds_vnlms",
                    policy=ThresholdPolicy.fixed(math.sqrt(0.05)),
                ),
            ),
            trials=1,
            seeds=(5,),
        )
        out = tmp_path / "out"
        compare_algorithms(config, out)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["aggregate"]) == {"vnlms", "ds"}
        assert len(summary["runs"]) == 2


class TestNumpyScalarSpecs:
    """Regression: a numpy float threshold once passed validation and then
    crashed the engine (a numpy bool gate indexed a tuple), while the
    streaming step returned a numpy bool flag and a numpy int count."""

    FLOAT_FIELDS = ("gamma_fixed", "sigma_n_sq", "tau_transient", "tau_steady")

    def test_float_fields_are_stored_as_python_floats(self):
        policy = ThresholdPolicy.time_varying(
            np.float64(0.01), gamma_fixed=np.float32(0.5), tau_transient=np.int64(3),
            tau_steady=np.float64(9.0),
        )
        assert [type(getattr(policy, name)) for name in self.FLOAT_FIELDS] == [float] * 4
        assert type(AlgorithmSpec("v", "vnlms", mu=np.float64(0.5)).mu) is float

    @pytest.mark.parametrize(
        "plain, built",
        [
            (
                AlgorithmSpec("a", "ds_vnlms", ThresholdPolicy.fixed(0.2)),
                AlgorithmSpec("a", "ds_vnlms", ThresholdPolicy.fixed(np.float64(0.2))),
            ),
            (
                AlgorithmSpec("a", "vnlms", mu=0.5),
                AlgorithmSpec("a", "vnlms", mu=np.float64(0.5)),
            ),
        ],
        ids=["threshold", "mu"],
    )
    def test_engine_runs_a_numpy_float_like_the_float(self, plain, built, tmp_path):
        config = dataclasses.replace(preset("fig1a"), iterations=600, trials=1)
        runs = [
            compare_algorithms(dataclasses.replace(config, algorithms=(alg,)), tmp_path / name)
            for name, alg in (("plain", plain), ("built", built))
        ]
        (want,), (got,) = (run["trials"][0]["records"].values() for run in runs)
        assert got == want
        for rel in ("config.json", "trial_000/a/trace.csv", "trial_000/a/summary.json"):
            from_numpy, from_float = (tmp_path / "built" / rel, tmp_path / "plain" / rel)
            assert from_numpy.read_bytes() == from_float.read_bytes(), rel

    def test_streaming_step_gives_python_flags(self):
        config = dataclasses.replace(preset("fig1a"), iterations=600)
        x, _, n, w_star, d = harness._realization(config, 1)
        ledgers = []
        for gamma in (0.2, np.float64(0.2)):
            policy, state, rows = ThresholdPolicy.fixed(gamma), FilterState(config.volterra), []
            for k in range(config.iterations):
                push_sample(state, x[k])
                w_before = state.w
                outcome = ds_vnlms_step(state, d[k], policy)
                assert type(outcome.updated) is bool and type(state.update_count) is int
                rows.append(record_iteration(w_star, w_before, state.w, outcome, n[k]))
            ledgers.append(Ledger.of(rows))
        assert ledgers[0] == ledgers[1]
        assert ledgers[0].updated.any() and not ledgers[0].updated.all()


class TestSeedDerivation:
    def test_input_and_noise_streams_differ(self):
        from dsvolterra.harness import _derive_seed

        assert _derive_seed(1, 0) != _derive_seed(1, 1)
        assert _derive_seed(1, 0) != _derive_seed(2, 0)
        assert _derive_seed(7, 1) == _derive_seed(7, 1)
