"""Signal and noise generation, the benchmark channel, desired-signal composition."""

import tracemalloc

import numpy as np
import pytest

from conftest import channel_polynomial_oracle
from dsvolterra import (
    Channel,
    NoiseSpec,
    SignalSpec,
    TermIndex,
    VolterraConfig,
    benchmark_channel,
    desired_signal,
    expand,
    expand_series,
    generate_input,
    generate_noise,
    position_of,
    total_dimension,
)
from dsvolterra.errors import DimensionMismatchError, NumericInputError
from dsvolterra.harness import load_kernel_file


class TestSpecs:
    def test_ar_coefficient_range_enforced(self):
        with pytest.raises(ValueError):
            SignalSpec("ar1", variance=1.0, ar_coefficient=1.0)
        with pytest.raises(ValueError):
            SignalSpec("ar1", variance=1.0, ar_coefficient=-1.5)

    def test_positive_variance_enforced(self):
        with pytest.raises(ValueError):
            SignalSpec("white_gaussian", variance=0.0)
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", variance=-0.01)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            SignalSpec("pink")
        with pytest.raises(ValueError):
            NoiseSpec("laplace")

    def test_uniform_bound_enforced(self):
        with pytest.raises(ValueError):
            NoiseSpec("uniform_bounded", bound=0.0)

    def test_effective_variance(self):
        assert NoiseSpec("gaussian", variance=0.01).effective_variance == 0.01
        assert NoiseSpec("uniform_bounded", bound=0.3).effective_variance == pytest.approx(
            0.03
        )


class TestGenerateInput:
    def test_white_gaussian_moments(self):
        x = generate_input(SignalSpec("white_gaussian", variance=1.0, seed=123), 100_000)
        assert -0.02 < x.mean() < 0.02
        assert 0.97 < x.var() < 1.03

    def test_ar1_stationary_variance(self):
        x = generate_input(
            SignalSpec("ar1", variance=1.0, ar_coefficient=0.95, seed=123), 100_000
        )
        # theoretical stationary variance 1/(1 - 0.95^2) ~ 10.26
        assert 8.5 < x.var() < 12.0

    def test_ar1_recursion_from_zero_state(self):
        spec = SignalSpec("ar1", variance=1.0, ar_coefficient=0.95, seed=9)
        x = generate_input(spec, 50)
        m = generate_input(SignalSpec("white_gaussian", variance=1.0, seed=9), 50)
        prev = 0.0
        for k in range(50):
            prev = 0.95 * prev + m[k]
            assert x[k] == prev

    @pytest.mark.parametrize("a", [0.95, 0.5, -0.9, 0.999])
    def test_ar1_bitwise_equal_to_documented_loop(self, a):
        # over several blocks, the last one short
        length = 1300
        x = generate_input(SignalSpec("ar1", variance=2.0, ar_coefficient=a, seed=5), length)
        m = generate_input(SignalSpec("white_gaussian", variance=2.0, seed=5), length)
        want = np.empty(length)
        prev = 0.0
        for k in range(length):
            prev = a * prev + m[k]
            want[k] = prev
        assert x.tobytes() == want.tobytes()

    def test_deterministic_for_seed(self):
        spec = SignalSpec("white_gaussian", variance=1.0, seed=77)
        np.testing.assert_array_equal(generate_input(spec, 1000), generate_input(spec, 1000))

    def test_different_seeds_differ(self):
        a = generate_input(SignalSpec("white_gaussian", variance=1.0, seed=1), 100)
        b = generate_input(SignalSpec("white_gaussian", variance=1.0, seed=2), 100)
        assert not np.array_equal(a, b)

    def test_length_validated(self):
        with pytest.raises(ValueError):
            generate_input(SignalSpec("white_gaussian"), 0)


class TestGenerateNoise:
    def test_gaussian_variance(self):
        n = generate_noise(NoiseSpec("gaussian", variance=0.01, seed=321), 100_000)
        assert 0.0097 < n.var() < 0.0103

    def test_uniform_hard_bound(self):
        for length in (1, 10, 1000, 50_000):
            n = generate_noise(NoiseSpec("uniform_bounded", bound=0.1, seed=5), length)
            assert np.max(np.abs(n)) <= 0.1

    def test_finite_energy(self):
        n = generate_noise(NoiseSpec("gaussian", variance=0.01, seed=1), 10_000)
        assert np.isfinite(np.sum(n**2))

    def test_deterministic_for_seed(self):
        spec = NoiseSpec("uniform_bounded", bound=0.1, seed=8)
        np.testing.assert_array_equal(generate_noise(spec, 500), generate_noise(spec, 500))

    def test_length_validated(self):
        with pytest.raises(ValueError, match="length must be >= 1"):
            generate_noise(NoiseSpec("gaussian"), 0)


class TestBenchmarkChannel:
    def test_four_nonzero_terms(self):
        ch = benchmark_channel()
        assert ch.config == VolterraConfig(order=2, memory=3)
        assert np.count_nonzero(ch.kernel) == 4

    def test_term_values(self):
        ch = benchmark_channel()
        assert ch.kernel[position_of(TermIndex(1, (0,)), ch.config)] == -0.76
        assert ch.kernel[position_of(TermIndex(2, (0, 0)), ch.config)] == 0.5
        assert ch.kernel[position_of(TermIndex(2, (0, 2)), ch.config)] == 2.0
        assert ch.kernel[position_of(TermIndex(2, (3, 3)), ch.config)] == -0.5

    def test_impulse_now(self):
        ch = benchmark_channel()
        assert ch.kernel @ expand([1.0, 0.0, 0.0, 0.0], ch.config) == pytest.approx(
            -0.26, rel=1e-12
        )

    def test_impulse_three_steps_back(self):
        ch = benchmark_channel()
        assert ch.kernel @ expand([0.0, 0.0, 0.0, 1.0], ch.config) == pytest.approx(
            -0.5, rel=1e-12
        )

    def test_equality_with_another_type_is_false(self):
        ch = benchmark_channel()
        assert ch == benchmark_channel()
        assert ch != "benchmark"
        assert ch.__eq__(ch.config) is NotImplemented

    def test_channel_kernel_dimension_validated(self):
        with pytest.raises(DimensionMismatchError):
            Channel(kernel=np.zeros(3), config=VolterraConfig(2, 3))


class TestDesiredSignal:
    def test_zero_input_zero_noise(self):
        ch = benchmark_channel()
        d = desired_signal(ch, np.zeros(20), np.zeros(20))
        np.testing.assert_array_equal(d, np.zeros(20))

    def test_zero_input_passes_noise_verbatim(self):
        ch = benchmark_channel()
        noise = generate_noise(NoiseSpec("gaussian", variance=0.01, seed=4), 50)
        np.testing.assert_array_equal(desired_signal(ch, np.zeros(50), noise), noise)

    def test_alternating_prefix_hand_value(self):
        ch = benchmark_channel()
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        d = desired_signal(ch, x, np.zeros(6))
        assert d[2] == pytest.approx(1.74, rel=1e-12)

    def test_matches_polynomial_oracle(self):
        ch = benchmark_channel()
        rng = np.random.default_rng(17)
        x = rng.normal(size=60)
        d = desired_signal(ch, x, np.zeros(60))
        for k in range(60):
            assert d[k] == pytest.approx(
                channel_polynomial_oracle(x, k), rel=1e-12, abs=1e-15
            )

    def test_length_mismatch_rejected(self):
        ch = benchmark_channel()
        with pytest.raises(DimensionMismatchError):
            desired_signal(ch, np.zeros(5), np.zeros(6))

    @pytest.mark.parametrize("name, k, value", [("input", 3, np.nan), ("noise", 7, -np.inf)])
    def test_non_finite_sample_rejected(self, name, k, value):
        signals = {"input": np.random.default_rng(3).normal(size=10), "noise": np.zeros(10)}
        signals[name][k] = value
        with pytest.raises(NumericInputError, match=f"{name} sample {k} must be finite, got {value}"):
            desired_signal(benchmark_channel(), signals["input"], signals["noise"])

    def test_an_unweighted_overflow_stays_out_of_d(self):
        # only x(k)^3 is weighted, and x(1000) = 1e200 overflows every
        # monomial that holds it twice or more, on rows 1000-1003.  Of those
        # only x(k)^2 and x(k)^3 on row 1000 are formed, so d is finite on rows
        # 1001-1003, where the full product is NaN.  The final block of 300
        # rows would read row 1000's infinities in unformed columns if its
        # buffer kept them
        cfg = VolterraConfig(3, 3)
        kernel = np.zeros(total_dimension(cfg))
        kernel[position_of(TermIndex(3, (0, 0, 0)), cfg)] = 0.5
        x = np.random.default_rng(9).normal(size=1324)
        x[1000] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            d = desired_signal(Channel(kernel, cfg), x, np.zeros(1324))
            full = expand_series(x, cfg)
            reference = np.concatenate([full[r : r + 512] @ kernel for r in (0, 512, 1024)])
        assert np.isnan(d[1000])
        finite = np.isfinite(full).all(axis=1)
        assert d[~finite].tobytes() != reference[~finite].tobytes()
        assert np.isfinite(np.delete(d, 1000)).all()
        assert d[finite].tobytes() == reference[finite].tobytes()

    def test_working_memory_is_one_block(self):
        # the response is formed one block of regressor rows at a time;
        # multiplying the whole 50,000 x 219 regressor matrix peaked at 85 MiB
        layout = VolterraConfig(3, 8)
        rng = np.random.default_rng(5)
        x, noise = rng.normal(size=50_000), rng.normal(size=50_000)
        channel = Channel(rng.normal(size=total_dimension(layout)), layout)
        tracemalloc.start()
        try:
            desired_signal(channel, x, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestKernelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text(
            '{"order": 2, "memory": 3, "terms": ['
            '{"order": 1, "lags": [0], "value": -0.76},'
            '{"order": 2, "lags": [0, 0], "value": 0.5},'
            '{"order": 2, "lags": [0, 2], "value": 2.0},'
            '{"order": 2, "lags": [3, 3], "value": -0.5}]}'
        )
        ch = load_kernel_file(path)
        bench = benchmark_channel()
        assert ch.config == bench.config
        np.testing.assert_array_equal(ch.kernel, bench.kernel)

    def test_invalid_term_rejected(self, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text(
            '{"order": 1, "memory": 1, "terms": [{"order": 1, "lags": [5], "value": 1.0}]}'
        )
        with pytest.raises(ValueError):
            load_kernel_file(path)
