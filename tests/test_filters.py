"""Streaming update laws: gating, step sizes, delay line, threshold policies."""

import math
import re
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsvolterra import (
    FilterState,
    NumericInputError,
    SignalSpec,
    ThresholdPolicy,
    VolterraConfig,
    benchmark_channel,
    desired_signal,
    ds_vnlms_step,
    embed_kernel,
    generate_input,
    push_sample,
    vnlms_step,
)
from dsvolterra.filters import ENERGY_NOT_FINITE, _gamma, _push_flag, _transient
from dsvolterra.volterra import expand


def fresh_state(order=1, memory=1, delta=0.0):
    return FilterState(VolterraConfig(order, memory, regularization=delta))


def gamma_after(policy, history):
    """The threshold in force once ``history``'s flags went through the detector."""
    flags, count = deque(maxlen=policy.window_length), 0
    for updated in history:
        count = _push_flag(flags, count, updated)
    return _gamma(policy, _transient(flags, count, policy.steady_update_threshold))


class TestPushSample:
    def test_shift(self):
        state = FilterState(VolterraConfig(1, 2))
        state.delay_line[:] = [1.0, 2.0, 3.0]
        push_sample(state, 9.0)
        np.testing.assert_array_equal(state.delay_line, [9.0, 1.0, 2.0])

    def test_fresh_state(self):
        state = FilterState(VolterraConfig(1, 3))
        push_sample(state, 5.0)
        np.testing.assert_array_equal(state.delay_line, [5.0, 0.0, 0.0, 0.0])

    def test_sequence_reversed_after_full_fill(self):
        state = FilterState(VolterraConfig(1, 3))
        for v in (1.0, 2.0, 3.0, 4.0):
            push_sample(state, v)
        np.testing.assert_array_equal(state.delay_line, [4.0, 3.0, 2.0, 1.0])

    def test_non_finite_rejected(self):
        state = FilterState(VolterraConfig(1, 1))
        with pytest.raises(NumericInputError):
            push_sample(state, float("nan"))


class TestDsStep:
    def test_hand_computed_update(self):
        state = fresh_state()
        push_sample(state, 1.0)
        out = ds_vnlms_step(state, 1.0, ThresholdPolicy.fixed(0.5))
        assert out.e == 1.0
        assert out.updated is True
        assert out.mu_bar == 0.5
        assert out.alpha == 1.0
        assert out.gamma_used == 0.5
        np.testing.assert_array_equal(state.w, [0.5, 0.0])
        assert state.k == 1

    def test_below_threshold_no_update(self):
        state = fresh_state()
        push_sample(state, 1.0)
        w_ref = state.w
        out = ds_vnlms_step(state, 0.4, ThresholdPolicy.fixed(0.5))
        assert out.updated is False
        assert out.mu_bar == 0.0
        assert state.w is w_ref  # bit-identical, untouched

    def test_tie_with_threshold_no_update(self):
        state = fresh_state()
        push_sample(state, 1.0)
        out = ds_vnlms_step(state, 0.5, ThresholdPolicy.fixed(0.5))
        assert out.e == 0.5
        assert out.updated is False

    def test_non_finite_desired_rejected_without_state_change(self):
        state = fresh_state()
        push_sample(state, 1.0)
        w_ref = state.w
        k_before = state.k
        with pytest.raises(NumericInputError):
            ds_vnlms_step(state, float("inf"), ThresholdPolicy.fixed(0.5))
        assert state.w is w_ref
        assert state.k == k_before
        assert len(state.update_flags) == 0

    def test_overflowing_regressor_rejected_without_state_change(self):
        # 1e120 cubed overflows; numpy warns first, and the step then refuses
        # the regressor rather than update on it
        state = FilterState(VolterraConfig(3, 1))
        push_sample(state, 1e120)
        w_ref = state.w
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericInputError, match="regressor contains non-finite"):
                ds_vnlms_step(state, 0.0, ThresholdPolicy.fixed(0.5))
        assert state.w is w_ref
        assert state.k == 0

    @pytest.mark.parametrize("step", [
        lambda state, d: ds_vnlms_step(state, d, ThresholdPolicy.fixed(0.5)),
        lambda state, d: vnlms_step(state, d, 0.5),
    ], ids=["ds_vnlms", "vnlms"])
    def test_overflowing_energy_rejected_without_state_change(self, step):
        # white input of variance 1e104: every regressor entry is finite, but
        # x'x overflows on the first sample (numpy warns), so alpha is inf and
        # no step can be normalized; the step refuses it before it moves
        config = VolterraConfig(3, 3)
        x = generate_input(SignalSpec("white_gaussian", variance=1e104, seed=4), 1)
        state = FilterState(config)
        push_sample(state, x[0])
        assert np.isfinite(expand(state.delay_line, config)).all()
        w_ref, flags = state.w, list(state.update_flags)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericInputError, match=re.escape(ENERGY_NOT_FINITE)):
                step(state, 0.0)
        assert state.w is w_ref and not state.w.any()
        assert state.k == 0
        assert list(state.update_flags) == flags == [] and state.update_count == 0

    @pytest.mark.parametrize("step", [
        lambda state, d: ds_vnlms_step(state, d, ThresholdPolicy.fixed(0.5)),
        lambda state, d: vnlms_step(state, d, 0.5),
    ], ids=["ds_vnlms", "vnlms"])
    def test_overflowing_energy_rejected_under_warnings_as_errors(self, step):
        # the same overflow with numpy's RuntimeWarning raised as an error:
        # the step still refuses the energy by its own error, before it moves
        config = VolterraConfig(3, 3)
        x = generate_input(SignalSpec("white_gaussian", variance=1e104, seed=4), 1)
        state = FilterState(config)
        push_sample(state, x[0])
        w_ref = state.w
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericInputError, match=re.escape(ENERGY_NOT_FINITE)):
                step(state, 0.0)
        assert state.w is w_ref and not state.w.any()
        assert state.k == 0
        assert list(state.update_flags) == [] and state.update_count == 0

    def test_zero_energy_update_with_zero_delta_rejected(self):
        state = fresh_state()  # delay line all zeros, delta = 0
        with pytest.raises(NumericInputError):
            ds_vnlms_step(state, 1.0, ThresholdPolicy.fixed(0.5))

    @given(
        seed=st.integers(0, 2**31 - 1),
        # below ~1e-16 relative to |e| the weight 1 - gamma/|e| rounds to 1.0
        gamma=st.one_of(st.just(0.0), st.floats(1e-6, 2.0, allow_nan=False)),
    )
    @settings(max_examples=60)
    def test_gating_and_step_size_invariants(self, seed, gamma):
        rng = np.random.default_rng(seed)
        state = FilterState(VolterraConfig(2, 2, regularization=1e-9))
        policy = ThresholdPolicy.fixed(gamma)
        for _ in range(30):
            push_sample(state, float(rng.normal()))
            d = float(rng.normal(scale=2.0))
            out = ds_vnlms_step(state, d, policy)
            assert out.updated == (abs(out.e) > gamma)
            if out.updated and gamma > 0:
                assert 0.0 < out.mu_bar < 1.0

    def test_a_posteriori_error_bounded_by_threshold(self):
        # after an update the residual error is pulled onto the threshold,
        # up to a term proportional to delta/alpha
        rng = np.random.default_rng(123)
        config = VolterraConfig(2, 2, regularization=1e-9)
        state = FilterState(config)
        policy = ThresholdPolicy.fixed(0.3)
        checked = 0
        for _ in range(200):
            push_sample(state, float(rng.normal()))
            d = float(rng.normal(scale=2.0))
            x = None
            out = ds_vnlms_step(state, d, policy)
            if out.updated:
                x = out.regressor
                post = d - float(state.w @ x)
                assert abs(post) <= 0.3 + 1e-6
                checked += 1
        assert checked > 20

    def test_zero_threshold_reduces_to_unit_step_vnlms(self):
        rng = np.random.default_rng(8)
        config = VolterraConfig(2, 2, regularization=1e-9)
        ds_state = FilterState(config)
        nlms_state = FilterState(config)
        policy = ThresholdPolicy.fixed(0.0)
        for _ in range(100):
            sample = float(rng.normal())
            d = float(rng.normal(scale=2.0))
            push_sample(ds_state, sample)
            push_sample(nlms_state, sample)
            ds_vnlms_step(ds_state, d, policy)
            vnlms_step(nlms_state, d, 1.0)
            np.testing.assert_array_equal(ds_state.w, nlms_state.w)


class TestVnlmsStep:
    def test_hand_computed_update(self):
        state = fresh_state()
        push_sample(state, 1.0)
        out = vnlms_step(state, 1.0, 0.8)
        assert out.updated is True
        assert out.mu_bar == 0.8
        assert out.in_transient is True  # no detector: a constant step is always transient
        np.testing.assert_array_equal(state.w, [0.8, 0.0])

    def test_zero_error_leaves_kernels_despite_update_flag(self):
        state = fresh_state()
        push_sample(state, 1.0)
        vnlms_step(state, 1.0, 1.0)  # converges in one step: w = [1, 0]
        w_ref = state.w
        out = vnlms_step(state, 1.0, 1.0)
        assert out.e == 0.0
        assert out.updated is True
        assert state.w is w_ref

    @pytest.mark.parametrize("mu", [0.0, -0.1, 2.0, 2.5])
    def test_step_size_range_enforced(self, mu):
        state = fresh_state()
        push_sample(state, 1.0)
        with pytest.raises(ValueError):
            vnlms_step(state, 1.0, mu)

    def test_small_step_lower_misadjustment_slower_decay(self):
        # mu=0.3 ends with smaller deviation energy; mu=0.8 decays faster early
        channel = benchmark_channel()
        config = VolterraConfig(3, 3, regularization=1e-9)
        w_star = embed_kernel(channel.kernel, channel.config, config)
        x = generate_input(SignalSpec("white_gaussian", variance=1.0, seed=42), 2500)
        from dsvolterra import Channel, NoiseSpec, generate_noise

        noise = generate_noise(NoiseSpec("gaussian", variance=0.01, seed=43), 2500)
        d = desired_signal(Channel(w_star, config), x, noise)

        def run(mu):
            state = FilterState(config)
            trajectory = []
            for k in range(2500):
                push_sample(state, x[k])
                vnlms_step(state, d[k], mu)
                dev = w_star - state.w
                trajectory.append(float(dev @ dev))
            return np.array(trajectory)

        fast = run(0.8)
        slow = run(0.3)
        assert fast[:200].mean() < slow[:200].mean()
        assert slow[-500:].mean() < fast[-500:].mean()


class TestThresholdPolicy:
    def test_fixed_gamma_value(self):
        policy = ThresholdPolicy.fixed(math.sqrt(5 * 0.01))
        assert gamma_after(policy, []) == pytest.approx(0.22360679774997896, rel=1e-15)

    def test_transient_window_many_updates(self):
        policy = ThresholdPolicy.time_varying(0.01)
        window = [True] * 12 + [False] * 8
        assert gamma_after(policy, window) == pytest.approx(math.sqrt(0.05), rel=1e-15)

    def test_steady_window_few_updates(self):
        policy = ThresholdPolicy.time_varying(0.01)
        window = [True, True] + [False] * 18
        assert gamma_after(policy, window) == pytest.approx(0.3, rel=1e-12)

    def test_window_not_full_treated_as_transient(self):
        policy = ThresholdPolicy.time_varying(0.01)
        assert gamma_after(policy, [False] * 5) == pytest.approx(
            math.sqrt(0.05), rel=1e-15
        )

    def test_detector_reverts_without_hysteresis(self):
        policy = ThresholdPolicy.time_varying(0.01)
        steady = [False] * 20
        assert gamma_after(policy, steady) == pytest.approx(0.3, rel=1e-12)
        burst = [False] * 15 + [True] * 5
        assert gamma_after(policy, burst) == pytest.approx(math.sqrt(0.05), rel=1e-15)

    def test_threshold_boundary_counts_as_transient(self):
        policy = ThresholdPolicy.time_varying(0.01, steady_update_threshold=5)
        window = [True] * 5 + [False] * 15
        assert gamma_after(policy, window) == pytest.approx(math.sqrt(0.05), rel=1e-15)

    def test_streaming_history_bounded_by_policy_window(self):
        # the state keeps no window of its own: the policy stepped with sizes it
        state = fresh_state(delta=1e-9)
        for window in (30, 10):
            policy = ThresholdPolicy.time_varying(0.01, window_length=window)
            for _ in range(100):
                push_sample(state, 1.0)
                ds_vnlms_step(state, 0.0, policy)
            assert len(state.update_flags) == window

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "other"},
            {"mode": "fixed", "gamma_fixed": -0.1},
            {"mode": "time_varying", "sigma_n_sq": 0.0},
            {"mode": "time_varying", "tau_transient": 0.5},
            {"mode": "time_varying", "tau_transient": 6.0},
            {"mode": "time_varying", "tau_steady": 4.0},
            {"mode": "time_varying", "tau_steady": 10.0},
            {"mode": "time_varying", "window_length": 0},
            {"mode": "time_varying", "window_length": 10, "steady_update_threshold": 11},
            {"mode": "time_varying", "window_length": 10.5},
            {"mode": "time_varying", "window_length": 20.0},
            {"mode": "time_varying", "window_length": True, "steady_update_threshold": 1},
            {"mode": "time_varying", "steady_update_threshold": 4.5},
            {"mode": "time_varying", "steady_update_threshold": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ThresholdPolicy(**kwargs)

    @pytest.mark.parametrize("field", ["window_length", "steady_update_threshold"])
    @pytest.mark.parametrize("value", [4.5, 5.0, True])
    def test_integer_field_names_itself(self, field, value):
        # a float or bool count would only fail later, inside the detector
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ThresholdPolicy.time_varying(0.01, **{field: value})

    def test_streaming_time_varying_switches_gamma(self):
        # drive a filter to convergence; the in-force gamma must move from the
        # transient value to the steady value once updates become rare
        rng = np.random.default_rng(21)
        config = VolterraConfig(1, 1, regularization=1e-9)
        state = FilterState(config)
        policy = ThresholdPolicy.time_varying(0.01)
        gammas = []
        for k in range(400):
            push_sample(state, float(rng.normal()))
            d = float(state.delay_line[0] * 0.9)  # identify w = [0.9, 0]
            out = ds_vnlms_step(state, d, policy)
            gammas.append(out.gamma_used)
        assert gammas[0] == pytest.approx(math.sqrt(0.05), rel=1e-15)
        assert gammas[-1] == pytest.approx(0.3, rel=1e-12)



class TestFlagWindow:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), window=st.integers(1, 40), stream=st.lists(st.booleans(), max_size=120))
    def test_count_is_the_sum_of_the_last_window_flags(self, data, window, stream):
        threshold = data.draw(st.integers(1, window))
        flags, count = deque(maxlen=window), 0
        assert _transient(flags, count, threshold)
        for seen, updated in enumerate(stream, start=1):
            count = _push_flag(flags, count, updated)
            last = sum(stream[max(0, seen - window) : seen])
            assert count == last
            assert _transient(flags, count, threshold) == (seen < window or last >= threshold)

    def test_streaming_count_follows_window_switches(self):
        # a shrinking window drops old flags; the count must drop with them
        rng = np.random.default_rng(5)
        state = fresh_state(delta=1e-9)
        seen = set()
        for window in (30, 10, 25):
            policy = ThresholdPolicy.time_varying(0.01, window_length=window)
            for _ in range(60):
                push_sample(state, float(rng.normal()))
                seen.add(ds_vnlms_step(state, 0.3 * float(rng.normal()), policy).updated)
                assert state.update_count == sum(state.update_flags)
        assert seen == {True, False}
