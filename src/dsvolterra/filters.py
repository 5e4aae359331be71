"""Streaming update laws: data-selective Volterra NLMS and the VNLMS baseline."""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NumericInputError
from .volterra import ArrayF, VolterraConfig, expand, total_dimension


def _store_floats(spec, *names: str) -> None:
    """Store each real field of a spec as a Python float, so that no numpy scalar
    reaches the update law; a bool stays, for the config codec to reject."""
    for name in names:
        if isinstance(value := getattr(spec, name), numbers.Real) and not isinstance(value, bool):
            object.__setattr__(spec, name, float(value))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Update threshold: a fixed gamma, or ``sqrt(tau(k) * sigma_n_sq)`` where
    tau(k) switches between a transient and a steady-state value.

    The transient detector counts update flags over the last
    ``window_length`` iterations: at least ``steady_update_threshold`` updates
    (or a window that has not filled yet) means transient; fewer means steady
    state.  The rule is symmetric, so a burst of updates flips the detector
    straight back to transient.
    """

    mode: Literal["fixed", "time_varying"]
    gamma_fixed: float = 0.0
    sigma_n_sq: float = 0.01
    tau_transient: float = 5.0
    tau_steady: float = 9.0
    window_length: int = 20
    steady_update_threshold: int = 5

    def __post_init__(self) -> None:
        _store_floats(self, "gamma_fixed", "sigma_n_sq", "tau_transient", "tau_steady")
        if self.mode not in ("fixed", "time_varying"):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        if not (math.isfinite(self.gamma_fixed) and self.gamma_fixed >= 0):
            raise ValueError(f"gamma_fixed must be >= 0, got {self.gamma_fixed!r}")
        if not (math.isfinite(self.sigma_n_sq) and self.sigma_n_sq > 0):
            raise ValueError(f"sigma_n_sq must be positive, got {self.sigma_n_sq!r}")
        if not 1.0 <= self.tau_transient <= 5.0:
            raise ValueError(f"tau_transient must lie in [1, 5], got {self.tau_transient!r}")
        if not 5.0 <= self.tau_steady <= 9.0:
            raise ValueError(f"tau_steady must lie in [5, 9], got {self.tau_steady!r}")
        for name in ("window_length", "steady_update_threshold"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.window_length < 1:
            raise ValueError(f"window_length must be >= 1, got {self.window_length!r}")
        if not 1 <= self.steady_update_threshold <= self.window_length:
            raise ValueError(
                "steady_update_threshold must lie in [1, window_length],"
                f" got {self.steady_update_threshold!r}"
            )

    @classmethod
    def fixed(cls, gamma: float, **kwargs) -> "ThresholdPolicy":
        return cls(mode="fixed", gamma_fixed=gamma, **kwargs)

    @classmethod
    def time_varying(cls, sigma_n_sq: float, **kwargs) -> "ThresholdPolicy":
        return cls(mode="time_varying", sigma_n_sq=sigma_n_sq, **kwargs)


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """Telemetry of one filter step, including the regressor the step saw."""

    k: int
    e: float
    updated: bool
    mu_bar: float
    alpha: float
    gamma_used: float
    in_transient: bool
    regressor: ArrayF


class FilterState:
    """Single-owner streaming state: current estimate, delay line, iteration
    counter and the recent update flags driving the transient detector.

    The flag history holds the data-selective steps' flags, at most the
    ``window_length`` of the policy the last step was given, and
    ``update_count`` the number of them that are set.  Steps replace
    ``w`` with a fresh array instead of mutating it, so a reference taken
    before a step stays valid as the previous estimate.
    """

    def __init__(self, config: VolterraConfig):
        self.config = config
        self.w: ArrayF = np.zeros(total_dimension(config))
        self.delay_line: ArrayF = np.zeros(config.taps)
        self.k = 0
        self.update_flags: deque[bool] = deque()
        self.update_count = 0


def push_sample(state: FilterState, x_new: float) -> FilterState:
    """Shift the delay line one step; the newest sample lands at lag 0."""
    value = float(x_new)
    if not math.isfinite(value):
        raise NumericInputError(f"sample must be finite, got {x_new!r}")
    dl = state.delay_line
    dl[1:] = dl[:-1]
    dl[0] = value
    return state


def _transient(flags: deque[bool], count: int, threshold: int) -> bool:
    """The detector over a window of flags (a deque bounded by the window
    length) of which ``count`` are set: transient until the window has
    filled, then while at least ``threshold`` of its flags are set."""
    return len(flags) < flags.maxlen or count >= threshold


def _push_flag(flags: deque[bool], count: int, updated: bool) -> int:
    """Append a step's flag to the window; returns the new count of set flags."""
    if len(flags) == flags.maxlen:
        count -= flags[0]
    flags.append(updated)
    return count + updated


def _gamma(policy: ThresholdPolicy, transient: bool) -> float:
    if policy.mode == "fixed":
        return policy.gamma_fixed
    tau = policy.tau_transient if transient else policy.tau_steady
    return math.sqrt(tau * policy.sigma_n_sq)


#: why a step that must move cannot be normalized
ZERO_ENERGY = "zero regressor energy with zero regularization; cannot normalize"
#: why no step can be taken: x'x sums squares, so a non-finite entry makes it inf or NaN
ENERGY_NOT_FINITE = "regressor contains non-finite entries or its energy x'x + delta is not finite"


def _update(
    w: ArrayF, x: ArrayF, desired: float, delta: float, gamma: float, mu: float | None
) -> tuple[ArrayF, float, bool, float, float]:
    """The update law of every streaming step, and the reference that the
    trial engine's inline copy (:func:`robustness.run_ledger`) is tested against.

    Normalization alpha = x'x + delta, which must be finite; error e = d - w'x.
    Without a constant step size ``mu`` the step is data-selective: it moves
    only when |e| strictly exceeds ``gamma``, with step weight 1 - gamma/|e|.
    With ``mu`` every step counts as an update with step weight ``mu``.  A
    moving estimate is replaced, never mutated, and an unchanged one is
    returned as the same object.  Returns ``(w_next, e, updated, mu_bar, alpha)``.
    """
    try:
        alpha = float(x.dot(x)) + delta
    except RuntimeWarning:  # x'x overflowed, with numpy's warnings raised as errors
        alpha = math.inf
    if not math.isfinite(alpha):
        raise NumericInputError(ENERGY_NOT_FINITE)
    e = desired - float(w.dot(x))
    if mu is None:
        updated = abs(e) > gamma
        mu_bar = 1.0 - gamma / abs(e) if updated else 0.0
    else:
        updated, mu_bar = True, mu
    if updated and e != 0.0:
        if alpha == 0.0:
            raise NumericInputError(ZERO_ENERGY)
        w = w + (mu_bar / alpha) * e * x
    return w, e, updated, mu_bar, alpha


def _step(
    state: FilterState, d: float, gamma: float, mu: float | None, transient: bool
) -> StepOutcome:
    desired = float(d)
    if not math.isfinite(desired):
        raise NumericInputError(f"desired value must be finite, got {d!r}")
    x = expand(state.delay_line, state.config)
    state.w, e, updated, mu_bar, alpha = _update(
        state.w, x, desired, state.config.regularization, gamma, mu
    )
    outcome = StepOutcome(
        k=state.k,
        e=e,
        updated=updated,
        mu_bar=mu_bar,
        alpha=alpha,
        gamma_used=gamma,
        in_transient=transient,
        regressor=x,
    )
    state.k += 1
    return outcome


def ds_vnlms_step(state: FilterState, d: float, policy: ThresholdPolicy) -> StepOutcome:
    """One data-selective step against the sample already in the delay line.

    The kernels move only when |e(k)| strictly exceeds the threshold in
    force, with step weight 1 - gamma/|e(k)| and energy normalization
    x'x + delta; at or below the threshold the estimate is left untouched.
    The delay line is not advanced here (see :func:`push_sample`).  The
    transient detector reads the last ``policy.window_length`` update flags.
    """
    flags = state.update_flags
    if flags.maxlen != policy.window_length:
        flags = state.update_flags = deque(flags, maxlen=policy.window_length)
        state.update_count = sum(flags)
    transient = _transient(flags, state.update_count, policy.steady_update_threshold)
    outcome = _step(state, d, _gamma(policy, transient), None, transient)
    state.update_count = _push_flag(flags, state.update_count, outcome.updated)
    return outcome


def vnlms_step(state: FilterState, d: float, mu: float) -> StepOutcome:
    """One conventional normalized step: always update, constant step size.

    Shares the normalization alpha = x'x + delta with the data-selective
    update so the two algorithms are comparable under one regularization.
    It runs no transient detector: every step updates, and every step is
    reported as transient.
    """
    _check_step_size(mu)
    return _step(state, d, 0.0, mu, True)


def _check_step_size(mu: float) -> None:
    if not 0.0 < mu < 2.0:
        raise ValueError(f"step size must lie in (0, 2), got {mu!r}")
