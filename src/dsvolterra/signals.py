"""Input processes, measurement noise, and the built-in nonlinear test channel."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DimensionMismatchError, NumericInputError
from .volterra import (
    ROW_BLOCK,
    ArrayF,
    TermIndex,
    VolterraConfig,
    _series_blocks,
    position_of,
    total_dimension,
)

SignalKind = Literal["white_gaussian", "ar1"]
NoiseKind = Literal["gaussian", "uniform_bounded"]


@dataclass(frozen=True)
class SignalSpec:
    """Input process: white Gaussian, or AR(1) driven by Gaussian innovations.

    ``variance`` is the innovation variance; for the AR(1) process the
    stationary variance is ``variance / (1 - ar_coefficient**2)``.
    """

    kind: SignalKind
    variance: float = 1.0
    ar_coefficient: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("white_gaussian", "ar1"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance!r}")
        if self.kind == "ar1" and not abs(self.ar_coefficient) < 1:
            raise ValueError(
                f"ar_coefficient must satisfy |a| < 1, got {self.ar_coefficient!r}"
            )


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise: Gaussian, or uniform with a hard magnitude bound.

    For ``uniform_bounded`` the samples lie in ``[-bound, bound]`` and
    ``variance`` is only the nominal value used to scale thresholds; the
    variance the sampler actually realizes is ``bound**2 / 3``.
    """

    kind: NoiseKind
    variance: float = 0.01
    bound: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "uniform_bounded"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance!r}")
        if self.kind == "uniform_bounded" and not (
            math.isfinite(self.bound) and self.bound > 0
        ):
            raise ValueError(f"bound must be positive, got {self.bound!r}")

    @property
    def effective_variance(self) -> float:
        """Variance realized by the sampler (``bound**2 / 3`` for uniform)."""
        if self.kind == "uniform_bounded":
            return self.bound**2 / 3.0
        return self.variance


@dataclass(frozen=True, eq=False)
class Channel:
    """True system: a kernel vector together with the layout it lives in."""

    kernel: ArrayF
    config: VolterraConfig

    def __post_init__(self) -> None:
        kernel = np.ascontiguousarray(self.kernel, dtype=np.float64)
        expected = total_dimension(self.config)
        if kernel.shape != (expected,):
            raise DimensionMismatchError(
                f"kernel shape {kernel.shape} does not match layout dimension {expected}"
            )
        object.__setattr__(self, "kernel", kernel)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return self.config == other.config and np.array_equal(self.kernel, other.kernel)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _standard_normal(rng: np.random.Generator, n: int) -> ArrayF:
    """Standard normals via Box-Muller on PCG64 uniforms.

    The transform is fixed so traces are bit-reproducible: draw pairs
    (u1, u2) from [0, 1), set r = sqrt(-2 ln(1 - u1)), and interleave
    r cos(2 pi u2) with r sin(2 pi u2).
    """
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:n]


def generate_input(spec: SignalSpec, length: int) -> ArrayF:
    """Input trace of the given length; deterministic for a given seed.

    The AR(1) recursion x(k) = a x(k-1) + m(k) starts from x(-1) = 0 and no
    burn-in is discarded, so the transient is part of the trace.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = _rng(spec.seed)
    innovations = math.sqrt(spec.variance) * _standard_normal(rng, length)
    if spec.kind == "white_gaussian":
        return innovations
    prev, a = 0.0, spec.ar_coefficient
    # in place, over Python floats a block at a time: float64's roundings, no FMA
    for k0 in range(0, length, ROW_BLOCK):
        block = innovations[k0 : k0 + ROW_BLOCK]
        block[:] = [prev := a * prev + m for m in block.tolist()]
    return innovations


def generate_noise(spec: NoiseSpec, length: int) -> ArrayF:
    """Noise trace of the given length; deterministic for a given seed."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = _rng(spec.seed)
    if spec.kind == "gaussian":
        return math.sqrt(spec.variance) * _standard_normal(rng, length)
    return rng.uniform(-spec.bound, spec.bound, size=length)


def benchmark_channel() -> Channel:
    """The second-order channel used by the built-in experiment presets:

        y(k) = -0.76 x(k) + 0.5 x^2(k) + 2 x(k) x(k-2) - 0.5 x^2(k-3)
    """
    config = VolterraConfig(order=2, memory=3)
    kernel = np.zeros(total_dimension(config))
    for term, value in (
        (TermIndex(1, (0,)), -0.76),
        (TermIndex(2, (0, 0)), 0.5),
        (TermIndex(2, (0, 2)), 2.0),
        (TermIndex(2, (3, 3)), -0.5),
    ):
        kernel[position_of(term, config)] = value
    return Channel(kernel=kernel, config=config)


def desired_signal(channel: Channel, input_signal, noise) -> ArrayF:
    """d(k): channel response to the zero-primed input plus measurement noise,
    formed one block of ``ROW_BLOCK`` regressor rows at a time, never the
    whole regressor matrix.

    A block forms only the monomials the kernel's nonzero terms read, with the
    prefixes their product chains pass through; every other column is zero.
    The product stays full-width, so d equals the full expansion's
    ``block @ kernel`` bit for bit whenever that expansion is finite.  Where
    only zero-weight monomials are not finite, from an overflow, d is finite
    and the full product would be NaN; the trial engine rejects any regressor
    that is not finite.  A non-finite input or noise sample is rejected."""
    x = np.asarray(input_signal, dtype=np.float64)
    n = np.asarray(noise, dtype=np.float64)
    if x.ndim != 1 or x.shape != n.shape:
        raise DimensionMismatchError(
            f"input {x.shape} and noise {n.shape} must be equal-length vectors"
        )
    for name, values in (("input", x), ("noise", n)):
        finite = np.isfinite(values)
        if not finite.all():
            k = int(finite.argmin())
            raise NumericInputError(f"{name} sample {k} must be finite, got {float(values[k])!r}")
    d = np.empty(x.shape[0])
    support = np.flatnonzero(channel.kernel)
    for rows, block in _series_blocks(x, channel.config, support):
        d[rows] = block @ channel.kernel
    d += n
    return d
