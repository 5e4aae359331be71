"""Per-iteration energy ledger and numerical stability certificates.

For every step the ledger stores the deviation energy ||w* - w(k)||^2 before
and after, the noiseless error, and the two sides of the local energy
inequality: on updates,

    ||w~(k+1)||^2 + (mu/alpha) e~^2(k)  <  ||w~(k)||^2 + (mu/alpha) n^2(k)

must hold strictly, and without an update both sides collapse to the
unchanged deviation energy.  Summing over a run gives a global
error-to-disturbance energy ratio below one, the l2-stability certificate.

A whole run's ledger is a :class:`Ledger`, one array per trace column; the
streaming API builds it one :class:`IterationRecord` row at a time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .filters import ROW_BLOCK, StepOutcome, ThresholdPolicy, run_rows
from .volterra import ArrayF

#: relative slack for the strict branch of the local inequality
LOCAL_SLACK = 1e-10
#: relative tolerance for the equality branch (no update)
EQUALITY_RTOL = 1e-12


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One ledger row; ``in_transient`` is None for rows read back from CSV."""

    k: int
    e: float
    e_tilde: float
    n: float
    updated: bool
    mu_bar: float
    alpha: float
    gamma_used: float
    wtilde_sq_before: float
    wtilde_sq_after: float
    lhs: float
    rhs: float
    in_transient: bool | None = None


_FIELDS = tuple(f.name for f in dataclasses.fields(IterationRecord))
#: the trace CSV's columns: every row field but ``in_transient``, in order
TRACE_COLUMNS = _FIELDS[:-1]
_DTYPES = {"k": np.int64, "updated": np.bool_}


@dataclass(frozen=True, eq=False)
class Ledger:
    """A run's ledger as one array per trace column (``k`` int64, ``updated``
    bool, the rest float64); ``in_transient`` is None when read from CSV.

    ``len()``, iteration and integer indexing give :class:`IterationRecord`
    rows holding Python scalars; a slice gives the Ledger of those rows.
    Two Ledgers are equal when every column is.
    """

    k: np.ndarray
    e: ArrayF
    e_tilde: ArrayF
    n: ArrayF
    updated: np.ndarray
    mu_bar: ArrayF
    alpha: ArrayF
    gamma_used: ArrayF
    wtilde_sq_before: ArrayF
    wtilde_sq_after: ArrayF
    lhs: ArrayF
    rhs: ArrayF
    in_transient: np.ndarray | None = None

    @classmethod
    def of(cls, rows: Ledger | Sequence[IterationRecord]) -> Ledger:
        """``rows`` as a Ledger: a Ledger as it is, a row sequence column by column."""
        if isinstance(rows, Ledger):
            return rows
        columns = [
            np.fromiter(map(attrgetter(c), rows), _DTYPES.get(c, np.float64), len(rows))
            for c in TRACE_COLUMNS
        ]
        transient = list(map(attrgetter("in_transient"), rows))
        in_transient = None if None in transient else np.array(transient, dtype=bool)
        return cls(*columns, in_transient)

    def _columns(self) -> list:
        return [getattr(self, name) for name in _FIELDS]

    def __len__(self) -> int:
        return len(self.k)

    def __iter__(self) -> Iterator[IterationRecord]:
        *columns, transient = self._columns()
        transient = repeat(None) if transient is None else transient.tolist()
        return map(IterationRecord, *(c.tolist() for c in columns), transient)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ledger(*(None if c is None else c[index] for c in self._columns()))
        i = range(len(self))[index]
        return next(iter(self[i : i + 1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ledger):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))


@dataclass(frozen=True)
class RunVerdict:
    """Flat per-run summary of the stability certificates and update stats."""

    total_iterations: int
    update_count: int
    update_rate: float
    local_violations: int
    conditional_violations: int
    global_ratio: float
    increase_count: int
    increase_fraction: float
    increases_in_transient: int
    erfc_bound: float | None
    wtilde_sq_initial: float
    wtilde_sq_final: float

    def as_dict(self) -> dict:
        """JSON-safe flat key/value record (a NaN ratio becomes null)."""
        out = dataclasses.asdict(self)
        if math.isnan(self.global_ratio):
            out["global_ratio"] = None
        return out


def record_iteration(
    w_star: ArrayF, w_before: ArrayF, w_after: ArrayF, outcome: StepOutcome, n: float
) -> IterationRecord:
    """Ledger row for one step, given simulation-only knowledge of the true
    kernels and the injected noise sample.

    The noiseless error is (w* - w(k))' x(k), computed from the deviation
    directly, so the decomposition e = e~ + n holds to floating-point
    accuracy rather than by construction.
    """
    w_star = np.asarray(w_star, dtype=np.float64)
    if w_star.shape != w_before.shape or w_star.shape != w_after.shape:
        raise DimensionMismatchError(
            f"kernel shapes differ: true {w_star.shape}, before {w_before.shape},"
            f" after {w_after.shape}"
        )
    deviation_before = w_star - w_before
    wtilde_sq_before = float(deviation_before.dot(deviation_before))
    e_tilde = float(deviation_before.dot(outcome.regressor))
    if w_after is w_before:
        wtilde_sq_after = wtilde_sq_before
    else:
        deviation_after = w_star - w_after
        wtilde_sq_after = float(deviation_after.dot(deviation_after))
    if outcome.updated:
        weight = outcome.mu_bar / outcome.alpha
        lhs = wtilde_sq_after + weight * e_tilde**2
        rhs = wtilde_sq_before + weight * float(n) ** 2
    else:
        lhs = wtilde_sq_after
        rhs = wtilde_sq_before
    return IterationRecord(
        k=outcome.k,
        e=outcome.e,
        e_tilde=e_tilde,
        n=float(n),
        updated=outcome.updated,
        mu_bar=outcome.mu_bar,
        alpha=outcome.alpha,
        gamma_used=outcome.gamma_used,
        wtilde_sq_before=wtilde_sq_before,
        wtilde_sq_after=wtilde_sq_after,
        lhs=lhs,
        rhs=rhs,
        in_transient=outcome.in_transient,
    )


def _weighted_energies(ledger: Ledger) -> tuple[ArrayF, ArrayF]:
    """Each row's (mu/alpha) e~^2 and (mu/alpha) n^2 on updates, zero
    elsewhere: what it adds to lhs over rhs, and to the error and disturbance
    energies of the global ratio.  Overflow and a zero alpha give inf or NaN,
    which the checks count as violations."""
    updated, e_tilde, n = ledger.updated, ledger.e_tilde, ledger.n
    with np.errstate(all="ignore"):
        weight = np.divide(ledger.mu_bar, ledger.alpha, out=np.zeros(len(updated)), where=updated)
        # products, not powers: a huge finite field overflows to inf, not an error
        return weight * (e_tilde * e_tilde), weight * (n * n)


def run_ledger(
    regressors: ArrayF,
    desired: ArrayF,
    noise: ArrayF,
    w_star: ArrayF,
    delta: float,
    law: ThresholdPolicy | float,
) -> Ledger:
    """The ledger of :func:`filters.run_rows` over precomputed, finite
    regressor rows: the rows :func:`record_iteration` gives for the same
    steps, built per block with array operations.

    Each distinct estimate's deviation energy is computed once, so a step
    that leaves the estimate unchanged keeps its energy exactly.
    """
    size = len(desired)
    # e, updated, mu_bar, alpha, gamma_used, in_transient per step
    steps = np.empty((6, size))
    e_tilde, before, after = np.empty((3, size))
    for k0, estimates, version, block in run_rows(regressors, desired, delta, law):
        rows = slice(k0, k0 + len(block))
        deviation = w_star - np.array(estimates)
        energy = np.einsum("ij,ij->i", deviation, deviation)
        before_version = np.asarray(version)
        after_version = np.append(before_version[1:], len(estimates) - 1)
        e_tilde[rows] = np.einsum("ij,ij->i", deviation[before_version], regressors[rows])
        before[rows] = energy[before_version]
        after[rows] = energy[after_version]
        steps[:, rows] = np.transpose(block)
    e, updated, mu_bar, alpha, gamma_used, in_transient = steps
    noise = np.array(noise, dtype=np.float64)
    # lhs and rhs are the deviation energies until the weighted energies are added
    ledger = Ledger(
        np.arange(size), e, e_tilde, noise, updated != 0.0, mu_bar, alpha, gamma_used,
        before, after, after, before, in_transient != 0.0,
    )
    error_energy, noise_energy = _weighted_energies(ledger)
    return dataclasses.replace(ledger, lhs=after + error_energy, rhs=before + noise_energy)


def _equal(value: ArrayF, reference: ArrayF) -> np.ndarray:
    """``value`` equals ``reference`` to ``EQUALITY_RTOL``, relative above one;
    written as "<=" so that a NaN on either side is a mismatch."""
    return abs(value - reference) <= EQUALITY_RTOL * np.maximum(1.0, abs(reference))


def _local_ok(ledger: Ledger) -> np.ndarray:
    """The local energy certificate per row: lhs strictly below rhs, with
    relative slack, on updates; lhs equal to rhs to rounding otherwise."""
    lhs, rhs = ledger.lhs, ledger.rhs
    with np.errstate(all="ignore"):
        return np.where(
            ledger.updated,
            lhs < rhs + LOCAL_SLACK * np.maximum(1.0, rhs),
            _equal(lhs, rhs),
        )


def prefix_ratios(rows: Ledger | Sequence[IterationRecord]) -> ArrayF:
    """Global error-to-disturbance ratio after every prefix K = 1..len(rows),
    by running sums: the deviation energy after step K plus the weighted
    noiseless-error energy, over the initial deviation energy plus the
    weighted noise energy (both sums over updates only).

    Prefixes whose disturbance energy is still zero yield NaN.
    """
    ledger = Ledger.of(rows)
    error_energy, noise_energy = _weighted_energies(ledger)
    with np.errstate(all="ignore"):
        num = ledger.wtilde_sq_after + np.cumsum(error_energy)
        # a one-element slice broadcasts, and stays empty for an empty ledger
        den = ledger.wtilde_sq_before[:1] + np.cumsum(noise_energy)
        return np.where(den == 0.0, np.nan, num / den)


def erfc_bound(tau: float) -> float:
    """Upper bound on the probability of a deviation-energy increase when the
    threshold is sqrt(tau * sigma_n_sq): the Gaussian tail erfc(sqrt(tau/2))."""
    t = float(tau)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    return math.erfc(math.sqrt(t / 2.0))


def summarize_run(
    rows: Ledger | Sequence[IterationRecord], *, tau_for_bound: float | None = None
) -> RunVerdict:
    """Collapse a completed ledger, or its rows, into the flat per-run verdict.

    Every count is taken over a whole column.  The global ratio is the last
    prefix ratio, the number :func:`verify_trace` tests against one: with no
    updates it collapses to the vacuous boundary value 1, and with zero
    disturbance energy it is NaN.
    """
    ledger = Ledger.of(rows)
    total = len(ledger)
    if not total:
        raise ValueError("cannot summarize an empty ledger")
    updated, e_tilde, n = ledger.updated, ledger.e_tilde, ledger.n
    after, before = ledger.wtilde_sq_after, ledger.wtilde_sq_before
    increased = after > before
    transient = ledger.in_transient if ledger.in_transient is not None else False
    # conditional improvement: where an update's noiseless error dominates
    # the noise, the deviation energy strictly decreases
    with np.errstate(all="ignore"):
        improved = ~updated | (e_tilde * e_tilde < n * n) | (after < before)
    updates, increases = int(np.count_nonzero(updated)), int(np.count_nonzero(increased))
    return RunVerdict(
        total_iterations=total,
        update_count=updates,
        update_rate=updates / total,
        local_violations=int(np.count_nonzero(~_local_ok(ledger))),
        conditional_violations=int(np.count_nonzero(~improved)),
        global_ratio=prefix_ratios(ledger)[-1].item(),
        increase_count=increases,
        increase_fraction=increases / total,
        increases_in_transient=int(np.count_nonzero(increased & transient)),
        erfc_bound=erfc_bound(tau_for_bound) if tau_for_bound is not None else None,
        wtilde_sq_initial=before[0].item(),
        wtilde_sq_final=after[-1].item(),
    )


#: 17 significant digits: lossless round trip for doubles
FLOAT_FORMAT = "%.17g"
#: one trace CSV row: ``k`` and ``updated`` as integers, the rest as floats
_TRACE_ROW = ",".join("%d" if c in _DTYPES else FLOAT_FORMAT for c in TRACE_COLUMNS) + "\n"


def write_trace_csv(rows: Ledger | Sequence[IterationRecord], path) -> None:
    """Emit the ledger as CSV: header row, LF endings, '.' decimals, floats
    at 17 significant digits so a re-read reproduces every bit."""
    ledger = Ledger.of(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for k0 in range(0, len(ledger), ROW_BLOCK):
            columns = [getattr(ledger, c)[k0 : k0 + ROW_BLOCK].tolist() for c in TRACE_COLUMNS]
            fh.writelines(_TRACE_ROW % row for row in zip(*columns))


def read_trace_csv(path) -> Ledger:
    """Read back a trace written by :func:`write_trace_csv`; every field must
    be a finite number, ``k`` a 64-bit integer and ``updated`` 0 or 1.  A
    ``ValueError`` names the path and line of the first fault."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise ValueError(f"{path}:1: not a trace CSV (bad or missing header)")
    ks, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} columns")
        try:
            k = int(parts[0])
            values = list(map(float, parts[1:]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            column = next(c for c, v in zip(TRACE_COLUMNS[1:], values) if not math.isfinite(v))
            raise ValueError(f"{path}:{lineno}: column {column} is not finite")
        if parts[4] not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: column updated must be 0 or 1")
        if not -(2**63) <= k < 2**63:
            raise ValueError(f"{path}:{lineno}: column k is out of range")
        ks.append(k)
        rows.append(values)
    e, e_tilde, n, updated, *rest = np.array(rows, dtype=np.float64).reshape(-1, 11).T.copy()
    return Ledger(np.array(ks, dtype=np.int64), e, e_tilde, n, updated != 0.0, *rest)


def verify_trace(rows: Ledger | Sequence[IterationRecord]) -> list[str]:
    """Re-check a ledger: at least one row, rows numbered k = 0..K-1, each
    row's deviation energy before equal to the previous row's after, row
    arithmetic, the error decomposition, the local certificate on every row,
    and the prefix ratio wherever at least one update has happened (an
    undefined ratio there is a violation).  Any NaN field fails its checks.
    Returns violation messages, row by row; empty means the trace certifies."""
    ledger = Ledger.of(rows)
    if not len(ledger):
        return ["trace has no rows"]
    k, updated, e, e_tilde, n = ledger.k, ledger.updated, ledger.e, ledger.e_tilde, ledger.n
    before, after = ledger.wtilde_sq_before, ledger.wtilde_sq_after
    k_off = np.append(k[0] != 0, k[1:] != k[:-1] + 1)
    # exact: the engine and record_iteration carry the energy over unchanged,
    # and the 17-digit CSV round-trips it
    chain_broken = np.append(False, ~(before[1:] == after[:-1]))
    alpha_bad = updated & ~(ledger.alpha > 0.0)
    error_energy, noise_energy = _weighted_energies(ledger)
    with np.errstate(all="ignore"):
        lhs_ok = _equal(ledger.lhs, after + error_energy)
        sides_off = ~(lhs_ok & _equal(ledger.rhs, before + noise_energy))
        split = e_tilde + n
        # written as "not <=" so that a NaN anywhere counts as a mismatch
        scale = np.maximum(1.0, np.maximum(abs(e), abs(split)))
        split_off = ~(abs(e - split) <= EQUALITY_RTOL * scale)
    # an update without a positive alpha has no row arithmetic to check
    sides_off, split_off, local_off = (
        mask & ~alpha_bad for mask in (sides_off, split_off, ~_local_ok(ledger))
    )
    problems: list[str] = []
    faulty = k_off | chain_broken | alpha_bad | sides_off | split_off | local_off
    for i in np.flatnonzero(faulty).tolist():
        r = ledger[i]
        if k_off[i]:
            expected = int(k[i - 1]) + 1 if i else 0
            problems.append(f"row k={r.k}: expected k={expected}, rows must run k = 0..K-1")
        if chain_broken[i]:
            problems.append(
                f"row k={r.k}: wtilde_sq_before={r.wtilde_sq_before!r} is not the"
                f" previous row's wtilde_sq_after={after[i - 1].item()!r}"
            )
        if alpha_bad[i]:
            problems.append(f"row k={r.k}: update with alpha={r.alpha!r}, not positive")
        if sides_off[i]:
            problems.append(f"row k={r.k}: stored lhs/rhs do not match the row fields")
        if split_off[i]:
            problems.append(f"row k={r.k}: error decomposition e != e_tilde + n")
        if local_off[i]:
            problems.append(
                f"row k={r.k}: local energy inequality violated"
                f" (lhs={r.lhs!r}, rhs={r.rhs!r})"
            )
    ratios = prefix_ratios(ledger)
    above_one = (np.cumsum(updated) >= 1) & ~(ratios < 1.0 + LOCAL_SLACK)
    for i in np.flatnonzero(above_one).tolist():
        problems.append(f"prefix K={i + 1}: global ratio {ratios[i].item()!r} not below one")
    return problems
