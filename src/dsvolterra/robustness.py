"""Per-iteration energy ledger and numerical stability certificates.

For every step the ledger stores the deviation energy ||w* - w(k)||^2 before
and after and the noiseless error, from which the checks derive the two
sides of the local energy inequality: on updates,

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
import re
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .errors import DimensionMismatchError, NumericInputError
from .filters import ENERGY_NOT_FINITE, ZERO_ENERGY, StepOutcome, ThresholdPolicy
from .filters import _check_step_size, _gamma
from .volterra import ROW_BLOCK, ArrayF

#: relative slack for the strict branch of the local inequality
LOCAL_SLACK = 1e-10
#: relative tolerance for the equality branch (no update)
EQUALITY_RTOL = 1e-12


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One ledger row."""

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
    in_transient: bool


#: the trace CSV's columns: every row field, in order
TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(IterationRecord))
#: each column's dtype but float64's: the ledger's arrays, and the CSV's integer columns
_DTYPES = {"k": np.int64, "updated": np.bool_, "in_transient": np.bool_}


@dataclass(frozen=True, eq=False)
class Ledger:
    """A run's ledger as one array per trace column (``k`` int64, ``updated``
    and ``in_transient`` bool, the rest float64).

    Every value is finite: the first row holding one that is not is refused
    with a ``NumericInputError`` naming its ``k`` and those columns, so no
    consumer of a Ledger meets inf or NaN.  ``len()``, iteration and integer
    indexing give :class:`IterationRecord` rows holding Python scalars; a
    slice gives the Ledger of those rows.  Two Ledgers are equal when every
    column is.
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
    in_transient: np.ndarray

    def __post_init__(self) -> None:
        if not all(np.isfinite(c).all() for c in self._columns):
            i = np.logical_and.reduce([np.isfinite(c) for c in self._columns]).argmin()
            bad = [name for name, c in zip(TRACE_COLUMNS, self._columns) if not np.isfinite(c[i])]
            raise NumericInputError(f"row k={self.k[i]}: columns not finite: {', '.join(bad)}")

    @classmethod
    def of(cls, rows: Ledger | Sequence[IterationRecord]) -> Ledger:
        """``rows`` as a Ledger: a Ledger as it is, a row sequence column by column."""
        if isinstance(rows, Ledger):
            return rows
        return cls(*(np.fromiter(map(attrgetter(c), rows), _DTYPES.get(c, np.float64), len(rows))
                     for c in TRACE_COLUMNS))

    _columns = property(attrgetter(*TRACE_COLUMNS))

    def __len__(self) -> int:
        return len(self.k)

    def __iter__(self) -> Iterator[IterationRecord]:
        return map(IterationRecord, *(c.tolist() for c in self._columns))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ledger(*(c[index] for c in self._columns))
        i = range(len(self))[index]
        return next(iter(self[i : i + 1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ledger):
            return NotImplemented
        return all(map(np.array_equal, self._columns, other._columns))


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
        in_transient=outcome.in_transient,
    )


def run_ledger(
    regressors: ArrayF,
    desired: ArrayF,
    noise: ArrayF,
    w_star: ArrayF,
    delta: float,
    law: ThresholdPolicy | float,
) -> Ledger:
    """A whole run over precomputed regressor rows, from the zero estimate,
    as a ledger: the steps :func:`filters.ds_vnlms_step` (``law`` a policy)
    or :func:`filters.vnlms_step` (``law`` a step size) take on the same
    rows, and the rows :func:`record_iteration` gives for them.  The first row
    whose alpha or desired value is not finite is refused before any step.

    The rows are stepped on as given, the row-major matrix of
    :func:`volterra.expand_series`, and e~ is read off the same rows.  The
    row loop writes the update law and the transient detector out inline:
    its only numpy calls per row are ``w.dot(x)`` and, on updates, the
    step, and alpha comes from one ``np.vecdot`` over the run.  The
    streaming functions stay the reference it is tested against.  A policy's
    detector keeps its flag window and count as the streaming step does; a
    step size runs no detector, every step is transient.  Per block of
    ``ROW_BLOCK`` steps the ledger is read off the distinct estimates in
    force, so a step that leaves the estimate unchanged keeps its deviation
    energy exactly.
    """
    if isinstance(law, ThresholdPolicy):
        mu, window, threshold = None, law.window_length, law.steady_update_threshold
        gammas = (_gamma(law, False), _gamma(law, True))
    else:
        _check_step_size(law)
        mu, gammas = law, (0.0, 0.0)
    flags, count, transient = deque(), 0, True
    d = np.asarray(desired, dtype=np.float64)
    size = len(d)
    # a no-op on expand_series' matrix: alpha matches x.dot(x) only on contiguous rows
    x = np.ascontiguousarray(regressors)
    with np.errstate(over="ignore"):
        alphas = np.vecdot(x, x) + delta
    for values, fault in ((alphas, ENERGY_NOT_FINITE), (d, "desired value must be finite")):
        if not (finite := np.isfinite(values)).all():
            raise NumericInputError(f"row k={finite.argmin()}: {fault}")
    w = np.zeros(x.shape[1])
    e, mu_bar, e_tilde, before, after = np.empty((5, size))
    updated, in_transient = np.empty((2, size), dtype=bool)
    for k0 in range(0, size, ROW_BLOCK):
        span = slice(k0, k0 + ROW_BLOCK)
        # the distinct estimates in force, and each step's index into them
        held, at = [w], []
        es, ups, mus, transients = [], [], [], []
        for x_k, d_k, alpha in zip(list(x[span]), d[span].tolist(), alphas[span].tolist()):
            if mu is None:
                transient = len(flags) < window or count >= threshold
            gamma = gammas[transient]
            e_k = d_k - float(w.dot(x_k))
            if mu is None:
                update = abs(e_k) > gamma
                mu_k = 1.0 - gamma / abs(e_k) if update else 0.0
                if len(flags) == window:
                    count -= flags.popleft()
                flags.append(update)
                count += update
            else:
                update, mu_k = True, mu
            at.append(len(held) - 1)
            if update and e_k != 0.0:
                if alpha == 0.0:
                    raise NumericInputError(ZERO_ENERGY)
                w = w + (mu_k / alpha) * e_k * x_k
                held.append(w)
            es.append(e_k)
            ups.append(update)
            mus.append(mu_k)
            transients.append(transient)
        at.append(len(held) - 1)
        at = np.array(at)
        deviation = w_star - np.array(held)
        energy = np.einsum("ij,ij->i", deviation, deviation)[at]
        e_tilde[span] = np.einsum("ij,ij->i", deviation[at[:-1]], x[span])
        before[span], after[span] = energy[:-1], energy[1:]
        e[span], updated[span], mu_bar[span], in_transient[span] = es, ups, mus, transients
    return Ledger(
        np.arange(size), e, e_tilde, np.array(noise, dtype=np.float64), updated,
        mu_bar, alphas, np.where(in_transient, gammas[1], gammas[0]), before, after, in_transient,
    )


def _row_table(ledger: Ledger) -> dict[str, np.ndarray]:
    """Every per-row value the certificates are decided on, computed once for
    :func:`summarize_run` and :func:`verify_trace`: the derived sides, the
    prefix ratios, and one mask per fault, True on the rows that have it.
    Comparisons are written so that a NaN fails them.

    On updates a row adds (mu/alpha) e~^2 and (mu/alpha) n^2 to the two sides
    of the local inequality, after + (mu/alpha) e~^2 and before + (mu/alpha)
    n^2, and to the error and disturbance energies of the global ratio; other
    rows add zero.  Overflow and a zero alpha give inf or NaN, which the
    checks count as violations.  The local inequality holds strictly, with
    relative slack, on updates and to ``EQUALITY_RTOL`` otherwise; an
    overflowed rhs fails it.  ``local_off`` marks every failing row, as the
    summary counts them; ``local_checked`` and ``split_off`` leave out an
    update without a positive alpha, which has no row arithmetic to check.
    ``above_one`` marks each prefix after the first update whose ratio is not
    below one with ``LOCAL_SLACK``."""
    k, updated, e, e_tilde, n = ledger.k, ledger.updated, ledger.e, ledger.e_tilde, ledger.n
    before, after = ledger.wtilde_sq_before, ledger.wtilde_sq_after
    alpha_bad = updated & ~(ledger.alpha > 0.0)
    with np.errstate(all="ignore"):
        weight = np.divide(ledger.mu_bar, ledger.alpha, out=np.zeros(len(k)), where=updated)
        # products, not powers: a huge finite field overflows to inf, not an error
        error_energy, noise_energy = weight * (e_tilde * e_tilde), weight * (n * n)
        lhs, rhs = after + error_energy, before + noise_energy
        strict = lhs < rhs + LOCAL_SLACK * np.maximum(1.0, rhs)
        equal = abs(lhs - rhs) <= EQUALITY_RTOL * np.maximum(1.0, abs(rhs))
        local_off = ~(np.isfinite(rhs) & np.where(updated, strict, equal))
        split = e_tilde + n
        split_ok = abs(e - split) <= EQUALITY_RTOL * np.maximum(1.0, np.maximum(abs(e), abs(split)))
        # running sums over updates; the one-element slices broadcast, and stay
        # empty for an empty ledger
        den = before[:1] + np.cumsum(noise_energy)
        ratios = np.where(den == 0.0, np.nan, (after + np.cumsum(error_energy)) / den)
        # conditional improvement: where an update's noiseless error dominates
        # the noise, the deviation energy strictly decreases
        unimproved = updated & ~(e_tilde * e_tilde < n * n) & ~(after < before)
    increased = after > before
    return dict(
        lhs=lhs, rhs=rhs, ratios=ratios,
        k_off=np.append(k[:1] != 0, k[1:] != k[:-1] + 1),
        # exact: the engine and record_iteration carry the energy over
        # unchanged, and the 17-digit CSV round-trips it
        chain_broken=np.append(np.zeros_like(k[:1], bool), before[1:] != after[:-1]),
        alpha_bad=alpha_bad, split_off=~split_ok & ~alpha_bad, local_off=local_off,
        local_checked=local_off & ~alpha_bad, unimproved=unimproved,
        increased=increased, increased_in_transient=increased & ledger.in_transient,
        above_one=(np.cumsum(updated) >= 1) & ~(ratios < 1.0 + LOCAL_SLACK),
    )


def prefix_ratios(rows: Ledger | Sequence[IterationRecord]) -> ArrayF:
    """Global error-to-disturbance ratio after every prefix K = 1..len(rows):
    the deviation energy after step K plus the weighted noiseless-error
    energy, over the initial deviation energy plus the weighted noise energy,
    both summed over updates.  NaN while the disturbance energy is zero."""
    return _row_table(Ledger.of(rows))["ratios"]


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

    Every count is one mask of the row table.  The global ratio is the last
    prefix ratio, the number :func:`verify_trace` tests against one: with no
    updates it collapses to the vacuous boundary value 1, and with zero
    disturbance energy it is NaN.
    """
    ledger = Ledger.of(rows)
    total = len(ledger)
    if not total:
        raise ValueError("cannot summarize an empty ledger")
    table = _row_table(ledger)
    updates, increases = (int(np.count_nonzero(m)) for m in (ledger.updated, table["increased"]))
    return RunVerdict(
        total_iterations=total,
        update_count=updates,
        update_rate=updates / total,
        local_violations=int(np.count_nonzero(table["local_off"])),
        conditional_violations=int(np.count_nonzero(table["unimproved"])),
        global_ratio=table["ratios"][-1].item(),
        increase_count=increases,
        increase_fraction=increases / total,
        increases_in_transient=int(np.count_nonzero(table["increased_in_transient"])),
        erfc_bound=erfc_bound(tau_for_bound) if tau_for_bound is not None else None,
        wtilde_sq_initial=ledger.wtilde_sq_before[0].item(),
        wtilde_sq_final=ledger.wtilde_sq_after[-1].item(),
    )


#: 17 significant digits: lossless round trip for doubles
FLOAT_FORMAT = "%.17g"


def write_trace_csv(rows: Ledger | Sequence[IterationRecord], path) -> None:
    """Emit the ledger's trace columns as CSV: header row, LF endings, '.'
    decimals, ``k`` and the flags as integers, floats at 17 significant digits
    so a re-read reproduces every bit; ``ROW_BLOCK`` rows at a time."""
    ledger = Ledger.of(rows)
    row = ",".join("%d" if c in _DTYPES else FLOAT_FORMAT for c in TRACE_COLUMNS) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for k0 in range(0, len(ledger), ROW_BLOCK):
            block = [c[k0 : k0 + ROW_BLOCK].tolist() for c in ledger._columns]
            fh.write((row * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


#: each trace field as :func:`write_trace_csv` emits it: an int64 column by ``%d``, a
#: bool column 0 or 1, the rest by FLOAT_FORMAT (no leading zeros, no trailing fraction
#: zeros, 1-digit mantissa, 2-3 digit exponent); inf and nan reach the Ledger's finite check
_FRACTION = r"(?:\.[0-9]*[1-9])?"
_FLOAT_AS_WRITTEN = (
    rf"-?(?:(?:0|[1-9][0-9]*){_FRACTION}|[1-9]{_FRACTION}e[+-][1-9]?[0-9]{{2}}|inf)|nan"
)
_AS_WRITTEN = [
    {np.int64: r"0|-?[1-9][0-9]{0,18}", np.bool_: "[01]"}.get(_DTYPES.get(c), _FLOAT_AS_WRITTEN)
    for c in TRACE_COLUMNS
]
_ROW_AS_WRITTEN = re.compile(",".join(f"(?:{field})" for field in _AS_WRITTEN))


def read_trace_csv(path) -> Ledger:
    """Read back a trace written by :func:`write_trace_csv`: every field as it
    writes one and finite, ``k`` a 64-bit integer and each flag 0 or 1, each
    line ended by "\\n" alone.  A ``ValueError`` names the path and line of
    the first fault.  Lines are matched against the row syntax, then parsed
    ``ROW_BLOCK`` at a time; only a faulty file is walked line by line."""
    raw = Path(path).read_bytes()
    try:
        *lines, tail = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
    older = ",".join(c for c in TRACE_COLUMNS if c != "in_transient")
    missing = {older + ",lhs,rhs": "the lhs,rhs columns", older: "no in_transient column"}
    if lines and lines[0] in missing:
        raise ValueError(f"{path}:1: trace has {missing[lines[0]]} of an older format;"
                         " re-run its config.json")
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError(f"{path}:1: not a trace CSV (bad or missing header)")
    rows, width = lines[1:], len(TRACE_COLUMNS)
    if tail or not all(map(_ROW_AS_WRITTEN.fullmatch, rows)):
        _first_fault(path, rows)
    # each column a block at a time, by int() where the writer wrote %d
    columns = [np.empty(len(rows), _DTYPES.get(c, np.float64)) for c in TRACE_COLUMNS]
    try:
        for k0 in range(0, len(rows), ROW_BLOCK):
            fields = ",".join(rows[k0 : k0 + ROW_BLOCK]).split(",")
            for j, (c, column) in enumerate(zip(TRACE_COLUMNS, columns)):
                parse = int if c in _DTYPES else float
                column[k0 : k0 + ROW_BLOCK] = list(map(parse, fields[j::width]))
        return Ledger(*columns)
    except (OverflowError, NumericInputError):  # an integer beyond 64 bits, a field not finite
        _first_fault(path, rows)


def _first_fault(path, rows: list[str]) -> NoReturn:
    """Raise the ``ValueError`` naming the first fault of a faulty trace whose
    body lines are ``rows``: a row's first fault, else the missing last "\\n"."""
    for lineno, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} columns")
        row = [(c, f, _DTYPES.get(c), s) for c, f, s in zip(TRACE_COLUMNS, parts, _AS_WRITTEN)]
        # each check runs only on a row that passes the ones before it
        fault = next(chain(
            (f"{c} must be 0 or 1" for c, f, t, _ in row if t is np.bool_ and f not in ("0", "1")),
            (f"{c} is malformed" for c, f, _, s in row if not re.fullmatch(s, f)),
            (f"{c} is not finite" for c, f, _, _ in row if not math.isfinite(float(f))),
            (f"{c} is out of range" for c, f, t, _ in row
             if t is np.int64 and not -(2**63) <= int(f) < 2**63),
        ), None)
        if fault:
            raise ValueError(f"{path}:{lineno}: column {fault}")
    raise ValueError(f"{path}:{len(rows) + 2}: line does not end in a newline")


def verify_trace(rows: Ledger | Sequence[IterationRecord]) -> list[str]:
    """Re-check a ledger: at least one row, rows numbered k = 0..K-1, each
    row's deviation energy before equal to the previous row's after, the
    error decomposition, the local certificate on each row's derived sides,
    conditional improvement on each update whose noiseless error dominates its
    noise, and the prefix ratio wherever at least one update has happened (an
    undefined ratio there is a violation).  Rows with a field that is not
    finite are refused, as :class:`Ledger` refuses them.  Returns violation
    messages, row by row; empty means the trace certifies."""
    ledger = Ledger.of(rows)
    if not len(ledger):
        return ["trace has no rows"]
    table = _row_table(ledger)
    k, after, lhs, rhs = ledger.k, ledger.wtilde_sq_after, table["lhs"], table["rhs"]
    # each row check and its message, in the order a row reports them
    checks = (
        ("k_off", "expected k={expected}, rows must run k = 0..K-1"),
        ("chain_broken", "wtilde_sq_before={r.wtilde_sq_before!r} is not the previous row's"
         " wtilde_sq_after={previous!r}"),
        ("alpha_bad", "update with alpha={r.alpha!r}, not positive"),
        ("split_off", "error decomposition e != e_tilde + n"),
        ("local_checked", "local energy inequality violated (lhs={lhs!r}, rhs={rhs!r})"),
        ("unimproved", "conditional improvement violated (e_tilde^2 >= n^2, wtilde_sq_after="
         "{r.wtilde_sq_after!r} not below wtilde_sq_before={r.wtilde_sq_before!r})"),
    )
    problems: list[str] = []
    for i in np.flatnonzero(np.any([table[name] for name, _ in checks], axis=0)).tolist():
        r, expected = ledger[i], (int(k[i - 1]) + 1 if i else 0)
        values = {"previous": after[i - 1].item(), "lhs": lhs[i].item(), "rhs": rhs[i].item()}
        problems += (
            f"row k={r.k}: " + message.format(r=r, expected=expected, **values)
            for name, message in checks
            if table[name][i]
        )
    ratios = table["ratios"]
    problems += (f"prefix K={i + 1}: global ratio {ratios[i].item()!r} not below one"
                 for i in np.flatnonzero(table["above_one"]).tolist())
    return problems
