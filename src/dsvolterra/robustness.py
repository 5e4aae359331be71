"""Per-iteration energy ledger and numerical stability certificates.

For every step the ledger stores the deviation energy ||w* - w(k)||^2 before
and after, the noiseless error, and the two sides of the local energy
inequality: on updates,

    ||w~(k+1)||^2 + (mu/alpha) e~^2(k)  <  ||w~(k)||^2 + (mu/alpha) n^2(k)

must hold strictly, and without an update both sides collapse to the
unchanged deviation energy.  Summing over a run gives a global
error-to-disturbance energy ratio below one, the l2-stability certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, UndefinedRatioError
from .filters import StepOutcome
from .volterra import ArrayF

#: relative slack for the strict branch of the local inequality
LOCAL_SLACK = 1e-10
#: relative tolerance for the equality branch (no update)
EQUALITY_RTOL = 1e-12

TRACE_COLUMNS = (
    "k",
    "e",
    "e_tilde",
    "n",
    "updated",
    "mu_bar",
    "alpha",
    "gamma_used",
    "wtilde_sq_before",
    "wtilde_sq_after",
    "lhs",
    "rhs",
)


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
        """JSON-safe flat key/value record (NaN ratios become null)."""
        out = {
            "total_iterations": self.total_iterations,
            "update_count": self.update_count,
            "update_rate": self.update_rate,
            "local_violations": self.local_violations,
            "conditional_violations": self.conditional_violations,
            "global_ratio": None if math.isnan(self.global_ratio) else self.global_ratio,
            "increase_count": self.increase_count,
            "increase_fraction": self.increase_fraction,
            "increases_in_transient": self.increases_in_transient,
            "erfc_bound": self.erfc_bound,
            "wtilde_sq_initial": self.wtilde_sq_initial,
            "wtilde_sq_final": self.wtilde_sq_final,
        }
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
    wtilde_sq_before = float(deviation_before @ deviation_before)
    e_tilde = float(deviation_before @ outcome.regressor)
    if w_after is w_before:
        wtilde_sq_after = wtilde_sq_before
    else:
        deviation_after = w_star - w_after
        wtilde_sq_after = float(deviation_after @ deviation_after)
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


def block_records(
    w_star: ArrayF,
    k0: int,
    estimates: Sequence[ArrayF],
    version: Sequence[int],
    regressors: ArrayF,
    noise: ArrayF,
    steps: Sequence[tuple],
) -> list[IterationRecord]:
    """Ledger rows for consecutive steps ``k0, k0 + 1, ...``: the arithmetic
    of :func:`record_iteration` as array operations over a block.

    ``estimates`` are the distinct estimates in force during the block, the
    first before its first step and the last after its last step;
    ``version[i]`` indexes the estimate before step ``i``.  ``steps[i]`` is
    ``(e, updated, mu_bar, alpha, gamma_used, in_transient)``.  Each estimate's
    deviation energy is computed once, so a step that leaves the estimate
    unchanged keeps its energy exactly.
    """
    deviation = w_star - np.array(estimates)
    energy = np.einsum("ij,ij->i", deviation, deviation)
    before_version = np.asarray(version)
    after_version = np.append(before_version[1:], len(estimates) - 1)
    e_tilde = np.einsum("ij,ij->i", deviation[before_version], regressors)
    e, updated, mu_bar, alpha, gamma_used, in_transient = zip(*steps)
    weight = np.divide(mu_bar, alpha, out=np.zeros(len(steps)), where=np.array(updated))
    before = energy[before_version]
    after = energy[after_version]
    lhs = after + weight * e_tilde**2
    rhs = before + weight * noise**2
    return list(
        map(
            IterationRecord,
            range(k0, k0 + len(steps)),
            e,
            e_tilde.tolist(),
            noise.tolist(),
            updated,
            mu_bar,
            alpha,
            gamma_used,
            before.tolist(),
            after.tolist(),
            lhs.tolist(),
            rhs.tolist(),
            in_transient,
        )
    )


def check_local(record: IterationRecord) -> bool:
    """Local energy certificate for one row: strictly below with relative
    slack when an update happened, equality to rounding otherwise."""
    if record.updated:
        return record.lhs < record.rhs + LOCAL_SLACK * max(1.0, record.rhs)
    return abs(record.lhs - record.rhs) <= EQUALITY_RTOL * max(1.0, abs(record.rhs))


def check_conditional_improvement(record: IterationRecord) -> bool:
    """On updates where the noiseless error dominates the noise, the deviation
    energy must strictly decrease; every other row passes vacuously."""
    if not record.updated:
        return True
    if record.e_tilde**2 < record.n**2:
        return True
    return record.wtilde_sq_after < record.wtilde_sq_before


def global_ratio(records: Sequence[IterationRecord], wtilde_sq_initial: float) -> float:
    """Error-energy to disturbance-energy ratio over a completed run.

    The weighted sums run over updated iterations only.  With no updates the
    ratio collapses to the vacuous boundary value 1.
    """
    if not records:
        raise ValueError("cannot form a ratio over an empty record sequence")
    num = records[-1].wtilde_sq_after
    den = float(wtilde_sq_initial)
    for r in records:
        if r.updated:
            weight = r.mu_bar / r.alpha
            num += weight * r.e_tilde**2
            den += weight * r.n**2
    if den == 0.0:
        raise UndefinedRatioError("disturbance energy is zero; ratio undefined")
    return num / den


def prefix_ratios(records: Sequence[IterationRecord], wtilde_sq_initial: float) -> ArrayF:
    """Global ratio after every prefix K = 1..len(records), by running sums.

    Prefixes whose disturbance energy is still zero yield NaN.
    """
    updated = np.array([r.updated for r in records], dtype=bool)
    mu_bar, alpha, e_tilde, n, after = np.array(
        [(r.mu_bar, r.alpha, r.e_tilde, r.n, r.wtilde_sq_after) for r in records]
    ).reshape(-1, 5).T
    # a read-back trace may hold any finite values: overflow and a zero alpha
    # give inf or NaN ratios, which the callers treat as violations
    with np.errstate(all="ignore"):
        weights = np.divide(mu_bar, alpha, out=np.zeros(len(records)), where=updated)
        num = after + np.cumsum(weights * (e_tilde * e_tilde))
        den = float(wtilde_sq_initial) + np.cumsum(weights * (n * n))
        return np.where(den == 0.0, np.nan, num / den)


def monotonicity_stats(records: Sequence[IterationRecord]) -> tuple[int, float, int]:
    """Strict increases of the deviation energy: count, fraction over all
    iterations, and how many fell in iterations labeled transient."""
    increases = [r for r in records if r.wtilde_sq_after > r.wtilde_sq_before]
    count = len(increases)
    fraction = count / len(records) if records else 0.0
    in_transient = sum(1 for r in increases if r.in_transient)
    return count, fraction, in_transient


def erfc_bound(tau: float) -> float:
    """Upper bound on the probability of a deviation-energy increase when the
    threshold is sqrt(tau * sigma_n_sq): the Gaussian tail erfc(sqrt(tau/2))."""
    t = float(tau)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    return math.erfc(math.sqrt(t / 2.0))


def summarize_run(
    records: Sequence[IterationRecord], *, tau_for_bound: float | None = None
) -> RunVerdict:
    """Collapse a completed ledger into the flat per-run verdict."""
    if not records:
        raise ValueError("cannot summarize an empty record sequence")
    total = len(records)
    updates = sum(1 for r in records if r.updated)
    wtilde_sq_initial = records[0].wtilde_sq_before
    try:
        ratio = global_ratio(records, wtilde_sq_initial)
    except UndefinedRatioError:
        ratio = math.nan
    inc_count, inc_fraction, inc_transient = monotonicity_stats(records)
    return RunVerdict(
        total_iterations=total,
        update_count=updates,
        update_rate=updates / total,
        local_violations=sum(1 for r in records if not check_local(r)),
        conditional_violations=sum(
            1 for r in records if not check_conditional_improvement(r)
        ),
        global_ratio=ratio,
        increase_count=inc_count,
        increase_fraction=inc_fraction,
        increases_in_transient=inc_transient,
        erfc_bound=erfc_bound(tau_for_bound) if tau_for_bound is not None else None,
        wtilde_sq_initial=wtilde_sq_initial,
        wtilde_sq_final=records[-1].wtilde_sq_after,
    )


def format_float(x: float) -> str:
    """17 significant digits: lossless round trip for doubles."""
    return f"{x:.17g}"


def write_trace_csv(records: Sequence[IterationRecord], path) -> None:
    """Emit the ledger as CSV: header row, LF endings, '.' decimals, floats
    at 17 significant digits so a re-read reproduces every bit."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in records:
            fh.write(
                ",".join(
                    (
                        str(r.k),
                        format_float(r.e),
                        format_float(r.e_tilde),
                        format_float(r.n),
                        "1" if r.updated else "0",
                        format_float(r.mu_bar),
                        format_float(r.alpha),
                        format_float(r.gamma_used),
                        format_float(r.wtilde_sq_before),
                        format_float(r.wtilde_sq_after),
                        format_float(r.lhs),
                        format_float(r.rhs),
                    )
                )
                + "\n"
            )


def read_trace_csv(path) -> list[IterationRecord]:
    """Read back a trace written by :func:`write_trace_csv`; every field must
    be a finite number and ``updated`` 0 or 1.  A ``ValueError`` names the
    path and line of the first fault."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise ValueError(f"{path}:1: not a trace CSV (bad or missing header)")
    records = []
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
        values[3] = parts[4] == "1"
        records.append(IterationRecord(k, *values))
    return records


def verify_trace(records: Sequence[IterationRecord]) -> list[str]:
    """Re-check a ledger: rows numbered k = 0..K-1, each row's deviation
    energy before equal to the previous row's after, row arithmetic, the error
    decomposition, the local certificate on every row, and the prefix ratio
    wherever at least one update has happened (an undefined ratio there is a
    violation).  Any NaN field fails its checks.  Returns violation messages;
    empty means the trace certifies."""
    problems: list[str] = []
    expected_k = 0
    previous = None
    for r in records:
        if r.k != expected_k:
            problems.append(f"row k={r.k}: expected k={expected_k}, rows must run k = 0..K-1")
        expected_k = r.k + 1
        # exact: record_iteration and block_records carry the energy over
        # unchanged, and the 17-digit CSV round-trips it
        if previous is not None and not r.wtilde_sq_before == previous.wtilde_sq_after:
            problems.append(
                f"row k={r.k}: wtilde_sq_before={r.wtilde_sq_before!r} is not the"
                f" previous row's wtilde_sq_after={previous.wtilde_sq_after!r}"
            )
        previous = r
        if r.updated and not r.alpha > 0.0:
            problems.append(f"row k={r.k}: update with alpha={r.alpha!r}, not positive")
            continue
        weight = (r.mu_bar / r.alpha) if r.updated else 0.0
        # products, not powers: a huge finite field overflows to inf, not an error
        lhs_expected = r.wtilde_sq_after + weight * (r.e_tilde * r.e_tilde)
        rhs_expected = r.wtilde_sq_before + weight * (r.n * r.n)
        # written as "not <=" so that a NaN anywhere counts as a mismatch
        if not (
            abs(r.lhs - lhs_expected) <= EQUALITY_RTOL * max(1.0, abs(lhs_expected))
            and abs(r.rhs - rhs_expected) <= EQUALITY_RTOL * max(1.0, abs(rhs_expected))
        ):
            problems.append(f"row k={r.k}: stored lhs/rhs do not match the row fields")
        if not abs(r.e - (r.e_tilde + r.n)) <= EQUALITY_RTOL * max(
            1.0, abs(r.e), abs(r.e_tilde + r.n)
        ):
            problems.append(f"row k={r.k}: error decomposition e != e_tilde + n")
        if not check_local(r):
            problems.append(
                f"row k={r.k}: local energy inequality violated"
                f" (lhs={r.lhs!r}, rhs={r.rhs!r})"
            )
    if records:
        ratios = prefix_ratios(records, records[0].wtilde_sq_before)
        updates = np.cumsum([1 if r.updated else 0 for r in records])
        for i, (ratio, n_up) in enumerate(zip(ratios, updates)):
            if n_up >= 1 and not ratio < 1.0 + LOCAL_SLACK:
                problems.append(f"prefix K={i + 1}: global ratio {float(ratio)!r} not below one")
    return problems
