"""Energy ledger and stability certificates, anchored on hand-computed traces."""

import dataclasses
import math
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import erfc as scipy_erfc

from dsvolterra import (
    FilterState,
    NoiseSpec,
    SignalSpec,
    ThresholdPolicy,
    VolterraConfig,
    ds_vnlms_step,
    erfc_bound,
    generate_input,
    generate_noise,
    prefix_ratios,
    push_sample,
    read_trace_csv,
    record_iteration,
    summarize_run,
    verify_trace,
    vnlms_step,
    write_trace_csv,
)
from dsvolterra import harness
from dsvolterra.errors import DimensionMismatchError, NumericInputError
from dsvolterra.filters import StepOutcome
from dsvolterra.robustness import (
    EQUALITY_RTOL,
    LOCAL_SLACK,
    TRACE_COLUMNS,
    IterationRecord,
    Ledger,
    _DTYPES,
    _row_table,
)
from dsvolterra.volterra import ROW_BLOCK


def run_hand_trace(inputs, desired, gamma, w_star, config):
    """Stream a short DS trace and return its ledger."""
    state = FilterState(config)
    policy = ThresholdPolicy.fixed(gamma)
    records = []
    for sample, d in zip(inputs, desired):
        push_sample(state, sample)
        w_before = state.w
        out = ds_vnlms_step(state, d, policy)
        records.append(record_iteration(w_star, w_before, state.w, out, 0.0))
    return records


def random_run(seed=0, iters=300, gamma=0.15, noise_kind="gaussian"):
    """A short randomized run against the unit-tap system, full ledger."""
    config = VolterraConfig(2, 2, regularization=1e-9)
    from dsvolterra import Channel, desired_signal, total_dimension

    w_star = np.zeros(total_dimension(config))
    w_star[0] = 1.0
    w_star[3] = -0.4
    x = generate_input(SignalSpec("white_gaussian", variance=1.0, seed=seed), iters)
    if noise_kind == "gaussian":
        noise = generate_noise(NoiseSpec("gaussian", variance=0.01, seed=seed + 1), iters)
    else:
        noise = generate_noise(
            NoiseSpec("uniform_bounded", bound=0.1, seed=seed + 1), iters
        )
    d = desired_signal(Channel(w_star, config), x, noise)
    state = FilterState(config)
    policy = ThresholdPolicy.fixed(gamma)
    records = []
    for k in range(iters):
        push_sample(state, x[k])
        w_before = state.w
        out = ds_vnlms_step(state, d[k], policy)
        records.append(record_iteration(w_star, w_before, state.w, out, noise[k]))
    return records


def ten_columns(lines):
    """Trace lines cut to their ten leading columns, the format before in_transient."""
    return [",".join(line.split(",")[:10]) for line in lines]


def one_row(**fields):
    """The verdict of a one-row ledger, a steady-state row."""
    return summarize_run(Ledger.of([IterationRecord(in_transient=False, **fields)]))


def local_sides(rows):
    """The two sides of the local inequality on each row, as the row table derives them."""
    table = _row_table(Ledger.of(rows))
    return table["lhs"], table["rhs"]


def write_rows_as_text(rows, path):
    """Write ``rows`` in the trace format one row at a time, without building a
    Ledger: the writer's reference, and a way for a field that is not finite
    to reach the file for the reader to refuse."""
    formats = ["%d" if c in _DTYPES else "%.17g" for c in TRACE_COLUMNS]
    lines = [",".join(f % getattr(r, c) for f, c in zip(formats, TRACE_COLUMNS)) for r in rows]
    Path(path).write_text("\n".join([",".join(TRACE_COLUMNS)] + lines) + "\n", newline="")


class TestCanonicalSingleUpdate:
    """w* = e1, w(0) = 0, unit regressor, d = 1, gamma = 0.5, delta = 0."""

    @pytest.fixture()
    def record(self):
        config = VolterraConfig(1, 1, regularization=0.0)
        return run_hand_trace([1.0], [1.0], 0.5, np.array([1.0, 0.0]), config)[0]

    def test_fields(self, record):
        assert record.updated is True
        assert record.e == 1.0
        assert record.e_tilde == 1.0
        assert record.mu_bar == 0.5
        assert record.alpha == 1.0
        assert record.wtilde_sq_before == 1.0
        assert record.wtilde_sq_after == 0.25

    def test_lhs_rhs(self, record):
        (lhs,), (rhs,) = local_sides([record])
        assert lhs == pytest.approx(0.75, rel=1e-12)
        assert rhs == pytest.approx(1.0, rel=1e-12)
        assert summarize_run([record]).local_violations == 0

    def test_global_ratio(self, record):
        assert summarize_run([record]).global_ratio == pytest.approx(0.75, rel=1e-12)

    def test_conditional_improvement(self, record):
        # noiseless error dominates (n = 0) and the energy drops 1 -> 0.25
        assert summarize_run([record]).conditional_violations == 0


class TestThreeStepHandTrace:
    """Single-tap system w* = 1, inputs [1, 1, 2], zero noise, gamma = 0.5,
    delta = 0.  All intermediate values are exact dyadic rationals:

        k=0: e=1.0, update, mu=0.5, alpha=1, w: 0 -> 0.5,
             energies 1 -> 0.25, lhs=0.75, rhs=1.0
        k=1: e=0.5 = gamma, no update, lhs = rhs = 0.25
        k=2: e=1.0, update, mu=0.5, alpha=4, w: 0.5 -> 0.75,
             energies 0.25 -> 0.0625, lhs=0.1875, rhs=0.25
    """

    EXPECTED = [
        # (updated, e, e_tilde, mu_bar, alpha, before, after, lhs, rhs)
        (True, 1.0, 1.0, 0.5, 1.0, 1.0, 0.25, 0.75, 1.0),
        (False, 0.5, 0.5, 0.0, 1.0, 0.25, 0.25, 0.25, 0.25),
        (True, 1.0, 1.0, 0.5, 4.0, 0.25, 0.0625, 0.1875, 0.25),
    ]

    @pytest.fixture()
    def records(self):
        config = VolterraConfig(1, 0, regularization=0.0)
        return run_hand_trace(
            [1.0, 1.0, 2.0], [1.0, 1.0, 2.0], 0.5, np.array([1.0]), config
        )

    def test_rows_match_frozen_table(self, records):
        assert len(records) == 3
        sides = zip(*local_sides(records))
        for record, (got_lhs, got_rhs), expected in zip(records, sides, self.EXPECTED):
            updated, e, e_tilde, mu_bar, alpha, before, after, lhs, rhs = expected
            assert record.updated == updated
            assert record.e == pytest.approx(e, rel=1e-12)
            assert record.e_tilde == pytest.approx(e_tilde, rel=1e-12)
            assert record.mu_bar == pytest.approx(mu_bar, rel=1e-12, abs=0)
            assert record.alpha == pytest.approx(alpha, rel=1e-12)
            assert record.wtilde_sq_before == pytest.approx(before, rel=1e-12)
            assert record.wtilde_sq_after == pytest.approx(after, rel=1e-12)
            assert got_lhs == pytest.approx(lhs, rel=1e-12)
            assert got_rhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_noise_margin_positive_on_updates(self, records):
        lhs, rhs = local_sides(records)
        for record, margin in zip(records, rhs - lhs):
            if record.updated:
                assert margin > 0.0

    def test_prefix_ratios(self, records):
        ratios = prefix_ratios(records)
        np.testing.assert_allclose(ratios, [0.75, 0.75, 0.6875], rtol=1e-12)

    def test_global_ratio(self, records):
        assert records[0].wtilde_sq_before == 1.0
        assert summarize_run(records).global_ratio == pytest.approx(0.6875, rel=1e-12)

    def test_no_increases(self, records):
        verdict = summarize_run(records)
        assert verdict.increase_count == 0
        assert verdict.increase_fraction == 0.0


class TestCheckLocal:
    def test_non_updated_requires_equality(self):
        verdict = one_row(
            k=0, e=0.1, e_tilde=0.1, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.0,
        )
        assert verdict.local_violations == 0

    def test_synthetic_violation_detected(self):
        # negative control: the checker must flag lhs > rhs on an update
        verdict = one_row(
            k=0, e=1.0, e_tilde=1.0, n=0.0, updated=True, mu_bar=0.5, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.5,
        )
        assert verdict.local_violations == 1

    def test_non_updated_drift_detected(self):
        verdict = one_row(
            k=0, e=0.1, e_tilde=0.1, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.01,
        )
        assert verdict.local_violations == 1

    def test_non_updated_drop_detected(self):
        # without an update the deviation energy may not fall either: the
        # strict branch's test would pass this row
        verdict = one_row(
            k=0, e=0.1, e_tilde=0.1, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=0.99,
        )
        assert verdict.local_violations == 1


class TestRecordIterationEnergies:
    """``record_iteration`` weighs e~^2 and n^2 as products, as the ledger
    columns do."""

    def test_huge_noise_gives_inf_not_an_error(self):
        outcome = StepOutcome(
            k=0, e=1e200, updated=True, mu_bar=0.5, alpha=1.0, gamma_used=0.5,
            in_transient=True, regressor=np.array([1.0, 0.0]),
        )
        w_star = np.array([1.0, 0.0])
        record = record_iteration(w_star, np.zeros(2), np.array([0.5, 0.0]), outcome, 1e200)
        (lhs,), (rhs,) = local_sides([record])
        assert rhs == math.inf
        assert lhs == 0.25 + 0.5 * 1.0
        # an overflowed side decides nothing
        assert verify_trace([record]) == [
            "row k=0: local energy inequality violated (lhs=0.75, rhs=inf)"
        ]

    def test_kernel_shape_mismatch_rejected(self):
        outcome = StepOutcome(
            k=0, e=1.0, updated=True, mu_bar=0.5, alpha=1.0, gamma_used=0.5,
            in_transient=True, regressor=np.array([1.0, 0.0]),
        )
        with pytest.raises(DimensionMismatchError, match="kernel shapes differ"):
            record_iteration(np.zeros(3), np.zeros(2), np.zeros(2), outcome, 0.0)

    def test_lhs_and_rhs_follow_the_column_rule_bit_for_bit(self):
        ledger = Ledger.of(random_run(seed=3))
        weight = np.where(ledger.updated, ledger.mu_bar / ledger.alpha, 0.0)
        lhs = ledger.wtilde_sq_after + weight * (ledger.e_tilde * ledger.e_tilde)
        rhs = ledger.wtilde_sq_before + weight * (ledger.n * ledger.n)
        for rows in (ledger, Ledger.of(list(ledger))):
            got_lhs, got_rhs = local_sides(rows)
            assert np.array_equal(got_lhs, lhs)
            assert np.array_equal(got_rhs, rhs)


class TestConditionalImprovement:
    def test_vacuous_when_not_updated(self):
        verdict = one_row(
            k=0, e=0.1, e_tilde=2.0, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.0,
        )
        assert verdict.conditional_violations == 0

    def test_vacuous_when_noise_dominates(self):
        verdict = one_row(
            k=0, e=1.0, e_tilde=0.1, n=0.9, updated=True, mu_bar=0.5, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.2,
        )
        assert verdict.conditional_violations == 0

    def test_violation_detected(self):
        verdict = one_row(
            k=0, e=1.0, e_tilde=1.0, n=0.0, updated=True, mu_bar=0.5, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.0,
        )
        assert verdict.conditional_violations == 1

    def test_no_op_update_that_passes_the_local_check_is_reported(self):
        # fig1a at seed 1 with update k=173 (e_tilde^2 >= n^2) turned into a
        # no-op: mu_bar 0 keeps the local inequality (lhs = rhs = before) and
        # the chain is carried on, so only conditional improvement fails
        rows = row_173_control()
        r = rows[173]
        assert summarize_run(rows).conditional_violations == 1
        assert verify_trace(rows) == [
            f"row k=173: conditional improvement violated (e_tilde^2 >= n^2,"
            f" wtilde_sq_after={r.wtilde_sq_after!r} not below"
            f" wtilde_sq_before={r.wtilde_sq_before!r})"
        ]


def row_173_control():
    """The rows of fig1a's ledger at seed 1 with update k=173 made a no-op."""
    (ledger,) = harness.run_trial(harness.preset("fig1a"), 1).values()
    rows = list(ledger)
    r = rows[173]
    assert r.updated and r.e_tilde * r.e_tilde >= r.n * r.n
    rows[173] = dataclasses.replace(r, mu_bar=0.0, wtilde_sq_after=r.wtilde_sq_before)
    rows[174] = dataclasses.replace(rows[174], wtilde_sq_before=r.wtilde_sq_before)
    return rows


class TestGlobalRatio:
    def test_vacuous_run_sits_on_boundary(self):
        # no updates ever: ratio collapses to ||w~(0)||^2 / ||w~(0)||^2 = 1
        verdict = one_row(
            k=0, e=0.1, e_tilde=0.1, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=2.0, wtilde_sq_after=2.0,
        )
        assert verdict.global_ratio == 1.0

    def test_zero_denominator_is_undefined(self):
        verdict = one_row(
            k=0, e=0.0, e_tilde=0.0, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=0.0, wtilde_sq_after=0.0,
        )
        assert math.isnan(verdict.global_ratio)
        assert verdict.as_dict()["global_ratio"] is None

    def test_is_the_last_prefix_ratio(self):
        # the number summary.json reports is the one check tests, bit for bit
        records = random_run(seed=8)
        for rows in (records, Ledger.of(records)):
            assert summarize_run(rows).global_ratio == prefix_ratios(rows)[-1].item()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            summarize_run([])
        with pytest.raises(ValueError):
            summarize_run(Ledger.of([]))


class TestRandomizedRunInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_certificate_every_row(self, seed):
        assert summarize_run(random_run(seed=seed)).local_violations == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conditional_improvement_every_row(self, seed):
        assert summarize_run(random_run(seed=seed)).conditional_violations == 0

    def test_error_decomposition(self):
        for record in random_run(seed=3):
            assert abs(record.e - (record.e_tilde + record.n)) <= 1e-12 * max(
                1.0, abs(record.e), abs(record.e_tilde + record.n)
            )

    def test_energy_chain_is_continuous(self):
        records = random_run(seed=4)
        for a, b in zip(records, records[1:]):
            assert a.wtilde_sq_after == b.wtilde_sq_before

    def test_prefix_ratios_below_one_once_updated(self):
        records = random_run(seed=5)
        ratios = prefix_ratios(records)
        updated = np.cumsum([r.updated for r in records])
        assert np.all(ratios[updated >= 1] < 1.0 + 1e-10)

    def test_bounded_noise_with_double_threshold_never_increases(self):
        verdict = summarize_run(random_run(seed=6, gamma=0.2, noise_kind="uniform_bounded"))
        assert verdict.increase_count == 0
        assert verdict.increase_fraction == 0.0

    def test_summary_consistency(self):
        records = random_run(seed=7)
        verdict = summarize_run(records, tau_for_bound=2.25)
        assert verdict.total_iterations == len(records)
        assert verdict.update_count == sum(r.updated for r in records)
        assert verdict.update_rate == verdict.update_count / verdict.total_iterations
        assert verdict.local_violations == 0
        assert verdict.conditional_violations == 0
        assert 0.0 < verdict.global_ratio < 1.0
        assert verdict.erfc_bound == pytest.approx(math.erfc(math.sqrt(2.25 / 2)), rel=1e-15)
        payload = verdict.as_dict()
        assert payload["update_count"] == verdict.update_count
        assert set(payload) == {
            "total_iterations", "update_count", "update_rate", "local_violations",
            "conditional_violations", "global_ratio", "increase_count",
            "increase_fraction", "increases_in_transient", "erfc_bound",
            "wtilde_sq_initial", "wtilde_sq_final",
        }


class TestErfc:
    def test_reference_tau_values(self):
        # tabulated to four figures (the first is truncated, not rounded)
        assert abs(erfc_bound(3.0) - 0.0832) < 1e-4
        assert abs(erfc_bound(4.0) - 0.0455) < 1e-4
        assert abs(erfc_bound(5.0) - 0.0253) < 1e-4

    def test_matches_scipy_across_range(self):
        # up to tau = 1352, argument 26: erfc ~ 6e-296, still a normal double
        taus = np.concatenate([np.geomspace(1e-12, 1.0, 200), np.linspace(1.0, 1352.0, 800)])
        for tau in taus:
            want = float(scipy_erfc(np.sqrt(tau / 2.0)))
            assert erfc_bound(float(tau)) == pytest.approx(want, rel=1e-13, abs=0.0), tau

    def test_bound_in_unit_interval(self):
        for tau in (0.1, 1.0, 5.0, 9.0, 40.0):
            assert 0.0 < erfc_bound(tau) < 1.0

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_rejects_degenerate_tau(self, tau):
        with pytest.raises(ValueError):
            erfc_bound(tau)


class TestTraceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        records = random_run(seed=8, iters=120)
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        back = read_trace_csv(path)
        assert back == Ledger.of(records)
        assert list(back) == records

    def test_dialect(self, tmp_path):
        records = random_run(seed=9, iters=10)
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        raw = path.read_bytes().decode()
        lines = raw.split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert "\r" not in raw
        assert raw.endswith("\n")

    def test_fields_are_integers_and_17_digit_floats(self, tmp_path):
        values = [-0.0, 5e-324, 1e300, 0.1, 1 / 3, -2.5, 1e-7, 12345678901234567.0]
        row = dict(zip(_FLOAT_FIELDS, values * 2))
        path = tmp_path / "trace.csv"
        write_trace_csv([IterationRecord(k=2**62, updated=True, in_transient=False, **row)], path)
        flags = {"k": str(2**62), "updated": "1", "in_transient": "0"}
        want = [flags[c] if c in flags else format(row[c], ".17g") for c in TRACE_COLUMNS]
        assert path.read_text().splitlines()[1] == ",".join(want)

    def test_header_is_the_eleven_ledger_columns(self, tmp_path):
        # the two sides of the local inequality are derived, not written
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=9, iters=10), path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "k,e,e_tilde,n,updated,mu_bar,alpha,gamma_used,wtilde_sq_before,wtilde_sq_after,"
            "in_transient"
        )
        assert {line.count(",") for line in lines} == {10}

    def test_older_format_with_stored_sides_is_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=9, iters=10), path)
        header, *rows = ten_columns(path.read_text().splitlines())
        path.write_text("\n".join([header + ",lhs,rhs"] + [row + ",0,0" for row in rows]) + "\n")
        message = (
            f"{path}:1: trace has the lhs,rhs columns of an older format; re-run its config.json"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace_csv(path)

    def test_older_format_without_in_transient_is_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=9, iters=10), path)
        path.write_text("\n".join(ten_columns(path.read_text().splitlines())) + "\n")
        message = (
            f"{path}:1: trace has no in_transient column of an older format;"
            " re-run its config.json"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace_csv(path)

    def test_blocks_write_each_row_as_alone(self, tmp_path):
        # one format call per block of ROW_BLOCK rows: the bytes of one row at a time
        config = dataclasses.replace(harness.preset("fig1a"), iterations=2 * ROW_BLOCK + 3)
        (ledger,) = harness.run_trial(config, 1).values()
        path, want = tmp_path / "trace.csv", tmp_path / "rows.csv"
        write_trace_csv(ledger, path)
        write_rows_as_text(ledger, want)
        assert path.read_bytes() == want.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_verify_trace_clean(self, tmp_path):
        records = random_run(seed=10, iters=200)
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        assert verify_trace(read_trace_csv(path)) == []

    def test_verify_trace_flags_corruption(self, tmp_path):
        records = random_run(seed=11, iters=200)
        path = tmp_path / "trace.csv"
        # raise one update's deviation energy after, and with it its lhs,
        # above its rhs
        target = next(i for i, r in enumerate(records) if r.updated)
        _, rhs = local_sides(records)
        corrupted = list(records)
        corrupted[target] = dataclasses.replace(
            records[target], wtilde_sq_after=rhs[target] * 2.0 + 1.0
        )
        write_trace_csv(corrupted, path)
        problems = verify_trace(read_trace_csv(path))
        assert problems
        assert any(f"k={records[target].k}" in p for p in problems)

    def test_non_finite_field_rejected_on_read(self, tmp_path):
        records = random_run(seed=12, iters=50)
        path = tmp_path / "trace.csv"
        rows = [dataclasses.replace(records[7], e=math.inf)] + records[8:]
        with pytest.raises(NumericInputError, match=r"^row k=7: columns not finite: e$"):
            write_trace_csv(rows, path)
        write_rows_as_text(rows, path)
        with pytest.raises(ValueError, match=r"trace\.csv:2: column e is not finite"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        ("column", "flag"),
        [pytest.param("updated", flag, id=flag) for flag in ("2", "1.0", "-0")]
        + [pytest.param("in_transient", "2", id="in_transient-2")],
    )
    def test_update_flag_must_be_zero_or_one(self, tmp_path, column, flag):
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=12, iters=5), path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[TRACE_COLUMNS.index(column)] = flag
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"trace\.csv:4: column {column} must be 0 or 1"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        ("column", "field"),
        [
            ("k", "0_2"),
            ("k", " 2"),
            ("k", "2 "),
            ("k", "+2"),
            ("k", "\uff12"),
            ("k", "0" * 20 + "2"),
            ("k", "007"),
            ("k", "-0"),
            ("e", "1_0.5"),
            ("e", " 0.5"),
            ("e", "0.5\u00a0"),
            ("e", "+0.5"),
            ("e", ".5"),
            ("e", "5."),
            ("e", "1E-05"),
            ("e", "1e5"),
            ("e", "0.50"),
            ("e", "00.5"),
            ("e", "1e+5"),
            ("e", "1.0"),
            ("wtilde_sq_after", "\u0663"),
        ],
    )
    def test_field_must_be_as_written(self, tmp_path, column, field):
        # int() and float() take these; the writer never emits them
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=12, iters=5), path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[TRACE_COLUMNS.index(column)] = field
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"trace\.csv:4: column {column} is malformed"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "ending", ["\r\n", "\r", "\x0b\n", "\x0c\n", "\x1c\n", "\x85\n", "\u2028\n"]
    )
    def test_only_newline_ends_a_line(self, tmp_path, ending):
        # str.splitlines breaks a line at each of these; the writer ends lines
        # with "\n" alone, so each is a fault of the line it ends
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=12, iters=5), path)
        lines = path.read_text().split("\n")[:-1]
        text = "".join(line + (ending if i == 3 else "\n") for i, line in enumerate(lines))
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=r"trace\.csv:4: "):
            read_trace_csv(path)

    def test_last_line_must_end_in_a_newline(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=12, iters=5), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=r"trace\.csv:6: line does not end in a newline"):
            read_trace_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6)
    )
    def test_every_finite_float_reads_back(self, values):
        # the reader's syntax takes every form of a finite double the writer
        # emits, on the block parser and on the row loop that names faults
        row = dict(zip(_FLOAT_FIELDS, values + [-0.0, 5e-324]))
        records = [
            IterationRecord(k=7, updated=True, in_transient=False, **row),
            IterationRecord(k=2**63 - 1, updated=False, in_transient=True, **row),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_csv(records, path)
            assert list(read_trace_csv(path)) == records
            # an unterminated last line sends the file through the row loop,
            # which must pass both rows to reach it
            with open(path, "a") as fh:
                fh.write("0")
            with pytest.raises(ValueError, match=r"trace\.csv:4: line does not end in a newline"):
                read_trace_csv(path)

    def test_verify_trace_flags_energy_discontinuity(self):
        # one ulp more deviation energy on a non-update row: its own arithmetic
        # and local check still hold, only the chain from the row before breaks
        records = random_run(seed=15, iters=100)
        target = next(i for i, r in enumerate(records) if i > 0 and not r.updated)
        bumped = math.nextafter(records[target].wtilde_sq_before, math.inf)
        corrupted = list(records)
        corrupted[target] = dataclasses.replace(records[target], wtilde_sq_before=bumped)
        problems = verify_trace(corrupted)
        assert len(problems) == 1
        assert problems[0].startswith(f"row k={target}: wtilde_sq_before=")

    def test_verify_trace_flags_nan_on_non_update_row(self):
        # in memory, past the reader: the rows cannot become a Ledger, so no
        # row check or prefix ratio is computed on the NaN
        records = random_run(seed=13, iters=200)
        first = next(i for i, r in enumerate(records) if r.updated)
        target = next(i for i, r in enumerate(records) if i > first and not r.updated)
        corrupted = list(records)
        corrupted[target] = dataclasses.replace(records[target], n=math.nan)
        with pytest.raises(NumericInputError, match=rf"^row k={target}: columns not finite: n$"):
            verify_trace(corrupted)

    @pytest.mark.parametrize(
        ("row", "column", "value"),
        [
            ("no_update", "mu_bar", math.nan),
            ("no_update", "alpha", math.nan),
            ("update", "gamma_used", math.nan),
            ("no_update", "gamma_used", math.nan),
            ("improving_update", "alpha", math.inf),
        ],
    )
    def test_verify_trace_refuses_a_field_the_reader_refuses(self, row, column, value, tmp_path):
        # each of these would leave every row check and prefix ratio passing:
        # a non-update's weight is zero whatever its alpha and mu_bar,
        # gamma_used enters no check, and an infinite alpha weighs an update by
        # zero.  So the Ledger refuses them, as the reader refuses them on disk
        (ledger,) = harness.run_trial(harness.preset("fig1a"), 1).values()
        records = list(ledger)
        pick = {
            "no_update": lambda r: not r.updated,
            "update": lambda r: r.updated,
            "improving_update": lambda r: r.updated and r.wtilde_sq_after < r.wtilde_sq_before,
        }[row]
        i = next(i for i, r in enumerate(records) if i > 0 and pick(r))
        records[i] = dataclasses.replace(records[i], **{column: value})
        with pytest.raises(NumericInputError, match=rf"^row k={i}: columns not finite: {column}$"):
            verify_trace(records)
        path = tmp_path / "trace.csv"
        write_rows_as_text(records, path)
        with pytest.raises(ValueError, match=rf"\.csv:{i + 2}: column {column} is not finite$"):
            read_trace_csv(path)

    def test_verify_trace_messages_for_one_row_with_several_faults(self):
        # the last row, so that its k gap is the only one: all of its
        # messages, in the order the checks run
        records = random_run(seed=16, iters=50)
        last = records[-1]
        bumped = math.nextafter(last.wtilde_sq_before, math.inf)
        raised = bumped + 1e-3
        corrupted = records[:-1] + [
            dataclasses.replace(
                last, k=len(records), wtilde_sq_before=bumped, wtilde_sq_after=raised
            )
        ]
        k = len(records)
        # without an update the two sides are the deviation energies
        assert not last.updated
        assert verify_trace(corrupted) == [
            f"row k={k}: expected k={k - 1}, rows must run k = 0..K-1",
            f"row k={k}: wtilde_sq_before={bumped!r} is not the previous row's"
            f" wtilde_sq_after={records[-2].wtilde_sq_after!r}",
            f"row k={k}: local energy inequality violated (lhs={raised!r}, rhs={bumped!r})",
        ]

    def test_update_without_positive_alpha_skips_the_row_arithmetic(self):
        # the row's NaN sides (an infinite weight times a zero e_tilde), broken
        # split and local inequality report nothing
        records = random_run(seed=16, iters=50)
        i = next(i for i, r in enumerate(records) if r.updated)
        row = records[i]
        records[i] = dataclasses.replace(row, alpha=0.0, e_tilde=0.0)
        problems = verify_trace(records)
        assert [p for p in problems if p.startswith("row")] == [
            f"row k={row.k}: update with alpha=0.0, not positive"
        ]

    def test_overflowed_row_arithmetic_matches_nothing(self):
        # (mu/alpha) e~^2 overflows to inf, and so does the derived lhs
        row = IterationRecord(
            k=0, e=1e200, e_tilde=1e200, n=0.0, updated=True, mu_bar=0.5, alpha=1.0,
            gamma_used=0.0, wtilde_sq_before=1.0, wtilde_sq_after=0.5, in_transient=True,
        )
        assert verify_trace([row]) == [
            "row k=0: local energy inequality violated (lhs=inf, rhs=1.0)",
            "prefix K=1: global ratio inf not below one",
        ]

    def test_empty_ledger_is_a_violation(self):
        assert verify_trace([]) == ["trace has no rows"]
        assert verify_trace(Ledger.of([])) == ["trace has no rows"]

    def test_row_number_beyond_64_bits_rejected_on_read(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=12, iters=5), path)
        lines = path.read_text().splitlines()
        lines[3] = str(2**63) + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"trace\.csv:4: column k is out of range"):
            read_trace_csv(path)


@pytest.fixture(scope="module")
def preset_trace(tmp_path_factory):
    """fig1a's 2,500-row trace at seed 1, as the lines of its file."""
    (ledger,) = harness.run_trial(harness.preset("fig1a"), 1).values()
    path = tmp_path_factory.mktemp("preset") / "trace.csv"
    write_trace_csv(ledger, path)
    return path.read_text().split("\n")


class TestTraceCsvPastTheFirstBlock:
    FAULT_LINE = 1800

    @pytest.mark.parametrize(
        ("column", "field", "message"),
        [
            ("e", "0.50", "column e is malformed"),
            ("n", "nan", "column n is not finite"),
            ("k", str(2**63), "column k is out of range"),
            # a stray "\r" after a float field
            ("wtilde_sq_after", "{}\r", "column wtilde_sq_after is malformed"),
            # a CRLF ending leaves "\r" at the end of the last field, a flag
            ("in_transient", "{}\r", "column in_transient must be 0 or 1"),
        ],
    )
    def test_fault_names_its_line(self, preset_trace, tmp_path, column, field, message):
        lines = list(preset_trace)
        i = self.FAULT_LINE - 1
        fields = lines[i].split(",")
        j = TRACE_COLUMNS.index(column)
        fields[j] = field.format(fields[j])
        lines[i] = ",".join(fields)
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1800: {message}$"):
            read_trace_csv(path)

    def test_clean_trace_reads_within_3_mib(self, preset_trace, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(preset_trace))
        tracemalloc.start()
        try:
            ledger = read_trace_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ledger) == 2500
        assert peak < 3 * 2**20


PRESET_ITERATIONS = 1000


@pytest.fixture(scope="module")
def preset_runs():
    """Each preset's engine ledgers and its streaming-oracle rows, one trial."""
    runs = {}
    for name in harness.builtin_presets():
        config = dataclasses.replace(harness.preset(name), iterations=PRESET_ITERATIONS)
        x, _, n, w_star, d = harness._realization(config, 1)
        engine = harness.run_trial(config, 1)
        for algorithm in config.algorithms:
            state = FilterState(config.volterra)
            oracle = []
            for k in range(PRESET_ITERATIONS):
                push_sample(state, x[k])
                w_before = state.w
                if algorithm.kind == "ds_vnlms":
                    outcome = ds_vnlms_step(state, d[k], algorithm.policy)
                else:
                    outcome = vnlms_step(state, d[k], algorithm.mu)
                oracle.append(record_iteration(w_star, w_before, state.w, outcome, n[k]))
            runs[f"{name}/{algorithm.label}"] = (engine[algorithm.label], oracle)
    return runs


def local_reference(r):
    """One row's two local sides, and whether the local inequality holds on
    them: strictly with slack on an update, to ``EQUALITY_RTOL`` otherwise,
    and never on an overflowed rhs.  A zero alpha weighs by inf or NaN."""
    with np.errstate(all="ignore"):
        weight = np.float64(r.mu_bar) / r.alpha if r.updated else 0.0
        lhs = float(r.wtilde_sq_after + weight * (r.e_tilde * r.e_tilde))
        rhs = float(r.wtilde_sq_before + weight * (r.n * r.n))
    if r.updated:
        return lhs, rhs, math.isfinite(rhs) and lhs < rhs + LOCAL_SLACK * max(1.0, rhs)
    tolerance = EQUALITY_RTOL * max(1.0, abs(rhs))
    return lhs, rhs, math.isfinite(rhs) and abs(lhs - rhs) <= tolerance


def verify_rows_reference(rows):
    """``verify_trace`` as a loop over rows, one rule at a time: the
    reference its column expressions must reproduce message for message, on
    rows whose fields are all finite."""
    problems = []
    expected_k = 0
    previous = None
    for r in rows:
        if r.k != expected_k:
            problems.append(f"row k={r.k}: expected k={expected_k}, rows must run k = 0..K-1")
        expected_k = r.k + 1
        if previous is not None and not r.wtilde_sq_before == previous.wtilde_sq_after:
            problems.append(
                f"row k={r.k}: wtilde_sq_before={r.wtilde_sq_before!r} is not the"
                f" previous row's wtilde_sq_after={previous.wtilde_sq_after!r}"
            )
        previous = r
        if r.updated and not r.alpha > 0.0:
            problems.append(f"row k={r.k}: update with alpha={r.alpha!r}, not positive")
        else:
            split = r.e_tilde + r.n
            if not abs(r.e - split) <= EQUALITY_RTOL * max(1.0, abs(r.e), abs(split)):
                problems.append(f"row k={r.k}: error decomposition e != e_tilde + n")
            lhs, rhs, local_ok = local_reference(r)
            if not local_ok:
                problems.append(
                    f"row k={r.k}: local energy inequality violated (lhs={lhs!r}, rhs={rhs!r})"
                )
        # an update whose noiseless error dominates its noise (or is NaN) must
        # lower the deviation energy, whatever its alpha
        dominated = not r.e_tilde * r.e_tilde < r.n * r.n
        if r.updated and dominated and not r.wtilde_sq_after < r.wtilde_sq_before:
            problems.append(
                f"row k={r.k}: conditional improvement violated (e_tilde^2 >= n^2,"
                f" wtilde_sq_after={r.wtilde_sq_after!r} not below"
                f" wtilde_sq_before={r.wtilde_sq_before!r})"
            )
    error = disturbance = np.float64(0.0)
    updates = 0
    with np.errstate(all="ignore"):
        for i, r in enumerate(rows):
            weight = np.float64(r.mu_bar) / r.alpha if r.updated else 0.0
            error += weight * (r.e_tilde * r.e_tilde)
            disturbance += weight * (r.n * r.n)
            updates += r.updated
            den = rows[0].wtilde_sq_before + disturbance
            ratio = math.nan if den == 0.0 else float((r.wtilde_sq_after + error) / den)
            if updates and not ratio < 1.0 + LOCAL_SLACK:
                problems.append(f"prefix K={i + 1}: global ratio {ratio!r} not below one")
    return problems


_FLOAT_FIELDS = tuple(c for c in TRACE_COLUMNS if c not in _DTYPES)


def tampered(rows, rng):
    """A copy of ``rows`` with one or two random faults: a NaN or infinite
    field, a zero alpha, a deleted row, a flipped update flag or a scaled field."""
    rows = list(rows)
    for _ in range(rng.choice((1, 2))):
        i = rng.randrange(len(rows))
        fault = rng.choice(("nan", "inf", "zero_alpha", "delete", "flip", "scale"))
        if fault == "delete":
            del rows[i]
        elif fault in ("nan", "inf"):
            value = math.nan if fault == "nan" else rng.choice((math.inf, -math.inf))
            rows[i] = dataclasses.replace(rows[i], **{rng.choice(_FLOAT_FIELDS): value})
        elif fault == "zero_alpha":
            rows[i] = dataclasses.replace(rows[i], alpha=0.0)
        elif fault == "flip":
            rows[i] = dataclasses.replace(rows[i], updated=not rows[i].updated)
        else:
            field = rng.choice(_FLOAT_FIELDS)
            rows[i] = dataclasses.replace(rows[i], **{field: getattr(rows[i], field) * 1.5 + 1e-3})
    return rows


class TestLedger:
    def test_rows_columns_and_slices(self, preset_runs):
        ledger, _ = preset_runs["fig5/ds_time_varying"]
        rows = list(ledger)
        assert len(rows) == len(ledger) == PRESET_ITERATIONS
        assert Ledger.of(rows) == ledger
        assert ledger[-1] == rows[-1] and ledger[3] == rows[3]
        assert type(rows[0].updated) is bool and type(rows[0].k) is int
        assert list(ledger[10:20]) == rows[10:20]
        with pytest.raises(IndexError):
            ledger[PRESET_ITERATIONS]
        assert ledger != dataclasses.replace(ledger, wtilde_sq_after=ledger.wtilde_sq_after + 1.0)
        assert ledger != rows and ledger.__eq__(rows) is NotImplemented

    def test_every_consumer_refuses_a_field_that_is_not_finite(self, tmp_path):
        # fig1a's update k=3 with its gamma_used, which enters no check, made
        # NaN: each consumer refuses it as the Ledger it builds does
        (ledger,) = harness.run_trial(harness.preset("fig1a"), 1).values()
        rows = list(ledger)
        assert rows[3].updated
        rows[3] = dataclasses.replace(rows[3], gamma_used=math.nan)
        gamma_used = ledger.gamma_used.copy()
        gamma_used[3] = math.nan
        path, refusal = tmp_path / "trace.csv", "^row k=3: columns not finite: gamma_used$"
        for consume in (
            Ledger.of, summarize_run, prefix_ratios, verify_trace,
            lambda rows: write_trace_csv(rows, path),
            lambda _: dataclasses.replace(ledger, gamma_used=gamma_used),
        ):
            with pytest.raises(NumericInputError, match=refusal):
                consume(rows)
        assert not path.exists()

    def test_engine_rows_and_oracle_give_equal_verdicts(self, preset_runs):
        for where, (ledger, oracle) in preset_runs.items():
            verdict = summarize_run(ledger, tau_for_bound=5.0)
            assert summarize_run(list(ledger), tau_for_bound=5.0) == verdict, where
            want = summarize_run(oracle, tau_for_bound=5.0).as_dict()
            for key, value in verdict.as_dict().items():
                if isinstance(value, float):
                    assert value == pytest.approx(want[key], rel=1e-12, abs=0.0), (where, key)
                else:
                    assert value == want[key], (where, key)
            assert verify_trace(ledger) == verify_trace(oracle) == [], where

    def test_verify_trace_matches_the_row_loop_on_tampered_ledgers(self, preset_runs, tmp_path):
        # and the trace of each copy agrees on disk: a copy with a field that
        # is not finite is refused in memory, naming the first such row and
        # its columns, and on disk, naming its line and first such column;
        # every other copy re-reads with the same verdict
        rng = random.Random(2)
        path = tmp_path / "trace.csv"
        faults = refused = 0
        for where, (ledger, _) in preset_runs.items():
            rows = list(ledger)
            for copy in [rows] + [tampered(rows, rng) for _ in range(8)]:
                bad = [(i, c) for i, r in enumerate(copy) for c in TRACE_COLUMNS
                       if not math.isfinite(getattr(r, c))]
                if bad:
                    (i, column), refused = bad[0], refused + 1
                    columns = ", ".join(c for j, c in bad if j == i)
                    refusal = rf"^row k={copy[i].k}: columns not finite: {columns}$"
                    with pytest.raises(NumericInputError, match=refusal):
                        verify_trace(copy)
                    write_rows_as_text(copy, path)
                    on_read = rf":{i + 2}: column {column} is not finite$"
                    with pytest.raises(ValueError, match=on_read):
                        read_trace_csv(path)
                    continue
                want = verify_rows_reference(copy)
                assert verify_trace(copy) == want, where
                assert verify_trace(Ledger.of(copy)) == want, where
                faults += bool(want)
                write_trace_csv(copy, path)
                assert verify_trace(read_trace_csv(path)) == want, where
        assert faults > 0 and refused > 0

    def test_summary_counts_the_rows_verify_trace_reports(self, preset_runs):
        # the local count also holds the failing updates without a positive
        # alpha, whose row arithmetic verify_trace does not check
        rng = random.Random(3)
        seen = {"local": 0, "conditional": 0}
        for where, (ledger, _) in preset_runs.items():
            rows = list(ledger)
            for copy in [rows] + [tampered(rows, rng) for _ in range(8)]:
                try:
                    problems = verify_trace(copy)
                except NumericInputError as exc:
                    # a field that is not finite: the summary refuses the copy alike
                    with pytest.raises(NumericInputError, match=f"^{re.escape(str(exc))}$"):
                        summarize_run(copy)
                    continue
                reported = {
                    kind: sum(f": {kind}" in p for p in problems)
                    for kind in ("local energy inequality", "conditional improvement")
                }
                unchecked = sum(
                    r.updated and not r.alpha > 0.0 and not local_reference(r)[2] for r in copy
                )
                verdict = summarize_run(copy)
                assert verdict.local_violations == reported["local energy inequality"] + unchecked
                assert verdict.conditional_violations == reported["conditional improvement"]
                seen["local"] += verdict.local_violations
                seen["conditional"] += verdict.conditional_violations
        assert seen["local"] > 0 and seen["conditional"] > 0, seen


_TRACE_JUNK = st.one_of(
    st.sampled_from(
        ["1e999", "-1e999", "1e308", "1e-400", "", " ", "nan", "-inf", "1_0", "abc", "9" * 5000]
    ),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=12),
)


@st.composite
def _one_trace_mutation(draw, lines):
    """The bytes of ``lines`` with one field replaced, inserted or dropped, or
    one line replaced (by text or by arbitrary bytes), deleted or duplicated."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(",")
    op = draw(
        st.sampled_from(["replace", "insert", "drop", "line", "bytes", "delete", "duplicate"])
    )
    if op == "bytes":
        raw = [line.encode() for line in lines]
        raw[i] = draw(st.binary(max_size=40))
        return b"\n".join(raw) + b"\n"
    if op == "replace":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_TRACE_JUNK)
    elif op == "insert":
        fields.insert(draw(st.integers(0, len(fields))), draw(_TRACE_JUNK))
    elif op == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    lines[i] = ",".join(fields)
    if op == "line":
        lines[i] = draw(st.text(max_size=60))
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    return ("\n".join(lines) + "\n").encode()


class TestTraceCsvFuzz:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("base") / "trace.csv"
        write_trace_csv(random_run(seed=14, iters=40), path)
        return path.read_text().splitlines(), read_trace_csv(path)

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_records_or_value_error_naming_the_line(self, data, base, tmp_path):
        lines, original = base
        path = tmp_path / "trace.csv"
        path.write_bytes(data.draw(_one_trace_mutation(lines)))
        try:
            records = read_trace_csv(path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
            return
        problems = verify_trace(records)
        assert all(isinstance(p, str) for p in problems)
        if records == original:
            assert problems == []
        # what the reader accepts is a Ledger, and a re-read keeps its verdict
        write_trace_csv(records, path)
        assert verify_trace(read_trace_csv(path)) == problems
