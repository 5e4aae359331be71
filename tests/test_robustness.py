"""Energy ledger and stability certificates, anchored on hand-computed traces."""

import dataclasses
import math
import random
import re

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
from dsvolterra.robustness import (
    EQUALITY_RTOL,
    LOCAL_SLACK,
    TRACE_COLUMNS,
    IterationRecord,
    Ledger,
)


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


def one_row(**fields):
    """The verdict of a one-row ledger."""
    return summarize_run(Ledger.of([IterationRecord(**fields)]))


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
        assert record.lhs == pytest.approx(0.75, rel=1e-12)
        assert record.rhs == pytest.approx(1.0, rel=1e-12)
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
        for record, expected in zip(records, self.EXPECTED):
            updated, e, e_tilde, mu_bar, alpha, before, after, lhs, rhs = expected
            assert record.updated == updated
            assert record.e == pytest.approx(e, rel=1e-12)
            assert record.e_tilde == pytest.approx(e_tilde, rel=1e-12)
            assert record.mu_bar == pytest.approx(mu_bar, rel=1e-12, abs=0)
            assert record.alpha == pytest.approx(alpha, rel=1e-12)
            assert record.wtilde_sq_before == pytest.approx(before, rel=1e-12)
            assert record.wtilde_sq_after == pytest.approx(after, rel=1e-12)
            assert record.lhs == pytest.approx(lhs, rel=1e-12)
            assert record.rhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_noise_margin_positive_on_updates(self, records):
        for record in records:
            if record.updated:
                assert record.rhs - record.lhs > 0.0

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
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.0, lhs=1.0, rhs=1.0,
        )
        assert verdict.local_violations == 0

    def test_synthetic_violation_detected(self):
        # negative control: the checker must flag lhs > rhs on an update
        verdict = one_row(
            k=0, e=1.0, e_tilde=1.0, n=0.0, updated=True, mu_bar=0.5, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.5, lhs=2.0, rhs=1.0,
        )
        assert verdict.local_violations == 1

    def test_non_updated_drift_detected(self):
        verdict = one_row(
            k=0, e=0.1, e_tilde=0.1, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.01, lhs=1.01, rhs=1.0,
        )
        assert verdict.local_violations == 1


class TestConditionalImprovement:
    def test_vacuous_when_not_updated(self):
        verdict = one_row(
            k=0, e=0.1, e_tilde=2.0, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.0, lhs=1.0, rhs=1.0,
        )
        assert verdict.conditional_violations == 0

    def test_vacuous_when_noise_dominates(self):
        verdict = one_row(
            k=0, e=1.0, e_tilde=0.1, n=0.9, updated=True, mu_bar=0.5, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.2, lhs=1.2, rhs=1.4,
        )
        assert verdict.conditional_violations == 0

    def test_violation_detected(self):
        verdict = one_row(
            k=0, e=1.0, e_tilde=1.0, n=0.0, updated=True, mu_bar=0.5, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=1.0, wtilde_sq_after=1.0, lhs=1.5, rhs=1.0,
        )
        assert verdict.conditional_violations == 1


class TestGlobalRatio:
    def test_vacuous_run_sits_on_boundary(self):
        # no updates ever: ratio collapses to ||w~(0)||^2 / ||w~(0)||^2 = 1
        verdict = one_row(
            k=0, e=0.1, e_tilde=0.1, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=2.0, wtilde_sq_after=2.0, lhs=2.0, rhs=2.0,
        )
        assert verdict.global_ratio == 1.0

    def test_zero_denominator_is_undefined(self):
        verdict = one_row(
            k=0, e=0.0, e_tilde=0.0, n=0.0, updated=False, mu_bar=0.0, alpha=1.0,
            gamma_used=0.5, wtilde_sq_before=0.0, wtilde_sq_after=0.0, lhs=0.0, rhs=0.0,
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
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert b.in_transient is None
            for field in TRACE_COLUMNS:
                assert getattr(a, field) == getattr(b, field), field

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
        row = dict(zip(TRACE_COLUMNS[1:4] + TRACE_COLUMNS[5:], values * 2))
        path = tmp_path / "trace.csv"
        write_trace_csv([IterationRecord(k=2**62, updated=True, **row)], path)
        want = [str(2**62)] + [format(row[c], ".17g") if c in row else "1" for c in TRACE_COLUMNS[1:]]
        assert path.read_text().splitlines()[1] == ",".join(want)

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
        # raise one lhs above its rhs
        target = next(i for i, r in enumerate(records) if r.updated)
        corrupted = list(records)
        corrupted[target] = dataclasses.replace(
            records[target], lhs=records[target].rhs * 2.0 + 1.0
        )
        write_trace_csv(corrupted, path)
        problems = verify_trace(read_trace_csv(path))
        assert problems
        assert any(f"k={records[target].k}" in p for p in problems)

    def test_non_finite_field_rejected_on_read(self, tmp_path):
        records = random_run(seed=12, iters=50)
        path = tmp_path / "trace.csv"
        write_trace_csv([dataclasses.replace(records[7], e=math.inf)] + records[8:], path)
        with pytest.raises(ValueError, match=r"trace\.csv:2: column e is not finite"):
            read_trace_csv(path)

    @pytest.mark.parametrize("flag", ["2", "1.0", "-0"])
    def test_update_flag_must_be_zero_or_one(self, tmp_path, flag):
        path = tmp_path / "trace.csv"
        write_trace_csv(random_run(seed=12, iters=5), path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[TRACE_COLUMNS.index("updated")] = flag
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"trace\.csv:4: column updated must be 0 or 1"):
            read_trace_csv(path)

    def test_verify_trace_flags_energy_discontinuity(self):
        # one ulp more deviation energy on a non-update row: its own arithmetic
        # and local check still hold, only the chain from the row before breaks
        records = random_run(seed=15, iters=100)
        target = next(i for i, r in enumerate(records) if i > 0 and not r.updated)
        bumped = math.nextafter(records[target].wtilde_sq_before, math.inf)
        corrupted = list(records)
        corrupted[target] = dataclasses.replace(
            records[target], wtilde_sq_before=bumped, rhs=bumped
        )
        problems = verify_trace(corrupted)
        assert len(problems) == 1
        assert problems[0].startswith(f"row k={target}: wtilde_sq_before=")

    def test_verify_trace_flags_nan_on_non_update_row(self):
        # in memory, past the reader: the NaN row and every later prefix fail
        records = random_run(seed=13, iters=200)
        first = next(i for i, r in enumerate(records) if r.updated)
        target = next(i for i, r in enumerate(records) if i > first and not r.updated)
        corrupted = list(records)
        corrupted[target] = dataclasses.replace(records[target], n=math.nan)
        problems = verify_trace(corrupted)
        assert any(f"k={records[target].k}:" in p for p in problems)
        assert problems[-1] == f"prefix K={len(records)}: global ratio nan not below one"

    def test_verify_trace_messages_for_one_row_with_several_faults(self):
        # the last row, so that its k gap is the only one: all of its
        # messages, in the order the checks run
        records = random_run(seed=16, iters=50)
        last = records[-1]
        bumped = math.nextafter(last.wtilde_sq_before, math.inf)
        lhs = last.rhs * 2.0 + 1.0
        corrupted = records[:-1] + [
            dataclasses.replace(last, k=len(records), wtilde_sq_before=bumped, lhs=lhs)
        ]
        k = len(records)
        assert verify_trace(corrupted) == [
            f"row k={k}: expected k={k - 1}, rows must run k = 0..K-1",
            f"row k={k}: wtilde_sq_before={bumped!r} is not the previous row's"
            f" wtilde_sq_after={records[-2].wtilde_sq_after!r}",
            f"row k={k}: stored lhs/rhs do not match the row fields",
            f"row k={k}: local energy inequality violated (lhs={lhs!r}, rhs={last.rhs!r})",
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


def verify_rows_reference(rows):
    """``verify_trace`` as a loop over rows, one rule at a time: the
    reference its column expressions must reproduce message for message."""
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
            continue
        weight = r.mu_bar / r.alpha if r.updated else 0.0
        lhs = r.wtilde_sq_after + weight * (r.e_tilde * r.e_tilde)
        rhs = r.wtilde_sq_before + weight * (r.n * r.n)
        if not (
            abs(r.lhs - lhs) <= EQUALITY_RTOL * max(1.0, abs(lhs))
            and abs(r.rhs - rhs) <= EQUALITY_RTOL * max(1.0, abs(rhs))
        ):
            problems.append(f"row k={r.k}: stored lhs/rhs do not match the row fields")
        split = r.e_tilde + r.n
        if not abs(r.e - split) <= EQUALITY_RTOL * max(1.0, abs(r.e), abs(split)):
            problems.append(f"row k={r.k}: error decomposition e != e_tilde + n")
        if r.updated:
            local_ok = r.lhs < r.rhs + LOCAL_SLACK * max(1.0, r.rhs)
        else:
            local_ok = abs(r.lhs - r.rhs) <= EQUALITY_RTOL * max(1.0, abs(r.rhs))
        if not local_ok:
            problems.append(
                f"row k={r.k}: local energy inequality violated (lhs={r.lhs!r}, rhs={r.rhs!r})"
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


_FLOAT_FIELDS = tuple(c for c in TRACE_COLUMNS if c not in ("k", "updated"))


def tampered(rows, rng):
    """A copy of ``rows`` with one or two random faults: a NaN field, a zero
    alpha, a deleted row, a flipped update flag or a scaled field."""
    rows = list(rows)
    for _ in range(rng.choice((1, 2))):
        i = rng.randrange(len(rows))
        fault = rng.choice(("nan", "zero_alpha", "delete", "flip", "scale"))
        if fault == "delete":
            del rows[i]
        elif fault == "nan":
            rows[i] = dataclasses.replace(rows[i], **{rng.choice(_FLOAT_FIELDS): math.nan})
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
        assert ledger != dataclasses.replace(ledger, lhs=ledger.lhs + 1.0)

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

    def test_verify_trace_matches_the_row_loop_on_tampered_ledgers(self, preset_runs):
        rng = random.Random(2)
        faults = 0
        for where, (ledger, _) in preset_runs.items():
            rows = list(ledger)
            for copy in [rows] + [tampered(rows, rng) for _ in range(8)]:
                want = verify_rows_reference(copy)
                assert verify_trace(copy) == want, where
                assert verify_trace(Ledger.of(copy)) == want, where
                faults += bool(want)
        assert faults > 0


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
