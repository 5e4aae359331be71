"""Acceptance gate: the stability certificates, statistical bands and oracle
equivalences the library must exhibit on the built-in presets.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  All experiment runs are deterministic: 10 fixed seeds per preset,
2500 iterations each.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import channel_polynomial_oracle, enumerate_terms_oracle, expand_oracle
from dsvolterra import (
    FilterState,
    ThresholdPolicy,
    VolterraConfig,
    ds_vnlms_step,
    erfc_bound,
    expand,
    generate_input,
    generate_noise,
    prefix_ratios,
    push_sample,
    record_iteration,
    summarize_run,
    total_dimension,
)
from dsvolterra import harness
from dsvolterra.robustness import Ledger, _row_table

SEEDS = tuple(range(1, 11))

CERTIFICATE_PRESETS = ("fig1a", "fig1b", "fig2a", "fig2b")
BOUNDED_PRESETS = ("fig5-blue", "fig6-blue")
COMPARISON_PRESETS = ("fig5", "fig6")


def _ten_seed(name):
    return dataclasses.replace(harness.preset(name), trials=len(SEEDS), seeds=SEEDS)


@pytest.fixture(scope="session")
def certificate_runs():
    """The four fixed-threshold single-variant presets, 10 seeds each."""
    return {name: harness.compare_algorithms(_ten_seed(name)) for name in CERTIFICATE_PRESETS}


@pytest.fixture(scope="session")
def bounded_runs():
    """Bounded-noise presets with threshold 2C, 10 seeds each."""
    return {name: harness.compare_algorithms(_ten_seed(name)) for name in BOUNDED_PRESETS}


@pytest.fixture(scope="session")
def comparison_runs():
    """Five-variant comparisons on shared realizations, 10 seeds each."""
    return {name: harness.compare_algorithms(_ten_seed(name)) for name in COMPARISON_PRESETS}


def _all_verdicts(result):
    for trial in result["trials"]:
        for label in result["labels"]:
            yield trial["seed"], label, trial["verdicts"][label]


def test_criterion_01_local_inequality_universal(certificate_runs):
    """Every iteration of every fixed-threshold run satisfies the local energy
    certificate: strict inequality (1e-10 relative slack) on updates, equality
    to 1e-12 otherwise."""
    for name, result in certificate_runs.items():
        for seed, label, verdict in _all_verdicts(result):
            assert verdict.local_violations == 0, (name, seed, label)
            assert verdict.total_iterations == 2500


def test_criterion_02_global_ratio_below_one_at_every_prefix(
    certificate_runs, bounded_runs, comparison_runs
):
    """The error-to-disturbance energy ratio stays below one at every prefix
    that contains at least one update, in every run of every preset."""
    everything = {**certificate_runs, **bounded_runs, **comparison_runs}
    for name, result in everything.items():
        for trial in result["trials"]:
            for label, ledger in trial["records"].items():
                ratios = prefix_ratios(ledger)
                mask = np.cumsum(ledger.updated) >= 1
                assert mask.any(), (name, trial["seed"])
                assert np.all(ratios[mask] < 1.0 + 1e-10), (name, trial["seed"], label)
                assert trial["verdicts"][label].global_ratio < 1.0


def test_criterion_03_bounded_noise_never_degrades(bounded_runs):
    """With uniform noise bounded by C = 0.1 and threshold 2C, the deviation
    energy never increases and ends at or below its initial value."""
    for name, result in bounded_runs.items():
        for seed, label, verdict in _all_verdicts(result):
            assert verdict.increase_count == 0, (name, seed)
            assert verdict.wtilde_sq_final <= verdict.wtilde_sq_initial, (name, seed)
            if verdict.update_count > 0:
                assert verdict.wtilde_sq_final < verdict.wtilde_sq_initial, (name, seed)


def test_criterion_04_tail_bound_on_increase_fraction(certificate_runs):
    """For threshold sqrt(5 sigma_n^2), the empirical fraction of
    deviation-energy increases stays below erfc(sqrt(5/2)) = 0.0253 in at
    least 9 of 10 seeds per input kind, and the tail-bound values for
    tau = 3/4/5 agree with the tabulated four-figure values."""
    assert abs(erfc_bound(3.0) - 0.0832) < 1e-4
    assert abs(erfc_bound(4.0) - 0.0455) < 1e-4
    assert abs(erfc_bound(5.0) - 0.0253) < 1e-4
    bound = erfc_bound(5.0)
    for name in ("fig1a", "fig1b"):
        result = certificate_runs[name]
        within = sum(
            1
            for _, _, verdict in _all_verdicts(result)
            if verdict.increase_fraction < bound
        )
        assert within >= 9, (name, within)


_erfc = np.vectorize(math.erfc)


def _update_probability(e_tilde, gamma, noise):
    """P(|e~ + n| > gamma) for a noise sample n drawn from ``noise``:
    Gaussian with the spec's variance, or uniform on [-bound, bound]."""
    e_tilde = np.asarray(e_tilde, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if noise.kind == "gaussian":
        scale = math.sqrt(2.0 * noise.variance)
        return 0.5 * (_erfc((gamma - e_tilde) / scale) + _erfc((gamma + e_tilde) / scale))
    c = noise.bound
    return np.clip((c - gamma + e_tilde) / (2.0 * c), 0.0, 1.0) + np.clip(
        (c - gamma - e_tilde) / (2.0 * c), 0.0, 1.0
    )


def _update_counts(runs, noise):
    """(tag, U, sum p_k, sqrt(sum p_k (1 - p_k))) for each run, then pooled.

    ``runs`` yields (tag, e_tilde, gamma, U): the noiseless errors and
    thresholds that give p_k, and the update count to hold against them.
    """
    rows = []
    for tag, e_tilde, gamma, updates in runs:
        p = _update_probability(e_tilde, gamma, noise)
        rows.append((tag, updates, float(p.sum()), float((p * (1.0 - p)).sum())))
    rows.append(("pooled", *(sum(row[i] for row in rows) for i in (1, 2, 3))))
    return [(tag, u, mean, math.sqrt(var)) for tag, u, mean, var in rows]


def _ledger_runs(name, result, label):
    for trial in result["trials"]:
        records = trial["records"][label]
        yield (
            f"{name}/{label} seed={trial['seed']}",
            [r.e_tilde for r in records],
            [r.gamma_used for r in records],
            sum(r.updated for r in records),
        )


def _documented_law(config, seed, policy):
    """Noiseless errors and thresholds of the DS-VNLMS law as the README and
    the ``ThresholdPolicy`` docstring state it, run on one trial's realization.

    The regressor and the channel come from the enumeration oracles, and the
    loop shares no code with the library's filter: update when |e| > gamma,
    step weight 1 - gamma/|e|, normalization x'x + delta, null initial
    kernels.  The time-varying threshold is sqrt(tau sigma_n^2) with tau
    transient while the flag window has not filled or holds at least
    ``steady_update_threshold`` updates, and steady otherwise.
    """
    iterations = config.iterations
    x = generate_input(
        dataclasses.replace(config.input, seed=harness._derive_seed(seed, 0)), iterations
    )
    n = generate_noise(
        dataclasses.replace(config.noise, seed=harness._derive_seed(seed, 1)), iterations
    )
    order, memory = config.volterra.order, config.volterra.memory
    padded = np.concatenate([np.zeros(memory), x])
    lagged = [padded[memory - lag : memory - lag + iterations] for lag in range(memory + 1)]
    regressors = np.column_stack(
        [
            np.prod([lagged[lag] for lag in lags], axis=0)
            for _, lags in enumerate_terms_oracle(order, memory)
        ]
    )
    clean = np.array([channel_polynomial_oracle(x, k) for k in range(iterations)])
    w = np.zeros(regressors.shape[1])
    flags = []
    e_tilde = np.empty(iterations)
    gamma = np.empty(iterations)
    for k in range(iterations):
        if policy.mode == "fixed":
            gamma[k] = policy.gamma_fixed
        else:
            window = flags[-policy.window_length :]
            transient = (
                len(window) < policy.window_length
                or sum(window) >= policy.steady_update_threshold
            )
            tau = policy.tau_transient if transient else policy.tau_steady
            gamma[k] = math.sqrt(tau * policy.sigma_n_sq)
        u = regressors[k]
        y_hat = float(w @ u)
        e = clean[k] + n[k] - y_hat
        e_tilde[k] = clean[k] - y_hat
        flags.append(abs(e) > gamma[k])
        if flags[-1]:
            alpha = float(u @ u) + config.volterra.regularization
            w = w + (1.0 - gamma[k] / abs(e)) * e / alpha * u
    return e_tilde, gamma


def _ds_groups(certificate_runs, bounded_runs, comparison_runs):
    """The 60 DS runs: (preset, result, variant label)."""
    groups = [(name, certificate_runs[name], "ds_fixed") for name in ("fig1a", "fig1b")]
    groups += [(name, bounded_runs[name], "ds_known_bound") for name in BOUNDED_PRESETS]
    groups += [(name, comparison_runs[name], "ds_time_varying") for name in COMPARISON_PRESETS]
    return groups


def _count_misses(rows, name):
    return [
        f"{name} {tag}: U={u} predicted={mean:.1f} sd={sd:.2f}"
        for tag, u, mean, sd in rows
        if abs(u - mean) > 4.0 * sd
    ]


def test_criterion_05_update_rate_bands(certificate_runs, bounded_runs, comparison_runs):
    """Update rates lie in the band the update-probability analysis gives for
    the documented law, computed without the library's filter.

    DS-VNLMS updates at iteration k when |e~(k) + n(k)| > gamma(k).  Both
    e~(k) and gamma(k) are functions of the input and of n(0..k-1) only,
    while n(k) is drawn independently of them, so given the past the update
    is a Bernoulli trial with p_k = P(|e~(k) + n(k)| > gamma(k)):

    * Gaussian noise: 1/2 erfc((gamma - e~)/(sigma sqrt 2))
      + 1/2 erfc((gamma + e~)/(sigma sqrt 2));
    * noise uniform on [-C, C]: clip((C - gamma + e~)/2C, 0, 1)
      + clip((C - gamma - e~)/2C, 0, 1).

    e~(k) and gamma(k) come from an independent run of the documented law on
    the trial's realization (``_documented_law``), not from the ledger, so a
    wrong step weight, normalization, threshold or regressor in the library
    moves its update count away from the prediction.  The update count of
    each of the 60 DS runs (fig1a/fig1b fixed, fig5-blue/fig6-blue
    known-bound, fig5/fig6 time-varying; 10 seeds x 2500 iterations), and
    the counts pooled per preset, must lie within 4 standard deviations
    sqrt(sum p_k (1 - p_k)) of sum p_k.

    The fixed bands this criterion used to pin ([2%, 10%] for the
    sqrt(5 sigma_n^2) threshold, [0.5%, 4%] for the 2C and time-varying
    thresholds) are outside what the documented law predicts under this
    protocol: from null kernels the transient dominates 2500 iterations, and
    the AR(1) presets keep the noiseless error large (README, "Update rate").
    """
    checked = 0
    misses = []
    for name, result, label in _ds_groups(certificate_runs, bounded_runs, comparison_runs):
        config = _ten_seed(name)
        policy = next(alg.policy for alg in config.algorithms if alg.label == label)
        runs = []
        for trial in result["trials"]:
            e_tilde, gamma = _documented_law(config, trial["seed"], policy)
            updates = sum(r.updated for r in trial["records"][label])
            runs.append((f"{label} seed={trial['seed']}", e_tilde, gamma, updates))
        rows = _update_counts(runs, config.noise)
        checked += len(rows) - 1
        misses += _count_misses(rows, name)
    assert checked == 60
    assert not misses, "update counts off the documented law's prediction: " + "; ".join(misses)


def test_update_counts_match_ledger_update_probability(
    certificate_runs, bounded_runs, comparison_runs
):
    """The same prediction from each run's own ledger rows (e_tilde,
    gamma_used): the gate and the noise law agree with the analysis on the
    trajectory the library actually took."""
    misses = []
    for name, result, label in _ds_groups(certificate_runs, bounded_runs, comparison_runs):
        rows = _update_counts(_ledger_runs(name, result, label), harness.preset(name).noise)
        misses += _count_misses(rows, name)
    assert not misses, "update counts off their ledger prediction: " + "; ".join(misses)


def test_update_count_check_rejects_misstated_noise():
    """The update-count check rejects fig1a run with noise variance 0.015
    (1.5x nominal) but predicted with the nominal 0.01: every run, and the
    pool, updates more than 4 standard deviations above the prediction."""
    config = _ten_seed("fig1a")
    nominal = config.noise
    louder = dataclasses.replace(
        config, noise=dataclasses.replace(nominal, variance=1.5 * nominal.variance)
    )
    rows = _update_counts(
        _ledger_runs("fig1a", harness.compare_algorithms(louder), "ds_fixed"), nominal
    )
    assert len(rows) == len(SEEDS) + 1
    for tag, u, mean, sd in rows:
        assert u - mean > 4.0 * sd, (tag, u, mean, sd)


def test_criterion_06_baseline_contrast_on_shared_realizations(comparison_runs):
    """On shared realizations the unit-step-size baseline degrades the
    estimate at least five times as often as the data-selective filter."""
    for name, result in comparison_runs.items():
        for trial in result["trials"]:
            vnlms = trial["verdicts"]["vnlms_mu08"].increase_fraction
            ds = trial["verdicts"]["ds_fixed"].increase_fraction
            assert vnlms >= 5.0 * ds, (name, trial["seed"], vnlms, ds)


def test_criterion_07_expansion_matches_enumeration_oracle():
    """The regressor expansion and the dimension formula agree with an
    independent brute-force enumeration of nondecreasing lag tuples."""
    for order in range(1, 5):
        for memory in range(0, 6):
            cfg = VolterraConfig(order, memory)
            assert total_dimension(cfg) == len(enumerate_terms_oracle(order, memory))
    rng = np.random.default_rng(2025)
    for order in range(1, 4):
        for memory in range(0, 5):
            cfg = VolterraConfig(order, memory)
            for _ in range(100):
                dl = rng.normal(size=memory + 1)
                np.testing.assert_allclose(
                    expand(dl, cfg),
                    expand_oracle(dl, order, memory),
                    rtol=1e-12,
                    atol=0.0,
                )


def test_criterion_08_hand_computed_traces_reproduce():
    """The one-step and three-step hand-computed traces reproduce to 1e-12
    relative, including lhs = 0.75 / rhs = 1 on the canonical single update."""
    # canonical single update: w* = e1, unit regressor, d = 1, gamma = 0.5
    config = VolterraConfig(1, 1, regularization=0.0)
    state = FilterState(config)
    push_sample(state, 1.0)
    w_star = np.array([1.0, 0.0])
    w_before = state.w
    out = ds_vnlms_step(state, 1.0, ThresholdPolicy.fixed(0.5))
    rec = record_iteration(w_star, w_before, state.w, out, 0.0)
    assert out.e == pytest.approx(1.0, rel=1e-12)
    assert out.mu_bar == pytest.approx(0.5, rel=1e-12)
    assert out.alpha == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(state.w, [0.5, 0.0], rtol=1e-12)
    assert rec.wtilde_sq_before == pytest.approx(1.0, rel=1e-12)
    assert rec.wtilde_sq_after == pytest.approx(0.25, rel=1e-12)
    table = _row_table(Ledger.of([rec]))
    (lhs,), (rhs,) = table["lhs"], table["rhs"]
    assert lhs == pytest.approx(0.75, rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-12)

    # three steps on the single-tap system: inputs [1, 1, 2], zero noise
    expected = [
        (True, 1.0, 0.5, 1.0, 1.0, 0.25, 0.75, 1.0),
        (False, 0.5, 0.0, 1.0, 0.25, 0.25, 0.25, 0.25),
        (True, 1.0, 0.5, 4.0, 0.25, 0.0625, 0.1875, 0.25),
    ]
    config = VolterraConfig(1, 0, regularization=0.0)
    state = FilterState(config)
    w_star = np.array([1.0])
    records = []
    for sample, d in zip([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]):
        push_sample(state, sample)
        w_before = state.w
        out = ds_vnlms_step(state, d, ThresholdPolicy.fixed(0.5))
        records.append(record_iteration(w_star, w_before, state.w, out, 0.0))
    table = _row_table(Ledger.of(records))
    lhs, rhs = table["lhs"], table["rhs"]
    for i, (updated, e, mu_bar, alpha, before, after, *sides) in enumerate(expected):
        rec = records[i]
        assert rec.updated == updated
        assert rec.e == pytest.approx(e, rel=1e-12)
        assert rec.mu_bar == pytest.approx(mu_bar, rel=1e-12, abs=0.0)
        assert rec.alpha == pytest.approx(alpha, rel=1e-12)
        assert rec.wtilde_sq_before == pytest.approx(before, rel=1e-12)
        assert rec.wtilde_sq_after == pytest.approx(after, rel=1e-12)
        assert [lhs[i], rhs[i]] == pytest.approx(sides, rel=1e-12)
    np.testing.assert_allclose(prefix_ratios(records), [0.75, 0.75, 0.6875], rtol=1e-12)
    assert summarize_run(records).global_ratio == pytest.approx(0.6875, rel=1e-12)
