"""The trial engine against the streaming API it must reproduce.

``harness.run_trial`` expands each realization once and runs the update law
on precomputed rows with a ledger built in blocks.  Here every built-in
preset runs through the engine and, on the same realization, through the
documented streaming loop (``push_sample``, ``ds_vnlms_step`` or
``vnlms_step``, ``record_iteration``), which is the oracle.
"""

import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from dsvolterra import (
    Channel,
    FilterState,
    NoiseSpec,
    NumericInputError,
    SignalSpec,
    TermIndex,
    ThresholdPolicy,
    VolterraConfig,
    benchmark_channel,
    desired_signal,
    ds_vnlms_step,
    embed_kernel,
    expand_series,
    generate_input,
    generate_noise,
    position_of,
    push_sample,
    record_iteration,
    total_dimension,
    vnlms_step,
)
from dsvolterra import filters, harness
from dsvolterra.robustness import run_ledger
from dsvolterra.volterra import ROW_BLOCK

SEEDS = tuple(range(1, 11))
ITERATIONS = 1000
PRESETS = tuple(harness.builtin_presets())

#: fields the engine must reproduce bit for bit
EXACT = ("k", "e", "n", "updated", "mu_bar", "alpha", "gamma_used", "in_transient")
#: fields computed in bulk, in another summation order than the oracle
CLOSE = ("e_tilde", "wtilde_sq_before", "wtilde_sq_after")
REL_TOL = 1e-12


def _config(name):
    return dataclasses.replace(harness.preset(name), iterations=ITERATIONS)


def _streaming(config, algorithm, x, d, n, w_star):
    state = FilterState(config.volterra)
    records = []
    for k in range(len(x)):
        push_sample(state, x[k])
        w_before = state.w
        if algorithm.kind == "ds_vnlms":
            outcome = ds_vnlms_step(state, d[k], algorithm.policy)
        else:
            outcome = vnlms_step(state, d[k], algorithm.mu)
        records.append(record_iteration(w_star, w_before, state.w, outcome, n[k]))
    return records


def _column(records, field):
    return np.array([getattr(r, field) for r in records])


@pytest.mark.parametrize("name", PRESETS)
def test_engine_matches_streaming_oracle(name):
    config = _config(name)
    # (in_transient, gamma_used) pairs seen by the time-varying variants
    threshold_states = set()
    for seed in SEEDS:
        x, _, n, w_star, d = harness._realization(config, seed)
        engine = harness.run_trial(config, seed)
        for algorithm in config.algorithms:
            where = (name, seed, algorithm.label)
            got = engine[algorithm.label]
            want = _streaming(config, algorithm, x, d, n, w_star)
            assert len(got) == len(want) == ITERATIONS, where
            for field in EXACT:
                assert np.array_equal(_column(got, field), _column(want, field)), (where, field)
            for field in CLOSE:
                a, b = _column(got, field), _column(want, field)
                assert np.all(np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))), (
                    where,
                    field,
                    float(np.max(np.abs(a - b))),
                )
            # the energy chain stays continuous across ledger blocks
            assert all(
                a.wtilde_sq_after == b.wtilde_sq_before for a, b in zip(got, got[1:])
            ), where
            if algorithm.policy is not None and algorithm.policy.mode == "time_varying":
                threshold_states.update((r.in_transient, r.gamma_used) for r in got)
    if any(a.policy is not None and a.policy.mode == "time_varying" for a in config.algorithms):
        # both detector states, each with its own threshold
        assert {state for state, _ in threshold_states} == {True, False}
        assert len(threshold_states) == 2


#: a threshold no error reaches: every row of every block holds the zero estimate
NEVER_UPDATES = (
    harness.AlgorithmSpec("ds_never", "ds_vnlms", policy=ThresholdPolicy.fixed(1e9)),
)
BLOCK_EDGES = (1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK)


@pytest.mark.parametrize(
    "iterations, algorithms",
    [pytest.param(i, None, id=str(i)) for i in BLOCK_EDGES]
    + [pytest.param(i, NEVER_UPDATES, id=f"{i}-no_update") for i in BLOCK_EDGES],
)
def test_engine_matches_streaming_oracle_at_block_edges(iterations, algorithms):
    # one row, one full block, one row past it, two full blocks; fig5's
    # variants, or one that never updates
    config = dataclasses.replace(harness.preset("fig5"), iterations=iterations)
    if algorithms is not None:
        config = dataclasses.replace(config, algorithms=algorithms)
    x, _, n, w_star, d = harness._realization(config, 1)
    engine = harness.run_trial(config, 1)
    for algorithm in config.algorithms:
        got = engine[algorithm.label]
        want = _streaming(config, algorithm, x, d, n, w_star)
        assert len(got) == len(want) == iterations, algorithm.label
        assert algorithms is None or not got.updated.any()
        for field in EXACT:
            assert np.array_equal(_column(got, field), _column(want, field)), field
        for field in CLOSE:
            a, b = _column(got, field), _column(want, field)
            assert np.all(np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))), field
        assert np.array_equal(got.wtilde_sq_before[1:], got.wtilde_sq_after[:-1])


@pytest.mark.parametrize("signal", ["x", "d"])
def test_non_finite_input_rejected(signal):
    config = _config("fig5")
    x, _, n, w_star, d = harness._realization(config, 1)
    inputs = {"x": x.copy(), "d": d.copy()}
    inputs[signal][ITERATIONS // 2] = np.nan
    regressors = expand_series(inputs["x"], config.volterra)
    with pytest.raises(NumericInputError):
        harness._run_variants(config, regressors, inputs["d"], n, w_star)


def test_overflowing_regressor_rejected():
    # the engine twin of the streaming step's test: inputs near 1e120 overflow
    # the cubic monomials of the trial's regressor matrix, and numpy warns of
    # the overflow and of the NaN that d then holds
    config = dataclasses.replace(
        _config("fig5"),
        input=SignalSpec("white_gaussian", variance=1e240),
        volterra=VolterraConfig(3, 3),
    )
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericInputError, match="regressor contains non-finite"):
            harness.run_trial(config, 1)


def _sparse_kernel(volterra, seed):
    """A random kernel on about a tenth of the layout's terms, with an order-3
    term whose order-2 prefix has zero weight: a column that is formed but
    not weighted, next to unformed ones."""
    rng = np.random.default_rng(seed)
    kernel = rng.normal(size=total_dimension(volterra))
    kernel[rng.random(kernel.shape[0]) > 0.1] = 0.0
    kernel[position_of(TermIndex(3, (0, 1, 2)), volterra)] = 1.5
    kernel[position_of(TermIndex(2, (0, 1)), volterra)] = 0.0
    return kernel


def test_desired_signal_is_the_channel_response():
    # block edges and final blocks of 1-3 rows, in two layouts, for the
    # benchmark channel, one with every term of the layout, a random sparse
    # kernel and an all-zero one
    for iterations, layout, kind in itertools.product(
        (1, 3, 511, 512, 513, 514, 515, 1027, ITERATIONS),
        ((3, 3), (3, 8)),
        ("benchmark", "dense", "sparse", "zero"),
    ):
        case = (iterations, layout, kind)
        volterra = VolterraConfig(*layout)
        config = dataclasses.replace(_config("fig1a"), iterations=iterations, volterra=volterra)
        kernels = {
            "dense": np.random.default_rng(iterations).normal(size=total_dimension(volterra)),
            "sparse": _sparse_kernel(volterra, iterations),
            "zero": np.zeros(total_dimension(volterra)),
        }
        if kind in kernels:
            config = dataclasses.replace(config, channel=Channel(kernels[kind], volterra))
        x, regressors, n, w_star, d = harness._realization(config, 1)
        channel = Channel(w_star, config.volterra)
        assert np.array_equal(regressors, expand_series(x, config.volterra)), case
        response = desired_signal(channel, x, n)
        assert np.array_equal(d, response), case
        # bit for bit, signs of zero included
        assert d.tobytes() == response.tobytes(), case
        # the whole matrix in one product is only close: BLAS can round a final
        # block of 1-3 rows differently from the same rows inside a taller matrix
        one_shot = regressors @ w_star + n
        assert np.all(np.abs(d - one_shot) <= REL_TOL * np.maximum(1.0, np.abs(one_shot))), case


@pytest.mark.parametrize("window", [10, 30])
def test_streaming_detector_takes_the_policy_window(window):
    # a default streaming state against the engine on the same rows:
    # the detector window comes from the policy alone, on both paths
    layout = VolterraConfig(2, 3)
    channel = benchmark_channel()
    w_star = embed_kernel(channel.kernel, channel.config, layout)
    x = generate_input(SignalSpec("white_gaussian", variance=1.0, seed=1), 3000)
    n = generate_noise(NoiseSpec("gaussian", variance=0.01, seed=2), 3000)
    d = desired_signal(Channel(w_star, layout), x, n)
    policy = ThresholdPolicy.time_varying(0.01, window_length=window)
    state = FilterState(layout)
    streamed = []
    for k in range(len(x)):
        push_sample(state, x[k])
        out = ds_vnlms_step(state, d[k], policy)
        streamed.append((out.updated, out.in_transient, out.gamma_used))
    ledger = run_ledger(expand_series(x, layout), d, n, w_star, layout.regularization, policy)
    engine = list(
        zip(ledger.updated.tolist(), ledger.in_transient.tolist(), ledger.gamma_used.tolist())
    )
    assert engine == streamed
    assert {transient for _, transient, _ in streamed} == {True, False}


def test_zero_energy_update_with_zero_delta_rejected(monkeypatch):
    # the engine twin of the streaming step's test: zero input, Gaussian noise
    # and no regularization, so the first VNLMS step moves with alpha = 0
    monkeypatch.setattr(harness, "generate_input", lambda spec, length: np.zeros(length))
    volterra = VolterraConfig(2, 3, regularization=0.0)
    config = dataclasses.replace(
        _config("fig5"),
        volterra=volterra,
        algorithms=(harness.AlgorithmSpec("vnlms", "vnlms", mu=0.5),),
    )
    with pytest.raises(NumericInputError) as streamed:
        vnlms_step(FilterState(volterra), 1.0, 0.5)
    with pytest.raises(NumericInputError) as engine:
        harness.run_trial(config, 1)
    assert str(engine.value) == str(streamed.value)


@pytest.mark.parametrize("name, label", [("fig1a", "ds_fixed"), ("fig5", "vnlms_mu08")])
def test_engine_working_memory_is_about_one_matrix(name, label):
    # the engine steps on X's rows as given and holds only the ledger's
    # columns (0.30 X at 34 terms) and one block of estimates: 0.27-0.32 X
    # traced.  A row-major copy of a column-major X read 1.27-1.32 X
    config = dataclasses.replace(harness.preset(name), iterations=20_000)
    algorithm = next(a for a in config.algorithms if a.label == label)
    law = algorithm.policy if algorithm.kind == "ds_vnlms" else algorithm.mu
    _, regressors, n, w_star, d = harness._realization(config, 1)
    tracemalloc.start()
    try:
        run_ledger(regressors, d, n, w_star, config.volterra.regularization, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.45 * regressors.nbytes, (peak, regressors.nbytes)


def test_variants_share_one_matrix():
    # five variants in the 219-term layout step on the one trial matrix: 0.27 X
    # traced for the finiteness checks and five ledgers.  One row-major copy of
    # a column-major X per variant read 1.27 X
    config = dataclasses.replace(
        harness.preset("fig5"), iterations=20_000, volterra=VolterraConfig(3, 8)
    )
    _, regressors, n, w_star, d = harness._realization(config, 1)
    tracemalloc.start()
    try:
        harness._run_variants(config, regressors, d, n, w_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * regressors.nbytes, (peak, regressors.nbytes)


def _mutant_update(w, x, desired, delta, gamma, mu, *, gate=1.0, weight=1.0, norm=1.0):
    """``filters._update`` with one fault: the gate, the step weight or the
    normalization of the step scaled; the reported fields stay as computed."""
    e = desired - float(w.dot(x))
    alpha = float(x.dot(x)) + delta
    if mu is None:
        updated = abs(e) > gate * gamma
        mu_bar = 1.0 - gamma / abs(e) if updated else 0.0
    else:
        updated, mu_bar = True, mu
    if updated and e != 0.0:
        w = w + (weight * mu_bar / (norm * alpha)) * e * x
    return w, e, updated, mu_bar, alpha


def _disagreements(config, seed):
    """The (variant, field) pairs where the engine and the streaming oracle
    disagree on one realization: exactly for ``EXACT``, beyond ``REL_TOL``
    for ``CLOSE``."""
    x, _, n, w_star, d = harness._realization(config, seed)
    engine = harness.run_trial(config, seed)
    found = []
    for algorithm in config.algorithms:
        got, want = engine[algorithm.label], _streaming(config, algorithm, x, d, n, w_star)
        for field in EXACT + CLOSE:
            a, b = _column(got, field), _column(want, field)
            same = (
                np.array_equal(a, b)
                if field in EXACT
                else np.all(np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b)))
            )
            if not same:
                found.append((algorithm.label, field))
    return found


@pytest.mark.parametrize(
    "fault", [{"gate": 0.95}, {"weight": 0.8}, {"norm": 1.25}], ids=lambda f: "-".join(f)
)
def test_reference_mutant_breaks_the_engine_comparison(monkeypatch, fault):
    # the engine writes the law out itself, so the exact comparison is a check
    # of it: a fault in the streaming law must make the two paths disagree
    config = _config("fig5")
    assert _disagreements(config, 1) == []
    monkeypatch.setattr(filters, "_update", functools.partial(_mutant_update, **fault))
    assert _disagreements(config, 1) != []
