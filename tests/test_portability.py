"""What a config fixes across platforms: every update flag exactly, and every
summary float within 1e-12 relative.  Output bytes are reproducible only on
one numpy build and CPU, since numpy picks its kernels per CPU (README,
"Determinism").

Two stand-ins for a second host run here on any host: the Box-Muller log
taken by libm's ``math.log1p`` instead of numpy's, and the pins that
``perfbench/reference.json`` recorded (read only, never rewritten).
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dsvolterra import harness, signals, verify_trace

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REL_TOL = 1e-12
PRESETS = tuple(harness.builtin_presets())
PINNED_SEEDS = (1, 2)


def one_trial(name, seed):
    """Each variant's ledger and verdict for one trial of a preset."""
    config = dataclasses.replace(harness.preset(name), trials=1, seeds=None, base_seed=seed)
    (trial,) = harness.compare_algorithms(config)["trials"]
    verdicts = trial["verdicts"]
    return {label: (ledger, verdicts[label]) for label, ledger in trial["records"].items()}


def flag_digest(ledger):
    """The update flags' digest as ``perfbench/reference.json`` records it."""
    return hashlib.sha256(bytes(bytearray(ledger.updated.tolist()))).hexdigest()[:16]


def verdict_mismatches(want: dict, got: dict) -> list[str]:
    """Fields of ``got`` off ``want``: a float beyond ``REL_TOL`` relative,
    anything else unequal."""
    off = []
    for key, value in want.items():
        have = got[key]
        if isinstance(value, float) and isinstance(have, float):
            ok = math.isfinite(have) and abs(have - value) <= REL_TOL * max(abs(value), abs(have))
        else:
            ok = have == value
        if not ok:
            off.append(f"{key}={have!r}, want {value!r}")
    return off


def _standard_normal_libm(rng, n):
    """``signals._standard_normal`` with libm's ``math.log1p``, sample by
    sample, in place of numpy's vectorized ``np.log1p``."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.array([math.log1p(-u) for u in u1.tolist()]))
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:n]


@pytest.fixture(scope="module")
def seed_one():
    return {name: one_trial(name, 1) for name in PRESETS}


def test_another_log1p_keeps_flags_and_summaries(seed_one, monkeypatch):
    monkeypatch.setattr(signals, "_standard_normal", _standard_normal_libm)
    for name in PRESETS:
        for label, (ledger, verdict) in one_trial(name, 1).items():
            where = f"{name}/{label}"
            want_ledger, want_verdict = seed_one[name][label]
            assert np.array_equal(ledger.updated, want_ledger.updated), where
            assert verify_trace(ledger) == [], where
            assert verdict_mismatches(want_verdict.as_dict(), verdict.as_dict()) == [], where


def test_runs_match_the_recorded_reference(seed_one):
    runs = json.loads(REFERENCE.read_text())["runs"]
    checked = 0
    for name in PRESETS:
        for seed in PINNED_SEEDS:
            trial = seed_one[name] if seed == 1 else one_trial(name, seed)
            for label, (ledger, verdict) in trial.items():
                where = f"{name}/{seed}/{label}"
                assert flag_digest(ledger) == runs[where]["flags"], where
                assert verdict_mismatches(runs[where]["verdict"], verdict.as_dict()) == [], where
                checked += 1
    assert checked == 32
