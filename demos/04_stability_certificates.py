#!/usr/bin/env python3
"""Numerical l2-stability certificates on a full run.

Keeps the complete per-iteration ledger for a preset run and verifies the
energy bounds the data-selective update satisfies:

  * locally, on every update, the post-update deviation energy plus the
    weighted noiseless-error energy stays strictly below the pre-update
    deviation energy plus the weighted noise energy;
  * globally, the error-to-disturbance energy ratio stays below one at every
    prefix containing an update;
  * the fraction of iterations where the deviation energy grows stays below
    the Gaussian tail bound erfc(sqrt(tau/2)) for gamma = sqrt(tau sigma^2).

The trace round-trips through CSV and re-verifies.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from dsvolterra import (
    erfc_bound,
    harness,
    prefix_ratios,
    read_trace_csv,
    verify_trace,
    write_trace_csv,
)

config = dataclasses.replace(harness.preset("fig1a"), trials=1, seeds=(1,))
result = harness.compare_algorithms(config)
ledger = result["trials"][0]["records"]["ds_fixed"]
verdict = result["trials"][0]["verdicts"]["ds_fixed"]
total = verdict.total_iterations

print(f"run: {config.name}, {total} iterations, seed 1")
print(f"updates: {verdict.update_count} ({100 * verdict.update_rate:.1f}%)\n")

print(f"local energy inequality:      {total - verdict.local_violations}/{total} rows hold")
print(f"conditional improvement:      {total - verdict.conditional_violations}/{total} rows hold")

# the ledger holds one array per trace column
ratios = prefix_ratios(ledger)
worst = ratios[np.cumsum(ledger.updated) >= 1].max()
print(f"global ratio, worst prefix:   {worst:.6f} (< 1)")
print(f"global ratio, final:          {verdict.global_ratio:.6f}")

bound = erfc_bound(5.0)
print(f"\ndeviation-energy increases:   {verdict.increase_count} of {total}"
      f" (fraction {verdict.increase_fraction:.4f} < tail bound {bound:.4f})")
print(f"increases during transient:   {verdict.increases_in_transient}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trace.csv"
    write_trace_csv(ledger, path)
    problems = verify_trace(read_trace_csv(path))
    print(f"\nCSV round trip: {path.stat().st_size} bytes,"
          f" re-verification problems: {len(problems)}")
