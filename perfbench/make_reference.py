"""Record the correctness reference the benchmark checks every op against.

    python3 perfbench/make_reference.py

For every preset x trial seed of the sweep pool: the digest of each
variant's update flags and its verdict.  For every stream seed: the digest
of each block's update flags and the verdict of the whole pass.  Re-record
only when a change is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import json  # noqa: E402

import workloads as w  # noqa: E402
from workloads import dv, harness  # noqa: E402


def sweep_reference() -> dict:
    runs = {}
    for name in w.SWEEP_PRESETS:
        config = harness.preset(name)
        for seed in w.TRIAL_SEEDS:
            trial = harness.compare_algorithms(w.one_trial(config, seed))["trials"][0]
            for label, records in trial["records"].items():
                runs[w.sweep_key(name, seed, label)] = {
                    "flags": w.flag_digest(r.updated for r in records),
                    "verdict": trial["verdicts"][label].as_dict(),
                }
    return runs


def stream_reference() -> dict:
    streams = {}
    for seed in w.STREAM_SEEDS:
        w_star, x, n, d = w.stream_inputs(seed)
        state = dv.FilterState(w.stream_layout())
        policy = w.stream_policy()
        records = []
        for k in range(w.STREAM_LENGTH):
            dv.push_sample(state, x[k])
            w_before = state.w
            outcome = dv.ds_vnlms_step(state, d[k], policy)
            records.append(dv.record_iteration(w_star, w_before, state.w, outcome, n[k]))
        streams[str(seed)] = {
            "blocks": [
                w.flag_digest(r.updated for r in records[start : start + w.STREAM_BLOCK])
                for start in range(0, w.STREAM_LENGTH, w.STREAM_BLOCK)
            ],
            "verdict": dv.summarize_run(records, tau_for_bound=w.STREAM_TAU_BOUND).as_dict(),
        }
    return streams


def main() -> None:
    reference = {"runs": sweep_reference(), "streams": stream_reference()}
    w.REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
