"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, the way its bounds are judged.

    python3 perfbench/spread.py --workload stream_long --seeds 1 2 3 4 5

Spread is (Q3 - Q1) / median over the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  Runs are sequential, one
process at a time.  ``--out FILE`` also writes the runs and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        spread = float("nan")
        if len(values) > 1 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        summary[name] = {"median": median, "spread": spread, "bound": bounds.get(name)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [run_once(args.workload, seed, seconds) for seed in args.seeds]
    summary = summarize(runs, bounds)
    for name, row in summary.items():
        flag = ""
        if row["bound"] is not None and name != "setup_s" and row["spread"] > row["bound"] / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"{name:45s} median {row['median']:<12.6g} spread {row['spread']:.4f}"
              f" bound {row['bound']}{flag}")
    print(f"correct: {all(r['correct'] for r in runs)}, failed: {sum(r['failed'] for r in runs)}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
