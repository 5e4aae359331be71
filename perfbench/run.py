"""dsvolterra benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 30 --trace 0

Runs in one process with one BLAS/OpenMP thread.  Set-up (imports, layout
cache fill, preset construction, input generation and one warm-up op of
every kind) is repeated ``SETUP_REPEATS`` times and reported as ``setup_s``;
then ops run until ``--seconds`` have passed, at least ``MIN_OPS`` ops are
done and the current cycle of ops is complete.  Every op is checked against
the recorded reference; an op that raises or disagrees counts as failed and
the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the program's public functions wrapped, then
prints the per-layer metrics, including the tracing overhead measured
between the two halves.  Details of a run (environment, problems, spans)
are written under ``.bench_out/`` in the checkout.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

SETUP_REPEATS = 3
MIN_OPS = 100
#: a phase stops after this many times its budget even mid-cycle
PHASE_CAP = 3
ALLOC_PROBED = ("signals.desired_signal", "harness.compare_algorithms")

END_TO_END_UNITS = {
    "setup_s": "s",
    "iter_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "sample_us_p50": "us",
    "sample_us_p99": "us",
    "peak_rss_mib": "MiB",
    "setup_peak_rss_mib": "MiB",
    "timed_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.TRACED:
        units[f"{name}.calls"] = "1/op"
        units[f"{name}.self_us_per_iter"] = "us"
    units.update(
        {
            "filters.update_ratio": "ratio",
            "robustness.trace_bytes_written": "B/op",
            "robustness.trace_bytes_read": "B/op",
            "harness.emit_bytes": "B/op",
            "signals.desired_signal.alloc_peak_mib": "MiB",
            "harness.compare_algorithms.alloc_peak_mib": "MiB",
            "tracing.overhead_frac": "ratio",
            "tracing.compute_self_frac": "ratio",
        }
    )
    return units


def rss_mib() -> float:
    """Current resident set size."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Phase:
    """Per-op wall times, iteration counts and failures of one phase."""

    def __init__(self):
        self.op_s: list[float] = []
        self.iterations: list[int] = []
        self.failed = 0
        self.problems: list[str] = []
        self.rss_max = 0.0

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    def iter_per_s(self) -> float:
        return sum(self.iterations) / sum(self.op_s)


def run_op(op, phase: Phase, tracer=None) -> float:
    """Time ``op.run``, check its output untimed; returns the op's seconds."""
    if tracer is not None:
        tracer.current_op = phase.attempted
    t0 = time.perf_counter()
    try:
        output, problems = op.run(), None
    except Exception as exc:  # a failed op is counted, and the run goes on
        output, problems = None, [f"op raised {exc!r}"]
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.current_op = -1
    if problems is None:
        try:
            problems = op.check(output)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
    phase.op_s.append(elapsed)
    phase.iterations.append(op.iterations)
    if problems:
        phase.failed += 1
        phase.problems.extend(problems[: max(0, 20 - len(phase.problems))])
    return elapsed


def run_phase(ops, seconds: float, tracer=None) -> Phase:
    """Run ops until ``seconds`` and ``MIN_OPS`` are reached at a cycle end."""
    phase = Phase()
    t_start = time.perf_counter()
    for op in ops:
        run_op(op, phase, tracer)
        phase.rss_max = max(phase.rss_max, rss_mib())
        elapsed = time.perf_counter() - t_start
        if elapsed >= PHASE_CAP * seconds:
            break
        if op.cycle_end and elapsed >= seconds and phase.attempted >= MIN_OPS:
            break
    return phase


def set_up(workload, warmup: Phase) -> tuple[float, list[float]]:
    """Repeat set-up plus warm-up ops; returns ``setup_s`` and the repeats.

    Imports happen once per process, so their time is added to the median
    of the repeats.  Checking the warm-up ops is not counted."""
    repeats = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        warm_ops = workload.setup()
        seconds = time.perf_counter() - t0
        for op in warm_ops:
            seconds += run_op(op, warmup)
        repeats.append(seconds)
    return IMPORT_S + statistics.median(repeats), repeats


def clear_samples(workload) -> None:
    if workload.sample_ns is not None:
        del workload.sample_ns[:]


def end_to_end(workload, phase: Phase, setup_s: float, setup_peak: float) -> dict[str, float]:
    op_s = np.asarray(phase.op_s)
    if workload.sample_ns is not None:
        per_sample_us = np.frombuffer(workload.sample_ns, dtype=np.int64) / 1000.0
        tail = 99.0
    else:
        # Batch ops are not timed sample by sample: each op gives its
        # amortized time per iteration.  A run holds a few hundred ops, too
        # few for a steady 99th percentile, so the tail is the 90th.
        per_sample_us = op_s / np.asarray(phase.iterations) * 1e6
        tail = 90.0
    return {
        "setup_s": setup_s,
        "iter_per_s": phase.iter_per_s(),
        "op_s_p50": float(np.percentile(op_s, 50)),
        "op_s_p90": float(np.percentile(op_s, 90)),
        "sample_us_p50": float(np.percentile(per_sample_us, 50)),
        "sample_us_p99": float(np.percentile(per_sample_us, tail)),
        "peak_rss_mib": peak_rss_mib(),
        "setup_peak_rss_mib": setup_peak,
        "timed_rss_mib": phase.rss_max,
    }


def op_self_and_wall(tracer, phase: Phase) -> tuple[np.ndarray, np.ndarray]:
    """Per op: summed self time of its spans and its wall time (ns)."""
    arrays = tracer.arrays()
    self_ns = tracer.self_times()
    in_op = arrays["op"] >= 0
    op_self = np.zeros(phase.attempted)
    np.add.at(op_self, arrays["op"][in_op], self_ns[in_op])
    return op_self, np.asarray(phase.op_s) * 1e9


def per_layer(tracer, traced: Phase, untraced: Phase, probe, emitted: list[int]) -> dict[str, float]:
    arrays = tracer.arrays()
    self_ns = tracer.self_times()
    iterations = sum(traced.iterations)
    metrics = {}
    compute_ns = 0.0
    for index, name in enumerate(spans.TRACED):
        mine = arrays["name"] == index
        metrics[f"{name}.calls"] = int(mine.sum()) / traced.attempted
        metrics[f"{name}.self_us_per_iter"] = float(self_ns[mine].sum()) / 1000.0 / iterations
        if name.split(".")[0] in spans.COMPUTE_LAYERS:
            compute_ns += float(self_ns[mine & (arrays["op"] >= 0)].sum())
    metrics["filters.update_ratio"] = tracer.updates / tracer.steps if tracer.steps else 0.0
    metrics["robustness.trace_bytes_written"] = tracer.bytes_written / traced.attempted
    metrics["robustness.trace_bytes_read"] = tracer.bytes_read / traced.attempted
    metrics["harness.emit_bytes"] = sum(emitted) / traced.attempted
    for name in ALLOC_PROBED:
        metrics[f"{name}.alloc_peak_mib"] = probe.peak[name] / 2**20
    metrics["tracing.overhead_frac"] = untraced.iter_per_s() / traced.iter_per_s() - 1.0
    metrics["tracing.compute_self_frac"] = compute_ns / (sum(traced.op_s) * 1e9)
    return metrics


def measure_layers(workload, untraced: Phase, seconds: float, phases: list, details: dict) -> dict:
    """Traced phase, then one cycle under the allocation probe."""
    if isinstance(workload, workloads.StreamLong):
        workload.regenerate_each_pass = True
    emitted = getattr(workload, "emit_bytes", [])
    emitted.clear()
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        traced = run_phase(workload.ops(), seconds, tracer)
    finally:
        restore()
    emitted = list(emitted)
    with spans.AllocProbe(ALLOC_PROBED) as probe:
        probe_phase = Phase()
        for op in one_cycle(workload.ops()):
            run_op(op, probe_phase)
    phases += [traced, probe_phase]
    op_self, op_wall = op_self_and_wall(tracer, traced)
    details["max_self_over_wall"] = float((op_self / op_wall).max())
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(workloads.OUT_DIR / f"{workload.name}-seed{details['seed']}.spans.npz")
    return per_layer(tracer, traced, untraced, probe, emitted)


def one_cycle(ops):
    for op in ops:
        yield op
        if op.cycle_end:
            return


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record."""
    workload = workloads.WORKLOADS[name](seed, workloads.load_reference())
    phases = [Phase()]
    details: dict = {"seed": seed}
    try:
        setup_s, details["setup_repeats_s"] = set_up(workload, phases[0])
        setup_peak = peak_rss_mib()
        clear_samples(workload)
        untraced = run_phase(workload.ops(), seconds / 2 if trace else seconds)
        phases.append(untraced)
        if trace:
            metrics = measure_layers(workload, untraced, seconds / 2, phases, details)
            units = per_layer_units()
        else:
            metrics = end_to_end(workload, untraced, setup_s, setup_peak)
            units = END_TO_END_UNITS
    finally:
        if hasattr(workload, "close"):
            workload.close()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "timed_ops": untraced.attempted,
        "timed_op_s": untraced.op_s,
        "timed_op_iterations": untraced.iterations,
        "import_s": IMPORT_S,
        "problems": [p for phase in phases for p in phase.problems][:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} nproc={env['nproc']} cpu={env['cpu_model']}"
        f" python={env['python']} numpy={env['numpy']} timed_ops={record['timed_ops']}"
    )
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for key, metric in record["metrics"].items():
        print(f"{key:45s} {metric['value']:<14.6g} {metric['unit']}")
    print(f"{'failed_frac':45s} {record['failed_frac']:<14.6g} ratio")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
