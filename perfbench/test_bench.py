"""Self-tests of the benchmark: its checks catch wrong output, its trace
accounting is consistent, and its metric names follow the contract.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def one_cycle_phase(workload, tracer=None) -> run.Phase:
    workload.setup()
    try:
        return run.run_phase(run.one_cycle(workload.ops()), math.inf, tracer)
    finally:
        if hasattr(workload, "close"):
            workload.close()


@pytest.mark.parametrize("name", ["certify_sweep", "run_check_cli"])
def test_unmodified_program_has_no_failures(name, reference):
    phase = one_cycle_phase(workloads.WORKLOADS[name](3, reference))
    assert phase.attempted >= 6
    assert phase.failed == 0, phase.problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_flipped_update_flag_raises_failed_frac(name, reference):
    def make_wrapper(index, qualified, step):
        def flipped(*args, **kwargs):
            outcome = step(*args, **kwargs)
            if outcome.k == 100:
                outcome = dataclasses.replace(outcome, updated=not outcome.updated)
            return outcome

        return flipped

    restore = spans.patch(["filters.ds_vnlms_step"], make_wrapper)
    try:
        phase = one_cycle_phase(workloads.WORKLOADS[name](3, reference))
    finally:
        restore()
    assert phase.failed / phase.attempted > 0
    assert any("update flags" in problem for problem in phase.problems)


def test_nan_in_emitted_trace_raises_failed_frac(reference):
    def make_wrapper(index, qualified, write):
        def poisoned(records, path):
            write(records, path)
            lines = Path(path).read_text().splitlines()
            header = lines[0].split(",")
            updated = header.index("updated")
            row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[updated] == "0")
            fields = lines[row].split(",")
            fields[header.index("n")] = "nan"
            lines[row] = ",".join(fields)
            Path(path).write_text("\n".join(lines) + "\n")

        return poisoned

    restore = spans.patch(["robustness.write_trace_csv"], make_wrapper)
    try:
        phase = one_cycle_phase(workloads.RunCheckCli(3, reference))
    finally:
        restore()
    assert phase.failed == phase.attempted
    assert any("non-finite" in problem for problem in phase.problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_sum_to_at_most_op_wall_time(name, reference):
    workload = workloads.WORKLOADS[name](3, reference)
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        phase = one_cycle_phase(workload, tracer)
    finally:
        restore()
    op_self, op_wall = run.op_self_and_wall(tracer, phase)
    assert len(tracer.name) > phase.attempted
    assert (op_self > 0).all()
    assert (op_self <= op_wall).all()


def test_tracing_is_removed_after_the_traced_phase():
    originals = {name: getattr(workloads.dv, name) for name in ("push_sample", "expand")}
    restore = spans.Tracer().install()
    assert workloads.dv.push_sample is not originals["push_sample"]
    assert workloads.harness.push_sample is not originals["push_sample"]
    restore()
    assert workloads.dv.push_sample is originals["push_sample"]
    assert workloads.harness.push_sample is originals["push_sample"]
    assert workloads.dv.filters.expand is originals["expand"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_result_line_and_metric_names(name, trace, capsys):
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
