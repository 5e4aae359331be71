"""Workloads of the dsvolterra benchmark.

Each workload builds its inputs from the benchmark seed, yields ops, and
checks every op against ``reference.json``: update flags must match the
recorded digest exactly and every summary float must agree within
``REL_TOL`` relative.  The program is imported from ``src/`` next to this
directory and is driven only through its public entry points, looked up at
call time so that a traced run sees the wrapped functions.

Workloads:

* ``certify_sweep`` -- the acceptance protocol in memory: every built-in
  preset, 2500 iterations, through ``harness.compare_algorithms``.  One op is
  one preset x one trial seed.  Filters, expansion and the ledger do the
  work; nothing is written to disk.
* ``run_check_cli`` -- one verified run: ``dsvolterra run <preset>`` then
  ``dsvolterra check`` on the emitted trace, for the six single-variant
  presets.  CSV emission, CSV reading and ``verify_trace`` show here.
* ``stream_long`` -- the streaming loop of the README (``push_sample``,
  ``ds_vnlms_step``, ``record_iteration``, ledger kept in memory) over long
  AR(1) streams with the time-varying threshold on an order-3, memory-8
  layout (219 terms).  Each pass runs one whole stream from a fresh filter;
  the run cycles through every recorded stream so that all seeds do the
  same work.  One op is a block of ``STREAM_BLOCK`` samples, and each
  sample is timed on its own.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "dsvolterra" / "__init__.py").is_file():
    raise ImportError(f"program sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import dsvolterra as dv  # noqa: E402
from dsvolterra import cli, harness, volterra  # noqa: E402

if not Path(dv.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"dsvolterra imported from {dv.__file__}, not from {SRC}")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".bench_out"

#: relative tolerance for summary floats against the reference
REL_TOL = 1e-12

SWEEP_PRESETS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig5", "fig6", "fig5-blue", "fig6-blue")
CLI_PRESETS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig5-blue", "fig6-blue")
#: trial seeds with a recorded reference; the benchmark seed picks their order
TRIAL_SEEDS = tuple(range(1, 25))

STREAM_ORDER = 3
STREAM_MEMORY = 8
STREAM_LENGTH = 50_000
STREAM_BLOCK = 500
STREAM_AR = 0.95
STREAM_SIGMA_N_SQ = 0.01
STREAM_TAU_BOUND = 9.0
#: stream seeds with a recorded reference; the benchmark seed picks their order
STREAM_SEEDS = tuple(range(1, 9))

# Verification uses the functions as imported here, so wrapping the program's
# attributes for a traced run never changes what the checks compute.
_summarize_run = dv.summarize_run


@dataclasses.dataclass
class Op:
    """One timed unit of work and the untimed check of its output."""

    iterations: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    cycle_end: bool = False


def flag_digest(flags) -> str:
    return hashlib.sha256(bytes(bytearray(flags))).hexdigest()[:16]


def verdict_problems(reference: dict, got: dict, where: str) -> list[str]:
    """Fields of ``reference`` that ``got`` misses or does not reproduce."""
    problems = []
    for key, want in reference.items():
        have = got.get(key)
        if isinstance(want, float) and isinstance(have, (int, float)) and not isinstance(have, bool):
            ok = math.isfinite(have) and abs(have - want) <= REL_TOL * max(abs(want), abs(have))
        else:
            ok = have == want
        if not ok:
            problems.append(f"{where}: {key}={have!r}, reference {want!r}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def clear_layout_cache() -> None:
    """Empty the program's layout-table cache so set-up pays for the fill."""
    cached = getattr(volterra, "_layout", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def trial_seed_order(seed: int) -> list[int]:
    return random.Random(seed).sample(TRIAL_SEEDS, len(TRIAL_SEEDS))


def sweep_key(name: str, seed: int, label: str) -> str:
    return f"{name}/{seed}/{label}"


def one_trial(config, seed: int):
    return dataclasses.replace(config, trials=1, seeds=None, base_seed=seed)


class PresetCycles:
    """Ops in cycles: every preset on one trial seed, the seeds in the order
    the benchmark seed gives them."""

    presets: tuple[str, ...] = ()
    sample_ns = None

    def __init__(self, seed: int, reference: dict):
        self.seeds = trial_seed_order(seed)
        self.reference = reference["runs"]

    def setup(self) -> list[Op]:
        """Build the presets; return one warm-up op per preset."""
        clear_layout_cache()
        self.configs = {name: harness.preset(name) for name in self.presets}
        return [self._op(name, self.seeds[-1], False) for name in self.presets]

    def ops(self):
        for cycle in range(sys.maxsize):
            seed = self.seeds[cycle % len(self.seeds)]
            for i, name in enumerate(self.presets):
                yield self._op(name, seed, i == len(self.presets) - 1)


class CertifySweep(PresetCycles):
    name = "certify_sweep"
    presets = SWEEP_PRESETS

    def _op(self, name: str, seed: int, cycle_end: bool) -> Op:
        config = one_trial(self.configs[name], seed)

        def run():
            return harness.compare_algorithms(config)

        def check(result):
            problems = []
            trial = result["trials"][0]
            for label in result["labels"]:
                ref = self.reference[sweep_key(name, seed, label)]
                where = sweep_key(name, seed, label)
                if flag_digest(r.updated for r in trial["records"][label]) != ref["flags"]:
                    problems.append(f"{where}: update flags differ from the reference")
                problems += verdict_problems(ref["verdict"], trial["verdicts"][label].as_dict(), where)
            return problems

        return Op(config.iterations * len(config.algorithms), run, check, cycle_end)


def trace_problems(path: Path, iterations: int) -> tuple[list[str], bytearray]:
    """Parse an emitted trace independently of the program: every field must
    be a finite number; returns the problems and the update flags."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",") if lines else []
    if "updated" not in header:
        return [f"{path}: no 'updated' column"], bytearray()
    column = header.index("updated")
    problems = []
    flags = bytearray()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            finite = len(fields) == len(header) and all(math.isfinite(float(f)) for f in fields)
        except ValueError:
            finite = False
        if not finite:
            problems.append(f"{path}:{lineno}: malformed or non-finite row")
        flags.append(len(fields) > column and fields[column] == "1")
    if len(lines) - 1 != iterations:
        problems.append(f"{path}: {len(lines) - 1} rows, expected {iterations}")
    return problems, flags


class RunCheckCli(PresetCycles):
    name = "run_check_cli"
    presets = CLI_PRESETS

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.out = OUT_DIR / f"cli-{os.getpid()}"
        self.emit_bytes: list[int] = []

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def _op(self, name: str, seed: int, cycle_end: bool) -> Op:
        label = self.configs[name].algorithms[0].label
        iterations = self.configs[name].iterations
        run_dir = self.out / "trial_000" / label
        argv = ["run", name, "--trials", "1", "--seed", str(seed), "--out", str(self.out), "--quiet"]

        def run():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                run_code = cli.main(argv)
                check_code = cli.main(["check", str(run_dir / "trace.csv")])
            return run_code, check_code

        def check(codes):
            where = sweep_key(name, seed, label)
            ref = self.reference[where]
            try:
                problems = [] if codes == (0, 0) else [f"{where}: exit codes {codes}"]
                self.emit_bytes.append(
                    sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
                )
                summary = json.loads((run_dir / "summary.json").read_text())
                problems += verdict_problems(
                    {"seed": seed, "variant": label, **ref["verdict"]}, summary, where
                )
                trace, flags = trace_problems(run_dir / "trace.csv", iterations)
                problems += trace
                if flag_digest(flags) != ref["flags"]:
                    problems.append(f"{where}: update flags in trace.csv differ from the reference")
            except (OSError, ValueError) as exc:
                problems = [f"{where}: cannot read the run tree: {exc!r}"]
            finally:
                shutil.rmtree(self.out, ignore_errors=True)
            return problems

        return Op(iterations, run, check, cycle_end)


def stream_layout():
    return dv.VolterraConfig(order=STREAM_ORDER, memory=STREAM_MEMORY)


def stream_policy():
    return dv.ThresholdPolicy.time_varying(STREAM_SIGMA_N_SQ)


def stream_inputs(stream_seed: int):
    """AR(1) input, Gaussian noise and the channel response in the wide layout."""
    layout = stream_layout()
    channel = dv.benchmark_channel()
    w_star = dv.embed_kernel(channel.kernel, channel.config, layout)
    x = dv.generate_input(
        dv.SignalSpec("ar1", variance=1.0, ar_coefficient=STREAM_AR, seed=10_000 + stream_seed),
        STREAM_LENGTH,
    )
    n = dv.generate_noise(
        dv.NoiseSpec("gaussian", variance=STREAM_SIGMA_N_SQ, seed=20_000 + stream_seed),
        STREAM_LENGTH,
    )
    d = dv.desired_signal(dv.Channel(w_star, layout), x, n)
    return w_star, x, n, d


class StreamPass:
    """Inputs, filter state and in-memory ledger of one pass over a stream."""

    def __init__(self, stream_seed: int, inputs):
        self.stream_seed = stream_seed
        self.w_star, self.x, self.n, self.d = inputs
        self.state = dv.FilterState(stream_layout())
        self.records: list = []
        self.broken = False


class StreamLong:
    name = "stream_long"

    def __init__(self, seed: int, reference: dict, regenerate_each_pass: bool = False):
        self.order = random.Random(seed).sample(STREAM_SEEDS, len(STREAM_SEEDS))
        self.reference = reference["streams"]
        self.regenerate_each_pass = regenerate_each_pass
        self.sample_ns = array("q")

    def setup(self) -> list[Op]:
        """Generate every stream; return one warm-up block."""
        clear_layout_cache()
        self.policy = stream_policy()
        self.inputs = {seed: stream_inputs(seed) for seed in self.order}
        return [self._block(StreamPass(self.order[0], self.inputs[self.order[0]]), 0)]

    def ops(self):
        """Blocks of consecutive passes, one stream per pass in seed order,
        each from a fresh filter; a block that raises ends its pass."""
        for index in range(sys.maxsize):
            seed = self.order[index % len(self.order)]
            if self.regenerate_each_pass:
                self.inputs[seed] = stream_inputs(seed)
            stream = StreamPass(seed, self.inputs[seed])
            for b in range(STREAM_LENGTH // STREAM_BLOCK):
                yield self._block(stream, b)
                if stream.broken:
                    break

    def _block(self, stream: StreamPass, b: int) -> Op:
        start, stop = b * STREAM_BLOCK, (b + 1) * STREAM_BLOCK
        last = stop == STREAM_LENGTH
        w_star, x, n, d, policy = stream.w_star, stream.x, stream.n, stream.d, self.policy
        reference = self.reference[str(stream.stream_seed)]
        samples = self.sample_ns
        clock = time.perf_counter_ns

        def run():
            stream.broken = True
            state, records = stream.state, stream.records
            for k in range(start, stop):
                t0 = clock()
                dv.push_sample(state, x[k])
                w_before = state.w
                outcome = dv.ds_vnlms_step(state, d[k], policy)
                records.append(dv.record_iteration(w_star, w_before, state.w, outcome, n[k]))
                samples.append(clock() - t0)
            stream.broken = False
            return records

        def check(records):
            where = f"stream {stream.stream_seed} block {b}"
            problems = []
            if flag_digest(r.updated for r in records[start:stop]) != reference["blocks"][b]:
                problems.append(f"{where}: update flags differ from the reference")
            if last:
                verdict = _summarize_run(records, tau_for_bound=STREAM_TAU_BOUND).as_dict()
                problems += verdict_problems(reference["verdict"], verdict, where)
            return problems

        return Op(stop - start, run, check, last)


WORKLOADS = {w.name: w for w in (CertifySweep, RunCheckCli, StreamLong)}
