"""Tracing from outside the program.

Wraps the public functions named in ``TRACED`` at every ``dsvolterra``
module attribute that refers to them (for example ``harness.ds_vnlms_step``,
``filters.expand`` and ``cli.verify_trace``), which is where their callers
look them up.  Only the traced phase of a ``--trace 1`` run installs the
wrappers; they are removed afterwards, so untraced runs execute the program
unmodified.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np

TRACED = (
    "signals.generate_input",
    "signals.generate_noise",
    "signals.desired_signal",
    "volterra.expand",
    "volterra.expand_series",
    "filters.push_sample",
    "filters.ds_vnlms_step",
    "filters.vnlms_step",
    "robustness.record_iteration",
    "robustness.summarize_run",
    "robustness.write_trace_csv",
    "robustness.read_trace_csv",
    "robustness.verify_trace",
    "harness.compare_algorithms",
    "harness.preset",
    "harness.load_config",
    "cli.main",
)
#: layers whose self time is filter, expansion or ledger work
COMPUTE_LAYERS = ("volterra", "filters", "robustness")


def patch(names, make_wrapper):
    """Replace each named function at every program module attribute that
    holds it; returns a callable that restores the originals."""
    modules = [m for n, m in list(sys.modules.items()) if n == "dsvolterra" or n.startswith("dsvolterra.")]
    undo = []
    for index, qualified in enumerate(names):
        module_name, function_name = qualified.split(".")
        original = getattr(importlib.import_module(f"dsvolterra.{module_name}"), function_name)
        wrapper = functools.wraps(original)(make_wrapper(index, qualified, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def restore():
        for module, attr, original in undo:
            setattr(module, attr, original)

    return restore


class Tracer:
    """Spans (name, start, end, parent, op) kept in flat in-memory arrays,
    plus the counters measured at the same boundaries."""

    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.updates = 0
        self.steps = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack: list[int] = []

    def install(self):
        return patch(TRACED, self._wrapper)

    def _wrapper(self, index, qualified, fn):
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        if qualified in ("filters.ds_vnlms_step", "filters.vnlms_step"):
            def counted(*args, **kwargs):
                outcome = traced(*args, **kwargs)
                self.steps += 1
                self.updates += outcome.updated
                return outcome
            return counted
        if qualified == "robustness.write_trace_csv":
            def counted(records, path):
                traced(records, path)
                self.bytes_written += os.path.getsize(path)
            return counted
        if qualified == "robustness.read_trace_csv":
            def counted(path):
                self.bytes_read += os.path.getsize(path)
                return traced(path)
            return counted
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover (ns)."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        children = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(children, spans["parent"][has_parent], duration[has_parent])
        return duration - children

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(TRACED), **self.arrays())


class AllocProbe:
    """Peak bytes traced by ``tracemalloc`` during each call of the named
    functions, nested calls included, relative to the bytes held at entry."""

    def __init__(self, names):
        self.names = names
        self.peak = {name: 0 for name in names}
        self._frames: list[list[int]] = []

    def __enter__(self):
        tracemalloc.start()
        self._restore = patch(self.names, self._wrapper)
        return self

    def __exit__(self, *exc):
        self._restore()
        tracemalloc.stop()

    def _wrapper(self, index, qualified, fn):
        frames = self._frames

        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            for frame in frames:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                frames.pop()
                for open_frame in frames + [frame]:
                    open_frame[1] = max(open_frame[1], peak)
                self.peak[qualified] = max(self.peak[qualified], frame[1] - frame[0])

        return probed
