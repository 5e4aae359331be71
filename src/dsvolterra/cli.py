"""Command line: run experiments, list presets, re-verify traces, show layouts.

Exit codes: 0 success, 1 usage, config or out-of-memory error, 2 I/O error,
3 verification failure (from ``check``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import harness
from .errors import ConfigError
from .robustness import read_trace_csv, verify_trace
from .volterra import VolterraConfig, term_at, total_dimension

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFICATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route that through exit code 1.
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dsvolterra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file or preset")
    run.add_argument("target", help="config file path or preset name")
    run.add_argument("--trials", type=int, help="override the number of trials")
    run.add_argument("--seed", type=int, help="override the base seed")
    run.add_argument("--out", help="output directory (default runs/<name>)")
    run.add_argument("--quiet", action="store_true", help="suppress stdout")

    sub.add_parser("presets", help="list the built-in presets")

    check = sub.add_parser("check", help="re-verify the certificates on a trace CSV")
    check.add_argument("trace", help="trace.csv emitted by run")

    dims = sub.add_parser("dims", help="print the regressor layout table")
    dims.add_argument("order", type=int)
    dims.add_argument("memory", type=int)

    return parser


def _resolve_config(args) -> harness.ExperimentConfig:
    # only a file is a config: a directory named like a preset does not shadow it
    load = harness.load_config if Path(args.target).is_file() else harness.preset
    config = load(args.target)
    if args.trials is not None:
        config = dataclasses.replace(config, trials=args.trials, seeds=None)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed, seeds=None)
    return config


def _verdict_line(name: str, trial: dict, label: str) -> str:
    parts = [f"name={name}", f"trial={trial['index']}", f"seed={trial['seed']}", f"variant={label}"]
    for key, value in trial["verdicts"][label].as_dict().items():
        text = "na" if value is None else f"{value:.6g}" if isinstance(value, float) else value
        parts.append(f"{key}={text}")
    return " ".join(parts)


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    out_dir = Path(args.out or Path("runs") / config.name)
    result = harness.compare_algorithms(config, out_dir)
    if not args.quiet:
        for trial in result["trials"]:
            for label in result["labels"]:
                print(_verdict_line(config.name, trial, label))
        print(f"wrote {out_dir}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    for name, config in harness.builtin_presets().items():
        print(f"{name:10s} {config.description}")
    return EXIT_OK


def _cmd_check(args) -> int:
    records = read_trace_csv(args.trace)
    problems = verify_trace(records)
    if problems:
        for message in problems[:20]:
            print(message, file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        print(f"FAIL: {len(problems)} violations in {args.trace}", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"ok: {len(records)} rows, no violations")
    return EXIT_OK


def _cmd_dims(args) -> int:
    config = VolterraConfig(order=args.order, memory=args.memory)
    dim = total_dimension(config)
    print(f"order={config.order} memory={config.memory} dimension={dim}")
    print("position order lags")
    for position in range(dim):
        term = term_at(position, config)
        lags = ",".join(str(lag) for lag in term.lags)
        print(f"{position:8d} {term.order:5d} ({lags})")
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "presets": _cmd_presets, "check": _cmd_check, "dims": _cmd_dims}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError, MemoryError) as exc:
        # a MemoryError raised by Python itself carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
