"""Command-line surface: subcommands, exit codes, output files."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dsvolterra import harness
from dsvolterra.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, _build_parser, main
from dsvolterra.robustness import (
    Ledger,
    _row_table,
    prefix_ratios,
    read_trace_csv,
    summarize_run,
    verify_trace,
    write_trace_csv,
)

PRESET_DIR = Path(__file__).resolve().parent.parent / "src" / "dsvolterra" / "presets"
SMALL_CONFIG = {
    "schema_version": 1,
    "name": "cli-small",
    "volterra": {"order": 2, "memory": 2, "regularization": 1e-9},
    "channel": {
        "order": 2,
        "memory": 2,
        "terms": [
            {"order": 1, "lags": [0], "value": -0.76},
            {"order": 2, "lags": [0, 0], "value": 0.5},
        ],
    },
    "input": {"kind": "white_gaussian", "variance": 1.0},
    "noise": {"kind": "gaussian", "variance": 0.01},
    "algorithms": [
        {
            "label": "ds",
            "kind": "ds_vnlms",
            "policy": {"mode": "fixed", "gamma_fixed": 0.22360679774997896},
        }
    ],
    "iterations": 200,
    "trials": 1,
    "seed": 3,
}


@pytest.fixture()
def small_config_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestDims:
    def test_table(self, capsys):
        assert main(["dims", "2", "1"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "order=2 memory=1 dimension=5"
        assert out[1] == "position order lags"
        assert len(out) == 2 + 5
        assert out[2].split() == ["0", "1", "(0)"]
        assert out[-1].split() == ["4", "2", "(1,1)"]

    def test_invalid_layout_is_usage_error(self, capsys):
        assert main(["dims", "0", "1"]) == EXIT_USAGE

    # a huge order, and a memory-0 layout within the term limit whose lag
    # table would still need O(order^2) memory
    @pytest.mark.parametrize("order, memory", [(100_000_000, 3), (2_000_000, 0)])
    def test_huge_layout_rejected_at_once(self, order, memory, tmp_path, capsys):
        start = time.perf_counter()
        assert main(["dims", str(order), str(memory)]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        config = {**SMALL_CONFIG, "volterra": {"order": order, "memory": memory}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        start = time.perf_counter()
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert "beyond the supported maximum" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPresets:
    def test_lists_all(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("fig1a", "fig1b", "fig2a", "fig2b", "fig5", "fig6", "fig5-blue", "fig6-blue"):
            assert name in out

    def test_lists_in_sorted_order(self, capsys):
        assert main(["presets"]) == EXIT_OK
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert names == sorted(p.stem for p in PRESET_DIR.glob("*.json"))


class TestRun:
    def test_config_file(self, small_config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", str(small_config_path), "--out", str(out_dir)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "local_violations=0" in stdout
        assert (out_dir / "trial_000" / "ds" / "trace.csv").is_file()

    def test_preset_by_name_with_overrides(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["run", "fig1a", "--trials", "1", "--seed", "7", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "name=fig1a" in stdout
        assert "seed=7" in stdout
        assert "local_violations=0" in stdout

    def test_preset_file_path(self, tmp_path, capsys):
        # the committed preset files run directly as configs
        out_dir = tmp_path / "out"
        config = json.loads((PRESET_DIR / "fig1a.json").read_text())
        config["iterations"] = 150
        path = tmp_path / "fig1a.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_OK

    def test_verdict_line_marks_a_missing_value_na(self, tmp_path, capsys):
        # a VNLMS variant has no threshold, so no Gaussian-tail bound
        config = dict(SMALL_CONFIG, algorithms=[{"label": "nlms", "kind": "vnlms", "mu": 0.5}])
        path = tmp_path / "vnlms.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        (line,) = [line for line in capsys.readouterr().out.splitlines() if "variant=" in line]
        assert "variant=nlms" in line
        assert " erfc_bound=na " in f"{line} "

    def test_quiet(self, small_config_path, tmp_path, capsys):
        assert (
            main(["run", str(small_config_path), "--out", str(tmp_path / "o"), "--quiet"])
            == EXIT_OK
        )
        assert capsys.readouterr().out == ""

    def test_missing_target_is_usage_error(self, capsys):
        assert main(["run"]) == EXIT_USAGE

    def test_two_targets_is_usage_error(self, small_config_path, capsys):
        assert main(["run", str(small_config_path), "fig1a"]) == EXIT_USAGE

    def test_directory_does_not_shadow_a_preset(self, tmp_path, monkeypatch, capsys):
        # only a file is a config: a directory left by `run fig1a --out fig1a`
        # must not turn a later `run fig1a` into an i/o error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig1a").mkdir()
        assert main(["run", "fig1a", "--trials", "1", "--out", "o", "--quiet"]) == EXIT_OK
        assert (tmp_path / "o" / "trial_000" / "ds_fixed" / "trace.csv").is_file()

    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["run", "fig9"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, field",
        [(["--seed", "-1"], "seed"), (["--trials", "0"], "trials")],
        ids=["negative_seed", "zero_trials"],
    )
    def test_invalid_override_names_the_field(self, flags, field, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "fig1a", *flags, "--out", str(out_dir)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, err
        assert not out_dir.exists()

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1}')
        assert main(["run", str(path)]) == EXIT_USAGE

    def test_unwritable_output_is_io_error(self, small_config_path, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["run", str(small_config_path), "--out", str(blocker / "nested")])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "message, line",
        [("Unable to allocate 3.64 TiB for an array", None), ("", "MemoryError")],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_one_error_line(
        self, message, line, small_config_path, tmp_path, monkeypatch, capsys
    ):
        # the error is raised in place of the run, so nothing is allocated
        def exhausted(config, out_dir):
            raise MemoryError(message)

        monkeypatch.setattr(harness, "compare_algorithms", exhausted)
        out_dir = tmp_path / "out"
        assert main(["run", str(small_config_path), "--out", str(out_dir)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {line or message}\n"
        assert captured.out == ""

    def test_overflowing_energy_is_one_error_line(self, tmp_path, capsys):
        # fig1a in layout (3, 3) on input of variance 1e104: x'x overflows, so
        # run refuses the realization (exit 1) and writes no trace for check
        payload = json.loads((PRESET_DIR / "fig1a.json").read_text())
        payload["volterra"].update(order=3, memory=3)
        payload["input"]["variance"] = 1e104
        path, out_dir = tmp_path / "huge.json", tmp_path / "out"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--trials", "1", "--out", str(out_dir)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: row k=")
        assert "energy x'x + delta is not finite" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", sorted(p.stem for p in PRESET_DIR.glob("*.json")))
    def test_summary_rederives_from_trace(self, name, tmp_path):
        # every verdict field from the trace, the tail bound from the config
        config = harness.preset(name)
        out_dir = tmp_path / "out"
        argv = ["run", name, "--trials", "2", "--seed", "1", "--out", str(out_dir), "--quiet"]
        assert main(argv) == EXIT_OK
        summaries = sorted(out_dir.glob("trial_*/*/summary.json"))
        assert len(summaries) == 2 * len(config.algorithms)
        runs = json.loads((out_dir / "summary.json").read_text())["runs"]
        for path in summaries:
            run = json.loads(path.read_text())
            assert run in runs, path
            (alg,) = (a for a in config.algorithms if a.label == run["variant"])
            ledger = read_trace_csv(path.parent / "trace.csv")
            tau = harness._tau_for_bound(alg, config.noise)
            verdict = summarize_run(ledger, tau_for_bound=tau)
            rederived = verdict.as_dict()
            assert rederived == {f: run[f] for f in rederived}, path
            assert verdict.global_ratio == prefix_ratios(ledger)[-1].item(), path

    def test_reruns_byte_identical(self, small_config_path, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(small_config_path), "--out", str(out_a), "--quiet"]) == EXIT_OK
        assert main(["run", str(small_config_path), "--out", str(out_b), "--quiet"]) == EXIT_OK
        for rel in sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


class TestCheck:
    def test_round_trip_on_emitted_trace(self, small_config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"]) == EXIT_OK
        trace = out_dir / "trial_000" / "ds" / "trace.csv"
        assert main(["check", str(trace)]) == EXIT_OK
        assert "no violations" in capsys.readouterr().out

    def test_corrupted_trace_fails(self, small_config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"])
        trace = out_dir / "trial_000" / "ds" / "trace.csv"
        records = list(read_trace_csv(trace))
        target = next(i for i, r in enumerate(records) if r.updated)
        # the deviation energy after the update raised past the row's rhs
        rhs = _row_table(Ledger.of(records))["rhs"]
        records[target] = dataclasses.replace(records[target], wtilde_sq_after=rhs[target] + 1.0)
        write_trace_csv(records, trace)
        assert main(["check", str(trace)]) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert f"row k={records[target].k}: local energy inequality violated" in err

    @pytest.mark.parametrize(
        "column, value, row",
        [("n", "nan", "non_update_after_first_update"), ("wtilde_sq_after", "inf", "first_update")],
    )
    def test_non_finite_field_fails(self, small_config_path, tmp_path, capsys, column, value, row):
        # a NaN on a non-update row once slipped past every comparison and
        # switched off the prefix-ratio check for the rest of the trace
        out_dir = tmp_path / "out"
        main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"])
        trace = out_dir / "trial_000" / "ds" / "trace.csv"
        lines = trace.read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        first = next(i for i, r in enumerate(rows) if r[header.index("updated")] == "1")
        if row == "first_update":
            target = first
        else:
            target = next(
                i for i, r in enumerate(rows) if i > first and r[header.index("updated")] == "0"
            )
        rows[target][header.index(column)] = value
        trace.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        assert main(["check", str(trace)]) != EXIT_OK
        err = capsys.readouterr().err
        assert f"{trace}:{target + 2}: column {column} is not finite" in err

    @pytest.mark.parametrize("removed", ["one_mid_run_update", "first_ten_updates"])
    def test_trace_with_rows_removed_fails(self, small_config_path, tmp_path, capsys, removed):
        # every remaining row still checks on its own; only the numbering and
        # the deviation-energy chain show the gap
        out_dir = tmp_path / "out"
        main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"])
        trace = out_dir / "trial_000" / "ds" / "trace.csv"
        lines = trace.read_text().splitlines()
        column = lines[0].split(",").index("updated")
        updates = [i for i, line in enumerate(lines) if line.split(",")[column] == "1"]
        if removed == "one_mid_run_update":
            drop = {updates[len(updates) // 2]}
        else:
            drop = set(updates[:10])
        trace.write_text("\n".join(l for i, l in enumerate(lines) if i not in drop) + "\n")
        assert main(["check", str(trace)]) == EXIT_VERIFICATION
        assert "rows must run k = 0..K-1" in capsys.readouterr().err

    def test_crlf_trace_is_rejected(self, small_config_path, tmp_path, capsys):
        # a CRLF copy of a clean trace once read and certified
        out_dir = tmp_path / "out"
        main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"])
        trace = out_dir / "trial_000" / "ds" / "trace.csv"
        trace.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["check", str(trace)]) == EXIT_USAGE
        assert f"{trace}:1: " in capsys.readouterr().err

    def test_older_trace_format_is_a_read_error(self, small_config_path, tmp_path, capsys):
        # a trace that still stores lhs and rhs gets one message, not a verdict
        out_dir = tmp_path / "out"
        main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"])
        lines = (out_dir / "trial_000" / "ds" / "trace.csv").read_text().splitlines()
        # the ten leading columns, before in_transient was written
        header, *rows = [",".join(line.split(",")[:10]) for line in lines]
        trace = tmp_path / "old.csv"
        trace.write_text("\n".join([header + ",lhs,rhs"] + [row + ",0,0" for row in rows]) + "\n")
        assert main(["check", str(trace)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {trace}:1: trace has the lhs,rhs columns of an older format;"
            " re-run its config.json\n"
        )

    def test_trace_without_in_transient_is_a_read_error(
        self, small_config_path, tmp_path, capsys
    ):
        # the ten-column format written before in_transient joined the trace
        out_dir = tmp_path / "out"
        main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"])
        lines = (out_dir / "trial_000" / "ds" / "trace.csv").read_text().splitlines()
        trace = tmp_path / "old.csv"
        trace.write_text("\n".join(",".join(line.split(",")[:10]) for line in lines) + "\n")
        assert main(["check", str(trace)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {trace}:1: trace has no in_transient column of an older format;"
            " re-run its config.json\n"
        )

    def test_violations_past_twenty_are_counted(self, small_config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", str(small_config_path), "--out", str(out_dir), "--quiet"])
        trace = out_dir / "trial_000" / "ds" / "trace.csv"
        records = read_trace_csv(trace)
        # e moved off e_tilde + n on every row: one violation at least per row
        write_trace_csv([dataclasses.replace(r, e=r.e + 1.0) for r in records], trace)
        problems = verify_trace(read_trace_csv(trace))
        assert len(problems) > 20
        assert main(["check", str(trace)]) == EXIT_VERIFICATION
        lines = capsys.readouterr().err.splitlines()
        assert lines[:20] == problems[:20]
        assert lines[20:] == [
            f"... and {len(problems) - 20} more",
            f"FAIL: {len(problems)} violations in {trace}",
        ]

    def test_update_without_improvement_fails(self, tmp_path, capsys):
        # fig1a's update k=173 (e_tilde^2 >= n^2) made a no-op that keeps the
        # local inequality and the energy chain: only conditional improvement fails
        out_dir = tmp_path / "out"
        argv = ["run", "fig1a", "--trials", "1", "--seed", "1", "--out", str(out_dir), "--quiet"]
        assert main(argv) == EXIT_OK
        trace = out_dir / "trial_000" / "ds_fixed" / "trace.csv"
        records = list(read_trace_csv(trace))
        r = records[173]
        records[173] = dataclasses.replace(r, mu_bar=0.0, wtilde_sq_after=r.wtilde_sq_before)
        records[174] = dataclasses.replace(records[174], wtilde_sq_before=r.wtilde_sq_before)
        write_trace_csv(records, trace)
        assert main(["check", str(trace)]) == EXIT_VERIFICATION
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("row k=173: conditional improvement violated (")
        assert err[1:] == [f"FAIL: 1 violations in {trace}"]

    def test_header_only_trace_fails(self, tmp_path, capsys):
        # negative control: a trace without rows certifies nothing
        trace = tmp_path / "trace.csv"
        write_trace_csv([], trace)
        assert main(["check", str(trace)]) == EXIT_VERIFICATION
        assert "trace has no rows" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.csv")]) == EXIT_IO

    def test_malformed_csv_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["check", str(path)]) == EXIT_USAGE


class TestOneProcess:
    def test_commands_in_turn_behave_as_alone(self, small_config_path, tmp_path, capsys):
        # the parser is built once per process and reused by every call
        out_dir = tmp_path / "out"
        commands = [
            ["run", str(small_config_path), "--out", str(out_dir)],
            ["check", str(out_dir / "trial_000" / "ds" / "trace.csv")],
            ["run", str(small_config_path), "--no-such-flag"],
            ["dims", "2", "1"],
        ]

        def outcome(argv):
            return main(argv), capsys.readouterr()

        alone = []
        for argv in commands:
            _build_parser.cache_clear()
            alone.append(outcome(argv))
        assert [outcome(argv) for argv in commands] == alone
        assert [code for code, _ in alone] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert _build_parser() is _build_parser()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dsvolterra", "dims", "2", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(PRESET_DIR.parent.parent)},
        )
        assert proc.returncode == EXIT_OK
        assert "dimension=5" in proc.stdout
