"""``python -m repro trace`` / ``python -m repro info`` CLI contracts.

Pins the trace CLI's round-trips (``--out``/``--metrics``/``--top``),
its jobs-independence (``--jobs 1`` and ``--jobs 2`` write byte-identical
files), the ``--diff``/``--validate`` exit codes, and the uniform CLI
conventions (exit codes, ``--seed``) across subcommands.
"""

import json

import pytest

from repro.harness.cliutil import (EXIT_FAILURE, EXIT_OK, EXIT_USAGE,
                                   add_seed_argument)
from repro.obs.cli import cli as trace_cli
from repro.obs.cli import run_trace

SCALE = 0.05


@pytest.fixture(scope="module")
def traced_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace-cli")
    trace_path = out / "trace.json"
    metrics_json = out / "metrics.json"
    metrics_csv = out / "metrics.csv"
    rc = trace_cli(["vecadd", "--scale", str(SCALE), "--top", "3",
                    "--out", str(trace_path),
                    "--metrics", str(metrics_json)])
    assert rc == EXIT_OK
    rc = trace_cli(["vecadd", "--scale", str(SCALE),
                    "--metrics", str(metrics_csv)])
    assert rc == EXIT_OK
    return trace_path, metrics_json, metrics_csv


class TestTraceCli:
    def test_out_is_valid_chrome_trace(self, traced_files):
        trace_path, _, _ = traced_files
        from repro.obs.export import validate_chrome_trace
        obj = json.loads(trace_path.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"]["targets"] == ["vecadd"]

    def test_metrics_json_roundtrip(self, traced_files):
        _, metrics_json, _ = traced_files
        data = json.loads(metrics_json.read_text())
        (label,) = data.keys()
        assert "vecadd" in label
        assert data[label]["run_cycles"] > 0

    def test_metrics_csv_has_header_and_rows(self, traced_files):
        _, _, metrics_csv = traced_files
        lines = metrics_csv.read_text().splitlines()
        assert lines[0] == "run,metric,value"
        assert len(lines) > 10

    def test_validate_subcommand(self, traced_files, tmp_path, capsys):
        trace_path, _, _ = traced_files
        assert trace_cli(["--validate", str(trace_path)]) == EXIT_OK
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"traceEvents": [{"ph": "Z", "name": 3}]}))
        assert trace_cli(["--validate", str(bad)]) == EXIT_FAILURE
        capsys.readouterr()

    def test_diff_identical_and_different(self, traced_files, tmp_path,
                                          capsys):
        trace_path, _, _ = traced_files
        assert trace_cli(["--diff", str(trace_path),
                          str(trace_path)]) == EXIT_OK
        other = tmp_path / "other.json"
        obj = json.loads(trace_path.read_text())
        obj["traceEvents"] = obj["traceEvents"][:-1]
        other.write_text(json.dumps(obj))
        assert trace_cli(["--diff", str(trace_path),
                          str(other)]) == EXIT_FAILURE
        capsys.readouterr()

    def test_unknown_target_exits_usage(self, capsys):
        for argv in (["no_such_workload"], ["vecadd", "--scale", "-1"],
                     ["vecadd", "--max-events", "-5"]):
            with pytest.raises(SystemExit) as exc:
                trace_cli(argv)
            assert exc.value.code == EXIT_USAGE, argv
        capsys.readouterr()

    def test_unreadable_trace_file_exits_usage(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"traceEvents": [')
        for path in (str(tmp_path / "nope.json"), str(broken)):
            for argv in (["--diff", path, path], ["--validate", path]):
                with pytest.raises(SystemExit) as exc:
                    trace_cli(argv)
                assert exc.value.code == EXIT_USAGE, argv
                assert "cannot load trace" in capsys.readouterr().err

    def test_jobs_byte_identity(self, tmp_path, capsys):
        paths = {}
        for jobs in (1, 2):
            t = tmp_path / f"t{jobs}.json"
            m = tmp_path / f"m{jobs}.json"
            rc = trace_cli(["vecadd", "pr_push", "--scale", str(SCALE),
                            "--jobs", str(jobs), "--out", str(t),
                            "--metrics", str(m)])
            assert rc == EXIT_OK
            paths[jobs] = (t, m)
        capsys.readouterr()
        assert paths[1][0].read_bytes() == paths[2][0].read_bytes()
        assert paths[1][1].read_bytes() == paths[2][1].read_bytes()

    def test_experiment_target_traces_every_machine(self):
        payload = run_trace(["table1"], scale=SCALE)
        # tables build no machines; the payload is simply empty
        assert payload["states"] == []
        payload = run_trace(["vecadd"], scale=SCALE)
        assert len(payload["states"]) == 1
        assert payload["states"][0]["pid"] == 0


class TestInfoCli:
    def test_json_payload(self, capsys):
        from repro.harness.info import cli as info_cli
        assert info_cli(["--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["version"]
        assert data["defaults"] == {"seed": 0, "scale": 0.12, "jobs": 1}
        assert "vecadd" in data["workloads"]
        assert "fig12" in data["experiments"]
        assert "trace" in data["subcommands"]
        assert data["cache"]["dir"]

    def test_text_mentions_registries(self, capsys):
        from repro.harness.info import cli as info_cli
        assert info_cli([]) == EXIT_OK
        out = capsys.readouterr().out
        assert "workloads" in out and "experiments" in out


class TestUniformCliConventions:
    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE) == (0, 1, 2)

    def test_add_seed_argument(self):
        import argparse
        p = argparse.ArgumentParser()
        add_seed_argument(p, default=7)
        assert p.parse_args([]).seed == 7
        assert p.parse_args(["--seed", "3"]).seed == 3

    def test_every_subcommand_accepts_seed(self):
        """--seed parses everywhere (uniformity contract from README)."""
        import argparse

        from repro.analysis.lint import cli as lint_cli
        from repro.faults.chaos import cli as chaos_cli
        from repro.perf.bench import cli as bench_cli
        from repro.relayout.autoplace import cli as autoplace_cli

        # parse-only probes: invalid second flag aborts before running
        for cli_fn in (lint_cli, chaos_cli, autoplace_cli, bench_cli,
                       trace_cli):
            with pytest.raises(SystemExit) as exc:
                cli_fn(["--seed", "1", "--definitely-not-a-flag"])
            assert exc.value.code == EXIT_USAGE, cli_fn
        # argparse must know --seed for all of them: a bad *value* also
        # exits 2, but an unknown --seed flag would print its own error
        for cli_fn in (lint_cli, chaos_cli, autoplace_cli, bench_cli,
                       trace_cli):
            with pytest.raises(SystemExit):
                argparse_probe = ["--seed", "not-an-int"]
                cli_fn(argparse_probe)
