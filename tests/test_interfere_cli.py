"""CLI contract tests for ``repro interfere`` and the chaos composition.

Pins the cliutil exit-code contract (0 success / 1 failed check /
2 usage error) across both new surfaces, including the regression where
``repro chaos`` used to blow up with a traceback (exit 1) instead of a
usage error when handed an unreadable plan path — with or without an
``--interfere`` plan riding along.
"""

import json

import pytest

from repro.faults.chaos import cli as chaos_cli
from repro.harness.cliutil import EXIT_FAILURE, EXIT_OK, EXIT_USAGE
from repro.interfere.cli import cli as interfere_cli
from repro.interfere.plan import HostTrafficPlan

WORKLOAD_ARGS = ["vecadd", "--scale", "0.05", "--sweep", "1"]


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    HostTrafficPlan.generate(0).save(path)
    return path


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"streams": [')
    return path


class TestInterfereCli:
    def test_success_exit_ok(self, capsys):
        assert interfere_cli(WORKLOAD_ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "Host-contention report" in out

    def test_unknown_workload_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(["no_such_workload"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_plan_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(WORKLOAD_ARGS
                          + ["--plan", str(tmp_path / "nope.json")])
        assert exc.value.code == EXIT_USAGE

    def test_broken_plan_file_is_usage_error(self, broken_file):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(WORKLOAD_ARGS + ["--plan", str(broken_file)])
        assert exc.value.code == EXIT_USAGE

    def test_bad_sweep_is_usage_error(self):
        for sweep in ("1,-2", "nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                interfere_cli(["vecadd", "--sweep", sweep])
            assert exc.value.code == EXIT_USAGE, sweep

    def test_negative_intensity_is_usage_error(self):
        for intensity in ("-3", "nan"):
            with pytest.raises(SystemExit) as exc:
                interfere_cli(["vecadd", "--intensity", intensity])
            assert exc.value.code == EXIT_USAGE, intensity

    def test_unmet_min_slowdown_is_check_failure(self):
        assert interfere_cli(["vecadd", "--scale", "0.05", "--sweep",
                              "0.001", "--min-slowdown", "10"]) \
            == EXIT_FAILURE

    def test_met_min_slowdown_passes(self):
        assert interfere_cli(["vecadd", "--scale", "0.05", "--sweep", "4",
                              "--min-slowdown", "1.5"]) == EXIT_OK

    def test_save_report_and_plan(self, tmp_path, plan_file):
        report_path = tmp_path / "report.json"
        plan_out = tmp_path / "plan_out.json"
        assert interfere_cli(WORKLOAD_ARGS
                             + ["--plan", str(plan_file),
                                "--save-report", str(report_path),
                                "--save-plan", str(plan_out)]) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert payload["rows"][0]["workload"] == "vecadd"
        assert payload["rows"][0]["arms"][0]["slowdown"] >= 1.0
        assert HostTrafficPlan.load(plan_out) \
            == HostTrafficPlan.load(plan_file)


class TestChaosInterfereComposition:
    def test_both_plans_compose_exit_ok(self, tmp_path, plan_file, capsys):
        fault_plan = tmp_path / "faults.json"
        # generate-then-save via the chaos CLI's own plan generator
        from repro.faults.plan import FaultPlan
        FaultPlan.generate(0, 0.05, tasks=1).save(fault_plan)
        assert chaos_cli(["vecadd", "--scale", "0.05",
                          "--plan", str(fault_plan),
                          "--interfere", str(plan_file)]) == EXIT_OK
        assert "inj msgs" in capsys.readouterr().out

    def test_interfered_chaos_report_carries_injection(self, plan_file,
                                                       tmp_path):
        report_path = tmp_path / "report.json"
        assert chaos_cli(["vecadd", "--scale", "0.05", "--seed", "3",
                          "--interfere", str(plan_file),
                          "--save-report", str(report_path)]) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert payload["interfere"]["seed"] == 0
        assert payload["rows"][0]["injected_messages"] > 0

    def test_plain_chaos_report_has_no_interfere_keys(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert chaos_cli(["vecadd", "--scale", "0.05",
                          "--save-report", str(report_path)]) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert "interfere" not in payload
        assert all("injected_messages" not in row
                   for row in payload["rows"])

    def test_missing_fault_plan_is_usage_error_not_traceback(self,
                                                             tmp_path):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--plan", str(tmp_path / "nope.json")])
        assert exc.value.code == EXIT_USAGE

    def test_broken_fault_plan_is_usage_error(self, broken_file):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--plan", str(broken_file)])
        assert exc.value.code == EXIT_USAGE

    def test_missing_interfere_plan_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--interfere",
                       str(tmp_path / "nope.json")])
        assert exc.value.code == EXIT_USAGE

    def test_broken_interfere_plan_is_usage_error(self, broken_file):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--interfere", str(broken_file)])
        assert exc.value.code == EXIT_USAGE
