"""afflint CLI, harness pre-flight, and the golden zero-findings check."""

from pathlib import Path

import pytest

from repro.analysis.diagnostics import LintFailure
from repro.analysis.lint import cli, lint_workload_plans
from repro.harness import runner

FIXTURES = Path(__file__).resolve().parent.parent / "examples" / "lint_fixtures"


class TestGoldenWorkloads:
    def test_shipped_plans_have_zero_findings(self):
        """Table-3 workload layouts lint clean at the default scale."""
        result, per_workload = lint_workload_plans(scale=0.12)
        assert not result.report.has_findings, result.report.render()
        for name, report in per_workload.items():
            assert not report.has_findings, (name, report.render())

    def test_every_affine_workload_declares_a_plan(self):
        _, per_workload = lint_workload_plans(scale=0.12)
        assert {"vecadd", "pathfinder", "hotspot", "srad",
                "hotspot3D"} <= set(per_workload)


class TestCli:
    def test_default_invocation_is_clean(self, capsys):
        assert cli([]) == 0
        out = capsys.readouterr().out
        assert "vecadd" in out

    def test_fixture_dir_fails_without_expect(self, capsys):
        assert cli([str(FIXTURES)]) == 1

    def test_fixture_dir_passes_with_expect(self, capsys):
        assert cli([str(FIXTURES), "--expect-findings"]) == 0
        out = capsys.readouterr().out
        for code in ("AFF001", "AFF004", "AFF005", "AFF006", "LIF001",
                     "LIF002", "LIF003", "RACE001", "RACE002", "COV001"):
            assert code in out, code

    def test_strict_fails_on_warning_only_fixture(self):
        fixture = FIXTURES / "padding_waste.py"
        assert cli([str(fixture)]) == 0
        assert cli([str(fixture), "--strict"]) == 1

    def test_expect_findings_fails_when_clean(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "def build(session):\n"
            "    from repro.analysis.plan import LayoutPlan\n"
            "    plan = LayoutPlan('clean')\n"
            "    plan.array('A', 4, 1024)\n"
            "    session.add_plan(plan)\n")
        assert cli([str(clean), "--expect-findings"]) == 1

    def test_unreadable_replay_file_is_usage_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"records": [')
        for path in (str(tmp_path / "nope.json"), str(broken)):
            for flag in ("--fault-log", "--migration-plan"):
                with pytest.raises(SystemExit) as exc:
                    cli([flag, path])
                assert exc.value.code == 2, (flag, path)
                assert "cannot load" in capsys.readouterr().err

    def test_main_delegates_lint_subcommand(self):
        from repro.__main__ import main
        assert main(["lint"]) == 0


class TestPreflight:
    def test_preflight_emits_progress_line(self):
        lines = []
        runner.run_figures(["table2"], preflight=True,
                           progress=lines.append)
        assert any(line.startswith("[preflight] afflint") for line in lines)

    def test_preflight_can_be_disabled(self):
        lines = []
        runner.run_figures(["table2"], preflight=False,
                           progress=lines.append)
        assert not any("preflight" in line for line in lines)

    def test_preflight_raises_on_plan_errors(self, monkeypatch):
        from repro.analysis.plan import LayoutPlan
        from repro.workloads import WORKLOADS
        from repro.workloads.base import Workload

        class Broken(Workload):
            name = "broken_lint_wl"

            def default_params(self):
                return {}

            def run(self, *a, **k):  # pragma: no cover
                raise NotImplementedError

            def layout_plan(self, scale=1.0, **overrides):
                plan = LayoutPlan(self.name)
                plan.array("huge", 4, 1 << 39)  # AFF006
                return plan

        monkeypatch.setitem(WORKLOADS, "broken_lint_wl", Broken())
        with pytest.raises(LintFailure):
            runner.run_figures(["table2"], preflight=True)
