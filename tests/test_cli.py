"""The ``python -m repro`` command line: listing, showing and running scenarios.

Pipeline runs use the smoke scale with an aggressively short ``--duration``
so the whole module stays cheap; the full smoke-scale acceptance runs live
in CI and the examples.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.scenarios import scenario_names


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    """Invoke the CLI in-process and return (exit code, stdout)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestListAndShow:
    def test_list_scenarios_shows_every_entry(self, capsys):
        code, out = run_cli(capsys, "list-scenarios")
        assert code == 0
        for name in scenario_names():
            assert name in out
        assert f"{len(scenario_names())} scenarios registered" in out

    def test_list_scenarios_has_at_least_six_entries(self, capsys):
        _, out = run_cli(capsys, "list-scenarios")
        count = int(out.strip().splitlines()[-1].split()[0])
        assert count >= 6

    def test_show_single_slice_entry(self, capsys):
        code, out = run_cli(capsys, "show", "urllc-control")
        assert code == 0
        assert "100ms @ 95%" in out
        assert "deployed:" in out

    def test_show_multislice_entry_prints_budget_and_slices(self, capsys):
        code, out = run_cli(capsys, "show", "mixed-enterprise")
        assert code == 0
        assert "shared budget" in out
        for slice_name in ("frame-offloading", "embb-video", "urllc-control", "mmtc-telemetry"):
            assert slice_name in out

    def test_show_dynamic_entry_prints_trace(self, capsys):
        _, out = run_cli(capsys, "show", "frame-offloading-diurnal")
        assert "trace:" in out and "DiurnalTrace" in out

    def test_unknown_scenario_exits_2_with_message(self, capsys):
        code = main(["show", "not-a-scenario"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown scenario" in captured.err
        assert "frame-offloading" in captured.err  # lists what IS available

    def test_parser_rejects_bad_stage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "embb-video", "--stage", "4"])


class TestRun:
    def test_run_stage2_single_slice(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--scenario",
            "embb-video",
            "--stage",
            "2",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
        )
        assert code == 0
        assert "stage 2: best offline config" in out
        assert "done" in out

    def test_run_stage3_trains_prerequisite_policy(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--scenario",
            "frame-offloading-diurnal",
            "--stage",
            "3",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
        )
        assert code == 0
        assert "prerequisite offline policy" in out
        # The diurnal trace spans several traffic levels within the smoke
        # budget, so online learning must have segmented.
        assert "traffic segment(s)" in out

    def test_run_multislice_prints_contended_rounds(self, capsys, tmp_path):
        json_path = tmp_path / "summary.json"
        code, out = run_cli(
            capsys,
            "run",
            "--scenario",
            "mixed-enterprise",
            "--stage",
            "2",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
            "--json",
            str(json_path),
        )
        assert code == 0
        assert "contended round (deployed configurations):" in out
        assert "contended round (optimised configurations):" in out
        assert "allocated totals:" in out
        payload = json.loads(json_path.read_text())
        assert payload["scenario"] == "mixed-enterprise"
        assert len(payload["slices"]) == 4
        assert payload["multislice_before"] is not None
        assert payload["multislice_after"] is not None
        # Private (underscore) keys carrying live objects never reach JSON.
        assert "_policy" not in json.dumps(payload)

    def test_run_unknown_scenario_exits_2(self, capsys):
        code = main(["run", "--scenario", "nope", "--stage", "1", "--scale", "smoke"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown scenario" in captured.err

    def test_run_executor_flag_restores_environment(self, capsys, monkeypatch):
        import os

        monkeypatch.delenv("ATLAS_ENGINE_EXECUTOR", raising=False)
        code, _ = run_cli(
            capsys,
            "run",
            "--scenario",
            "urllc-control",
            "--stage",
            "2",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
            "--executor",
            "sharded",
        )
        assert code == 0
        assert "ATLAS_ENGINE_EXECUTOR" not in os.environ

    @pytest.mark.parametrize("command", ["run", "eval", "serve"])
    def test_bad_executor_environment_exits_2_before_running(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # The retired scalar kinds (and any typo) fail at the boundary with
        # one actionable line, not a traceback from deep inside a stage.
        monkeypatch.setenv("ATLAS_ENGINE_EXECUTOR", "serial")
        argv = {
            "run": ["run", "--scenario", "frame-offloading", "--stage", "1", "--scale", "smoke"],
            "eval": ["eval", "--out", str(tmp_path / "out"), "--no-determinism"],
            "serve": ["serve", "--state", str(tmp_path / "state"), "--max-jobs", "0"],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ATLAS_ENGINE_EXECUTOR='serial'")
        for kind in ("auto", "sharded", "vectorized"):
            assert kind in line
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "state").exists()

    def test_explicit_executor_flag_overrides_a_bad_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("ATLAS_ENGINE_EXECUTOR", "serial")
        code, _ = run_cli(
            capsys,
            "run",
            "--scenario",
            "urllc-control",
            "--stage",
            "2",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
            "--executor",
            "vectorized",
        )
        assert code == 0

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_parser_rejects_retired_executor_kinds(self, kind):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "frame-offloading", "--executor", kind])


SMALL_REGISTRY = """\
defaults:
  seeds: [0]
  measurements: 2
  duration_s: 3.0
  usage_ladder: [0.9, 1.0]
cases:
  - group: test
    scenario: urllc-control
    envelopes:
      latency_p95_ms: [0, 100000]
      sla_violation_rate: [0, 1]
      avg_usage_regret: [-10, 10]
      avg_qoe_regret: [-10, 10]
      sim_real_symmetric_kl: [0, 1000]
"""


class TestEval:
    """The `eval` subcommand: report, run layout, gate exit codes."""

    def write_registry(self, tmp_path, text=SMALL_REGISTRY):
        registry = tmp_path / "cases.yaml"
        registry.write_text(text)
        return registry

    def test_eval_writes_report_and_layout(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        out = tmp_path / "eval_out"
        code, text = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(out),
            "--no-determinism",
        )
        assert code == 0
        assert "[PASS] test/urllc-control" in text
        assert "gate: PASS" in text
        report = json.loads((out / "EVAL_report.json").read_text())
        assert report["schema"] == "atlas-eval/1"
        assert (out / "test" / "urllc-control" / "seed=0" / "result.json").exists()
        assert (out / "test" / "urllc-control" / "seed=0" / "events.jsonl").exists()

    def test_eval_json_prints_the_report(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        code, text = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(tmp_path / "out"),
            "--no-determinism",
            "--json",
        )
        assert code == 0
        report = json.loads(text)
        assert report["schema"] == "atlas-eval/1"
        assert report["gate"]["passed"] is True

    def test_eval_gate_failure_exits_1(self, capsys, tmp_path):
        registry = self.write_registry(
            tmp_path,
            SMALL_REGISTRY.replace("latency_p95_ms: [0, 100000]", "latency_p95_ms: [0, 0.001]"),
        )
        code, text = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(tmp_path / "out"),
            "--no-determinism",
        )
        assert code == 1
        assert "BREACH" in text
        assert "gate: FAIL" in text

    def test_eval_seeds_override(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        out = tmp_path / "out"
        code, _ = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(out),
            "--seeds",
            "5",
            "--no-determinism",
        )
        assert code == 0
        assert (out / "test" / "urllc-control" / "seed=5" / "result.json").exists()

    def test_eval_unknown_scenario_filter_exits_2(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        code = main(
            [
                "eval",
                "--cases",
                str(registry),
                "--scenario",
                "not-a-scenario",
                "--out",
                str(tmp_path / "out"),
                "--no-determinism",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not-a-scenario" in captured.err

    def test_eval_executor_flag_is_recorded_but_metric_neutral(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        reports = {}
        for kind in ("vectorized", "sharded"):
            out = tmp_path / f"out-{kind}"
            code, _ = run_cli(
                capsys,
                "eval",
                "--cases",
                str(registry),
                "--group",
                "test",
                "--out",
                str(out),
                "--executor",
                kind,
                "--no-determinism",
            )
            assert code == 0
            reports[kind] = json.loads((out / "EVAL_report.json").read_text())
        assert reports["vectorized"]["provenance"]["executor"]["requested"] == "vectorized"
        assert reports["sharded"]["provenance"]["executor"]["requested"] == "sharded"
        # Every executor kind produces the same bytes.
        assert reports["vectorized"]["results"] == reports["sharded"]["results"]
