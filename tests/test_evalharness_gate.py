"""The regression gate and the atlas-eval/1 report.

Includes the mutation smoke tests the gate owes its existence to: a gate
that only ever passes proves nothing, so these tests perturb an envelope,
inject a biased latency offset, and break determinism on purpose — and
assert the gate fails each time with an actionable message.
"""

from __future__ import annotations

import json

import pytest

import repro.evalharness.gate as gate_module
from repro.evalharness import (
    REPORT_SCHEMA,
    Envelope,
    EvalCase,
    EvalRunner,
    build_report,
    canonical_results_bytes,
    check_determinism,
    check_envelopes,
    evaluate,
    render_report,
    run_gate,
    write_report,
)
from repro.evalharness.runner import SeedRunResult

WIDE = {
    "latency_p95_ms": Envelope(0.0, 100000.0),
    "sla_violation_rate": Envelope(0.0, 1.0),
    "avg_usage_regret": Envelope(-10.0, 10.0),
    "avg_qoe_regret": Envelope(-10.0, 10.0),
    "sim_real_symmetric_kl": Envelope(0.0, 1000.0),
}


def small_case(**changes) -> EvalCase:
    base = EvalCase(
        group="test",
        scenario="urllc-control",
        seeds=(0,),
        measurements=2,
        duration_s=3.0,
        usage_ladder=(0.9, 1.0),
        envelopes=dict(WIDE),
    )
    return base.replace(**changes) if changes else base


class TestEnvelopeCheck:
    def test_passes_inside_wide_envelopes(self):
        runner = EvalRunner()
        results = runner.run_cases([small_case()])
        assert check_envelopes(results) == []

    def test_mutated_envelope_fails_with_actionable_message(self):
        """Mutation smoke: perturb one expected envelope, the gate must fail."""
        mutated = small_case(
            envelopes={**WIDE, "latency_p95_ms": Envelope(0.0, 0.001)}
        )
        results = EvalRunner().run_cases([mutated])
        failures = check_envelopes(results)
        assert len(failures) == 1
        failure = failures[0]
        assert failure.kind == "envelope"
        assert failure.metric == "latency_p95_ms"
        assert "test/urllc-control" in failure.message
        assert "[0.0, 0.001]" in failure.message

    def test_injected_latency_bias_fails_the_gate(self):
        """Mutation smoke: a biased system must breach calibrated envelopes."""
        clean_runner = EvalRunner()
        case = small_case()
        clean = clean_runner.run_cases([case])[0]
        p95 = clean.metrics["latency_p95_ms"]
        calibrated = case.replace(
            envelopes={**WIDE, "latency_p95_ms": Envelope(p95 * 0.7, p95 * 1.3)}
        )
        assert check_envelopes(EvalRunner().run_cases([calibrated])) == []
        biased_results = EvalRunner(latency_bias_ms=p95).run_cases([calibrated])
        failures = check_envelopes(biased_results)
        assert any(f.metric == "latency_p95_ms" for f in failures)


class TestDeterminismCheck:
    def test_passes_on_a_deterministic_pipeline(self):
        runner = EvalRunner()
        results = runner.run_cases([small_case()])
        assert check_determinism(runner, results) == []

    def test_detects_a_nondeterministic_replay(self, monkeypatch):
        """Mutation smoke: break replay determinism, the gate must notice."""

        class DriftingRunner(EvalRunner):
            def run_seed(self, case, seed):
                result = super().run_seed(case, seed)
                drifted = dict(result.metrics)
                drifted["latency_p95_ms"] += 0.5  # numerics drift on rerun
                return SeedRunResult(
                    case_id=result.case_id,
                    group=result.group,
                    scenario=result.scenario,
                    seed=result.seed,
                    executor=result.executor,
                    metrics=drifted,
                    events=result.events,
                    latency_bias_ms=result.latency_bias_ms,
                )

        runner = EvalRunner()
        results = runner.run_cases([small_case()])
        monkeypatch.setattr(gate_module, "EvalRunner", DriftingRunner)
        failures = check_determinism(runner, results)
        assert len(failures) == 1
        assert failures[0].kind == "determinism"
        assert "no longer deterministic" in failures[0].message


class TestRunGate:
    def test_gate_passes_and_lists_checks(self):
        runner = EvalRunner()
        cases = [small_case()]
        results = runner.run_cases(cases)
        verdict = run_gate(runner, results, cases=cases, determinism=True, coverage=False)
        assert verdict.passed
        assert verdict.checks == ["envelope", "determinism"]
        assert verdict.as_dict()["failures"] == []

    def test_gate_collects_failures_across_checks(self):
        runner = EvalRunner()
        mutated = small_case(envelopes={**WIDE, "sla_violation_rate": Envelope(0.999, 1.0)})
        results = runner.run_cases([mutated])
        verdict = run_gate(runner, results, cases=[mutated], determinism=False, coverage=True)
        assert not verdict.passed
        kinds = {failure.kind for failure in verdict.failures}
        assert "envelope" in kinds
        assert "coverage" in kinds  # a single test case cannot cover the catalog


class TestReport:
    def test_report_schema_and_summary(self):
        runner = EvalRunner()
        cases = [small_case()]
        results = runner.run_cases(cases)
        verdict = run_gate(runner, results, cases=cases, determinism=False, coverage=False)
        report = build_report(results, executor=None, gate=verdict.as_dict())
        assert report["schema"] == REPORT_SCHEMA
        assert report["summary"]["cases"] == 1
        assert report["summary"]["runs"] == 1
        assert report["summary"]["gate_passed"] is True
        entry = report["results"][0]
        assert entry["case"] == "test/urllc-control"
        assert entry["passed"] is True
        assert entry["envelopes"]["latency_p95_ms"]["pass"] is True
        assert report["provenance"]["executor"]["runs"]

    def test_nan_metrics_are_sanitised_to_null(self):
        run = SeedRunResult(
            case_id="test/urllc-control",
            group="test",
            scenario="urllc-control",
            seed=0,
            executor={"kind": "vectorized", "resolved": "vectorized"},
            metrics={"latency_p95_ms": float("nan")},
            events=(),
        )
        payload = run.result_payload()
        assert payload["metrics"]["latency_p95_ms"] is None
        json.dumps(payload)  # strict JSON, no NaN tokens

    def test_write_report_is_deterministic(self, tmp_path):
        runner = EvalRunner()
        results = runner.run_cases([small_case()])
        report = build_report(results, gate=None)
        first = write_report(report, tmp_path / "a.json").read_text()
        second = write_report(report, tmp_path / "b.json").read_text()
        assert first == second
        assert first.endswith("\n")
        assert json.loads(first)["schema"] == REPORT_SCHEMA

    def test_canonical_results_bytes_exclude_provenance(self):
        runner = EvalRunner()
        results = runner.run_cases([small_case()])
        report_a = build_report(results, executor="vectorized", gate=None)
        report_b = build_report(results, executor="sharded", gate=None)
        assert report_a["provenance"] != report_b["provenance"]
        assert canonical_results_bytes(report_a) == canonical_results_bytes(report_b)

    def test_render_report_marks_breaches_and_gate_failures(self):
        runner = EvalRunner()
        mutated = small_case(envelopes={**WIDE, "avg_qoe_regret": Envelope(5.0, 6.0)})
        results = runner.run_cases([mutated])
        verdict = run_gate(runner, results, determinism=False, coverage=False)
        text = render_report(build_report(results, gate=verdict.as_dict()))
        assert "[FAIL] test/urllc-control" in text
        assert "BREACH" in text
        assert "gate: FAIL" in text
        assert "[envelope]" in text

    def test_render_report_passing_gate(self):
        runner = EvalRunner()
        results = runner.run_cases([small_case()])
        verdict = run_gate(runner, results, determinism=False, coverage=False)
        text = render_report(build_report(results, gate=verdict.as_dict()))
        assert "[PASS] test/urllc-control" in text
        assert "gate: PASS" in text


class TestEvaluate:
    def test_explicit_cases_disable_coverage(self):
        report, verdict, results = evaluate(cases=[small_case()], determinism=False)
        assert verdict.passed
        assert "coverage" not in verdict.checks
        assert report["summary"]["cases"] == 1

    def test_seed_override_applies_to_every_case(self):
        _, _, results = evaluate(
            cases=[small_case()], seeds=[3, 4], determinism=False
        )
        assert [run.seed for run in results[0].seed_results] == [3, 4]

    def test_fault_injection_is_recorded_and_fails(self):
        # Calibrate the p95 envelope on a clean run, then inject a 500 ms
        # real-network bias: the shifted tail latency must breach it.
        probe = small_case()
        _, _, probe_results = evaluate(cases=[probe], determinism=False)
        p95 = probe_results[0].metrics["latency_p95_ms"]
        case = probe.replace(
            envelopes={**WIDE, "latency_p95_ms": Envelope(p95 * 0.6, p95 * 1.4)}
        )
        _, clean_verdict, _ = evaluate(cases=[case], determinism=False)
        assert clean_verdict.passed
        report, verdict, _ = evaluate(
            cases=[case], determinism=False, latency_bias_ms=500.0
        )
        assert not verdict.passed
        assert report["provenance"]["latency_bias_ms"] == 500.0
