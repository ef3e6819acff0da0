"""The ``atlas-eval/1`` evaluation report: build, canonicalise, render.

``EVAL_report.json`` is the machine-readable product of an eval run, the
catalog-wide analogue of the engine benchmark's ``BENCH_engine.json``.  Two
determinism contracts hang off its serialisation, so this module is careful
about bytes:

* **Rerun identity** — the same cases, seeds and executor produce a
  byte-identical report file.  Nothing time- or host-dependent is recorded
  (no timestamps, no hostnames, no absolute paths), keys are sorted, and
  non-finite floats are sanitised to ``null``.  The one sanctioned
  exception is ``provenance.costs`` — the service-mode cost ledger
  (wall time, cache-tier hit split), present only when the caller passes
  one and deliberately *outside* the canonical section.
* **Cross-executor identity** — the ``results`` section (every metric of
  every case and seed) is byte-identical under the ``vectorized``,
  ``sharded`` and ``auto`` executor kinds, because every request carries an
  explicit seed and each batch lane draws only from it.  The *executor* that
  produced each run is still recorded — in ``provenance`` and per seed run —
  so those fields live outside the canonical section.
  :func:`canonical_results_bytes` extracts exactly the bytes the
  cross-executor tests and the determinism gate compare.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.evalharness.runner import CaseResult, _sanitize

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "canonical_results_bytes",
    "render_report",
    "write_report",
]

#: Schema identifier of ``EVAL_report.json``.
REPORT_SCHEMA = "atlas-eval/1"


def build_report(
    case_results: Sequence[CaseResult],
    executor: str | None = None,
    gate: dict | None = None,
    latency_bias_ms: float = 0.0,
    costs: dict | None = None,
) -> dict:
    """Assemble the ``atlas-eval/1`` report from scored case results.

    ``gate`` is the gate outcome payload (:meth:`GateResult.as_dict`);
    ``None`` means the gate was not run (report-only mode).  ``executor``
    is the *requested* kind; each seed run additionally records the kind
    that actually executed it (``auto`` resolves per batch).  ``costs``
    is an ``atlas-costs/1`` ledger payload recorded under
    ``provenance.costs`` (service mode); it carries wall-clock fields and
    is the only part of the report allowed to differ between reruns.
    """
    results = []
    for case_result in case_results:
        case = case_result.case
        metrics = case_result.metrics
        verdicts = case_result.envelope_verdicts()
        results.append(
            {
                "case": case.case_id,
                "group": case.group,
                "scenario": case.scenario,
                "seeds": [
                    {"seed": run.seed, "metrics": dict(run.metrics)}
                    for run in case_result.seed_results
                ],
                "metrics": metrics,
                "envelopes": {
                    name: {
                        "lo": envelope.lo,
                        "hi": envelope.hi,
                        "value": metrics.get(name, float("nan")),
                        "pass": verdicts[name],
                    }
                    for name, envelope in sorted(case.envelopes.items())
                },
                "passed": case_result.passed,
                "replay": {
                    "seeds": list(case.seeds),
                    "measurements": case.measurements,
                    "duration_s": case.duration_s,
                    "usage_ladder": list(case.usage_ladder),
                },
            }
        )
    passed_cases = sum(1 for entry in results if entry["passed"])
    report = {
        "schema": REPORT_SCHEMA,
        "provenance": {
            "executor": {
                "requested": executor if executor is not None else "auto",
                "runs": sorted(
                    {
                        run.executor["resolved"]
                        for case_result in case_results
                        for run in case_result.seed_results
                    }
                ),
            },
            "latency_bias_ms": latency_bias_ms,
            "costs": costs,
        },
        "summary": {
            "cases": len(results),
            "runs": sum(len(entry["seeds"]) for entry in results),
            "cases_passed": passed_cases,
            "cases_failed": len(results) - passed_cases,
            "gate_passed": None if gate is None else gate["passed"],
        },
        "results": results,
        "gate": gate,
    }
    return _sanitize(report)


def canonical_results_bytes(report: dict) -> bytes:
    """The executor-independent bytes of a report: its ``results`` section.

    These bytes are identical across executor kinds and across reruns; the
    surrounding provenance/gate sections may legitimately differ (they name
    the executor and the gate's own rerun outcomes).
    """
    return json.dumps(report["results"], sort_keys=True, separators=(",", ":")).encode()


def write_report(report: dict, path: str | Path) -> Path:
    """Write the report deterministically (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def render_report(report: dict) -> str:
    """Human-readable summary of a report (the CLI's non-``--json`` output)."""
    lines = [f"atlas eval report ({report['schema']})"]
    summary = report["summary"]
    lines.append(
        f"  cases: {summary['cases']}  runs: {summary['runs']}  "
        f"passed: {summary['cases_passed']}  failed: {summary['cases_failed']}"
    )
    for entry in report["results"]:
        status = "PASS" if entry["passed"] else "FAIL"
        lines.append(f"  [{status}] {entry['case']}")
        for name, envelope in entry["envelopes"].items():
            mark = "ok" if envelope["pass"] else "BREACH"
            value = envelope["value"]
            shown = "nan" if value is None else f"{value:.6g}"
            lines.append(
                f"      {name}: {shown} in [{envelope['lo']:.6g}, {envelope['hi']:.6g}] {mark}"
            )
    gate = report.get("gate")
    if gate is None:
        lines.append("  gate: not run")
    elif gate["passed"]:
        lines.append(f"  gate: PASS ({', '.join(gate['checks'])})")
    else:
        lines.append("  gate: FAIL")
        for failure in gate["failures"]:
            lines.append(f"    - [{failure['kind']}] {failure['message']}")
    return "\n".join(lines)
