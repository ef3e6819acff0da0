"""The regression gate: envelope, determinism and coverage checks.

The gate turns an eval run into a binary CI verdict.  Three checks, each
producing actionable :class:`GateFailure` records rather than bare
booleans:

``envelope``
    Every case's aggregate metrics must sit inside the expected envelopes
    checked into ``cases.yaml``.  A breach names the case, the metric, the
    measured value and the expected bounds — enough to decide whether the
    change is a regression or the envelope needs recalibrating.

``determinism``
    The first seed of every case is replayed a second time through a fresh
    runner and must reproduce byte-identical canonical metrics
    (:func:`repro.evalharness.runner.canonical_metrics_bytes`).  Every
    executor kind produces the same bytes, so this holds across *all*
    kinds — any mismatch means real numerics drift (seed-stream coupling, batch-composition leakage, a
    nondeterministic reduction), exactly the class of bug the sharded
    executor work made cheapest to introduce.

``coverage``
    Every scenario registered in :mod:`repro.scenarios.catalog` must have
    at least one eval case with envelopes.  Adding a scenario without eval
    coverage fails CI with a message naming the scenario and the file to
    extend.  (Skipped automatically when the run was filtered to a subset
    of cases.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.evalharness.dataset import EvalCase
from repro.evalharness.runner import CaseResult, EvalRunner, canonical_metrics_bytes
from repro.scenarios import scenario_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "GateFailure",
    "GateResult",
    "check_coverage",
    "check_determinism",
    "check_envelopes",
    "run_gate",
]


@dataclass(frozen=True)
class GateFailure:
    """One actionable gate failure: which check, which case, what happened."""

    kind: str
    case: str
    message: str
    metric: str | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "metric": self.metric,
            "message": self.message,
        }


@dataclass
class GateResult:
    """Outcome of a gate run: which checks ran and every failure found."""

    checks: list[str] = field(default_factory=list)
    failures: list[GateFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": list(self.checks),
            "failures": [failure.as_dict() for failure in self.failures],
        }


def check_envelopes(case_results: Sequence[CaseResult]) -> list[GateFailure]:
    """Flag every aggregate metric that escapes its expected envelope."""
    failures: list[GateFailure] = []
    for case_result in case_results:
        metrics = case_result.metrics
        for name, envelope in sorted(case_result.case.envelopes.items()):
            value = metrics.get(name, float("nan"))
            if not envelope.contains(value):
                failures.append(
                    GateFailure(
                        kind="envelope",
                        case=case_result.case.case_id,
                        metric=name,
                        message=(
                            f"{case_result.case.case_id}: {name}={value!r} outside "
                            f"expected envelope [{envelope.lo}, {envelope.hi}]"
                        ),
                    )
                )
    return failures


def check_determinism(
    runner: EvalRunner, case_results: Sequence[CaseResult]
) -> list[GateFailure]:
    """Replay the first seed of every case and demand byte-identical metrics.

    A fresh :class:`EvalRunner` (same executor choice, no output directory)
    reruns each case's first seed; the canonical metric bytes of the rerun
    must match the original run exactly.
    """
    rerunner = EvalRunner(
        executor=runner.executor,
        max_workers=runner.max_workers,
        latency_bias_ms=runner.latency_bias_ms,
    )
    failures: list[GateFailure] = []
    for case_result in case_results:
        if not case_result.seed_results:
            continue
        first = case_result.seed_results[0]
        replayed = rerunner.run_seed(case_result.case, first.seed)
        original_bytes = canonical_metrics_bytes(first.metrics)
        replayed_bytes = canonical_metrics_bytes(replayed.metrics)
        if original_bytes != replayed_bytes:
            failures.append(
                GateFailure(
                    kind="determinism",
                    case=case_result.case.case_id,
                    message=(
                        f"{case_result.case.case_id} seed={first.seed}: replay produced "
                        f"different metrics ({replayed_bytes.decode()} != "
                        f"{original_bytes.decode()}); the replay pipeline is no longer "
                        "deterministic"
                    ),
                )
            )
    return failures


def check_coverage(cases: Iterable[EvalCase]) -> list[GateFailure]:
    """Demand at least one eval case (with envelopes) per catalog scenario."""
    covered = {case.scenario for case in cases}
    failures: list[GateFailure] = []
    for name in scenario_names():
        if name not in covered:
            failures.append(
                GateFailure(
                    kind="coverage",
                    case=name,
                    message=(
                        f"catalog scenario {name!r} has no eval case; add one with "
                        "expected envelopes to src/repro/evalharness/cases.yaml "
                        "so the regression gate covers it"
                    ),
                )
            )
    return failures


def run_gate(
    runner: EvalRunner,
    case_results: Sequence[CaseResult],
    cases: Sequence[EvalCase] | None = None,
    determinism: bool = True,
    coverage: bool = True,
) -> GateResult:
    """Run every applicable check and collect the verdict.

    ``cases`` is the *full* loaded dataset for the coverage check; pass
    ``coverage=False`` when the run was filtered to a subset (coverage over
    a filtered dataset would always fail spuriously).  ``determinism=False``
    skips the rerun check (used by fast unit tests; the CLI always reruns).
    """
    result = GateResult()
    result.checks.append("envelope")
    result.failures.extend(check_envelopes(case_results))
    if determinism:
        result.checks.append("determinism")
        result.failures.extend(check_determinism(runner, case_results))
    if coverage and cases is not None:
        result.checks.append("coverage")
        result.failures.extend(check_coverage(cases))
    return result
