"""The three benchmark workloads: what one op runs and how its output is checked.

Every workload turns the benchmark seed into the program's inputs
(:meth:`Workload.inputs`) and nothing else; the program never sees the
seed otherwise.  An op runs in a fresh directory, and :meth:`Workload.op`
is the timed part; :meth:`Workload.inspect` reads the op's files
afterwards, untimed, and returns an :class:`Outcome` whose ``digest`` must
be byte-identical across the ops of a run.

This module imports nothing from ``repro`` at import time, so the set-up
probe (a fresh interpreter) pays the program's imports inside
:meth:`Workload.setup`, where they are measured.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Outcome", "WORKLOADS", "Workload"]


@dataclass
class Outcome:
    """What one op produced, read back from its files."""

    digest: bytes
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


def _cli(argv: list[str], log: Path) -> int:
    from repro import cli

    with open(log, "w") as handle, contextlib.redirect_stdout(handle):
        return cli.main(argv)


def _stage_quality(slice_summary: dict) -> dict[str, float]:
    """Stage-3 mean usage / QoE / violation rate and the stage-1 best discrepancy."""
    stage3 = slice_summary["stage3"]
    steps = sum(segment["iterations"] for segment in stage3["segments"])
    return {
        "quality.usage": float(stage3["mean_usage"]),
        "quality.qoe": float(stage3["mean_qoe"]),
        "quality.sla_violation_rate": stage3["sla_violations"] / max(1, steps),
        "quality.sim_discrepancy": float(slice_summary["stage1"]["best_discrepancy"]),
    }


class Workload:
    """One benchmark workload (subclasses fill in the hooks)."""

    name = ""
    #: Spans the traced run must record at least once per op.
    required: tuple[str, ...] = ()
    #: Span whose durations are the run's sub-op latency samples, if any.
    sample_span: str | None = None

    def setup(self) -> None:
        """Import what an op needs; the set-up probe times this."""
        import repro  # noqa: F401
        import repro.cli  # noqa: F401

    def required_spans(self, cores: int) -> tuple[str, ...]:
        """Spans the traced run must record on a host with ``cores`` CPUs."""
        return self.required

    def inputs(self, seed: int):
        """The program's inputs for ``seed``."""
        raise NotImplementedError

    def op(self, seed: int, workdir: Path):
        """Run one op in ``workdir`` (the timed part); returns a handle for inspect."""
        raise NotImplementedError

    def inspect(self, seed: int, workdir: Path, handle) -> Outcome:
        """Read and check the files of one op (untimed)."""
        raise NotImplementedError


class EvalCatalog(Workload):
    """``python -m repro eval`` over the full ``cases.yaml``, gate on, ``auto`` executor."""

    name = "eval-catalog"
    required = ("engine.run_batch", "executors.auto", "executors.vectorized",
                "sim.simulate_batch", "eval.run_seed", "eval.gate")
    sample_span = "eval.run_seed"

    def setup(self) -> None:
        super().setup()
        from repro.evalharness import load_cases

        load_cases()

    def required_spans(self, cores: int) -> tuple[str, ...]:
        # ``auto`` only shards a batch when at least two cores are usable.
        return self.required + (("executors.sharded",) if cores >= 2 else ())

    def inputs(self, seed: int) -> list[str]:
        return ["eval", "--seeds", str(seed), str(seed + 1)]

    def op(self, seed: int, workdir: Path) -> int:
        return _cli(self.inputs(seed) + ["--out", str(workdir / "eval")], workdir / "log.txt")

    def inspect(self, seed: int, workdir: Path, handle: int) -> Outcome:
        """Check the gate; envelope misses are counted, not failed.

        The envelopes in ``cases.yaml`` are calibrated on seeds (0, 1), so
        replays of other seeds can fall outside them without any change in
        the program (seeds 5 and 9 do).  The determinism and coverage checks
        hold for every seed and fail the op.
        """
        from repro.evalharness import canonical_results_bytes

        report = json.loads((workdir / "eval" / "EVAL_report.json").read_text())
        failures = report["gate"]["failures"]
        misses = sum(1 for failure in failures if failure["kind"] == "envelope")
        problems = [failure["message"] for failure in failures if failure["kind"] != "envelope"]
        if handle != (1 if failures else 0):
            problems.append(f"eval exited {handle} with {len(failures)} gate failures")
        return Outcome(
            digest=canonical_results_bytes(report),
            problems=problems,
            extra={"eval.envelope_misses": float(misses)},
        )


class PipelineSmall(Workload):
    """``run --scenario frame-offloading --stage all --scale small``."""

    name = "pipeline-small"
    required = ("stage1", "stage2", "stage3", "gp.fit", "gp.predict", "bnn.fit",
                "bnn.sample_predict", "acquisition", "engine.run_batch", "executors.vectorized",
                "sim.simulate_batch")

    def setup(self) -> None:
        super().setup()
        from repro.experiments.scale import get_scale
        from repro.scenarios import get_scenario

        get_scenario("frame-offloading")
        get_scale("small")

    def inputs(self, seed: int) -> list[str]:
        return ["run", "--scenario", "frame-offloading", "--stage", "all",
                "--scale", "small", "--seed", str(seed)]

    def op(self, seed: int, workdir: Path) -> int:
        argv = self.inputs(seed) + ["--json", str(workdir / "summary.json")]
        return _cli(argv, workdir / "log.txt")

    def inspect(self, seed: int, workdir: Path, handle: int) -> Outcome:
        raw = (workdir / "summary.json").read_bytes()
        problems = [] if handle == 0 else [f"run exited {handle}"]
        summary = json.loads(raw)
        return Outcome(digest=raw, problems=problems, quality=_stage_quality(summary["slices"][0]))


class ServiceQueue(Workload):
    """Four jobs queued up front, drained by one in-process ``serve(workers=1)``."""

    name = "service-queue"
    required = ("jobs.execute", "store.put", "store.get", "cache.get", "cache.put",
                "eval.run_seed", "engine.run_batch", "stage1", "stage3")

    def setup(self) -> None:
        super().setup()
        import repro.evalharness  # noqa: F401
        import repro.service.daemon  # noqa: F401

    def inputs(self, seed: int) -> list[tuple[str, dict]]:
        eval_job = ("eval", {"seeds": [seed, seed + 1]})
        run_job = ("run", {"scenario": "frame-offloading", "stage": "all",
                           "scale": "smoke", "seed": seed})
        return [eval_job, eval_job, run_job, run_job]

    def op(self, seed: int, workdir: Path) -> list[str]:
        from repro.service.daemon import serve
        from repro.service.jobs import submit_job

        state = workdir / "state"
        ids = [submit_job(state, kind, params).id for kind, params in self.inputs(seed)]
        code = serve(state, workers=1, max_jobs=len(ids))
        if code != 0:
            raise RuntimeError(f"serve exited {code}")
        return ids

    def inspect(self, seed: int, workdir: Path, handle: list[str]) -> Outcome:
        from repro.evalharness import canonical_results_bytes
        from repro.service.jobs import job_record

        state = workdir / "state"
        records = [job_record(state, job_id) for job_id in handle]
        problems = [
            f"job {index} ({record['kind']}) is {record['status']}"
            for index, record in enumerate(records)
            if record["status"] != "done"
        ]
        if problems:
            return Outcome(digest=b"", problems=problems)
        results = [record["result"] for record in records]
        cold, warm = (
            canonical_results_bytes(json.loads((state / "jobs" / job_id / "eval" /
                                                "EVAL_report.json").read_text()))
            for job_id in handle[:2]
        )
        if warm != cold:
            problems.append("warm eval results differ from the cold eval's")
        warm_requests = results[1]["costs"].get("engine_requests")
        if warm_requests != 0:
            problems.append(f"warm eval executed {warm_requests} engine requests, expected 0")
        runs = [json.dumps(result["summary"], sort_keys=True).encode() for result in results[2:]]
        if runs[1] != runs[0]:
            problems.append("warm run job's summary differs from the cold run job's")
        extra = {
            f"job{index}.latency_s": result["finished"] - record["created"]
            for index, (record, result) in enumerate(zip(records, results))
        }
        extra["jobs.queue_wait_s"] = sum(
            result["started"] - record["created"] for record, result in zip(records, results)
        ) / len(records)
        return Outcome(
            digest=cold + b"\n" + runs[0],
            problems=problems,
            quality=_stage_quality(results[2]["summary"]["slices"][0]),
            extra=extra,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (EvalCatalog(), PipelineSmall(), ServiceQueue())
}
