"""The repository benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload eval-catalog --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up time
(the median over fresh interpreters), the median op time, ops per second
and peak memory.  ``--trace 1`` alternates untraced ops with ops during
which the program's layers are wrapped (:mod:`spans`); it reports the
per-layer metrics of the traced ops, and the traced-over-untraced slowdown
as ``trace.overhead_frac``.

Ops run one after another in this process until ``--seconds`` have passed
and at least three ran.  Before each op the process-wide measurement cache is
cleared, any store attached to it is detached and the worker pools are shut
down, so every op pays what one CLI call pays.  Each op's output is checked
(:mod:`workloads`) and must be byte-identical across the run's ops; a
failed or mismatching op counts in ``failed``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits 2 before measuring anything.  The human-readable table
goes to standard output first, and the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import LAYERS, Recorder, install, layer_metrics, tail_percentile, traced_op  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 3

#: Fewest ops in a run.  Three keep the op count of the ~10 s workloads the
#: same from run to run, and give a traced run an untraced op to compare
#: with besides the first, which pays the process's cold start.
MIN_OPS = 3

#: Set-up probe: a fresh interpreter imports the program and the workload's
#: set-up, then reports ready.
_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; "
    "from workloads import WORKLOADS; WORKLOADS[{name!r}].setup(); print('ready', flush=True)"
)


QUALITY = ("quality.usage", "quality.qoe", "quality.sla_violation_rate", "quality.sim_discrepancy")


@dataclass
class OpRecord:
    """One op: its wall time, its outcome, and what is wrong with it (failed if any)."""

    seconds: float
    outcome: Outcome | None
    traced: bool = False
    problems: list[str] = field(default_factory=list)


# ------------------------------------------------------------------ set-up
def measure_setup(workload: Workload) -> list[float]:
    """Seconds from spawning a fresh interpreter until the workload is ready."""
    code = _PROBE.format(src=str(SRC), here=str(HERE), name=workload.name)
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=str(ROOT), text=True
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append(ready - start)
    return samples


# --------------------------------------------------------------------- ops
def isolate() -> None:
    """Reset the process-wide state an op could inherit from the previous one."""
    from repro.engine.cache import attach_shared_store, shared_cache
    from repro.engine.executors import shutdown_worker_pools

    attach_shared_store(None)
    shared_cache().clear()
    shutdown_worker_pools()
    gc.collect()


def run_ops(
    workload: Workload,
    seed: int,
    seconds: float,
    scratch: Path,
    recorder: Recorder | None = None,
    min_ops: int = 1,
) -> tuple[list[OpRecord], float]:
    """Run ops until ``seconds`` have passed and ``min_ops`` ran.

    With a ``recorder``, every odd-numbered op runs traced: the layers are
    wrapped for that op only, so traced and untraced ops alternate.
    Returns the ops and the wall time of the whole loop.
    """
    records: list[OpRecord] = []
    began = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - began < seconds:
        index = len(records)
        traced = recorder is not None and index % 2 == 1
        isolate()
        workdir = Path(tempfile.mkdtemp(prefix="op-", dir=scratch))
        start = time.perf_counter()
        try:
            with traced_op(recorder, index) if traced else nullcontext():
                start = time.perf_counter()
                handle = workload.op(seed, workdir)
                elapsed = time.perf_counter() - start
            outcome = workload.inspect(seed, workdir, handle)
            record = OpRecord(elapsed, outcome, traced, list(outcome.problems))
        except Exception:
            elapsed = time.perf_counter() - start
            record = OpRecord(elapsed, None, traced, [f"raised\n{traceback.format_exc()}"])
        records.append(record)
        shutil.rmtree(workdir, ignore_errors=True)
    isolate()
    reference = next((r.outcome.digest for r in records if r.outcome is not None), None)
    for record in records:
        if record.outcome is not None and record.outcome.digest != reference:
            record.problems.append("output differs from the first op's")
    return records, time.perf_counter() - began


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------- runs
def end_to_end(
    workload: Workload, seed: int, seconds: float, scratch: Path
) -> tuple[list[OpRecord], dict]:
    """The untraced run: end-to-end metrics, then the extras only printed.

    The workload's sample span (eval's per-(case, seed) replays) is timed
    during the run; its tail is the highest percentile with at least ten
    samples beyond it.
    """
    sampler = Recorder()
    uninstall = install(sampler, [layer for layer in LAYERS if layer.span == workload.sample_span])
    try:
        records, wall = run_ops(workload, seed, seconds, scratch, min_ops=MIN_OPS)
    finally:
        uninstall()
    setup = measure_setup(workload)
    metrics = {
        "setup_s": _median(setup),
        "op_s.p50": _median([record.seconds for record in records]),
        "ops_per_s": len(records) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s.n": len(records),
        "setup_s.n": len(setup),
    }
    samples = [span.duration for span in sampler.spans]
    level = tail_percentile(len(samples))
    if level is not None and level > 50:
        metrics[f"op_s.p{level:g}"] = statistics.quantiles(samples, n=1000)[round(level * 10) - 1]
        metrics[f"op_s.p{level:g}.n"] = len(samples)
    outcomes = [record.outcome for record in records if record.outcome is not None]
    for key in sorted({key for outcome in outcomes for key in outcome.extra}):
        metrics[key] = _median([outcome.extra[key] for outcome in outcomes if key in outcome.extra])
    if outcomes:
        metrics.update(outcomes[0].quality)
    return records, metrics


def per_layer(
    workload: Workload, seed: int, seconds: float, scratch: Path
) -> tuple[list[OpRecord], dict]:
    """Alternating untraced and traced ops: per-layer metrics and tracing overhead.

    Layer metrics are computed per traced op and reported as the median over
    the traced ops.  The overhead compares traced ops with the untraced ops
    that follow the first one, which pays the process's cold start.  Every
    op's output must match the first op's.
    """
    from repro.engine.executors import available_parallelism

    recorder = Recorder()
    records, _ = run_ops(workload, seed, seconds, scratch, recorder, min_ops=MIN_OPS)
    required = workload.required_spans(available_parallelism())
    by_op: dict[int, list] = {}
    for span in recorder.spans:
        by_op.setdefault(span.op, []).append(span)
    per_op = []
    for index, record in enumerate(records):
        if not record.traced:
            continue
        spans = by_op[index]
        missing = [name for name in required if not any(span.name == name for span in spans)]
        if missing:
            record.problems.append(f"traced op recorded no call of: {', '.join(missing)}")
        values = dict.fromkeys((*QUALITY, "jobs.queue_wait_s"), 0.0)
        values.update(layer_metrics(spans))
        if record.outcome is not None:
            values.update(record.outcome.quality)
            values["jobs.queue_wait_s"] = record.outcome.extra.get("jobs.queue_wait_s", 0.0)
        values["trace.op_s"] = record.seconds
        values["unattributed_frac"] = values["unattributed_s"] / record.seconds
        per_op.append(values)
    metrics = {
        name: _median([values[name] for values in per_op])
        for name in dict.fromkeys(name for values in per_op for name in values)
    }
    plain_s = _median([record.seconds for record in records[1:] if not record.traced])
    metrics["trace.overhead_frac"] = metrics["trace.op_s"] / plain_s - 1.0
    return records, metrics


# --------------------------------------------------------------- reporting
def unit_of(name: str) -> str:
    """The unit of a printed metric that BENCHMARK.json does not list."""
    if name.endswith((".n", ".calls", "_misses")):
        return "count"
    if name.endswith("_s") or name.startswith("op_s."):
        return "s"
    return "ratio"


def host_facts() -> dict:
    """Host facts printed with every run."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    """Run one workload once and print its metrics; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workload.setup()

    scratch_root = ROOT / ".perfbench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root))
    try:
        run = per_layer if args.trace else end_to_end
        records, metrics = run(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    failed = sum(1 for record in records if record.problems)
    facts = host_facts()
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{key} {value}" for key, value in facts.items()))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units.get(name) or unit_of(name)}")
    print(f"  {'ops':<34} " + " ".join(f"{record.seconds:.3f}" for record in records) + " s")
    print(f"  {'error_rate':<34} {failed / len(records):>14.6g} ratio ({failed}/{len(records)} ops)")
    for index, record in enumerate(records):
        for problem in record.problems:
            print(f"op {index}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
