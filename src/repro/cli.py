"""The ``python -m repro`` command line: run any catalog scenario end to end.

Four subcommands cover the catalog workflow:

``list-scenarios``
    One line per registered catalog entry (name, slices, traffic, SLA).
``show <name>``
    Full detail of one entry: per-slice scenarios, deployed configurations,
    traffic traces, contention budget and stage-1 search defaults.
``run --scenario <name> --stage 1|2|3|all``
    Execute the Atlas pipeline on a catalog entry.  Stage budgets come from
    ``--scale`` (smoke / small / paper, the ``ATLAS_BENCH_SCALE`` levels)
    and every measurement engine uses ``--executor`` (auto / vectorized /
    sharded, the ``ATLAS_ENGINE_EXECUTOR`` kinds; ``auto`` — the default —
    picks per batch).  Multi-slice entries measure all slices concurrently
    under resource contention before and after optimisation; dynamic
    entries replay their traffic trace during online learning.  On hostile
    entries ``--faults guarded`` runs stage 3 under the
    :mod:`repro.core.watchdog` safe-mode watchdog with the scenario's fault
    schedule injected, and ``--faults unprotected`` runs the bare learner
    through the same faults for comparison — see ``docs/robustness.md``.
``eval``
    Replay the curated evaluation dataset over the whole catalog, score
    every run with the :mod:`repro.metrics` scorers, write the structured
    run layout plus ``EVAL_report.json`` (schema ``atlas-eval/1``) under
    ``--out``, and exit nonzero when the regression gate fails — see
    ``docs/evaluation.md``.  ``--store`` serves the replay through the
    persistent result store (embedding a cost ledger in the report);
    ``--history`` appends the run's summary to a trend file and flags
    metric drift against the previous run.

Service mode (see ``docs/service.md``) adds four more:

``serve --state <dir>``
    Run the job daemon against a service state tree: claims queued jobs,
    executes them through the measurement engine with the tree's
    persistent store attached, shuts down gracefully on SIGTERM/SIGINT
    (``--max-jobs`` / ``--idle-exit`` bound the run for CI).
``submit --state <dir> run|eval ...``
    Enqueue a stage run or an eval run and print its job id (works with
    or without a live daemon).
``status --state <dir> [job]``
    One line per known job, or the full JSON record (result, costs) of
    one job.
``tail --state <dir> <job> [--trace]``
    Print a job's captured stdout, or its structured trace stream.

``run`` and ``eval`` also accept ``--store <dir>`` to reuse the same
persistent store outside the daemon (one-shot warm runs).

Stage semantics: ``--stage 1`` searches simulation parameters only;
``--stage 2`` trains offline against the *original* simulator; ``--stage 3``
first trains the prerequisite offline policy, then learns online;
``--stage all`` chains 1 → 2 → 3 with stage 1's parameters feeding the
later stages.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.core.offline_training import OfflineConfigurationTrainer, OfflineTrainingConfig
from repro.core.online_learning import OnlineConfigurationLearner, OnlineLearningConfig
from repro.core.simulator_learning import ParameterSearchConfig, SimulatorParameterSearch
from repro.core.spaces import SimulationParameterSpace
from repro.engine.executors import EXECUTOR_ENV_VAR, EXECUTOR_KINDS, default_executor_kind
from repro.experiments.scale import SCALES, ExperimentScale, get_scale
from repro.experiments.scenarios import collect_online_dataset
from repro.scenarios import (
    ScenarioSpec,
    SliceWorkload,
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
)
from repro.sim.multislice import CONTENDED_DIMENSIONS, MultiSliceResult, SliceRun

__all__ = ["build_parser", "main"]


# ------------------------------------------------------------------ formatting
def _sla_label(workload: SliceWorkload) -> str:
    sla = workload.sla
    return f"{sla.latency_threshold_ms:.0f}ms @ {100.0 * sla.availability:.0f}%"


def _traffic_label(workload: SliceWorkload) -> str:
    if workload.trace is None:
        return str(workload.scenario.traffic)
    return f"{type(workload.trace).__name__}(~{workload.mean_traffic()})"


def _print_multislice_round(result: MultiSliceResult, title: str) -> None:
    print(f"\n{result.format_table(title)}")


# -------------------------------------------------------------------- pipeline
def _stage1(
    workload: SliceWorkload, spec: ScenarioSpec, scale: ExperimentScale, duration: float, seed: int
) -> dict:
    """Search the simulation parameters against the workload's testbed (stage 1)."""
    simulator = workload.make_simulator(seed=seed)
    real_network = workload.make_real_network(seed=seed + 1)
    real_collection = collect_online_dataset(
        real_network,
        config=workload.deployed_config,
        traffic=workload.mean_traffic(),
        runs=scale.motivation_runs,
        duration_s=duration,
    )
    search = SimulatorParameterSearch(
        simulator=simulator,
        real_collection=real_collection,
        deployed_config=workload.deployed_config,
        space=SimulationParameterSpace(
            original=simulator.params, distance_threshold=spec.stage1_distance_threshold
        ),
        config=ParameterSearchConfig(
            iterations=scale.stage1_iterations,
            initial_random=scale.stage1_initial_random,
            parallel_queries=scale.stage1_parallel,
            candidate_pool=scale.stage1_candidate_pool,
            measurement_duration_s=duration,
            alpha=spec.stage1_alpha,
            seed=seed,
        ),
        traffic=workload.mean_traffic(),
    )
    result = search.run()
    print(
        f"  stage 1: discrepancy {result.original_discrepancy:.3f} -> "
        f"{result.best_discrepancy:.3f} (parameter distance {result.best_distance:.3f})"
    )
    return {
        "original_discrepancy": result.original_discrepancy,
        "best_discrepancy": result.best_discrepancy,
        "best_distance": result.best_distance,
        "best_parameters": list(result.best_parameters.to_array()),
        "_result": result,
    }


def _stage2(
    workload: SliceWorkload,
    scale: ExperimentScale,
    duration: float,
    seed: int,
    params=None,
    announce: bool = True,
) -> dict:
    """Train the offline configuration policy in the (augmented) simulator (stage 2)."""
    simulator = workload.make_simulator(seed=seed)
    if params is not None:
        simulator = simulator.with_params(params)
    trainer = OfflineConfigurationTrainer(
        simulator=simulator,
        sla=workload.sla,
        traffic=workload.mean_traffic(),
        config=OfflineTrainingConfig(
            iterations=scale.stage2_iterations,
            initial_random=scale.stage2_initial_random,
            parallel_queries=scale.stage2_parallel,
            candidate_pool=scale.stage2_candidate_pool,
            measurement_duration_s=duration,
            seed=seed,
        ),
    )
    result = trainer.run()
    policy = result.policy
    if announce:
        print(
            f"  stage 2: best offline config at {100 * policy.best_usage:.1f}% usage, "
            f"simulator QoE {policy.best_qoe:.3f}"
        )
    return {
        "best_usage": policy.best_usage,
        "best_qoe": policy.best_qoe,
        "best_config": list(policy.best_config.to_array()),
        "_policy": policy,
        "_simulator": simulator,
    }


def _stage3(
    workload: SliceWorkload,
    scale: ExperimentScale,
    duration: float,
    seed: int,
    offline: dict,
) -> dict:
    """Learn online against the real network (stage 3), replaying any traffic trace."""
    real_network = workload.make_real_network(seed=seed + 1)
    levels = [workload.traffic_at(step) for step in range(scale.stage3_iterations)]
    segments: list[tuple[int, int]] = []  # (traffic level, iterations)
    for level in levels:
        if segments and segments[-1][0] == level:
            segments[-1] = (level, segments[-1][1] + 1)
        else:
            segments.append((level, 1))
    usages: list[float] = []
    qoes: list[float] = []
    violations = 0
    last_config = None
    for index, (level, iterations) in enumerate(segments):
        learner = OnlineConfigurationLearner(
            offline_policy=offline["_policy"],
            simulator=offline["_simulator"],
            real_network=real_network,
            sla=workload.sla,
            traffic=level,
            config=OnlineLearningConfig(
                iterations=iterations,
                offline_queries_per_step=scale.stage3_offline_queries,
                candidate_pool=scale.stage3_candidate_pool,
                measurement_duration_s=duration,
                simulator_duration_s=max(duration / 2.0, 5.0),
                seed=seed + index,
            ),
        )
        result = learner.run()
        usages.extend(result.usages().tolist())
        qoes.extend(result.qoes().tolist())
        violations += sum(1 for record in result.history if not record.sla_met)
        last_config = result.policy.best_config
    iterations_total = max(1, len(usages))
    mean_usage = sum(usages) / iterations_total
    mean_qoe = sum(qoes) / iterations_total
    print(
        f"  stage 3: {len(segments)} traffic segment(s), mean usage {100 * mean_usage:.1f}%, "
        f"mean QoE {mean_qoe:.3f}, SLA violations {violations}/{len(usages)}"
    )
    best_config = last_config if last_config is not None else offline["_policy"].best_config
    return {
        "segments": [{"traffic": level, "iterations": n} for level, n in segments],
        "mean_usage": mean_usage,
        "mean_qoe": mean_qoe,
        "sla_violations": violations,
        "best_config": list(best_config.to_array()),
        "_best_config": best_config,
    }


def _stage3_faulted(
    workload: SliceWorkload,
    spec: ScenarioSpec,
    scale: ExperimentScale,
    duration: float,
    seed: int,
    offline: dict,
    mode: str,
) -> dict:
    """Run the fault-injected online episode (stage 3 under ``--faults``).

    The whole episode runs as one step-indexed chaos run at the workload's
    representative traffic level — the fault schedule, not the trace
    segmentation, owns the timeline.  ``guarded`` supervises the learner
    with the watchdog (safe-mode fallback to the deployed configuration);
    ``unprotected`` is the control arm that learns straight through every
    fault window.
    """
    from repro.core.watchdog import OnlineWatchdog, run_unprotected

    learner = OnlineConfigurationLearner(
        offline_policy=offline["_policy"],
        simulator=offline["_simulator"],
        real_network=workload.make_real_network(seed=seed + 1),
        sla=workload.sla,
        traffic=workload.mean_traffic(),
        config=OnlineLearningConfig(
            iterations=scale.stage3_iterations,
            offline_queries_per_step=scale.stage3_offline_queries,
            candidate_pool=scale.stage3_candidate_pool,
            measurement_duration_s=duration,
            simulator_duration_s=max(duration / 2.0, 5.0),
            seed=seed,
        ),
    )
    if mode == "guarded":
        guarded = OnlineWatchdog(
            learner,
            fault_schedule=spec.faults,
            fallback_config=workload.deployed_config,
        ).run()
        summary = guarded.summary()
        print(
            f"  stage 3 (faults: guarded): {summary['steps']} steps, "
            f"violation rate {summary['sla_violation_rate']:.3f}, "
            f"safe-mode entries {summary['safe_mode_entries']}, "
            f"recoveries {summary['recoveries']}, dropped {summary['dropped_steps']}, "
            f"final mode {summary['final_mode']}"
        )
        return {"faults": "guarded", "watchdog": summary}
    result = run_unprotected(learner, spec.faults)
    rate = result.sla_violation_rate()
    violations = sum(1 for record in result.history if not record.sla_met)
    print(
        f"  stage 3 (faults: unprotected): {len(result.history)} steps, "
        f"violation rate {rate:.3f} ({violations}/{len(result.history)})"
    )
    return {
        "faults": "unprotected",
        "steps": len(result.history),
        "sla_violations": violations,
        "sla_violation_rate": rate,
    }


def _run_workload(
    workload: SliceWorkload,
    spec: ScenarioSpec,
    stages: set[str],
    scale: ExperimentScale,
    duration: float,
    seed: int,
    faults: str = "off",
) -> dict:
    """Run the requested stages for one slice workload and return its summary."""
    print(
        f"\n[{workload.name}] traffic {_traffic_label(workload)}, SLA {_sla_label(workload)}"
    )
    summary: dict = {"slice": workload.name}
    params = None
    if "1" in stages:
        summary["stage1"] = _stage1(workload, spec, scale, duration, seed)
        params = summary["stage1"]["_result"].best_parameters
    offline = None
    if "2" in stages:
        offline = _stage2(workload, scale, duration, seed, params=params)
        summary["stage2"] = offline
    if "3" in stages:
        if offline is None:
            print("  stage 3: training prerequisite offline policy first")
            offline = _stage2(workload, scale, duration, seed, params=params, announce=False)
        if faults != "off":
            summary["stage3"] = _stage3_faulted(
                workload, spec, scale, duration, seed, offline, faults
            )
        else:
            summary["stage3"] = _stage3(workload, scale, duration, seed, offline)
    return summary


# ------------------------------------------------------------------- commands
def cmd_list_scenarios(args: argparse.Namespace) -> int:
    """Print the catalog as one line per entry."""
    specs = list_scenarios()
    print(f"{'name':<26} {'slices':>6} {'traffic':<22} {'SLA':<14} description")
    for spec in specs:
        primary = spec.primary
        sla = _sla_label(primary) if not spec.is_multislice else "per-slice"
        traffic = (
            _traffic_label(primary)
            if not spec.is_multislice
            else "+".join(str(w.scenario.traffic) for w in spec.slices)
        )
        print(f"{spec.name:<26} {len(spec.slices):>6} {traffic:<22} {sla:<14} {spec.description}")
    print(f"{len(specs)} scenarios registered")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """Print full detail of one catalog entry."""
    spec = get_scenario(args.scenario)
    print(f"{spec.name}: {spec.description}")
    print(f"tags: {', '.join(spec.tags) or '-'}")
    print(
        f"stage-1 search defaults: alpha={spec.stage1_alpha}, "
        f"distance threshold H={spec.stage1_distance_threshold}"
    )
    if spec.is_multislice:
        budget = ", ".join(f"{dim}={spec.budget.total(dim):g}" for dim in CONTENDED_DIMENSIONS)
        print(f"shared budget: {budget}")
    for workload in spec.slices:
        scenario = workload.scenario
        print(f"\nslice {workload.name!r}: SLA {_sla_label(workload)}")
        print(
            f"  workload: traffic {_traffic_label(workload)}, "
            f"frames {scenario.frame_size_mean_bytes / 1e3:.1f}±{scenario.frame_size_std_bytes / 1e3:.1f} kB up / "
            f"{scenario.result_size_bytes / 1e3:.1f} kB down, "
            f"compute {scenario.compute_time_mean_ms:.0f}±{scenario.compute_time_std_ms:.0f} ms"
        )
        config = workload.deployed_config
        print(
            f"  deployed: {config.bandwidth_ul:g}/{config.bandwidth_dl:g} PRBs, "
            f"{config.backhaul_bw:g} Mbps backhaul, {config.cpu_ratio:g} CPU "
            f"({100 * config.resource_usage():.1f}% usage)"
        )
        if workload.trace is not None:
            preview = ", ".join(str(level) for level in workload.trace.levels(12))
            print(f"  trace: {workload.trace!r} -> [{preview}, ...]")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run the requested stages of the pipeline on one catalog entry."""
    ledger = None
    if args.store is not None:
        from repro.engine.cache import attach_shared_store, shared_cache
        from repro.service.costs import CostLedger

        store = attach_shared_store(args.store)
        ledger = CostLedger(cache=shared_cache(), store=store)
    spec = get_scenario(args.scenario)
    scale = get_scale(args.scale)
    duration = args.duration if args.duration is not None else scale.measurement_duration_s
    stages = {"1", "2", "3"} if args.stage == "all" else {args.stage}
    if args.faults != "off":
        if spec.faults is None:
            print(
                f"error: scenario {spec.name!r} has no fault schedule; "
                "--faults needs a hostile catalog entry (tag 'hostile')",
                file=sys.stderr,
            )
            return 2
        if "3" not in stages:
            print("error: --faults applies to stage 3 (use --stage 3 or all)", file=sys.stderr)
            return 2
        if spec.is_multislice:
            print("error: --faults does not support multi-slice scenarios", file=sys.stderr)
            return 2
    previous_executor = os.environ.get(EXECUTOR_ENV_VAR)
    if args.executor is not None:
        os.environ[EXECUTOR_ENV_VAR] = args.executor
    try:
        print(
            f"scenario {spec.name!r} | stage {args.stage} | scale {scale.name} | "
            f"executor {os.environ.get(EXECUTOR_ENV_VAR, 'auto')} | "
            f"measurement duration {duration:g}s"
        )
        summary: dict = {
            "scenario": spec.name,
            "stage": args.stage,
            "scale": scale.name,
            "slices": [],
        }
        before = after = None
        if spec.is_multislice:
            real_network = spec.primary.make_real_network(seed=args.seed + 1)
            before = real_network.measure_slices(
                spec.slice_runs(seed=args.seed + 9000), budget=spec.budget, duration=duration
            )
            _print_multislice_round(before, "contended round (deployed configurations):")
        for workload in spec.slices:
            summary["slices"].append(
                _run_workload(
                    workload, spec, stages, scale, duration, seed=args.seed, faults=args.faults
                )
            )
        # An "optimised" contended round only makes sense when a stage that
        # produces configurations actually ran; stage 1 alone learns
        # simulation parameters, not allocations.
        if spec.is_multislice and stages & {"2", "3"}:
            learned_runs = []
            for index, (workload, slice_summary) in enumerate(zip(spec.slices, summary["slices"])):
                if "stage3" in slice_summary:
                    config = slice_summary["stage3"]["_best_config"]
                else:
                    config = slice_summary["stage2"]["_policy"].best_config
                learned_runs.append(
                    SliceRun(
                        name=workload.name,
                        config=config,
                        scenario=workload.scenario,
                        sla=workload.sla,
                        seed=args.seed + 9100 + index,
                    )
                )
            real_network = spec.primary.make_real_network(seed=args.seed + 1)
            after = real_network.measure_slices(
                learned_runs, budget=spec.budget, duration=duration
            )
            _print_multislice_round(after, "contended round (optimised configurations):")
        costs = ledger.finish() if ledger is not None else None
        if costs is not None:
            cache = costs["cache"] or {}
            print(
                f"\ncosts: {costs['engine_requests']} measurements executed "
                f"({costs['sim_seconds']:g} sim-s), cache served "
                f"{cache.get('memory_hits', 0)} from memory + "
                f"{cache.get('store_hits', 0)} from the store "
                f"(hit rate {cache.get('hit_rate', 0.0):.1%})"
            )
        if args.json is not None:
            payload = _jsonable(
                {
                    **summary,
                    "multislice_before": before.summary() if before is not None else None,
                    "multislice_after": after.summary() if after is not None else None,
                    "costs": costs,
                }
            )
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
            print(f"\nwrote JSON summary to {args.json}")
        print("\ndone")
        return 0
    finally:
        if args.executor is not None:
            if previous_executor is None:
                os.environ.pop(EXECUTOR_ENV_VAR, None)
            else:
                os.environ[EXECUTOR_ENV_VAR] = previous_executor


def cmd_eval(args: argparse.Namespace) -> int:
    """Replay the eval dataset, write the report, exit on the gate verdict."""
    from repro.evalharness import evaluate, render_report, write_report

    store = None
    if args.store is not None:
        from repro.service.store import ResultStore

        store = ResultStore(args.store)
    report, gate, _ = evaluate(
        cases_path=args.cases,
        group=args.group,
        scenario=args.eval_scenario,
        seeds=args.seeds,
        executor=args.executor,
        out_dir=args.out,
        determinism=not args.no_determinism,
        store=store,
    )
    report_path = write_report(report, Path(args.out) / "EVAL_report.json")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
        print(f"wrote {report_path}")
    if args.history is not None:
        from repro.evalharness import append_trend, render_drift

        outcome = append_trend(report, args.history)
        record = outcome["record"]
        print(f"appended run {record['run']} to {Path(args.history) / 'trend.jsonl'}")
        drift_text = render_drift(outcome["drift"])
        if drift_text:
            print(drift_text)
    return 0 if gate.passed else 1


# ------------------------------------------------------------- service mode
def cmd_serve(args: argparse.Namespace) -> int:
    """Run the service daemon against a state directory."""
    from repro.service.daemon import serve

    return serve(
        args.state,
        workers=args.workers,
        max_jobs=args.max_jobs,
        idle_exit_s=args.idle_exit,
        store_max_bytes=args.store_max_bytes,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Enqueue a job and print its id (the whole stdout, for shell capture)."""
    from repro.service import submit_job

    if args.job_kind == "run":
        params = {
            "scenario": args.scenario,
            "stage": args.stage,
            "scale": args.scale,
            "seed": args.seed,
            "executor": args.executor,
            "faults": args.faults,
            "duration": args.duration,
        }
    else:
        params = {
            "group": args.group,
            "scenario": args.eval_scenario,
            "seeds": args.seeds,
            "executor": args.executor,
            "determinism": args.determinism,
        }
    spec = submit_job(args.state, args.job_kind, {k: v for k, v in params.items() if v is not None})
    print(spec.id)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """List all jobs, or print one job's full JSON record."""
    from repro.service import job_record, list_jobs

    if args.job is not None:
        print(json.dumps(job_record(args.state, args.job), indent=2, sort_keys=True))
        return 0
    records = list_jobs(args.state)
    if not records:
        print("no jobs")
        return 0
    print(f"{'id':<30} {'kind':<5} {'status':<8} detail")
    for record in records:
        result = record.get("result", {})
        costs = result.get("costs") or {}
        cache = costs.get("cache") or {}
        detail = ""
        if costs:
            detail = (
                f"{costs.get('engine_requests', 0)} executed, "
                f"{cache.get('memory_hits', 0)}+{cache.get('store_hits', 0)} cached, "
                f"{costs.get('wall_time_s', 0.0):.1f}s"
            )
        if result.get("error"):
            detail = result["error"]
        print(f"{record['id']:<30} {record['kind']:<5} {record['status']:<8} {detail}")
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    """Print a job's captured stdout (or, with --trace, its span stream)."""
    from repro.service import ServicePaths

    job_dir = ServicePaths(Path(args.state)).job_dir(args.job)
    path = job_dir / ("trace.jsonl" if args.trace else "log.txt")
    if not path.exists():
        print(f"error: {path} does not exist (job not started yet?)", file=sys.stderr)
        return 2
    sys.stdout.write(path.read_text())
    return 0


def _jsonable(value):
    """Drop private keys and coerce numpy scalars so ``json.dump`` succeeds."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items() if not k.startswith("_")}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the Atlas reproduction pipeline on any scenario-catalog entry.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-scenarios", help="list every registered catalog entry"
    )
    list_parser.set_defaults(handler=cmd_list_scenarios)

    show_parser = subparsers.add_parser("show", help="show full detail of one catalog entry")
    show_parser.add_argument("scenario", help="catalog entry name")
    show_parser.set_defaults(handler=cmd_show)

    run_parser = subparsers.add_parser(
        "run", help="run the pipeline stages on one catalog entry"
    )
    run_parser.add_argument("--scenario", required=True, help="catalog entry name")
    run_parser.add_argument(
        "--stage",
        choices=("1", "2", "3", "all"),
        default="all",
        help="which Atlas stage(s) to run (default: all)",
    )
    run_parser.add_argument(
        "--scale",
        choices=tuple(sorted(SCALES)),
        default=None,
        help="iteration budgets and durations (default: the ATLAS_BENCH_SCALE env var, then 'small')",
    )
    run_parser.add_argument(
        "--executor",
        choices=tuple(sorted(EXECUTOR_KINDS)),
        default=None,
        help=(
            "measurement-engine executor (default: the ATLAS_ENGINE_EXECUTOR env var, then "
            "'auto' — adaptive per-batch vectorized/sharded selection; every kind "
            "produces identical results)"
        ),
    )
    run_parser.add_argument("--seed", type=int, default=0, help="base random seed (default: 0)")
    run_parser.add_argument(
        "--faults",
        choices=("off", "guarded", "unprotected"),
        default="off",
        help=(
            "inject the scenario's fault schedule into stage 3 (hostile catalog entries "
            "only): 'guarded' runs the learner under the watchdog, 'unprotected' runs it "
            "bare (default: off)"
        ),
    )
    run_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="per-measurement duration in simulated seconds (default: the scale's duration)",
    )
    run_parser.add_argument("--json", default=None, help="write a JSON summary to this path")
    run_parser.add_argument(
        "--store",
        default=None,
        help=(
            "persistent result-store directory: measurements are served from and "
            "written through to it, and a cost ledger is printed (and embedded in "
            "--json output)"
        ),
    )
    run_parser.set_defaults(handler=cmd_run)

    eval_parser = subparsers.add_parser(
        "eval",
        help="replay the curated eval dataset and run the regression gate",
    )
    eval_parser.add_argument(
        "--group", default=None, help="only replay cases in this group (disables coverage check)"
    )
    eval_parser.add_argument(
        "--scenario",
        dest="eval_scenario",
        default=None,
        help="only replay cases for this catalog scenario (disables coverage check)",
    )
    eval_parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="override every case's replay seeds (default: the seeds in cases.yaml)",
    )
    eval_parser.add_argument(
        "--executor",
        choices=tuple(sorted(EXECUTOR_KINDS)),
        default=None,
        help=(
            "measurement-engine executor; every kind produces identical results, so "
            "the choice cannot change any metric (default: the ATLAS_ENGINE_EXECUTOR "
            "env var, then 'auto')"
        ),
    )
    eval_parser.add_argument(
        "--out",
        default="eval_out",
        help="run-layout root; EVAL_report.json is written here (default: eval_out)",
    )
    eval_parser.add_argument(
        "--cases",
        default=None,
        help="alternative case-registry file (default: the checked-in cases.yaml)",
    )
    eval_parser.add_argument(
        "--json",
        action="store_true",
        help="print the atlas-eval/1 report JSON instead of the human-readable summary",
    )
    eval_parser.add_argument(
        "--no-determinism",
        action="store_true",
        help="skip the gate's replay-twice determinism check (quick local runs)",
    )
    eval_parser.add_argument(
        "--store",
        default=None,
        help=(
            "persistent result-store directory: the replay is served from it where "
            "possible and a cost ledger lands in the report's provenance.costs"
        ),
    )
    eval_parser.add_argument(
        "--history",
        default=None,
        help=(
            "trend directory: append this run's summary to <dir>/trend.jsonl and "
            "flag metric drift against the previous run"
        ),
    )
    eval_parser.set_defaults(handler=cmd_eval)

    serve_parser = subparsers.add_parser(
        "serve", help="run the service daemon against a state directory"
    )
    serve_parser.add_argument("--state", required=True, help="service state directory")
    serve_parser.add_argument(
        "--workers", type=int, default=1, help="concurrent job executors (default: 1)"
    )
    serve_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after executing this many jobs (default: run until signalled)",
    )
    serve_parser.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="exit after the queue has been idle for this many seconds",
    )
    serve_parser.add_argument(
        "--store-max-bytes",
        type=int,
        default=2 * 1024**3,
        help="persistent-store size bound in bytes (default: 2 GiB)",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="enqueue a job (prints the job id)"
    )
    submit_parser.add_argument("--state", required=True, help="service state directory")
    submit_sub = submit_parser.add_subparsers(dest="job_kind", required=True)
    submit_run = submit_sub.add_parser("run", help="enqueue a pipeline stage run")
    submit_run.add_argument("--scenario", required=True, help="catalog entry name")
    submit_run.add_argument("--stage", choices=("1", "2", "3", "all"), default="all")
    submit_run.add_argument("--scale", choices=tuple(sorted(SCALES)), default=None)
    submit_run.add_argument("--executor", choices=tuple(sorted(EXECUTOR_KINDS)), default=None)
    submit_run.add_argument("--seed", type=int, default=0)
    submit_run.add_argument("--faults", choices=("off", "guarded", "unprotected"), default="off")
    submit_run.add_argument("--duration", type=float, default=None)
    submit_eval = submit_sub.add_parser("eval", help="enqueue an eval-harness run")
    submit_eval.add_argument("--group", default=None, help="only replay cases in this group")
    submit_eval.add_argument(
        "--scenario", dest="eval_scenario", default=None, help="only replay this scenario's cases"
    )
    submit_eval.add_argument("--seeds", type=int, nargs="+", default=None)
    submit_eval.add_argument("--executor", choices=tuple(sorted(EXECUTOR_KINDS)), default=None)
    submit_eval.add_argument(
        "--determinism",
        action="store_true",
        help=(
            "also run the gate's replay-twice determinism check (off by default in "
            "service mode: the check reruns without the store and doubles the cost)"
        ),
    )
    submit_parser.set_defaults(handler=cmd_submit)

    status_parser = subparsers.add_parser(
        "status", help="list jobs, or show one job's full record"
    )
    status_parser.add_argument("--state", required=True, help="service state directory")
    status_parser.add_argument("job", nargs="?", default=None, help="job id (default: list all)")
    status_parser.set_defaults(handler=cmd_status)

    tail_parser = subparsers.add_parser(
        "tail", help="print a job's captured stdout or trace stream"
    )
    tail_parser.add_argument("--state", required=True, help="service state directory")
    tail_parser.add_argument("job", help="job id")
    tail_parser.add_argument(
        "--trace", action="store_true", help="print the structured trace instead of stdout"
    )
    tail_parser.set_defaults(handler=cmd_tail)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse arguments and dispatch to the chosen subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.handler in (cmd_run, cmd_eval, cmd_serve) and getattr(args, "executor", None) is None:
        # These build engines in this process from ATLAS_ENGINE_EXECUTOR;
        # reject a bad value here instead of deep inside the first stage.
        try:
            default_executor_kind()
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        return args.handler(args)
    except UnknownScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:
        from repro.evalharness.dataset import EvalDatasetError

        if isinstance(error, EvalDatasetError):
            print(f"error: {error}", file=sys.stderr)
            return 2
        raise
