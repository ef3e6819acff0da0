"""The evaluation harness: dataset, replay runner, layout, determinism.

The cross-executor classes reuse the byte-identity contract from
``tests/test_engine_sharded.py``: every request carries an explicit seed and
each batch lane draws only from it, so the *same* metric bytes must come out
of the vectorized, sharded and auto executor kinds.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import available_parallelism, pool_diagnostics, shutdown_worker_pools
from repro.evalharness import (
    DEFAULT_CASES_PATH,
    METRIC_NAMES,
    Envelope,
    EvalCase,
    EvalDatasetError,
    EvalRunner,
    canonical_metrics_bytes,
    check_coverage,
    evaluate,
    load_cases,
    parse_cases_yaml,
    scaled_config,
)
from repro.scenarios import get_scenario, scenario_names
from repro.sim.config import CONFIG_BOUNDS, SliceConfig

WIDE = {
    "latency_p95_ms": Envelope(0.0, 100000.0),
    "sla_violation_rate": Envelope(0.0, 1.0),
    "avg_usage_regret": Envelope(-10.0, 10.0),
    "avg_qoe_regret": Envelope(-10.0, 10.0),
    "sim_real_symmetric_kl": Envelope(0.0, 1000.0),
}


def small_case(scenario: str = "urllc-control", **changes) -> EvalCase:
    """A fast replay case with envelopes no sane metric can escape."""
    base = EvalCase(
        group="test",
        scenario=scenario,
        seeds=(0,),
        measurements=2,
        duration_s=3.0,
        usage_ladder=(0.9, 1.0),
        envelopes=dict(WIDE),
    )
    return base.replace(**changes) if changes else base


class TestMiniYamlParser:
    def test_scalars_lists_and_nesting(self):
        document = parse_cases_yaml(
            "\n".join(
                [
                    "# a comment",
                    "defaults:",
                    "  seeds: [0, 1]",
                    "  duration_s: 6.0",
                    "cases:",
                    "  - group: static",
                    "    scenario: embb-video",
                    "    envelopes:",
                    "      latency_p95_ms: [10, 20.5]",
                    "  - group: dynamic",
                    "    scenario: flash-crowd",
                    "    envelopes:",
                    "      sla_violation_rate: [0, 1]",
                ]
            )
        )
        assert document["defaults"] == {"seeds": [0, 1], "duration_s": 6.0}
        assert len(document["cases"]) == 2
        assert document["cases"][0]["envelopes"]["latency_p95_ms"] == [10, 20.5]
        assert document["cases"][1]["group"] == "dynamic"

    def test_quoted_strings_and_booleans(self):
        document = parse_cases_yaml('flag: true\nname: "hello world"\n')
        assert document == {"flag": True, "name": "hello world"}

    def test_tab_indentation_is_rejected(self):
        with pytest.raises(EvalDatasetError, match="indentation"):
            parse_cases_yaml("cases:\n\t- group: x\n")

    def test_odd_indentation_is_rejected(self):
        with pytest.raises(EvalDatasetError, match="even number"):
            parse_cases_yaml("cases:\n   odd: 1\n")

    def test_duplicate_keys_are_rejected(self):
        with pytest.raises(EvalDatasetError, match="duplicate key"):
            parse_cases_yaml("a: 1\na: 2\n")

    def test_empty_document_parses_to_empty_mapping(self):
        assert parse_cases_yaml("# only a comment\n") == {}


class TestDataset:
    def test_checked_in_registry_loads_and_is_unique(self):
        cases = load_cases()
        ids = [case.case_id for case in cases]
        assert len(ids) == len(set(ids))
        assert all(case.envelopes for case in cases)

    def test_checked_in_registry_covers_every_catalog_scenario(self):
        covered = {case.scenario for case in load_cases()}
        assert covered == set(scenario_names())

    def test_group_filter(self):
        cases = load_cases(group="multislice")
        assert cases and all(case.group == "multislice" for case in cases)

    def test_scenario_filter(self):
        cases = load_cases(scenario="urllc-control")
        assert len(cases) == 1

    def test_filter_miss_names_registered_groups(self):
        with pytest.raises(EvalDatasetError, match="registered groups"):
            load_cases(group="nope")

    def test_filter_miss_names_covered_scenarios(self):
        with pytest.raises(EvalDatasetError, match="urllc-control"):
            load_cases(scenario="nope")

    def test_case_requires_usage_ladder_with_deployed_factor(self):
        with pytest.raises(EvalDatasetError, match="1.0"):
            small_case(usage_ladder=(0.9, 1.1))

    def test_case_rejects_unknown_metric(self):
        with pytest.raises(EvalDatasetError, match="unknown metric"):
            small_case(envelopes={"nonsense": Envelope(0.0, 1.0)})

    def test_case_requires_seeds_and_envelopes(self):
        with pytest.raises(EvalDatasetError, match="seed"):
            small_case(seeds=())
        with pytest.raises(EvalDatasetError, match="bound at least one metric"):
            small_case(envelopes={})

    def test_envelope_rejects_inverted_and_non_finite_bounds(self):
        with pytest.raises(EvalDatasetError, match="exceeds"):
            Envelope(2.0, 1.0)
        with pytest.raises(EvalDatasetError, match="finite"):
            Envelope(0.0, float("inf"))

    def test_envelope_never_contains_nan(self):
        assert not Envelope(0.0, 1.0).contains(float("nan"))
        assert Envelope(0.0, 1.0).contains(0.0) and Envelope(0.0, 1.0).contains(1.0)

    def test_duplicate_case_ids_in_registry_are_rejected(self, tmp_path):
        registry = tmp_path / "cases.yaml"
        entry = (
            "  - group: g\n"
            "    scenario: urllc-control\n"
            "    envelopes:\n"
            "      latency_p95_ms: [0, 100]\n"
        )
        registry.write_text("cases:\n" + entry + entry)
        with pytest.raises(EvalDatasetError, match="duplicate case id"):
            load_cases(path=registry)


class TestCoverageGuard:
    def test_checked_in_registry_passes_coverage(self):
        assert check_coverage(load_cases()) == []

    def test_missing_scenario_fails_with_actionable_message(self):
        partial = [case for case in load_cases() if case.scenario != "flash-crowd"]
        failures = check_coverage(partial)
        assert len(failures) == 1
        assert failures[0].kind == "coverage"
        assert "flash-crowd" in failures[0].message
        assert "cases.yaml" in failures[0].message

    def test_default_registry_file_is_the_checked_in_one(self):
        assert DEFAULT_CASES_PATH.name == "cases.yaml"
        assert DEFAULT_CASES_PATH.exists()


class TestScaledConfig:
    def test_scales_only_contended_dimensions(self):
        config = SliceConfig(mcs_offset_ul=3, mcs_offset_dl=2)
        scaled = scaled_config(config, 0.5)
        assert scaled.mcs_offset_ul == 3 and scaled.mcs_offset_dl == 2
        assert scaled.bandwidth_ul == pytest.approx(config.bandwidth_ul * 0.5)

    def test_clamps_to_config_bounds(self):
        config = SliceConfig()
        huge = scaled_config(config, 1000.0)
        for name in ("bandwidth_ul", "bandwidth_dl", "backhaul_bw", "cpu_ratio"):
            assert getattr(huge, name) <= CONFIG_BOUNDS[name][1]

    def test_identity_factor_is_identity(self):
        config = SliceConfig()
        assert scaled_config(config, 1.0) == config


class TestRunnerLayout:
    def test_run_layout_and_result_schema(self, tmp_path):
        case = small_case()
        runner = EvalRunner(out_dir=tmp_path)
        runner.run_case(case)
        run_dir = tmp_path / "test" / "urllc-control" / "seed=0"
        payload = json.loads((run_dir / "result.json").read_text())
        assert payload["schema"] == "atlas-eval-run/1"
        assert payload["case"] == "test/urllc-control"
        assert payload["seed"] == 0
        assert set(payload["metrics"]) == set(METRIC_NAMES)
        assert payload["executor"]["resolved"] in ("vectorized", "sharded")

    def test_events_jsonl_lines_are_parseable_and_complete(self, tmp_path):
        case = small_case()
        EvalRunner(out_dir=tmp_path).run_case(case)
        lines = (
            (tmp_path / "test" / "urllc-control" / "seed=0" / "events.jsonl")
            .read_text()
            .splitlines()
        )
        events = [json.loads(line) for line in lines]
        # two environments x two ladder variants x two measurements
        assert len(events) == 2 * len(case.usage_ladder) * case.measurements
        assert {event["env"] for event in events} == {"sim", "real"}
        assert all(event["kind"] == "measurement" for event in events)

    def test_multislice_events_carry_slice_names(self, tmp_path):
        case = small_case(scenario="mixed-enterprise", measurements=1, usage_ladder=(1.0,))
        EvalRunner(out_dir=tmp_path).run_case(case)
        lines = (
            (tmp_path / "test" / "mixed-enterprise" / "seed=0" / "events.jsonl")
            .read_text()
            .splitlines()
        )
        names = {json.loads(line)["slice"] for line in lines}
        assert names == {w.name for w in get_scenario("mixed-enterprise").slices}

    def test_in_memory_mode_writes_nothing(self, tmp_path):
        runner = EvalRunner()
        result = runner.run_case(small_case())
        assert result.seed_results and not list(tmp_path.iterdir())


class TestRunnerDeterminism:
    def test_same_seed_reproduces_identical_metric_bytes(self):
        case = small_case()
        first = EvalRunner().run_seed(case, 0)
        second = EvalRunner().run_seed(case, 0)
        assert canonical_metrics_bytes(first.metrics) == canonical_metrics_bytes(second.metrics)

    def test_different_seeds_change_the_metrics(self):
        case = small_case()
        runner = EvalRunner()
        a = runner.run_seed(case, 0)
        b = runner.run_seed(case, 7)
        assert canonical_metrics_bytes(a.metrics) != canonical_metrics_bytes(b.metrics)

    def test_latency_bias_shifts_p95_by_its_offset(self):
        case = small_case()
        clean = EvalRunner().run_seed(case, 0)
        biased = EvalRunner(latency_bias_ms=100.0).run_seed(case, 0)
        assert biased.metrics["latency_p95_ms"] == pytest.approx(
            clean.metrics["latency_p95_ms"] + 100.0
        )
        assert biased.latency_bias_ms == 100.0


class TestCrossExecutorIdentity:
    """The satellite contract: identical metrics under every executor kind."""

    EXECUTORS = ("vectorized", "sharded", "auto")

    @pytest.mark.parametrize("scenario", ["urllc-control", "embb-bursty", "mixed-enterprise"])
    def test_metrics_identical_across_executors(self, scenario):
        # Eight lanes per batch: enough for the sharded and auto kinds to
        # split each environment's batch across the worker pool.
        case = small_case(scenario=scenario, measurements=4)
        blobs = {}
        records = {}
        for kind in self.EXECUTORS:
            run = EvalRunner(executor=kind, max_workers=2).run_seed(case, 0)
            blobs[kind] = canonical_metrics_bytes(run.metrics)
            records[kind] = run.executor
        baseline = blobs["vectorized"]
        assert all(blob == baseline for blob in blobs.values()), blobs
        # The report must record which executor produced each run.
        assert records["vectorized"]["kind"] == "vectorized"
        assert records["sharded"]["kind"] == "sharded"
        assert records["auto"]["kind"] == "auto"
        assert records["auto"]["resolved"] in ("vectorized", "sharded")


class TestWorkerPoolReuse:
    @pytest.mark.skipif(available_parallelism() < 2, reason="sharding needs 2 or more cores")
    def test_eval_runs_every_environment_through_one_pool(self):
        # The eval moves between many replay environments; none of them may
        # respawn the worker pool.
        shutdown_worker_pools()
        before = pool_diagnostics()
        evaluate(cases=load_cases()[:2], executor="sharded", max_workers=2)
        after = pool_diagnostics()
        assert after["pools_created"] - before["pools_created"] == 1
        assert after["batches_dispatched"] - before["batches_dispatched"] > 1
        shutdown_worker_pools()
