"""Tests for the baseline learners: GP-BO, DLDA and VirtualEdge."""

import numpy as np
import pytest

from repro.baselines.base import BaselineIterationRecord, BaselineResult
from repro.baselines.dlda import DLDA, DLDAConfig
from repro.baselines.gp_bo import GPConfigurationOptimizer, GPOptimizerConfig
from repro.baselines.virtualedge import VirtualEdge, VirtualEdgeConfig
from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario

SCENARIO = Scenario(traffic=1, duration_s=8.0)
SLA_DEFAULT = SLA(latency_threshold_ms=300.0, availability=0.9)


def _simulator():
    return NetworkSimulator(scenario=SCENARIO, seed=0)


def _real_network(seed=1):
    return RealNetwork(scenario=SCENARIO, seed=seed)


class TestBaselineResult:
    def test_series_extraction_and_best_feasible(self):
        result = BaselineResult(method="test")
        result.history = [
            BaselineIterationRecord(1, tuple(SliceConfig().to_array()), 0.5, 0.95, True),
            BaselineIterationRecord(2, tuple(SliceConfig().to_array()), 0.3, 0.92, True),
            BaselineIterationRecord(3, tuple(SliceConfig().to_array()), 0.2, 0.5, False),
        ]
        assert np.allclose(result.usages(), [0.5, 0.3, 0.2])
        assert np.allclose(result.qoes(), [0.95, 0.92, 0.5])
        assert result.best_feasible().resource_usage == 0.3
        assert result.sla_violation_rate() == pytest.approx(1 / 3)

    def test_best_feasible_none_when_all_violate(self):
        result = BaselineResult(method="test")
        result.history = [
            BaselineIterationRecord(1, tuple(SliceConfig().to_array()), 0.5, 0.1, False)
        ]
        assert result.best_feasible() is None

    def test_record_round_trip_to_config(self):
        config = SliceConfig(bandwidth_ul=20)
        record = BaselineIterationRecord(1, tuple(config.to_array()), 0.3, 0.9, True)
        assert record.to_slice_config() == config

    def test_empty_result_statistics(self):
        result = BaselineResult(method="empty")
        assert result.sla_violation_rate() == 0.0
        assert result.usages().size == 0


class TestGPConfigurationOptimizer:
    def _run(self, environment, acquisition="ei", iterations=5):
        optimizer = GPConfigurationOptimizer(
            environment=environment,
            sla=SLA_DEFAULT,
            traffic=1,
            config=GPOptimizerConfig(
                iterations=iterations,
                initial_random=2,
                candidate_pool=150,
                acquisition=acquisition,
                measurement_duration_s=8.0,
                seed=0,
            ),
        )
        return optimizer.run()

    def test_runs_against_the_simulator(self):
        result = self._run(_simulator())
        assert result.method == "GP-EI"
        assert len(result.history) == 5
        assert np.all((result.qoes() >= 0) & (result.qoes() <= 1))

    def test_runs_against_the_real_network(self):
        result = self._run(_real_network())
        assert len(result.history) == 5

    @pytest.mark.parametrize("acquisition, name", [("pi", "GP-PI"), ("ucb", "GP-UCB")])
    def test_alternative_acquisitions(self, acquisition, name):
        result = self._run(_simulator(), acquisition=acquisition, iterations=4)
        assert result.method == name
        assert len(result.history) == 4

    def test_initial_config_is_applied_first(self):
        start = SliceConfig(bandwidth_ul=40, bandwidth_dl=40, backhaul_bw=80, cpu_ratio=1.0)
        optimizer = GPConfigurationOptimizer(
            environment=_simulator(),
            sla=SLA_DEFAULT,
            config=GPOptimizerConfig(
                iterations=2, initial_random=1, candidate_pool=100,
                measurement_duration_s=8.0, initial_config=start, seed=0,
            ),
        )
        result = optimizer.run()
        assert result.history[0].to_slice_config() == start

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            GPOptimizerConfig(iterations=0)
        with pytest.raises(ValueError):
            GPOptimizerConfig(acquisition="random")


class TestDLDA:
    def _dlda(self, simulator=None, grid=2):
        return DLDA(
            simulator=simulator if simulator is not None else _simulator(),
            sla=SLA_DEFAULT,
            traffic=1,
            config=DLDAConfig(
                grid_points_per_dim=grid,
                selection_pool=400,
                online_iterations=3,
                teacher_epochs=60,
                student_epochs=15,
                measurement_duration_s=8.0,
                seed=0,
            ),
        )

    def test_offline_dataset_covers_the_grid(self):
        dlda = self._dlda()
        inputs, qoes = dlda.collect_offline_dataset()
        assert inputs.shape == (2**6, 6)
        assert np.all((qoes >= 0) & (qoes <= 1))

    def test_teacher_training_and_selection(self):
        dlda = self._dlda()
        dlda.train_offline()
        config = dlda.best_offline_config()
        assert isinstance(config, SliceConfig)

    def test_selection_prefers_feasible_predictions(self):
        dlda = self._dlda()
        dlda.train_offline()
        chosen = dlda.select_config()
        pool_unit = dlda.space.normalize(dlda.space.sample(500, np.random.default_rng(9)))
        predictions = np.clip(dlda.teacher.predict(pool_unit), 0.0, 1.0)
        chosen_prediction = float(
            np.clip(dlda.teacher.predict(dlda.space.normalize(chosen.to_array())), 0.0, 1.0)[0]
        )
        # The chosen action is either predicted to meet the requirement or is
        # (close to) the best prediction available anywhere in the space.
        assert (
            chosen_prediction >= dlda.sla.availability - 0.05
            or chosen_prediction >= predictions.max() - 0.1
        )

    def test_select_before_training_raises(self):
        with pytest.raises(RuntimeError):
            self._dlda().select_config()

    def test_online_fine_tuning_produces_history(self):
        dlda = self._dlda()
        result = dlda.run_online(_real_network(), iterations=3)
        assert result.method == "DLDA"
        assert len(result.history) == 3
        assert dlda.student is not None

    def test_online_runs_are_reproducible(self):
        # The student is a clone of the teacher; it must inherit a seeded
        # generator, or its fine-tuning (and every later pick) varies per run.
        first = self._dlda().run_online(_real_network(), iterations=3)
        second = self._dlda().run_online(_real_network(), iterations=3)
        assert first.history == second.history

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            DLDAConfig(grid_points_per_dim=1)
        with pytest.raises(ValueError):
            DLDAConfig(selection_pool=5)


class TestVirtualEdge:
    def _run(self, iterations=5):
        learner = VirtualEdge(
            environment=_real_network(),
            sla=SLA_DEFAULT,
            traffic=1,
            config=VirtualEdgeConfig(
                iterations=iterations,
                initial_random=2,
                measurement_duration_s=8.0,
                seed=0,
            ),
        )
        return learner.run()

    def test_runs_and_records_history(self):
        result = self._run()
        assert result.method == "VirtualEdge"
        assert len(result.history) == 5

    def test_configurations_stay_within_bounds(self):
        result = self._run(iterations=6)
        for record in result.history:
            config = record.to_slice_config()
            assert 0 <= config.bandwidth_ul <= 50
            assert 0 <= config.cpu_ratio <= 1

    def test_gradient_step_moves_toward_lower_objective(self):
        learner = VirtualEdge(
            environment=_simulator(),
            sla=SLA_DEFAULT,
            config=VirtualEdgeConfig(iterations=3, initial_random=1, measurement_duration_s=8.0, seed=1),
        )
        learner.run()
        current = np.full(6, 0.5)
        stepped = learner._gradient_step(current)
        assert stepped.shape == (6,)
        assert np.all((stepped >= 0) & (stepped <= 1))

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            VirtualEdgeConfig(iterations=0)
        with pytest.raises(ValueError):
            VirtualEdgeConfig(step_size=0.0)
