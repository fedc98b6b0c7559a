"""Fault-injection engine: plan semantics, elastic state, empty-plan identity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compression import build_compressor
from repro.compression.codec.stages import remap_rank_rows
from repro.comm import ProcessGroup
from repro.ddp import DistributedDataParallel
from repro.golden import GOLDEN_METHODS, golden_config_for
from repro.simulation import ClusterSpec, run_experiment
from repro.simulation.faults import EMPTY_FAULT_PLAN, FaultEvent, FaultPlan


# --------------------------------------------------------------------- #
# FaultPlan semantics
# --------------------------------------------------------------------- #
class TestFaultPlanSemantics:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "crash:3@0.5,rejoin:3@2.0,link:0.25@1.0-2.0,link:0.5@3.0,"
            "churn:0.1:2.5:7,policy:zero"
        )
        kinds = [event.kind for event in plan.sorted_events()]
        assert kinds == ["crash", "link", "rejoin", "link"]
        assert plan.churn_probability == 0.1
        assert plan.churn_factor == 2.5
        assert plan.churn_seed == 7
        assert plan.residual_policy == "zero"
        assert not plan.is_empty

    def test_parse_rejects_bad_tokens(self):
        for bad in ("explode:1@0.5", "crash:x@1", "link:0@1", "policy:maybe"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_dict_roundtrip(self):
        plan = FaultPlan.parse("crash:1@0.5,link:0.5@1.0-2.0,churn:0.2")
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(KeyError):
            FaultPlan.from_dict({"events": [], "surprise": 1})

    def test_coerce_forms(self):
        assert FaultPlan.coerce(None) is None
        plan = FaultPlan.parse("crash:0@1.0,rejoin:0@2.0")
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce("crash:0@1.0,rejoin:0@2.0") == plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        with pytest.raises(TypeError):
            FaultPlan.coerce(42)

    def test_active_ranks_over_time(self):
        plan = FaultPlan.parse("crash:3@0.5,crash:1@1.0,rejoin:3@2.0")
        assert plan.active_ranks(4, 0.0) == [0, 1, 2, 3]
        assert plan.active_ranks(4, 0.5) == [0, 1, 2]  # event at t included
        assert plan.active_ranks(4, 1.5) == [0, 2]
        assert plan.active_ranks(4, 2.0) == [0, 2, 3]

    def test_link_factor_windows_compound(self):
        plan = FaultPlan.parse("link:0.5@1.0-2.0,link:0.25@1.5")
        assert plan.link_factor(0.9) == 1.0
        assert plan.link_factor(1.0) == 0.5
        assert plan.link_factor(1.5) == 0.5 * 0.25  # overlapping windows multiply
        assert plan.link_factor(2.0) == 0.25  # first window is half-open
        assert plan.link_factor(100.0) == 0.25  # open-ended window persists

    def test_events_between_half_open(self):
        plan = FaultPlan.parse("crash:0@1.0,rejoin:0@2.0")
        assert [e.at for e in plan.events_between(-1.0, 1.0)] == [1.0]
        assert [e.at for e in plan.events_between(1.0, 2.0)] == [2.0]
        assert plan.events_between(2.0, 99.0) == []

    def test_churn_is_counter_based(self):
        plan = FaultPlan.parse("churn:0.5:4.0:3")
        draws = plan.churn_multipliers(8, 17)
        # Same (seed, iteration) -> same multipliers, regardless of history.
        assert np.array_equal(draws, plan.churn_multipliers(8, 17))
        assert not np.array_equal(draws, plan.churn_multipliers(8, 18))
        assert set(np.unique(draws)) <= {1.0, 4.0}

    def test_churn_disabled_is_all_ones(self):
        assert np.array_equal(EMPTY_FAULT_PLAN.churn_multipliers(4, 0), np.ones(4))

    def test_validate_for_world(self):
        FaultPlan.parse("crash:3@0.5,rejoin:3@2.0").validate_for_world(4)
        with pytest.raises(ValueError, match="outside"):
            FaultPlan.parse("crash:7@0.5").validate_for_world(4)
        with pytest.raises(ValueError, match="already dead"):
            FaultPlan.parse("crash:1@0.5,crash:1@1.0").validate_for_world(4)
        with pytest.raises(ValueError, match="still alive"):
            FaultPlan.parse("rejoin:1@0.5").validate_for_world(4)
        with pytest.raises(ValueError, match="survive"):
            FaultPlan.parse("crash:0@0.5,crash:1@1.0").validate_for_world(2)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", at=1.0)  # no rank
        with pytest.raises(ValueError):
            FaultEvent(kind="link", at=2.0, factor=1.0, until=1.0)  # ends first
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", at=1.0)


# --------------------------------------------------------------------- #
# ClusterSpec integration
# --------------------------------------------------------------------- #
class TestClusterSpecFaults:
    def test_empty_string_normalises_to_none(self):
        spec = ClusterSpec(world_size=4, faults="")
        assert spec.faults is None
        assert spec.to_dict() == ClusterSpec(world_size=4).to_dict()

    def test_grammar_string_coerced_and_validated(self):
        spec = ClusterSpec(world_size=4, faults="crash:3@0.5,rejoin:3@2.0")
        assert isinstance(spec.faults, FaultPlan)
        assert spec.fault_plan() is spec.faults
        with pytest.raises(ValueError):
            ClusterSpec(world_size=4, faults="crash:9@0.5")

    def test_dict_roundtrip_with_plan(self):
        spec = ClusterSpec(world_size=4, faults="crash:3@0.5,rejoin:3@2.0,churn:0.1")
        restored = ClusterSpec.from_dict(spec.to_dict())
        assert restored.faults == spec.faults

    def test_fault_plan_defaults_to_inert(self):
        assert ClusterSpec(world_size=4).fault_plan() is EMPTY_FAULT_PLAN

    def test_cost_model_for_defaults_matches_cost_model(self):
        for spec in (
            ClusterSpec(world_size=4, bandwidth="100Mbps"),
            ClusterSpec(world_size=4, bandwidth="1Gbps", hierarchical=True),
        ):
            base = spec.cost_model()
            derived = spec.cost_model_for()
            assert derived.ring_all_reduce_time(10_000) == base.ring_all_reduce_time(10_000)

    def test_cost_model_for_degraded_link_costs_more(self):
        spec = ClusterSpec(world_size=4, bandwidth="100Mbps")
        healthy = spec.cost_model_for(4, 1.0).ring_all_reduce_time(10_000)
        degraded = spec.cost_model_for(4, 0.5).ring_all_reduce_time(10_000)
        assert degraded > healthy


# --------------------------------------------------------------------- #
# Elastic compressor / DDP state
# --------------------------------------------------------------------- #
class TestElasticState:
    def test_remap_rank_rows_carry_shrink_then_grow(self):
        state = {0: np.arange(12, dtype=np.float64).reshape(4, 3)}
        original = state[0].copy()
        remap_rank_rows(state, [0, 1, 2, 3], [0, 1, 3], policy="carry")
        assert np.array_equal(state[0], original[[0, 1, 3]])
        # Grow back: survivors keep rows, the re-joined rank 2 starts at zero.
        remap_rank_rows(state, [0, 1, 3], [0, 1, 2, 3], policy="carry")
        assert np.array_equal(state[0][0], original[0])
        assert np.array_equal(state[0][1], original[1])
        assert np.array_equal(state[0][2], np.zeros(3))
        assert np.array_equal(state[0][3], original[3])

    def test_remap_rank_rows_zero_policy(self):
        state = {0: np.ones((4, 3))}
        remap_rank_rows(state, [0, 1, 2, 3], [0, 1, 2], policy="zero")
        assert np.array_equal(state[0], np.zeros((3, 3)))

    def test_remap_rank_rows_stale_shape_zeroed(self):
        state = {0: np.ones((2, 3))}  # rows do not match old membership of 4
        remap_rank_rows(state, [0, 1, 2, 3], [0, 1, 3], policy="carry")
        assert np.array_equal(state[0], np.zeros((3, 3)))

    def test_remap_rank_rows_bad_policy(self):
        with pytest.raises(ValueError):
            remap_rank_rows({}, [0, 1], [0], policy="maybe")

    def test_codec_compressor_residual_resize(self):
        compressor = build_compressor("topk-0.1")
        compressor.enable_error_feedback()
        compressor._residuals[0] = np.arange(8, dtype=np.float64).reshape(4, 2)
        stage = compressor.pipeline.stages[0]
        stage._residuals[0] = np.arange(8, dtype=np.float64).reshape(4, 2) * 10
        compressor.resize_world([0, 1, 2, 3], [0, 2, 3], policy="carry")
        assert np.array_equal(compressor._residuals[0], [[0, 1], [4, 5], [6, 7]])
        assert np.array_equal(stage._residuals[0], [[0, 10], [40, 50], [60, 70]])

    def test_ddp_set_active_ranks(self, tiny_model):
        ddp = DistributedDataParallel(tiny_model, world_size=4)
        assert not ddp.is_degraded
        assert ddp.active_ranks == [0, 1, 2, 3]
        ddp.set_active_ranks([0, 2, 3])
        assert ddp.is_degraded
        assert ddp.active_ranks == [0, 2, 3]
        assert ddp.active_group.world_size == 3
        # Full membership with no explicit group restores the healthy path.
        ddp.set_active_ranks([0, 1, 2, 3])
        assert not ddp.is_degraded
        assert ddp.active_group is ddp.process_group

    def test_ddp_rejects_bad_membership(self, tiny_model):
        ddp = DistributedDataParallel(tiny_model, world_size=4)
        with pytest.raises(ValueError):
            ddp.set_active_ranks([])
        with pytest.raises(ValueError):
            ddp.set_active_ranks([0, 4])
        with pytest.raises(ValueError):
            ddp.set_active_ranks([0, 1], ProcessGroup(3))

    def test_degraded_reduce_averages_survivors_only(self, tiny_model):
        ddp = DistributedDataParallel(tiny_model, world_size=4)
        name = next(name for name, _ in tiny_model.named_parameters())
        shape = dict(tiny_model.named_parameters())[name].data.shape
        for rank in range(4):
            grads = {
                n: np.full(p.data.shape, float(rank + 1))
                for n, p in tiny_model.named_parameters()
            }
            ddp.stage_rank_gradients(rank, grads)
        ddp.set_active_ranks([0, 1, 2])
        aggregated, _ = ddp.synchronize_staged()
        # Mean over survivors (1+2+3)/3 = 2.0 — rank 3's stale rows excluded.
        assert np.allclose(aggregated[name], np.full(shape, 2.0))


# --------------------------------------------------------------------- #
# Empty plan == bit-identical runs; fault runs are deterministic
# --------------------------------------------------------------------- #
class TestFaultRuns:
    @pytest.mark.parametrize("method_name", sorted(GOLDEN_METHODS))
    def test_empty_plan_bit_identical_on_golden_cells(self, method_name):
        method = GOLDEN_METHODS[method_name]
        config = golden_config_for(method_name)
        baseline = run_experiment(config, method)
        cluster = dataclasses.replace(config.cluster, faults=FaultPlan())
        witness = run_experiment(dataclasses.replace(config, cluster=cluster), method)
        assert witness.to_dict() == baseline.to_dict()

    def _config(self, faults):
        from repro.simulation import ExperimentConfig

        return ExperimentConfig(
            model="mlp",
            dataset="cifar10",
            cluster=ClusterSpec(world_size=4, bandwidth="100Mbps", faults=faults),
            epochs=2,
            batch_size=8,
            dataset_samples=48,
            image_size=8,
            pretrain_iterations=2,
            max_iterations_per_epoch=4,
            seed=0,
        )

    @pytest.mark.parametrize("policy", ["carry", "zero"])
    def test_crash_rejoin_run_accounts_faults(self, policy):
        from repro.simulation import PAPER_METHODS

        plan = f"crash:3@0.002,rejoin:3@0.008,policy:{policy}"
        healthy = run_experiment(self._config(None), PAPER_METHODS["topk-0.1"])
        faulted = run_experiment(self._config(plan), PAPER_METHODS["topk-0.1"])
        assert faulted.fault_events == 2
        assert faulted.degraded_iterations > 0
        assert faulted.downtime_rank_seconds > 0.0
        assert faulted.rejoin_cost_time > 0.0
        assert faulted.goodput_fraction < 1.0
        assert faulted.simulated_time > healthy.simulated_time
        # Seed-determinism: replaying the plan reproduces the run bit for bit.
        again = run_experiment(self._config(plan), PAPER_METHODS["topk-0.1"])
        assert again.to_dict() == faulted.to_dict()

    def test_link_degradation_slows_communication(self):
        from repro.simulation import PAPER_METHODS

        healthy = run_experiment(self._config(None), PAPER_METHODS["all-reduce"])
        degraded = run_experiment(
            self._config("link:0.25@0.0"), PAPER_METHODS["all-reduce"]
        )
        assert degraded.fault_events == 1
        assert degraded.comm_time > healthy.comm_time
        assert degraded.final_accuracy == healthy.final_accuracy  # loss path untouched

    def test_churn_perturbs_compute_deterministically(self):
        from repro.simulation import PAPER_METHODS

        healthy = run_experiment(self._config(None), PAPER_METHODS["all-reduce"])
        churned = run_experiment(self._config("churn:0.5:3.0:1"), PAPER_METHODS["all-reduce"])
        assert churned.compute_time > healthy.compute_time
        again = run_experiment(self._config("churn:0.5:3.0:1"), PAPER_METHODS["all-reduce"])
        assert again.to_dict() == churned.to_dict()
