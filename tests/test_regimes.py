"""Asynchronous training regimes: grammar, parity, local SGD and the async PS.

The regime seam is locked down from four directions:

* the ``sync_schedule`` spec grammar (``"localsgd:H"``, ``"localsgd:H:delta"``,
  ``"ps:S"``) parses, canonicalises and round-trips through
  :class:`~repro.simulation.spec.MethodSpec` dicts, and rejects
  malformed specs loudly — property-tested with Hypothesis;
* **regime parity**: ``localsgd:1`` must reproduce today's synchronous path
  *bit-identically* for every golden method — averaging after every step is
  synchronous training, so the new dispatcher may not perturb a single float;
* local SGD semantics: H local steps per collective, delta-mode compression
  through the codec pipeline with the driver's error-feedback residual
  closing the aggregate delta exactly as it does for gradients;
* the stale-gradient parameter server: update accounting, the bounded
  staleness invariant ``staleness_max <= (world - 1) * (S + 1)``, event-loop
  determinism, and the loud rejections (fault plans, pruning, non-codec
  compressors).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import golden
from repro.campaign.spec import METHOD_FIELD_AXES, CampaignSpec, build_cell
from repro.comm import ProcessGroup
from repro.compression import (
    Compressor,
    build_compressor,
    exact_average,
    register_compressor,
)
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.simulation.cluster import ClusterSpec
from repro.simulation.experiment import MethodSpec, run_experiment
from repro.simulation.regimes import SyncSchedule, parse_sync_schedule


def make_bucket(buffers, index=0):
    numel = buffers[0].size
    layout = Bucket(index=index, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, buffers)


class _PlainMean(Compressor):
    """Minimal non-codec compressor: exact dense averaging, no pipeline."""

    name = "plain-mean"
    lossless = True

    def __init__(self, seed=None):
        super().__init__()

    def aggregate(self, bucket, group, iteration=0):
        flats = [np.asarray(row) for row in bucket.buffers]
        group.all_reduce(flats, average=True)
        return exact_average(flats)

#: Result fields that must be bit-identical between the synchronous path and
#: a ``localsgd:1`` schedule (every float the golden fixtures freeze).
PARITY_FIELDS = (
    "final_accuracy",
    "best_accuracy",
    "simulated_time",
    "compute_time",
    "comm_time",
    "comm_bytes_per_worker",
    "iterations_run",
    "epochs_run",
    "weight_sparsity",
    "compression_ratio",
)


# --------------------------------------------------------------------------- #
# Spec grammar
# --------------------------------------------------------------------------- #
class TestSyncScheduleGrammar:
    def test_default_is_synchronous(self):
        for spec in (None, "", "   ", "sync"):
            schedule = parse_sync_schedule(spec)
            assert schedule.regime == "sync"
            assert schedule.is_synchronous
            assert schedule.spec() == "sync"

    def test_localsgd_specs(self):
        schedule = parse_sync_schedule("localsgd:4")
        assert schedule.regime == "localsgd"
        assert schedule.period == 4
        assert not schedule.delta
        assert not schedule.is_synchronous
        delta = parse_sync_schedule("localsgd:8:delta")
        assert delta.period == 8 and delta.delta
        # The hyphenated alias parses to the same schedule.
        assert parse_sync_schedule("local-sgd:4") == schedule

    def test_localsgd_period_one_is_synchronous(self):
        """Averaging after every step IS synchronous training — the dispatcher
        must route localsgd:1 (delta or not) through the synchronous loop."""
        assert parse_sync_schedule("localsgd:1").is_synchronous
        assert parse_sync_schedule("localsgd:1:delta").is_synchronous

    def test_ps_specs(self):
        unbounded = parse_sync_schedule("ps")
        assert unbounded.regime == "ps" and unbounded.staleness is None
        assert not unbounded.is_synchronous
        bounded = parse_sync_schedule("ps:2")
        assert bounded.staleness == 2
        assert parse_sync_schedule("async-ps:0").staleness == 0

    def test_spec_is_canonical(self):
        for raw in ("localsgd:4", "localsgd:4:delta", "ps", "ps:3", "sync"):
            schedule = parse_sync_schedule(raw)
            assert parse_sync_schedule(schedule.spec()) == schedule

    @pytest.mark.parametrize(
        "bad",
        [
            "localsgd",
            "localsgd:",
            "localsgd:0",
            "localsgd:-3",
            "localsgd:2.5",
            "localsgd:2:bogus",
            "localsgd:2:delta:x",
            "ps:-1",
            "ps:1.5",
            "ps:2:3",
            "sync:1",
            "bogus",
            "bogus:2",
        ],
    )
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_sync_schedule(bad)
        with pytest.raises(ValueError):
            MethodSpec(name="m", compressor="all-reduce", sync_schedule=bad)

    @given(period=st.integers(min_value=1, max_value=10_000), delta=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_localsgd_round_trip(self, period, delta):
        spec = f"localsgd:{period}" + (":delta" if delta else "")
        schedule = parse_sync_schedule(spec)
        assert schedule == SyncSchedule(regime="localsgd", period=period, delta=delta)
        assert parse_sync_schedule(schedule.spec()) == schedule

    @given(staleness=st.one_of(st.none(), st.integers(min_value=0, max_value=100)))
    @settings(max_examples=50, deadline=None)
    def test_ps_round_trip(self, staleness):
        spec = "ps" if staleness is None else f"ps:{staleness}"
        schedule = parse_sync_schedule(spec)
        assert schedule.staleness == staleness
        assert parse_sync_schedule(schedule.spec()) == schedule

    @given(spec=st.sampled_from(["localsgd", "ps"]), value=st.integers(max_value=0))
    @settings(max_examples=50, deadline=None)
    def test_nonpositive_parameters_are_rejected(self, spec, value):
        if spec == "ps" and value == 0:
            return  # ps:0 is legal (fully synchronous progress bound)
        with pytest.raises(ValueError):
            parse_sync_schedule(f"{spec}:{value}")

    @given(
        period=st.integers(min_value=1, max_value=10_000),
        delta=st.booleans(),
        compressor=st.sampled_from(["all-reduce", "topk-0.01", "fp16"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_method_spec_dict_round_trip(self, period, delta, compressor):
        spec = f"localsgd:{period}" + (":delta" if delta else "")
        method = MethodSpec(name="m", compressor=compressor, sync_schedule=spec)
        restored = MethodSpec.from_dict(method.to_dict())
        assert restored == method
        assert restored.schedule() == method.schedule()

    def test_method_spec_default_schedule_round_trips_as_none(self):
        method = MethodSpec(name="m", compressor="all-reduce")
        assert method.sync_schedule is None
        assert method.schedule().is_synchronous
        assert MethodSpec.from_dict(method.to_dict()) == method


# --------------------------------------------------------------------------- #
# Regime parity: localsgd:1 == synchronous, bit-identically
# --------------------------------------------------------------------------- #
def _parity_pair(method: MethodSpec, schedule: str):
    config = golden.golden_config_for(method.name)
    base = dataclasses.replace(method, sync_schedule=None)
    wrapped = dataclasses.replace(method, sync_schedule=schedule)
    return run_experiment(config, base), run_experiment(config, wrapped)


class TestRegimeParity:
    @pytest.mark.parametrize("method_name", sorted(golden.GOLDEN_METHODS))
    def test_localsgd_1_is_bit_identical_to_synchronous(self, method_name):
        baseline, localsgd1 = _parity_pair(
            golden.GOLDEN_METHODS[method_name], "localsgd:1"
        )
        for field in PARITY_FIELDS:
            assert getattr(baseline, field) == getattr(localsgd1, field), field
        assert baseline.accuracy_trace == localsgd1.accuracy_trace
        assert baseline.loss_trace == localsgd1.loss_trace

    def test_localsgd_1_delta_with_lossless_codec_is_bit_identical(self):
        method = MethodSpec(name="none", compressor="none")
        baseline, delta1 = _parity_pair(method, "localsgd:1:delta")
        for field in PARITY_FIELDS:
            assert getattr(baseline, field) == getattr(delta1, field), field
        assert baseline.accuracy_trace == delta1.accuracy_trace
        assert baseline.loss_trace == delta1.loss_trace

    def test_synchronous_results_report_zero_regime_counters(self):
        result = run_experiment(
            golden.GOLDEN_CONFIG, MethodSpec(name="a", compressor="all-reduce")
        )
        assert result.sync_rounds == 0
        assert result.local_steps == 0
        assert result.ps_updates == 0
        assert result.staleness_mean == 0.0
        assert result.staleness_max == 0


# --------------------------------------------------------------------------- #
# Local SGD semantics
# --------------------------------------------------------------------------- #
class TestLocalSgd:
    def test_h4_delta_syncs_every_fourth_step_and_cuts_wire_bytes(self):
        method = MethodSpec(name="t", compressor="topk-0.01")
        sync = run_experiment(golden.GOLDEN_CONFIG, method)
        h4 = run_experiment(
            golden.GOLDEN_CONFIG,
            dataclasses.replace(method, sync_schedule="localsgd:4:delta"),
        )
        assert h4.sync_rounds > 0
        assert h4.local_steps > 0
        # Epoch boundaries flush partial windows, so rounds never exceed the
        # per-epoch ceiling and local steps account for the rest.
        iters = h4.iterations_run
        assert h4.local_steps <= iters
        assert h4.comm_bytes_per_worker < sync.comm_bytes_per_worker
        assert 0.0 <= h4.final_accuracy <= 1.0

    def test_dense_localsgd_averages_raw_parameters(self):
        """Non-delta mode all-reduces dense fp32 parameters: wire bytes per
        round match the model size, not the method's codec budget."""
        method = MethodSpec(name="t", compressor="topk-0.01")
        dense = run_experiment(
            golden.GOLDEN_CONFIG, dataclasses.replace(method, sync_schedule="localsgd:4")
        )
        delta = run_experiment(
            golden.GOLDEN_CONFIG,
            dataclasses.replace(method, sync_schedule="localsgd:4:delta"),
        )
        assert dense.sync_rounds == delta.sync_rounds
        assert dense.comm_bytes_per_worker > delta.comm_bytes_per_worker

    def test_localsgd_delta_needs_a_codec_compressor(self):
        # Every built-in compressor is a CodecCompressor, but the registry
        # accepts arbitrary Compressor subclasses — delta mode must reject
        # them loudly (it encodes model deltas through a codec pipeline).
        register_compressor("plain-mean", _PlainMean)
        method = MethodSpec(
            name="p", compressor="plain-mean", sync_schedule="localsgd:4:delta"
        )
        with pytest.raises(ValueError, match="delta mode"):
            run_experiment(golden.GOLDEN_CONFIG, method)

    def test_delta_ef_residual_closes_the_aggregate_delta(self):
        """The EF contract holds unchanged when the pipeline carries model
        deltas: mean(delta) == aggregate + mean(residual), per round."""
        rng = np.random.default_rng(7)
        world, numel = 4, 311
        compressor = build_compressor("ef+topk0.05")
        group = ProcessGroup(world)
        for iteration in range(3):
            deltas = [rng.standard_normal(numel) * 0.01 for _ in range(world)]
            previous = compressor.residual(0)
            carried = (
                np.zeros(numel) if previous is None else previous.mean(axis=0).copy()
            )
            aggregated = compressor.aggregate(
                make_bucket([d.copy() for d in deltas]), group, iteration=iteration
            )
            residual = compressor.residual(0)
            np.testing.assert_allclose(
                exact_average(deltas) + carried,
                aggregated + residual.mean(axis=0),
                atol=1e-9,
            )

    def test_localsgd_delta_ef_trains_end_to_end(self):
        method = MethodSpec(
            name="ef", compressor="ef+topk0.05", sync_schedule="localsgd:4:delta"
        )
        result = run_experiment(golden.GOLDEN_CONFIG, method)
        assert result.sync_rounds > 0
        assert result.iterations_run > 0
        assert 0.0 <= result.final_accuracy <= 1.0


# --------------------------------------------------------------------------- #
# Async parameter server
# --------------------------------------------------------------------------- #
def _ps_method(staleness) -> MethodSpec:
    spec = "ps" if staleness is None else f"ps:{staleness}"
    return MethodSpec(name="ps", compressor="topk-0.01", sync_schedule=spec)


class TestAsyncParameterServer:
    def test_every_worker_completes_every_update(self):
        result = run_experiment(golden.GOLDEN_CONFIG, _ps_method(2))
        world = golden.GOLDEN_CONFIG.cluster.world_size
        per_worker = result.iterations_run // world
        assert result.ps_updates == result.iterations_run == per_worker * world
        assert result.epochs_run == golden.GOLDEN_CONFIG.epochs
        assert result.staleness_mean >= 0.0

    @pytest.mark.parametrize("staleness", [0, 2])
    def test_staleness_stays_within_the_bound(self, staleness):
        result = run_experiment(golden.GOLDEN_CONFIG, _ps_method(staleness))
        world = golden.GOLDEN_CONFIG.cluster.world_size
        assert result.staleness_max <= (world - 1) * (staleness + 1)
        assert result.staleness_mean <= result.staleness_max

    def test_tighter_staleness_bound_never_increases_max_staleness(self):
        tight = run_experiment(golden.GOLDEN_CONFIG, _ps_method(0))
        loose = run_experiment(golden.GOLDEN_CONFIG, _ps_method(None))
        assert tight.staleness_max <= loose.staleness_max

    def test_event_loop_is_deterministic(self):
        first = run_experiment(golden.GOLDEN_CONFIG, _ps_method(2))
        second = run_experiment(golden.GOLDEN_CONFIG, _ps_method(2))
        for field in PARITY_FIELDS:
            assert getattr(first, field) == getattr(second, field), field
        assert first.loss_trace == second.loss_trace
        assert first.staleness_mean == second.staleness_mean

    def test_ps_rejects_fault_plans(self):
        config = dataclasses.replace(
            golden.GOLDEN_CONFIG,
            cluster=ClusterSpec(
                world_size=4, bandwidth="100Mbps", faults="crash:3@0.002,rejoin:3@0.008"
            ),
        )
        with pytest.raises(ValueError, match="parameter-server"):
            run_experiment(config, _ps_method(2))

    def test_ps_rejects_pruning_methods(self):
        # Rejected at spec construction, before a campaign could dispatch it.
        with pytest.raises(ValueError, match="parameter-server mode does not support pruning"):
            dataclasses.replace(
                golden.GOLDEN_METHODS["pactrain"], name="p", sync_schedule="ps:2"
            )

    def test_ps_rejects_non_codec_compressors(self):
        register_compressor("plain-mean", _PlainMean)
        method = MethodSpec(name="p", compressor="plain-mean", sync_schedule="ps:2")
        with pytest.raises(ValueError, match="codec"):
            run_experiment(golden.GOLDEN_CONFIG, method)

    def test_fault_plan_is_rejected_before_any_work(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("the dataset was built before the cell was rejected")

        monkeypatch.setattr("repro.simulation.experiment.make_dataset", spy)
        config = dataclasses.replace(
            golden.GOLDEN_CONFIG,
            cluster=ClusterSpec(world_size=4, bandwidth="100Mbps", faults="churn:0.2"),
        )
        with pytest.raises(ValueError, match="parameter-server"):
            run_experiment(config, _ps_method(2))


# --------------------------------------------------------------------------- #
# The epoch end every regime shares
# --------------------------------------------------------------------------- #
_EPOCH_END_CASES = {
    "stop-at-target": dict(target_accuracy=0.0, stop_at_target=True),
    "target-without-stop": dict(target_accuracy=0.0),
    "unreachable-target": dict(target_accuracy=2.0, stop_at_target=True),
    "zero-iteration-epochs": dict(max_iterations_per_epoch=0),
}


@pytest.mark.parametrize("case", sorted(_EPOCH_END_CASES))
@pytest.mark.parametrize("regime", ["sync", "localsgd:4", "localsgd:4:delta", "ps:2"])
def test_epoch_end_contract(regime, case):
    config = dataclasses.replace(golden.GOLDEN_CONFIG, **_EPOCH_END_CASES[case])
    method = MethodSpec(name="m", compressor="topk-0.01", sync_schedule=regime)
    result = run_experiment(config, method)
    if case == "stop-at-target":
        assert result.epochs_run == 1 and result.reached_target
        assert result.tta == result.accuracy_trace[0][0]
    elif case == "target-without-stop":
        assert result.epochs_run == config.epochs and result.reached_target
        assert result.tta == result.accuracy_trace[0][0]
    elif case == "unreachable-target":
        assert result.epochs_run == config.epochs and not result.reached_target
        assert result.tta is None
        assert result.tta_or_total() == result.simulated_time
    else:
        assert result.epochs_run == config.epochs
        assert result.iterations_run == 0 and result.simulated_time == 0.0
        assert len(result.loss_trace) == config.epochs
        assert all(np.isnan(loss) for loss in result.loss_trace)


# --------------------------------------------------------------------------- #
# Campaign integration
# --------------------------------------------------------------------------- #
class TestCampaignAxis:
    def test_sync_schedule_is_a_method_field_axis(self):
        assert "sync_schedule" in METHOD_FIELD_AXES

    def test_non_synchronous_override_suffixes_the_method_name(self):
        cell = build_cell(
            {"method": "topk-0.01", "sync_schedule": "localsgd:4:delta"}
        )
        assert cell.method.name.endswith("@localsgd:4:delta")
        assert cell.method.sync_schedule == "localsgd:4:delta"

    def test_synchronous_override_keeps_the_method_name(self):
        for spec in ("sync", "localsgd:1"):
            cell = build_cell({"method": "topk-0.01", "sync_schedule": spec})
            assert "@" not in cell.method.name

    def test_invalid_schedule_fails_at_cell_expansion(self):
        with pytest.raises(ValueError):
            build_cell({"method": "topk-0.01", "sync_schedule": "localsgd:0"})

    def test_unsupported_ps_cells_fail_at_campaign_expansion(self):
        pruned = CampaignSpec(axes={"method": ["all-reduce", "pactrain"], "sync_schedule": ["ps:2"]})
        with pytest.raises(ValueError, match="does not support pruning"):
            pruned.expand()
        faulty = CampaignSpec(
            base={"faults": "crash:3@0.002,rejoin:3@0.008"},
            axes={"method": ["topk-0.01"], "sync_schedule": ["sync", "ps:2"]},
        )
        with pytest.raises(ValueError, match="fault plans are not supported"):
            faulty.expand()
