"""Simulation substrate: compute model, cluster spec, timeline, experiment driver."""

from __future__ import annotations

import dataclasses
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro import golden
from repro.nn.models import mlp_tiny, resnet18_mini, vgg19_mini
from repro.simulation import (
    ClusterSpec,
    DeviceSpec,
    EpochRecord,
    ExperimentConfig,
    MethodSpec,
    PAPER_METHODS,
    TrainingTimeline,
    estimate_model_flops,
    evaluate_accuracy,
    run_experiment,
    train_distributed,
)
from repro.campaign import CampaignCell, CampaignSpec, run_campaign
from repro.comm.network import LinkSpec, NetworkModel
from repro.comm.topology import LAN, HierarchicalCostModel
from repro.simulation import experiment
from repro.simulation.compute import BACKWARD_FACTOR, DEVICE_PRESETS
from repro.simulation.pricing import Transfer
from repro.data import DataLoader
from repro.simulation.cluster import LINK_LATENCY


class TestComputeModel:
    def test_flop_estimate_positive_and_scales_with_batch(self):
        model = vgg19_mini(seed=0)
        one = estimate_model_flops(model, (3, 8, 8), batch_size=1)
        four = estimate_model_flops(model, (3, 8, 8), batch_size=4)
        assert one > 0
        assert four == pytest.approx(4 * one)

    def test_bigger_models_cost_more(self):
        small = estimate_model_flops(mlp_tiny(seed=0), (3, 8, 8), 1)
        big = estimate_model_flops(vgg19_mini(seed=0), (3, 8, 8), 1)
        assert big > small

    def test_iteration_time_inverse_in_throughput(self):
        flops = estimate_model_flops(resnet18_mini(seed=0), (3, 8, 8), 32) * BACKWARD_FACTOR
        (slow,) = ClusterSpec(world_size=1, device=DeviceSpec("slow", 1e9)).per_rank_iteration_times(flops)
        (fast,) = ClusterSpec(world_size=1, device=DeviceSpec("fast", 2e9)).per_rank_iteration_times(flops)
        assert slow == pytest.approx(2 * fast)

    def test_device_presets(self):
        assert "sim-gpu" in DEVICE_PRESETS and "a40" in DEVICE_PRESETS
        assert DEVICE_PRESETS["a40"].flops_per_second > DEVICE_PRESETS["sim-gpu"].flops_per_second
        with pytest.raises(KeyError):
            ClusterSpec(device="tpu")

    def test_invalid_device(self):
        with pytest.raises(ValueError):
            DeviceSpec("bad", 0.0)


class TestClusterSpec:
    def test_paper_bandwidth_settings(self):
        for setting, mbps in [("100Mbps", 100), ("500Mbps", 500), ("1Gbps", 1000)]:
            cluster = ClusterSpec(world_size=8, bandwidth=setting)
            assert cluster.bandwidth_bytes_per_second() * 8 / 1e6 == pytest.approx(mbps)

    def test_numeric_bandwidth(self):
        cluster = ClusterSpec(world_size=4, bandwidth=1e6)
        assert cluster.bandwidth_bytes_per_second() == pytest.approx(1e6)

    def test_cost_model_and_group(self):
        cluster = ClusterSpec(world_size=4, bandwidth="500Mbps")
        flat = cluster.cost_model_for()
        assert isinstance(flat, NetworkModel) and flat.world_size == 4
        assert cluster.process_group().world_size == 4

    def test_hierarchical_cluster_is_costed_over_the_paper_topology(self):
        cluster = ClusterSpec(world_size=8, bandwidth="100Mbps", hierarchical=True)
        wan = LinkSpec(cluster.bandwidth_bytes_per_second(), LINK_LATENCY)
        assert wan.bandwidth < LAN.bandwidth
        model = cluster.cost_model_for()
        assert isinstance(model, HierarchicalCostModel) and model.world_size == 8
        nbytes = 1_000_000
        assert model.ring_all_reduce_time(nbytes) == (
            HierarchicalCostModel(range(8), wan).ring_all_reduce_time(nbytes)
        )

    def test_describe(self):
        info = ClusterSpec(world_size=8, bandwidth="1Gbps").describe()
        assert info["world_size"] == 8
        assert info["bandwidth_mbps"] == pytest.approx(1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(world_size=0)
        with pytest.raises(KeyError):
            ClusterSpec(bandwidth="2Gbps").bandwidth_bytes_per_second()

    UNKNOWN_DEVICE = r"unknown device preset 'tpu'; options: \['a40', 'sim-gpu'\]"

    @pytest.mark.parametrize("overrides", [dict(device="tpu")])
    def test_an_unknown_device_preset_fails_at_construction(self, overrides):
        with pytest.raises(KeyError, match=self.UNKNOWN_DEVICE):
            ClusterSpec(**overrides)

    @pytest.mark.parametrize("axis, values", [("device", ["sim-gpu", "tpu"])])
    def test_an_unknown_device_preset_fails_at_campaign_expansion(self, axis, values):
        spec = CampaignSpec(base={"model": "mlp", "world_size": 2}, axes={axis: values})
        with pytest.raises(KeyError, match=self.UNKNOWN_DEVICE):
            spec.expand()

    def test_every_rank_computes_at_the_one_device(self):
        cluster = ClusterSpec(world_size=3, device=DeviceSpec("half", 0.5))
        assert cluster.per_rank_iteration_times(2.0) == [4.0, 4.0, 4.0]


#: A device of one FLOP per second: an iteration of ``c`` FLOPs takes ``c`` seconds.
UNIT_DEVICE = DeviceSpec("unit", 1.0)


#: The latency of a two-rank ring all-reduce: two steps of the fixed link latency.
RING_LATENCY = 2 * LINK_LATENCY


def _flat_timeline(compute, target_accuracy=None):
    """Two ranks of ``compute`` seconds on a 1000 B/s link, one bucket: an
    all-reduce of ``B`` bytes costs ``RING_LATENCY + 2(n-1)/n * B / 1000``
    ``= RING_LATENCY + B / 1000`` s."""
    cluster = ClusterSpec(world_size=2, bandwidth=1000.0, device=UNIT_DEVICE)
    return TrainingTimeline(cluster, compute, 0.0, [1.0], target_accuracy)


def _all_reduce(num_bytes):
    return [[Transfer("all_reduce", num_bytes)]]


class TestTimeline:
    def test_accumulation(self):
        timeline = _flat_timeline(0.1)
        timeline.add_iteration(_all_reduce(500.0), 100.0)
        timeline.add_iteration(_all_reduce(500.0), 100.0)
        assert timeline.total_time == pytest.approx(1.2 + 2 * RING_LATENCY)
        fold = timeline.fold()
        assert fold["iterations_run"] == 2
        assert fold["comm_bytes_per_worker"] == pytest.approx(200.0)
        assert len(timeline.log) == 2

    def test_epoch_snapshots_and_tta(self):
        for target, tta in [(0.8, 3 * (2.0 + RING_LATENCY)), (0.95, None)]:
            timeline = _flat_timeline(1.0, target)
            for epoch, accuracy in enumerate([0.3, 0.6, 0.85, 0.9]):
                timeline.add_iteration(_all_reduce(1000.0))
                record = timeline.snapshot_epoch(epoch, train_loss=1.0, test_accuracy=accuracy)
                assert isinstance(record, EpochRecord)
            fold = timeline.fold()
            assert fold["tta"] == pytest.approx(tta)
            assert fold["reached_target"] is (tta is not None)
            assert fold["best_accuracy"] == pytest.approx(0.9)
            assert fold["final_accuracy"] == pytest.approx(0.9)
            assert fold["epochs_run"] == len(fold["accuracy_trace"]) == 4

    def test_negative_time_rejected(self):
        # The log records work, so what it rejects is negative bytes,
        # staleness, re-join broadcast bytes and clock readings.
        timeline = _flat_timeline(1.0)
        with pytest.raises(ValueError):
            timeline.add_iteration(_all_reduce(1.0), -1.0)
        with pytest.raises(ValueError):
            timeline.add_iteration(kind="ps", rank=0, staleness=-1)
        with pytest.raises(ValueError):
            timeline.add_sync_round(_all_reduce(1.0), -1.0)
        with pytest.raises(ValueError):
            timeline.add_event("rejoin", -1.0)
        with pytest.raises(ValueError):
            timeline.add_event("clock", -1.0)
        assert timeline.log == []


class TestMethodSpec:
    def test_paper_methods_present(self):
        assert set(PAPER_METHODS) == {"all-reduce", "fp16", "topk-0.1", "topk-0.01", "pactrain"}
        assert PAPER_METHODS["pactrain"].pruning_ratio == pytest.approx(0.5)
        assert PAPER_METHODS["pactrain"].gse

    def test_build_compressor_for_each_method(self):
        for method in PAPER_METHODS.values():
            compressor = method.build_compressor()
            assert hasattr(compressor, "aggregate")

    def test_pactrain_spec_builds_pactrain_compressor(self):
        from repro.pactrain import PacTrainCompressor

        spec = MethodSpec(name="pactrain", compressor="pactrain", quantize=True)
        assert isinstance(spec.build_compressor(), PacTrainCompressor)

    def test_composed_codec_spec_builds_pipeline_compressor(self):
        spec = MethodSpec(name="prune+quant", compressor="topk0.01+terngrad")
        compressor = spec.build_compressor()
        assert [type(s).__name__ for s in compressor.pipeline.stages] == ["TopK", "Ternarize"]
        assert not compressor.allreduce_compatible  # top-k forces all-gather


_METHODS = st.fixed_dictionaries(dict(
    name=st.text(max_size=8),
    compressor=st.sampled_from(["allreduce", "fp16", "topk-0.01", "pactrain", "ef+topk0.01+terngrad"]),
    pruning_ratio=st.floats(0.0, 0.9),
    pruning_method=st.sampled_from(["magnitude", "grasp"]),
    gse=st.booleans(),
    quantize=st.booleans(),
    stability_threshold=st.integers(1, 9),
    error_feedback=st.sampled_from([None, True, False]),
    sync_schedule=st.sampled_from([None, "", "sync", "localsgd:4", "localsgd:2:delta", "ps:2"]),
)).filter(
    # ps x pruning/GSE is rejected at spec construction.
    lambda kw: kw["sync_schedule"] != "ps:2" or not (kw["pruning_ratio"] > 0.0 or kw["gse"])
).map(lambda kw: MethodSpec(**kw))
_CLUSTERS = st.builds(
    ClusterSpec,
    world_size=st.just(4),
    bandwidth=st.sampled_from(["100Mbps", "1Gbps", 2.5e8]),
    device=st.sampled_from(["sim-gpu", "a40", DeviceSpec("custom", 3.0e9)]),
    overlap=st.booleans(),
    faults=st.sampled_from([None, "crash:1@0.5,rejoin:1@1.0,churn:0.2"]),
)
_CONFIGS = st.builds(
    ExperimentConfig,
    model=st.sampled_from(["mlp", "resnet18", "vgg19"]),
    cluster=_CLUSTERS,
    epochs=st.integers(1, 20),
    target_accuracy=st.sampled_from([None, 0.5, 1]),
    max_iterations_per_epoch=st.sampled_from([None, 3]),
    seed=st.integers(0, 99),
    dtype=st.sampled_from(["float64", "float32"]),
)


def _stored_oracle(spec) -> dict:
    """``dataclasses.asdict(spec)`` with the class's retired fields at their
    retired values, in its stored key order (pinned in ``test_rebuild.py``)."""
    cls, live = type(spec), dataclasses.asdict(spec)
    return {key: cls.RETIRED[key] if key in cls.RETIRED else live[key] for key in cls.STORED_KEYS}


class TestSpecToDict:
    """``to_dict`` builds its dict from the field names; ``asdict`` is the oracle."""

    @given(method=_METHODS)
    @settings(max_examples=60, deadline=None)
    def test_method_spec_equals_asdict_and_is_fresh(self, method):
        data = method.to_dict()
        assert data == _stored_oracle(method)
        assert list(data) == list(_stored_oracle(method))
        assert MethodSpec.from_dict(data) == method
        data["compressor"] = "mutated"
        data["extra"] = 1
        assert method.to_dict() == _stored_oracle(method)

    @given(config=_CONFIGS)
    @settings(max_examples=60, deadline=None)
    def test_experiment_config_equals_asdict_and_is_fresh(self, config):
        oracle = _stored_oracle(config)
        oracle["cluster"] = config.cluster.to_dict()
        data = config.to_dict()
        assert data == oracle
        assert list(data) == list(oracle)
        assert ExperimentConfig.from_dict(data).to_dict() == oracle
        data["epochs"] = -1
        data["cluster"]["world_size"] = 99
        if data["cluster"]["faults"] is not None:
            data["cluster"]["faults"]["events"].append({"kind": "crash", "at": 2.0, "rank": 2})
        assert config.to_dict() == oracle
        assert config.cluster.world_size == 4

    def test_golden_cell_fingerprints_unchanged(self):
        # They move only when a spec field, RESULT_SCHEMA_VERSION or the
        # package version does; last re-recorded when ExperimentConfig lost
        # its ``backend`` and ``execution`` fields.
        from repro.campaign import cell_fingerprint
        from repro.golden import GOLDEN_CONFIG

        assert {name: cell_fingerprint(GOLDEN_CONFIG, m) for name, m in PAPER_METHODS.items()} == {
            "all-reduce": "eece71d12c1c3f6458eb444663ec0745cd32ed4bdf00d95e18a9be2a064c8050",
            "fp16": "76a0fca4c972062fec3759cc1a866de2dc5fe0e547893aa129d9a377f7977193",
            "topk-0.1": "f92803e52d7ae8f241b18d852413944d41df40a7b24ba7641edc4c67e6d4c264",
            "topk-0.01": "318193a8ce9c2a68ba81e88406fd93c09795300e8d9277f963457b287af399c2",
            "pactrain": "3dd92011afb7c83fbe561644220ccc8ab1dc356ad89f043896db127d432c619c",
        }


class TestExperimentDriver:
    @pytest.fixture
    def quick_config(self):
        return ExperimentConfig(
            model="mlp",
            dataset="cifar10",
            cluster=ClusterSpec(world_size=2, bandwidth="100Mbps"),
            epochs=2,
            batch_size=16,
            dataset_samples=96,
            pretrain_iterations=2,
            seed=0,
        )

    def test_run_experiment_allreduce(self, quick_config):
        result = run_experiment(quick_config, PAPER_METHODS["all-reduce"])
        assert result.method == "all-reduce"
        assert result.epochs_run == 2
        assert result.iterations_run > 0
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.comm_time > 0
        assert result.compute_time > 0
        assert result.simulated_time == pytest.approx(result.comm_time + result.compute_time)
        assert result.weight_sparsity < 0.05

    def test_run_experiment_pactrain_prunes(self, quick_config):
        result = run_experiment(quick_config, PAPER_METHODS["pactrain"])
        assert result.weight_sparsity > 0.2
        assert result.gradient_density < 0.8
        assert result.compression_ratio > 1.0

    def test_pactrain_uses_less_comm_time_than_allreduce(self, quick_config):
        base = run_experiment(quick_config, PAPER_METHODS["all-reduce"])
        pac = run_experiment(quick_config, PAPER_METHODS["pactrain"])
        assert pac.comm_time < base.comm_time

    def test_tta_reported_when_target_reached(self, quick_config):
        quick_config.target_accuracy = 0.15
        quick_config.epochs = 3
        result = run_experiment(quick_config, PAPER_METHODS["all-reduce"])
        if result.best_accuracy >= 0.15:
            assert result.tta is not None
            assert result.tta <= result.simulated_time
        assert result.tta_or_total() > 0

    def test_deterministic_given_seed(self, quick_config):
        a = run_experiment(quick_config, PAPER_METHODS["fp16"])
        b = run_experiment(quick_config, PAPER_METHODS["fp16"])
        assert a.final_accuracy == pytest.approx(b.final_accuracy)
        assert a.simulated_time == pytest.approx(b.simulated_time)

    @pytest.mark.parametrize("spec", ["topk0.01+terngrad", "ef+topk0.1+fp16"])
    def test_run_experiment_with_composed_pipeline(self, quick_config, spec):
        """Composed codec pipelines run end-to-end through the driver."""
        result = run_experiment(quick_config, MethodSpec(name=spec, compressor=spec))
        assert result.method == spec
        assert result.iterations_run > 0
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.comm_time > 0
        # Both compositions shrink the wire payload well below dense fp32.
        assert result.compression_ratio > 2.0

    def test_run_experiment_is_train_distributed_plus_its_result(self, quick_config):
        method = PAPER_METHODS["pactrain"]
        run = train_distributed(quick_config, method)
        assert run.mask is not None and run.model is run.ddp.model
        assert run_experiment(quick_config, method).to_dict() == run.result().to_dict()

    def test_train_distributed_takes_the_two_specs(self):
        # Everything else a run needs is a field of one of them.
        assert list(inspect.signature(train_distributed).parameters) == [
            "config", "method", "share",
        ]

    def test_method_comparison_runs_all(self, quick_config):
        report = run_campaign(
            [
                CampaignCell(config=quick_config, method=PAPER_METHODS[name])
                for name in ("all-reduce", "fp16")
            ]
        )
        report.raise_failures()
        assert [result.method for result in report.results()] == ["all-reduce", "fp16"]

    def test_evaluate_accuracy_bounds(self, tiny_split):
        train, test = tiny_split
        model = mlp_tiny(seed=0)
        accuracy = evaluate_accuracy(model, DataLoader(test, batch_size=8))
        assert 0.0 <= accuracy <= 1.0

    @pytest.mark.parametrize("training", [True, False], ids=["from-train", "from-eval"])
    def test_evaluate_accuracy_returns_the_model_in_its_mode(self, tiny_split, training):
        _, test = tiny_split
        model = mlp_tiny(seed=0)
        model.train(training)
        evaluate_accuracy(model, DataLoader(test, batch_size=8))
        assert all(module.training is training for _, module in model.named_modules())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(epochs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(batch_size=0)

    def test_mlp_rejects_other_image_sizes_at_construction(self):
        # Used to die with a shape error inside matmul, iterations later.
        with pytest.raises(ValueError, match="image_size=8"):
            ExperimentConfig(model="mlp", image_size=16)
        assert ExperimentConfig(model="mlp", image_size=8).image_size == 8
        assert ExperimentConfig(model="resnet18", image_size=16).image_size == 16


class TestEngineIntegration:
    """Acceptance criteria for the event-driven engine refactor."""

    def _config(self, cluster: ClusterSpec, **overrides) -> ExperimentConfig:
        settings = dict(
            model="resnet18",
            dataset="cifar10",
            cluster=cluster,
            epochs=1,
            batch_size=16,
            dataset_samples=96,
            pretrain_iterations=2,
            max_iterations_per_epoch=2,
            seed=0,
            bucket_cap_bytes=8 * 1024,  # multi-bucket layout for the mini models
        )
        settings.update(overrides)
        return ExperimentConfig(**settings)

    @pytest.mark.parametrize("method_name", sorted(PAPER_METHODS))
    def test_overlap_disabled_reproduces_seed_time_exactly(self, method_name):
        """Overlap off + homogeneous flat cluster == the pre-refactor model.

        The seed computed ``simulated_time = compute_time + comm_time``; the
        engine must reproduce that to float equality (not approx) for every
        paper method, so all pre-engine figures remain valid.
        """
        config = self._config(ClusterSpec(world_size=2, bandwidth="100Mbps"))
        result = run_experiment(config, PAPER_METHODS[method_name])
        assert result.simulated_time == result.compute_time + result.comm_time
        assert result.overlap_fraction == 0.0
        assert result.critical_path_time == pytest.approx(result.simulated_time)

    def test_overlap_strictly_beats_serial_schedule(self):
        method = PAPER_METHODS["all-reduce"]
        serial = run_experiment(
            self._config(ClusterSpec(world_size=4, bandwidth="100Mbps")), method
        )
        overlapped = run_experiment(
            self._config(ClusterSpec(world_size=4, bandwidth="100Mbps", overlap=True)), method
        )
        # Same training run, same busy times — only the schedule differs.
        assert overlapped.compute_time == serial.compute_time
        assert overlapped.comm_time == serial.comm_time
        assert overlapped.comm_time > 0
        assert overlapped.simulated_time < overlapped.compute_time + overlapped.comm_time
        assert overlapped.simulated_time < serial.simulated_time
        assert overlapped.overlap_fraction > 0
        assert overlapped.critical_path_time == pytest.approx(overlapped.simulated_time)

    def test_single_bucket_layout_cannot_overlap(self):
        cluster = ClusterSpec(world_size=2, bandwidth="100Mbps", overlap=True)
        config = self._config(cluster, model="mlp", bucket_cap_bytes=25 * 1024 * 1024)
        result = run_experiment(config, PAPER_METHODS["all-reduce"])
        assert result.overlap_fraction == 0.0
        assert result.simulated_time == pytest.approx(result.compute_time + result.comm_time)

    def test_straggler_stretches_iteration_and_is_reported(self):
        # Churn is the cluster's straggler: each rank runs 2x slower with
        # probability 0.5 per iteration, and the iteration waits for it.
        method = PAPER_METHODS["all-reduce"]
        base = run_experiment(
            self._config(ClusterSpec(world_size=4, bandwidth="100Mbps", overlap=True)), method
        )
        straggler = run_experiment(
            self._config(
                ClusterSpec(world_size=4, bandwidth="100Mbps", overlap=True, faults="churn:0.5:2.0:1")
            ),
            method,
        )
        assert straggler.simulated_time > base.simulated_time
        assert straggler.compute_time > base.compute_time
        assert straggler.straggler_time > 0
        assert base.straggler_time == 0.0

    def test_hierarchical_collectives_change_comm_time_only(self):
        method = PAPER_METHODS["all-reduce"]
        flat = run_experiment(
            self._config(ClusterSpec(world_size=8, bandwidth="100Mbps")), method
        )
        hier = run_experiment(
            self._config(ClusterSpec(world_size=8, bandwidth="100Mbps", hierarchical=True)),
            method,
        )
        assert hier.compute_time == flat.compute_time
        assert hier.comm_time != flat.comm_time
        assert hier.comm_bytes_per_worker == flat.comm_bytes_per_worker

    def test_reached_target_surfaced_and_drives_tta_or_total(self):
        config = self._config(
            ClusterSpec(world_size=2, bandwidth="100Mbps"), target_accuracy=0.01, epochs=2
        )
        reached = run_experiment(config, PAPER_METHODS["all-reduce"])
        assert reached.reached_target
        assert reached.tta is not None
        assert reached.tta_or_total() == reached.tta

        config = self._config(
            ClusterSpec(world_size=2, bandwidth="100Mbps"), target_accuracy=1.1, epochs=2
        )
        missed = run_experiment(config, PAPER_METHODS["all-reduce"])
        assert not missed.reached_target
        assert missed.tta is None
        assert missed.tta_or_total() == missed.simulated_time

    def test_timeline_records_iteration_traces(self):
        config = self._config(ClusterSpec(world_size=2, bandwidth="100Mbps", overlap=True))
        run = train_distributed(config, PAPER_METHODS["all-reduce"])
        timeline, ddp = run.timeline, run.ddp
        traces = [price.trace for price in timeline.priced() if price.trace is not None]
        assert len(traces) == timeline.fold()["iterations_run"] == 2
        assert len(ddp.buckets) > 1
        trace = traces[0]
        assert len(trace.buckets) == len(ddp.buckets)
        assert trace.overlap_saved > 0
        fold = timeline.fold()
        assert fold["overlap_fraction"] > 0
        assert fold["critical_path_time"] == pytest.approx(timeline.total_time)


# --------------------------------------------------------------------------- #
# Rejected before anything is prepared
# --------------------------------------------------------------------------- #
METHOD = MethodSpec(name="topk-0.01", compressor="topk-0.01")
CRASH_REJOIN = "crash:1@0.0005,rejoin:1@0.003"


def _faulted(config, faults=CRASH_REJOIN):
    return dataclasses.replace(config, cluster=dataclasses.replace(config.cluster, faults=faults))


def _record_preparations(monkeypatch):
    """The list every later :func:`_prepare_workload` call is appended to."""
    calls = []
    monkeypatch.setattr(experiment, "_prepare_workload", lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize(
    "config, method, message",
    [
        (
            _faulted(golden.GOLDEN_CONFIG),
            dataclasses.replace(METHOD, sync_schedule="ps:2"),
            "fault plans are not supported",
        ),
        (
            golden.GOLDEN_CONFIG,
            MethodSpec(name="pactrain-ef", compressor="pactrain", error_feedback=True),
            "error feedback is not supported for PacTrain",
        ),
    ],
    ids=["ps-under-a-fault-plan", "registry"],
)
def test_train_distributed_rejects_a_cell_before_preparing_it(config, method, message, monkeypatch):
    prepared = _record_preparations(monkeypatch)
    with pytest.raises(ValueError, match=message):
        train_distributed(config, method)
    assert prepared == []
