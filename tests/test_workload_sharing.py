"""A campaign prepares each workload once — and nobody can tell.

``run_campaign`` lets cells that agree on every argument of
``_pretrained_workload`` (dataset, split, model, pre-training, compute dtype,
backend) share one preparation; a bare ``run_experiment`` shares nothing.
These tests pin what makes that safe:

* differential, bytes not tolerance — every campaign result equals the bare
  run of that cell alone, in-process and pooled;
* ownership — a cell can neither write to what is shared nor lose anything
  pre-training leaves on the model;
* scope — the share lives exactly as long as the campaign, is bounded in
  bytes, and preparation really is entered once per distinct workload;
* the single batching path of ``DataLoader`` against per-sample stacking;
* a cell is serialised once and its fingerprint is unchanged;
* splits that leave a rank (or the test set) empty are rejected up front.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.campaign import CampaignSpec, ResultStore, cell_fingerprint, run_campaign
from repro.campaign.store import iter_jsonl
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10, train_test_split
from repro.nn.models import MLP, MODEL_REGISTRY, build_model, register_model
from repro.simulation import ClusterSpec, ExperimentConfig, MethodSpec, run_experiment
from repro.simulation import experiment
from repro.simulation.experiment import (
    PAPER_METHODS,
    _prepare_workload,
    _pretrain,
    _WorkloadShare,
)
from repro.tensorlib import default_dtype

GRASP = MethodSpec(
    name="pactrain-grasp", compressor="pactrain", pruning_ratio=0.5,
    pruning_method="grasp", gse=True,
)

BASE = dict(
    epochs=2, batch_size=4, dataset_samples=24, pretrain_iterations=2,
    max_iterations_per_epoch=2, world_size=2,
)


def fig3_order_spec() -> CampaignSpec:
    """``examples/campaigns/fig3.json`` in miniature: grid ``bandwidth x
    method`` with the zipped ``model`` axis innermost, so consecutive cells
    alternate between two workloads and a last-one-only memo would never hit.
    """
    return CampaignSpec(
        name="sharing",
        base=dict(BASE),
        axes={
            "seed": [0, 1],
            "dtype": ["float32", "float64"],
            "bandwidth": ["100Mbps"],
            "method": [
                # A pruned method first: the dense cells after it must still
                # start from the dense pre-trained model.
                "pactrain", "all-reduce", "fp16", "topk-0.01", "topk0.01+terngrad",
                "grasp", "topk-localsgd", "fp16-ps",
            ],
        },
        zipped={"model": ["mlp", "resnet18"]},
        cells=[
            {"model": "mlp", "method": "topk-0.01", "faults": "crash:1@0.0005,rejoin:1@0.002"},
            {"model": "mlp", "method": "pactrain", "bandwidth": "1Gbps"},
        ],
        methods={
            "grasp": GRASP,
            "topk-localsgd": MethodSpec(
                name="topk-localsgd", compressor="topk-0.01", sync_schedule="localsgd:4:delta"
            ),
            "fp16-ps": MethodSpec(name="fp16-ps", compressor="fp16", sync_schedule="ps:2"),
        },
    )


def mlp_config(**overrides) -> ExperimentConfig:
    settings = {**BASE, "model": "mlp", **overrides}
    cluster = ClusterSpec(world_size=settings.pop("world_size"), bandwidth="100Mbps")
    return ExperimentConfig(cluster=cluster, **settings)


def kept_workloads(share: _WorkloadShare):
    return [workload for workload, _ in share._kept.values()]


def store_lines(path) -> list:
    """Store records with the wall-clock stamp removed."""
    records = list(iter_jsonl(str(path)))
    for record in records:
        del record["created"]
    return records


# --------------------------------------------------------------------------- #
# (a) Differential
# --------------------------------------------------------------------------- #
class TestCampaignEqualsBareRuns:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serial") / "store.jsonl"
        report = run_campaign(fig3_order_spec(), store=ResultStore(path), jobs=1)
        report.raise_failures()
        return report, path

    def test_every_cell_equals_its_bare_run(self, serial):
        report, _ = serial
        assert len(report.outcomes) == 66 and report.ran == 66
        for outcome in report.outcomes:
            alone = run_experiment(outcome.cell.config, outcome.cell.method)
            assert outcome.result.to_dict() == alone.to_dict(), outcome.cell.label

    def test_the_grid_exercises_what_it_claims(self, serial):
        report, _ = serial
        results = [o.result for o in report.outcomes]
        assert any(r.fault_events > 0 for r in results)
        assert any(r.sync_rounds > 0 for r in results)
        assert any(r.ps_updates > 0 for r in results)
        assert any(r.weight_sparsity > 0.4 for r in results)
        assert any(r.weight_sparsity < 0.01 for r in results)

    def test_two_jobs_write_the_same_store(self, serial, tmp_path):
        report, serial_path = serial
        pooled_path = tmp_path / "pooled.jsonl"
        pooled = run_campaign(fig3_order_spec(), store=ResultStore(pooled_path), jobs=2)
        pooled.raise_failures()
        assert [o.result.to_dict() for o in pooled.outcomes] == [
            o.result.to_dict() for o in report.outcomes
        ]
        assert store_lines(pooled_path) == store_lines(serial_path)


# --------------------------------------------------------------------------- #
# (b) Ownership
# --------------------------------------------------------------------------- #
class TestOwnership:
    def test_pruning_and_training_never_change_the_shared_model(self):
        config = mlp_config()
        share = _WorkloadShare()
        _prepare_workload(config, PAPER_METHODS["all-reduce"], share)  # fill the share
        (workload,) = kept_workloads(share)
        before = [array.tobytes() for array in workload.arrays()]

        run_experiment(config, PAPER_METHODS["pactrain"], _share=share)
        run_experiment(config, GRASP, _share=share)
        dense = run_experiment(config, PAPER_METHODS["all-reduce"], _share=share)

        assert len(share._kept) == 1
        assert [array.tobytes() for array in workload.arrays()] == before
        assert dense.weight_sparsity < 0.01  # only zero-initialised biases
        assert dense.to_dict() == run_experiment(config, PAPER_METHODS["all-reduce"]).to_dict()

    def test_a_cell_trains_a_copy_not_the_shared_model(self):
        share = _WorkloadShare()
        model, train_set, _, _ = _prepare_workload(mlp_config(), PAPER_METHODS["all-reduce"], share)
        (workload,) = kept_workloads(share)
        assert model is not workload.model
        assert train_set is workload.train_set  # datasets are shared as they are
        for own, shared in zip(model.parameters(), workload.model.parameters()):
            assert not np.shares_memory(own.data, shared.data)
            assert own.data.flags.writeable and own.grad.flags.writeable

    def test_writing_to_a_shared_array_raises(self):
        share = _WorkloadShare()
        _prepare_workload(mlp_config(model="resnet18"), PAPER_METHODS["all-reduce"], share)
        (workload,) = kept_workloads(share)
        arrays = list(workload.arrays())
        # dataset (prototypes + 2 x images/labels), sample batch, and per
        # parameter data + grad, plus BatchNorm's running statistics.
        assert len(arrays) > 7 + 2 * len(workload.model.parameters())
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_unshared_preparation_stays_writeable(self):
        model, train_set, _, _ = _prepare_workload(mlp_config(), PAPER_METHODS["all-reduce"])
        assert train_set.images.flags.writeable
        assert all(p.data.flags.writeable for p in model.parameters())

    def test_copy_carries_batchnorm_statistics_and_stale_gradients(self):
        share = _WorkloadShare()
        model, *_ = _prepare_workload(
            mlp_config(model="resnet18"), PAPER_METHODS["all-reduce"], share
        )
        (workload,) = kept_workloads(share)
        fresh = build_model("resnet18", num_classes=10, seed=0)
        shared_buffers = dict(workload.model.named_buffers())
        fresh_buffers = dict(fresh.named_buffers())
        assert shared_buffers
        for name, buffer in model.named_buffers():
            assert buffer.tobytes() == shared_buffers[name].tobytes()
        # Pre-training moved the running statistics off their initial values.
        assert any(
            buffer.tobytes() != fresh_buffers[name].tobytes()
            for name, buffer in shared_buffers.items()
        )
        for own, shared in zip(model.parameters(), workload.model.parameters()):
            assert own.grad is not None
            assert own.grad.tobytes() == shared.grad.tobytes()

    def test_copy_carries_the_dropout_generator_state(self):
        register_model(
            "mlp-dropout",
            lambda num_classes, seed: MLP(192, (32,), num_classes, dropout=0.1, seed=seed),
        )
        try:
            config = mlp_config(model="mlp-dropout")
            share = _WorkloadShare()
            model, *_ = _prepare_workload(config, PAPER_METHODS["all-reduce"], share)
            (workload,) = kept_workloads(share)
            state = workload.model.dropout._rng.bit_generator.state
            assert model.dropout._rng is not workload.model.dropout._rng
            assert model.dropout._rng.bit_generator.state == state
            # What rules out build_model + load_state_dict as the copy: a
            # rebuilt model's generator restarts where initialisation left it.
            rebuilt = build_model("mlp-dropout", num_classes=10, seed=config.seed)
            rebuilt.load_state_dict(workload.model.state_dict())
            assert rebuilt.dropout._rng.bit_generator.state != state

            alone = run_experiment(config, PAPER_METHODS["fp16"])
            run_experiment(config, PAPER_METHODS["all-reduce"], _share=share)  # draws masks
            shared = run_experiment(config, PAPER_METHODS["fp16"], _share=share)
            assert shared.to_dict() == alone.to_dict()
        finally:
            del MODEL_REGISTRY["mlp-dropout"]

    def test_float32_and_float64_cells_do_not_share(self):
        share = _WorkloadShare()
        method = PAPER_METHODS["all-reduce"]
        for dtype in ("float32", "float64", "float32"):
            run_experiment(mlp_config(dtype=dtype), method, _share=share)
        assert sorted(
            workload.model.parameters()[0].dtype.name for workload in kept_workloads(share)
        ) == ["float32", "float64"]


# --------------------------------------------------------------------------- #
# (c) Scope
# --------------------------------------------------------------------------- #
def three_cell_campaign(**base) -> CampaignSpec:
    return CampaignSpec(
        base={**BASE, "model": "mlp", **base},
        axes={"method": ["all-reduce", "fp16", "pactrain"]},
    )


@pytest.fixture
def preparation_spy(monkeypatch):
    """Entry counts of the three preparation steps, and weak references to
    every model ``_pretrained_workload`` returned."""
    counts = {"make_dataset": 0, "build_model": 0, "_pretrain": 0}
    models = []

    def counting(name):
        original = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, wrapper)

    for name in counts:
        counting(name)
    original = experiment._pretrained_workload

    def remembering(*args):
        workload = original(*args)
        models.append(weakref.ref(workload.model))
        return workload

    monkeypatch.setattr(experiment, "_pretrained_workload", remembering)
    return counts, models


class TestScope:
    def test_preparation_is_entered_once_per_distinct_workload(self, preparation_spy):
        counts, _ = preparation_spy
        spec = three_cell_campaign()
        spec.axes["seed"] = [0, 1]
        report = run_campaign(spec, jobs=1)
        assert report.ran == 6
        assert counts == {"make_dataset": 2, "build_model": 2, "_pretrain": 2}

    def test_outside_a_campaign_every_cell_prepares(self, preparation_spy):
        counts, _ = preparation_spy
        for cell in three_cell_campaign().expand():
            run_experiment(cell.config, cell.method)
        assert counts == {"make_dataset": 3, "build_model": 3, "_pretrain": 3}

    def test_nothing_is_retained_after_the_campaign_returns(self, preparation_spy):
        _, models = preparation_spy
        report = run_campaign(three_cell_campaign(), jobs=1)
        assert report.ran == 3 and len(models) == 1
        gc.collect()
        assert models[0]() is None

    def test_nothing_is_retained_after_a_bare_run(self, preparation_spy):
        _, models = preparation_spy
        run_experiment(mlp_config(), PAPER_METHODS["pactrain"])
        gc.collect()
        assert len(models) == 1 and models[0]() is None

    def test_retried_cell_equals_a_clean_run(self, monkeypatch, tmp_path):
        clean = run_campaign(three_cell_campaign(), jobs=1)
        monkeypatch.setenv("REPRO_CHAOS_MODE", "raise")
        monkeypatch.setenv("REPRO_CHAOS_LABEL", "fp16")
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))
        retried = run_campaign(three_cell_campaign(), jobs=1, retry_backoff=0.001)
        assert [o.attempts for o in retried.outcomes] == [1, 2, 1]
        assert [o.result.to_dict() for o in retried.outcomes] == [
            o.result.to_dict() for o in clean.outcomes
        ]

    def test_byte_bound_evicts_oldest_first(self, monkeypatch):
        method = PAPER_METHODS["all-reduce"]
        probe = _WorkloadShare()
        _prepare_workload(mlp_config(), method, probe)
        ((_, nbytes),) = probe._kept.values()

        monkeypatch.setattr(experiment, "_WORKLOAD_SHARE_MAX_BYTES", 2 * nbytes + nbytes // 2)
        share = _WorkloadShare()
        for seed in (0, 1, 2):
            _prepare_workload(mlp_config(seed=seed), method, share)
        assert [args[4] for args in share._kept] == [1, 2]  # args[4] is the seed
        _prepare_workload(mlp_config(seed=1), method, share)  # a hit moves nothing
        assert [args[4] for args in share._kept] == [1, 2]
        _prepare_workload(mlp_config(seed=0), method, share)
        assert [args[4] for args in share._kept] == [2, 0]

    def test_oversized_workload_is_used_but_not_kept(self, monkeypatch, preparation_spy):
        counts, _ = preparation_spy
        monkeypatch.setattr(experiment, "_WORKLOAD_SHARE_MAX_BYTES", 1024)
        share = _WorkloadShare()
        config, method = mlp_config(), PAPER_METHODS["topk-0.01"]
        first = run_experiment(config, method, _share=share)
        second = run_experiment(config, method, _share=share)
        assert len(share._kept) == 0 and counts["_pretrain"] == 2
        assert first.to_dict() == second.to_dict() == run_experiment(config, method).to_dict()


# --------------------------------------------------------------------------- #
# (d) Loader
# --------------------------------------------------------------------------- #
def stacked_batches(loader: DataLoader):
    """The per-sample batching ``DataLoader.__iter__`` replaced (reference)."""
    indices = loader._indices()
    limit = len(indices)
    if loader.drop_last:
        limit = (limit // loader.batch_size) * loader.batch_size
    for start in range(0, limit, loader.batch_size):
        batch_idx = indices[start : start + loader.batch_size]
        images = np.stack([loader.dataset[i][0] for i in batch_idx])
        labels = np.array([loader.dataset[i][1] for i in batch_idx], dtype=np.int64)
        yield images, labels


LOADER_CASES = {
    "in-order": dict(batch_size=16),
    "shuffle": dict(batch_size=16, shuffle=True, seed=3),
    "ragged-tail": dict(batch_size=40),
    "drop-last": dict(batch_size=40, drop_last=True),
    "batch-larger-than-dataset": dict(batch_size=200),
    "batch-larger-drop-last": dict(batch_size=200, drop_last=True),
    "single-sample": dict(batch_size=1, shuffle=True),
}


class TestLoaderBatching:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_batches_equal_per_sample_stacking(self, case, dtype):
        with default_dtype(dtype):
            dataset = synthetic_cifar10(num_samples=96, image_size=8, seed=7)
        loader = DataLoader(dataset, **LOADER_CASES[case])
        self._assert_same_batches(loader, dtype)

    @pytest.mark.parametrize("drop_last", [True, False])
    def test_sampler_shards_equal_per_sample_stacking(self, drop_last):
        dataset = synthetic_cifar10(num_samples=50, image_size=8, seed=7).subset(np.arange(3, 50))
        for rank in range(4):
            sampler = DistributedSampler(len(dataset), 4, rank, seed=5, drop_last=drop_last)
            loader = DataLoader(dataset, batch_size=5, sampler=sampler)
            for epoch in (0, 1):
                loader.set_epoch(epoch)
                self._assert_same_batches(loader, "float64")

    @staticmethod
    def _assert_same_batches(loader, dtype):
        batches = list(loader)
        reference = list(stacked_batches(loader))
        assert len(batches) == len(reference) == len(loader)
        for (images, labels), (ref_images, ref_labels) in zip(batches, reference):
            assert images.dtype == ref_images.dtype == np.dtype(dtype)
            assert labels.dtype == ref_labels.dtype == np.int64
            assert images.shape == ref_images.shape and labels.shape == ref_labels.shape
            assert images.tobytes() == ref_images.tobytes()
            assert labels.tobytes() == ref_labels.tobytes()
            assert images.flags.c_contiguous and labels.flags.c_contiguous

    def test_batches_are_writeable_and_never_alias_the_dataset(self):
        dataset = synthetic_cifar10(num_samples=32, image_size=8, seed=7)
        dataset.images.flags.writeable = False
        dataset.labels.flags.writeable = False
        snapshot = dataset.images.tobytes()
        # One batch spanning the whole dataset in order is the case where a
        # slice (a view) would have been enough to pass the equality tests.
        for images, labels in DataLoader(dataset, batch_size=32):
            assert images.flags.writeable and labels.flags.writeable
            assert not np.shares_memory(images, dataset.images)
            assert not np.shares_memory(labels, dataset.labels)
            images[...] = 0.0
            labels[...] = 0
        assert dataset.images.tobytes() == snapshot


# --------------------------------------------------------------------------- #
# A cell is serialised once
# --------------------------------------------------------------------------- #
def fingerprint_grid() -> CampaignSpec:
    return CampaignSpec(
        base={**BASE, "model": "mlp", "world_size": 4},
        axes={
            "dtype": ["float32", "float64"],
            "method": ["all-reduce", "topk-0.01", "pactrain", "topk0.01+terngrad"],
            "error_feedback": [None, True],
            "faults": [None, "crash:3@0.002,rejoin:3@0.004", "churn:0.2"],
        },
        cells=[
            {"method": "fp16", "device": {"name": "edge", "flops_per_second": 5e8}},
            {"method": "fp16", "devices": ["sim-gpu", {"name": "edge", "flops_per_second": 5e8}],
             "world_size": 2, "straggler_factors": [1.0, 2.5]},
            {"method": {"name": "mine", "compressor": "pactrain", "pruning_ratio": 0.3,
                        "gse": True, "stability_threshold": 2}, "pruning_ratio": 0.4},
            {"method": "topk-0.01", "sync_schedule": "localsgd:4:delta", "target_accuracy": 0.5},
        ],
    )


class TestCellSerialisedOnce:
    def test_fingerprint_equals_the_reference_definition(self):
        cells = fingerprint_grid().expand()
        assert len(cells) == 52
        for cell in cells:
            assert cell.fingerprint() == cell_fingerprint(cell.config, cell.method), cell.label
        assert len({cell.fingerprint() for cell in cells}) == len(cells)

    def test_identity_is_the_canonical_json_of_both_specs(self):
        (cell,) = CampaignSpec(base={**BASE, "model": "mlp"}).expand()
        assert json.loads(cell.identity) == {
            "config": cell.config.to_dict(), "method": cell.method.to_dict()
        }

    def test_expansion_and_cache_pass_serialise_each_cell_once(self, monkeypatch, tmp_path):
        spec = fingerprint_grid()
        store = ResultStore(tmp_path / "store.jsonl")
        result = run_experiment(mlp_config(), PAPER_METHODS["all-reduce"])
        for cell in spec.expand():
            store.put(cell.config, cell.method, result)

        calls = {"config": 0, "method": 0}
        config_to_dict, method_to_dict = ExperimentConfig.to_dict, MethodSpec.to_dict

        def counting_config(self):
            calls["config"] += 1
            return config_to_dict(self)

        def counting_method(self):
            calls["method"] += 1
            return method_to_dict(self)

        monkeypatch.setattr(ExperimentConfig, "to_dict", counting_config)
        monkeypatch.setattr(MethodSpec, "to_dict", counting_method)
        report = run_campaign(spec, store=store, jobs=1)
        assert report.cached == 52 and report.ran == 0
        assert calls == {"config": 52, "method": 52}

    def test_put_stores_under_the_key_it_is_handed(self, tmp_path):
        (cell,) = CampaignSpec(base={**BASE, "model": "mlp"}).expand()
        result = run_experiment(cell.config, cell.method)
        store = ResultStore(tmp_path / "store.jsonl")
        key = cell.fingerprint()
        assert store.put(cell.config, cell.method, result, key=key) == key
        assert store.put(cell.config, cell.method, result) == key
        assert ResultStore(store.path).get(cell.config, cell.method) == result


# --------------------------------------------------------------------------- #
# (e) Splits that cannot train
# --------------------------------------------------------------------------- #
class TestUntrainableSplitsAreRejected:
    def test_empty_training_split(self):
        with pytest.raises(ValueError) as error:
            ExperimentConfig(model="mlp", dataset_samples=2, test_fraction=0.75,
                             cluster=ClusterSpec(world_size=1))
        message = str(error.value)
        for part in ("dataset_samples=2", "test_fraction=0.75", "0 training / 2 test",
                     "world_size=1"):
            assert part in message

    def test_training_split_smaller_than_the_world(self):
        with pytest.raises(ValueError) as error:
            ExperimentConfig(model="mlp", dataset_samples=8, test_fraction=0.25,
                             cluster=ClusterSpec(world_size=8))
        message = str(error.value)
        for part in ("dataset_samples=8", "test_fraction=0.25", "6 training / 2 test",
                     "world_size=8"):
            assert part in message

    def test_empty_test_split(self):
        with pytest.raises(ValueError, match="4 training / 0 test"):
            ExperimentConfig(model="mlp", dataset_samples=4, test_fraction=1e-300,
                             cluster=ClusterSpec(world_size=2))

    def test_smallest_legal_split_trains(self):
        config = ExperimentConfig(
            model="mlp", dataset_samples=3, test_fraction=0.3, epochs=1, batch_size=4,
            pretrain_iterations=2, cluster=ClusterSpec(world_size=2, bandwidth="100Mbps"),
        )
        result = run_experiment(config, PAPER_METHODS["all-reduce"])
        assert result.iterations_run == 1
        assert not np.isnan(result.loss_trace).any()

    @pytest.mark.parametrize(
        "samples, fraction, train_samples",
        # int(n * (1 - f)) truncates: 10 * (1 - 0.3) is 7.000000000000001,
        # 10 * (1 - 0.7) is 3.0000000000000004, 100 * (1 - 0.29) is 71.0.
        [(10, 0.3, 7), (10, 0.7, 3), (100, 0.29, 71)],
    )
    def test_the_check_uses_the_split_arithmetic(self, samples, fraction, train_samples):
        dataset = synthetic_cifar10(num_samples=samples, image_size=8, seed=0)
        train, _ = train_test_split(dataset, test_fraction=fraction, seed=0)
        assert len(train) == train_samples
        settings = dict(model="mlp", dataset_samples=samples, test_fraction=fraction)
        ExperimentConfig(cluster=ClusterSpec(world_size=train_samples), **settings)
        with pytest.raises(ValueError, match=f"{train_samples} training /"):
            ExperimentConfig(cluster=ClusterSpec(world_size=train_samples + 1), **settings)

    def test_pretrain_raises_on_a_loader_that_yields_nothing(self, tiny_dataset, tiny_model):
        empty = DataLoader(tiny_dataset, batch_size=200, drop_last=True)
        assert len(empty) == 0
        with pytest.raises(ValueError, match="yields no batches"):
            _pretrain(tiny_model, empty, iterations=3, lr=0.05)
        _pretrain(tiny_model, empty, iterations=0, lr=0.05)  # nothing asked, nothing done
