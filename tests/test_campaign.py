"""Tests for the repro.campaign subsystem (spec, store, runner, CLI).

Covers the subsystem's load-bearing guarantees:

* serialization round trips are exact (the store's cache keys hash the
  serialized form, so any drift silently kills caching);
* grid/zip/cell expansion is deterministic, deduplicated and validating;
* the store is content-addressed — hits only for byte-identical cell specs
  under the same code version — and survives reopening;
* parallel and serial execution produce bit-identical stored results, and a
  second run is 100 % cache hits;
* the CLI drives spec file -> store -> report end-to-end.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.campaign.store as store_module
from repro.campaign import (
    CampaignCell,
    CampaignSpec,
    ResultStore,
    build_cell,
    cell_fingerprint,
    resolve_method,
    run_campaign,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.spec import load_spec_file
from repro.simulation import PAPER_METHODS, ClusterSpec, ExperimentConfig, ExperimentResult, MethodSpec
from repro.simulation.compute import DeviceSpec


def spec_from_file(path) -> CampaignSpec:
    """A spec file as ``sweep`` reads it (its ``store`` key ignored)."""
    data, _ = load_spec_file(path)
    return CampaignSpec.from_dict(data)


def tiny_config(**overrides) -> ExperimentConfig:
    """A seconds-scale training configuration for runner tests."""
    cluster_kwargs = {
        "world_size": overrides.pop("world_size", 2),
        "bandwidth": overrides.pop("bandwidth", "100Mbps"),
    }
    defaults = dict(
        model="mlp",
        dataset="cifar10",
        cluster=ClusterSpec(**cluster_kwargs),
        epochs=1,
        batch_size=8,
        dataset_samples=32,
        max_iterations_per_epoch=1,
        pretrain_iterations=0,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# --------------------------------------------------------------------------- #
# Serialization round trips
# --------------------------------------------------------------------------- #
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestSerializationRoundTrips:
    @given(
        name=st.text(min_size=1, max_size=20),
        compressor=st.sampled_from(["allreduce", "fp16", "topk-0.1", "ef+topk0.05", "topk0.01+terngrad"]),
        pruning_ratio=st.floats(min_value=0.0, max_value=0.99),
        gse=st.booleans(),
        quantize=st.booleans(),
        stability_threshold=st.integers(min_value=1, max_value=16),
    )
    def test_method_spec_roundtrip(self, name, compressor, pruning_ratio, gse, quantize,
                                   stability_threshold):
        spec = MethodSpec(
            name=name, compressor=compressor, pruning_ratio=pruning_ratio,
            gse=gse, quantize=quantize, stability_threshold=stability_threshold,
        )
        restored = MethodSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    @given(
        world_size=st.integers(min_value=1, max_value=4),
        bandwidth=st.one_of(
            st.sampled_from(["100Mbps", "500Mbps", "1Gbps"]),
            st.floats(min_value=1e3, max_value=1e12),
        ),
        overlap=st.booleans(),
        hierarchical=st.booleans(),
        device_spec=st.booleans(),
    )
    def test_cluster_spec_roundtrip(self, world_size, bandwidth, overlap, hierarchical, device_spec):
        device = DeviceSpec("custom", 1.5e9) if device_spec else "sim-gpu"
        spec = ClusterSpec(
            world_size=world_size, bandwidth=bandwidth, device=device,
            overlap=overlap, hierarchical=hierarchical,
        )
        restored = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    @given(
        model=st.sampled_from(["mlp", "resnet18", "vit-base-16"]),
        epochs=st.integers(min_value=1, max_value=20),
        target_accuracy=st.one_of(st.none(), st.floats(min_value=0.1, max_value=1.0)),
        # Only splits ExperimentConfig accepts for its default world of 8.
        dataset_samples=st.integers(min_value=11, max_value=4096),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_experiment_config_roundtrip(self, model, epochs, target_accuracy, dataset_samples, seed):
        config = ExperimentConfig(
            model=model, epochs=epochs, target_accuracy=target_accuracy,
            dataset_samples=dataset_samples, seed=seed,
        )
        restored = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        # Identical serialized form => identical fingerprint (cache hit).
        method = PAPER_METHODS["all-reduce"]
        assert cell_fingerprint(config, method) == cell_fingerprint(restored, method)

    @given(
        simulated_time=finite_floats,
        final_accuracy=st.floats(min_value=0.0, max_value=1.0),
        tta=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),
        reached=st.booleans(),
        trace=st.lists(st.tuples(finite_floats, finite_floats), max_size=5),
    )
    def test_experiment_result_roundtrip(self, simulated_time, final_accuracy, tta,
                                         reached, trace):
        result = ExperimentResult(
            method="m", model="mlp", dataset="cifar10", bandwidth_mbps=100.0,
            world_size=2, epochs_run=1, iterations_run=1,
            simulated_time=simulated_time, compute_time=0.0, comm_time=0.0,
            comm_bytes_per_worker=0.0, final_accuracy=final_accuracy,
            best_accuracy=final_accuracy, tta=tta, target_accuracy=None,
            accuracy_trace=list(trace), loss_trace=[0.5], compression_ratio=1.0,
            weight_sparsity=0.0, gradient_density=1.0, reached_target=reached,
            extra={"k": 1.25},
        )
        restored = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        assert all(isinstance(point, tuple) for point in restored.accuracy_trace)

    def test_experiment_result_roundtrip_nan_and_inf(self):
        """NaN losses (empty epochs) and inf ratios survive the JSONL encoding."""
        result = ExperimentResult(
            method="m", model="mlp", dataset="cifar10", bandwidth_mbps=100.0,
            world_size=2, epochs_run=1, iterations_run=0,
            simulated_time=0.0, compute_time=0.0, comm_time=0.0,
            comm_bytes_per_worker=0.0, final_accuracy=0.0, best_accuracy=0.0,
            tta=None, target_accuracy=None, accuracy_trace=[],
            loss_trace=[float("nan")], compression_ratio=float("inf"),
            weight_sparsity=0.0, gradient_density=1.0,
        )
        restored = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert math.isnan(restored.loss_trace[0])
        assert math.isinf(restored.compression_ratio)

    def test_unknown_keys_rejected(self):
        with pytest.raises(KeyError):
            MethodSpec.from_dict({"name": "x", "compresor": "typo"})
        with pytest.raises(KeyError):
            ClusterSpec.from_dict({"wolrd_size": 2})
        with pytest.raises(KeyError):
            ExperimentConfig.from_dict({"model": "mlp", "epoch": 1})
        with pytest.raises(KeyError):
            ExperimentResult.from_dict({"method": "m", "bogus": 1})

    def test_config_range_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_samples=1)
        with pytest.raises(TypeError):
            ExperimentConfig(target_accuracy="per-model")

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("max_iterations_per_epoch", 0, "max_iterations_per_epoch must be None or >= 1, got 0"),
            ("max_iterations_per_epoch", -1, "max_iterations_per_epoch must be None or >= 1, got -1"),
            ("pretrain_iterations", -1, "pretrain_iterations must be >= 0, got -1"),
            ("noise_std", -1.0, "noise_std must be >= 0, got -1.0"),
            ("bucket_cap_bytes", 0, "bucket_cap_bytes must be >= 1, got 0"),
            ("bucket_cap_bytes", -5, "bucket_cap_bytes must be >= 1, got -5"),
            ("image_size", 0, "image_size must be >= 1, got 0"),
        ],
    )
    def test_a_config_that_cannot_run_fails_at_construction(self, name, value, message):
        """Each of these used to construct: a run trained nothing, ran
        silently or failed partway through a sweep."""
        with pytest.raises(ValueError) as caught:
            tiny_config(model="resnet18", **{name: value})
        assert str(caught.value) == message
        spec = CampaignSpec(base={"model": "resnet18", "world_size": 2}, axes={name: [value]})
        with pytest.raises(ValueError, match=message):
            spec.expand()
        # The boundary value itself constructs.
        tiny_config(model="resnet18", **{name: {"noise_std": 0.0, "pretrain_iterations": 0}.get(name, 1)})

    def test_an_unknown_dataset_fails_at_construction_naming_the_accepted_ones(self):
        """It used to construct and expand, failing only inside the cell."""
        message = r"unknown dataset 'imagenet'; available: \['cifar10'\]"
        with pytest.raises(KeyError, match=message):
            ExperimentConfig(model="mlp", dataset="imagenet")
        with pytest.raises(KeyError, match=message):
            CampaignSpec.from_dict({"base": {"model": "mlp", "dataset": "imagenet"}}).expand()
        assert ExperimentConfig(model="mlp", dataset="CIFAR-10").dataset == "cifar10"

    def test_a_name_spelt_another_way_is_one_cell(self):
        """Names are stored as the registry spells them, so both spellings key one cell."""
        method = PAPER_METHODS["all-reduce"]
        for (model, dataset), canonical in [
            (("MLP", "CIFAR-10"), ("mlp", "cifar10")),
            (("ResNet18", "Cifar10"), ("resnet18", "cifar10")),
            (("ViT-Base-16", "cifar-10"), ("vit-base-16", "cifar10")),
        ]:
            spelt = ExperimentConfig(model=model, dataset=dataset)
            plain = ExperimentConfig(model=canonical[0], dataset=canonical[1])
            assert (spelt.model, spelt.dataset) == canonical
            assert spelt == plain
            assert cell_fingerprint(spelt, method) == cell_fingerprint(plain, method)

    @pytest.mark.parametrize("axis, values", [
        ("model", ["mlp", "MLP", "Mlp"]),
        ("dataset", ["cifar10", "CIFAR-10", "Cifar10"]),
    ])
    def test_an_axis_listing_one_name_several_ways_expands_to_one_cell(self, axis, values):
        base = {"model": "mlp", "dataset": "cifar10", "world_size": 2}
        cells = CampaignSpec.from_dict(
            {"base": base, "axes": {axis: values, "method": ["all-reduce", "pactrain"]}}
        ).expand()
        assert [(getattr(cell.config, axis), cell.method.name) for cell in cells] == [
            (values[0], "all-reduce"), (values[0], "pactrain"),
        ]

    @pytest.mark.parametrize("name", ["vgg11", "alexnet"])
    def test_an_unknown_model_fails_at_construction_naming_the_registered_ones(self, name):
        message = rf"unknown model '{name}'; registered models: \['mlp', "
        with pytest.raises(KeyError, match=message):
            ExperimentConfig(model=name)
        with pytest.raises(KeyError, match=message):
            CampaignSpec.from_dict({"base": {"model": name}}).expand()

    @pytest.mark.parametrize("spelling", ["mlp", "MLP", "Mlp"])
    def test_the_mlp_input_check_holds_under_any_spelling(self, spelling):
        with pytest.raises(ValueError, match="model 'mlp' has a fixed 3\\*8\\*8 input layer"):
            ExperimentConfig(model=spelling, image_size=16)
        assert ExperimentConfig(model=spelling, image_size=8).model == "mlp"


# --------------------------------------------------------------------------- #
# Spec expansion
# --------------------------------------------------------------------------- #
class TestCampaignSpec:
    def test_grid_expansion_is_a_product_in_declaration_order(self):
        spec = CampaignSpec(
            base={"model": "mlp", "epochs": 1},
            axes={"bandwidth": ["100Mbps", "1Gbps"], "method": ["all-reduce", "fp16"]},
        )
        cells = spec.expand()
        assert len(cells) == 4
        assert [(c.config.cluster.bandwidth, c.method.name) for c in cells] == [
            ("100Mbps", "all-reduce"), ("100Mbps", "fp16"),
            ("1Gbps", "all-reduce"), ("1Gbps", "fp16"),
        ]

    def test_zipped_axes_advance_together_and_cross_the_grid(self):
        spec = CampaignSpec(
            axes={"method": ["all-reduce", "fp16"]},
            zipped={"model": ["mlp", "resnet18"], "target_accuracy": [0.8, 0.6]},
        )
        cells = spec.expand()
        assert len(cells) == 4
        targets = {(c.config.model, c.config.target_accuracy) for c in cells}
        assert targets == {("mlp", 0.8), ("resnet18", 0.6)}

    def test_zipped_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal lengths"):
            CampaignSpec(zipped={"model": ["mlp"], "target_accuracy": [0.8, 0.6]})

    def test_axis_in_both_grid_and_zip_raises(self):
        with pytest.raises(ValueError, match="both"):
            CampaignSpec(axes={"model": ["mlp"]}, zipped={"model": ["mlp"]})

    def test_explicit_cells_append_and_duplicates_dedupe(self):
        spec = CampaignSpec(
            base={"model": "mlp"},
            axes={"method": ["all-reduce"]},
            cells=[
                {"method": "fp16"},
                {"method": "all-reduce"},  # duplicate of the grid cell
            ],
        )
        cells = spec.expand()
        assert [c.method.name for c in cells] == ["all-reduce", "fp16"]

    def test_unknown_axis_raises(self):
        with pytest.raises(KeyError, match="unknown campaign axis"):
            CampaignSpec(axes={"modle": ["mlp"]}).expand()

    def test_error_feedback_is_a_method_field_axis(self):
        spec = CampaignSpec(
            axes={
                "method": ["terngrad", "topk0.05+fp16"],
                "error_feedback": [False, True],
            }
        )
        cells = spec.expand()
        # Both arms are labelled: forced-off gets -noef (it strips even
        # spec-default compensation), forced-on gets the ef+ prefix.
        assert [c.method.name for c in cells] == [
            "terngrad-noef", "ef+terngrad", "topk0.05+fp16-noef", "ef+topk0.05+fp16",
        ]
        assert [c.method.error_feedback for c in cells] == [False, True, False, True]
        # EF and non-EF cells are distinct cache entries.
        assert len({c.fingerprint() for c in cells}) == 4

    def test_method_field_axis_overrides_resolved_method(self):
        cell = build_cell({"method": "pactrain", "pruning_ratio": 0.7})
        assert cell.method.pruning_ratio == 0.7
        assert cell.method.compressor == "pactrain"
        # Name is preserved for non-EF field overrides.
        assert cell.method.name == "pactrain"

    def test_compressor_axis_renames_non_curated_methods(self):
        # Cells must report what actually ran: a compressor override renames
        # string-resolved methods (including the default all-reduce) ...
        cell = build_cell({"compressor": "fp16+terngrad"})
        assert cell.method.compressor == "fp16+terngrad"
        assert cell.method.name == "fp16+terngrad"
        swapped = build_cell({"method": "topk-0.1", "compressor": "topk-0.01"})
        assert swapped.method.name == "topk-0.01"
        # ... while explicitly curated methods keep their given name.
        table = {"mine": MethodSpec(name="mine", compressor="fp16")}
        curated = build_cell(
            {"method": "mine", "compressor": "allreduce"}, methods=table
        )
        assert curated.method.name == "mine"
        assert curated.method.compressor == "allreduce"

    def test_ef_axis_does_not_double_prefix_ef_specs(self):
        cell = build_cell({"method": "ef+terngrad", "error_feedback": True})
        assert cell.method.name == "ef+terngrad"

    def test_cluster_axes_route_to_cluster_spec(self):
        cell = build_cell({"world_size": 4, "overlap": True, "faults": "churn:0.2",
                           "hierarchical": True, "model": "mlp"})
        assert cell.config.cluster.world_size == 4
        assert cell.config.cluster.overlap is True
        assert cell.config.cluster.faults.churn_probability == 0.2
        assert cell.config.cluster.hierarchical is True

    def test_method_resolution_order(self):
        table = {"mine": MethodSpec(name="mine", compressor="fp16")}
        assert resolve_method("mine", table) is table["mine"]
        assert resolve_method("pactrain", table) is PAPER_METHODS["pactrain"]
        codec = resolve_method("topk0.01+terngrad")
        assert codec.compressor == "topk0.01+terngrad"
        from_dict = resolve_method({"name": "d", "compressor": "fp16"})
        assert from_dict == MethodSpec(name="d", compressor="fp16")

    def test_spec_dict_roundtrip(self):
        spec = CampaignSpec(
            name="rt",
            base={"model": "mlp"},
            axes={"method": ["all-reduce", "fp16"]},
            zipped={"seed": [0, 1], "epochs": [1, 2]},
            cells=[{"method": "custom"}],
            methods={"custom": MethodSpec(name="custom", compressor="fp16")},
        )
        data = {
            "name": "rt",
            "base": {"model": "mlp"},
            "axes": {"method": ["all-reduce", "fp16"]},
            "zip": {"seed": [0, 1], "epochs": [1, 2]},
            "cells": [{"method": "custom"}],
            "methods": {"custom": {"name": "custom", "compressor": "fp16"}},
            "store": "ignored.jsonl",
        }
        restored = CampaignSpec.from_dict(json.loads(json.dumps(data)))
        assert restored == spec
        assert [c.fingerprint() for c in restored.expand()] == [
            c.fingerprint() for c in spec.expand()
        ]

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "filed",
            "base": {"model": "mlp"},
            "axes": {"method": ["all-reduce", "fp16"]},
            "store": "somewhere.jsonl",
        }))
        spec = spec_from_file(path)
        assert spec.name == "filed"
        assert len(spec.expand()) == 2
        _, store_path = load_spec_file(path)
        assert store_path == "somewhere.jsonl"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11+")
    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "tomled"\n'
            '[base]\nmodel = "mlp"\n'
            '[axes]\nmethod = ["all-reduce", "fp16"]\n'
        )
        spec = spec_from_file(path)
        assert spec.name == "tomled"
        assert len(spec.expand()) == 2


CAMPAIGNS = Path(__file__).resolve().parent.parent / "examples" / "campaigns"

#: The cells each paper comparison declares (Fig. 3: 4 models x 3 bandwidths x
#: 5 methods; Fig. 6: 4 models x 7 pruning ratios).
FIGURE_CELLS = {"fig3": 60, "fig5": 5, "fig6": 28, "table1": 6, "ablation": 7}


class TestShippedSpecs:
    @pytest.mark.parametrize("path", sorted(CAMPAIGNS.glob("*.json")), ids=lambda path: path.name)
    def test_spec_file_loads_and_expands(self, path):
        assert spec_from_file(path).expand()

    @pytest.mark.parametrize("name, cells", sorted(FIGURE_CELLS.items()))
    def test_each_paper_figure_is_one_spec(self, name, cells):
        assert len(spec_from_file(CAMPAIGNS / f"{name}.json").expand()) == cells

    def test_table1_allreduce_compatibility_matches_the_paper(self):
        """Table 1's compatibility column is a property of the code, not of a run."""
        cells = spec_from_file(CAMPAIGNS / "table1.json").expand()
        compatible = {
            cell.method.name: cell.method.build_compressor().allreduce_compatible for cell in cells
        }
        assert compatible == {
            "pactrain": True, "terngrad": True, "dgc-0.01": False,
            "topk-0.01": False, "fp16": True, "all-reduce": True,
        }


# --------------------------------------------------------------------------- #
# Result store
# --------------------------------------------------------------------------- #
def fake_result(method="all-reduce", model="mlp", bandwidth_mbps=100.0, tta=1.0,
                simulated_time=2.0, reached=True) -> ExperimentResult:
    return ExperimentResult(
        method=method, model=model, dataset="cifar10", bandwidth_mbps=bandwidth_mbps,
        world_size=2, epochs_run=1, iterations_run=1, simulated_time=simulated_time,
        compute_time=1.0, comm_time=1.0, comm_bytes_per_worker=1e6,
        final_accuracy=0.5, best_accuracy=0.5, tta=tta, target_accuracy=0.5,
        accuracy_trace=[(simulated_time, 0.5)], loss_trace=[0.7], compression_ratio=1.0,
        weight_sparsity=0.0, gradient_density=1.0, reached_target=reached,
    )


class TestResultStore:
    def test_put_get_and_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        store = ResultStore(path)
        assert store.get(config, method) is None
        key = store.put(config, method, fake_result())
        assert store.get_by_key(key) is not None
        assert store.get(config, method) == fake_result()
        # A fresh handle reloads the persisted record.
        assert ResultStore(path).get(config, method) == fake_result()

    def test_get_by_key_misses_on_an_unknown_key(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        key = store.put(tiny_config(), PAPER_METHODS["all-reduce"], fake_result())
        assert store.get_by_key(key) == fake_result()
        assert store.get_by_key("0" * len(key)) is None

    def test_in_memory_store_without_path(self):
        store = ResultStore()
        store.put(tiny_config(), PAPER_METHODS["fp16"], fake_result(method="fp16"))
        assert len(store) == 1

    def test_any_config_or_method_change_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        store.put(config, method, fake_result())
        assert store.get(tiny_config(seed=1), method) is None
        assert store.get(tiny_config(bandwidth="1Gbps"), method) is None
        assert store.get(config, PAPER_METHODS["fp16"]) is None
        assert store.get(config, method) is not None

    def test_schema_version_bump_invalidates(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store.jsonl")
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        store.put(config, method, fake_result())
        monkeypatch.setattr(store_module, "RESULT_SCHEMA_VERSION", 999)
        assert store.get(config, method) is None

    def test_pr3_era_schema1_records_are_invalidated_not_reused(self, tmp_path, monkeypatch):
        """Records persisted under schema 1 (before MethodSpec.error_feedback)
        must be cache misses under the bumped schema, not silently served."""
        path = tmp_path / "store.jsonl"
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        monkeypatch.setattr(store_module, "RESULT_SCHEMA_VERSION", 1)
        ResultStore(path).put(config, method, fake_result())
        monkeypatch.undo()
        assert store_module.RESULT_SCHEMA_VERSION >= 2
        reopened = ResultStore(path)
        assert len(reopened) == 1  # still on disk (append-only history) ...
        assert reopened.get(config, method) is None  # ... but never hit
        # Re-running the cell persists a fresh, reachable record.
        reopened.put(config, method, fake_result())
        assert reopened.get(config, method) == fake_result()

    def test_error_feedback_field_changes_the_fingerprint(self):
        config = tiny_config()
        base = MethodSpec(name="s", compressor="terngrad")
        with_ef = MethodSpec(name="s", compressor="terngrad", error_feedback=True)
        assert cell_fingerprint(config, base) != cell_fingerprint(config, with_ef)

    def test_latest_record_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        store.put(config, method, fake_result(tta=1.0))
        store.put(config, method, fake_result(tta=9.0))
        assert store.get(config, method).tta == 9.0
        assert ResultStore(path).get(config, method).tta == 9.0
        # Both appends remain in the history file.
        assert len((path).read_text().strip().splitlines()) == 2

    def test_corrupt_store_warns_and_quarantines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("not json\n")
        with pytest.warns(RuntimeWarning, match="line 1"):
            store = ResultStore(path)
        assert len(store) == 0
        # The bad line is preserved for forensics next to the store.
        assert (tmp_path / "store.jsonl.corrupt").read_text() == "not json\n"

    def test_filters_pivot_and_relative_baseline(self):
        store = ResultStore()
        grid = [("all-reduce", 4.0), ("fp16", 2.0), ("pactrain", 1.0)]
        for bandwidth in (100.0, 1000.0):
            for method, tta in grid:
                config = tiny_config(seed=int(bandwidth))
                spec = MethodSpec(name=method, compressor="allreduce")
                store.put(config, spec, fake_result(
                    method=method, bandwidth_mbps=bandwidth, tta=tta * (100.0 / bandwidth),
                    simulated_time=tta,
                ))
        assert len(store.records(method="fp16")) == 2
        assert len(store.records(method="fp16", bandwidth_mbps=100.0)) == 1
        methods = [record.axis("method") for record in store.records()]
        assert list(dict.fromkeys(methods)) == ["all-reduce", "fp16", "pactrain"]

        header, rows = store.pivot("model", "method", value="simulated_time")
        assert header == ["model", "all-reduce", "fp16", "pactrain"]
        assert rows == [["mlp", "4.000", "2.000", "1.000"]]

        relative = store.relative_to_baseline("all-reduce", value="tta_or_total")
        assert relative[("mlp", 100.0)]["pactrain"] == pytest.approx(0.25)
        assert relative[("mlp", 1000.0)]["fp16"] == pytest.approx(0.5)

    def test_relative_baseline_means_over_seeds(self):
        store = ResultStore()
        for seed, (base_tta, fast_tta) in enumerate([(4.0, 2.0), (8.0, 2.0)]):
            config = tiny_config(seed=seed)
            store.put(config, PAPER_METHODS["all-reduce"],
                      fake_result(method="all-reduce", tta=base_tta))
            store.put(config, PAPER_METHODS["fp16"],
                      fake_result(method="fp16", tta=fast_tta))
        relative = store.relative_to_baseline("all-reduce", value="tta_or_total")
        # mean(2, 2) / mean(4, 8) — not the last seed's 2/8.
        assert relative[("mlp", 100.0)]["fp16"] == pytest.approx(2.0 / 6.0)

    def test_torn_final_line_is_dropped_and_healed(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        store.put(config, method, fake_result())
        # Simulate a killed writer: a partial record with no trailing newline.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "config"')

        reopened = ResultStore(path)
        assert reopened.get(config, method) == fake_result()
        # The next append starts on a fresh line; the store stays loadable.
        reopened.put(tiny_config(seed=1), method, fake_result(tta=2.0))
        final = ResultStore(path)
        assert final.get(config, method) == fake_result()
        assert final.get(tiny_config(seed=1), method).tta == 2.0

    def test_corrupt_interior_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        store.put(config, method, fake_result())
        # Sabotage the middle of the history, then append another good record.
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\ngarbage\n")
        with pytest.warns(RuntimeWarning, match="line 2"):
            reopened = ResultStore(path)
        assert reopened.get(config, method) == fake_result()
        reopened.put(tiny_config(seed=1), method, fake_result(tta=2.0))
        with pytest.warns(RuntimeWarning):
            final = ResultStore(path)
        assert final.get(config, method) == fake_result()
        assert final.get(tiny_config(seed=1), method).tta == 2.0
        assert "garbage" in (tmp_path / "store.jsonl.corrupt").read_text()

    def test_reopening_does_not_requarantine_the_same_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        ResultStore(path).put(config, method, fake_result())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage-not-json\n")
        for _ in range(3):
            with pytest.warns(RuntimeWarning, match="line 2"):
                assert ResultStore(path).get(config, method) == fake_result()
        corrupt = tmp_path / "store.jsonl.corrupt"
        assert corrupt.read_text() == "garbage-not-json\n"
        # A second, different bad line is new to the quarantine file; a repeat
        # of the first one inside the same store is not.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("other garbage\ngarbage-not-json\n")
        for _ in range(2):
            with pytest.warns(RuntimeWarning):
                ResultStore(path)
        assert corrupt.read_text() == "garbage-not-json\nother garbage\n"

    def test_unwritable_quarantine_still_loads_good_records(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        ResultStore(path).put(config, method, fake_result())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage-not-json\n")
        # A directory in the quarantine file's place cannot be read or appended
        # to by anyone (mode bits would not stop a root test run).
        (tmp_path / "store.jsonl.corrupt").mkdir()
        with pytest.warns(RuntimeWarning, match="<unwritable>"):
            store = ResultStore(path)
        assert store.get(config, method) == fake_result()

    def test_pivot_skips_records_without_the_metric(self):
        store = ResultStore()
        config = tiny_config()
        store.put(config, MethodSpec(name="dnc", compressor="fp16"),
                  fake_result(method="dnc", tta=None, reached=False))
        header, rows = store.pivot("model", "method", value="tta")
        assert rows == [["mlp", "-"]]


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
def two_by_two_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="2x2",
        base={"model": "mlp", "epochs": 1, "batch_size": 8, "dataset_samples": 32,
              "max_iterations_per_epoch": 1, "pretrain_iterations": 0, "world_size": 2},
        axes={"bandwidth": ["100Mbps", "1Gbps"], "method": ["all-reduce", "fp16"]},
    )


class TestRunner:
    def test_parallel_and_serial_store_identical_results(self, tmp_path):
        spec = two_by_two_campaign()
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        parallel_store = ResultStore(tmp_path / "parallel.jsonl")

        serial = run_campaign(spec, store=serial_store, jobs=1)
        parallel = run_campaign(spec, store=parallel_store, jobs=4)

        assert serial.ran == parallel.ran == 4
        assert serial.failed == parallel.failed == 0
        serial_dicts = [r.to_dict() for r in serial.results()]
        parallel_dicts = [r.to_dict() for r in parallel.results()]
        assert serial_dicts == parallel_dicts
        # The persisted records agree bit-for-bit too.
        for cell in spec.expand():
            a = serial_store.get(cell.config, cell.method)
            b = parallel_store.get(cell.config, cell.method)
            assert a is not None and a.to_dict() == b.to_dict()

    def test_second_run_is_pure_cache_hits(self, tmp_path):
        spec = two_by_two_campaign()
        store = ResultStore(tmp_path / "store.jsonl")
        first = run_campaign(spec, store=store, jobs=1)
        assert first.ran == 4
        second = run_campaign(spec, store=store, jobs=4)
        assert second.ran == 0 and second.cached == 4
        assert [r.to_dict() for r in second.results()] == [r.to_dict() for r in first.results()]
        # recompute=True forces training again.
        third = run_campaign(spec, store=store, jobs=1, recompute=True)
        assert third.ran == 4 and third.cached == 0

    def test_failed_cell_is_captured_not_raised(self):
        cells = [
            # Well-formed, rejected only when the cell builds its compressor.
            CampaignCell(config=tiny_config(),
                         method=MethodSpec(name="bad", compressor="pactrain", error_feedback=True)),
            CampaignCell(config=tiny_config(), method=PAPER_METHODS["all-reduce"]),
        ]
        report = run_campaign(cells, jobs=1)
        assert report.failed == 1 and report.ran == 1
        assert "not supported for PacTrain" in report.failures()[0].error
        with pytest.raises(RuntimeError, match="1 campaign cell"):
            report.raise_failures()

    def test_progress_callback_sees_every_cell(self, tmp_path):
        spec = two_by_two_campaign()
        store = ResultStore(tmp_path / "store.jsonl")
        seen = []
        run_campaign(spec, store=store, jobs=1, progress=seen.append)
        assert [p.done for p in seen] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in seen)
        assert all(p.outcome.status == "ran" for p in seen)
        # Fresh cells carry their own wall time and are not cache hits.
        assert all(not p.cache_hit and p.elapsed_s > 0 for p in seen)
        # The rolling ETA appears once the first trained cell lands and
        # reaches exactly zero on the last one.
        assert all(p.eta_s is not None for p in seen)
        assert seen[-1].eta_s == 0.0

        # A second identical run is all cache hits: flagged, zero elapsed.
        again = []
        run_campaign(spec, store=store, jobs=1, progress=again.append)
        assert all(p.cache_hit and p.outcome.status == "cached" for p in again)
        assert all(p.elapsed_s == 0.0 for p in again)

    def test_method_comparison_uses_store_and_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        cells = [
            CampaignCell(config=tiny_config(), method=PAPER_METHODS[name])
            for name in ("all-reduce", "fp16")
        ]
        first = run_campaign(cells, store=store)
        first.raise_failures()
        assert [r.method for r in first.results()] == ["all-reduce", "fp16"]
        again = run_campaign(cells, store=store)
        again.raise_failures()
        assert again.cached == 2
        assert [r.to_dict() for r in again.results()] == [r.to_dict() for r in first.results()]

    def test_seed_axis_varies_stochastic_compressors(self):
        """Multi-seed sweeps reach the stochastic codecs (the old seed-0 bug)."""
        results = {}
        for seed in (0, 1):
            config = tiny_config(seed=seed, epochs=2, max_iterations_per_epoch=4)
            method = MethodSpec(name="terngrad", compressor="terngrad")
            report = run_campaign([CampaignCell(config=config, method=method)], jobs=1)
            report.raise_failures()
            results[seed] = report.results()[0]
        assert results[0].loss_trace != results[1].loss_trace

    def test_compressor_seed_threading(self):
        def seeded_with(stage, seed):
            return stage._rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

        (ternarize,) = MethodSpec(name="tg", compressor="terngrad").build_compressor(seed=7).pipeline.stages
        assert seeded_with(ternarize, 7)
        pipeline = MethodSpec(name="c", compressor="topk0.2+fp16+terngrad").build_compressor(seed=9)
        _, _, ternarize = pipeline.pipeline.stages
        assert seeded_with(ternarize, 9) and not seeded_with(ternarize, 0)
        # Deterministic methods accept (and ignore) the seed.
        MethodSpec(name="t", compressor="topk-0.1").build_compressor(seed=3)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def write_acceptance_spec(path) -> None:
    """The acceptance-criteria campaign: 2 models x 2 bandwidths x 2 methods."""
    path.write_text(json.dumps({
        "name": "acceptance",
        "base": {"epochs": 1, "batch_size": 8, "dataset_samples": 32,
                 "max_iterations_per_epoch": 1, "pretrain_iterations": 0,
                 "world_size": 2},
        "axes": {
            "model": ["mlp", "resnet18"],
            "bandwidth": ["100Mbps", "1Gbps"],
            "method": ["all-reduce", "fp16"],
        },
    }))


class TestCLI:
    def test_sweep_parallel_matches_serial_and_caches(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_acceptance_spec(spec_path)
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"

        assert cli_main(["sweep", str(spec_path), "--store", str(serial_path),
                         "--jobs", "1", "--quiet"]) == 0
        assert cli_main(["sweep", str(spec_path), "--store", str(parallel_path),
                         "--jobs", "4", "--quiet"]) == 0
        capsys.readouterr()

        spec = spec_from_file(spec_path)
        serial_store, parallel_store = ResultStore(serial_path), ResultStore(parallel_path)
        for cell in spec.expand():
            a = serial_store.get(cell.config, cell.method)
            b = parallel_store.get(cell.config, cell.method)
            assert a is not None and a.to_dict() == b.to_dict(), cell.label

        # Second invocation: zero training runs, 100% cache hits.
        assert cli_main(["sweep", str(spec_path), "--store", str(parallel_path),
                         "--jobs", "4", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "ran=0" in out and "cached=8" in out and "failed=0" in out

    def test_report_pivots_the_store(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_acceptance_spec(spec_path)
        store_path = tmp_path / "store.jsonl"
        assert cli_main(["sweep", str(spec_path), "--store", str(store_path),
                         "--jobs", "1", "--quiet"]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--store", str(store_path),
                         "--rows", "model", "--cols", "method",
                         "--value", "simulated_time"]) == 0
        out = capsys.readouterr().out
        assert "mlp" in out and "resnet18" in out and "all-reduce" in out

        assert cli_main(["report", "--store", str(store_path),
                         "--baseline", "all-reduce", "--value", "tta_or_total"]) == 0
        out = capsys.readouterr().out
        assert "fp16" in out

    def test_report_on_empty_store_fails(self, tmp_path, capsys):
        assert cli_main(["report", "--store", str(tmp_path / "none.jsonl")]) == 1
        assert "empty" in capsys.readouterr().err

    @staticmethod
    def _ablation_like_store(path):
        """An all-reduce record and a PacTrain one that reports compact_fraction."""
        store = ResultStore(path)
        store.put(tiny_config(), PAPER_METHODS["all-reduce"], fake_result())
        pactrain = fake_result(method="pactrain")
        pactrain.extra["compact_fraction"] = 0.5
        store.put(tiny_config(), PAPER_METHODS["pactrain"], pactrain)

    def test_report_reads_a_metric_from_result_extra(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        self._ablation_like_store(store_path)
        assert cli_main(["report", "--store", str(store_path), "--rows", "method",
                         "--cols", "model", "--value", "compact_fraction"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split() for row in rows] == [["all-reduce", "-"], ["pactrain", "0.500"]]

    @pytest.mark.parametrize("flags, message", [
        (["--value", "no_such_field"], "--value 'no_such_field' is not a result field"),
        (["--value", "accuracy_trace"], "'accuracy_trace' is not numeric (it is a list)"),
        (["--rows", "bogus"], "--rows 'bogus' is not an axis"),
        (["--cols", "accuracy_trace"], "--cols 'accuracy_trace' is not an axis"),
        (["--baseline", "all-reduce", "--group-by", "model", "bogus"], "--group-by 'bogus'"),
        (["--baseline", "bogus"], "--baseline 'bogus' is not a stored method"),
    ])
    def test_report_rejects_what_it_cannot_report(self, tmp_path, capsys, flags, message):
        store_path = tmp_path / "s.jsonl"
        self._ablation_like_store(store_path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["report", "--store", str(store_path), *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line

    def test_run_single_cell(self, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert cli_main([
            "run", "--model", "mlp", "--method", "fp16", "--world-size", "2",
            "--epochs", "1", "--dataset-samples", "32", "--max-iterations-per-epoch", "1",
            "--set", "pretrain_iterations=0", "--set", "batch_size=8",
            "--store", str(store_path), "--quiet",
        ]) == 0
        assert "fp16" in capsys.readouterr().out
        assert ResultStore(store_path)._records

    def test_sweep_reports_failures_with_nonzero_exit(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "name": "bad",
            "base": {"epochs": 1, "batch_size": 8, "dataset_samples": 32,
                     "max_iterations_per_epoch": 1, "pretrain_iterations": 0,
                     "world_size": 2},
            # Well-formed, and rejected only by the compressor factory when the
            # cell runs: PacTrain takes no driver-level error feedback.
            "axes": {"model": ["mlp"], "method": ["all-reduce", "pactrain"],
                     "error_feedback": [None, True]},
        }))
        assert cli_main(["sweep", str(spec_path), "--store",
                         str(tmp_path / "s.jsonl"), "--jobs", "1", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "failed=1" in captured.out
        assert captured.err.count("FAILED mlp/ef+pactrain@") == 1

    def test_every_public_name_is_a_subpackage(self):
        for name in repro.__all__:
            assert importlib.import_module(f"repro.{name}").__name__ == f"repro.{name}"

    @pytest.mark.parametrize("argv", [["perf", "--quick"], ["backends"]])
    def test_removed_subcommand_is_an_invalid_choice(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    RUN = ["run", "--model", "mlp", "--epochs", "1", "--world-size", "2", "--quiet",
           "--dataset-samples", "32", "--max-iterations-per-epoch", "1"]

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "{tmp}/missing.json"], "No such file"),
        (["sweep", "{tmp}/not.json"], "Expecting value"),
        (["sweep", "{tmp}/axis.json"], "unknown campaign axis 'bogus'"),
        ([*RUN, "--set", "bogus=1"], "unknown campaign axis 'bogus'"),
        ([*RUN, "--set", "bogus"], "--set expects axis=value"),
        ([*RUN, "--regime", "bogus:1"], "unknown training regime 'bogus'"),
        ([*RUN, "--set", "faults=crash:9@0.1"], "outside world_size=2"),
        ([*RUN, "--bandwidth", "3Gbps"], "unknown bandwidth setting '3Gbps'"),
        (["trace", "report", "{tmp}/missing.jsonl"], "No such file"),
        (["trace", "validate", "{tmp}/missing.json"], "No such file"),
        (["report", "--store", "{tmp}/s.jsonl", "--filter", "bogus"], "--filter expects axis=value"),
        (["golden", "--only", "nope"], "unknown golden methods: nope"),
        (["golden", "--update", "--only", "nope", "--dir", "{tmp}"], "unknown golden methods: nope"),
        (["run", "--model", "nope", "--epochs", "1"], "unknown model 'nope'"),
        (["run", "--method", "bogus", "--epochs", "1"], "unknown compressor 'bogus'"),
        (["sweep", "{tmp}/typo.json"], "unknown model 'no-such-model'"),
        # Retired settings are unknown names, not silently accepted ones.
        ([*RUN, "--set", "backend=numba"], "unknown campaign axis 'backend'"),
        ([*RUN, "--set", "execution=looped"], "unknown campaign axis 'execution'"),
        (["sweep", "{tmp}/backend-axis.json"], "unknown campaign axis 'backend'"),
        (["sweep", "{tmp}/execution-axis.json"], "unknown campaign axis 'execution'"),
        ([*RUN, "--set", "dataset=imagenet"], "unknown dataset 'imagenet'"),
    ])
    def test_bad_input_is_one_error_line_and_exit_2(self, tmp_path, capsys, argv, message):
        (tmp_path / "not.json").write_text("not json")
        (tmp_path / "axis.json").write_text(json.dumps({"name": "x", "axes": {"bogus": [1]}}))
        (tmp_path / "typo.json").write_text(
            json.dumps({"name": "x", "axes": {"model": ["mlp", "no-such-model"]}})
        )
        (tmp_path / "backend-axis.json").write_text(
            json.dumps({"name": "x", "axes": {"backend": ["numpy", None]}})
        )
        (tmp_path / "execution-axis.json").write_text(
            json.dumps({"name": "x", "axes": {"execution": ["batched", "looped"]}})
        )
        with pytest.raises(SystemExit) as exit_info:
            cli_main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line

    def test_run_with_a_failing_cell_prints_its_traceback_once(self, capsys):
        assert cli_main([*self.RUN, "--method", "pactrain", "--set", "error_feedback=true"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("FAILED mlp/ef+pactrain@") == 1
        assert captured.err.count("Traceback") == 1
        assert "error feedback is not supported for PacTrain" in captured.err

    @pytest.mark.parametrize("key, value", [("backend", None), ("execution", "batched")])
    def test_a_stored_config_with_a_retired_key_is_rejected_by_name(self, key, value):
        data = {**tiny_config().to_dict(), key: value}
        with pytest.raises(KeyError, match=f"unknown ExperimentConfig fields \\['{key}'\\]"):
            ExperimentConfig.from_dict(data)


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_fingerprint_is_stable_and_content_addressed(self):
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        assert cell_fingerprint(config, method) == cell_fingerprint(config, method)
        assert cell_fingerprint(config, method) != cell_fingerprint(
            tiny_config(seed=1), method
        )
        assert cell_fingerprint(config, method) != cell_fingerprint(
            config, PAPER_METHODS["fp16"]
        )

    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           epochs=st.integers(min_value=1, max_value=10))
    def test_fingerprint_survives_serialization(self, seed, epochs):
        config = tiny_config(seed=seed, epochs=epochs)
        method = PAPER_METHODS["pactrain"]
        restored = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert cell_fingerprint(restored, method) == cell_fingerprint(config, method)
