"""How a stored spec or result is rebuilt from its JSON-born dict.

``rebuild`` in :mod:`repro.simulation.spec` is the one ``from_dict`` rule of
the six serialised dataclasses: a dict holding exactly the class's init fields
is passed by position, anything else is checked by name and passed by keyword.
These tests pin that both paths build the same objects as the keyword call
they replace, with the same errors, and that the field order the helper is
given is the constructor's parameter order.  A retired field of any of the
three specs is dropped at the value it was retired at and named in a
:class:`RetiredFieldError` at any other, so stored records, fixtures, keys and
campaign axes written before it went still load.
"""

from __future__ import annotations

import dataclasses
import glob
import inspect
import json
import os
import warnings

import pytest

from repro import golden
from repro.campaign import CampaignSpec, ResultStore, cell_fingerprint
from repro.campaign.store import StoredRecord
from repro.simulation import ClusterSpec, ExperimentConfig, ExperimentResult, MethodSpec, run_experiment
from repro.simulation import spec as spec_module
from repro.simulation.compute import DeviceSpec
from repro.simulation.faults import FaultEvent, FaultPlan
from repro.simulation.spec import RetiredFieldError
from tests.test_campaign import fake_result, tiny_config


@pytest.fixture(scope="module")
def results():
    """The result of every golden cell."""
    return {
        name: run_experiment(golden.golden_config_for(name), method)
        for name, method in golden.GOLDEN_METHODS.items()
    }


def json_born(data: dict) -> dict:
    """``data`` as a store line gives it back: every key a fresh parsed string."""
    return json.loads(json.dumps(data))


@pytest.fixture
def init_calls(monkeypatch):
    """Records ``(positional count, keyword names)`` of each ``ExperimentResult.__init__``."""
    calls = []
    original = ExperimentResult.__init__

    def spy(self, *args, **kwargs):
        calls.append((len(args), sorted(kwargs)))
        original(self, *args, **kwargs)

    monkeypatch.setattr(ExperimentResult, "__init__", spy)
    return calls


def stored_line(result_dict: dict) -> str:
    record = StoredRecord(
        key="0" * 64, config=tiny_config().to_dict(), method=MethodSpec(name="m").to_dict(),
        result=fake_result(),
    )
    data = json.loads(record.to_json())
    data["result"] = result_dict
    return json.dumps(data)


# --------------------------------------------------------------------------- #
# (a) exact field sets: positional, and equal to the result
# --------------------------------------------------------------------------- #
class TestPositionalPath:
    def test_golden_results_round_trip_positionally(self, results, init_calls):
        fields = len(dataclasses.fields(ExperimentResult))
        for name, result in results.items():
            init_calls.clear()
            restored = ExperimentResult.from_dict(json_born(result.to_dict()))
            assert restored == result, name
            assert all(isinstance(point, tuple) for point in restored.accuracy_trace), name
            assert init_calls == [(fields, [])], name

    def test_a_store_load_takes_the_positional_path(self, tmp_path, init_calls):
        path = tmp_path / "store.jsonl"
        expected = fake_result()
        ResultStore(path).put(tiny_config(), MethodSpec(name="m"), expected)
        init_calls.clear()
        assert ResultStore(path).get(tiny_config(), MethodSpec(name="m")) == expected
        assert init_calls == [(len(dataclasses.fields(ExperimentResult)), [])]

    def test_nested_specs_convert_on_both_paths(self):
        plan = FaultPlan.parse("crash:1@0.5,rejoin:1@1.0,link:0.5@0.2-0.4,churn:0.1")
        cluster = ClusterSpec(world_size=2, device=DeviceSpec("slow", 1e9), faults=plan)
        config = dataclasses.replace(tiny_config(), cluster=cluster)
        data = json_born(config.to_dict())
        assert ExperimentConfig.from_dict(data) == config
        # The keyword path: a defaulted field left out of every level.
        del data["seed"], data["cluster"]["overlap"], data["cluster"]["faults"]["churn_seed"]
        restored = ExperimentConfig.from_dict(data)
        assert restored == config
        assert isinstance(restored.cluster.device, DeviceSpec)
        assert all(isinstance(event, FaultEvent) for event in restored.cluster.faults.events)

    def test_from_dict_leaves_its_argument_untouched(self):
        plan = FaultPlan.parse("crash:1@0.5,rejoin:1@1.0")
        config = dataclasses.replace(tiny_config(), cluster=ClusterSpec(world_size=2, faults=plan))
        for data in (json_born(config.to_dict()), {**json_born(config.to_dict()), "seed": 0}):
            snapshot = json.dumps(data)
            ExperimentConfig.from_dict(data)
            assert json.dumps(data) == snapshot


# --------------------------------------------------------------------------- #
# (b)-(d) every other field set: by keyword, with today's errors
# --------------------------------------------------------------------------- #
class TestKeywordPath:
    @pytest.mark.parametrize("name", ["goodput_fraction", "extra", "staleness_max", "reached_target"])
    def test_a_record_without_a_defaulted_field_loads_its_default(self, name, init_calls):
        data = json_born(fake_result().to_dict())
        del data[name]
        init_calls.clear()
        restored = ExperimentResult.from_dict(data)
        assert init_calls == [(0, sorted(data))]
        field = next(f for f in dataclasses.fields(ExperimentResult) if f.name == name)
        expected = field.default_factory() if field.default is dataclasses.MISSING else field.default
        assert getattr(restored, name) == expected
        assert restored == dataclasses.replace(fake_result(), **{name: expected})

    def test_the_store_loads_a_record_without_a_defaulted_field(self, tmp_path):
        data = json_born(fake_result().to_dict())
        del data["goodput_fraction"]
        path = tmp_path / "store.jsonl"
        path.write_text(stored_line(data) + "\n")
        (record,) = ResultStore(path).records()
        assert record.result.goodput_fraction == 1.0
        assert record.result == fake_result()

    @pytest.mark.parametrize(
        "cls, data",
        [
            (MethodSpec, MethodSpec(name="m").to_dict()),
            (ExperimentConfig, tiny_config().to_dict()),
            (ExperimentResult, fake_result().to_dict()),
            (ClusterSpec, ClusterSpec().to_dict()),
            (FaultEvent, {"kind": "crash", "at": 0.5, "rank": 1}),
            (FaultPlan, FaultPlan().to_dict()),
        ],
        ids=["MethodSpec", "ExperimentConfig", "ExperimentResult", "ClusterSpec", "FaultEvent", "FaultPlan"],
    )
    def test_an_unknown_field_raises_the_same_key_error(self, cls, data):
        known = sorted(field.name for field in dataclasses.fields(cls))
        message = f"unknown {cls.__name__} fields ['bogus']; known: {known}"
        # Added to a full dict and swapped for a real field (same length).
        added = {**json_born(data), "bogus": 1}
        swapped = dict(json_born(data))
        swapped.pop(next(iter(swapped)))
        swapped["bogus"] = 1
        for bad in (added, swapped):
            with pytest.raises(KeyError) as caught:
                cls.from_dict(bad)
            assert caught.value.args == (message,)

    def test_the_unknown_field_is_named_before_a_nested_value_fails(self):
        data = json_born(tiny_config().to_dict())
        data["bogus"] = 1
        data["cluster"]["also_bogus"] = 1
        with pytest.raises(KeyError, match=r"unknown ExperimentConfig fields \['bogus'\]"):
            ExperimentConfig.from_dict(data)
        plan = {"events": [{"kind": "crash", "at": 0.5, "rank": 1, "nope": 0}], "bogus": 1}
        with pytest.raises(KeyError, match=r"unknown FaultPlan fields \['bogus'\]"):
            FaultPlan.from_dict(plan)

    def test_a_missing_required_field_raises_type_error(self):
        data = json_born(fake_result().to_dict())
        del data["simulated_time"]
        with pytest.raises(TypeError, match="simulated_time"):
            ExperimentResult.from_dict(data)
        with pytest.raises(TypeError, match="name"):
            MethodSpec.from_dict({"compressor": "fp16"})

    def test_the_store_quarantines_a_record_without_a_required_field(self, tmp_path):
        good = json_born(fake_result().to_dict())
        bad = dict(good)
        del bad["accuracy_trace"]
        path = tmp_path / "store.jsonl"
        bad_line = stored_line(bad)
        good_line = stored_line(good).replace("0" * 64, "1" * 64)
        path.write_text(bad_line + "\n" + good_line + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = ResultStore(path)
        assert list(store._records) == ["1" * 64]
        assert any("line 1" in str(warning.message) for warning in caught)
        assert (tmp_path / "store.jsonl.corrupt").read_text() == bad_line + "\n"


# --------------------------------------------------------------------------- #
# (e) the field order the helper is given is the constructor's
# --------------------------------------------------------------------------- #
def test_the_helper_is_given_every_init_parameter_in_order(monkeypatch):
    seen = {}
    original = spec_module.rebuild

    def spy(cls, data, names, **convert):
        seen[cls] = names
        return original(cls, data, names, **convert)

    monkeypatch.setattr(spec_module, "rebuild", spy)
    plan = FaultPlan.parse("crash:1@0.5,rejoin:1@1.0")
    config = dataclasses.replace(tiny_config(), cluster=ClusterSpec(world_size=2, faults=plan))
    ExperimentConfig.from_dict(json_born(config.to_dict()))
    MethodSpec.from_dict(json_born(MethodSpec(name="m").to_dict()))
    ExperimentResult.from_dict(json_born(fake_result().to_dict()))
    classes = [MethodSpec, ExperimentConfig, ExperimentResult, ClusterSpec, FaultEvent, FaultPlan]
    assert set(seen) == set(classes)
    for cls in classes:
        parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters), cls
        assert list(seen[cls]) == [p.name for p in parameters], cls
        assert list(seen[cls]) == [f.name for f in dataclasses.fields(cls) if f.init], cls


# --------------------------------------------------------------------------- #
# (f) retired fields load at their retired value and fail at any other
# --------------------------------------------------------------------------- #
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN_FILES = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "*.json")))

#: Each spec's ``to_dict`` key order from before its fields retired, and its
#: field count after.
STORED_KEYS = {
    ExperimentConfig: [
        "model", "dataset", "num_classes", "cluster", "epochs", "batch_size", "lr", "momentum",
        "weight_decay", "target_accuracy", "dataset_samples", "image_size", "noise_std",
        "test_fraction", "pretrain_iterations", "max_iterations_per_epoch", "seed",
        "stop_at_target", "bucket_cap_bytes", "dtype",
    ],
    MethodSpec: [
        "name", "compressor", "pruning_ratio", "pruning_method", "gse", "quantize",
        "stability_threshold", "min_sparsity", "warmup_iterations", "error_feedback",
        "sync_schedule",
    ],
    ClusterSpec: [
        "world_size", "bandwidth", "device", "latency", "sparse_compute_speedup", "devices",
        "straggler", "straggler_factors", "overlap", "hierarchical", "faults",
    ],
}
FIELD_COUNTS = {ExperimentConfig: 14, MethodSpec: 9, ClusterSpec: 6}

#: A value each retired field held in a spec that is not its retired value.
RETIRED_OTHERWISE = {
    ExperimentConfig: {
        "num_classes": 3, "lr": 0.1, "momentum": 0.0, "weight_decay": 5e-4,
        "test_fraction": 0.5, "stop_at_target": True,
    },
    MethodSpec: {"min_sparsity": 0.3, "warmup_iterations": 4},
    ClusterSpec: {
        "latency": 1e-3,
        "sparse_compute_speedup": True,
        "devices": ["sim-gpu", {"name": "edge", "flops_per_second": 5e8}],
        "straggler": 2.0,
        "straggler_factors": [1.0, 2.5],
    },
}
SPECS = list(RETIRED_OTHERWISE)
RETIRED_CASES = [(cls, name) for cls in SPECS for name in sorted(RETIRED_OTHERWISE[cls])]


def _default(cls):
    return {ExperimentConfig: tiny_config, MethodSpec: lambda: MethodSpec(name="m"), ClusterSpec: ClusterSpec}[cls]()


def _stored_cell(cls, name, value) -> dict:
    """A stored cell's ``{"config": ..., "method": ...}`` with ``name`` set to ``value`` in ``cls``'s dict."""
    cell = json_born({"config": tiny_config().to_dict(), "method": MethodSpec(name="m").to_dict()})
    spec = {ExperimentConfig: cell["config"], ClusterSpec: cell["config"]["cluster"], MethodSpec: cell["method"]}
    spec[cls][name] = value
    return cell


def _load(cell: dict) -> tuple:
    return ExperimentConfig.from_dict(cell["config"]), MethodSpec.from_dict(cell["method"])


class TestRetiredFields:
    @pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
    def test_to_dict_still_writes_them_in_their_old_place(self, cls):
        data = _default(cls).to_dict()
        assert list(data) == STORED_KEYS[cls] == list(cls.STORED_KEYS)
        names = [field.name for field in dataclasses.fields(cls)]
        assert len(names) == FIELD_COUNTS[cls]
        assert [key for key in cls.STORED_KEYS if key not in cls.RETIRED] == names
        assert sorted(RETIRED_OTHERWISE[cls]) == sorted(cls.RETIRED)
        assert {name: data[name] for name in cls.RETIRED} == cls.RETIRED

    def test_the_three_specs_have_29_fields(self):
        assert sum(len(dataclasses.fields(cls)) for cls in SPECS) == 29

    def test_every_record_of_the_pinned_store_rebuilds_to_its_key(self):
        with open(os.path.join(FIXTURES, "smoke-store.jsonl"), encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines
        for data in lines:
            assert set(ExperimentConfig.RETIRED) <= set(data["config"])
            assert set(ClusterSpec.RETIRED) <= set(data["config"]["cluster"])
            assert set(MethodSpec.RETIRED) <= set(data["method"])
            config, method = _load(data)
            assert config.to_dict() == data["config"] and method.to_dict() == data["method"]
            assert cell_fingerprint(config, method) == data["key"]

    @pytest.mark.parametrize("path", GOLDEN_FILES, ids=os.path.basename)
    def test_every_golden_config_rebuilds_to_its_cell(self, path):
        with open(path, encoding="utf-8") as handle:
            fixture = json.load(handle)
        assert set(ExperimentConfig.RETIRED) <= set(fixture["config"])
        assert set(ClusterSpec.RETIRED) <= set(fixture["config"]["cluster"])
        assert set(MethodSpec.RETIRED) <= set(fixture["method_spec"])
        assert ExperimentConfig.from_dict(fixture["config"]) == golden.golden_config_for(fixture["method"])
        assert MethodSpec.from_dict(fixture["method_spec"]) == golden.GOLDEN_METHODS[fixture["method"]]

    @pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
    def test_at_the_retired_value_on_the_keyword_path_too(self, cls):
        data = json_born(_default(cls).to_dict())
        # One retired field left out: the rest no longer match the field count.
        del data[sorted(cls.RETIRED)[0]]
        assert cls.from_dict(data) == _default(cls)

    @pytest.mark.parametrize("cls, name", RETIRED_CASES, ids=lambda case: getattr(case, "__name__", case))
    def test_a_stored_record_at_another_value_names_the_field(self, cls, name):
        cell = _stored_cell(cls, name, RETIRED_OTHERWISE[cls][name])
        snapshot = json.dumps(cell)
        with pytest.raises(RetiredFieldError, match=f"{cls.__name__} field '{name}' was removed"):
            _load(cell)
        assert json.dumps(cell) == snapshot
        # At the retired value the same record loads.
        assert _load(_stored_cell(cls, name, cls.RETIRED[name])) == (tiny_config(), MethodSpec(name="m"))

    def test_the_error_is_a_value_error_naming_both_values(self):
        data = {**ClusterSpec().to_dict(), "straggler": 2.0}
        with pytest.raises(ValueError) as caught:
            ClusterSpec.from_dict(data)
        assert type(caught.value) is RetiredFieldError
        assert str(caught.value) == "ClusterSpec field 'straggler' was removed: only 1.0 loads, got 2.0"

    @pytest.mark.parametrize("cls, name", RETIRED_CASES, ids=lambda case: getattr(case, "__name__", case))
    def test_a_campaign_axis_of_a_retired_field(self, cls, name):
        base = {"model": "mlp", "world_size": 2}
        retired, other = cls.RETIRED[name], RETIRED_OTHERWISE[cls][name]
        spec = CampaignSpec(base=base, axes={"method": ["fp16"], name: [retired, other]})
        with pytest.raises(RetiredFieldError, match=f"{cls.__name__} field '{name}'"):
            spec.expand()
        # At the retired value the axis names the cell the spec without it does.
        (cell,) = CampaignSpec(base=base, axes={"method": ["fp16"], name: [retired]}).expand()
        (plain,) = CampaignSpec(base=base, axes={"method": ["fp16"]}).expand()
        assert cell.fingerprint() == plain.fingerprint()

    def test_a_campaign_that_sweeps_the_class_count_fails_at_expansion(self):
        spec = CampaignSpec.from_dict({
            "base": {"model": "mlp", "world_size": 2}, "axes": {"num_classes": [10, 3]},
        })
        with pytest.raises(RetiredFieldError, match="ExperimentConfig field 'num_classes'"):
            spec.expand()

    def test_the_values_the_fields_retired_at_are_the_ones_every_run_uses(self):
        from repro.pactrain.mask_tracker import MIN_SPARSITY
        from repro.simulation.cluster import LINK_LATENCY
        from repro.simulation.spec import SGD_LR, SGD_MOMENTUM, TEST_FRACTION

        retired = ExperimentConfig.RETIRED
        assert (retired["lr"], retired["momentum"], retired["test_fraction"]) == (
            SGD_LR, SGD_MOMENTUM, TEST_FRACTION,
        ) == (0.05, 0.9, 0.25)
        assert MethodSpec.RETIRED["min_sparsity"] == MIN_SPARSITY
        assert ClusterSpec().cost_model_for().bottleneck.latency == ClusterSpec.RETIRED["latency"] == LINK_LATENCY
