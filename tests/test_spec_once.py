"""Expansion serialises each distinct spec once, and no stored key moves.

``CampaignSpec.expand`` builds one ``ExperimentConfig`` per distinct set of
config-side overrides and one ``MethodSpec`` per distinct set of method-side
overrides, serialises each once, and splices the two JSON strings into every
cell's identity.  These tests pin that nothing observable changed:

* the keys of every example campaign equal the ones the per-cell expansion
  wrote (``tests/fixtures/campaign_keys.json``), and a store written by it
  (``tests/fixtures/smoke-store.jsonl``) still serves every cell;
* a hypothesis property: the memoised expansion equals a per-cell
  ``build_cell`` expansion in identity bytes, labels, specs, order, dedupe
  and errors, over the value types an axis can hold;
* ``ExperimentResult.to_dict`` equals ``dataclasses.asdict`` without sharing
  anything mutable with the result.
"""

from __future__ import annotations

import dataclasses
import glob
import itertools
import json
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro import golden
from repro.campaign import CampaignSpec, ResultStore, StoredRecord, build_cell, run_campaign
from repro.campaign.store import RESULT_SCHEMA_VERSION, canonical_json
from repro.simulation import ExperimentResult, MethodSpec, run_experiment

from tests.test_campaign import spec_from_file
from tests.test_workload_sharing import reference_fingerprint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
CAMPAIGNS = sorted(glob.glob(os.path.join(ROOT, "examples", "campaigns", "*.json")))
with open(os.path.join(FIXTURES, "campaign_keys.json"), encoding="utf-8") as _handle:
    #: spec file name -> {label: fingerprint}, in expansion order, written by
    #: the per-cell expansion this one replaced.
    PINNED_KEYS = json.load(_handle)


def reference_overrides(spec: CampaignSpec):
    """The override dicts of a spec in expansion order: the grid with the
    last axis fastest, each zip bundle crossed with it, then ``cells``."""
    grid_names, zip_names = list(spec.axes), list(spec.zipped)
    grid = itertools.product(*(spec.axes[name] for name in grid_names))
    bundles = list(zip(*(spec.zipped[name] for name in zip_names))) if zip_names else [()]
    for grid_values in grid:
        for zip_values in bundles:
            overrides = dict(zip(grid_names, grid_values))
            overrides.update(zip(zip_names, zip_values))
            yield overrides
    yield from spec.cells


def reference_expand(spec: CampaignSpec) -> dict:
    """identity -> cell, each cell built and serialised on its own."""
    cells = {}
    for overrides in reference_overrides(spec):
        cell = build_cell(overrides, base=spec.base, methods=spec.methods)
        identity = canonical_json({"config": cell.config.to_dict(), "method": cell.method.to_dict()})
        cells.setdefault(identity, cell)
    return cells


# --------------------------------------------------------------------------- #
# Pinned keys
# --------------------------------------------------------------------------- #
class TestPinnedKeys:
    def test_every_example_campaign_is_covered(self):
        assert sorted(PINNED_KEYS) == [os.path.basename(path) for path in CAMPAIGNS]

    @pytest.mark.parametrize("path", CAMPAIGNS, ids=os.path.basename)
    def test_expansion_reproduces_the_pinned_keys(self, path):
        cells = spec_from_file(path).expand()
        pinned = PINNED_KEYS[os.path.basename(path)]
        assert [(cell.label, cell.fingerprint()) for cell in cells] == list(pinned.items())

    def test_a_pinned_store_still_replays(self, tmp_path):
        store_path = tmp_path / "smoke-store.jsonl"
        shutil.copy(os.path.join(FIXTURES, "smoke-store.jsonl"), store_path)
        spec = spec_from_file(os.path.join(ROOT, "examples", "campaigns", "smoke.json"))
        report = run_campaign(spec, store=ResultStore(store_path), jobs=1)
        assert (report.ran, report.cached, report.failed) == (0, 2, 0)


# --------------------------------------------------------------------------- #
# Memoised expansion == per-cell build_cell
# --------------------------------------------------------------------------- #
EDGE = {"name": "edge", "flops_per_second": 5e8}
CRASH = {"kind": "crash", "at": 0.5, "rank": 1}
REJOIN = {"kind": "rejoin", "at": 1.0, "rank": 1}
CURATED = MethodSpec(name="curated-ü", compressor="fp16")
#: Equal name, other compressor: instances are told apart by more than name.
CURATED_TOPK = MethodSpec(name="curated-ü", compressor="topk-0.1")
TABLE = {"méthode-π": MethodSpec(name="méthode-π", compressor="topk-0.1")}
BASE = {"model": "mlp", "epochs": 1, "batch_size": 4, "dataset_samples": 24,
        "world_size": 2, "bandwidth": "100Mbps"}

#: Values each axis draws from: every type an axis accepts, values equal under
#: ``==`` that build different specs (``1``/``True``/``1.0``, ``0.0``/``-0.0``),
#: values of different types that build the same one (a fault plan's events
#: as a list or a tuple), lists that differ only in order, world sizes that
#: some fault plans do not fit, and retired fields of each spec at the value
#: they were retired at (dropped) and at others (rejected by name).
AXIS_VALUES = {
    "seed": [0, 1, True, 1.0, -0.0],
    "target_accuracy": [None, 0.0, -0.0, 1e-5, 0.5],
    "lr": [0.05, 1e-5, -0.0],
    "num_classes": [10, 10.0, 3],
    "stop_at_target": [False, 0, True],
    "latency": [1e-4, 0.0],
    "dataset": ["cifar10", "çifar-ü"],
    "bandwidth": ["100Mbps", "1Gbps", 1.25e7, 12500000],
    "world_size": [2, 3],
    "cluster": [
        {"latency": 1e-4}, {"latency": 0.0}, {"latency": -0.0, "overlap": True},
        {"bandwidth": "500Mbps"},
    ],
    "device": ["sim-gpu", EDGE],
    "faults": [
        None,
        {"events": [CRASH, REJOIN]},
        {"events": (CRASH, REJOIN)},
        {"events": [CRASH, {**REJOIN, "at": 1}]},
        {"events": [{**CRASH, "rank": 2}]},
        {"events": [], "churn_probability": 0.2},
    ],
    "method": [
        "all-reduce", "fp16", "topk-0.01", "méthode-π", CURATED, CURATED_TOPK,
        {"name": "dict-ø", "compressor": "pactrain", "pruning_ratio": 0.3},
    ],
    "error_feedback": [None, True, False],
    "pruning_ratio": [0.0, -0.0, 0.25],
    "sync_schedule": [None, "localsgd:2"],
    "min_sparsity": [0.05, 0.3],
    "warmup_iterations": [0, False, 4],
}
AXIS_NAMES = sorted(AXIS_VALUES)


def axis_values(name: str, min_size: int, max_size: int):
    return st.lists(st.sampled_from(AXIS_VALUES[name]), min_size=min_size, max_size=max_size)


@st.composite
def campaign_specs(draw):
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=4, unique=True))
    zip_count = draw(st.integers(0, min(2, len(names))))
    zip_names, grid_names = names[:zip_count], names[zip_count:]
    axes = {name: draw(axis_values(name, 1, 3)) for name in grid_names}
    length = draw(st.integers(1, 3))
    zipped = {name: draw(axis_values(name, length, length)) for name in zip_names}
    base = dict(BASE)
    for name in draw(st.lists(st.sampled_from(AXIS_NAMES), max_size=2, unique=True)):
        base[name] = draw(st.sampled_from(AXIS_VALUES[name]))
    spec = CampaignSpec(base=base, axes=axes, zipped=zipped, methods=TABLE)
    # Explicit cells: grid points again (in either key order) and fresh ones.
    points = list(reference_overrides(spec))
    duplicate = st.tuples(st.sampled_from(points), st.booleans()).map(
        lambda pair: dict(reversed(list(pair[0].items()))) if pair[1] else dict(pair[0])
    )
    fresh = st.lists(st.sampled_from(AXIS_NAMES), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: st.sampled_from(AXIS_VALUES[key]) for key in keys})
    )
    spec.cells = draw(st.lists(st.one_of(duplicate, fresh), max_size=4))
    return spec


class TestMemoisedExpansion:
    @given(campaign_specs())
    @settings(max_examples=150, deadline=None)
    def test_expand_equals_per_cell_build(self, spec):
        try:
            expected = reference_expand(spec)
        except (KeyError, TypeError, ValueError) as error:
            with pytest.raises(type(error)) as raised:
                spec.expand()
            assert str(raised.value) == str(error)
            return
        cells = spec.expand()
        assert [cell.identity for cell in cells] == list(expected)
        reference = list(expected.values())
        assert [cell.label for cell in cells] == [cell.label for cell in reference]
        assert [(cell.config, cell.method) for cell in cells] == [
            (cell.config, cell.method) for cell in reference
        ]
        assert [cell.fingerprint() for cell in cells] == [
            reference_fingerprint(cell.config, cell.method) for cell in reference
        ]

    def test_equal_values_of_different_types_stay_apart(self):
        spec = CampaignSpec(base=BASE, axes={"seed": [1, True, 1.0], "target_accuracy": [0.0, -0.0]})
        cells = spec.expand()
        assert len(cells) == 6
        assert [cell.config.seed for cell in cells] == [1, 1, True, True, 1.0, 1.0]
        assert [type(cell.config.seed) for cell in cells[::2]] == [int, bool, float]
        assert [str(cell.config.target_accuracy) for cell in cells[:2]] == ["0.0", "-0.0"]

    def test_values_that_build_the_same_spec_dedupe(self):
        spec = CampaignSpec(
            base=BASE,
            axes={"faults": [{"events": [CRASH]}, {"events": (CRASH,)}], "method": ["fp16", CURATED]},
            cells=[{"method": "fp16", "faults": "crash:1@0.5"}],
        )
        assert [cell.method.name for cell in spec.expand()] == ["fp16", "curated-ü"]


# --------------------------------------------------------------------------- #
# Result serialisation without deep copies
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def results():
    """The result of every golden cell."""
    return {
        name: run_experiment(golden.golden_config_for(name), method)
        for name, method in golden.GOLDEN_METHODS.items()
    }


def assert_same_value_and_type(actual, expected, path="result"):
    assert type(actual) is type(expected), path
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key in expected:
            assert_same_value_and_type(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for index, (got, want) in enumerate(zip(actual, expected)):
            assert_same_value_and_type(got, want, f"{path}[{index}]")
    else:
        assert actual == expected or (actual != actual and expected != expected), path


class TestResultSerialisation:
    def test_to_dict_equals_asdict_in_value_and_type(self, results):
        for name, result in results.items():
            assert_same_value_and_type(result.to_dict(), dataclasses.asdict(result), name)

    def test_to_json_bytes_are_unchanged(self, results):
        for name, result in results.items():
            record = StoredRecord(key="k", config={}, method={}, result=result, created=1.5)
            expected = json.dumps({
                "key": "k", "schema": RESULT_SCHEMA_VERSION, "created": 1.5, "attempts": 1,
                "config": {}, "method": {}, "result": dataclasses.asdict(result),
            })
            assert record.to_json() == expected, name

    def test_mutating_the_dict_leaves_the_result_untouched(self, results):
        result = results["pactrain-compact"]
        before = json.dumps(dataclasses.asdict(result))
        data = result.to_dict()
        data["accuracy_trace"].append((9.0, 9.0))
        data["loss_trace"][0] = -1.0
        data["loss_trace"].append(0.0)
        data["extra"]["injected"] = 1.0
        data["method"] = "other"
        assert json.dumps(dataclasses.asdict(result)) == before

    def test_from_dict_leaves_its_argument_untouched(self, results):
        data = json.loads(json.dumps(results["topk-0.01"].to_dict()))
        snapshot = json.dumps(data)
        restored = ExperimentResult.from_dict(data)
        assert json.dumps(data) == snapshot
        assert all(isinstance(point, list) for point in data["accuracy_trace"])
        assert all(isinstance(point, tuple) for point in restored.accuracy_trace)
        assert restored == results["topk-0.01"]
