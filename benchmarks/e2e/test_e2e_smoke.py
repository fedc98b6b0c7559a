"""Tier-1 smoke test of the benchmark harness (``pytest`` collects it from the repo root).

What it pins: every entry of the layer-probe table still names a public
attribute of the program (a refactor that renames an entry point fails here
instead of silently dropping a layer from every later attribution), installing
and removing the probe leaves the program untouched, layer self times add up
to the op span, and the command in ``BENCHMARK.json`` prints exactly the
metrics the manifest declares.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

from repro.golden import GOLDEN_CONFIG  # noqa: E402
from repro.simulation import PAPER_METHODS  # noqa: E402
import repro.pruning  # noqa: E402
import repro.simulation  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_stays_within_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16 and 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer") for entry in MANIFEST[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in MANIFEST["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in MANIFEST["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in MANIFEST["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in MANIFEST["end_to_end"])
    for layer in probe.LAYERS:
        assert f"{layer}.self_s_per_op" in names and f"{layer}.calls_per_op" in names


@pytest.mark.parametrize("layer,module_name,path", probe.TABLE)
def test_probe_table_entry_is_a_public_entry_point(layer, module_name, path):
    owner, attr, original = probe.resolve(module_name, path)
    assert callable(original)
    for part in path.split("."):
        assert not part.startswith("_") or (part.startswith("__") and part.endswith("__")), path


def run_golden_cell():
    return repro.simulation.run_experiment(GOLDEN_CONFIG, PAPER_METHODS["pactrain"])


def test_probe_installs_traces_and_restores():
    originals = [probe.resolve(module_name, path) for _, module_name, path in probe.TABLE]
    untraced = run_golden_cell()

    recorder = probe.Probe()
    with recorder.installed():
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        # experiment.py imported apply_gse by name: its copy must be patched too.
        assert repro.simulation.experiment.apply_gse is repro.pruning.apply_gse
        with recorder.op(0):
            traced = run_golden_cell()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert repro.simulation.experiment.apply_gse is probe.resolve("repro.pruning", "apply_gse")[2]
    assert traced.to_dict() == untraced.to_dict()

    folded = recorder.fold()
    op_span = folded[probe.HARNESS]["span_s"]
    total_self = sum(entry["self_s"] for entry in folded.values())
    assert op_span > 0 and total_self == pytest.approx(op_span, rel=1e-9)
    for layer in ("tensorlib.backward", "nn.forward", "pruning", "ddp", "simulation.experiment"):
        assert folded[layer]["calls"] > 0 and folded[layer]["self_s"] > 0, layer
    assert all(start <= end for _, _, start, end, _, _ in recorder.spans)


def run_contract(tmp_path, workload: str, trace: int):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(tmp_path),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    assert completed.returncode == 0, completed.stdout[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", ["pactrain_pruned", "store_replay"])
def test_contract_run_reports_every_end_to_end_metric(tmp_path, workload):
    metrics = run_contract(tmp_path, workload, trace=0)
    assert {name: entry["unit"] for name, entry in metrics.items()} == {
        entry["name"]: entry["unit"] for entry in MANIFEST["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_traced_contract_run_reports_every_per_layer_metric(tmp_path):
    metrics = run_contract(tmp_path, "regime_cell_sweep", trace=1)
    assert {name: entry["unit"] for name, entry in metrics.items()} == {
        entry["name"]: entry["unit"] for entry in MANIFEST["per_layer"]
    }
    trace = json.loads((tmp_path / "trace-regime_cell_sweep.json").read_text(encoding="utf-8"))
    layer_self = sum(trace["layer_self_s"].values())
    assert layer_self + trace["harness_self_s"] == pytest.approx(trace["op_span_s"], rel=1e-9)
    # The sweep touches every layer of the stack at least once.
    assert all(value > 0 for value in trace["layer_self_s"].values()), trace["layer_self_s"]
    assert not list(tmp_path.glob("scratch-*")), "the run left scratch files behind"
