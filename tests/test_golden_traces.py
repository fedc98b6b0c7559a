"""Golden-trace regression tests.

Each committed fixture under ``tests/golden/`` freezes the full observable
outcome of one tiny training run — per-epoch accuracy/time trace, wire bytes,
simulated time, weight sparsity — for one of the paper's five methods or the
composed codec spec.  The tests re-run every cell and demand **bit-identical**
floats (rtol=0), so any numerical drift anywhere in the stack (codec payloads,
collectives, engine, optimiser, data pipeline) fails with a readable diff.

After an intentional numerical change, regenerate with::

    PYTHONPATH=src python -m repro golden --update

and commit the rewritten fixtures alongside the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import golden

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("method_name", sorted(golden.GOLDEN_METHODS))
def test_trace_matches_committed_fixture_bit_identically(method_name):
    expected = golden.load_fixture(method_name, GOLDEN_DIR)
    actual = golden.compute_trace(golden.GOLDEN_METHODS[method_name])
    diffs = golden.compare_traces(expected, actual, rtol=0.0)
    assert not diffs, golden.format_diff(method_name, diffs)


def test_every_golden_method_has_a_committed_fixture():
    missing = [
        name
        for name in golden.GOLDEN_METHODS
        if not os.path.exists(golden.fixture_path(name, GOLDEN_DIR))
    ]
    assert not missing, (
        f"missing golden fixtures for {missing}; run "
        "`python -m repro golden --update` and commit tests/golden/"
    )


def test_fixture_config_matches_the_frozen_golden_config():
    """A fixture regenerated under a different tiny config must not pass."""
    from repro.simulation.experiment import ExperimentConfig, MethodSpec

    for name in golden.GOLDEN_METHODS:
        fixture = golden.load_fixture(name, GOLDEN_DIR)
        # Canonicalised through the dataclasses, so fixtures written before a
        # defaulted spec field was added stay comparable without regeneration.
        assert (
            golden._canonical_spec(fixture["config"], ExperimentConfig)
            == golden.golden_config_for(name).to_dict()
        ), name
        assert (
            golden._canonical_spec(fixture["method_spec"], MethodSpec)
            == golden.GOLDEN_METHODS[name].to_dict()
        ), name


def test_compact_cells_pin_pactrain_outside_full_synchronisation():
    """``pactrain.json`` equals ``all-reduce.json`` to the last bit (its tracker
    never declares a stable pattern); these two cells hold both halves of
    Algorithm 1 in one run, and ternary compaction sends less than fp32."""
    from repro.simulation import run_experiment

    for name in ("pactrain-compact", "pactrain-compact-fp32"):
        result = run_experiment(golden.golden_config_for(name), golden.GOLDEN_METHODS[name])
        assert result.extra["full_iterations"] >= 2, name
        assert result.extra["compact_iterations"] >= 2, name
    ternary = golden.load_fixture("pactrain-compact", GOLDEN_DIR)["trace"]
    fp32 = golden.load_fixture("pactrain-compact-fp32", GOLDEN_DIR)["trace"]
    assert ternary["compression_ratio"] > 1.0 and fp32["compression_ratio"] > 1.0
    assert ternary["comm_bytes_per_worker"] < fp32["comm_bytes_per_worker"]


def test_compare_traces_reports_readable_diffs():
    expected = {
        "trace": {"simulated_time": 1.0, "accuracy_trace": [[0.0, 0.5]]},
        "method_spec": {"name": "x"},
    }
    actual = {
        "trace": {"simulated_time": 2.0, "accuracy_trace": [[0.0, 0.25]]},
        "method_spec": {"name": "x"},
    }
    diffs = golden.compare_traces(expected, actual)
    assert any("simulated_time" in diff and "1.0" in diff and "2.0" in diff for diff in diffs)
    assert any("accuracy_trace[0][1]" in diff for diff in diffs)
    report = golden.format_diff("x", diffs)
    assert "golden trace drift" in report and "--update" in report


def test_compare_traces_flags_missing_and_new_fields():
    expected = {"trace": {"a": 1.0, "gone": 2.0}}
    actual = {"trace": {"a": 1.0, "new": 3.0}}
    diffs = golden.compare_traces(expected, actual)
    assert any("gone" in diff and "missing" in diff for diff in diffs)
    assert any("new" in diff and "unexpected" in diff for diff in diffs)


def test_fixtures_round_trip_floats_exactly(tmp_path):
    """JSON shortest-repr encoding parses back to the identical double."""
    trace = golden.compute_trace(golden.GOLDEN_METHODS["all-reduce"])
    path = golden.write_fixture(trace, str(tmp_path))
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert golden.compare_traces(trace, loaded, rtol=0.0) == []


def test_golden_cli_verify_passes_on_fresh_update(tmp_path):
    """`golden --update` then `golden` round-trips through the real CLI."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    update = subprocess.run(
        [sys.executable, "-m", "repro", "golden", "--update", "--dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert update.returncode == 0, update.stderr
    verify = subprocess.run(
        [sys.executable, "-m", "repro", "golden", "--dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert verify.returncode == 0, verify.stderr
    assert "bit-identically" in verify.stdout

    # Corrupt one frozen float: verification must fail with a readable diff.
    victim = golden.fixture_path("fp16", str(tmp_path))
    with open(victim, "r", encoding="utf-8") as handle:
        fixture = json.load(handle)
    fixture["trace"]["simulated_time"] += 1.0
    with open(victim, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle)
    drifted = subprocess.run(
        [sys.executable, "-m", "repro", "golden", "--dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert drifted.returncode == 1
    assert "simulated_time" in drifted.stderr and "fp16" in drifted.stderr
