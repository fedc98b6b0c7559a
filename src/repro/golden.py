"""Golden-trace regression fixtures for the paper's methods.

A *golden trace* freezes the externally observable behaviour of one tiny
training run — the per-epoch accuracy/time trace, the bytes each worker put on
the wire, the simulated time and the weight sparsity — as a committed JSON
fixture.  The tier-1 test ``tests/test_golden_traces.py`` re-runs every frozen
cell and compares **bit-identically** (floats survive the JSON round trip
exactly: the shortest-repr encoding parses back to the same double), so any
drift in the numerics of the training stack — codec payloads, collectives,
the event engine, the optimiser — fails loudly with a readable field-by-field
diff instead of silently shifting the paper's figures.

The frozen grid is deliberately tiny (a 4-rank MLP run of a few iterations per
method, plus one 2-rank mini-ResNet cell) so the whole golden suite re-trains
in seconds; it covers the five methods of the paper's evaluation plus one
composed codec spec — together exercising every wire payload and both
aggregation paths — and one convolutional cell that pins the conv/pool/norm
kernel stack.

Regenerate fixtures after an *intentional* numerical change with::

    PYTHONPATH=src python -m repro golden --update

and commit the rewritten ``tests/golden/*.json`` together with the change that
explains them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulation.cluster import ClusterSpec
from repro.simulation.experiment import run_experiment
from repro.simulation.spec import (
    PACTRAIN_FP32,
    PAPER_METHODS,
    ExperimentConfig,
    ExperimentResult,
    MethodSpec,
)

#: Default fixture directory, resolved relative to the repository root (the
#: parent of ``src``); overridable everywhere for tests and external use.
DEFAULT_GOLDEN_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "tests", "golden")
)

#: The tiny frozen workload.  Small enough that re-running every golden cell
#: costs well under a second, but real training end to end: pre-training,
#: pruning (for PacTrain), DDP synchronisation and per-epoch evaluation all
#: execute exactly as in the full-size benchmarks.  The MLP's 14 762
#: parameters fit in one bucket of the default 25 MiB cap, so no golden cell
#: splits a model into several buckets.
GOLDEN_CONFIG = ExperimentConfig(
    model="mlp",
    dataset="cifar10",
    cluster=ClusterSpec(world_size=4, bandwidth="100Mbps"),
    epochs=3,
    batch_size=8,
    dataset_samples=48,
    image_size=8,
    pretrain_iterations=2,
    max_iterations_per_epoch=3,
    seed=0,
)

#: A convolutional golden cell: a 2-rank mini-ResNet run exercising the whole
#: conv/pool/batch-norm kernel stack — the im2col gather, the overlapping
#: col2im scatter-add (stride-2 3x3 convs), pooling window reductions and
#: batch-norm statistics — none of which the MLP cells touch.
GOLDEN_CONV_CONFIG = ExperimentConfig(
    model="resnet18",
    dataset="cifar10",
    cluster=ClusterSpec(world_size=2, bandwidth="100Mbps"),
    epochs=2,
    batch_size=4,
    dataset_samples=16,
    image_size=8,
    pretrain_iterations=1,
    max_iterations_per_epoch=2,
    seed=0,
)

#: PacTrain where it leaves full synchronisation.  Under ``GOLDEN_CONFIG`` the
#: ``pactrain`` cell's Mask Tracker (threshold 3) never declares a stable
#: pattern, so that fixture equals ``all-reduce`` to the last bit.  One more
#: epoch and ``stability_threshold=2`` give a run holding both halves of
#: Algorithm 1: 6 full-sync iterations, then 2 compact ones.
GOLDEN_COMPACT_CONFIG = dataclasses.replace(GOLDEN_CONFIG, epochs=4)

#: The frozen methods: the paper's five plus one composed codec spec (which
#: exercises sparse + ternary payload composition through the gather path),
#: the convolutional cell above, the two non-synchronous training regimes
#: (compressed-delta local SGD and the stale-gradient parameter server) so
#: regime numerics are pinned exactly like synchronous ones, and PacTrain in
#: compact mode with and without ternary quantisation.
GOLDEN_METHODS: Dict[str, MethodSpec] = {
    **PAPER_METHODS,
    "topk0.01+terngrad": MethodSpec(
        name="topk0.01+terngrad", compressor="topk0.01+terngrad"
    ),
    "conv-all-reduce": MethodSpec(name="conv-all-reduce", compressor="allreduce"),
    "localsgd-h4": MethodSpec(
        name="localsgd-h4", compressor="topk-0.01", sync_schedule="localsgd:4:delta"
    ),
    "async-ps": MethodSpec(
        name="async-ps", compressor="topk-0.01", sync_schedule="ps:2"
    ),
    "pactrain-compact": dataclasses.replace(
        PAPER_METHODS["pactrain"], name="pactrain-compact", stability_threshold=2
    ),
    "pactrain-compact-fp32": dataclasses.replace(
        PACTRAIN_FP32, name="pactrain-compact-fp32", stability_threshold=2
    ),
}

#: Per-method config overrides; anything absent runs under GOLDEN_CONFIG.
GOLDEN_CONFIGS: Dict[str, ExperimentConfig] = {
    "conv-all-reduce": GOLDEN_CONV_CONFIG,
    "pactrain-compact": GOLDEN_COMPACT_CONFIG,
    "pactrain-compact-fp32": GOLDEN_COMPACT_CONFIG,
}


def golden_config_for(method_name: str) -> ExperimentConfig:
    """The frozen config one golden method runs under."""
    return GOLDEN_CONFIGS.get(method_name, GOLDEN_CONFIG)

#: Scalar result fields frozen in every fixture, in diff-report order.
TRACE_FIELDS: Tuple[str, ...] = (
    "final_accuracy",
    "best_accuracy",
    "simulated_time",
    "compute_time",
    "comm_time",
    "comm_bytes_per_worker",
    "weight_sparsity",
    "compression_ratio",
    "iterations_run",
    "epochs_run",
)


def fixture_name(method_name: str) -> str:
    """Filesystem-safe fixture file name for one method."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", method_name) + ".json"


def fixture_path(method_name: str, directory: Optional[str] = None) -> str:
    return os.path.join(directory or DEFAULT_GOLDEN_DIR, fixture_name(method_name))


def compute_trace(
    method: MethodSpec, config: Optional[ExperimentConfig] = None
) -> Dict:
    """Run one golden cell and distil the result into a frozen trace dict."""
    config = config or golden_config_for(method.name)
    result = run_experiment(config, method)
    return trace_from_result(result, method, config)


def trace_from_result(
    result: ExperimentResult, method: MethodSpec, config: ExperimentConfig
) -> Dict:
    """The JSON-ready trace dict frozen for one (config, method) cell.

    ``accuracy_trace`` keeps the per-epoch ``(simulated_time, accuracy)``
    pairs — the exact points the paper's TTA figures are drawn from — and
    ``loss_trace`` the per-epoch mean training losses.
    """
    trace = {field: getattr(result, field) for field in TRACE_FIELDS}
    trace["accuracy_trace"] = [list(point) for point in result.accuracy_trace]
    trace["loss_trace"] = list(result.loss_trace)
    return {
        "golden_schema": 1,
        "method": method.name,
        "method_spec": method.to_dict(),
        "config": config.to_dict(),
        "trace": trace,
    }


def _float_equal(expected, actual, rtol: float) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        expected_f, actual_f = float(expected), float(actual)
        if math.isnan(expected_f) and math.isnan(actual_f):
            return True
        if rtol == 0.0:
            return expected_f == actual_f
        return math.isclose(expected_f, actual_f, rel_tol=rtol, abs_tol=rtol)
    return expected == actual


def _compare_value(path: str, expected, actual, rtol: float, diffs: List[str]) -> None:
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(f"{path}: length {len(expected)} -> {len(actual)}")
            return
        for index, (exp, act) in enumerate(zip(expected, actual)):
            _compare_value(f"{path}[{index}]", exp, act, rtol, diffs)
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                diffs.append(f"{path}.{key}: unexpected new field {actual[key]!r}")
            elif key not in actual:
                diffs.append(f"{path}.{key}: missing (expected {expected[key]!r})")
            else:
                _compare_value(f"{path}.{key}", expected[key], actual[key], rtol, diffs)
        return
    if not _float_equal(expected, actual, rtol):
        diffs.append(f"{path}: expected {expected!r}, got {actual!r}")


def _canonical_spec(data, cls) -> Dict:
    """Round-trip a frozen spec dict through its dataclass.

    Fixtures are written once and read forever: when a later PR adds a new
    ``MethodSpec``/``ExperimentConfig`` field *with a default*, old fixtures
    simply lack the key, and the defaulted round trip makes them comparable
    without regeneration.  Unknown keys (a genuinely incompatible fixture)
    still fail loudly inside ``from_dict``.
    """
    if not isinstance(data, dict):
        return data
    return cls.from_dict(data).to_dict()


def compare_traces(expected: Dict, actual: Dict, rtol: float = 0.0) -> List[str]:
    """Field-by-field diff of two trace dicts; empty when identical.

    ``rtol=0.0`` (the default, and what the regression test uses) demands
    bit-identical floats.  A non-zero tolerance is available for
    cross-platform comparisons where BLAS rounding may differ in the last ulp.
    """
    diffs: List[str] = []
    _compare_value("trace", expected.get("trace"), actual.get("trace"), rtol, diffs)
    # The frozen spec must match too: a fixture regenerated under a different
    # tiny config would otherwise "pass" while freezing a different workload.
    _compare_value(
        "method_spec",
        _canonical_spec(expected.get("method_spec"), MethodSpec),
        _canonical_spec(actual.get("method_spec"), MethodSpec),
        0.0,
        diffs,
    )
    _compare_value(
        "config",
        _canonical_spec(expected.get("config"), ExperimentConfig),
        _canonical_spec(actual.get("config"), ExperimentConfig),
        0.0,
        diffs,
    )
    return diffs


def format_diff(method_name: str, diffs: Sequence[str]) -> str:
    """Readable multi-line report of one method's drift."""
    lines = [
        f"golden trace drift for method {method_name!r} ({len(diffs)} difference"
        f"{'s' if len(diffs) != 1 else ''}):"
    ]
    lines.extend(f"  {diff}" for diff in diffs)
    lines.append(
        "  (if this change is intentional, regenerate fixtures with "
        "`python -m repro golden --update` and commit them)"
    )
    return "\n".join(lines)


def load_fixture(method_name: str, directory: Optional[str] = None) -> Dict:
    path = fixture_path(method_name, directory)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"missing golden fixture {path!r}; generate it with "
            "`python -m repro golden --update`"
        )
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_fixture(trace: Dict, directory: Optional[str] = None) -> str:
    directory = directory or DEFAULT_GOLDEN_DIR
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, fixture_name(trace["method"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def select_methods(only: Optional[List[str]] = None) -> Dict[str, MethodSpec]:
    """The golden cells named by ``only`` (every cell when ``None``), in table order."""
    if only is None:
        return dict(GOLDEN_METHODS)
    unknown = sorted(set(only) - set(GOLDEN_METHODS))
    if unknown:
        raise KeyError(f"unknown golden methods: {', '.join(unknown)}")
    return {name: method for name, method in GOLDEN_METHODS.items() if name in only}


def regenerate(
    directory: Optional[str] = None,
    progress=None,
    only: Optional[List[str]] = None,
) -> List[str]:
    """Recompute and rewrite golden fixtures; returns the written paths.

    ``only`` restricts the rewrite to the named methods — the tool for adding
    a *new* golden cell without touching the other committed fixtures (whose
    serialised bytes would otherwise churn when a spec gains a defaulted
    field; ``_canonical_spec`` keeps old fixtures comparable unregenerated).
    """
    paths = []
    for name, method in select_methods(only).items():
        trace = compute_trace(method)
        paths.append(write_fixture(trace, directory))
        if progress is not None:
            progress(name, paths[-1])
    return paths


def verify(
    directory: Optional[str] = None,
    rtol: float = 0.0,
    only: Optional[List[str]] = None,
) -> Dict[str, List[str]]:
    """Re-run every golden cell (or the ``only`` subset) against its fixture.

    Returns ``{method_name: [diff lines]}`` for the methods that drifted
    (missing fixtures report as a single diff line); empty dict means every
    trace is still bit-identical.
    """
    drifted: Dict[str, List[str]] = {}
    for name, method in select_methods(only).items():
        try:
            expected = load_fixture(name, directory)
        except FileNotFoundError as error:
            drifted[name] = [str(error)]
            continue
        diffs = compare_traces(expected, compute_trace(method), rtol=rtol)
        if diffs:
            drifted[name] = diffs
    return drifted
