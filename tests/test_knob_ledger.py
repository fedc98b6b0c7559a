"""Every spec field is run, or the ledger says why it is kept.

A field of ``ExperimentConfig``, ``MethodSpec`` or ``ClusterSpec`` is *run*
when its name appears in a campaign spec under ``examples/campaigns/`` or in
the benchmark's ``benchmarks/e2e/workloads.py`` (read as text, never
imported or edited), or when a golden cell's config, its cluster or its method
holds a non-default value for it.  Every other field must have a one-line
reason in :data:`LEDGER`, so a new field either runs somewhere or says why it
exists.  A ledger entry for a field that runs is stale and fails too.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

from repro import golden
from repro.simulation import ClusterSpec, ExperimentConfig, MethodSpec

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: ``Spec.field`` -> why it stays although nothing runs it with a non-default value.
LEDGER = {
    "ExperimentConfig.bucket_cap_bytes": "PyTorch DDP's 25 MiB default; the overlap study shrinks it",
    "ExperimentConfig.dtype": "the float32 fast path, run by its own tests until precision earns a row",
    "MethodSpec.pruning_method": "GraSP, the paper's alternative pruner, run only by its own tests",
    "MethodSpec.error_feedback": "a second switch for error feedback beside the ef+ token",
    "ClusterSpec.device": "compute knob priced in one function; re-priceable from a log",
    "ClusterSpec.overlap": "the engine's bucket schedule; re-pricing a log is how it can earn a row",
    "ClusterSpec.hierarchical": "the Fig. 4 topology model; re-pricing a log is how it can earn a row",
}

SPECS = (ExperimentConfig, MethodSpec, ClusterSpec)


def _named_text() -> str:
    paths = sorted((ROOT / "examples" / "campaigns").glob("*.json"))
    paths.append(ROOT / "benchmarks" / "e2e" / "workloads.py")
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def _default(field: dataclasses.Field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def _golden_objects(spec):
    for name, method in golden.GOLDEN_METHODS.items():
        config = golden.golden_config_for(name)
        yield {ExperimentConfig: config, ClusterSpec: config.cluster, MethodSpec: method}[spec]


def run_fields(text: str) -> set:
    """``Spec.field`` names that run by the rule in the module docstring,
    with ``text`` what the campaigns and workloads name."""
    run = set()
    for spec in SPECS:
        for field in dataclasses.fields(spec):
            named = re.search(rf"\b{field.name}\b", text) is not None
            varied = any(getattr(obj, field.name) != _default(field) for obj in _golden_objects(spec))
            if named or varied:
                run.add(f"{spec.__name__}.{field.name}")
    return run


def all_fields() -> set:
    return {f"{spec.__name__}.{field.name}" for spec in SPECS for field in dataclasses.fields(spec)}


def test_every_field_runs_or_is_in_the_ledger():
    unaccounted = sorted(all_fields() - run_fields(_named_text()) - set(LEDGER))
    assert unaccounted == [], "run these fields somewhere or give each a LEDGER reason"


def test_the_ledger_holds_only_fields_that_do_not_run():
    assert sorted(set(LEDGER) - all_fields()) == [], "the ledger names a field that no spec has"
    run = run_fields(_named_text())
    assert sorted(set(LEDGER) & run) == [], "these fields run now: drop their LEDGER entry"


def test_every_reason_is_one_line():
    for name, reason in LEDGER.items():
        assert reason.strip() and "\n" not in reason, name


def test_the_rule_sees_a_name_and_a_golden_value():
    run = run_fields('{"faults": ""}')  # text naming only ``faults``
    assert "ClusterSpec.faults" in run  # named; no golden cell has a fault plan
    assert "MethodSpec.stability_threshold" in run  # not named; the compact golden cells vary it
    assert "ExperimentConfig.dtype" not in run_fields(_named_text())
