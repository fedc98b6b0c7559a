"""``ResultStore.pivot`` as one pass over the filtered records.

The oracle is the store's former ``pivot``: three ``records()`` passes (the
records, then each axis's first-seen values, as the deleted ``axis_values``
read them) and a fourth loop over the buckets.  The one-pass table must equal it on stores that
mix records lacking the row axis, records lacking the column axis and records
whose metric is unset, under filters.  The
``report`` command's text on the pinned smoke store is pinned as a fixture.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import ResultStore
from repro.campaign.cli import main as cli_main
from repro.campaign.store import StoredRecord, _mean
from tests.test_campaign import fake_result, tiny_config

FIXTURES = Path(__file__).parent / "fixtures"


def first_seen(store, axis, **filters):
    """Distinct values of one axis over the (filtered) records, in first-seen
    order: the former ``ResultStore.axis_values``, verbatim."""
    seen = {}
    for record in store.records(**filters):
        try:
            seen.setdefault(record.axis(axis), None)
        except KeyError:
            continue
    return list(seen)


def reference_pivot(store, rows, cols, value="simulated_time", **filters):
    """The former ``ResultStore.pivot``, verbatim apart from ``first_seen``
    and its mean and three-decimal format, which are no longer parameters."""
    records = store.records(**filters)
    row_values = first_seen(store, rows, **filters)
    col_values = first_seen(store, cols, **filters)
    buckets = {}
    for record in records:
        try:
            bucket = (record.axis(rows), record.axis(cols))
        except KeyError:
            continue
        metric = record.value(value)
        if metric is not None:
            buckets.setdefault(bucket, []).append(metric)
    header = [rows] + [str(col) for col in col_values]
    table = []
    for row in row_values:
        cells = [str(row)]
        for col in col_values:
            values = buckets.get((row, col))
            cells.append("{:.3f}".format(_mean(values)) if values else "-")
        table.append(cells)
    return header, table


#: ``None`` drops the axis from the record's config or method dict.
SEEDS = st.sampled_from([0, 1, 2, None])
COMPRESSORS = st.sampled_from(["allreduce", "fp16", "topk-0.01", None])
TTAS = st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
RECORDS = st.lists(
    st.tuples(SEEDS, COMPRESSORS, TTAS, st.sampled_from(["mlp", "resnet18"]),
              st.sampled_from(["all-reduce", "pactrain"]), st.sampled_from([100.0, 1000.0])),
    max_size=24,
)
AXES = st.sampled_from(["seed", "compressor", "model", "method", "bandwidth_mbps", "world_size"])
FILTERS = st.sampled_from([{}, {"model": "mlp"}, {"seed": 1}, {"compressor": "fp16"},
                           {"method": "pactrain", "world_size": 2}, {"no_such_axis": 0}])


def build_store(records) -> ResultStore:
    store = ResultStore()
    for index, (seed, compressor, tta, model, method, bandwidth) in enumerate(records):
        config = tiny_config(seed=0).to_dict()
        if seed is None:
            del config["seed"]
        else:
            config["seed"] = seed
        method_dict = {"name": method, "compressor": compressor}
        if compressor is None:
            del method_dict["compressor"]
        result = fake_result(method=method, model=model, bandwidth_mbps=bandwidth, tta=tta,
                             simulated_time=1.0 + index)
        key = f"{index:064x}"
        store._records[key] = StoredRecord(key=key, config=config, method=method_dict, result=result)
    return store


@settings(max_examples=300, deadline=None)
@given(RECORDS, AXES, AXES, st.sampled_from(["tta", "simulated_time", "tta_or_total"]), FILTERS)
def test_one_pass_pivot_equals_the_three_pass_pivot(records, rows, cols, value, filters):
    store = build_store(records)
    assert store.pivot(rows, cols, value, **filters) == reference_pivot(store, rows, cols, value, **filters)


def test_a_mixed_store_pivots_as_before():
    records = [
        (0, "allreduce", 1.0, "mlp", "all-reduce", 100.0),
        (None, "fp16", 2.0, "mlp", "pactrain", 100.0),  # no row axis: names a column only
        (1, None, 3.0, "resnet18", "all-reduce", 1000.0),  # no column axis: names a row only
        (1, "fp16", None, "mlp", "pactrain", 1000.0),  # metric unset: the bucket stays empty
        (0, "allreduce", 5.0, "resnet18", "all-reduce", 100.0),
        (2, "fp16", 6.0, "mlp", "pactrain", 100.0),
    ]
    store = build_store(records)
    header, table = store.pivot("seed", "compressor", "tta")
    assert (header, table) == reference_pivot(store, "seed", "compressor", "tta")
    assert header == ["seed", "allreduce", "fp16"]
    assert table == [["0", "3.000", "-"], ["1", "-", "-"], ["2", "-", "6.000"]]
    for filters in ({"model": "mlp"}, {"method": "pactrain"}, {"seed": 1}, {"nothing": 1}):
        assert store.pivot("seed", "compressor", "tta", **filters) == reference_pivot(
            store, "seed", "compressor", "tta", **filters
        )


def test_report_prints_the_pinned_table(tmp_path, capsys):
    store_path = tmp_path / "smoke-store.jsonl"
    shutil.copy(FIXTURES / "smoke-store.jsonl", store_path)
    argv = ["report", "--store", str(store_path), "--rows", "model", "--cols", "method",
            "--value", "simulated_time"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == (FIXTURES / "smoke-report.txt").read_text()


@pytest.mark.parametrize("axis", ["tta_or_total", "to_dict"])
def test_a_result_method_is_not_an_axis(axis, tmp_path, capsys):
    """Result names resolve against the result's fields only: a method of the
    result is no axis, so the command ends in one ``error:`` line and exit 2."""
    store_path = tmp_path / "smoke-store.jsonl"
    shutil.copy(FIXTURES / "smoke-store.jsonl", store_path)
    record = ResultStore(store_path).records()[0]
    with pytest.raises(KeyError):
        record.axis(axis)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["report", "--store", str(store_path), "--rows", axis, "--cols", "method"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: --rows {axis!r} is not an axis of any stored record"
