"""Codec tokens the grammar no longer knows: rejected up front, records still readable.

``randomk``, ``signsgd`` / ``sign`` and ``powersgd`` are not codec tokens.  A
spec naming one fails where it is parsed — building a compressor, a
``MethodSpec`` or a campaign's cells — with an error that names it.  A result
store written when they were tokens still loads, serves and pivots its
records; only re-running such a cell fails, and it fails as bad input before
any training.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignSpec, ResultStore
from repro.campaign.cli import main as cli_main
from repro.campaign.store import StoredRecord, canonical_json, identity_fingerprint
from repro.compression import build_compressor
from repro.compression.codec import parse_compressor_spec
from repro.simulation import ClusterSpec, ExperimentConfig, ExperimentResult, MethodSpec

REMOVED_SPECS = (
    "randomk", "randomk0.1", "ef+randomk0.1", "signsgd", "sign", "ef+signsgd",
    "powersgd", "powersgd-rank4", "powersgd8", "ef+powersgd-rank4", "topk0.01+signsgd",
)


def _raises_naming(spec, call):
    with pytest.raises(KeyError) as error:
        call(spec)
    assert spec in str(error.value)


class TestRemovedTokensAreRejected:
    @pytest.mark.parametrize("spec", REMOVED_SPECS)
    def test_compressor_and_method_spec_reject_at_construction(self, spec):
        _raises_naming(spec, build_compressor)
        _raises_naming(spec, lambda s: MethodSpec(name="x", compressor=s))

    @pytest.mark.parametrize("token", ["randomk0.1", "signsgd", "sign", "powersgd-rank4"])
    def test_the_grammar_names_the_unknown_token(self, token):
        with pytest.raises(KeyError, match=f"unknown codec token '{token}'"):
            parse_compressor_spec(f"fp32+{token}")

    def test_campaign_cells_reject_at_construction(self):
        spec = CampaignSpec(axes={"method": ["fp16", "randomk0.1"]})
        with pytest.raises(KeyError, match="'randomk0.1'"):
            spec.expand()


def _stored_record_line() -> str:
    """One store line as a version that knew ``ef+signsgd`` wrote it."""
    config = ExperimentConfig(
        model="mlp", cluster=ClusterSpec(world_size=2, bandwidth="100Mbps"),
        epochs=1, batch_size=8, dataset_samples=32, max_iterations_per_epoch=1,
        pretrain_iterations=0,
    ).to_dict()
    method = dict(
        MethodSpec(name="fp16", compressor="fp16").to_dict(),
        name="ef+signsgd", compressor="ef+signsgd",
    )
    result = ExperimentResult(
        method="ef+signsgd", model="mlp", dataset="cifar10", bandwidth_mbps=100.0,
        world_size=2, epochs_run=1, iterations_run=1, simulated_time=2.0,
        compute_time=1.0, comm_time=1.0, comm_bytes_per_worker=4e4,
        final_accuracy=0.25, best_accuracy=0.25, tta=None, target_accuracy=0.5,
        accuracy_trace=[(2.0, 0.25)], loss_trace=[0.7], compression_ratio=32.0,
        weight_sparsity=0.0, gradient_density=1.0, reached_target=False,
    )
    key = identity_fingerprint(canonical_json({"config": config, "method": method}))
    return StoredRecord(key=key, config=config, method=method, result=result).to_json()


class TestStoredRecordsOfRemovedMethods:
    def test_load_serve_and_pivot(self, tmp_path):
        path = tmp_path / "store.jsonl"
        line = _stored_record_line()
        path.write_text(line + "\n", encoding="utf-8")
        store = ResultStore(path)
        key = json.loads(line)["key"]
        assert len(store) == 1 and key in store
        assert store.get_by_key(key).method == "ef+signsgd"
        assert store.get_by_key(key).final_accuracy == 0.25
        header, rows = store.pivot("method", "bandwidth_mbps", value="final_accuracy")
        assert header == ["method", "100.0"]
        assert rows == [["ef+signsgd", "0.250"]]

    def test_rerunning_the_cell_fails_as_bad_input(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        path.write_text(_stored_record_line() + "\n", encoding="utf-8")
        (record,) = ResultStore(path).records()
        with pytest.raises(KeyError, match="'ef\\+signsgd'"):
            MethodSpec.from_dict(record.method)
        # Exit 2 with one error line is the CLI's bad-input path; a failure
        # inside the run would exit 1 and print FAILED with a traceback.
        with pytest.raises(SystemExit) as exit_status:
            cli_main([
                "run", "--model", "mlp", "--method", "ef+signsgd", "--world-size", "2",
                "--epochs", "1", "--store", str(path), "--quiet",
            ])
        assert exit_status.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ef+signsgd" in err and "FAILED" not in err
        assert len(ResultStore(path)) == 1
