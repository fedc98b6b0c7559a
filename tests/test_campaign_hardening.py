"""Hardened campaign runner: retries, watchdog timeouts, chaos survival.

Failure injection goes through the runner's own chaos seam
(``REPRO_CHAOS_MODE`` / ``REPRO_CHAOS_LABEL`` / ``REPRO_CHAOS_DIR``) — the
same knobs the CI chaos-smoke job uses — so these tests exercise exactly the
code paths a flaky machine would: a transient exception, a SIGKILLed pool
worker, and a hung worker caught by the per-cell watchdog.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignCell, CampaignSpec, ResultStore, run_campaign
from repro.campaign.runner import (
    MAX_RETRY_DELAY,
    STATUS_FAILED,
    STATUS_RAN,
    STATUS_TIMEOUT,
    retry_delay,
)
from repro.simulation import ClusterSpec, ExperimentConfig, MethodSpec
from repro.simulation.experiment import PAPER_METHODS


def tiny_config(**overrides) -> ExperimentConfig:
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


def two_by_two_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="2x2",
        base={"model": "mlp", "epochs": 1, "batch_size": 8, "dataset_samples": 32,
              "max_iterations_per_epoch": 1, "pretrain_iterations": 0, "world_size": 2},
        axes={"bandwidth": ["100Mbps", "1Gbps"], "method": ["all-reduce", "fp16"]},
    )


@pytest.fixture
def chaos(monkeypatch, tmp_path):
    """Arm the chaos seam for one injected failure, scoped by label."""

    def arm(mode: str, label: str = "") -> None:
        monkeypatch.setenv("REPRO_CHAOS_MODE", mode)
        monkeypatch.setenv("REPRO_CHAOS_LABEL", label)
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))

    return arm


class TestRetryPolicy:
    def test_transient_failure_is_retried_and_recovers(self, chaos, tmp_path):
        chaos("raise", label="fp16")
        store = ResultStore(tmp_path / "store.jsonl")
        cells = [
            CampaignCell(config=tiny_config(), method=PAPER_METHODS["fp16"]),
            CampaignCell(config=tiny_config(), method=PAPER_METHODS["all-reduce"]),
        ]
        report = run_campaign(cells, store=store, jobs=1, retry_backoff=0.001)
        assert report.failed == 0 and report.ran == 2
        assert [o.attempts for o in report.outcomes] == [2, 1]
        assert report.retried == 1
        assert "retried=1" in report.summary()
        # The attempt count is persisted with the record.
        record = store.records(method="fp16")[0]
        assert record.attempts == 2
        assert sorted(store.axis_values("attempts")) == [1, 2]

    def test_deterministic_error_is_not_retried(self):
        cells = [
            # Well-formed, rejected only when the cell builds its compressor.
            CampaignCell(config=tiny_config(),
                         method=MethodSpec(name="bad", compressor="pactrain", error_feedback=True)),
        ]
        report = run_campaign(cells, jobs=1, retries=5, retry_backoff=0.001)
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 1  # KeyError/ValueError: retrying cannot help
        assert "not supported for PacTrain" in outcome.error

    def test_retries_zero_disables_retrying(self, chaos):
        chaos("raise")
        cells = [CampaignCell(config=tiny_config(), method=PAPER_METHODS["all-reduce"])]
        report = run_campaign(cells, jobs=1, retries=0)
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_FAILED and outcome.attempts == 1
        assert "chaos: injected transient failure" in outcome.error

    def test_retry_budget_exhausts(self, monkeypatch):
        # No REPRO_CHAOS_DIR: the chaos fires on *every* attempt.
        monkeypatch.setenv("REPRO_CHAOS_MODE", "raise")
        cells = [CampaignCell(config=tiny_config(), method=PAPER_METHODS["all-reduce"])]
        report = run_campaign(cells, jobs=1, retries=2, retry_backoff=0.001)
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 3  # initial run + 2 retries

    def test_retry_delay_is_bounded_and_deterministic(self):
        key = "deadbeef" + "0" * 56
        delays = [retry_delay(n, key, backoff=0.05) for n in (1, 2, 3, 10)]
        assert delays == [retry_delay(n, key, backoff=0.05) for n in (1, 2, 3, 10)]
        assert delays[0] < delays[1] < delays[2]  # exponential while unbounded
        jitter = 1.0 + int(key[:8], 16) / float(0xFFFFFFFF)
        assert delays[3] == MAX_RETRY_DELAY * jitter  # exponential is capped
        # Different fingerprints jitter differently (no thundering herd).
        other = "00000001" + "0" * 56
        assert retry_delay(1, key, 0.05) != retry_delay(1, other, 0.05)


class TestChaosSurvival:
    def test_killed_worker_cells_are_resubmitted_not_lost(self, chaos, tmp_path):
        chaos("kill", label="fp16")
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_campaign(
            two_by_two_campaign(), store=store, jobs=2, retry_backoff=0.001
        )
        assert report.failed == 0
        assert report.ran == 4
        assert report.retried >= 1  # at least the killed cell paid an attempt
        # No lost results: every cell of the sweep is in the store, and a
        # re-run is pure cache hits.
        again = run_campaign(two_by_two_campaign(), store=store, jobs=1)
        assert again.cached == 4 and again.ran == 0

    def test_chaos_survivor_results_match_clean_run(self, chaos, tmp_path):
        clean_store = ResultStore(tmp_path / "clean.jsonl")
        clean = run_campaign(two_by_two_campaign(), store=clean_store, jobs=1)
        chaos("kill", label="fp16")
        chaos_store = ResultStore(tmp_path / "chaos.jsonl")
        survived = run_campaign(
            two_by_two_campaign(), store=chaos_store, jobs=2, retry_backoff=0.001
        )
        assert [r.to_dict() for r in survived.results()] == [
            r.to_dict() for r in clean.results()
        ]

    def test_hung_worker_times_out_and_sweep_continues(self, chaos, tmp_path):
        chaos("hang", label="fp16")
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_campaign(
            two_by_two_campaign(), store=store, jobs=2,
            retry_backoff=0.001, cell_timeout=3.0,
        )
        statuses = {o.cell.label: o.status for o in report.outcomes}
        hung = [s for label, s in statuses.items() if "fp16" in label]
        healthy = [s for label, s in statuses.items() if "fp16" not in label]
        # Exactly one fp16 cell hit the armed chaos and timed out; everything
        # else survived the pool recycle and completed.
        assert hung.count(STATUS_TIMEOUT) == 1
        assert hung.count(STATUS_RAN) == 1
        assert healthy == [STATUS_RAN, STATUS_RAN]
        timed_out = next(o for o in report.outcomes if o.status == STATUS_TIMEOUT)
        assert "watchdog timeout" in timed_out.error
        assert report.failed == 1  # timeouts count as failures in the report
