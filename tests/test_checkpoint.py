"""Checkpoint/restore round trips on the elastic seam.

``train_distributed`` can capture a :class:`TrainingCheckpoint` just before a
chosen global iteration and later resume from it on a fresh model.  These
tests pin the contract end to end:

* capturing a checkpoint is side-effect-free — the checkpointed run finishes
  bit-identically to the uninterrupted run;
* resuming from the checkpoint reproduces the uninterrupted run's timeline,
  losses and final parameters bit-for-bit;
* one checkpoint seeds several resumes (the capture deep-copies all state);
* a checkpoint taken mid-fault — while the membership is degraded — restores
  the degraded process group through the elastic seam and still converges to
  the uninterrupted run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import golden
from repro.simulation.experiment import MethodSpec, _prepare_workload, train_distributed
from repro.simulation.regimes import TrainingCheckpoint

METHOD = MethodSpec(name="topk-0.01", compressor="topk-0.01")


def _run(config, method, **kwargs):
    model, train_set, test_loader, mask = _prepare_workload(config, method)
    timeline, ddp, compressor, reached = train_distributed(
        model=model,
        train_dataset=train_set,
        test_loader=test_loader,
        method=method,
        cluster=config.cluster,
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        mask=mask,
        max_iterations_per_epoch=config.max_iterations_per_epoch,
        seed=config.seed,
        bucket_cap_bytes=config.bucket_cap_bytes,
        **kwargs,
    )
    return timeline, ddp.snapshot_parameters(), compressor


def _assert_identical(run_a, run_b):
    timeline_a, params_a, compressor_a = run_a
    timeline_b, params_b, compressor_b = run_b
    assert timeline_b.epochs == timeline_a.epochs
    assert timeline_b.total_time == timeline_a.total_time
    assert timeline_b.comm_bytes_per_worker == timeline_a.comm_bytes_per_worker
    assert timeline_b.iterations == timeline_a.iterations
    assert set(params_b) == set(params_a)
    for name, value in params_a.items():
        assert np.array_equal(params_b[name], value), name
    assert compressor_b.stats.wire_bytes == compressor_a.stats.wire_bytes


class TestCheckpointRoundTrip:
    def test_capture_is_side_effect_free(self):
        baseline = _run(golden.GOLDEN_CONFIG, METHOD)
        box: list[TrainingCheckpoint] = []
        checkpointed = _run(
            golden.GOLDEN_CONFIG, METHOD, checkpoint_at=3, checkpoint_box=box
        )
        assert len(box) == 1
        _assert_identical(baseline, checkpointed)

    def test_resume_mid_epoch_is_bit_identical(self):
        # Global iteration 3 is epoch 1, iteration 1 in the golden config
        # (2 iterations/epoch): a genuine mid-epoch capture.
        baseline = _run(golden.GOLDEN_CONFIG, METHOD)
        box: list[TrainingCheckpoint] = []
        _run(golden.GOLDEN_CONFIG, METHOD, checkpoint_at=3, checkpoint_box=box)
        ck = box[0]
        assert ck.global_iteration == 3
        assert ck.iteration_in_epoch != 0
        resumed = _run(golden.GOLDEN_CONFIG, METHOD, resume_from=ck)
        _assert_identical(baseline, resumed)

    def test_one_checkpoint_seeds_several_resumes(self):
        box: list[TrainingCheckpoint] = []
        _run(golden.GOLDEN_CONFIG, METHOD, checkpoint_at=2, checkpoint_box=box)
        first = _run(golden.GOLDEN_CONFIG, METHOD, resume_from=box[0])
        second = _run(golden.GOLDEN_CONFIG, METHOD, resume_from=box[0])
        _assert_identical(first, second)

    def test_resume_restores_compressor_residuals(self):
        # top-k with error feedback carries residual state across iterations;
        # a resume that dropped it would diverge from the baseline run.
        box: list[TrainingCheckpoint] = []
        _run(golden.GOLDEN_CONFIG, METHOD, checkpoint_at=3, checkpoint_box=box)
        residual = box[0].compressor.residual(0)
        assert residual is not None
        assert float(np.abs(residual).sum()) > 0.0

    def test_checkpoint_rejects_async_schedules(self):
        method = dataclasses.replace(METHOD, sync_schedule="localsgd:4")
        with pytest.raises(ValueError, match="synchronous"):
            _run(golden.GOLDEN_CONFIG, method, checkpoint_at=2, checkpoint_box=[])

    def test_localsgd_h1_supports_checkpointing(self):
        # localsgd:1 routes through the synchronous loop, so the checkpoint
        # seam works there too.
        method = dataclasses.replace(METHOD, sync_schedule="localsgd:1")
        baseline = _run(golden.GOLDEN_CONFIG, method)
        box: list[TrainingCheckpoint] = []
        _run(golden.GOLDEN_CONFIG, method, checkpoint_at=3, checkpoint_box=box)
        resumed = _run(golden.GOLDEN_CONFIG, method, resume_from=box[0])
        _assert_identical(baseline, resumed)


class TestCheckpointUnderFaults:
    @staticmethod
    def _faulty_config():
        cluster = dataclasses.replace(
            golden.GOLDEN_CONFIG.cluster,
            faults="crash:1@0.0005,rejoin:1@0.003",
        )
        return dataclasses.replace(golden.GOLDEN_CONFIG, cluster=cluster)

    def test_resume_from_degraded_membership(self):
        config = self._faulty_config()
        baseline = _run(config, METHOD)
        assert baseline[0].fault_events >= 2  # crash + rejoin both fired
        box: list[TrainingCheckpoint] = []
        _run(config, METHOD, checkpoint_at=3, checkpoint_box=box)
        ck = box[0]
        # The capture lands between the crash and the rejoin: the saved
        # membership is degraded, and the resume must rebuild the degraded
        # process group through the elastic seam before continuing.
        assert len(ck.active_ranks) < config.cluster.world_size
        resumed = _run(config, METHOD, resume_from=ck)
        _assert_identical(baseline, resumed)

    def test_resume_after_rejoin_completes(self):
        config = self._faulty_config()
        baseline = _run(config, METHOD)
        box: list[TrainingCheckpoint] = []
        _run(config, METHOD, checkpoint_at=5, checkpoint_box=box)
        ck = box[0]
        assert len(ck.active_ranks) == config.cluster.world_size
        resumed = _run(config, METHOD, resume_from=ck)
        _assert_identical(baseline, resumed)
