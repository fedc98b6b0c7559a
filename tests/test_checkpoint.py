"""Checkpoint/restore round trips of the training loops, on every regime.

``train_distributed(config, method, checkpoint_at=i)`` captures the loop's
state as ``run.checkpoint`` just before global iteration ``i`` (under the
parameter server: apply ``i``), and
``train_distributed(config, method, resume_from=checkpoint)`` installs it in a
run rebuilt from the same two specs.  These tests pin the contract end to end:

* capturing a checkpoint is side-effect-free — the capturing run finishes
  bit-identically to the uninterrupted run;
* a resumed run has the uninterrupted run's log, result and model state
  (parameters *and* buffers) bit for bit — under sync, dense and delta local
  SGD, healthy and under a crash/rejoin plan, with captures inside a local-SGD
  window, and under the async parameter server (``ps``, ``ps:2``) on mlp and
  resnet18, with captures inside the first epoch and with pushes in flight;
* one checkpoint seeds several resumes (capture and restore deep-copy), and
  the parameter server's worker codecs still share the run's compressor and
  its stats after one;
* a target reached before the capture is still reported by the resumed run;
* a checkpoint taken mid-fault — while the membership is degraded — restores
  the degraded process group through the elastic seam;
* a resume under specs other than the checkpoint's, and a cell the regime or
  the compressor registry rejects, fail before anything is prepared.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import golden
from repro.simulation import experiment
from repro.simulation.experiment import MethodSpec, train_distributed

METHOD = MethodSpec(name="topk-0.01", compressor="topk-0.01")
CRASH_REJOIN = "crash:1@0.0005,rejoin:1@0.003"


def _faulted(config, faults=CRASH_REJOIN):
    return dataclasses.replace(config, cluster=dataclasses.replace(config.cluster, faults=faults))


def _assert_same_run(run, baseline):
    """Same log, same reported result, same model parameters and buffers."""
    assert run.timeline.log == baseline.timeline.log
    assert run.result().to_dict() == baseline.result().to_dict()
    state, expected = run.model.state_dict(), baseline.model.state_dict()
    assert state.keys() == expected.keys()
    for name, value in expected.items():
        np.testing.assert_array_equal(state[name], value, err_msg=name)


def _capture(config, method, checkpoint_at):
    return train_distributed(config, method, checkpoint_at=checkpoint_at).checkpoint


class TestCheckpointRoundTrip:
    def test_capture_is_side_effect_free(self):
        baseline = train_distributed(golden.GOLDEN_CONFIG, METHOD)
        capturing = train_distributed(golden.GOLDEN_CONFIG, METHOD, checkpoint_at=3)
        assert capturing.checkpoint is not None
        _assert_same_run(capturing, baseline)

    def test_resume_mid_epoch_is_bit_identical(self):
        # Global iteration 3 is epoch 1, iteration 1 in the golden config
        # (2 iterations/epoch): a genuine mid-epoch capture.
        baseline = train_distributed(golden.GOLDEN_CONFIG, METHOD)
        ck = _capture(golden.GOLDEN_CONFIG, METHOD, 3)
        assert ck.global_iteration == 3
        assert ck.iteration_in_epoch != 0
        resumed = train_distributed(golden.GOLDEN_CONFIG, METHOD, resume_from=ck)
        _assert_same_run(resumed, baseline)

    def test_one_checkpoint_seeds_several_resumes(self):
        ck = _capture(golden.GOLDEN_CONFIG, METHOD, 2)
        first = train_distributed(golden.GOLDEN_CONFIG, METHOD, resume_from=ck)
        second = train_distributed(golden.GOLDEN_CONFIG, METHOD, resume_from=ck)
        _assert_same_run(second, first)

    def test_a_target_reached_only_before_the_capture_survives_the_resume(self):
        # Seed 1's accuracy peaks at epoch 1 and falls in epoch 2.  With the
        # target at that peak and the capture inside epoch 2 (global
        # iteration 5 of 2 per epoch), only the epoch records the checkpoint
        # carries can say the target was reached.
        config = dataclasses.replace(golden.GOLDEN_CONFIG, seed=1)
        accuracies = [
            record.test_accuracy for record in train_distributed(config, METHOD).timeline.epochs
        ]
        config = dataclasses.replace(config, target_accuracy=accuracies[1])
        assert max(accuracies[0], accuracies[2]) < config.target_accuracy
        baseline = train_distributed(config, METHOD).result()
        assert baseline.reached_target
        assert baseline.tta == baseline.accuracy_trace[1][0]
        ck = _capture(config, METHOD, 5)
        assert (ck.epoch, ck.iteration_in_epoch) == (2, 1)
        resumed = train_distributed(config, METHOD, resume_from=ck).result()
        assert resumed.reached_target == baseline.reached_target
        assert resumed.tta == baseline.tta
        assert resumed.to_dict() == baseline.to_dict()

    def test_resume_restores_compressor_residuals(self):
        # top-k with error feedback carries residual state across iterations;
        # a resume that dropped it would diverge from the baseline run.
        residual = _capture(golden.GOLDEN_CONFIG, METHOD, 3).compressor.residual(0)
        assert residual is not None
        assert float(np.abs(residual).sum()) > 0.0

    def test_resume_restores_batchnorm_running_statistics(self):
        # resnet18's BatchNorm running statistics are buffers, not
        # parameters: a resume that restored only the parameters would
        # evaluate (and report accuracies) with the wrong statistics.
        config = dataclasses.replace(
            golden.GOLDEN_CONV_CONFIG,
            epochs=3, dataset_samples=96, max_iterations_per_epoch=4, pretrain_iterations=4,
        )
        method = golden.GOLDEN_METHODS["conv-all-reduce"]
        baseline = train_distributed(config, method)
        assert any(name.startswith("__buffer__.") for name in baseline.model.state_dict())
        resumed = train_distributed(config, method, resume_from=_capture(config, method, 3))
        _assert_same_run(resumed, baseline)

    def test_resume_restores_the_mask_tracker(self):
        # PacTrain's compact sync needs every worker to agree on the stable
        # pattern: the tracker's streaks are compressor state, captured while
        # the run is still in full sync and before it turns compact.
        config = golden.GOLDEN_COMPACT_CONFIG
        method = golden.GOLDEN_METHODS["pactrain-compact"]
        baseline = train_distributed(config, method)
        assert baseline.result().extra["compact_iterations"] > 0
        resumed = train_distributed(config, method, resume_from=_capture(config, method, 4))
        _assert_same_run(resumed, baseline)

    def test_localsgd_h1_supports_checkpointing(self):
        # localsgd:1 routes through the synchronous step.
        method = dataclasses.replace(METHOD, sync_schedule="localsgd:1")
        baseline = train_distributed(golden.GOLDEN_CONFIG, method)
        ck = _capture(golden.GOLDEN_CONFIG, method, 3)
        resumed = train_distributed(golden.GOLDEN_CONFIG, method, resume_from=ck)
        _assert_same_run(resumed, baseline)


class TestCheckpointUnderFaults:
    def test_resume_from_degraded_membership(self):
        config = _faulted(golden.GOLDEN_CONFIG)
        baseline = train_distributed(config, METHOD)
        assert baseline.result().fault_events >= 2  # crash + rejoin both fired
        ck = _capture(config, METHOD, 3)
        # The capture lands between the crash and the rejoin: the saved
        # membership is degraded, and the resume must rebuild the degraded
        # process group through the elastic seam before continuing.
        assert len(ck.active_ranks) < config.cluster.world_size
        resumed = train_distributed(config, METHOD, resume_from=ck)
        _assert_same_run(resumed, baseline)

    def test_resume_after_rejoin_completes(self):
        config = _faulted(golden.GOLDEN_CONFIG)
        baseline = train_distributed(config, METHOD)
        ck = _capture(config, METHOD, 5)
        assert len(ck.active_ranks) == config.cluster.world_size
        resumed = train_distributed(config, METHOD, resume_from=ck)
        _assert_same_run(resumed, baseline)


# --------------------------------------------------------------------------- #
# Every barrier regime × fault plan × capture point
# --------------------------------------------------------------------------- #
SCHEDULES = ["sync", "localsgd:4", "localsgd:4:delta"]
FAULTS = {"healthy": None, "crash-rejoin": CRASH_REJOIN}


def _cell(schedule, faults):
    config = golden.GOLDEN_CONFIG if FAULTS[faults] is None else _faulted(golden.GOLDEN_CONFIG)
    return config, dataclasses.replace(METHOD, sync_schedule=schedule)


@pytest.mark.parametrize("checkpoint_at", [2, 5])
@pytest.mark.parametrize("faults", list(FAULTS))
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_every_barrier_regime_resumes_bit_identically(schedule, faults, checkpoint_at):
    config, method = _cell(schedule, faults)
    baseline = train_distributed(config, method)
    capturing = train_distributed(config, method, checkpoint_at=checkpoint_at)
    _assert_same_run(capturing, baseline)
    ck = capturing.checkpoint
    assert ck.global_iteration == checkpoint_at
    if schedule != "sync":
        # Both captures land in an open window, where the replicas have
        # diverged from the anchor: 2 after epoch 0's last step and before
        # its flush, 5 one step into epoch 2 (2 iterations per epoch).
        assert ck.step_state["window"] == {2: 2, 5: 1}[checkpoint_at]
    resumed = train_distributed(config, method, resume_from=ck)
    _assert_same_run(resumed, baseline)


# --------------------------------------------------------------------------- #
# The parameter server: the position is the apply count
# --------------------------------------------------------------------------- #
PS_CONFIGS = {"mlp": golden.GOLDEN_CONFIG, "resnet18": golden.GOLDEN_CONV_CONFIG}
#: (model, checkpoint_at) -> (the epoch the capture lands in, pushes in flight).
#: mlp: 4 workers, 2 updates per epoch each, 24 applies; resnet18: 2 workers,
#: 2 updates per epoch each, 8 applies — its other worker is mid-pull.
PS_CAPTURES = {
    ("mlp", 2): (0, 2),
    ("mlp", 13): (1, 3),
    ("resnet18", 2): (0, 1),
    ("resnet18", 5): (1, 1),
}


def _train_with_server(config, method, **kwargs):
    """``train_distributed`` plus the :class:`_ParameterServer` it ran."""
    servers = []

    class Recording(experiment._ParameterServer):
        def __init__(self, run):
            super().__init__(run)
            servers.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "_ParameterServer", Recording)
        run = train_distributed(config, method, **kwargs)
    return run, servers[0]


@pytest.mark.parametrize("model, checkpoint_at", sorted(PS_CAPTURES))
@pytest.mark.parametrize("schedule", ["ps", "ps:2"])
def test_the_parameter_server_resumes_bit_identically(schedule, model, checkpoint_at):
    config = PS_CONFIGS[model]
    method = dataclasses.replace(METHOD, sync_schedule=schedule)
    baseline = train_distributed(config, method)
    capturing = train_distributed(config, method, checkpoint_at=checkpoint_at)
    _assert_same_run(capturing, baseline)
    ck = capturing.checkpoint
    assert ck.global_iteration == checkpoint_at
    epoch, in_flight = PS_CAPTURES[model, checkpoint_at]
    assert ck.epoch == epoch
    pushes = [state for state in ck.step_state["pending"] if state and "aggregated" in state]
    assert len(pushes) == in_flight
    resumed, server = _train_with_server(config, method, resume_from=ck)
    _assert_same_run(resumed, baseline)
    # The deep copy keeps what the workers share: worker 0 pushes through the
    # run's compressor, and every worker records into its stats.
    assert server.codecs[0] is resumed.compressor
    assert all(codec.stats is resumed.compressor.stats for codec in server.codecs)
    _assert_same_run(train_distributed(config, method, resume_from=ck), resumed)


# --------------------------------------------------------------------------- #
# Rejected before anything is prepared
# --------------------------------------------------------------------------- #
def _record_preparations(monkeypatch):
    """The list every later :func:`_prepare_workload` call is appended to."""
    calls = []
    monkeypatch.setattr(experiment, "_prepare_workload", lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize(
    "config, method, message",
    [
        (
            _faulted(golden.GOLDEN_CONFIG),
            dataclasses.replace(METHOD, sync_schedule="ps:2"),
            "fault plans are not supported",
        ),
        (
            golden.GOLDEN_CONFIG,
            MethodSpec(name="pactrain-ef", compressor="pactrain", error_feedback=True),
            "error feedback is not supported for PacTrain",
        ),
    ],
    ids=["ps-under-a-fault-plan", "registry"],
)
def test_train_distributed_rejects_a_cell_before_preparing_it(config, method, message, monkeypatch):
    prepared = _record_preparations(monkeypatch)
    with pytest.raises(ValueError, match=message):
        train_distributed(config, method)
    assert prepared == []


@pytest.mark.parametrize(
    "captured, config, method, field",
    [
        (golden.GOLDEN_CONFIG, dataclasses.replace(golden.GOLDEN_CONFIG, noise_std=0.5), METHOD, "config.noise_std"),
        (golden.GOLDEN_CONFIG, _faulted(golden.GOLDEN_CONFIG), METHOD, "config.cluster.faults"),
        # The reverse: a nested dict captured, ``None`` given.
        (_faulted(golden.GOLDEN_CONFIG), golden.GOLDEN_CONFIG, METHOD, "config.cluster.faults"),
        (
            golden.GOLDEN_CONFIG,
            golden.GOLDEN_CONFIG,
            dataclasses.replace(METHOD, sync_schedule="localsgd:4"),
            "method.sync_schedule",
        ),
    ],
    ids=["config", "cluster", "cluster-dropped", "method"],
)
def test_a_resume_under_other_specs_is_rejected(captured, config, method, field, monkeypatch):
    ck = _capture(captured, METHOD, 2)
    prepared = _record_preparations(monkeypatch)
    with pytest.raises(ValueError, match=rf"cannot resume: {field} differs"):
        train_distributed(config, method, resume_from=ck)
    assert prepared == []
