"""Local SGD as one world-batched pass per iteration ≡ the per-rank loop, bit-exactly.

A local-SGD iteration runs every live rank's forward/backward in one
``compute_batched_gradients`` pass over the replicas' ``(world, *shape)``
stacks and steps all their rows through one ``SGD``.  The oracle is a
per-rank implementation: one parameter-array list and one optimiser per
rank, swapped through the shared model rank by rank
(:class:`LoopedReplicaSet`, :class:`LoopedLocalSGDStep`).  Both run whole
cells through ``train_distributed`` and must agree byte for byte on the
model, every replica's parameters and velocities, the per-rank losses of
every iteration, the arena rows, the batch-norm buffers, the error-feedback
residuals and the reported result — over {mlp, resnet18, vgg19,
vit-base-16} × {dense, delta} averaging × {healthy, a rank that crashes at
t=0 and re-joins mid-run}, with PacTrain's pruning mask and GSE on.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.ddp import DistributedDataParallel, StepResult
from repro.nn import SGD
from repro.pruning import apply_gse
from repro.simulation import PAPER_METHODS, ClusterSpec, ExperimentConfig, MethodSpec
from repro.simulation import experiment
from repro.simulation.experiment import SGD_LR, SGD_MOMENTUM, _LocalSGDStep, train_distributed
from repro.tensorlib import functional as F

PERIOD = 4


class LoopedReplicaSet:
    """The oracle's replicas: one parameter-array list and one SGD per rank."""

    def __init__(self, model, world_size) -> None:
        self._named = list(model.named_parameters())
        self.replicas = [[param.data.copy() for _, param in self._named] for _ in range(world_size)]
        self.optimizers = [
            SGD([param for _, param in self._named], lr=SGD_LR, momentum=SGD_MOMENTUM)
            for _ in range(world_size)
        ]

    def load(self, rank):
        for (_, param), stored in zip(self._named, self.replicas[rank]):
            param.data = stored

    def save(self, rank):
        self.replicas[rank] = [param.data for _, param in self._named]

    def step(self, rank):
        self.optimizers[rank].step()

    def params_dict(self, rank):
        return {name: stored for (name, _), stored in zip(self._named, self.replicas[rank])}

    def delta(self, rank, anchor):
        return {name: stored - anchor[name] for (name, _), stored in zip(self._named, self.replicas[rank])}

    def assign(self, rank, params):
        self.replicas[rank] = [params[name].copy() for name, _ in self._named]

    def reset_velocity(self, rank):
        optimizer = self.optimizers[rank]
        optimizer.velocity = [None] * len(optimizer.parameters)


class LoopedLocalSGDStep(_LocalSGDStep):
    """The oracle's step: each live rank loads its replica, steps and saves it in turn."""

    def __init__(self, run) -> None:
        super().__init__(run)
        self.replicas = LoopedReplicaSet(run.model, run.world_size)

    def _sync_round(self, active):
        run, replicas, anchor, ddp = self.run, self.replicas, self.anchor, self.run.ddp
        if self.schedule.delta:
            for rank in active:
                ddp.stage_rank_gradients(rank, replicas.delta(rank, anchor))
            aggregated, bucket_events = ddp.synchronize_staged()
            new_params = {name: anchor[name] + aggregated[name] for name in anchor}
        else:
            for rank in active:
                ddp.stage_rank_gradients(rank, replicas.params_dict(rank))
            new_params, bucket_events = ddp.synchronize_staged(self.dense_average)
        for name, param in run.model.named_parameters():
            param.data = new_params[name]
        if run.mask is not None:
            run.mask.apply_to_weights(run.model)
        self.anchor = ddp.snapshot_parameters()
        for rank in active:
            replicas.assign(rank, self.anchor)
        return bucket_events

    def step(self, batches, epoch, iteration):
        run, replicas = self.run, self.replicas
        ddp, model, mask = run.ddp, run.model, run.mask
        active = ddp.active_ranks
        per_rank_losses = []
        for rank in active:
            replicas.load(rank)
            loss_value, grads = ddp.compute_local_gradients(batches[rank], F.cross_entropy)
            if self.use_gse:
                apply_gse(mask, grads)
            # The pass hands back its own arrays: the replica's optimiser reads param.grad.
            ddp.apply_aggregated_gradients(grads)
            replicas.step(rank)
            if mask is not None:
                mask.apply_to_weights(model)
            replicas.save(rank)
            per_rank_losses.append(loss_value)
        self.window += 1
        if self.window < self.schedule.period:
            return StepResult(per_rank_losses)
        bucket_events = self._sync_round(active)
        self.window = 0
        return StepResult(per_rank_losses, bucket_events)


def _config(model: str, faults=None) -> ExperimentConfig:
    # Three ranks, two epochs of five iterations: two averaging windows per
    # epoch (a full one and a flushed partial one), the run's momentum SGD,
    # and a small bucket cap so staging spans several buckets.
    return ExperimentConfig(
        model=model,
        cluster=ClusterSpec(world_size=3, bandwidth="100Mbps", faults=faults),
        epochs=2,
        batch_size=2,
        dataset_samples=40,
        image_size=8,
        pretrain_iterations=1,
        max_iterations_per_epoch=5,
        bucket_cap_bytes=16 * 1024,
        seed=0,
    )


def _method(schedule: str, compressor: str = "pactrain") -> MethodSpec:
    if compressor == "pactrain":
        return dataclasses.replace(PAPER_METHODS["pactrain"], sync_schedule=schedule)
    return MethodSpec(name=compressor, compressor=compressor, sync_schedule=schedule)


@functools.lru_cache(maxsize=None)
def _crash_plan(model: str, method: MethodSpec) -> str:
    """Rank 1 dead from t=0 and back halfway through the healthy run's simulated time."""
    healthy = experiment.run_experiment(_config(model), method)
    return f"crash:1@0.0,rejoin:1@{healthy.simulated_time / 2:.9g}"


def _run(step_class, config, method, monkeypatch):
    """Train one cell with ``step_class`` as the local-SGD step; return the run, step and losses."""
    box = {"losses": []}

    class Recording(step_class):
        def __init__(self, run):
            super().__init__(run)
            box["step"] = self

        def step(self, *args):
            result = super().step(*args)
            box["losses"].append(result.per_rank_loss)
            return result

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "_LocalSGDStep", Recording)
        run = train_distributed(config, method)
    return run, box["step"], box["losses"]


def _assert_same_run(batched, looped) -> None:
    (run, step, losses), (oracle_run, oracle_step, oracle_losses) = batched, looped
    assert losses == oracle_losses
    assert run.result().to_dict() == oracle_run.result().to_dict()
    for name, value in oracle_run.ddp.snapshot_parameters().items():
        np.testing.assert_array_equal(run.ddp.snapshot_parameters()[name], value, err_msg=name)
    for name, value in oracle_step.anchor.items():
        np.testing.assert_array_equal(step.anchor[name], value, err_msg=name)
    replicas, oracle = step.replicas, oracle_step.replicas
    for rank in range(run.world_size):
        velocities = oracle.optimizers[rank].velocity
        for index, name in enumerate(replicas.names):
            np.testing.assert_array_equal(
                replicas.params[index][rank], oracle.replicas[rank][index], err_msg=f"{name}@{rank}"
            )
            want = velocities[index]
            if want is None:
                want = np.zeros_like(oracle.replicas[rank][index])
            np.testing.assert_array_equal(
                replicas.velocities[index][rank], want, err_msg=f"velocity {name}@{rank}"
            )
    for bucket in oracle_run.ddp.buckets:
        np.testing.assert_array_equal(
            run.ddp.arena.matrix(bucket.index), oracle_run.ddp.arena.matrix(bucket.index)
        )
        want = oracle_run.compressor._residuals.get(bucket.index)
        got = run.compressor._residuals.get(bucket.index)
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)
    for (name, value), (_, oracle_value) in zip(
        run.model.named_buffers(), oracle_run.model.named_buffers()
    ):
        np.testing.assert_array_equal(value, oracle_value, err_msg=name)


@pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "crash-rejoin"])
@pytest.mark.parametrize("schedule", [f"localsgd:{PERIOD}", f"localsgd:{PERIOD}:delta"])
@pytest.mark.parametrize("model", ["mlp", "resnet18", "vgg19", "vit-base-16"])
def test_batched_local_sgd_equals_the_per_rank_loop(model, schedule, faulted, monkeypatch):
    method = _method(schedule)
    config = _config(model, _crash_plan(model, method) if faulted else None)
    batched = _run(_LocalSGDStep, config, method, monkeypatch)
    looped = _run(LoopedLocalSGDStep, config, method, monkeypatch)
    result = batched[0].result()
    assert result.sync_rounds >= 4
    if faulted:
        # The degraded window spans a full averaging round over the survivors.
        assert PERIOD <= result.degraded_iterations < result.iterations_run
        assert result.fault_events == 2
    _assert_same_run(batched, looped)


@pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "crash-rejoin"])
def test_delta_error_feedback_residuals_equal_the_per_rank_loop(faulted, monkeypatch):
    method = _method(f"localsgd:{PERIOD}:delta", "ef+topk0.05")
    config = _config("mlp", _crash_plan("mlp", method) if faulted else None)
    batched = _run(_LocalSGDStep, config, method, monkeypatch)
    looped = _run(LoopedLocalSGDStep, config, method, monkeypatch)
    assert batched[0].compressor._residuals.get(0) is not None
    _assert_same_run(batched, looped)


def test_each_local_sgd_iteration_is_one_batched_pass(monkeypatch):
    calls = {"compute_batched_gradients": 0, "compute_local_gradients": 0}
    for name in calls:
        original = getattr(DistributedDataParallel, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(DistributedDataParallel, name, counted)
    method = _method(f"localsgd:{PERIOD}:delta")
    result = experiment.run_experiment(_config("mlp", _crash_plan("mlp", method)), method)
    assert result.degraded_iterations > 0
    assert calls == {
        "compute_batched_gradients": result.iterations_run,
        "compute_local_gradients": 0,
    }
