"""Direct micro rows: one layer each, timed from outside on harness-built inputs.

The traced pass says where an op's time goes; these rows say what one call
into a layer costs on a fixed input, so a per-layer optimisation has a number
of its own to move and the end-to-end change can be checked against it.  Each
row belongs to the workload whose dominant layer it explains (``home``).
Inputs are fixed (they do not depend on ``--seed``): a micro row compares two
commits on the same input, nothing else.

Values are raw medians on the host clock, not host-normalised — read them
beside ``host.ref_ms_p50`` of the same run.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import repro.obs
from repro.campaign import CampaignSpec, ResultStore
from repro.compression import build_compressor
from repro.data import DataLoader, make_dataset
from repro.ddp import Bucket, BucketSlice, DistributedDataParallel, GradBucket
from repro.nn import SGD
from repro.nn.models import build_model
from repro.simulation import PAPER_METHODS, ClusterSpec, SimulationEngine, run_experiment
from repro.tensorlib import Tensor, functional as F

import workloads

WORLD = 8
CODEC_NUMEL = 1_000_000


@dataclass(frozen=True)
class Row:
    name: str
    unit: str
    home: str
    #: ``build(scratch)`` prepares the inputs and returns ``sample()``, which
    #: takes one measurement and returns it in ``unit``.
    build: Callable[[str], Callable[[], float]]
    repeats: int = 9


def _timed(fn: Callable[[], object], per_second: float, items: int = 1) -> Callable[[], float]:
    def sample() -> float:
        start = time.perf_counter()
        fn()
        return (time.perf_counter() - start) * per_second / items

    return sample


# --------------------------------------------------------------------------- #
# conv_dense_sync: kernels, autograd, ddp staging, optimiser, data, obs
# --------------------------------------------------------------------------- #
def _conv2d_fwd_bwd(scratch: str):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((128, 16, 8, 8))
    w = rng.standard_normal((32, 16, 3, 3))

    def step() -> None:
        weight = Tensor(w, requires_grad=True)
        F.conv2d(Tensor(x, requires_grad=True), weight, padding=1).sum().backward()

    return _timed(step, 1e3)


def _matmul_fwd_bwd(scratch: str):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((256, 512))
    b = rng.standard_normal((512, 512))

    def step() -> None:
        (Tensor(a, requires_grad=True) @ Tensor(b, requires_grad=True)).sum().backward()

    return _timed(step, 1e3)


def _resnet_ddp():
    model = build_model("resnet18", num_classes=10, seed=0)
    cluster = ClusterSpec(world_size=WORLD, bandwidth="100Mbps")
    ddp = DistributedDataParallel(
        model, world_size=WORLD, process_group=cluster.process_group(),
        comm_hook=build_compressor("all-reduce"),
    )
    rng = np.random.default_rng(2)
    grads = {
        name: rng.standard_normal((WORLD, *param.data.shape))
        for name, param in model.named_parameters()
    }
    return model, ddp, grads


def _ddp_stage_and_sync(scratch: str):
    _, ddp, grads = _resnet_ddp()

    def step() -> None:
        ddp.stage_world_gradients(grads)
        ddp.synchronize_staged()

    return _timed(step, 1e3)


def _optim_step(scratch: str):
    model, _, grads = _resnet_ddp()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    for name, param in model.named_parameters():
        param.grad = grads[name][0]
    return _timed(optimizer.step, 1e3)


def _data_epoch_iter(scratch: str):
    dataset = make_dataset("cifar10", num_samples=256, image_size=8, noise_std=0.8, seed=0)
    loader = DataLoader(dataset, batch_size=16, shuffle=True, seed=0)

    def epoch() -> None:
        for _ in loader:
            pass

    return _timed(epoch, 1e3)


def _obs_traced_op_ratio(scratch: str):
    """ROADMAP's "cost of looking": the conv op under ``repro.obs`` / without."""
    conv = workloads.build()["conv_dense_sync"]
    untraced = _timed(lambda: conv.run(0), 1.0)

    def traced_once() -> float:
        repro.obs.enable()
        try:
            return untraced()
        finally:
            repro.obs.disable()

    return lambda: traced_once() / untraced()


# --------------------------------------------------------------------------- #
# topk_codec_sync / pactrain_pruned: one bucket through a compressor
# --------------------------------------------------------------------------- #
def _aggregate(compressor, matrix: np.ndarray):
    bucket = Bucket(index=0, slices=[BucketSlice("flat", 0, matrix.shape[1], (matrix.shape[1],))])
    group = ClusterSpec(world_size=WORLD, bandwidth="100Mbps").process_group()
    iteration = [0]

    def step() -> None:
        compressor.aggregate(GradBucket(bucket, matrix=matrix), group, iteration=iteration[0])
        iteration[0] += 1
        group.pop_events()

    return step


def _codec(spec: str):
    def build(scratch: str):
        matrix = np.random.default_rng(3).standard_normal((WORLD, CODEC_NUMEL))
        return _timed(_aggregate(build_compressor(spec, seed=0), matrix), 1e3)

    return build


def _pactrain_compact(scratch: str):
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((WORLD, CODEC_NUMEL))
    matrix[:, rng.random(CODEC_NUMEL) < 0.5] = 0.0
    compressor = PAPER_METHODS["pactrain"].build_compressor(seed=0)
    step = _aggregate(compressor, matrix)
    while compressor.compact_iterations == 0:
        step()
        if compressor.full_iterations > 16:
            raise workloads.CheckFailed("pactrain tracker never stabilised on a fixed mask")
    return _timed(step, 1e3)


# --------------------------------------------------------------------------- #
# regime_cell_sweep: the event heap's growth curve
# --------------------------------------------------------------------------- #
def _engine(ranks: int):
    def build(scratch: str):
        buckets = 32
        engine = SimulationEngine(overlap=True)
        compute = [0.01 * (1.0 + 0.05 * (rank % 8)) for rank in range(ranks)]
        fractions = [(index + 1) / buckets for index in range(buckets)]
        comm = [0.001 + 0.0001 * index for index in range(buckets)]
        return _timed(lambda: engine.run_iteration(compute, fractions, comm), 1e6)

    return build


# --------------------------------------------------------------------------- #
# store_replay: fingerprinting and the store's load / put paths
# --------------------------------------------------------------------------- #
def _store_cells():
    spec = CampaignSpec(
        name="micro-store",
        base=workloads.golden_base(),
        axes={"seed": list(range(32)), "method": list(PAPER_METHODS)},
    )
    return spec.expand()


def _fingerprint(scratch: str):
    cells = _store_cells()
    return _timed(lambda: [cell.fingerprint() for cell in cells], 1e6, items=len(cells))


def _filled_store(scratch: str, name: str):
    cells = _store_cells()
    result = run_experiment(cells[0].config, cells[0].method)
    path = os.path.join(scratch, name)

    def fill() -> None:
        if os.path.exists(path):
            os.remove(path)
        store = ResultStore(path)
        for cell in cells:
            store.put(cell.config, cell.method, result)

    return path, len(cells), fill


def _store_load(scratch: str):
    path, records, fill = _filled_store(scratch, "micro-load.jsonl")
    fill()
    return _timed(lambda: ResultStore(path), 1e6, items=records)


def _store_put(scratch: str):
    _, records, fill = _filled_store(scratch, "micro-put.jsonl")
    return _timed(fill, 1e6, items=records)


ROWS: List[Row] = [
    Row("tensorlib.conv2d_fwd_bwd_ms", "ms", "conv_dense_sync", _conv2d_fwd_bwd),
    Row("tensorlib.matmul_fwd_bwd_ms", "ms", "conv_dense_sync", _matmul_fwd_bwd),
    Row("ddp.stage_and_sync_ms", "ms", "conv_dense_sync", _ddp_stage_and_sync),
    Row("nn.optim.step_ms", "ms", "conv_dense_sync", _optim_step),
    Row("data.epoch_iter_ms", "ms", "conv_dense_sync", _data_epoch_iter),
    Row("obs.traced_op_ratio", "ratio", "conv_dense_sync", _obs_traced_op_ratio, repeats=3),
    Row("compression.aggregate_ms.fp16", "ms", "topk_codec_sync", _codec("fp16"), repeats=5),
    Row("compression.aggregate_ms.topk0.01", "ms", "topk_codec_sync", _codec("topk0.01"), repeats=5),
    Row(
        "compression.aggregate_ms.topk0.01-terngrad", "ms", "topk_codec_sync",
        _codec("topk0.01+terngrad"), repeats=5,
    ),
    Row(
        "compression.aggregate_ms.pactrain-compact", "ms", "pactrain_pruned",
        _pactrain_compact, repeats=5,
    ),
    Row("simulation.engine.run_iteration_us.r8", "us", "regime_cell_sweep", _engine(8)),
    Row("simulation.engine.run_iteration_us.r64", "us", "regime_cell_sweep", _engine(64)),
    Row("simulation.engine.run_iteration_us.r512", "us", "regime_cell_sweep", _engine(512), repeats=5),
    Row("campaign.spec.fingerprint_us_per_cell", "us", "store_replay", _fingerprint),
    Row("campaign.store.load_us_per_record", "us", "store_replay", _store_load),
    Row("campaign.store.put_us_per_record", "us", "store_replay", _store_put, repeats=5),
]


def measure(rows: List[Row], scratch: str, smoke: bool) -> Dict[str, Dict]:
    """Median of each row's samples, after one untimed warm-up sample.

    ``smoke`` takes a single sample and no warm-up: it checks that every row
    still runs, not what it costs.
    """
    measured = {}
    for row in rows:
        sample = row.build(scratch)
        if not smoke:
            sample()
        values = [sample() for _ in range(1 if smoke else row.repeats)]
        measured[row.name] = {"value": statistics.median(values), "unit": row.unit}
    return measured
