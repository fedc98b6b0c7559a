"""The perf microbenchmark suite.

Four tracked hot paths, each timed with warmup iterations followed by
median-of-k measurement (the median is robust to scheduler noise; min and mean
are reported alongside):

* ``train_step/<dtype>`` — a full 4-rank ResNet-18 DDP training step (forward,
  backward, arena staging, all-reduce, write-back, optimiser) in float64 and
  float32;
* ``train_step_scaling`` — the same step at world sizes 16 and 64, comparing
  the world-batched execution path against the per-rank loop;
* ``codec/<spec>`` — encode→reduce/gather→decode round trips of representative
  codec pipelines over a (4, numel) Gaussian gradient matrix, plus
  ``codec/topk0.01/relu-sparse`` over the same shape with ~80 % exact zeros;
* ``engine/event_loop`` — the discrete-event engine scheduling many buckets
  over heterogeneous ranks;
* ``campaign/dispatch`` — campaign cell expansion plus content-address
  fingerprinting (the runner's per-cell dispatch overhead, no training);
* ``im2col/<backend>[/w8n16c8[/s2]]``, ``pool/<backend>``,
  ``fused_norm/<backend>`` — the routed hot kernels of the backend seam, one
  row per backend whose library is importable and whose probes accepted it
  (numpy always measures; its ``pool``/``fused_norm`` rows are the reference
  the derived ``*_numba_speedup_vs_numpy`` metrics divide by);
* ``batchnorm/float64/{w8n16c8,c64s1}`` — forward + backward of the one-node
  float64 ``BatchNorm2d`` at the two extreme shapes of the benchmark ResNet;
* ``campaign/backend_sweep/<backend>`` — wall-clock of a small conv campaign
  pinned to each available backend through the ``backend`` campaign axis,
  demonstrating that backend selection moves end-to-end campaign time, not
  just microbenchmarks.

``run_suite`` returns results keyed by benchmark name; ``write_report`` emits
the ``BENCH_perf.json`` document and ``check_regressions`` compares a run
against a committed baseline with a configurable noise margin.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Report schema version (bump when the JSON layout changes).
SCHEMA_VERSION = 1


@dataclass
class BenchResult:
    """Timing summary of one microbenchmark."""

    name: str
    median_s: float
    mean_s: float
    min_s: float
    repeats: int
    warmup: int
    meta: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "median_s": self.median_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict) -> "BenchResult":
        return cls(
            name=name,
            median_s=float(data["median_s"]),
            mean_s=float(data.get("mean_s", data["median_s"])),
            min_s=float(data.get("min_s", data["median_s"])),
            repeats=int(data.get("repeats", 1)),
            warmup=int(data.get("warmup", 0)),
            meta=dict(data.get("meta", {})),
        )


def time_callable(
    fn: Callable[[], object],
    name: str,
    repeats: int,
    warmup: int,
    meta: Optional[Dict[str, float]] = None,
) -> BenchResult:
    """Median-of-k wall-clock timing with warmup (perf_counter based)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return BenchResult(
        name=name,
        median_s=float(statistics.median(samples)),
        mean_s=float(statistics.fmean(samples)),
        min_s=float(min(samples)),
        repeats=repeats,
        warmup=warmup,
        meta=dict(meta or {}),
    )


# --------------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------------- #
def _train_step_setup(
    dtype: str,
    world_size: int = 4,
    execution: str = "batched",
    batch_size: Optional[int] = None,
):
    # Imported lazily so `repro.perf` stays importable without pulling the
    # whole training stack at module import time.
    from repro.comm.process_group import ProcessGroup  # noqa: PLC0415
    from repro.data import DataLoader, DistributedSampler, synthetic_cifar10  # noqa: PLC0415
    from repro.ddp import DistributedDataParallel  # noqa: PLC0415
    from repro.nn.models import build_model  # noqa: PLC0415
    from repro.tensorlib import default_dtype, functional as F  # noqa: PLC0415

    # 128 samples shard evenly at every measured world size.
    if batch_size is None:
        batch_size = min(16, 128 // world_size)
    with default_dtype(dtype):
        dataset = synthetic_cifar10(num_samples=128, image_size=8, seed=0)
        model = build_model("resnet18", num_classes=10, seed=0)
        ddp = DistributedDataParallel(model, world_size=world_size, process_group=ProcessGroup(world_size))
        loaders = [
            DataLoader(dataset, batch_size=batch_size, sampler=DistributedSampler(len(dataset), world_size, rank, seed=0))
            for rank in range(world_size)
        ]
        batches = [next(iter(loader)) for loader in loaders]

    def step() -> None:
        with default_dtype(dtype):
            ddp.train_step(batches, F.cross_entropy, execution=execution)

    return step, {"world_size": world_size, "batch_size": batch_size}


def bench_train_step(quick: bool) -> List[BenchResult]:
    """4-rank ResNet-18 train step, float64 and float32 compute paths."""
    repeats, warmup = (5, 1) if quick else (11, 3)
    results = []
    for dtype in ("float64", "float32"):
        step, meta = _train_step_setup(dtype)
        results.append(
            time_callable(
                step,
                name=f"train_step/{dtype}/resnet18/w4",
                repeats=repeats,
                warmup=warmup,
                meta=meta,
            )
        )
    return results


def bench_train_step_scaling(quick: bool) -> List[BenchResult]:
    """World-size scaling of the train step: batched vs per-rank looped.

    Rows use single-sample per-rank batches — the regime the campaign actually
    hits at high world sizes (its 64-sample golden dataset shards to one
    sample per rank at 64 ranks), and the one that isolates the per-rank
    dispatch overhead batched execution amortises.  The headline row pair is
    w16 batched vs looped — their ratio is the derived
    ``train_step_batched_speedup_vs_looped_w16`` metric — plus a w64 batched
    row showing the strategy holds as the world grows.  Execution strategy is
    encoded in the row name; ``meta`` stays numeric so the regression gate's
    workload comparison keeps working.
    """
    repeats, warmup = (3, 1) if quick else (9, 2)
    cases = [
        (16, "batched"),
        (16, "looped"),
        (64, "batched"),
    ]
    results = []
    for world_size, execution in cases:
        step, meta = _train_step_setup(
            "float64", world_size=world_size, execution=execution, batch_size=1
        )
        results.append(
            time_callable(
                step,
                name=f"train_step/float64/resnet18/w{world_size}/{execution}",
                repeats=repeats,
                warmup=warmup,
                meta=meta,
            )
        )
    return results


def bench_codec(quick: bool) -> List[BenchResult]:
    """Encode→aggregate→decode round trips of representative pipelines."""
    from repro.comm.process_group import ProcessGroup  # noqa: PLC0415
    from repro.compression.registry import build_compressor  # noqa: PLC0415
    from repro.ddp.bucket import Bucket, BucketSlice, GradBucket  # noqa: PLC0415

    numel = 50_000 if quick else 200_000
    world = 4
    repeats, warmup = (5, 1) if quick else (15, 3)
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((world, numel))
    # Real per-rank gradients are ~80 % exact zeros (ReLU): the tie mass the
    # Gaussian rows cannot show and top-k selection cost depends on.
    relu_sparse = matrix * (rng.random(matrix.shape) < 0.2)
    bucket = Bucket(index=0, slices=[BucketSlice("flat", 0, numel, (numel,))])

    cases = [
        (spec, f"codec/{spec}", matrix)
        for spec in ("fp16", "topk0.01", "topk0.01+terngrad", "randomk0.1")
    ]
    cases.append(("topk0.01", "codec/topk0.01/relu-sparse", relu_sparse))

    results = []
    for spec, name, gradients in cases:
        compressor = build_compressor(spec, seed=0)
        group = ProcessGroup(world)

        def roundtrip(compressor=compressor, group=group, gradients=gradients) -> None:
            grad_bucket = GradBucket(bucket, matrix=gradients)
            compressor.aggregate(grad_bucket, group, iteration=0)
            group.events.clear()

        results.append(
            time_callable(
                roundtrip,
                name=name,
                repeats=repeats,
                warmup=warmup,
                meta={"numel": numel, "world_size": world},
            )
        )
    return results


def bench_engine(quick: bool) -> BenchResult:
    """Event-loop throughput: many buckets over heterogeneous ranks."""
    from repro.simulation.engine import SimulationEngine  # noqa: PLC0415

    iterations = 100 if quick else 400
    ranks = 8
    buckets = 32
    engine = SimulationEngine(overlap=True)
    per_rank_compute = [0.01 * (1.0 + 0.05 * rank) for rank in range(ranks)]
    fractions = [(index + 1) / buckets for index in range(buckets)]
    comm = [0.001 + 0.0001 * index for index in range(buckets)]

    def run() -> None:
        for _ in range(iterations):
            engine.run_iteration(per_rank_compute, fractions, comm)

    return time_callable(
        run,
        name="engine/event_loop",
        repeats=5 if quick else 9,
        warmup=1 if quick else 2,
        meta={"iterations": iterations, "ranks": ranks, "buckets": buckets},
    )


def bench_campaign_dispatch(quick: bool) -> BenchResult:
    """Campaign expansion + content-address fingerprinting of every cell."""
    from repro.campaign.spec import CampaignSpec  # noqa: PLC0415

    spec = CampaignSpec(
        name="perf-dispatch",
        base={"epochs": 2, "dataset_samples": 64, "max_iterations_per_epoch": 1},
        axes={
            "model": ["resnet18", "vgg19", "vit-base-16", "mlp"],
            "method": ["all-reduce", "fp16", "topk-0.01", "pactrain"],
            "bandwidth": ["100Mbps", "1Gbps"],
            "seed": [0, 1],
        },
    )

    def dispatch() -> None:
        for cell in spec.expand():
            cell.fingerprint()

    return time_callable(
        dispatch,
        name="campaign/dispatch",
        repeats=3 if quick else 7,
        warmup=1,
        meta={"cells": float(len(spec.expand()))},
    )


def _kernel_backends():
    """The backends to measure kernel rows for: numpy plus every optional
    backend whose library imports *and* whose construction did not degrade.

    Resolved through the process cache so numba's JIT compilation and probes
    are paid once across the three kernel benchmark groups.
    """
    from repro.tensorlib.backend import available_backends, shared_backend  # noqa: PLC0415

    backends = []
    for name in available_backends():
        backend = shared_backend(name)
        if backend.name == name:
            backends.append((name, backend))
    return backends


def bench_im2col(quick: bool) -> List[BenchResult]:
    """The im2col patch gather (conv/pool forward + transposed-conv grad).

    One large-image row (34x34, shrunk by ``--quick``) and two rows at the
    geometry the conv benchmark workloads actually run — world 8 x 16 samples
    x 8 channels of 10x10 padded images, kernel 3 — at stride 1 and stride 2.
    """
    repeats, warmup = (9, 2) if quick else (25, 5)
    shapes = [
        ("", (4, 8, 34, 34) if quick else (16, 16, 34, 34), 1),
        ("/w8n16c8", (128, 8, 10, 10), 1),
        ("/w8n16c8/s2", (128, 8, 10, 10), 2),
    ]
    kernel = (3, 3)
    rng = np.random.default_rng(0)
    results = []
    for suffix, shape, step in shapes:
        padded = rng.standard_normal(shape)
        n, c, hp, wp = shape
        stride = (step, step)
        out_hw = ((hp - 3) // step + 1, (wp - 3) // step + 1)
        meta = {"n": n, "c": c, "hp": hp, "wp": wp, "k": 3, "stride": step}
        for name, backend in _kernel_backends():
            results.append(
                time_callable(
                    lambda backend=backend: backend.im2col_gather(padded, kernel, stride, out_hw),
                    name=f"im2col/{name}{suffix}",
                    repeats=repeats,
                    warmup=warmup,
                    meta=meta,
                )
            )
    return results


def bench_pool(quick: bool) -> List[BenchResult]:
    """Pooling window reductions (max with argmax, mean) over im2col windows."""
    repeats, warmup = (9, 2) if quick else (25, 5)
    flat = 512 if quick else 2048
    length, k = 64, 9
    rng = np.random.default_rng(1)
    cols = rng.standard_normal((flat, length, k))
    meta = {"flat": flat, "length": length, "k": k}
    results = []
    for name, backend in _kernel_backends():

        def reduce_windows(backend=backend) -> None:
            backend.pool_reduce(cols, "max")
            backend.pool_reduce(cols, "mean")

        results.append(
            time_callable(
                reduce_windows,
                name=f"pool/{name}",
                repeats=repeats,
                warmup=warmup,
                meta=meta,
            )
        )
    return results


def bench_fused_norm(quick: bool) -> List[BenchResult]:
    """Fused LayerNorm statistics + backward over the last axis (float32)."""
    repeats, warmup = (9, 2) if quick else (25, 5)
    shape = (32, 64, 256) if quick else (128, 197, 256)
    axes = (len(shape) - 1,)
    rng = np.random.default_rng(2)
    data = rng.standard_normal(shape).astype(np.float32)
    grad = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal(shape[-1]).astype(np.float32)
    meta = {"rows": shape[0] * shape[1], "dim": shape[-1]}
    results = []
    for name, backend in _kernel_backends():

        def norm_roundtrip(backend=backend) -> None:
            _, _, inv_std, x_hat = backend.fused_norm_stats(data, axes, 1e-5)
            backend.fused_norm_backward(grad, w, x_hat, inv_std, axes)

        results.append(
            time_callable(
                norm_roundtrip,
                name=f"fused_norm/{name}",
                repeats=repeats,
                warmup=warmup,
                meta=meta,
            )
        )
    return results


def bench_batchnorm(quick: bool) -> List[BenchResult]:
    """Float64 training-mode ``BatchNorm2d`` forward + backward (one graph node).

    The two extremes of the benchmark ResNet-18's twenty BatchNorm calls —
    world 8 x 16 samples of 8 channels at 8x8 (the stem and layer1) and of 64
    channels at 1x1 (layer4) — with the channels-innermost strided layout
    ``conv2d`` hands over and a dense upstream gradient.
    """
    from repro.nn.layers import BatchNorm2d  # noqa: PLC0415
    from repro.tensorlib import Tensor, default_dtype  # noqa: PLC0415

    repeats, warmup = (9, 2) if quick else (25, 5)
    rng = np.random.default_rng(3)
    results = []
    for suffix, (n, c, h, w) in (("w8n16c8", (128, 8, 8, 8)), ("c64s1", (128, 64, 1, 1))):
        data = rng.standard_normal((n, h, w, c)).transpose(0, 3, 1, 2)
        grad = rng.standard_normal((n, c, h, w))
        layer = BatchNorm2d(c)

        def forward_backward(layer=layer, data=data, grad=grad) -> None:
            with default_dtype("float64"):
                layer.zero_grad()
                layer(Tensor(data, requires_grad=True)).backward(grad)

        results.append(
            time_callable(
                forward_backward,
                name=f"batchnorm/float64/{suffix}",
                repeats=repeats,
                warmup=warmup,
                meta={"n": n, "c": c, "h": h, "w": w},
            )
        )
    return results


def bench_backend_sweep(quick: bool) -> List[BenchResult]:
    """End-to-end campaign wall-clock per backend (the ``backend`` axis).

    Each row trains the same tiny 2-rank conv campaign with its cells pinned
    to one backend via ``ExperimentConfig.backend`` — the exact mechanism a
    real sweep's ``backend`` axis uses — so the rows show whether a backend
    moves campaign time where the north-star workload lives.
    """
    from repro.campaign.runner import run_campaign  # noqa: PLC0415
    from repro.campaign.spec import CampaignSpec  # noqa: PLC0415

    repeats, warmup = (3, 1) if quick else (5, 1)
    results = []
    for name, _ in _kernel_backends():
        spec = CampaignSpec(
            name=f"perf-backend-sweep-{name}",
            base={
                "model": "resnet18",
                "epochs": 1,
                "batch_size": 4,
                "dataset_samples": 16,
                "image_size": 8,
                "pretrain_iterations": 0,
                "max_iterations_per_epoch": 2,
                "world_size": 2,
                "bandwidth": "100Mbps",
                "backend": name,
            },
            axes={"seed": [0, 1], "method": ["all-reduce", "topk-0.01"]},
        )

        def sweep(spec=spec) -> None:
            run_campaign(spec, store=None, jobs=1, recompute=True)

        results.append(
            time_callable(
                sweep,
                name=f"campaign/backend_sweep/{name}",
                repeats=repeats,
                warmup=warmup,
                meta={"cells": float(len(spec.expand()))},
            )
        )
    return results


#: name -> factory returning one result or a list of results.
SUITE: Dict[str, Callable[[bool], object]] = {
    "train_step": bench_train_step,
    "train_step_scaling": bench_train_step_scaling,
    "codec": bench_codec,
    "engine": bench_engine,
    "campaign": bench_campaign_dispatch,
    "im2col": bench_im2col,
    "pool": bench_pool,
    "fused_norm": bench_fused_norm,
    "batchnorm": bench_batchnorm,
    "backend_sweep": bench_backend_sweep,
}


def host_fingerprint() -> Dict[str, str]:
    """Identify the measuring host: interpreter, numpy build, architecture.

    Medians from different hosts are not comparable; the fingerprint is stored
    in every report so ``check_regressions`` consumers (the CLI's ``--check``)
    can downgrade cross-host comparisons to warnings instead of failures.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def hosts_match(baseline: Dict) -> bool:
    """Whether ``baseline`` (a report document) was measured on this host."""
    return dict(baseline.get("host", {})) == host_fingerprint()


# --------------------------------------------------------------------------- #
# Runner / report / regression check
# --------------------------------------------------------------------------- #
def run_suite(
    quick: bool = False,
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[BenchResult], None]] = None,
) -> Dict[str, BenchResult]:
    """Run (a subset of) the suite; returns results keyed by benchmark name."""
    selected = list(SUITE) if not only else only
    unknown = set(selected) - set(SUITE)
    if unknown:
        raise KeyError(f"unknown perf benchmarks {sorted(unknown)}; available: {sorted(SUITE)}")
    results: Dict[str, BenchResult] = {}
    for key in selected:
        outcome = SUITE[key](quick)
        for result in outcome if isinstance(outcome, list) else [outcome]:
            results[result.name] = result
            if progress is not None:
                progress(result)
    return results


def _derived_metrics(results: Dict[str, BenchResult]) -> Dict[str, float]:
    derived: Dict[str, float] = {}
    f64 = results.get("train_step/float64/resnet18/w4")
    f32 = results.get("train_step/float32/resnet18/w4")
    if f64 and f32 and f32.median_s > 0:
        derived["train_step_float32_speedup_vs_float64"] = f64.median_s / f32.median_s
    batched = results.get("train_step/float64/resnet18/w16/batched")
    looped = results.get("train_step/float64/resnet18/w16/looped")
    if batched and looped and batched.median_s > 0:
        derived["train_step_batched_speedup_vs_looped_w16"] = looped.median_s / batched.median_s
    # Per-kernel and end-to-end backend speedups vs the numpy reference row.
    # Metrics only appear when both rows were measured (i.e. the accelerated
    # backend's library is installed and its probes accepted it).
    for group, metric in (
        ("pool", "pool_numba_speedup_vs_numpy"),
        ("fused_norm", "fused_norm_numba_speedup_vs_numpy"),
        ("campaign/backend_sweep", "campaign_backend_sweep_numba_speedup_vs_numpy"),
    ):
        reference = results.get(f"{group}/numpy")
        accelerated = results.get(f"{group}/numba")
        if reference and accelerated and accelerated.median_s > 0:
            derived[metric] = reference.median_s / accelerated.median_s
    return derived


def write_report(
    results: Dict[str, BenchResult],
    path: str,
    quick: bool,
    seed_baseline: Optional[Dict] = None,
) -> Dict:
    """Write the ``BENCH_perf.json`` document and return it.

    ``seed_baseline`` (when given, e.g. copied forward from the committed
    report) records the pre-optimisation measurements and the speedups of the
    current run against them.
    """
    document: Dict = {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "host": host_fingerprint(),
        "results": {name: result.to_dict() for name, result in sorted(results.items())},
        "derived": _derived_metrics(results),
    }
    if seed_baseline:
        document["seed_baseline"] = seed_baseline
        speedups = {}
        for name, entry in seed_baseline.get("results", {}).items():
            current = results.get(name)
            baseline_median = entry.get("median_s", 0.0)
            if current and current.median_s > 0 and baseline_median:
                speedups[name] = baseline_median / current.median_s
        # The seed tree has no float32 path; its train-step baseline is the
        # float64 measurement, so the float32 row is also compared against it.
        f32 = results.get("train_step/float32/resnet18/w4")
        seed_f64 = seed_baseline.get("results", {}).get("train_step/float64/resnet18/w4", {})
        if f32 and f32.median_s > 0 and seed_f64.get("median_s"):
            speedups["train_step/float32/resnet18/w4"] = seed_f64["median_s"] / f32.median_s
        document["speedup_vs_seed"] = speedups
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def check_regressions(
    results: Dict[str, BenchResult],
    baseline: Dict,
    max_regression: float = 0.25,
) -> List[Tuple[str, float, float]]:
    """Compare run medians against a baseline report document.

    Returns ``(name, current_median, baseline_median)`` for every benchmark
    whose median exceeds the baseline by more than ``max_regression``
    (fractional; 0.25 = 25 % slower).  Benchmarks missing on either side are
    skipped — adding a new benchmark must not fail old baselines — and so are
    benchmarks whose ``meta`` (workload size) differs from the baseline's:
    a ``--quick`` run's shrunken codec/engine workloads are not comparable to
    full-mode medians, while same-workload benches (train step) still gate.
    """
    regressions: List[Tuple[str, float, float]] = []
    for name, entry in baseline.get("results", {}).items():
        current = results.get(name)
        baseline_median = float(entry.get("median_s", 0.0))
        if current is None or baseline_median <= 0.0:
            continue
        if dict(entry.get("meta", {})) != dict(current.meta):
            continue
        if current.median_s > baseline_median * (1.0 + max_regression):
            regressions.append((name, current.median_s, baseline_median))
    return regressions
