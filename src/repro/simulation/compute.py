"""Compute-time model.

Per-iteration compute time is estimated analytically as

    time = flops(forward) * backward_factor * batch_size / device_throughput

where the forward FLOPs are derived from the model's actual layer shapes.  The
default device spec is calibrated so that the *ratio* of compute time to
communication time for the mini models matches the ratio the paper's full-size
models exhibit on A40 GPUs — that ratio, not the absolute numbers, is what
shapes the relative-TTA figures (compression helps most when communication
dominates; its advantage shrinks as bandwidth grows and compute becomes a
larger fraction of the iteration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.nn.layers import Conv2d, Linear, MultiHeadAttention, BatchNorm2d, LayerNorm
from repro.nn.module import Module

#: Backward pass costs roughly twice the forward pass.
BACKWARD_FACTOR = 3.0


@dataclass(frozen=True)
class DeviceSpec:
    """A training device characterised by its effective throughput.

    ``flops_per_second`` is the *achieved* (not peak) throughput for the
    workload.  ``sim_gpu`` is the default used with the mini models: it keeps
    the compute:communication balance of the full-scale workloads (see module
    docstring); ``a40`` carries the paper's hardware figure for use with the
    full-size models.
    """

    name: str
    flops_per_second: float

    def __post_init__(self) -> None:
        if self.flops_per_second <= 0:
            raise ValueError("flops_per_second must be positive")

    def to_dict(self) -> Dict[str, float]:
        return {"name": self.name, "flops_per_second": self.flops_per_second}

    @classmethod
    def from_dict(cls, data: Dict) -> "DeviceSpec":
        return cls(name=data["name"], flops_per_second=float(data["flops_per_second"]))


#: Effective throughput presets.
DEVICE_PRESETS = {
    # Scaled device matched to the mini models (see module docstring).
    "sim-gpu": DeviceSpec("sim-gpu", 2.0e9),
    # NVIDIA A40, ~37 TFLOP/s peak fp32, ~50% utilisation.
    "a40": DeviceSpec("a40", 18.0e12),
}


def _conv_output_hw(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _walk_module_flops(
    model: Module,
    input_shape: Tuple[int, int, int],
) -> Iterator[Tuple[str, Module, float]]:
    """Yield ``(name, module, forward_flops)`` for every counted module.

    The single source of the per-layer counting rules: convolutions, linear
    layers, attention projections and normalisation layers are counted from
    their parameter shapes; cheap elementwise layers are skipped.  Spatial
    sizes for convolutions are tracked approximately by walking the module
    tree in registration order, which is exact for the sequential backbones
    used here and a close bound for residual models.
    """
    _, height, _ = input_shape
    spatial = height  # assume square inputs

    for name, module in model.named_modules():
        if isinstance(module, Conv2d):
            out_hw = _conv_output_hw(spatial, module.kernel_size, module.stride, module.padding)
            kernel_flops = 2.0 * module.in_channels * module.kernel_size ** 2
            yield name, module, kernel_flops * module.out_channels * out_hw * out_hw
            if module.stride > 1:
                spatial = max(1, out_hw)
        elif isinstance(module, Linear):
            yield name, module, 2.0 * module.in_features * module.out_features
        elif isinstance(module, MultiHeadAttention):
            # QK^T and attention-weighted V, on top of the qkv/proj Linears
            # which are counted separately above.
            yield name, module, 4.0 * module.embed_dim * module.embed_dim
        elif isinstance(module, (BatchNorm2d, LayerNorm)):
            yield name, module, 4.0 * sum(p.size for p in module.parameters())


def estimate_model_flops(
    model: Module,
    input_shape: Tuple[int, int, int],
    batch_size: int = 1,
) -> float:
    """Estimate forward-pass FLOPs for one batch (see :func:`_walk_module_flops`)."""
    flops = 0.0
    for _, _, module_flops in _walk_module_flops(model, input_shape):
        flops += module_flops
    return flops * batch_size


def estimate_parameter_flops(
    model: Module,
    input_shape: Tuple[int, int, int],
) -> Dict[str, float]:
    """Attribute each module's forward FLOPs to its parameters, by name.

    Uses the same walk as :func:`estimate_model_flops` and splits each
    module's FLOPs across its parameters proportionally to parameter size (a
    module with no direct parameters, e.g. the attention score computation,
    spreads its cost over its descendants' parameters).  The result maps the
    names produced by ``model.named_parameters()`` to FLOP shares; parameters
    of uncounted (cheap, elementwise) modules map to ``0.0``.

    The per-bucket backward completion fractions that drive the overlap
    engine are derived from these shares — backward work for a parameter is
    proportional to the forward FLOPs of the layer it belongs to.
    """
    shares: Dict[str, float] = {name: 0.0 for name, _ in model.named_parameters()}

    for prefix, module, flops in _walk_module_flops(model, input_shape):
        direct = [
            ((f"{prefix}.{local}" if prefix else local), param)
            for local, param in module._parameters.items()
        ]
        targets = direct or list(module.named_parameters(prefix))
        total = float(sum(param.size for _, param in targets))
        if not targets or total == 0.0:
            continue
        for name, param in targets:
            shares[name] += flops * (param.size / total)
    return shares


class ComputeModel:
    """Convert a model + batch size into per-iteration compute seconds.

    Modeled time describes one rank of the *simulated* cluster, so it is
    deliberately independent of how the host evaluates the replicas (per-rank
    loop or world-batched pass).  Only the workload (model, batch, device,
    sparsity) moves these numbers.
    """

    def __init__(
        self,
        device: DeviceSpec | str = "sim-gpu",
        backward_factor: float = BACKWARD_FACTOR,
        sparse_speedup: bool = False,
    ) -> None:
        if isinstance(device, str):
            if device not in DEVICE_PRESETS:
                raise KeyError(f"unknown device preset {device!r}; options: {sorted(DEVICE_PRESETS)}")
            device = DEVICE_PRESETS[device]
        self.device = device
        self.backward_factor = backward_factor
        #: Whether pruning also shrinks compute time (optional extension; the
        #: paper's evaluation keeps dense kernels, so the default is False).
        self.sparse_speedup = sparse_speedup

    def iteration_time(
        self,
        model: Module,
        input_shape: Tuple[int, int, int],
        batch_size: int,
        weight_sparsity: float = 0.0,
    ) -> float:
        """Modeled seconds of compute for one forward+backward pass on one rank."""
        flops = estimate_model_flops(model, input_shape, batch_size) * self.backward_factor
        if self.sparse_speedup and weight_sparsity > 0.0:
            # Unstructured sparsity rarely converts 1:1 into speedup; assume
            # half of the theoretical reduction is realised.
            flops *= 1.0 - 0.5 * weight_sparsity
        return flops / self.device.flops_per_second

    @property
    def forward_fraction(self) -> float:
        """Fraction of an iteration spent in the forward pass (before any
        gradient exists).  With the default ``backward_factor`` of 3 the
        forward pass is one third of the iteration and backward the rest."""
        return 1.0 / self.backward_factor

    def bucket_completion_fractions(
        self,
        model: Module,
        input_shape: Tuple[int, int, int],
        buckets: Sequence,
    ) -> List[float]:
        """Cumulative iteration-completion fraction at which each bucket is ready.

        ``buckets`` follow :func:`repro.ddp.bucket.build_buckets` order —
        reverse parameter order, so bucket 0 (the classifier head) finishes
        its backward computation *first*.  Each bucket's backward cost is the
        FLOP share of its parameters (:func:`estimate_parameter_flops`, with a
        parameter-count fallback for models whose layers are all uncounted);
        the returned fractions are

            ``forward_fraction + backward_fraction * cumulative_share``

        and the last entry is exactly ``1.0``, so a single-bucket model is
        ready only when the whole pass ends (no overlap possible).
        """
        buckets = list(buckets)
        if not buckets:
            return []
        shares = estimate_parameter_flops(model, input_shape)
        weights = [
            sum(shares.get(piece.param_name, 0.0) for piece in bucket.slices)
            for bucket in buckets
        ]
        total = sum(weights)
        if total <= 0.0:
            weights = [float(bucket.numel) for bucket in buckets]
            total = sum(weights)
        if total <= 0.0:
            return [1.0 for _ in buckets]

        forward = self.forward_fraction
        backward = 1.0 - forward
        fractions: List[float] = []
        cumulative = 0.0
        for weight in weights:
            cumulative += weight
            fractions.append(min(1.0, forward + backward * (cumulative / total)))
        fractions[-1] = 1.0
        return fractions
