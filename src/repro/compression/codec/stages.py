"""Codec stages: composable encode/decode operators over wire payloads.

A :class:`Codec` maps payloads to payloads.  Encoding starts from a
:class:`~repro.compression.codec.payloads.DensePayload` wrapping one rank's
flat bucket gradient and may shrink it (sparsify, quantise, cast); decoding
reverses the chain back to a dense tensor.  Stages compose left-to-right via
:class:`~repro.compression.codec.pipeline.Pipeline` — e.g.
``Pipeline([TopK(0.01), Ternarize()])`` selects the top 1 % coordinates and
then ternarises the selected values, which is the paper's prune+TernGrad
composition (§III.D) expressed as two independent operators.

Cross-rank coordination (shared scalers, shared random selections, batched
top-k selection across ranks) happens in :meth:`Codec.prepare`, which sees all
ranks' stage inputs at once and may issue collectives through the encode
context's process group so the cost model charges them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.codec.payloads import (
    DensePayload,
    FP16_BYTES,
    HalfPayload,
    LowRankPayload,
    SignPayload,
    SparsePayload,
    TERNARY_BYTES,
    TernaryPayload,
    WirePayload,
    pack_ternary,
)
from repro.obs.tracer import TRACER
from repro.tensorlib.dtypes import as_compute_array, float_dtype_of


@dataclass
class EncodeContext:
    """Per-aggregation context shared by every stage of a pipeline.

    ``group`` is the process group coordination collectives are issued through
    (``None`` runs codecs standalone, e.g. in unit tests, skipping the
    collectives but computing the same shared quantities locally).  ``shared``
    is scratch space where :meth:`Codec.prepare` deposits per-aggregation
    results (selections, scalers) for the subsequent ``encode`` calls.
    """

    world_size: int = 1
    bucket_index: int = 0
    iteration: int = 0
    group: Optional[object] = None
    shared: Dict = field(default_factory=dict)
    #: The raw ``(world_size, numel)`` gradient matrix for this bucket, when
    #: the caller (the codec driver over an arena-backed bucket) already holds
    #: one.  Consumed by the *first* stage of a pipeline — whose inputs are by
    #: construction the matrix's rows — to skip the ``np.stack`` re-pack; the
    #: pipeline clears it before later stages run.  Stages must treat it as
    #: read-only and keep no reference past the call: it is the DDP arena, or
    #: under driver error feedback the compressor's own residual.
    matrix: Optional[object] = None


class Codec:
    """One encode/decode stage of a compression pipeline."""

    name: str = "codec"
    #: Whether encoded payloads from different ranks are element-wise summable.
    allreduce_compatible: bool = True
    #: Whether decode(encode(x)) == x exactly.
    lossless: bool = False
    #: Whether the stage reads the dense gradient (it selects, projects or
    #: takes signs of coordinates), so only stages that pass it through
    #: unchanged may precede it — checked when the pipeline is built.
    dense_input: bool = False
    #: Whether the stage hands on the :class:`DensePayload` it received.
    dense_output: bool = False

    def prepare(self, inputs: List[WirePayload], ctx: EncodeContext) -> None:
        """Cross-rank coordination before encoding (default: none)."""

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        raise NotImplementedError

    def decode(self, payload: WirePayload) -> WirePayload:
        """Undo this stage's encoding on a (reduced or gathered) payload.

        A selection stays a :class:`SparsePayload`: the pipeline densifies
        once at the end if a dense array is asked for, and the aggregation
        driver accumulates gathered selections without densifying at all.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-bucket state (error feedback, momentum, RNG)."""

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        """Adapt per-rank state to a membership change (default: nothing to do).

        Stages whose per-bucket buffers are rank-indexed — one row per member
        of the old active set — override this to remap rows onto the new
        membership (see :func:`remap_rank_rows`).  Stateless stages and
        stages whose state is shared across ranks ignore it.
        """

    def spec(self) -> str:
        """Registry spec token for this stage (inverse of ``parse_codec_spec``)."""
        return self.name

    def __add__(self, other: "Codec"):
        from repro.compression.codec.pipeline import Pipeline  # noqa: PLC0415

        return Pipeline([self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.spec()!r})"


def _dense_input(payload: WirePayload, stage: str) -> np.ndarray:
    if not isinstance(payload, DensePayload):
        raise TypeError(
            f"{stage} must be the first stage of a pipeline (it selects dense "
            f"coordinates), got upstream payload {type(payload).__name__}"
        )
    return as_compute_array(payload.values)


def _stacked_inputs(inputs: List[WirePayload], ctx: EncodeContext, stage: str) -> np.ndarray:
    """The ``(world, numel)`` matrix of a stage's dense inputs.

    Uses the bucket's arena matrix directly when the encode context carries
    one (zero-copy); otherwise stacks the per-rank payload values.
    """
    if ctx.matrix is not None:
        return ctx.matrix
    return np.stack([_dense_input(p, stage) for p in inputs])


# --------------------------------------------------------------------------- #
# Selection helpers (vectorised across ranks)
# --------------------------------------------------------------------------- #
def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries of a 1-D array.

    The reference oracle: one full ``argpartition``.  Production selection
    goes through :func:`batched_top_k_indices`, which must pick the same set.
    """
    if k >= values.size:
        return np.arange(values.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    return np.argpartition(np.abs(values), values.size - k)[values.size - k:]


#: Rows shorter than this keep the single batched ``argpartition``.  Measured
#: break-even on tie-free (Gaussian) rows, where introselect is at its best:
#: at 32 768 elements the sampled selector matches or beats it for 1-16 rows,
#: ratios 0.01-0.1, float32 and float64; at 16 384 it still loses 0-40 %.
#: (On ReLU-sparse rows it wins from ~2 000 elements, but the floor is set so
#: that sparsifying ratios get slower on no input.  Not covered: selecting
#: more than ~0.3 of a tie-free row costs 1.1-1.7x the single call, because
#: the candidate set is then most of the row; half-zero rows still win 4x
#: there, so no ratio cap was added.)
SAMPLED_SELECT_FLOOR = 32_768
#: Every ``SAMPLE_STRIDE``-th magnitude proposes the threshold.  Strides 8-128
#: time within noise of each other on a (8, 315 010) gradient matrix (the full
#: passes dominate); 32 keeps >= 1 024 samples at the floor.
SAMPLE_STRIDE = 32
#: The threshold is the sample's ``hits + SAMPLE_MARGIN_SIGMAS * sqrt(hits)``-th
#: largest, ``hits = k / SAMPLE_STRIDE`` being the expected number of sampled
#: top-k members: four binomial standard deviations of slack left >= 1.28 k
#: candidates on every measured gradient row (mean 1.57 k).
SAMPLE_MARGIN_SIGMAS = 4.0


def _sampled_top_k(magnitudes: np.ndarray, k: int) -> Tuple[Optional[np.ndarray], str]:
    """Exact top-``k`` of one row of magnitudes, or the reason it is uncertified.

    A strided sample proposes a lower bound on the k-th largest magnitude; the
    bound only shrinks the row to a candidate set, and exactness rests on
    counts alone: at least ``k`` candidates (so the k-th largest is one of
    them) and no candidate outside the selection equal to the k-th largest
    (so the set is unique).  Returns ``(indices, "")`` or ``(None, reason)``.
    """
    # max() propagates NaN, which every ``>=`` below would silently drop.
    if not np.isfinite(magnitudes.max()):
        return None, "nonfinite"
    sample = magnitudes[::SAMPLE_STRIDE]
    hits = k / SAMPLE_STRIDE
    rank = int(hits + SAMPLE_MARGIN_SIGMAS * np.sqrt(hits)) + 2
    if rank >= sample.size:
        return None, "short"
    bound = np.partition(sample, sample.size - rank)[sample.size - rank]
    # A zero bound would admit the whole zero mass; ``> 0`` still keeps every
    # possible member whenever the k-th largest is nonzero.
    candidates = np.flatnonzero(magnitudes >= bound if bound > 0 else magnitudes > 0)
    spare = candidates.size - k
    if spare < 0:
        return None, "short"
    candidate_magnitudes = magnitudes[candidates]
    order = np.argpartition(candidate_magnitudes, spare)
    if spare and candidate_magnitudes[order[:spare]].max() == candidate_magnitudes[order[spare]]:
        return None, "tie"
    return candidates[order[spare:]], ""


def batched_top_k_indices(matrix: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the ``k`` largest-magnitude entries of a 2-D array.

    **Contract.**  Each row's result selects the same coordinate *set* as
    :func:`top_k_indices` on that row and does not depend on the other rows.
    Coordinate *order* within a row is deterministic (no RNG, no dependence on
    anything but the row) but unspecified for rows of at least
    :data:`SAMPLED_SELECT_FLOOR` elements; only a positional stage downstream
    (``Ternarize``) can observe it.

    Rows below the floor are selected by one batched ``argpartition`` over the
    whole matrix.  Longer rows go through :func:`_sampled_top_k` one at a
    time — real gradient rows are mostly exact zeros (ReLU), and introselect
    degenerates on that tie mass (10x slower than on Gaussian data of the same
    shape) while a threshold drops it in one comparison pass — and fall back
    to the reference ``argpartition`` of that row whenever counting cannot
    certify the result: fewer than ``k`` candidates, a tie at the k-th
    magnitude (the reference's pick among equals is the definition), or
    non-finite values.
    """
    rows, numel = matrix.shape
    if k >= numel:
        return np.tile(np.arange(numel), (rows, 1))
    if k <= 0:
        return np.empty((rows, 0), dtype=np.int64)
    # Reference fallbacks by reason -> row count (published only when tracing).
    fallbacks: Dict[str, int] = {}
    if numel < SAMPLED_SELECT_FLOOR:
        fallbacks["floor"] = rows
        indices = np.argpartition(np.abs(matrix), numel - k, axis=1)[:, numel - k:]
    else:
        indices = np.empty((rows, k), dtype=np.int64)
        for row in range(rows):
            magnitudes = np.abs(matrix[row])
            selected, reason = _sampled_top_k(magnitudes, k)
            if selected is None:
                fallbacks[reason] = fallbacks.get(reason, 0) + 1
                selected = np.argpartition(magnitudes, numel - k)[numel - k:]
            indices[row] = selected
    if TRACER.enabled:
        TRACER.metrics.inc("codec.topk_rows", float(rows))
        for reason, count in fallbacks.items():
            TRACER.metrics.inc(f"codec.topk_reference_rows.{reason}", float(count))
    return indices


def remap_rank_rows(
    state: Dict[int, np.ndarray],
    old_ranks: Sequence[int],
    new_ranks: Sequence[int],
    policy: str = "carry",
) -> None:
    """Remap rank-indexed per-bucket matrices onto a new active membership.

    ``state`` maps bucket index to a ``(len(old_ranks), numel)`` matrix whose
    row *i* belongs to global rank ``old_ranks[i]``.  Under ``"carry"`` each
    surviving rank keeps its row at its new position and newly-joined ranks
    start from zeros (a re-joining worker has no residual history); under
    ``"zero"`` every rank restarts from zeros.  Matrices whose row count does
    not match ``old_ranks`` (stale buffers from before an earlier resize) are
    zeroed rather than mis-attributed.
    """
    if policy not in ("carry", "zero"):
        raise ValueError(f"policy must be 'carry' or 'zero', got {policy!r}")
    old_position = {rank: i for i, rank in enumerate(old_ranks)}
    for bucket_index, matrix in state.items():
        resized = np.zeros((len(new_ranks), matrix.shape[1]), dtype=matrix.dtype)
        if policy == "carry" and matrix.shape[0] == len(old_ranks):
            for position, rank in enumerate(new_ranks):
                source = old_position.get(rank)
                if source is not None:
                    resized[position] = matrix[source]
        state[bucket_index] = resized


# --------------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------------- #
class Identity(Codec):
    """No-op codec: dense fp32 on the wire (the all-reduce baseline)."""

    name = "fp32"
    lossless = True
    dense_output = True

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        return payload

    def decode(self, payload: WirePayload) -> WirePayload:
        return payload


class Half(Codec):
    """Cast values to fp16 (2 bytes per element on the wire)."""

    name = "fp16"
    lossless = False

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        if isinstance(payload, DensePayload):
            return HalfPayload(payload.values.astype(np.float16))
        if isinstance(payload, SparsePayload):
            # Round-trip through fp16 (the wire precision), back to the
            # payload's own compute dtype — no float64 leak on the f32 path.
            halved = payload.values.astype(np.float16).astype(
                float_dtype_of(np.asarray(payload.values))
            )
            return SparsePayload(
                payload.indices, halved, payload.numel,
                value_bytes=FP16_BYTES,
                indices_on_wire=payload.indices_on_wire,
                shared_selection=payload.shared_selection,
            )
        raise TypeError(f"cannot cast {type(payload).__name__} to fp16")

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, HalfPayload):
            return DensePayload(payload.reduce_values())
        return payload


class TopK(Codec):
    """Per-rank top-k magnitude selection with optional error feedback.

    Every rank selects a different coordinate set, so encoded payloads are not
    summable and aggregation must use all-gather — the all-reduce
    incompatibility the paper's Table 1 flags for TopK/DGC.

    With ``error_feedback`` the stage owns one ``(world, numel)`` residual per
    bucket and compensates **in place**: the step's gradients are added into
    the residual, the selection reads the residual, and the transmitted
    coordinates are then zeroed in it — no compensated copy of the matrix is
    built.  The stage never writes the encode context's matrix.
    """

    allreduce_compatible = False
    lossless = False
    dense_input = True

    def __init__(self, ratio: float = 0.1, error_feedback: bool = True) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio
        self.error_feedback = error_feedback
        self.name = f"topk{ratio:g}"
        # residuals[bucket_index] -> (world, numel) unsent gradient mass
        self._residuals: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._residuals.clear()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        remap_rank_rows(self._residuals, old_ranks, new_ranks, policy)

    def prepare(self, inputs: List[WirePayload], ctx: EncodeContext) -> None:
        matrix = _stacked_inputs(inputs, ctx, "TopK")
        numel = matrix.shape[1]
        k = max(1, int(round(numel * self.ratio)))

        residual = None
        if self.error_feedback:
            residual = self._residuals.get(ctx.bucket_index)
            if (
                residual is not None
                and residual.shape == matrix.shape
                and residual.dtype == matrix.dtype
            ):
                np.add(matrix, residual, out=residual)
            else:
                # First call, or the bucket changed shape or dtype: start from
                # a copy — the matrix is the caller's (often the arena).
                residual = self._residuals[ctx.bucket_index] = matrix.copy()
            matrix = residual

        indices = batched_top_k_indices(matrix, k)
        values = np.take_along_axis(matrix, indices, axis=1)

        if residual is not None:
            np.put_along_axis(residual, indices, 0.0, axis=1)

        ctx.shared[id(self)] = (indices, values, numel)

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        indices, values, numel = ctx.shared[id(self)]
        return SparsePayload(
            indices[rank], values[rank], numel,
            indices_on_wire=True, shared_selection=False,
        )

    def decode(self, payload: WirePayload) -> WirePayload:
        return payload


class RandomK(Codec):
    """Shared-seed random-k selection: summable, indices never hit the wire."""

    allreduce_compatible = True
    lossless = False
    dense_input = True

    def __init__(self, ratio: float = 0.1, seed: int = 0, rescale: bool = True) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio
        self.seed = seed
        self.rescale = rescale
        self.name = f"randomk{ratio:g}"

    def prepare(self, inputs: List[WirePayload], ctx: EncodeContext) -> None:
        numel = inputs[0].num_elements
        k = max(1, int(round(numel * self.ratio)))
        rng = np.random.default_rng(self.seed + 1_000_003 * ctx.bucket_index + ctx.iteration)
        ctx.shared[id(self)] = (rng.choice(numel, size=k, replace=False), numel)

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        indices, numel = ctx.shared[id(self)]
        values = _dense_input(payload, "RandomK")[indices]
        return SparsePayload(
            indices, values, numel,
            indices_on_wire=False, shared_selection=True,
        )

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, SparsePayload) and self.rescale and payload.values.size:
            # Unbiased estimate of the dense average gradient.
            return payload.with_reduced(
                payload.values * (payload.numel / payload.values.size)
            )
        return payload


class MaskCompact(Codec):
    """Pack the coordinates of a shared bitmask into a short dense tensor.

    The mask order is identical on every rank (it comes from a synchronised
    bitmask), so compacted payloads are element-wise summable — PacTrain's
    "masked assignment" (Fig. 2) as a standalone codec stage.  Lossless with
    respect to the masked gradient.
    """

    allreduce_compatible = True
    lossless = True
    dense_input = True
    name = "compact"

    def __init__(self) -> None:
        # Selected indices per bucket, updated by the owner (PacTrain) whenever
        # the tracked mask changes.
        self._indices: Dict[int, np.ndarray] = {}

    def set_mask(self, bucket_index: int, mask: np.ndarray) -> None:
        self._indices[bucket_index] = np.flatnonzero(np.asarray(mask, dtype=bool))

    def reset(self) -> None:
        self._indices.clear()

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        indices = self._indices.get(ctx.bucket_index)
        if indices is None:
            raise RuntimeError(
                f"MaskCompact has no mask for bucket {ctx.bucket_index}; call set_mask first"
            )
        values = _dense_input(payload, "MaskCompact")
        return SparsePayload(
            indices, values[indices], values.size,
            indices_on_wire=False, shared_selection=True,
        )

    def decode(self, payload: WirePayload) -> WirePayload:
        return payload


class Ternarize(Codec):
    """TernGrad stochastic ternary quantisation (Wen et al., 2017).

    ``prepare`` clips each rank's values (±``clip_sigma`` standard deviations),
    agrees on the shared scale ``s = max_r max_i |v_i|`` — modeled as a tiny
    one-element all-reduce, charged to the network — and ``encode`` rounds each
    value to ``s * {-1, 0, +1}`` with probability ``|v| / s``, which keeps the
    quantised gradient unbiased in expectation (the paper's Eq. (3)).
    """

    lossless = False
    name = "terngrad"

    def __init__(self, seed: int = 0, clip_sigma: Optional[float] = 2.5) -> None:
        self.seed = seed
        self.clip_sigma = clip_sigma
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def _clip(self, values: np.ndarray) -> np.ndarray:
        if self.clip_sigma is None or values.size == 0:
            return values
        sigma = float(np.std(values))
        if sigma == 0.0:
            return values
        bound = self.clip_sigma * sigma
        return np.clip(values, -bound, bound)

    @staticmethod
    def _values_of(payload: WirePayload) -> np.ndarray:
        if isinstance(payload, (DensePayload, SparsePayload)):
            return as_compute_array(payload.values)
        if isinstance(payload, HalfPayload):
            return payload.reduce_values()
        raise TypeError(f"cannot ternarise {type(payload).__name__}")

    def prepare(self, inputs: List[WirePayload], ctx: EncodeContext) -> None:
        clipped = [self._clip(self._values_of(p)) for p in inputs]
        if all(values.size == 0 for values in clipped):
            ctx.shared[id(self)] = (clipped, 0.0)
            return
        maxima = [float(np.max(np.abs(v))) if v.size else 0.0 for v in clipped]
        if ctx.group is not None:
            # Scaler agreement: one fp32 scalar per rank, max-reduced.  The
            # collective is issued for its modeled cost; the shared maximum is
            # computed locally (the simulation holds every rank in-process).
            ctx.group.all_reduce(
                [DensePayload(np.array([m])) for m in maxima], average=False
            )
        ctx.shared[id(self)] = (clipped, max(maxima))

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        clipped, scale = ctx.shared[id(self)]
        values = clipped[rank]
        if scale == 0.0:
            codes = np.zeros(values.size, dtype=np.int8)
        else:
            probability = np.clip(np.abs(values) / scale, 0.0, 1.0)
            keep = self._rng.random(values.shape) < probability
            codes = (np.sign(values) * keep).astype(np.int8)
        if isinstance(payload, SparsePayload):
            return SparsePayload(
                payload.indices,
                scale * codes.astype(float_dtype_of(np.asarray(payload.values))),
                payload.numel,
                value_bytes=TERNARY_BYTES,
                indices_on_wire=payload.indices_on_wire,
                shared_selection=payload.shared_selection,
            )
        return TernaryPayload(packed=pack_ternary(codes), scale=scale, size=values.size)

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, TernaryPayload):
            return DensePayload(payload.reduce_values())
        return payload


def ternarize(
    grad: np.ndarray,
    scaler: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Stochastically quantise ``grad`` to ``scaler * {-1, 0, +1}``.

    The functional form of :class:`Ternarize` without clipping or
    shared-scaler agreement, for tests and ad-hoc callers.  ``scaler``
    defaults to ``max(|grad|)``; ``rng`` draws the Bernoulli keeps
    (deterministic tests pass a seeded generator).
    """
    rng = rng or np.random.default_rng()
    if scaler is None:
        scaler = float(np.max(np.abs(grad))) if grad.size else 0.0
    if scaler == 0.0:
        return np.zeros_like(grad)
    probability = np.clip(np.abs(grad) / scaler, 0.0, 1.0)
    keep = rng.random(grad.shape) < probability
    return scaler * np.sign(grad) * keep


class Sign(Codec):
    """signSGD with majority vote (Bernstein et al., 2018).

    Each rank transmits one bit per coordinate (the gradient's sign) plus its
    mean absolute value as a scale; aggregation is the element-wise majority
    vote over the sign codes, which is all-reduce compatible.  The decoded
    average is ``mean(scale) * majority_sign`` — aggressive (32x) compression
    whose bias is what the driver-level error feedback (``"ef+signsgd"``)
    compensates.
    """

    name = "signsgd"
    allreduce_compatible = True
    lossless = False
    dense_input = True

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        return SignPayload.from_values(_dense_input(payload, "Sign"))

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, SignPayload):
            return DensePayload(payload.densify())
        return payload


def orthonormalize(matrix: np.ndarray, rtol: Optional[float] = None) -> np.ndarray:
    """Column-wise modified Gram-Schmidt (the PowerSGD orthogonalisation).

    Deterministic and dtype-preserving.  Healthy columns are normalised
    *exactly* (no ``norm + eps`` residue — that residue would propagate into
    later columns and destroy orthogonality for rank-deficient inputs), while
    columns whose post-projection remainder falls below a scale-relative
    tolerance (``sqrt(machine eps)`` of the dtype times the largest input
    column norm) are zeroed: their remainder is pure rounding noise, and a
    zero column simply drops out of the ``P @ P.T`` projection.  Exactly
    low-rank inputs therefore reconstruct to machine precision.
    """
    basis = np.array(matrix, copy=True)
    if basis.size == 0:
        return basis
    if rtol is None:
        rtol = float(np.sqrt(np.finfo(basis.dtype).eps))
    tol = rtol * float(np.max(np.linalg.norm(basis, axis=0)))
    for column in range(basis.shape[1]):
        col = basis[:, column]
        for previous in range(column):
            col -= (basis[:, previous] @ col) * basis[:, previous]
        norm = float(np.linalg.norm(col))
        if norm > tol and norm > 0.0:
            col /= norm
        else:
            col[:] = 0.0
    return basis


class LowRank(Codec):
    """PowerSGD-style low-rank compression (Vogels et al., 2019).

    Per bucket the flat gradient is viewed as a near-square ``(m, n)`` matrix
    (zero-padded) and compressed with **one step of power iteration** warm
    started from the previous iteration's right factor:

    1. ``P_r = M_r @ Q_prev`` per rank; the mean ``P`` is orthonormalised into
       the shared left factor ``P_hat`` (the protocol's first all-reduce);
    2. ``Q_r = M_r.T @ P_hat`` per rank becomes the payload's summable right
       factor (the second all-reduce, executed by the aggregation driver);
    3. decode reconstructs ``P_hat @ Q.T``; the aggregated ``Q`` also warm
       starts the next iteration.

    Both protocol halves are charged through the payload's analytic
    ``(m + n) * rank * 4`` wire bytes.  Low-rank projection is biased, so the
    intended composition is ``"ef+powersgd-rank4"``.
    """

    allreduce_compatible = True
    lossless = False
    dense_input = True

    def __init__(self, rank: int = 4, seed: int = 0) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.seed = seed
        self.name = f"powersgd-rank{rank}"
        # Warm-started right factor per bucket: (n, rank), shared across ranks
        # because it always comes from the aggregated previous step.
        self._q_prev: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._q_prev.clear()

    @staticmethod
    def matrix_shape(numel: int) -> "tuple[int, int]":
        """Near-square ``(m, n)`` view of a flat gradient of ``numel`` elements."""
        n = int(np.ceil(np.sqrt(numel)))
        m = int(np.ceil(numel / n))
        return m, n

    def _initial_q(self, n: int, rank: int, bucket_index: int, dtype) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1_000_003 * bucket_index)
        return orthonormalize(rng.standard_normal((n, rank)).astype(dtype, copy=False))

    def prepare(self, inputs: List[WirePayload], ctx: EncodeContext) -> None:
        stacked = _stacked_inputs(inputs, ctx, "LowRank")
        world, numel = stacked.shape
        m, n = self.matrix_shape(numel)
        rank = min(self.rank, m, n)
        dtype = float_dtype_of(stacked)

        pad = m * n - numel
        if pad:
            padded = np.zeros((world, m * n), dtype=dtype)
            padded[:, :numel] = stacked
        else:
            padded = np.asarray(stacked, dtype=dtype)
        matrices = padded.reshape(world, m, n)

        q_prev = self._q_prev.get(ctx.bucket_index)
        if q_prev is None or q_prev.shape != (n, rank) or q_prev.dtype != dtype:
            q_prev = self._initial_q(n, rank, ctx.bucket_index, dtype)

        # First protocol half: P_r = M_r Q_prev, all-reduced and orthonormalised
        # into the shared left factor (cost carried by the payload's nbytes).
        p_hat = orthonormalize(np.mean(matrices @ q_prev, axis=0))
        # Second half: per-rank right factors, summable because p_hat is shared.
        q_factors = np.transpose(matrices, (0, 2, 1)) @ p_hat

        # Warm start: the aggregated right factor of *this* step seeds the
        # power iteration of the next one.  Columns that died this step — an
        # exactly-zero or rank-deficient bucket gradient zeroes the matching
        # p_hat (and hence q) columns — are re-seeded from the deterministic
        # initial basis, otherwise M @ q_prev would stay zero in those
        # directions forever and the bucket could never transmit again.
        q_next = np.mean(q_factors, axis=0)
        dead = np.linalg.norm(q_next, axis=0) == 0.0
        if np.any(dead):
            q_next[:, dead] = self._initial_q(n, rank, ctx.bucket_index, dtype)[:, dead]
        self._q_prev[ctx.bucket_index] = q_next
        ctx.shared[id(self)] = (p_hat, q_factors, numel)

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        p_hat, q_factors, numel = ctx.shared[id(self)]
        return LowRankPayload(p=p_hat, q=q_factors[rank], numel=numel)

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, LowRankPayload):
            return DensePayload(payload.densify())
        return payload

    def spec(self) -> str:
        return self.name


class DGCSelect(Codec):
    """Deep Gradient Compression selection (Lin et al., 2018).

    Momentum correction and local gradient accumulation run vectorised over a
    (world, numel) matrix per bucket; the top-k selection over the accumulated
    buffers is :func:`batched_top_k_indices`.  Like :class:`TopK` the
    per-rank selections differ, so aggregation uses all-gather.
    """

    allreduce_compatible = False
    lossless = False
    dense_input = True
    #: DGC's local gradient accumulation *is* error feedback (on the
    #: momentum-corrected gradient) and cannot be separated from the
    #: algorithm; the driver refuses to layer or strip EF around this stage.
    self_compensating = True

    def __init__(
        self,
        ratio: float = 0.01,
        momentum: float = 0.9,
        clip_norm: Optional[float] = None,
    ) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.ratio = ratio
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.name = f"dgc{ratio:g}"
        # Per-bucket (world, numel) momentum (u) and accumulation (v) buffers.
        self._momentum: Dict[int, np.ndarray] = {}
        self._accum: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._momentum.clear()
        self._accum.clear()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        remap_rank_rows(self._momentum, old_ranks, new_ranks, policy)
        remap_rank_rows(self._accum, old_ranks, new_ranks, policy)

    def _clip_rows(self, matrix: np.ndarray) -> np.ndarray:
        if self.clip_norm is None:
            return matrix
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        factors = np.where(norms > self.clip_norm, self.clip_norm / np.maximum(norms, 1e-30), 1.0)
        return matrix * factors

    def prepare(self, inputs: List[WirePayload], ctx: EncodeContext) -> None:
        matrix = self._clip_rows(_stacked_inputs(inputs, ctx, "DGC"))
        numel = matrix.shape[1]
        k = max(1, int(round(numel * self.ratio)))

        momentum = self._momentum.get(ctx.bucket_index)
        accum = self._accum.get(ctx.bucket_index)
        if momentum is None or momentum.shape != matrix.shape:
            momentum = np.zeros_like(matrix)
        if accum is None or accum.shape != matrix.shape:
            accum = np.zeros_like(matrix)

        # Momentum correction: accumulate velocity locally, then accumulate the
        # velocity into the unsent-gradient buffer.
        momentum = self.momentum * momentum + matrix
        accum = accum + momentum

        indices = batched_top_k_indices(accum, k)
        values = np.take_along_axis(accum, indices, axis=1)

        # Clear the transmitted coordinates from both buffers (momentum factor
        # masking from the DGC paper).
        np.put_along_axis(accum, indices, 0.0, axis=1)
        np.put_along_axis(momentum, indices, 0.0, axis=1)
        self._momentum[ctx.bucket_index] = momentum
        self._accum[ctx.bucket_index] = accum

        ctx.shared[id(self)] = (indices, values, numel)

    def encode(self, payload: WirePayload, ctx: EncodeContext, rank: int = 0) -> WirePayload:
        indices, values, numel = ctx.shared[id(self)]
        return SparsePayload(
            indices[rank], values[rank], numel,
            indices_on_wire=True, shared_selection=False,
        )

    def decode(self, payload: WirePayload) -> WirePayload:
        return payload
