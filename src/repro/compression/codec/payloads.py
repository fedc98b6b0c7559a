"""First-class wire payloads.

A :class:`WirePayload` is what a compressor actually puts on the wire for one
gradient bucket: a dense fp32 tensor, a half-precision tensor, an
(indices, values) sparse selection, a packed 2-bit ternary tensor or a packed
bitmask.  Every payload knows its own wire size (:attr:`WirePayload.nbytes`),
so the collective layer records the bytes it moves from the *encoded
representation* instead of trusting a caller-supplied ``element_bytes`` —
byte accounting is measured, not asserted; :mod:`repro.simulation.pricing`
prices them.

A reducible payload also knows whether it can be summed element-wise with a
peer (``reducible_with``): dense/half/ternary payloads and sparse payloads
with a *shared* selection are summable, so the aggregation driver may use the
all-reduce primitive; per-rank sparse selections (top-k, DGC) are not,
forcing the all-gather exchange — exactly the "compatibility" property in the
paper's Table 1.  A bitmask has no ``reducible_with``: it is only broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.tensorlib.dtypes import as_compute_array, float_dtype_of, get_default_dtype

#: Analytic wire sizes (bytes per element) used throughout the cost model.
FP32_BYTES = 4.0
FP16_BYTES = 2.0
INDEX_BYTES = 4.0
TERNARY_BYTES = 0.25   # 2 bits per element
BITMASK_BYTES = 1.0 / 8.0


class WirePayload:
    """Base class for encoded gradient representations.

    Every subclass implements :attr:`nbytes` (wire bytes for this payload).
    A payload an all-reduce may carry also implements ``reducible_with(other)``
    (whether ``self + other`` is meaningful element-wise), ``reduce_values()``
    (the dense compute-dtype view summed during reduction) and
    ``with_reduced(values)`` (rebuild a payload of the same structure around
    reduced values).

    Two payloads are also the **decoded forms** a pipeline's decode ends in —
    :class:`DensePayload` and :class:`SparsePayload`.  Both offer
    :meth:`densify` and ``subtract_from(out)``, which the error-feedback
    driver applies to a rank's own decoded payload; a gathered selection also
    offers ``add_to(out)``.  On a selection both touch only the carried
    coordinates, which is what keeps aggregation O(k) per rank.
    """

    @property
    def nbytes(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class DensePayload(WirePayload):
    """A dense tensor sent verbatim (fp32 on the wire by default)."""

    values: np.ndarray
    element_bytes: float = FP32_BYTES

    @property
    def nbytes(self) -> float:
        return self.values.size * self.element_bytes

    def reducible_with(self, other: WirePayload) -> bool:
        return isinstance(other, DensePayload) and other.values.shape == self.values.shape

    def reduce_values(self) -> np.ndarray:
        return as_compute_array(self.values)

    def with_reduced(self, values: np.ndarray) -> "DensePayload":
        return DensePayload(values, element_bytes=self.element_bytes)

    def densify(self) -> np.ndarray:
        """The values themselves, as a compute-dtype array (no copy)."""
        return as_compute_array(self.values)

    def subtract_from(self, out: np.ndarray) -> None:
        """``out -= values`` in place (``out`` may be the values themselves)."""
        np.subtract(out, self.values, out=out, casting="unsafe")


@dataclass(frozen=True)
class HalfPayload(WirePayload):
    """A half-precision tensor (2 bytes per element on the wire)."""

    values: np.ndarray  # stored as float16

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float16))

    @property
    def nbytes(self) -> float:
        return self.values.size * FP16_BYTES

    def reducible_with(self, other: WirePayload) -> bool:
        return isinstance(other, HalfPayload) and other.values.shape == self.values.shape

    def reduce_values(self) -> np.ndarray:
        return self.values.astype(get_default_dtype())

    def with_reduced(self, values: np.ndarray) -> DensePayload:
        # Sums of fp16 values are accumulated (and returned) in the compute
        # dtype, the same convention real mixed-precision all-reduces use.
        return DensePayload(values)


@dataclass(frozen=True)
class SparsePayload(WirePayload):
    """An (indices, values) selection of ``numel`` logical elements.

    Parameters
    ----------
    indices, values:
        The selected coordinates (unique — every producer selects without
        replacement) and their (possibly re-quantised) values.
    numel:
        Length of the decoded dense gradient.
    value_bytes:
        Wire bytes per transmitted value (4 for fp32, 2 after an fp16 stage,
        0.25 after a ternary stage).
    indices_on_wire:
        ``False`` when every rank derives the selection locally (a shared
        mask) so only values travel; ``True`` when indices must be sent
        alongside values (per-rank top-k).
    shared_selection:
        ``True`` when all ranks are guaranteed to hold the *same* selection,
        making payloads element-wise summable (all-reduce compatible).
    """

    indices: np.ndarray
    values: np.ndarray
    numel: int
    value_bytes: float = FP32_BYTES
    indices_on_wire: bool = True
    shared_selection: bool = False

    @property
    def nbytes(self) -> float:
        per_element = self.value_bytes + (INDEX_BYTES if self.indices_on_wire else 0.0)
        return self.values.size * per_element

    def reducible_with(self, other: WirePayload) -> bool:
        return (
            isinstance(other, SparsePayload)
            and self.shared_selection
            and other.shared_selection
            and other.numel == self.numel
            # Shared-selection producers hand the same index array to every
            # rank, so the identity check short-circuits the O(k) comparison.
            and (
                other.indices is self.indices
                or (
                    other.indices.shape == self.indices.shape
                    and np.array_equal(other.indices, self.indices)
                )
            )
        )

    def reduce_values(self) -> np.ndarray:
        return as_compute_array(self.values)

    def with_reduced(self, values: np.ndarray) -> "SparsePayload":
        return replace(self, values=values)

    def densify(self) -> np.ndarray:
        """Scatter the selection back into a dense compute-dtype gradient.

        Indices are unique by construction (see the class docstring), so the
        fast vectorised fancy assignment is exact.
        """
        dense = np.zeros(self.numel, dtype=float_dtype_of(np.asarray(self.values)))
        dense[self.indices] = self.values
        return dense

    def add_to(self, out: np.ndarray) -> None:
        """``out += densify()`` touching only the selected coordinates.

        Exact, not approximate: indices are unique, and every skipped
        coordinate would have added ``+0.0``, which changes no value an
        accumulator started at ``+0.0`` can hold (a sum is ``-0.0`` only when
        both addends are).
        """
        out[self.indices] += self.values

    def subtract_from(self, out: np.ndarray) -> None:
        """``out -= densify()`` touching only the selected coordinates
        (``x - 0.0`` is ``x`` for every ``x``, ``-0.0`` and NaN included)."""
        out[self.indices] -= self.values


def pack_ternary(codes: np.ndarray) -> np.ndarray:
    """Pack ternary codes in ``{-1, 0, +1}`` into 2-bit fields (4 per byte)."""
    symbols = np.zeros(codes.size, dtype=np.uint8)
    symbols[codes > 0] = 1
    symbols[codes < 0] = 2
    pad = (-symbols.size) % 4
    if pad:
        symbols = np.concatenate([symbols, np.zeros(pad, dtype=np.uint8)])
    quads = symbols.reshape(-1, 4)
    return (quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)).astype(np.uint8)


def unpack_ternary(packed: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`pack_ternary`; returns int8 codes in ``{-1, 0, +1}``."""
    packed = np.asarray(packed, dtype=np.uint8)
    quads = np.empty((packed.size, 4), dtype=np.uint8)
    quads[:, 0] = packed & 0b11
    quads[:, 1] = (packed >> 2) & 0b11
    quads[:, 2] = (packed >> 4) & 0b11
    quads[:, 3] = (packed >> 6) & 0b11
    symbols = quads.reshape(-1)[:size]
    codes = np.zeros(size, dtype=np.int8)
    codes[symbols == 1] = 1
    codes[symbols == 2] = -1
    return codes


@dataclass(frozen=True)
class TernaryPayload(WirePayload):
    """Ternary-quantised tensor: packed 2-bit codes plus a shared scale.

    The scale is agreed beforehand through the stage's scaler all-reduce (its
    cost is charged there), so the payload itself carries exactly two bits per
    element — :attr:`nbytes` is the analytic ``TERNARY_BYTES * size``.
    """

    packed: np.ndarray
    scale: float
    size: int

    @property
    def nbytes(self) -> float:
        return self.size * TERNARY_BYTES

    def codes(self) -> np.ndarray:
        return unpack_ternary(self.packed, self.size)

    def reducible_with(self, other: WirePayload) -> bool:
        return isinstance(other, TernaryPayload) and other.size == self.size

    def reduce_values(self) -> np.ndarray:
        return self.scale * self.codes().astype(get_default_dtype())

    def with_reduced(self, values: np.ndarray) -> DensePayload:
        # A sum of ternary tensors is no longer ternary.
        return DensePayload(values)


@dataclass(frozen=True)
class BitmaskPayload(WirePayload):
    """A boolean mask packed to one bit per element (mask synchronisation)."""

    packed: np.ndarray
    size: int

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "BitmaskPayload":
        mask = np.asarray(mask, dtype=bool)
        return cls(packed=np.packbits(mask), size=int(mask.size))

    @property
    def nbytes(self) -> float:
        return float(self.packed.size)


def as_payload(value) -> WirePayload:
    """Normalise an ndarray (or payload) into a :class:`WirePayload`."""
    if isinstance(value, WirePayload):
        return value
    return DensePayload(as_compute_array(value))
