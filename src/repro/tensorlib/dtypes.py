"""Compute-precision registry for the tensor engine.

The reproduction historically computed in ``float64`` end to end.  Training at
scale, however, trades precision for speed deliberately (the paper's testbed
trains in fp32; only the *wire* representation is compressed further), so the
tensor engine exposes a process-wide **default compute dtype**:

* ``float64`` (the default) keeps every result bit-identical to the historical
  behaviour — all committed benchmark values remain valid;
* ``float32`` halves memory traffic and roughly doubles SIMD throughput for
  the numpy kernels underneath, at a documented accuracy tolerance.

The default is consumed by :func:`repro.tensorlib.tensor._as_array` (and hence
every tensor ever constructed), the weight initialisers, the synthetic
datasets, the DDP gradient arenas and the codec payload decode paths, so
setting it once — usually through ``ExperimentConfig.dtype``, which wraps the
whole run in :func:`default_dtype` — flips the entire compute path.

Wire-size accounting is *not* affected: payload byte counts model the fp32
wire format of real collectives regardless of the local compute precision, so
communication volumes and modeled times stay identical across compute dtypes.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Union

import numpy as np

DTypeLike = Union[str, type, np.dtype]

#: The dtypes the compute path may run in.
SUPPORTED_DTYPES = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

_DEFAULT_DTYPE = np.dtype(np.float64)


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Normalise a dtype spec (``"float32"``, ``np.float64``, dtype) to a dtype.

    Raises ``KeyError`` for anything outside the supported compute dtypes, so
    configuration typos fail loudly instead of silently computing in an
    unintended precision.
    """
    resolved = np.dtype(dtype)
    if resolved.name not in SUPPORTED_DTYPES:
        raise KeyError(
            f"unsupported compute dtype {dtype!r}; supported: {sorted(SUPPORTED_DTYPES)}"
        )
    return resolved


def get_default_dtype() -> np.dtype:
    """The process-wide compute dtype new tensors default to."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype: DTypeLike) -> None:
    """Set the process-wide compute dtype (``"float32"`` or ``"float64"``)."""
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolve_dtype(dtype)


@contextlib.contextmanager
def default_dtype(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Scoped compute dtype: restores the previous default on exit.

    This is how :func:`repro.simulation.experiment.train_distributed` applies
    ``ExperimentConfig.dtype`` — the setting cannot leak across experiments
    even when a run raises.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolve_dtype(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        _DEFAULT_DTYPE = previous


def float_dtype_of(array: np.ndarray) -> np.dtype:
    """The compute dtype implied by an array: its own when it is a supported
    float dtype, the process default otherwise (ints, bools, float16)."""
    dtype = array.dtype
    # Not ``dtype.name in SUPPORTED_DTYPES``: numpy builds the name in Python (2 us a call).
    if dtype.kind == "f" and dtype.itemsize in (4, 8):
        return dtype
    return _DEFAULT_DTYPE


def as_compute_array(value, dtype: Union[np.dtype, None] = None) -> np.ndarray:
    """``np.asarray`` into a compute dtype without copying when possible.

    Arrays already carrying the requested (or, with ``dtype=None``, their own
    supported float) dtype are returned as-is — the no-copy guarantee the
    gradient plumbing relies on.
    """
    if isinstance(value, np.ndarray):
        target = float_dtype_of(value) if dtype is None else dtype
        if value.dtype == target:
            return value
        return value.astype(target)
    return np.asarray(value, dtype=dtype or _DEFAULT_DTYPE)
