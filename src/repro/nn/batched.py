"""World-batched replica execution for the simulated data-parallel step.

The DDP simulator trains ``world_size`` replicas that share one set of
parameter arrays.  Looping Python over the ranks costs one full
forward/backward per rank; this module lets a *single* batched
forward/backward evaluate every rank at once while keeping the per-rank
float64 numerics bit-identical to the loop:

* :func:`replica_views` temporarily swaps every parameter attribute for a
  zero-copy broadcast **view** of shape ``(world, *param.shape)`` (stride 0
  along the world axis — no data is duplicated).  A batched input with a
  leading ``world`` axis then flows through the unchanged model code; because
  the views carry the world axis, :func:`repro.tensorlib.tensor._unbroadcast`
  stops summing *at* that axis and each view's ``.grad`` comes back as the
  per-rank gradient stack ``(world, *param.shape)`` — exactly the layout the
  gradient arena stores.
* :func:`active_world` is the thread-local-style context parameter-less layers
  (``Flatten``, model-level reshapes) consult to know how many leading axes
  are batch bookkeeping rather than data.

The views are installed with ``object.__setattr__`` so the module's
``_parameters`` registry (and therefore ``named_parameters`` order, bucketing
and pruning-mask keys) is untouched, and are always restored on exit.

Bit-identity contract: contractions keep ``world`` as a batch axis (numpy
dispatches the same per-slice GEMMs as the loop) and reductions over
non-world axes reduce each world slice independently, so every float64
gradient equals its looped counterpart bit-for-bit.  The one exception is
dropout (a single batched RNG draw); frozen golden workloads disable it.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensorlib import Tensor

_ACTIVE_WORLD: Optional[int] = None


def active_world() -> Optional[int]:
    """The world size of the batched execution in flight, or ``None``.

    Parameter-less layers use this to tell a batched ``(world, N, ...)``
    activation apart from a plain ``(N, ...)`` one when the rank alone is
    ambiguous.
    """
    return _ACTIVE_WORLD


@contextlib.contextmanager
def world_batched(world_size: int) -> Iterator[int]:
    """Mark a region as executing all ``world_size`` replicas at once."""
    global _ACTIVE_WORLD
    previous = _ACTIVE_WORLD
    _ACTIVE_WORLD = int(world_size)
    try:
        yield _ACTIVE_WORLD
    finally:
        _ACTIVE_WORLD = previous


class _ReplicaView(Tensor):
    """A parameter's broadcast view; ``slot`` is the array its gradient may be born in, or ``None``."""

    __slots__ = ("slot",)


def _make_view(param: Parameter, world_size: int, name: str, slot: Optional[np.ndarray]) -> _ReplicaView:
    # Construct without Tensor.__init__ so the stride-0 broadcast is preserved
    # verbatim (no dtype coercion copy): the view must alias the parameter's
    # storage for the whole point — zero-copy replicas — to hold.
    view = _ReplicaView.__new__(_ReplicaView)
    view.data = np.broadcast_to(param.data, (world_size,) + param.data.shape)
    view.grad = None
    view.requires_grad = param.requires_grad
    view._backward = None
    view._parents = ()
    view.name = name
    view.slot = slot
    return view


@contextlib.contextmanager
def replica_views(
    model: Module, world_size: int, slots: Optional[Dict[str, np.ndarray]] = None
) -> Iterator[Dict[str, Tensor]]:
    """Swap every parameter for a ``(world, *shape)`` broadcast view.

    Yields ``{dotted_name: view}`` (same names and order as
    ``model.named_parameters()``).  After a backward pass each view's
    ``.grad`` is the stacked per-rank gradient ``(world, *param.shape)``;
    the underlying parameters themselves accumulate nothing.  A kernel may
    write a view's first contribution into its ``slots`` entry (``{name:
    (world, *shape) array}``, e.g. ``GradientArena.slots``), which then *is*
    its ``.grad``.  Attributes are restored on exit even if the
    forward/backward raises.
    """
    views: Dict[str, Tensor] = {}
    installed: List[Tuple[Module, str, Parameter]] = []
    try:
        for prefix, module in model.named_modules():
            for local, param in module._parameters.items():
                full = local if prefix == "" else f"{prefix}.{local}"
                view = _make_view(param, world_size, full, None if slots is None else slots.get(full))
                views[full] = view
                installed.append((module, local, param))
                object.__setattr__(module, local, view)
        with world_batched(world_size):
            yield views
    finally:
        for module, local, param in installed:
            object.__setattr__(module, local, param)
