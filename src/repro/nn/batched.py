"""World-batched replica execution for the simulated data-parallel step.

The DDP simulator runs ``world`` replicas through one model.  Looping Python
over the ranks costs one full forward/backward per rank; this module lets a
*single* batched forward/backward evaluate every live rank at once while
keeping the per-rank float64 numerics bit-identical to the loop:

* :func:`replica_views` temporarily swaps every parameter attribute for a
  ``(world, *param.shape)`` **view**: by default a zero-copy broadcast of the
  shared parameter (stride 0 along the world axis — synchronous replicas are
  identical), or a given per-rank stack (local-SGD replicas, which diverge
  between averaging rounds).  A batched input with a leading ``world`` axis
  then flows through the unchanged model code; because the views carry the
  world axis, :func:`repro.tensorlib.tensor._unbroadcast` stops summing *at*
  that axis and each view's ``.grad`` comes back as the per-rank gradient
  stack ``(world, *param.shape)`` — exactly the layout the gradient arena
  stores.
* :func:`active_world` is the thread-local-style context parameter-less layers
  (``Flatten``, model-level reshapes) consult to know how many leading axes
  are batch bookkeeping rather than data.

The views are installed with ``object.__setattr__`` so the module's
``_parameters`` registry (and therefore ``named_parameters`` order, bucketing
and pruning-mask keys) is untouched, and are always restored on exit.

Bit-identity contract: contractions keep ``world`` as a batch axis (numpy
dispatches the same per-slice GEMMs as the loop) and reductions over
non-world axes reduce each world slice independently, so every float64
gradient equals its looped counterpart bit-for-bit, whether the views are
broadcasts or real stacks.  The one exception is dropout (a single batched
RNG draw instead of one per rank); frozen golden workloads disable it.
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


def _make_view(
    param: Parameter,
    world_size: int,
    name: str,
    slot: Optional[np.ndarray],
    stack: Optional[np.ndarray],
) -> _ReplicaView:
    # Construct without Tensor.__init__ so the stride-0 broadcast (or the
    # given stack) is installed verbatim, with no dtype coercion copy.
    shape = (world_size,) + param.data.shape
    if stack is not None and stack.shape != shape:
        raise ValueError(f"replica stack for {name!r} has shape {stack.shape}, expected {shape}")
    view = _ReplicaView.__new__(_ReplicaView)
    view.data = np.broadcast_to(param.data, shape) if stack is None else stack
    view.grad = None
    view.requires_grad = param.requires_grad
    view._backward = None
    view._parents = ()
    view.name = name
    view.slot = slot
    return view


@contextlib.contextmanager
def replica_views(
    model: Module,
    world_size: int,
    slots: Optional[Dict[str, np.ndarray]] = None,
    stacks: Optional[Dict[str, np.ndarray]] = None,
) -> Iterator[Dict[str, Tensor]]:
    """Swap every parameter for a ``(world, *shape)`` view.

    The view is a broadcast of the parameter unless ``stacks`` (``{name:
    (world, *shape) array}``) gives that parameter's per-rank values.  Yields
    ``{dotted_name: view}`` (same names and order as
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
                view = _make_view(
                    param, world_size, full,
                    None if slots is None else slots.get(full),
                    None if stacks is None else stacks.get(full),
                )
                views[full] = view
                installed.append((module, local, param))
                object.__setattr__(module, local, view)
        with world_batched(world_size):
            yield views
    finally:
        for module, local, param in installed:
            object.__setattr__(module, local, param)
