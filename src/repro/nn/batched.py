"""Replica views: one pass of the model evaluates every simulated rank.

Every layer has one forward, written for zero or one leading *world* axis
and reading which it is off its parameters' or its input's ``ndim``: a plain
call is world 0, the per-rank form.  :func:`replica_views` turns the model
into its world-batched form by swapping each parameter attribute for a
``(world, *param.shape)`` **view** — by default a zero-copy broadcast of the
shared parameter (stride 0 along the world axis: synchronous replicas are
identical), or a given per-rank stack (local-SGD replicas, which diverge
between averaging rounds).  A ``(world, N, ...)`` input then flows through
the unchanged model code; because the views carry the world axis,
:func:`repro.tensorlib.tensor._unbroadcast` stops summing *at* that axis and
each view's ``.grad`` comes back as the per-rank gradient stack
``(world, *param.shape)`` — exactly the layout the gradient arena stores.

The views are installed with ``object.__setattr__`` so the module's
``_parameters`` registry (and therefore ``named_parameters`` order, bucketing
and pruning-mask keys) is untouched, and are always restored on exit.

Bit-identity contract: contractions keep ``world`` as a batch axis (numpy
dispatches the same per-slice GEMMs as a plain call on each slice) and
reductions over non-world axes reduce each world slice independently, so
every float64 gradient equals its per-rank counterpart bit-for-bit, whether
the views are broadcasts or real stacks.  The one exception is dropout (a
single batched RNG draw instead of one per rank); frozen golden workloads
disable it.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensorlib import Tensor


class _ReplicaView(Tensor):
    """A parameter's broadcast view.

    ``slot`` is the array its gradient may be born in, or ``None``;
    ``slot_accumulates`` says whether that array holds a value the gradient
    is added to (a lent error-feedback residual) rather than one it replaces.
    """

    __slots__ = ("slot", "slot_accumulates")


def _make_view(
    param: Parameter,
    world_size: int,
    name: str,
    slot: Optional[np.ndarray],
    stack: Optional[np.ndarray],
    accumulate: bool,
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
    view.slot_accumulates = accumulate
    return view


@contextlib.contextmanager
def replica_views(
    model: Module,
    world_size: int,
    slots: Optional[Dict[str, np.ndarray]] = None,
    stacks: Optional[Dict[str, np.ndarray]] = None,
    accumulate: bool = False,
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
    its ``.grad``; with ``accumulate`` it *adds* the contribution to the
    slot's values instead (a lent residual), so that ``.grad`` is
    ``slot + gradient``.  Later contributions are added to that sum, so a
    conv weight applied twice in one forward would compensate as
    ``(r + g1) + g2``, not ``r + (g1 + g2)``: the same update, rounded
    differently (no model in :mod:`repro.nn.models` reuses a conv weight).
    Attributes are restored on exit even if the forward/backward raises.
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
                    accumulate,
                )
                views[full] = view
                installed.append((module, local, param))
                object.__setattr__(module, local, view)
        yield views
    finally:
        for module, local, param in installed:
            object.__setattr__(module, local, param)
