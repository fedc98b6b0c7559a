"""Module and parameter abstractions.

The design mirrors ``torch.nn.Module`` where it matters for the reproduction:

* parameters are discovered recursively and exposed with dotted names
  (``features.0.weight``) via :meth:`Module.named_parameters` — the pruning and
  mask-tracking code keys masks by these names;
* :meth:`Module.parameters` returns parameters in **registration order**, which
  the DDP simulator reverses when building gradient buckets, exactly as PyTorch
  DDP fills buckets in (approximately) reverse order of the backward pass.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.tensorlib import Tensor


class Parameter(Tensor):
    """A trainable tensor registered on a :class:`Module`."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are registered automatically (in assignment order) and
    discovered by :meth:`named_parameters` / :meth:`named_modules`.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state
        (e.g. batch-norm running statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a previously registered buffer in place of re-registration."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} has not been registered")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (prefix + name if prefix == "" else f"{prefix}.{name}"), param
        for child_name, child in self._modules.items():
            child_prefix = child_name if prefix == "" else f"{prefix}.{child_name}"
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for child_name, child in self._modules.items():
            child_prefix = child_name if prefix == "" else f"{prefix}.{child_name}"
            yield from child.named_modules(child_prefix)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield (prefix + name if prefix == "" else f"{prefix}.{name}"), buffer
        for child_name, child in self._modules.items():
            child_prefix = child_name if prefix == "" else f"{prefix}.{child_name}"
            yield from child.named_buffers(child_prefix)

    # ------------------------------------------------------------------ #
    # Mode switching and gradient management
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(params={sum(p.size for p in self.parameters())})"


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, str(index), module)
            self._layers.append(module)

    def forward(self, x):
        for layer in self._layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """A list container whose elements are registered as submodules."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        setattr(self, str(index), module)
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called directly")
