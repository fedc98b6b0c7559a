"""Core reverse-mode autodiff tensor.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records, for every
operation that produced it, a closure that propagates gradients to its parents.
Calling :meth:`Tensor.backward` on a scalar output runs those closures in
reverse topological order.

Broadcasting is handled uniformly by :func:`_unbroadcast`, which sums gradient
contributions over the axes that numpy broadcast during the forward pass.

Performance notes (the engine sits under every training step):

* tensors are stored in the process-wide compute dtype
  (:mod:`repro.tensorlib.dtypes`): ``float64`` by default, ``float32`` for the
  fast path;
* op results are wrapped through :meth:`Tensor._wrap`, which skips the
  ``__init__`` coercion machinery, and ops return early — without allocating a
  backward closure — when no input requires a gradient;
* :meth:`Tensor._accumulate` takes ownership of gradient arrays its caller
  guarantees to be freshly allocated (``own=True``), avoiding a defensive copy
  per graph node, and accumulates subsequent contributions in place.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensorlib import backend as _backend
from repro.tensorlib import dtypes as _dtypes

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking inside its block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` into the requested (default: process) compute dtype."""
    if dtype is None:
        dtype = _dtypes._DEFAULT_DTYPE
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting.

    numpy broadcasting can (a) prepend dimensions and (b) stretch size-1
    dimensions.  The adjoint of broadcasting is summation over the stretched
    axes, which is what this helper performs.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over stretched size-1 dimensions.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _neg_unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``-_unbroadcast(grad, shape)`` as a fresh array the caller owns.

    Reduces first and negates the (small) result in place: IEEE negation
    commutes with summation bit-exactly, and this avoids materialising a
    full-size ``-grad`` when broadcasting reduced the operand (``x - mean``
    chains).
    """
    reduced = _unbroadcast(grad, shape)
    if reduced is grad:
        return -grad
    np.negative(reduced, out=reduced)
    return reduced


def _consumed(grad: np.ndarray) -> None:
    """``_backward`` of a node an earlier :meth:`Tensor.backward` walked and released."""
    raise RuntimeError("graph already consumed by backward(); run the forward pass again")


class Tensor:
    """A numpy array with an optional gradient and a backward closure.

    Parameters
    ----------
    data:
        Array-like value.  Stored in the process compute dtype
        (``float64`` unless changed via :mod:`repro.tensorlib.dtypes`) for
        numerical robustness of the small models used in the reproduction.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _wrap(data: np.ndarray) -> "Tensor":
        """Fast tensor construction for op results (no ``__init__`` machinery).

        ``data`` must already be an ndarray; results of ops between
        compute-dtype operands stay in the compute dtype, so the coercion
        check is a cheap dtype comparison rather than a full ``_as_array``.
        """
        dtype = _dtypes._DEFAULT_DTYPE
        if data.dtype != dtype:
            data = data.astype(dtype)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        out.name = None
        return out

    @staticmethod
    def _attach(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Wrap an op result that is known to require a gradient.

        Callers check ``requires_grad``/grad mode *before* building the
        backward closure (and return a plain :meth:`_wrap` otherwise), so no
        re-check happens here.
        """
        out = Tensor._wrap(data)
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        return out

    def _needs_graph(self, *others: "Tensor") -> bool:
        """Whether an op over ``self`` (and ``others``) must record a closure."""
        if not _GRAD_ENABLED:
            return False
        if self.requires_grad:
            return True
        return any(o.requires_grad for o in others)

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add a gradient contribution.

        ``own=True`` asserts that ``grad`` is a freshly allocated array no one
        else holds, letting the first accumulation adopt it instead of copying
        — pass-through gradients (views of the child's ``grad`` buffer, e.g.
        from add/reshape backwards) must keep the default ``own=False``.
        Follow-up contributions are added in place.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if own and grad.dtype == self.data.dtype and grad.shape == self.data.shape:
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
                if self.grad.shape != self.data.shape:
                    self.grad = np.broadcast_to(self.grad, self.data.shape).copy()
        else:
            np.add(self.grad, grad, out=self.grad, casting="unsafe")

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        A graph is good for one walk: leaves accumulate into ``.grad``,
        interior nodes are released as they are consumed, and walking a
        released node again raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1`` for scalar outputs; required for
            non-scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()

        def build(node: "Tensor") -> None:
            # Iterative post-order DFS over parents in registration order —
            # the same visitation (and therefore gradient accumulation) order
            # as a recursive walk, without iterator churn.  Leaves are emitted
            # directly instead of taking a push/pop round trip.
            stack = [(node, iter(node._parents))]
            seen_on_stack = {id(node)}
            while stack:
                current, parents_iter = stack[-1]
                advanced = False
                for parent in parents_iter:
                    parent_id = id(parent)
                    if parent_id in visited or parent_id in seen_on_stack:
                        continue
                    if not parent._parents:
                        visited.add(parent_id)
                        topo.append(parent)
                        continue
                    stack.append((parent, iter(parent._parents)))
                    seen_on_stack.add(parent_id)
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    seen_on_stack.discard(id(current))
                    visited.add(id(current))
                    topo.append(current)

        build(self)

        self._accumulate(grad)
        # The walk consumes the tape: every child precedes a node in this
        # order, so once a node's closure has run its gradient is complete and
        # its closure, edges and gradient (patch matrices, masks, saved
        # activations) are released here instead of when the root dies.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = _consumed
            node._parents = ()
            node.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._ensure(other)
        out_data = self.data + other.data
        if not self._needs_graph(other):
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape), own=grad.shape != self.shape)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape), own=grad.shape != other.shape)

        return Tensor._attach(out_data, (self, other), backward)

    def __neg__(self) -> "Tensor":
        if not self._needs_graph():
            return Tensor._wrap(-self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, own=True)

        return Tensor._attach(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._ensure(other)
        out_data = self.data - other.data
        if not self._needs_graph(other):
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape), own=grad.shape != self.shape)
            if other.requires_grad:
                other._accumulate(_neg_unbroadcast(grad, other.shape), own=True)

        return Tensor._attach(out_data, (self, other), backward)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._ensure(other)
        out_data = self.data * other.data
        if not self._needs_graph(other):
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            if self is other:
                # x * x: both contributions are identical, and g + g == 2 * g
                # bit-exactly, so one doubled product replaces two full
                # multiply-and-accumulate passes (the var() hot path).
                doubled = _unbroadcast(grad * self.data, self.shape)
                np.multiply(doubled, 2.0, out=doubled)
                self._accumulate(doubled, own=True)
                return
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), own=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), own=True)

        return Tensor._attach(out_data, (self, other), backward)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._ensure(other)
        out_data = self.data / other.data
        if not self._needs_graph(other):
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape), own=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape), own=True
                )

        return Tensor._attach(out_data, (self, other), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Matrix multiplication supporting batched operands (numpy semantics).

        Routed through the active :mod:`repro.tensorlib.backend`; the numpy
        reference backend is ``np.matmul``, whose per-slice GEMM dispatch is
        what keeps world-batched execution bit-identical to the per-rank loop.
        """
        other = Tensor._ensure(other)
        b = _backend.get_backend()
        out_data = b.matmul(self.data, other.data)
        if not self._needs_graph(other):
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if self.data.ndim == 2 else grad[..., None] * other.data
                else:
                    grad_self = b.matmul(grad, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(grad_self, self.shape), own=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad)
                else:
                    grad_other = b.matmul(np.swapaxes(self.data, -1, -2), grad)
                other._accumulate(_unbroadcast(grad_other, other.shape), own=True)

        return Tensor._attach(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not self._needs_graph():
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            # Broadcast view: _accumulate materialises it on first touch and
            # broadcasts in place afterwards, so no full-size copy is made here.
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._attach(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = 1
            for a in axis:
                count *= self.shape[a]
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self._needs_graph():
            return Tensor._wrap(out_data)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._attach(out_data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        if not self._needs_graph():
            return Tensor._wrap(out_data)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._attach(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not self._needs_graph():
            return Tensor._wrap(out_data)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(original_shape, dtype=self.data.dtype)
            np.add.at(full, index, grad)
            self._accumulate(full, own=True)

        return Tensor._attach(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        if not self._needs_graph():
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data, own=True)

        return Tensor._attach(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask
        if not self._needs_graph():
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, own=True)

        return Tensor._attach(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as used by ViT)."""
        c = float(np.sqrt(2.0 / np.pi))
        x = self.data
        inner = c * (x + 0.044715 * x ** 3)
        tanh_inner = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + tanh_inner)
        if not self._needs_graph():
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            sech2 = 1.0 - tanh_inner ** 2
            d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
            local = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
            self._accumulate(grad * local, own=True)

        return Tensor._attach(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)
        if not self._needs_graph():
            return Tensor._wrap(out_data)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot), own=True)

        return Tensor._attach(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        if not self._needs_graph():
            return Tensor._wrap(out_data)
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True), own=True)

        return Tensor._attach(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def cat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        return concatenate(list(tensors), axis=axis)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor._wrap(out_data)
    if requires:
        out.requires_grad = True
        out._parents = tuple(tensors)
        out._backward = backward
    return out
