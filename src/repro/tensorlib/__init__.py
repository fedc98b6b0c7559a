"""Numpy-backed reverse-mode automatic differentiation engine.

This package provides the tensor substrate that the rest of the reproduction is
built on.  The paper's prototype uses PyTorch; no deep-learning framework is
available in this environment, so :mod:`repro.tensorlib` implements the minimal
but complete set of differentiable operations needed to train the evaluation
models (VGG19, ResNet-18/152, ViT-Base-16) from scratch:

* a :class:`Tensor` object carrying a value, a gradient and a backward closure,
* broadcasting-aware elementwise arithmetic,
* matrix multiplication, reductions, reshaping/transposition/indexing,
* convolution and pooling primitives built on im2col,
* the nonlinearities and normalisation statistics used by the model zoo.

The engine is intentionally small and explicit: every op registers a backward
closure on the output tensor and :meth:`Tensor.backward` performs a topological
sweep.  There is no graph caching, fusion or device abstraction — clarity over
speed, since training time in the experiments is *modeled* (see
``repro.simulation``) rather than measured.
"""

from repro.tensorlib.tensor import Tensor, no_grad, is_grad_enabled, set_grad_enabled
from repro.tensorlib.dtypes import (
    default_dtype,
    get_default_dtype,
    resolve_dtype,
    set_default_dtype,
)
from repro.tensorlib.backend import (
    get_backend,
    set_backend,
    use_backend,
)
from repro.tensorlib import backend
from repro.tensorlib import functional
from repro.tensorlib import init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "resolve_dtype",
    "get_backend",
    "set_backend",
    "use_backend",
    "backend",
    "functional",
    "init",
]
