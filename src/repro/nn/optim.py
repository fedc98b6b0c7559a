"""Optimisers.

Only SGD (with momentum) is provided, matching the optimiser used for the
paper's CIFAR training runs.  The optimiser operates on the parameter list of
a model replica; in distributed training the DDP simulator
replaces each parameter's ``grad`` with the aggregated gradient before
``step()`` is called, so the optimiser itself is oblivious to compression.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


class SGD:
    """Stochastic gradient descent with optional momentum.

    Parameters
    ----------
    parameters:
        Iterable of :class:`repro.nn.Parameter`.
    lr:
        Learning rate.
    momentum:
        Classical momentum factor; ``0`` disables the velocity buffer.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimiser constructed with no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        #: Per-parameter momentum buffers, ``None`` until a parameter's first
        #: step; updated in place, so a caller may hand in views to step.
        self.velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if grad.shape != param.data.shape:
                # Catches un-aggregated (world, *shape) stacks from the
                # world-batched execution path leaking into the optimiser:
                # those must go through the DDP arena/hook reduction first.
                raise ValueError(
                    f"gradient shape {grad.shape} does not match parameter shape "
                    f"{param.data.shape}; world-batched per-rank gradient stacks must "
                    "be aggregated (repro.ddp) before the optimiser step"
                )
            if self.momentum:
                velocity = self.velocity[index]
                if velocity is None:
                    velocity = self.velocity[index] = np.zeros_like(param.data)
                # In-place v = momentum * v + grad: the same two ufuncs (and
                # therefore the same floats) as the out-of-place update,
                # without reallocating the velocity buffer every step.
                np.multiply(velocity, self.momentum, out=velocity)
                np.add(velocity, grad, out=velocity)
                grad = velocity
            param.data = param.data - self.lr * grad
