"""A plain (world 0) pass equals the per-rank oracle, byte for byte.

Each layer now has one forward for zero or one leading world axes, and a 4-D
convolution runs as world 1 of the batched kernel.  ``per_rank.py`` keeps the
per-rank bodies those forwards replaced; this file runs every registered
model through both — float32 and float64, train and eval mode — and compares
the loss, every parameter gradient and every buffer (BatchNorm's running
statistics) as bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.models import build_model
from repro.nn.models.registry import MODEL_REGISTRY
from repro.tensorlib import Tensor, default_dtype, functional as F
from tests.reference import per_rank


def _pass(name: str, dtype: str, training: bool) -> dict:
    """Loss, parameter gradients and buffers after the second of two forward/backward passes.

    Two, so that a train-mode pass folds batch statistics into running
    statistics that are no longer their initial zeros and ones.
    """
    with default_dtype(dtype):
        model = build_model(name, num_classes=5, seed=7).train(training)
        rng = np.random.default_rng(8)
        for _ in range(2):
            model.zero_grad()
            images = rng.standard_normal((3, 3, 8, 8)).astype(dtype)
            labels = rng.integers(0, 5, size=3)
            loss = F.cross_entropy(model(Tensor(images)), labels)
            loss.backward()
    result = {"loss": loss.data}
    result.update({f"grad {key}": param.grad for key, param in model.named_parameters()})
    result.update({f"buffer {key}": buffer for key, buffer in model.named_buffers()})
    return result


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_a_plain_pass_equals_the_per_rank_oracle(name, dtype, training, monkeypatch):
    got = _pass(name, dtype, training)
    per_rank.install(monkeypatch)
    want = _pass(name, dtype, training)
    assert list(got) == list(want)
    for key, expected in want.items():
        actual = got[key]
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), key
        assert actual.tobytes() == expected.tobytes(), key
