"""``Tensor.backward`` consumes the tape: invisible to numbers, visible to memory.

The walk pops the topological list and, as soon as an interior node's closure
has run, drops that closure, the node's edges and its gradient.  The walk it
replaced — which kept all three until the root went out of scope — lives on
here as the oracle (:func:`retaining_backward`), and gradients are compared
with ``array_equal``, never ``allclose``:

* resnet18, vgg19, vit-base-16 and the golden MLP, per-rank loop and
  world-batched, two steps each: every parameter gradient and buffer;
* ``tracemalloc``: how far a conv/BN/ReLU stack's backward rises above what was
  live when it started;
* a conv node's patch matrix is already gone when the layer below runs;
* what a walked graph looks like afterwards, and that walking it again — the
  same root, or a second root over a shared sub-graph — raises instead of
  returning truncated gradients, while leaves keep accumulating across
  separate forward passes.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.nn import layers as L
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.tensorlib import Tensor, default_dtype, functional as F
from repro.tensorlib.tensor import _as_array
from tests.test_batchnorm_replay import _model_grads


def retaining_backward(self: Tensor, grad=None) -> None:
    """``Tensor.backward`` as of commit 70ee6f8: walk the list, release nothing."""
    if grad is None:
        if self.data.size != 1:
            raise ValueError("backward() without a gradient requires a scalar output")
        grad = np.ones_like(self.data)
    grad = _as_array(grad, dtype=self.data.dtype)
    if grad.shape != self.data.shape:
        grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

    topo: list = []
    visited: set = set()
    stack = [(self, iter(self._parents))]
    seen_on_stack = {id(self)}
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

    self._accumulate(grad)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        node._backward(node.grad)


def _closure_variable(node: Tensor, name: str):
    fn = node._backward
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))[name]


class _ConvStack(Module):
    """Six conv + BN + ReLU blocks and a linear head."""

    def __init__(self, channels: int = 8) -> None:
        super().__init__()
        rng = np.random.default_rng(5)
        widths = [3] + [channels] * 6
        self.convs = [L.Conv2d(i, o, 3, padding=1, rng=rng) for i, o in zip(widths, widths[1:])]
        self.norms = [L.BatchNorm2d(channels) for _ in self.convs]
        for index, (conv, norm) in enumerate(zip(self.convs, self.norms)):
            setattr(self, f"conv{index}", conv)
            setattr(self, f"norm{index}", norm)
        self.head = L.Linear(channels, 10, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        for conv, norm in zip(self.convs, self.norms):
            x = norm(conv(x)).relu()
        return self.head(x.mean(axis=(2, 3)))


class TestSameNumbers:
    @pytest.mark.parametrize("batched", [False, True], ids=["looped", "world-batched"])
    @pytest.mark.parametrize("name", ["resnet18", "vgg19", "vit-base-16", "mlp"])
    def test_every_parameter_gradient_matches_the_retaining_walk(self, name, batched, monkeypatch):
        with default_dtype("float64"):
            rng = np.random.default_rng(23)
            images = rng.standard_normal((2, 4, 3, 8, 8))
            labels = rng.integers(0, 10, size=(2, 4))
            released = build_model(name, num_classes=10, seed=4)
            oracle = build_model(name, num_classes=10, seed=4)
            # Two steps: the second sees the running buffers the first left.
            for _ in range(2):
                got = _model_grads(released, images, labels, batched)
                with monkeypatch.context() as patch:
                    patch.setattr(Tensor, "backward", retaining_backward)
                    want = _model_grads(oracle, images, labels, batched)
                assert set(got) == set(want)
                for key, expected in want.items():
                    np.testing.assert_array_equal(got[key], expected, err_msg=f"{name}:{key}")


class TestMemory:
    def test_backward_stays_close_to_what_was_live_when_it_started(self):
        """``(peak inside backward - live at entry) / live at entry`` on the stack.

        Batch 64 of 3x16x16 images through :class:`_ConvStack`, float64, 83.2 MB
        live when the walk starts: 0.32 under the retaining walk (peak 110.0 MB:
        every interior gradient piles onto a tape that frees nothing, and
        102.2 MB are still live at exit), 0.09 with the tape consumed (peak
        90.9 MB: each released patch matrix pays for the next layer's
        temporaries; 0.3 MB at exit).  The threshold sits between the two.
        """
        with default_dtype("float64"):
            model = _ConvStack()
            images = np.random.default_rng(0).standard_normal((64, 3, 16, 16))
            labels = np.arange(64) % 10
            gc.collect()
            tracemalloc.start()
            try:
                loss = F.cross_entropy(model(Tensor(images)), labels)
                live, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                loss.backward()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (peak - live) / live < 0.2, f"live {live / 1e6:.1f} MB, peak {peak / 1e6:.1f} MB"

    def test_patch_matrix_is_gone_before_the_layer_below_runs(self):
        with default_dtype("float64"):
            rng = np.random.default_rng(1)
            below = L.Conv2d(3, 4, 3, padding=1, rng=rng)
            above = L.Conv2d(4, 4, 3, padding=1, rng=rng)
            lower = below(Tensor(rng.standard_normal((2, 3, 6, 6))))
            upper = above(lower)
            patches = weakref.ref(_closure_variable(upper, "cols"))
            assert patches() is not None
            run_below, gone = lower._backward, []

            def watched(grad):
                gone.append(patches() is None)
                run_below(grad)

            lower._backward = watched
            upper.sum().backward()
        assert gone == [True]
        assert below.weight.grad is not None and above.weight.grad is not None


class TestGraphAfterTheWalk:
    def _graph(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        hidden = x @ w
        active = hidden.relu()
        loss = (active * active).sum()
        return x, w, hidden, active, loss

    def test_interior_nodes_are_released_and_leaves_keep_their_gradients(self):
        x, w, hidden, active, loss = self._graph()
        loss.backward()
        for node in (hidden, active, loss):
            assert node.grad is None and node._parents == ()
        np.testing.assert_array_equal(x.grad, 2 * (x.data @ w.data) @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ (2 * (x.data @ w.data)))
        np.testing.assert_array_equal(active.data, x.data @ w.data)  # values stay

    def test_a_branch_that_received_no_gradient_is_released_too(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = x * 2.0
        root = Tensor._attach(np.zeros(()), (unused,), lambda grad: None)
        root.backward()
        assert unused._parents == () and x.grad is None
        with pytest.raises(RuntimeError, match="already consumed"):
            unused.sum().backward()

    def test_walking_the_same_root_twice_raises(self):
        *_, loss = self._graph()
        loss.backward()
        with pytest.raises(RuntimeError, match=r"graph already consumed by backward\(\); run the forward pass again"):
            loss.backward()

    def test_a_second_root_over_a_shared_subgraph_raises(self):
        x, w, hidden, active, loss = self._graph()
        other = (active * 3.0).sum()
        loss.backward()
        before = x.grad.copy()
        with pytest.raises(RuntimeError, match="graph already consumed"):
            other.backward()
        np.testing.assert_array_equal(x.grad, before)  # nothing truncated slipped through

    def test_a_leaf_root_can_be_walked_again(self):
        leaf = Tensor(np.ones(2), requires_grad=True)
        leaf.backward(np.ones(2))
        leaf.backward(np.ones(2))
        np.testing.assert_array_equal(leaf.grad, [2.0, 2.0])

    def test_leaves_accumulate_across_separate_forward_passes(self, monkeypatch):
        with default_dtype("float64"):
            rng = np.random.default_rng(2)
            images = rng.standard_normal((2, 4, 3, 8, 8))
            labels = rng.integers(0, 10, size=(2, 4))

            def two_passes(model):
                model.zero_grad()
                for rank in range(2):
                    F.cross_entropy(model(Tensor(images[rank])), labels[rank]).backward()
                return {name: param.grad.copy() for name, param in model.named_parameters()}

            got = two_passes(build_model("mlp", num_classes=10, seed=1))
            monkeypatch.setattr(Tensor, "backward", retaining_backward)
            want = two_passes(build_model("mlp", num_classes=10, seed=1))
        assert set(got) == set(want)
        for name, expected in want.items():
            np.testing.assert_array_equal(got[name], expected, err_msg=name)
            assert np.any(expected != 0.0)
