"""Outside-in layer probe: spans around the program's public entry points.

The program is not edited.  :data:`TABLE` names, per layer (= ``repro``
module), the public attributes whose calls mark that layer's boundary;
:meth:`Probe.install` swaps each for a wrapper that records one span per call
— ``[layer, name, start, end, parent span, op id]`` — into an in-memory list,
and :meth:`Probe.uninstall` puts the originals back.  Class attributes are
patched on the class; module functions are patched in every loaded ``repro.*``
module that holds the same object, because ``simulation/experiment.py`` and
``campaign/runner.py`` import names directly (``from ... import apply_gse``).

A span's *self time* is its duration minus the part its child spans cover, so
layer self times plus the harness's own glue sum to the op span by
construction, and ``simulation.experiment`` — the layer of ``run_experiment``
itself — is the honest "driver remainder": everything the loops in
``experiment.py`` do between calls into other layers.

A refactor that renames an entry makes ``resolve`` raise, which
``test_e2e_smoke.py`` turns into a tier-1 failure instead of a silently
dropped layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from typing import Dict, Iterator, List, Tuple

#: (layer, module that exports the owner, dotted attribute path in that module)
TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("tensorlib.backward", "repro.tensorlib", "Tensor.backward"),
    ("nn.forward", "repro.nn", "Module.__call__"),
    ("nn.optim", "repro.nn", "SGD.step"),
    ("nn.models", "repro.nn.models", "build_model"),
    ("data", "repro.data", "make_dataset"),
    ("data", "repro.data", "train_test_split"),
    ("data", "repro.data", "DataLoader.__iter__"),
    ("pruning", "repro.pruning", "magnitude_prune"),
    ("pruning", "repro.pruning", "grasp_prune"),
    ("pruning", "repro.pruning", "apply_gse"),
    ("pruning", "repro.pruning", "PruningMask.apply_to_weights"),
    ("compression", "repro.compression", "CodecCompressor.aggregate"),
    ("compression", "repro.compression", "Pipeline.encode_all"),
    ("compression", "repro.compression", "Pipeline.decode"),
    ("pactrain", "repro.pactrain", "MaskTracker.update_from_rank_gradients"),
    ("pactrain", "repro.pactrain", "MaskTracker.update"),
    ("comm", "repro.comm", "ProcessGroup.all_reduce"),
    ("comm", "repro.comm", "ProcessGroup.all_gather"),
    ("comm", "repro.comm", "ProcessGroup.broadcast"),
    ("comm", "repro.comm", "ProcessGroup.reduce_scatter"),
    ("ddp", "repro.ddp", "DistributedDataParallel.__init__"),
    ("ddp", "repro.ddp", "DistributedDataParallel.compute_local_gradients"),
    ("ddp", "repro.ddp", "DistributedDataParallel.compute_batched_gradients"),
    ("ddp", "repro.ddp", "DistributedDataParallel.stage_rank_gradients"),
    ("ddp", "repro.ddp", "DistributedDataParallel.stage_world_gradients"),
    ("ddp", "repro.ddp", "DistributedDataParallel.synchronize_staged"),
    ("ddp", "repro.ddp", "DistributedDataParallel.apply_aggregated_gradients"),
    ("ddp", "repro.ddp", "DistributedDataParallel.set_active_ranks"),
    ("ddp", "repro.ddp", "DistributedDataParallel.snapshot_parameters"),
    ("simulation.engine", "repro.simulation", "SimulationEngine.run_iteration"),
    ("simulation.engine", "repro.simulation", "SimulationEngine.run_local_iteration"),
    ("simulation.engine", "repro.simulation", "EventHeap.push"),
    ("simulation.engine", "repro.simulation", "EventHeap.pop"),
    ("simulation.engine", "repro.simulation", "LinkChannel.acquire"),
    ("simulation.cluster", "repro.simulation", "ClusterSpec.per_rank_iteration_times"),
    ("simulation.cluster", "repro.simulation", "ClusterSpec.process_group"),
    ("simulation.cluster", "repro.simulation", "ClusterSpec.cost_model_for"),
    ("simulation.timeline", "repro.simulation", "TrainingTimeline.add_iteration"),
    ("simulation.timeline", "repro.simulation", "TrainingTimeline.add_sync_round"),
    ("simulation.timeline", "repro.simulation", "TrainingTimeline.snapshot_epoch"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.__init__"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.load"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.save"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.step"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.params_dict"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.delta"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.assign"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.reset_all"),
    ("simulation.regimes", "repro.simulation.regimes", "ReplicaSet.reset_velocity"),
    ("simulation.experiment", "repro.simulation", "evaluate_accuracy"),
    ("simulation.experiment", "repro.simulation", "run_experiment"),
    ("campaign.spec", "repro.campaign", "CampaignSpec.expand"),
    ("campaign.spec", "repro.campaign", "CampaignCell.fingerprint"),
    ("campaign.store", "repro.campaign", "ResultStore.__init__"),
    ("campaign.store", "repro.campaign", "ResultStore.get"),
    ("campaign.store", "repro.campaign", "ResultStore.get_by_key"),
    ("campaign.store", "repro.campaign", "ResultStore.put"),
    ("campaign.store", "repro.campaign", "ResultStore.pivot"),
    ("campaign.runner", "repro.campaign", "run_campaign"),
)

#: The layers, in stack order (first appearance in the table).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TABLE))

#: Layer of the spans the harness itself opens around each op.
HARNESS = "harness"


def resolve(module_name: str, path: str):
    """``(owner, attribute name, function)`` for one table entry.

    The owner is the class for ``"Class.method"`` paths and the exporting
    module for bare function names.  Raises ``AttributeError`` /
    ``ImportError`` when the entry point no longer exists and ``TypeError``
    when it is no longer a plain function (the only thing the wrapper knows
    how to stand in for).
    """
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # vars(), not getattr(): the patch must land on the class that defines
    # the method, or uninstall would leave a shadowing attribute behind.
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}:{path} is not defined on {owner.__name__} itself")
    original = vars(owner)[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"{module_name}:{path} is {type(original).__name__}, not a plain function")
    return owner, attr, original


class Probe:
    """Span recorder plus the patch bookkeeping to install and remove it."""

    def __init__(self) -> None:
        #: ``[layer, name, start, end, parent index or -1, op id]`` per span.
        self.spans: List[list] = []
        self.op_id = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, layer: str, name: str) -> list:
        stack = self._stack
        span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The harness's own root span around one op."""
        self.op_id = op_id
        span = self._open(HARNESS, "op")
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                # Not inside an op: the harness's own checks calling the program.
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if inspect.isgenerator(result):
                # A generator function returns before doing its work
                # (DataLoader.__iter__): time each resumption instead.
                return self._resumptions(layer, name, result)
            return result

        return wrapper

    def _resumptions(self, layer: str, name: str, generator):
        while True:
            span = self._open(layer, name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("probe already installed")
        try:
            for layer, module_name, path in TABLE:
                owner, attr, original = resolve(module_name, path)
                wrapper = self._wrap(layer, path, original)
                if inspect.isclass(owner):
                    holders = [(owner, attr)]
                else:
                    holders = [
                        (module, key)
                        for module_key, module in list(sys.modules.items())
                        if module is not None
                        and (module_key == "repro" or module_key.startswith("repro."))
                        for key, value in list(vars(module).items())
                        if value is original
                    ]
                for holder, key in holders:
                    setattr(holder, key, wrapper)
                    self._patched.append((holder, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Probe"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # Folding
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the child spans' durations."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        return own

    def fold(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": total self seconds, "calls": span count}}``.

        Covers every layer of :data:`LAYERS` (zeros when it never ran) plus
        :data:`HARNESS`, whose ``calls`` is the number of ops traced and whose
        ``span_s`` is the summed op span the self times add up to.
        """
        folded = {layer: {"self_s": 0.0, "calls": 0} for layer in (*LAYERS, HARNESS)}
        folded[HARNESS]["span_s"] = 0.0
        for span, own in zip(self.spans, self.self_times()):
            entry = folded[span[0]]
            entry["self_s"] += own
            entry["calls"] += 1
            if span[0] == HARNESS:
                entry["span_s"] += span[3] - span[2]
        return folded
