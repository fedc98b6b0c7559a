"""The five workloads: inputs, the op, and the checks on what it returns.

Every workload drives the program only through its public entry points.  A
workload has ``cycle`` distinct ops (its *seed cycle*): op ``i`` of a run with
``--seed S`` uses key ``(S + i) mod cycle``, and on the cell workloads the key
*is* the generated ``ExperimentConfig.seed``.  The seed therefore decides the
order the inputs arrive in and nothing else the program can see; the set of
distinct cells — and with it every simulated-clock metric and the result
digest — is the same for every seed, which is what lets those metrics be
compared exactly between two commits.

``run(key)`` is the timed op and does nothing but call the program.  It
looks ``run_experiment`` / ``run_campaign`` up on their package at call time
(``repro.simulation.run_experiment(...)``), never through a name imported
here, so that the layer probe's wrappers are the ones it calls.
``verify(key, output)`` runs untimed, raises :class:`CheckFailed` when the
output breaks one of the workload's assertions, and returns the op's results
as JSON-ready dicts for the bit-identity check and the digest.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List

import repro.campaign
import repro.simulation
from repro.campaign import CampaignSpec, ResultStore
from repro.golden import GOLDEN_CONFIG
from repro.simulation import PAPER_METHODS, ClusterSpec, ExperimentConfig


class CheckFailed(Exception):
    """An op's output broke a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------- #
# Single-cell workloads
# --------------------------------------------------------------------------- #
#: Shared shape of the three single-cell workloads (world 8, 100 Mbps,
#: float64, batched execution; two capped iterations per epoch).
CELL_BASE = dict(
    dataset="cifar10",
    batch_size=16,
    dataset_samples=256,
    noise_std=0.8,
    pretrain_iterations=3,
    max_iterations_per_epoch=2,
)


class CellWorkload:
    """Op = one ``run_experiment`` cell; key = ``ExperimentConfig.seed``."""

    cycle = 4

    def __init__(self, name: str, why: str, model: str, method: str, epochs: int) -> None:
        self.name = name
        self.why = why
        self.method = PAPER_METHODS[method]
        self.configs = [
            ExperimentConfig(
                model=model,
                epochs=epochs,
                seed=seed,
                cluster=ClusterSpec(world_size=8, bandwidth="100Mbps"),
                **CELL_BASE,
            )
            for seed in range(self.cycle)
        ]

    def setup(self, seed: int, scratch: str) -> None:
        """Nothing to build: the cell materialises its own dataset and model."""

    def run(self, key: int):
        return repro.simulation.run_experiment(self.configs[key], self.method)

    def verify(self, key: int, result) -> List[Dict]:
        require(result.iterations_run > 0, "no iterations ran")
        if self.method.pruning_ratio > 0.0:
            # The Mask Tracker stabilises after 3 iterations, so the second
            # half of the 6 takes the compacted path; a run that never leaves
            # full mode measures plain all-reduce under another name.
            require(
                result.extra.get("compact_iterations", 0.0) > 0,
                f"pactrain never took the compact path: {result.extra}",
            )
            require(
                abs(result.weight_sparsity - self.method.pruning_ratio) < 0.02,
                f"weight sparsity {result.weight_sparsity} is not ~{self.method.pruning_ratio}",
            )
        return [result.to_dict()]


# --------------------------------------------------------------------------- #
# Campaign workloads
# --------------------------------------------------------------------------- #
def golden_base(**overrides) -> Dict:
    """``GOLDEN_CONFIG`` as campaign base axes (world 4, 100 Mbps, tiny MLP)."""
    config = GOLDEN_CONFIG
    base = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
        if field.name != "cluster"
    }
    base.update(world_size=config.cluster.world_size, bandwidth=config.cluster.bandwidth)
    base.update(overrides)
    return base


REGIMES = ("sync", "localsgd:4:delta", "ps:2")

#: (method, extra axes) of the cells appended to the method x regime grid.
SWEEP_EXTRA_CELLS = (
    {"method": "pactrain"},
    {"method": "pactrain", "bandwidth": "1Gbps"},
    {"method": "topk-0.01", "faults": "crash:3@0.002,rejoin:3@0.004"},
    {"method": "all-reduce", "faults": "crash:3@0.01,rejoin:3@0.03"},
    {
        "method": "topk-0.01",
        "sync_schedule": "localsgd:4:delta",
        "faults": "crash:3@0.001,rejoin:3@0.003",
    },
    {"method": "fp16", "faults": "churn:0.2"},
)


class RegimeCellSweep:
    """Op = one cold 18-cell campaign into a fresh on-disk store."""

    name = "regime_cell_sweep"
    why = (
        "18 tiny MLP cells over sync/localsgd/ps, pactrain and four fault plans: no kernel "
        "dominates, so per-call overhead in ddp/data/optim/driver, the looped path, the fault "
        "cursor and store writes move it"
    )
    cycle = 4
    cells_per_op = 18

    def __init__(self) -> None:
        self.specs: List[CampaignSpec] = []
        self.scratch = ""
        self.ops_started = 0

    def setup(self, seed: int, scratch: str) -> None:
        self.scratch = scratch
        self.specs = [
            CampaignSpec(
                name=f"regime-cell-sweep-seed{key}",
                base=golden_base(seed=key),
                axes={
                    "method": ["all-reduce", "fp16", "topk-0.01", "topk0.01+terngrad"],
                    "sync_schedule": list(REGIMES),
                },
                cells=[dict(cell) for cell in SWEEP_EXTRA_CELLS],
            )
            for key in range(self.cycle)
        ]

    def run(self, key: int):
        self.ops_started += 1
        path = os.path.join(self.scratch, f"sweep-{self.ops_started}.jsonl")
        return path, repro.campaign.run_campaign(self.specs[key], store=ResultStore(path), jobs=1)

    def verify(self, key: int, output) -> List[Dict]:
        path, report = output
        try:
            require(report.failed == 0, f"{report.summary()}: {[o.error for o in report.failures()]}")
            require(
                report.ran == self.cells_per_op and report.cached == 0,
                f"cold sweep should train {self.cells_per_op} cells: {report.summary()}",
            )
            require(len(ResultStore(path)) == self.cells_per_op, "store file lost records")
            for outcome in report.outcomes:
                result, config, label = outcome.result, outcome.cell.config, outcome.cell.label
                regime = outcome.cell.method.schedule().regime
                if regime == "localsgd":
                    require(result.sync_rounds > 0, f"{label}: localsgd ran no sync round")
                if regime == "ps":
                    require(result.ps_updates > 0, f"{label}: ps applied no update")
                if config.cluster.fault_plan().events:
                    require(result.fault_events > 0, f"{label}: crash plan fired no fault event")
            return [outcome.result.to_dict() for outcome in report.outcomes]
        finally:
            os.remove(path)


#: The store_replay fill: 5 paper methods x 3 bandwidths, trained once, put
#: under 128 seed labels.
REPLAY_BANDWIDTHS = ("100Mbps", "500Mbps", "1Gbps")
REPLAY_SEED_LABELS = 128


class StoreReplay:
    """Op = re-open a 1 920-record store, replay the campaign, pivot it."""

    name = "store_replay"
    why = (
        "zero training: a 1920-cell campaign served from a 4 MB on-disk store, so only "
        "campaign.spec fingerprinting and campaign.store load/get move it, and tensorlib/codec "
        "changes must not"
    )
    cycle = 1

    def __init__(self) -> None:
        self.path = ""
        self.spec = CampaignSpec()
        self.trained: Dict = {}

    def setup(self, seed: int, scratch: str) -> None:
        methods = list(PAPER_METHODS)
        self.path = os.path.join(scratch, "replay-store.jsonl")
        self.spec = CampaignSpec(
            name="store-replay",
            base=golden_base(),
            axes={
                # The seed only rotates the order the labels are replayed in.
                "seed": [(seed + label) % REPLAY_SEED_LABELS for label in range(REPLAY_SEED_LABELS)],
                "bandwidth": list(REPLAY_BANDWIDTHS),
                "method": methods,
            },
        )
        # A synthetic fill, and honestly so: the 15 distinct (method,
        # bandwidth) cells are trained once at seed 0 and the same result is
        # stored under every seed label.  The store never inspects results,
        # and training 1 920 cells would make set-up the benchmark.
        trained_spec = dataclasses.replace(self.spec, axes={**self.spec.axes, "seed": [0]})
        for cell in trained_spec.expand():
            self.trained[self._cell_id(cell)] = repro.simulation.run_experiment(cell.config, cell.method)
        store = ResultStore(self.path)
        for cell in self.spec.expand():
            store.put(cell.config, cell.method, self.trained[self._cell_id(cell)])

    @staticmethod
    def _cell_id(cell):
        return cell.method.name, cell.config.cluster.bandwidth

    def run(self, key: int):
        store = ResultStore(self.path)
        report = repro.campaign.run_campaign(self.spec, store=store, jobs=1)
        return report, store.pivot("method", "bandwidth", "simulated_time")

    def verify(self, key: int, output) -> List[Dict]:
        report, (header, table) = output
        total = REPLAY_SEED_LABELS * len(self.trained)
        require(
            report.ran == 0 and report.cached == total and report.failed == 0,
            f"replay should serve all {total} cells from the store: {report.summary()}",
        )
        replayed: Dict = {}
        for outcome in report.outcomes:
            cell_id = self._cell_id(outcome.cell)
            require(
                outcome.result == self.trained[cell_id],
                f"{outcome.cell.label}: replayed result differs from the stored one",
            )
            replayed.setdefault(cell_id, outcome.result)
        require(len(table) == len(PAPER_METHODS), f"pivot rows: {table}")
        require(len(header) == 1 + len(REPLAY_BANDWIDTHS), f"pivot header: {header}")
        for row in table:
            for bandwidth, text in zip(header[1:], row[1:]):
                stored = "{:.3f}".format(replayed[(row[0], bandwidth)].simulated_time)
                require(text == stored, f"pivot[{row[0]}][{bandwidth}] = {text}, stored {stored}")
        return [replayed[cell_id].to_dict() for cell_id in sorted(replayed)]


def build() -> Dict[str, object]:
    """All workloads by name, in the order they run."""
    workloads = [
        CellWorkload(
            "conv_dense_sync",
            "resnet18 x dense all-reduce: kernel/autograd-bound (backward + forward ~90%, codec "
            "~0%), so tensorlib/nn work shows here and codec work must not",
            model="resnet18", method="all-reduce", epochs=2,
        ),
        CellWorkload(
            "topk_codec_sync",
            "vgg19 x topk-0.01: codec-bound (compression ~2/3, forward + backward ~1/4), the "
            "mirror image of conv_dense_sync",
            model="vgg19", method="topk-0.01", epochs=1,
        ),
        CellWorkload(
            "pactrain_pruned",
            "resnet18 x the paper's method (prune 0.5, GSE, ternary): drives the compression layer "
            "through mask compaction instead of top-k and adds pruning/pactrain",
            model="resnet18", method="pactrain", epochs=3,
        ),
        RegimeCellSweep(),
        StoreReplay(),
    ]
    return {workload.name: workload for workload in workloads}
