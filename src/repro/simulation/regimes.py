"""Training-regime schedules: synchronous, local-SGD and async parameter server.

A :class:`SyncSchedule` describes *when* the simulated ranks synchronise —
orthogonally to *what* they put on the wire (the compressor spec).  It is
carried as a compact string on :class:`~repro.simulation.spec.MethodSpec`
(``sync_schedule``), making the regime a first-class campaign axis, and parsed
by :func:`parse_sync_schedule`: the leading token picks the regime's parser.

Grammar (case-insensitive; ``None`` and ``""`` mean the synchronous default)::

    sync                synchronous data-parallel (the historical behaviour)
    localsgd:H          local SGD / periodic averaging: every rank takes H
                        local optimiser steps, then the replicas are averaged
                        (dense fp32 parameter all-reduce)
    localsgd:H:delta    ... but the collective compresses each rank's *model
                        delta* (parameters minus the last synced state)
                        through the method's codec pipeline — error feedback,
                        elastic residual resizing and wire-byte accounting all
                        compose exactly as they do for gradients
    ps[:S]              stale-gradient asynchronous parameter server: workers
                        pull parameters and push compressed gradients with no
                        barrier; ``S`` bounds the progress skew between the
                        fastest and slowest worker (stale synchronous
                        parallel), unbounded when omitted

``localsgd:1`` (with or without ``:delta``) *is* synchronous training — a
collective after every single local step leaves nothing to accumulate — so the
driver routes it through the unmodified synchronous path.  The regime-parity
tests pin this bit-identically for every golden method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn import SGD
from repro.nn.module import Module

__all__ = [
    "SyncSchedule",
    "parse_sync_schedule",
    "ReplicaSet",
    "TrainingCheckpoint",
]

#: The regimes the training driver knows how to interpret.
KNOWN_REGIMES = ("sync", "localsgd", "ps")


@dataclass(frozen=True)
class SyncSchedule:
    """One parsed synchronisation schedule (see module docstring).

    ``period`` is the local-SGD averaging period H (always 1 outside the
    local-SGD regime); ``delta`` selects model-delta compression at the
    averaging collective; ``staleness`` is the async-PS progress-skew bound
    (``None`` = unbounded).
    """

    regime: str = "sync"
    period: int = 1
    delta: bool = False
    staleness: Optional[int] = None

    def __post_init__(self) -> None:
        if self.regime not in KNOWN_REGIMES:
            raise ValueError(
                f"unknown training regime {self.regime!r}; known: {KNOWN_REGIMES}"
            )
        if not isinstance(self.period, int) or self.period < 1:
            raise ValueError(f"sync period must be an integer >= 1, got {self.period!r}")
        if self.regime != "localsgd":
            if self.period != 1:
                raise ValueError(f"period only applies to localsgd, got {self.regime}:{self.period}")
            if self.delta:
                raise ValueError(f"delta mode only applies to localsgd, got regime {self.regime!r}")
        if self.staleness is not None:
            if self.regime != "ps":
                raise ValueError(
                    f"staleness only applies to the ps regime, got {self.regime!r}"
                )
            if not isinstance(self.staleness, int) or self.staleness < 0:
                raise ValueError(
                    f"staleness bound must be an integer >= 0, got {self.staleness!r}"
                )

    # ------------------------------------------------------------------ #
    @property
    def is_synchronous(self) -> bool:
        """Whether the driver takes the (bit-identical) synchronous path.

        ``localsgd:1`` degenerates to synchronous training: averaging after
        every local step is exactly one gradient step from the shared state,
        so the canonical implementation is the synchronous loop itself.
        """
        return self.regime == "sync" or (self.regime == "localsgd" and self.period == 1)

    def spec(self) -> str:
        """Canonical spec string that parses back to this schedule."""
        if self.regime == "localsgd":
            base = f"localsgd:{self.period}"
            return base + ":delta" if self.delta else base
        if self.regime == "ps":
            return "ps" if self.staleness is None else f"ps:{self.staleness}"
        return "sync"


_SYNC = SyncSchedule()


def _parse_int(text: str, what: str, spec: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(
            f"invalid sync schedule {spec!r}: {what} must be an integer, got {text!r}"
        ) from None


def _parse_sync(spec: str, rest: List[str]) -> SyncSchedule:
    if rest:
        raise ValueError(f"invalid sync schedule {spec!r}: 'sync' takes no parameters")
    return _SYNC


def _parse_localsgd(spec: str, rest: List[str]) -> SyncSchedule:
    if not rest or len(rest) > 2:
        raise ValueError(
            f"invalid sync schedule {spec!r}: expected 'localsgd:H' or 'localsgd:H:delta'"
        )
    period = _parse_int(rest[0], "the averaging period H", spec)
    if period < 1:
        raise ValueError(f"invalid sync schedule {spec!r}: H must be >= 1, got {period}")
    delta = False
    if len(rest) == 2:
        if rest[1] != "delta":
            raise ValueError(
                f"invalid sync schedule {spec!r}: the third token must be 'delta', "
                f"got {rest[1]!r}"
            )
        delta = True
    return SyncSchedule(regime="localsgd", period=period, delta=delta)


def _parse_ps(spec: str, rest: List[str]) -> SyncSchedule:
    if len(rest) > 1:
        raise ValueError(f"invalid sync schedule {spec!r}: expected 'ps' or 'ps:S'")
    staleness: Optional[int] = None
    if rest:
        staleness = _parse_int(rest[0], "the staleness bound S", spec)
        if staleness < 0:
            raise ValueError(
                f"invalid sync schedule {spec!r}: staleness must be >= 0, got {staleness}"
            )
    return SyncSchedule(regime="ps", staleness=staleness)


#: The first ``:``-separated token selects the parser for the rest.
_PARSERS: Dict[str, Callable[[str, List[str]], SyncSchedule]] = {
    "sync": _parse_sync,
    "localsgd": _parse_localsgd,
    "local-sgd": _parse_localsgd,
    "ps": _parse_ps,
    "async-ps": _parse_ps,
}


def parse_sync_schedule(spec: Optional[str]) -> SyncSchedule:
    """Parse a ``sync_schedule`` spec string (module docstring grammar).

    ``None`` and blank strings mean the synchronous default.  Raises
    ``ValueError`` for unknown regimes, non-integer or out-of-range
    parameters, and trailing garbage — campaign axes fail at expansion time,
    not mid-run.
    """
    if spec is None:
        return _SYNC
    text = str(spec).strip().lower()
    if not text:
        return _SYNC
    tokens = [token.strip() for token in text.split(":")]
    parser = _PARSERS.get(tokens[0])
    if parser is None:
        raise ValueError(
            f"unknown training regime {tokens[0]!r} in sync schedule {spec!r}; "
            f"known: {sorted(_PARSERS)}"
        )
    return parser(spec, tokens[1:])


# --------------------------------------------------------------------------- #
# Local-SGD replica state
# --------------------------------------------------------------------------- #
class ReplicaSet:
    """Per-rank parameter/velocity replicas for local-SGD windows.

    The simulator shares one model across ranks because synchronous DDP makes
    every rank apply the identical aggregated gradient.  Local SGD breaks that
    identity: between averaging collectives each rank's parameters (and its
    momentum buffer) diverge.  This class owns the diverged state — one
    parameter-array list and one :class:`~repro.nn.SGD` instance per rank —
    and swaps it through the shared model for each rank's local step
    (``load``, then forward/backward/step, then ``save``).

    Normalisation running statistics (non-parameter buffers) stay shared
    across ranks, matching the synchronous simulator's single-model design.
    """

    def __init__(
        self,
        model: Module,
        world_size: int,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.model = model
        self.world_size = world_size
        self._named = list(model.named_parameters())
        self.replicas: List[List[np.ndarray]] = [
            [param.data.copy() for _, param in self._named] for _ in range(world_size)
        ]
        self.optimizers: List[SGD] = [
            SGD(
                [param for _, param in self._named],
                lr=lr,
                momentum=momentum,
                weight_decay=weight_decay,
            )
            for _ in range(world_size)
        ]

    # ------------------------------------------------------------------ #
    def load(self, rank: int) -> None:
        """Point the shared model's parameters at ``rank``'s replica arrays."""
        for (_, param), stored in zip(self._named, self.replicas[rank]):
            param.data = stored

    def save(self, rank: int) -> None:
        """Store the model's current parameter arrays back into ``rank``'s replica."""
        self.replicas[rank] = [param.data for _, param in self._named]

    def step(self, rank: int) -> None:
        """Apply ``rank``'s local optimiser step (its own velocity buffers)."""
        self.optimizers[rank].step()

    # ------------------------------------------------------------------ #
    def params_dict(self, rank: int) -> Dict[str, np.ndarray]:
        """``{name: array}`` view of one rank's replica (no copies)."""
        return {
            name: stored for (name, _), stored in zip(self._named, self.replicas[rank])
        }

    def delta(self, rank: int, anchor: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """One rank's model delta relative to the last synced ``anchor`` state."""
        return {
            name: stored - anchor[name]
            for (name, _), stored in zip(self._named, self.replicas[rank])
        }

    def assign(self, rank: int, params: Dict[str, np.ndarray]) -> None:
        """Reset one rank's replica to copies of ``params`` (e.g. on re-join)."""
        self.replicas[rank] = [params[name].copy() for name, _ in self._named]

    def reset_all(self, params: Dict[str, np.ndarray], ranks) -> None:
        """Reset the given ranks' replicas to copies of the averaged ``params``."""
        for rank in ranks:
            self.assign(rank, params)

    def reset_velocity(self, rank: int) -> None:
        """Zero one rank's momentum state (a re-joining rank starts fresh)."""
        optimizer = self.optimizers[rank]
        optimizer.load_state_arrays([None] * len(optimizer.parameters))


# --------------------------------------------------------------------------- #
# Checkpoint/restore on the elastic seam
# --------------------------------------------------------------------------- #
@dataclass
class TrainingCheckpoint:
    """Everything needed to resume a synchronous run bit-identically.

    Captured mid-run by
    ``train_distributed(config, method, checkpoint_at=i, checkpoint_box=box)``
    (:func:`repro.simulation.experiment.train_distributed`) and consumed by
    ``train_distributed(config, method, resume_from=box[0])`` — a run built
    from the same two specs, so what those determine (the modeled per-rank
    compute, the bucket layout, whether the target was reached by the epochs
    the ``timeline`` recorded) is not stored here.  All array state is
    deep-copied at capture *and* at restore, so one checkpoint can seed
    several resumes and outlive the run that wrote it.  Fault-interpreter
    state (cursor, surviving membership, link factor) rides along, so a
    checkpoint taken inside a degraded window resumes onto the same shrunken
    world — the elastic seam (``set_active_ranks`` + ``resize_world``) is
    re-applied, not replayed.
    """

    params: Dict[str, np.ndarray]
    velocities: List[Optional[np.ndarray]]
    compressor: object
    timeline: object
    epoch: int
    iteration_in_epoch: int
    #: Iterations run so far: the restored ``ddp.iteration`` (what the hook sees).
    global_iteration: int
    epoch_losses: List[float]
    fault_cursor: float
    active_ranks: List[int]
    link_factor: float
