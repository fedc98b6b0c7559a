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
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn import SGD
from repro.nn.module import Module, Parameter

__all__ = [
    "SyncSchedule",
    "parse_sync_schedule",
    "ReplicaSet",
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
    momentum buffer) diverge.  This class owns the diverged state as one
    ``(world, *shape)`` parameter stack and one velocity stack per model
    parameter, and a local step touches the live ranks' rows together:
    ``load(active)`` gathers them — the stacks
    :func:`~repro.nn.batched.replica_views` installs for one world-batched
    forward/backward — ``step`` applies one :class:`~repro.nn.SGD` update to
    all of them (elementwise, so every row gets the floats a per-rank
    optimiser would compute) and ``save(active)`` writes them back.  The
    shared model's own parameters keep the last averaged state.

    Normalisation running statistics (non-parameter buffers) stay shared
    across ranks, matching the synchronous simulator's single-model design.
    """

    def __init__(self, model: Module, world_size: int, lr: float, momentum: float) -> None:
        self.world_size = world_size
        named = list(model.named_parameters())
        self.names = [name for name, _ in named]
        self.params: List[np.ndarray] = [
            np.stack([param.data] * world_size) for _, param in named
        ]
        #: Zeros until a rank steps: a fresh momentum buffer, as SGD allocates it.
        self.velocities: List[np.ndarray] = [np.zeros_like(stack) for stack in self.params]
        #: The loaded rows, one Parameter per model parameter: what ``step`` updates.
        self._loaded = [Parameter(stack) for stack in self.params]
        self.optimizer = SGD(self._loaded, lr=lr, momentum=momentum)

    def _rows(self, ranks: Sequence[int]):
        """Index of ``ranks``' rows: a slice (a view, no gather) for the whole world."""
        return slice(None) if len(ranks) == self.world_size else list(ranks)

    # ------------------------------------------------------------------ #
    def load(self, active: Sequence[int]) -> Dict[str, np.ndarray]:
        """Gather the rows of ``active`` (sorted ranks) for one world-batched pass.

        Returns ``{name: (len(active), *shape)}`` parameter stacks and points
        the optimiser at the same rows and their velocities.
        """
        rows = self._rows(active)
        for loaded, stack in zip(self._loaded, self.params):
            loaded.data = stack[rows]
        self.optimizer.velocity = [velocity[rows] for velocity in self.velocities]
        return {name: loaded.data for name, loaded in zip(self.names, self._loaded)}

    def step(self, grads: Dict[str, np.ndarray], mask=None) -> None:
        """One SGD update of the loaded rows from ``(len(active), *shape)`` gradient stacks.

        ``mask`` (a :class:`~repro.pruning.PruningMask`) re-zeroes pruned
        weights afterwards, as ``mask.apply_to_weights`` does on the model.
        """
        for name, loaded in zip(self.names, self._loaded):
            loaded.grad = grads.get(name)
        self.optimizer.step()
        for name, loaded in zip(self.names, self._loaded):
            loaded.grad = None
            keep = None if mask is None else mask.get(name)
            if keep is not None:
                loaded.data = loaded.data * keep

    def save(self, active: Sequence[int]) -> None:
        """Write the stepped rows of ``active`` back into the stacks."""
        rows = self._rows(active)
        for index, loaded in enumerate(self._loaded):
            if isinstance(rows, slice):
                # The whole world: the stepped stack replaces the old one, and
                # its velocity rows were views, updated in place.
                self.params[index] = loaded.data
                continue
            self.params[index][rows] = loaded.data
            self.velocities[index][rows] = self.optimizer.velocity[index]

    # ------------------------------------------------------------------ #
    def params_dict(self, ranks: Sequence[int]) -> Dict[str, np.ndarray]:
        """``{name: (len(ranks), *shape)}`` parameter stacks of ``ranks``."""
        rows = self._rows(ranks)
        return {name: stack[rows] for name, stack in zip(self.names, self.params)}

    def delta(self, ranks: Sequence[int], anchor: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """``ranks``' model deltas relative to the last synced ``anchor`` state, stacked."""
        rows = self._rows(ranks)
        return {name: stack[rows] - anchor[name] for name, stack in zip(self.names, self.params)}

    def assign(self, rank: int, params: Dict[str, np.ndarray]) -> None:
        """Reset one rank's replica to ``params`` (e.g. on re-join)."""
        for name, stack in zip(self.names, self.params):
            stack[rank] = params[name]

    def reset_all(self, params: Dict[str, np.ndarray], ranks: Sequence[int]) -> None:
        """Reset the given ranks' replicas to the averaged ``params``."""
        rows = self._rows(ranks)
        for name, stack in zip(self.names, self.params):
            stack[rows] = params[name]

    def reset_velocity(self, rank: int) -> None:
        """Zero one rank's momentum state (a re-joining rank starts fresh)."""
        for velocity in self.velocities:
            velocity[rank] = 0.0
