"""Declarative fault-injection scenarios for the simulated cluster.

A :class:`FaultPlan` describes, on the *simulated* clock, everything that can
go wrong with a training cluster: ranks crashing and re-joining, the
bottleneck link degrading (or recovering) over time, and stochastic straggler
churn.  The plan is pure data — a tuple of :class:`FaultEvent` records plus
churn parameters — and entirely seed-deterministic: replaying the same plan
against the same cluster produces bit-identical schedules, which keeps fault
studies cacheable and comparable like every other campaign axis.

The plan is *interpreted* by the training driver
(:func:`repro.simulation.experiment.train_distributed`): before each
iteration it asks the plan which ranks are alive and what the link factor is
at the current simulated time, then runs that iteration's collectives over
the surviving membership with the degraded link cost.  An **empty plan is
inert by construction** — the driver takes exactly the historical code path,
so golden traces are bit-identical to a build without this module.

Event grammar (also accepted, as a compact string, anywhere a plan is
configured — CLI ``--set faults=...``, campaign files, ``ClusterSpec``
construction)::

    crash:R@T          rank R dies at simulated time T
    rejoin:R@T         rank R re-joins at simulated time T
    link:F@T0-T1       link bandwidth is multiplied by F in [T0, T1)
    link:F@T0          ... from T0 onward (open-ended)
    churn:P[:F[:S]]    each iteration each live rank independently straggles
                       (compute x F, default 3.0) with probability P, drawn
                       from a counter-based RNG seeded by S (default 0)
    policy:carry|zero  residual policy on membership change (default carry)

Events are comma-separated: ``"crash:3@0.5,rejoin:3@2.0,link:0.25@1.0-2.0"``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["FaultEvent", "FaultPlan", "EMPTY_FAULT_PLAN"]

#: Residual policies applied when the world shrinks or grows mid-run.
RESIDUAL_POLICIES = ("carry", "zero")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault on the simulated clock.

    ``kind`` is ``"crash"``, ``"rejoin"`` or ``"link"``.  ``at`` is the
    simulated time the event fires.  ``rank`` applies to crash/rejoin;
    ``factor``/``until`` apply to link events (bandwidth is multiplied by
    ``factor`` from ``at`` until ``until``, or forever when ``until`` is
    ``None``).
    """

    kind: str
    at: float
    rank: int = -1
    factor: float = 1.0
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "rejoin", "link"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0.0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.kind in ("crash", "rejoin"):
            if self.rank < 0:
                raise ValueError(f"{self.kind} event needs a rank >= 0, got {self.rank}")
        else:
            if self.factor <= 0.0:
                raise ValueError(f"link factor must be positive, got {self.factor}")
            if self.until is not None and self.until <= self.at:
                raise ValueError(
                    f"link window must end after it starts, got [{self.at}, {self.until})"
                )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        data = {"kind": self.kind, "at": self.at}
        if self.kind in ("crash", "rejoin"):
            data["rank"] = self.rank
        else:
            data["factor"] = self.factor
            data["until"] = self.until
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown FaultEvent fields {sorted(unknown)}; known: {sorted(known)}")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of cluster faults (see module docstring).

    ``events`` fire at fixed simulated times; ``churn_probability`` adds
    stochastic per-iteration straggling on top (each live rank independently
    runs ``churn_factor`` x slower with that probability, drawn from a
    counter-based generator seeded by ``(churn_seed, iteration)`` so the
    draw for iteration *i* never depends on how many iterations ran before
    it).  ``residual_policy`` picks what happens to error-feedback residuals
    and other per-rank compressor state when membership changes: ``"carry"``
    keeps each surviving rank's rows (re-joining ranks start from zero),
    ``"zero"`` clears everything.
    """

    events: Tuple[FaultEvent, ...] = ()
    churn_probability: float = 0.0
    churn_factor: float = 3.0
    churn_seed: int = 0
    residual_policy: str = "carry"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not 0.0 <= self.churn_probability <= 1.0:
            raise ValueError(
                f"churn_probability must be in [0, 1], got {self.churn_probability}"
            )
        if self.churn_factor <= 0.0:
            raise ValueError(f"churn_factor must be positive, got {self.churn_factor}")
        if self.residual_policy not in RESIDUAL_POLICIES:
            raise ValueError(
                f"residual_policy must be one of {RESIDUAL_POLICIES}, "
                f"got {self.residual_policy!r}"
            )

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """Whether this plan can never perturb a run (the inert default)."""
        return not self.events and self.churn_probability == 0.0

    def sorted_events(self) -> List[FaultEvent]:
        """Events in firing order (time, then kind, then rank — deterministic)."""
        return sorted(self.events, key=lambda e: (e.at, e.kind, e.rank))

    def validate_for_world(self, world_size: int) -> None:
        """Check ranks are addressable and membership never empties.

        Replays the crash/rejoin schedule and raises ``ValueError`` if any
        event names a rank outside ``[0, world_size)``, crashes an
        already-dead rank, re-joins a live one, or would leave zero live
        ranks (the simulated job would simply be gone — reject the plan
        instead of modeling an impossible cluster).
        """
        alive = set(range(world_size))
        for event in self.sorted_events():
            if event.kind == "link":
                continue
            if not 0 <= event.rank < world_size:
                raise ValueError(
                    f"fault event {event.kind}:{event.rank} names a rank outside "
                    f"world_size={world_size}"
                )
            if event.kind == "crash":
                if event.rank not in alive:
                    raise ValueError(
                        f"rank {event.rank} crashes at t={event.at} but is already dead"
                    )
                alive.discard(event.rank)
                if not alive:
                    raise ValueError(
                        f"fault plan kills every rank by t={event.at}; at least one "
                        "rank must survive"
                    )
            else:
                if event.rank in alive:
                    raise ValueError(
                        f"rank {event.rank} re-joins at t={event.at} but is still alive"
                    )
                alive.add(event.rank)

    def validate_for_regime(self, regime: str) -> None:
        """Reject plan/regime combinations the driver cannot interpret.

        Fault events are applied at collective boundaries (the synchronous
        and local-SGD loops interpret them between iterations).  The async
        parameter-server loop has no such boundary — workers are mid-flight
        at arbitrary event times — so a non-empty plan there would silently
        never fire.  Fail loudly instead.
        """
        if regime == "ps" and not self.is_empty:
            raise ValueError(
                "fault plans are not supported in async parameter-server mode: "
                "the ps regime has no collective boundary at which membership "
                "changes could apply; use the 'sync' or 'localsgd:H' regimes "
                "for fault studies"
            )

    # ------------------------------------------------------------------ #
    # Interpretation
    # ------------------------------------------------------------------ #
    def active_ranks(self, world_size: int, time: float) -> List[int]:
        """Ranks alive at simulated ``time`` (events at exactly ``time`` included)."""
        alive = set(range(world_size))
        for event in self.sorted_events():
            if event.at > time:
                break
            if event.kind == "crash":
                alive.discard(event.rank)
            elif event.kind == "rejoin":
                alive.add(event.rank)
        return sorted(alive)

    def link_factor(self, time: float) -> float:
        """Product of all link-degradation factors whose window covers ``time``."""
        factor = 1.0
        for event in self.events:
            if event.kind != "link":
                continue
            if event.at <= time and (event.until is None or time < event.until):
                factor *= event.factor
        return factor

    def events_between(self, start: float, end: float) -> List[FaultEvent]:
        """Events firing in the half-open window ``(start, end]`` (firing order)."""
        return [e for e in self.sorted_events() if start < e.at <= end]

    def churn_multipliers(self, world_size: int, iteration: int) -> np.ndarray:
        """Per-rank compute multipliers for one iteration's straggler churn.

        Counter-based: the generator is seeded from ``(churn_seed,
        iteration)``, so the multipliers of iteration *i* are a pure function
        of the plan and *i* — independent of execution order, re-runs and
        other random state.  All-ones when churn is disabled.
        """
        if self.churn_probability <= 0.0:
            return np.ones(world_size)
        rng = np.random.default_rng([self.churn_seed, iteration])
        straggles = rng.random(world_size) < self.churn_probability
        return np.where(straggles, self.churn_factor, 1.0)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self.events],
            "churn_probability": self.churn_probability,
            "churn_factor": self.churn_factor,
            "churn_seed": self.churn_seed,
            "residual_policy": self.residual_policy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown FaultPlan fields {sorted(unknown)}; known: {sorted(known)}")
        kwargs = dict(data)
        kwargs["events"] = tuple(
            event if isinstance(event, FaultEvent) else FaultEvent.from_dict(event)
            for event in kwargs.get("events", ())
        )
        return cls(**kwargs)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the compact event grammar (module docstring).

        >>> FaultPlan.parse("crash:3@0.5,rejoin:3@2.0,link:0.25@1.0-2.0")
        ... # rank 3 dies at t=0.5, returns at t=2.0; link at 25% in [1, 2)
        """
        events: List[FaultEvent] = []
        churn: Dict[str, float] = {}
        policy = "carry"
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                kind, _, rest = token.partition(":")
                if kind == "policy":
                    policy = rest
                elif kind == "churn":
                    parts = rest.split(":")
                    churn["churn_probability"] = float(parts[0])
                    if len(parts) > 1:
                        churn["churn_factor"] = float(parts[1])
                    if len(parts) > 2:
                        churn["churn_seed"] = int(parts[2])
                elif kind in ("crash", "rejoin"):
                    rank_text, _, at_text = rest.partition("@")
                    events.append(FaultEvent(kind=kind, rank=int(rank_text), at=float(at_text)))
                elif kind == "link":
                    factor_text, _, window = rest.partition("@")
                    start_text, dash, end_text = window.partition("-")
                    events.append(
                        FaultEvent(
                            kind="link",
                            factor=float(factor_text),
                            at=float(start_text),
                            until=float(end_text) if dash else None,
                        )
                    )
                else:
                    raise ValueError(f"unknown fault token kind {kind!r}")
            except (ValueError, IndexError) as error:
                raise ValueError(
                    f"cannot parse fault token {token!r} (grammar: crash:R@T, "
                    f"rejoin:R@T, link:F@T0[-T1], churn:P[:F[:S]], "
                    f"policy:carry|zero): {error}"
                ) from error
        return cls(events=tuple(events), residual_policy=policy, **churn)

    @classmethod
    def coerce(cls, value) -> Optional["FaultPlan"]:
        """Normalise any accepted ``faults`` representation to a plan.

        ``None`` stays ``None`` (the inert default); strings go through
        :meth:`parse`; dicts through :meth:`from_dict`; plans pass through.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(
            f"faults must be a FaultPlan, grammar string, dict or None, "
            f"got {type(value).__name__}"
        )


#: The inert plan a faultless cluster behaves as.
EMPTY_FAULT_PLAN = FaultPlan()
