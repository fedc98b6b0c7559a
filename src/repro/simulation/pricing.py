"""The one place the bytes a transfer moved become simulated seconds.

Collectives move bytes and price nothing: each logs a
:class:`~repro.comm.collectives.CollectiveEvent` naming its ``op`` and the
per-worker ``payload_bytes`` it is charged for, which a run's log keeps as a
:class:`Transfer`.  The timeline's fold prices those (bucket collectives, a
re-join's model broadcast, a parameter-server pull or push as ``"p2p"``) under
the cluster's ``cost_model_for(members, link)``; the parameter server's event
clock, whose schedule depends on time, prices its own.  Outside
:mod:`repro.comm` nothing else calls a cost model's ``*_time`` methods.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from repro.comm.network import CostModel


class Transfer(NamedTuple):
    """One logged transfer: ``op`` (a collective's name or ``"p2p"``) and its per-worker bytes."""

    op: str
    payload_bytes: float


#: Each priced operation and the cost-model method that prices it.
_PRICES = {
    "all_reduce": lambda model, num_bytes: model.ring_all_reduce_time(num_bytes),
    "all_gather": lambda model, num_bytes: model.all_gather_time(num_bytes),
    "broadcast": lambda model, num_bytes: model.broadcast_time(num_bytes),
    "p2p": lambda model, num_bytes: model.p2p_time(num_bytes),
}


def op_time(cost_model: CostModel, op: str, num_bytes: float) -> float:
    """Seconds of one ``op`` (a collective's name or ``"p2p"``) moving ``num_bytes`` per worker."""
    try:
        price = _PRICES[op]
    except KeyError:
        raise ValueError(f"no price for {op!r}; only {', '.join(_PRICES)} are priced") from None
    return price(cost_model, num_bytes)


def comm_time(cost_model: CostModel, events: Sequence[Transfer]) -> float:
    """Seconds of ``events`` (anything with ``op`` and ``payload_bytes``), summed in issue order."""
    return bucket_times(cost_model, [events])[0]


def bucket_times(
    cost_model: CostModel, bucket_events: Sequence[Sequence[Transfer]]
) -> Tuple[float, List[float]]:
    """``(comm, per_bucket)``: one flat sum over every event in issue order
    (an entry's ``comm``) and one sum per bucket (what the engine schedules),
    each event priced once."""
    times = [[op_time(cost_model, e.op, e.payload_bytes) for e in events] for events in bucket_events]
    return float(sum(t for bucket in times for t in bucket)), [float(sum(bucket)) for bucket in times]
