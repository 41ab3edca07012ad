"""In-process transport connecting rank workers.

Messages between a fixed (source, destination) pair are delivered in send
order; collectives act as barriers because the engine drives all ranks in
bulk-synchronous phases.  A payload is an array or a tuple of arrays, and a
send charges the ledgers exactly the bytes it carries: a send whose charged
byte count differs from its payload's size raises ``TransportError``.

Real network backends are out of scope, but the interface is small enough
that one could be substituted: send/recv plus an order-insensitive
collective merge.
"""
from __future__ import annotations

from collections import deque

from .layout import TrafficLedger


class TransportError(RuntimeError):
    pass


class Transport:
    def __init__(self, n_ranks: int, ledgers: list[TrafficLedger]):
        self.n_ranks = n_ranks
        self.ledgers = ledgers
        self._mailboxes: dict[tuple[int, int], deque] = {}

    def send(self, src: int, dst: int, payload, nbytes: int) -> None:
        if not (0 <= src < self.n_ranks and 0 <= dst < self.n_ranks) or src == dst:
            raise TransportError(f"invalid rank pair ({src}, {dst})")
        carried = (payload.nbytes if hasattr(payload, "nbytes")
                   else sum(part.nbytes for part in payload))
        if carried != nbytes:
            raise TransportError(
                f"send from rank {src} to rank {dst} charges {nbytes} B "
                f"but carries {carried} B")
        self._mailboxes.setdefault((src, dst), deque()).append(payload)
        self.ledgers[src].count_send(nbytes)
        self.ledgers[dst].count_receive(nbytes)

    def recv(self, dst: int, src: int):
        box = self._mailboxes.get((src, dst))
        if not box:
            raise TransportError(f"no message pending from rank {src} to rank {dst}")
        return box.popleft()

    def collective(self, contributions: list):
        """Gather one contribution per rank, in rank order.

        The caller reduces the gathered list itself; reductions must be
        insensitive to worker visiting order, which rank-ordered gathering
        guarantees.  Collective payloads are control-plane traffic and are
        not charged to the byte counters.
        """
        if len(contributions) != self.n_ranks:
            raise TransportError(
                f"collective needs {self.n_ranks} contributions, got {len(contributions)}")
        return list(contributions)

    def assert_drained(self) -> None:
        leftover = {k: len(v) for k, v in self._mailboxes.items() if v}
        if leftover:
            raise TransportError(f"undelivered messages: {leftover}")
