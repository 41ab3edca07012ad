"""The one group exchange behind every matrix or permutation gate and measurement.

An operation with k of its qubits in the rank bits couples the 2**k ranks
that differ only in those bits: the group spanned by the plan's masks.  The
member at position p, where bit j of p is the member's bit for the j-th
high qubit, owns the local indices whose top k local bits not used by the
operation read p: a ``(bits, values)`` part, viewed by ``kernels.bit_view``.
A gate with all its qubits local has k = 0: its group is its own rank, its
part the whole slice, and it sends nothing.

Every member sends every other member that member's part, as a copy of its
stored array (storage-dtype amplitudes, or 16-bit codes in byte mode), so
each message charges exactly the bytes it carries.  A member then computes
on 2**k aligned rows, row c holding the member at position c's amplitudes
of its own part, so that high qubit j is bit j of the row index (see
``row_qubits``).  Its own row is read where it sits in storage, and every
other row is the payload as it arrived.  A row is an ``(array, bits,
values)`` triple, the view ``kernels.bit_view`` gives of it.  Ranks are
yielded one at a time.

A run's exchanges need not allocate.  Payloads are then carved in send order
from ``outbox``, a flat storage-dtype array that holds one exchange's queued
payloads; every payload has been received by the time the generator
finishes, so the next exchange reuses the same memory.
"""
from __future__ import annotations


def _group_members(rank: int, masks: tuple[int, ...]) -> list[int]:
    """The ranks of ``rank``'s group, indexed by position."""
    base = rank & ~sum(masks)
    return [base | sum(m for j, m in enumerate(masks) if p >> j & 1)
            for p in range(1 << len(masks))]


def _low_part_bit(n_local: int, masks: tuple[int, ...], qubits) -> int:
    low = n_local - len(masks)
    return low - 1 if low in qubits else low


def row_qubits(qubits, n_local: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """Each of an operation's qubits as a bit of its rows, taken as one array.

    Rows hold 2**(n_local - k) amplitudes, and row c follows row c - 1, so a
    bit at or above n_local - k selects the row (``kernels.row_components``).
    With k = 0 the one row is the slice, and every qubit is its own bit.
    """
    k, low = len(masks), _low_part_bit(n_local, masks, qubits)
    return tuple(n_local - k + masks.index(1 << (q - n_local)) if q >= n_local
                 else q if q < low else q - k for q in qubits)


def group_exchange(states, transport, masks: tuple[int, ...], rank_order, qubits=(),
                   outbox=None):
    """Yield (rank, members, own part, rows) per visited rank.

    ``qubits`` are the operation's qubits; local ones are kept out of the
    bits that select a part.  Row c is the member at position c's part:
    ``(storage, *own)`` for the visiting rank, ``(payload, (), ())`` for every
    other member; with no masks a rank's group is itself, its one row is
    ``(storage, (), ())``, and nothing is sent.  Every payload is copied and
    sent before the first rank is yielded, and a rank reads only its own
    part, so a caller may write a yielded rank's results into all its
    members' parts at once.  With
    ``outbox`` the payloads are its consecutive parts, so the previous
    exchange's must all have been received.
    """
    n_local, k = states[0].n_local, len(masks)
    low = _low_part_bit(n_local, masks, qubits)
    bits = tuple(range(low, low + k))
    parts = [(bits, tuple(p >> j & 1 for j in range(k))) for p in range(1 << k)]
    count = 1 << (n_local - k)
    nbytes = count * states[0].mode.bytes_per_element
    if outbox is not None:
        transport.assert_drained()
    sent = 0
    for rank in rank_order:
        for p, member in enumerate(_group_members(rank, masks)):
            if member != rank:
                out = None if outbox is None else outbox[sent:sent + count]
                sent += count
                transport.send(rank, member, states[rank].payload(parts[p], out), nbytes)
    for rank in rank_order:
        members = _group_members(rank, masks)
        own = parts[members.index(rank)]
        rows = [(states[rank].data, *own) if member == rank else
                (transport.recv(rank, member), (), ()) for member in members]
        yield rank, members, own, rows
