"""The one group exchange behind every cross-rank gate and measurement.

An operation with k of its qubits in the rank bits couples the 2**k ranks
that differ only in those bits: the group spanned by the plan's masks.  The
member at position p, where bit j of p is the member's bit for the j-th
high qubit, owns the local indices whose top k local bits not used by the
operation read p: a ``(bits, values)`` part, viewed by ``kernels.bit_view``.

Every member sends every other member that member's part, as a copy of its
stored form (storage-dtype amplitudes, or the two codebook index arrays in
byte mode), so each message charges exactly the bytes it carries.  Each
member then stacks the 2**k aligned components of its own part, component c
from the member at position c (its own straight from storage), into one
buffer in which high qubit j is bit n_local - k + j: complex128 amplitudes
in the fp modes, and in byte mode the 16-bit stored codes, so nothing is
decoded here (``LocalState.stack``).
Ranks are yielded one at a time, so a caller that stores as it goes holds
one rank's buffer at once.
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


def stacked_qubits(qubits, n_local: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """Each of an operation's qubits as a bit of the stacked buffer."""
    k, low = len(masks), _low_part_bit(n_local, masks, qubits)
    return tuple(n_local - k + masks.index(1 << (q - n_local)) if q >= n_local
                 else q if q < low else q - k for q in qubits)


def group_exchange(states, transport, masks: tuple[int, ...], rank_order, qubits=()):
    """Yield (rank, members, own part, stacked components) per visited rank.

    ``qubits`` are the operation's qubits; local ones are kept out of the
    bits that select a part.  Every payload is copied and sent before the
    first rank is yielded, and a rank reads only its own part, so a caller
    may store a yielded rank's results into all its members at once.
    """
    n_local, k = states[0].n_local, len(masks)
    low = _low_part_bit(n_local, masks, qubits)
    bits = tuple(range(low, low + k))
    parts = [(bits, tuple(p >> j & 1 for j in range(k))) for p in range(1 << k)]
    nbytes = (1 << (n_local - k)) * states[0].mode.bytes_per_element
    for rank in rank_order:
        for p, member in enumerate(_group_members(rank, masks)):
            if member != rank:
                transport.send(rank, member, states[rank].payload(parts[p]), nbytes)
    for rank in rank_order:
        members = _group_members(rank, masks)
        own = parts[members.index(rank)]
        state = states[rank]
        stacked = state.stack([state.views(own) if member == rank else
                               transport.recv(rank, member) for member in members])
        yield rank, members, own, stacked
