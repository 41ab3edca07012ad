"""Partitioning of the state vector across ranks and exchange planning.

The full index space of an N-qubit state is split over n = 2**(N - N')
ranks; rank r owns the 2**N' global indices whose top N - N' bits equal r.
Gates on qubits below N' touch only co-resident amplitudes and need no
communication, and diagonal gates never move data regardless of their
qubit indices.  Every other gate has k = 1 or 2 qubits at or above N' and
couples the 2**k ranks that differ only in those bits.

The exchange-volume law is stated once, in ``exchanged_elements``: such a
gate moves 1 - 2**-k of the local elements out of every rank.  The exchange
planner, the label optimizer and the tier planner all take it from here.
The traffic ledger records these volumes exactly (count times bytes per
element for the storage mode), which is what makes the law assertable in
tests.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import gates as g
from .state import PrecisionMode

GIB = 1 << 30


@dataclass(frozen=True)
class PartitionLayout:
    total_qubits: int
    local_qubits: int

    def __post_init__(self):
        if self.total_qubits < 1:
            raise ValueError("need at least one qubit")
        if not 1 <= self.local_qubits <= self.total_qubits:
            raise ValueError(
                f"local qubits {self.local_qubits} not in [1, {self.total_qubits}]")

    @property
    def rank_count(self) -> int:
        return 1 << (self.total_qubits - self.local_qubits)

    @property
    def local_size(self) -> int:
        return 1 << self.local_qubits


def memory_bytes(n_qubits: int, mode: PrecisionMode) -> int:
    """State-vector bytes for an N-qubit register in the given storage mode."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return mode.bytes_per_element << n_qubits


def peak_bytes(layout: PartitionLayout, mode: PrecisionMode) -> int:
    """Most memory a run on ``layout`` is built to hold at once, in bytes.

    Storage, the payloads an exchange queues before its first member computes
    (1 - 2**-k of the state, k <= 2), and complex128 copies of one rank's
    slice: 4 for a kernel's working set, or in byte mode one per rank for the
    write it holds until the codebook barrier, and 8 for the codec.  A held
    byte-mode write is, for each code tuple the gate combines, its index
    among the distinct tuples (at most 4 B), and 16 B of ``(r, theta)`` per
    distinct result: about 1 B per amplitude when tuples repeat as in the
    byte-mode adder, and up to 18 B, 1/8 over its copy, when none repeats.
    Traced on 2**18 values, the codec's transients peak at 2.6 copies in
    ``canonicalize``, whose four parts ``propose`` then reads with up to 3.2
    more, 2.6 in ``encode`` and 1.5 in ``decode``; a byte-mode gate now runs
    them on its distinct tuples only.
    """
    storage = memory_bytes(layout.total_qubits, mode)
    queued = exchanged_elements(storage, min(2, layout.total_qubits - layout.local_qubits))
    copies = layout.rank_count + 8 if mode is PrecisionMode.BYTE else 4
    return storage + queued + copies * layout.local_size * 16


@dataclass(frozen=True)
class ExchangePlan:
    """What one gate moves between ranks.

    kind "none": all touched amplitudes are co-resident.
    kind "pairwise": each rank exchanges element_count elements with
        rank XOR masks[0].
    kind "quad": each rank sends element_count elements in total, a third to
        each other member of its four-rank group spanned by masks.
    """
    kind: str
    masks: tuple[int, ...]
    element_count: int
    bytes_per_element: int

    @property
    def bytes_per_rank(self) -> int:
        return self.element_count * self.bytes_per_element


def partition(n_qubits: int, ranks: int, local_qubits: int | None = None) -> PartitionLayout:
    """Layout of ``n_qubits`` over ``ranks`` partitions.

    ``local_qubits`` defaults to the qubits left after the rank bits; a given
    value must make the layout cover exactly ``ranks`` partitions.
    """
    if ranks < 1 or ranks & (ranks - 1):
        raise ValueError("rank count must be a power of two")
    if local_qubits is None:
        local_qubits = n_qubits - (ranks.bit_length() - 1)
    layout = PartitionLayout(n_qubits, local_qubits)
    if layout.rank_count != ranks:
        raise ValueError(
            f"{ranks} ranks with {local_qubits} local qubits does not cover "
            f"{n_qubits} qubits")
    return layout


def exchange_qubits(gate: g.Gate, n_local: int) -> tuple[int, ...]:
    """The gate's qubits in the rank bits; none for measurement or a diagonal."""
    if gate.kind == "M" or g.is_diagonal(gate):
        return ()
    return tuple(q for q in gate.qubits if q >= n_local)


def exchanged_elements(local_size: int, k: int) -> int:
    """Elements each rank sends for a gate with ``k`` qubits in the rank bits."""
    return local_size - (local_size >> k)


def plan_exchange(layout: PartitionLayout, gate: g.Gate, mode: PrecisionMode) -> ExchangePlan:
    """Exchange volume and partners implied by a gate under a layout."""
    n_local = layout.local_qubits
    high = exchange_qubits(gate, n_local)
    if not high:
        return ExchangePlan("none", (), 0, mode.bytes_per_element)
    if len(gate.qubits) == 2 and layout.local_size < 4:
        raise ValueError("two-qubit exchange needs at least 4 local amplitudes")
    return ExchangePlan("pairwise" if len(high) == 1 else "quad",
                        tuple(1 << (q - n_local) for q in high),
                        exchanged_elements(layout.local_size, len(high)),
                        mode.bytes_per_element)


@dataclass
class TrafficLedger:
    """Monotone per-rank counters; one instance per rank worker."""
    inter_rank_bytes_sent: int = 0
    inter_rank_bytes_received: int = 0
    inter_rank_messages: int = 0
    tier_bytes_moved: int = 0
    tier_transfer_count: int = 0
    gate_operations: int = 0

    def count_send(self, nbytes: int) -> None:
        self.inter_rank_bytes_sent += nbytes
        self.inter_rank_messages += 1

    def count_receive(self, nbytes: int) -> None:
        self.inter_rank_bytes_received += nbytes

    def count_tier(self, nbytes: int, transfers: int = 1) -> None:
        self.tier_bytes_moved += nbytes
        self.tier_transfer_count += transfers

    def snapshot(self) -> dict:
        return dict(self.__dict__)


def gibibytes_exchanged(ledger: TrafficLedger) -> int:
    """Data sent plus received by one rank, in integer GiB as reported."""
    return round((ledger.inter_rank_bytes_sent + ledger.inter_rank_bytes_received) / GIB)
