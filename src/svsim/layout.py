"""Partitioning of the state vector across ranks and exchange planning.

The full index space of an N-qubit state is split over n = 2**(N - N')
ranks; rank r owns the 2**N' global indices whose top N - N' bits equal r.
Gates on qubits below N' touch only co-resident amplitudes and need no
communication, and diagonal gates never move data regardless of their
qubit indices.  Every other gate has k = 1 or 2 qubits at or above N' and
couples the 2**k ranks that differ only in those bits.

The exchange-volume law is stated once, in ``exchanged_elements``: such a
gate moves 1 - 2**-k of the local elements out of every rank, one message
to each of the other 2**k - 1 ranks of its group.  The run's plan
(``engine.plan_run``), measurement rounds included, and the label optimizer
all take it from here.
The traffic ledger records these volumes exactly (count times bytes per
element for the storage mode), which is what makes the law assertable in
tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates as g
from .circuit import MAX_QUBITS
from .state import PrecisionMode


@dataclass(frozen=True)
class PartitionLayout:
    total_qubits: int
    local_qubits: int

    def __post_init__(self):
        if not 1 <= self.total_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
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


# What a rank holds besides amplitude data.  Traced with tracemalloc at the
# send phase of a quad exchange, 12 qubits on 256 ranks: 2.6 KB of mailbox
# queues for its three messages, 0.5-0.9 KB of payload array headers, and
# 1.1-1.4 KB of its LocalState, storage array headers, ledger and views;
# 4.6 KB in all in fp64 and 5.5 KB in byte mode.
RANK_OVERHEAD_BYTES = 6 << 10
# What a run holds per gate besides its arrays, until it ends: the gate's
# exchange plan, about 130 B, and the view shapes ``bit_view`` and
# ``row_components`` cache for it.  Traced with tracemalloc, caches cleared,
# at 16 qubits on 1 rank in fp32, with the peak at a last diagonal gate that
# takes numpy's buffers: each U4 on a pair of qubits no earlier gate used
# held 2.4-2.6 KB (2.0 KB of four ``bit_view`` shapes, 0.6 KB of its row
# components), and random circuits of all nine kinds held 0.4-0.9 KB per
# gate, 215 KB over 400 gates.  So no constant per run bounds it.  Each
# cache keeps at most 1024 entries.
GATE_OVERHEAD_BYTES = 3 << 10
# The fp workspace starts on a cache line, so it may skip up to this many
# bytes of what it allocates.
CACHE_LINE = 64
# A byte-mode write held until the barrier, per amplitude, when no code tuple
# repeats: 16 B of ``(r, theta)`` and up to 2 B of tuple index.
HELD_WRITE_BYTES = 18
# Byte mode's table from a 16-bit code to its distinct tuple, 65536 entries of
# up to 2 B, which one gate holds at a time.
TUPLE_TABLE_BYTES = 2 << 16


def ufunc_buffer_bytes() -> int:
    """What numpy allocates while an fp gate scales or turns its storage in place.

    An in-place multiply takes one buffer for its operand and one for its
    result, of ``np.getbufsize()`` complex128 elements each, whenever it
    buffers: on a cast, which complex64 storage times a complex128 factor
    or root always takes, or when the view's contiguous runs are shorter
    than a buffer.  A fused run's phase pass (``kernels.apply_phases``)
    multiplies each chunk by an array of roots in its workspace, so it takes
    the same two buffers and no third for the roots: traced on 2**16
    amplitudes with the workspace passed, a pass held 270-273 KB in fp32 and
    in fp64 under a shared qubit, which leaves strided views, and 76-105 KB
    in fp64 otherwise.  On 2**16 amplitudes, traced ``apply_diagonal`` calls
    took 263.5 KB in fp32 on every bit, and in fp64 263.6 KB on bits 1-11
    and on (0, 5) but under 2 KB on bits 0 and 12-15, at the default 8192.
    Y's turn by +-i (``kernels._put``) copies between strided ``.real`` and
    ``.imag`` views, whose buffers fit in the same term: traced
    ``apply_permutation`` calls on 2**16 amplitudes, the workspace passed,
    took 67 KB in fp64 and 34 KB in fp32 for Y on bits 3 and 9, about 1.5 KB
    on bits 0, 14 and 15, and about 1.3 KB for X on every bit.
    """
    return 2 * np.getbufsize() * 16


def peak_bytes(layout: PartitionLayout, mode: PrecisionMode, work: int, queued: int,
               gates: int) -> int:
    """Most memory a run on ``layout`` is built to hold at once, in bytes.

    Storage, ``queued`` elements at the storage mode's bytes per element,
    ``work`` complex128 elements, ``RANK_OVERHEAD_BYTES`` per rank,
    ``GATE_OVERHEAD_BYTES`` for each of the run's ``gates``, and the mode's
    transients.  ``engine.plan_run`` sizes the queued payloads and the
    workspace from the run's own gates; ``kernels.work_elements`` and
    ``measure.work_elements`` state the working sets.  The fp modes add
    numpy's buffers (``ufunc_buffer_bytes``) and the ``CACHE_LINE`` their
    workspace may skip.

    Byte mode adds 8 complex128 copies of one rank's slice for its codec, and
    the writes every rank holds until the codebook barrier,
    ``HELD_WRITE_BYTES`` per amplitude of the state at worst: each code
    tuple's index among the distinct tuples, and 16 B of ``(r, theta)`` per
    distinct result.  Tuples repeat in the byte-mode adder, about 1 B per
    amplitude, but 16.9 B was measured on Haar gates.  It also adds
    ``TUPLE_TABLE_BYTES``.  Traced on 2**18 values, the codec's transients
    peak at 2.6 copies in ``canonicalize``, whose four parts ``propose`` then
    reads with up to 3.2 more, 2.6 in ``encode`` and 1.5 in ``decode``; a
    byte-mode gate runs them on its distinct tuples only.
    """
    peak = (memory_bytes(layout.total_qubits, mode) + queued * mode.bytes_per_element
            + work * 16 + layout.rank_count * RANK_OVERHEAD_BYTES + gates * GATE_OVERHEAD_BYTES)
    if mode is PrecisionMode.BYTE:
        return (peak + 8 * layout.local_size * 16 + (HELD_WRITE_BYTES << layout.total_qubits)
                + TUPLE_TABLE_BYTES)
    return peak + ufunc_buffer_bytes() + CACHE_LINE


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

    @property
    def messages(self) -> int:
        """Messages each rank sends: one to every other member of its group."""
        return (1 << len(self.masks)) - 1


def partition(n_qubits: int, ranks: int) -> PartitionLayout:
    """Layout of ``n_qubits`` over ``ranks`` partitions.

    The qubits left after the rank bits are each partition's local qubits,
    at least one.
    """
    n_qubits, ranks = g.as_index(n_qubits, "qubit count"), g.as_index(ranks, "rank count")
    if ranks < 1 or ranks & (ranks - 1):
        raise ValueError("rank count must be a power of two")
    rank_bits = ranks.bit_length() - 1
    if 1 <= n_qubits <= rank_bits:
        raise ValueError(f"{ranks} ranks need more qubits than the circuit's {n_qubits}")
    return PartitionLayout(n_qubits, n_qubits - rank_bits)


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
