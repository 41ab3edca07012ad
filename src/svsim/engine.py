"""Distributed execution of a circuit over in-process rank workers.

Every gate runs as a bulk-synchronous round.  A diagonal gate, or one whose
qubits are all local, applies independently on each rank.  In the fp modes a
matrix kernel runs on blocks of ``LOCAL_BLOCK`` amplitudes, or of whole pair
groups where a qubit is higher, and a diagonal gate takes the rank's slice
whole: one ``apply_diagonal`` call scales its view in place, allocating
nothing, so blocking would only add calls.

Every other gate goes through the one group exchange of ``exchange``, as do
measured qubits in the rank bits: the 2**k ranks that differ in the gate's
k rank bits trade the parts each member owns, each member applies the gate
to the stacked components of its own part, and every member's results go
back into that member's part within the same round through process-shared
memory rather than a second counted transfer.  Ledger bytes therefore equal the planned
exchange volume, 1 - 2**-k of the local elements per rank at the storage
mode's bytes per element, and each send charges exactly what it carries.

X, Y and CNOT only move amplitudes (``gates.permutation``).  They run as
``apply_permutation``, which swaps data in the array's own dtype with no
0/1 arithmetic, on the same blocks, on an exchange's stacked rows, and in
byte mode on the stored codes themselves.  Their values equal the matrix
path's as numbers; only the sign of a zero component can differ.  Traffic
does not change: an exchanged permutation moves what any exchanged gate
moves.

Fp modes store results at once.  In byte-encoded mode every gate that computes
new values ends with a codebook barrier: ranks propose the values they
produced, the proposals are merged identically everywhere, and only then are
results encoded back into storage.  Byte mode computes on the 16-bit codes
storage holds rather than on values.  X and CNOT only move codes, so they skip
the decode, the codec and the barrier; Y keeps the codec path, as its +-i turns
phases the table may not hold.  Every other gate combines 1, 2 or 4 components
of the codes a rank reads (its slice, the region a diagonal gate scales, or the
exchange's stacked buffer), and its result at a position depends only on the
tuple of codes there.  So each rank keeps the distinct tuples and each
position's tuple index, decodes those tuples, applies the gate to them through
``apply_diagonal``, ``apply_pair_arrays`` or ``apply_quad_arrays``, and
canonicalizes and proposes the results once.  After the barrier, which stays
per gate, it encodes the distinct results and scatters their codes back through
the tuple indices.  Proposals depend only on the set of produced values, so
tables and bytes are those of a whole-slice decode.

Ranks are visited in a configurable order; all results and counters are
independent of that order.

A run is planned whole before any state exists, by ``plan_run``: one
exchange plan per gate and one pairwise plan per rank-qubit round of each
measurement, the tier account, the workspace and outbox sizes, the run's
peak memory (``layout.peak_bytes``), and the ledger every rank must end
with.  Traffic and tier staging depend only on the gates and the layout,
never on a rank or on amplitude values, so that ledger is the same on every
rank.  The engine refuses a plan whose peak exceeds the machine's physical
memory, so a layout, memory or tier error raises before the first amplitude
is allocated or the first byte is sent.  When the run ends, every rank's
counted ledger must equal the planned one field for field, or the run
raises ``RuntimeError``.

In the fp modes the plan also sizes the run's scratch memory, created with
its states and dropped with them, so no gate, exchange or measurement
allocates anything of a slice's size.  The workspace, one complex128 array,
holds the largest working set of any gate or measurement: a kernel's
gathered components, accumulator, term buffer or saved half on a block, a
permutation's two swap buffers in the block's dtype, an exchange's stacked
rows followed by its kernel's buffers, or measurement's squares and their
sums.  The outbox, one storage-dtype array, holds the largest exchange's
queued payloads, and every exchange carves its payloads from it again.
Byte mode takes neither: its codec allocates what it computes on, and its
code swaps allocate their own buffers.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

import numpy as np

from . import gates as g
from .circuit import Circuit, validate_circuit
from .codec import Codebook, Proposal, canonicalize
from .exchange import group_exchange, stacked_qubits
from .kernels import (apply_diagonal, apply_pair_arrays, apply_permutation,
                      apply_quad_arrays, apply_single, apply_two, components,
                      work_elements)
from .layout import (ExchangePlan, PartitionLayout, TrafficLedger, exchanged_elements,
                     partition, peak_bytes, plan_exchange)
from .measure import ExpectationReport, measure_all, work_elements as measure_work_elements
from .state import LocalState, PrecisionMode
from .tier import TierAccount, TierConfig, plan_passes
from .transport import Transport, TransportError

# Amplitudes per matrix-kernel call on the local path; diagonal gates are not
# blocked.  Medians of run_circuit in seconds, with the kernels' buffers in the
# run's workspace and block sizes interleaved in shuffled order (2 CPUs with
# 4 MiB of L2 each, Python 3.11, numpy 2.4; the bench workloads, whose slices
# hold 2**16 and 2**20 amplitudes):
#
#   block                        2**13  2**14  2**15  2**16  slice
#   hadamard-fp32-r16, 16 runs   0.257  0.233  0.226  0.253  0.248
#   adder-fp64-r1-tier, 16 runs  0.304  0.282  0.292  0.329  0.395
#   hadamard-fp32-r16, 24 runs   0.309  0.287  0.286
#   adder-fp64-r1-tier, 24 runs  0.347  0.329  0.327
#
# 2**14 and 2**15 beat 2**13 on both; 2**14 holds the smaller working set.
LOCAL_BLOCK = 1 << 14


@dataclass(frozen=True)
class RunPlan:
    """What a run will move and hold, planned before any state exists.

    ``exchanges`` has one plan per gate, and ``rounds`` one pairwise plan
    per rank-qubit round of each measurement.  ``tier`` is the run's one
    tier account, None untiered.  In the fp modes ``work_elements`` sizes
    the complex128 workspace and ``outbox_elements`` the storage-dtype
    outbox of all ranks; byte mode takes neither, and both are 0.
    ``peak_bytes`` is ``layout.peak_bytes``, and ``exchange_bytes`` what all
    ranks send for the gates' exchanges, measurement excluded.  ``ledger``
    is what every rank's ledger reads when the run ends.
    """
    exchanges: tuple[ExchangePlan, ...]
    rounds: tuple[ExchangePlan, ...]
    tier: TierAccount | None
    work_elements: int
    outbox_elements: int
    peak_bytes: int
    exchange_bytes: int
    ledger: TrafficLedger


def plan_run(circuit: Circuit, layout: PartitionLayout, mode: PrecisionMode,
             tier_config: TierConfig | None = None) -> RunPlan:
    """The plan of ``circuit`` on ``layout``; raises ``ValueError`` if infeasible.

    The workspace holds the largest working set of any gate or measurement:
    a kernel's buffers on a local block, an exchange's stacked rows and its
    kernel's buffers, or measurement's.  The outbox holds the payloads of
    the largest exchange, a measurement round's included.
    """
    n_local, size = layout.local_qubits, layout.local_size
    exchanges = tuple(plan_exchange(layout, gate, mode) for gate in circuit.gates)
    rounds = tuple(ExchangePlan("pairwise", (1 << bit,), exchanged_elements(size, 1),
                                mode.bytes_per_element)
                   for gate in circuit.gates if gate.kind == "M"
                   for bit in range(layout.total_qubits - n_local))
    gate_bytes = sum(plan.bytes_per_rank for plan in exchanges)
    sent = gate_bytes + sum(plan.bytes_per_rank for plan in rounds)
    ledger = TrafficLedger(sent, sent, sum(plan.messages for plan in exchanges + rounds),
                           gate_operations=len(circuit.gates))
    tier = None
    if tier_config is not None:
        tier = TierAccount(size * mode.bytes_per_element, tier_config, TrafficLedger())
        for group in plan_passes(circuit.gates, tier_config, n_local, mode).groups:
            tier.account(group)
        ledger.count_tier(tier.ledger.tier_bytes_moved, tier.ledger.tier_transfer_count)
    work = queued = 0
    if mode is not PrecisionMode.BYTE:
        queued = max((plan.element_count for plan in exchanges + rounds), default=0)
        for gate, plan in zip(circuit.gates, exchanges):
            moves = g.permutation(gate) is not None
            if gate.kind == "M":
                work = max(work, measure_work_elements(layout, mode))
            elif plan.kind != "none":
                qubits = stacked_qubits(gate.qubits, n_local, plan.masks)
                work = max(work, size + work_elements(size, qubits, moves=moves))
            elif not g.is_diagonal(gate):
                block = min(max(2 << max(gate.qubits), LOCAL_BLOCK), size)
                work = max(work, work_elements(block, gate.qubits, mode.dtype, moves))
    return RunPlan(exchanges, rounds, tier, work, queued * layout.rank_count,
                   peak_bytes(layout, mode), gate_bytes * layout.rank_count, ledger)


@dataclass
class RunResult:
    circuit: Circuit
    layout: PartitionLayout
    mode: PrecisionMode
    states: list[LocalState]
    ledgers: list[TrafficLedger]
    report: ExpectationReport | None
    codebook: Codebook | None
    # the run's one tier account, as a one-element list; None untiered
    tier_accounts: list[TierAccount] | None
    wall_time_seconds: float

    @property
    def gate_operations(self) -> int:
        return self.ledgers[0].gate_operations

    @property
    def total_bytes_sent(self) -> int:
        return sum(l.inter_rank_bytes_sent for l in self.ledgers)

    @property
    def total_messages(self) -> int:
        return sum(l.inter_rank_messages for l in self.ledgers)

    @property
    def total_tier_bytes(self) -> int:
        return sum(l.tier_bytes_moved for l in self.ledgers)

    @property
    def total_tier_transfers(self) -> int:
        return sum(l.tier_transfer_count for l in self.ledgers)

    def gathered_state(self) -> np.ndarray:
        """Global state vector assembled from the rank slices."""
        return np.concatenate([s.working() for s in self.states])

    def report_in_program_labels(self) -> ExpectationReport | None:
        if self.report is None:
            return None
        return self.report.relabelled(self.circuit.label_permutation)


def run_circuit(circuit: Circuit, *, ranks: int = 1,
                mode: PrecisionMode = PrecisionMode.FP64,
                tier_config: TierConfig | None = None,
                rank_order_seed: int | None = None,
                transport_factory=Transport) -> RunResult:
    validate_circuit(circuit)
    layout = partition(circuit.n_qubits, ranks)
    start = time.perf_counter()
    engine = _Engine(circuit, layout, mode, tier_config, rank_order_seed,
                     transport_factory)
    engine.run()
    return RunResult(circuit, layout, mode, engine.states, engine.ledgers,
                     engine.report, engine.codebook, engine.tier_accounts,
                     time.perf_counter() - start)


class _Engine:
    def __init__(self, circuit, layout, mode, tier_config, rank_order_seed,
                 transport_factory=Transport):
        self.plan = plan_run(circuit, layout, mode, tier_config)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if self.plan.peak_bytes > have:
            raise ValueError(f"the run needs up to {self.plan.peak_bytes} B "
                             f"but the machine has {have} B of memory")
        self.circuit = circuit
        self.layout = layout
        self.tier_accounts = None if self.plan.tier is None else [self.plan.tier]

        n = layout.rank_count
        self.ledgers = [TrafficLedger(tier_bytes_moved=self.plan.ledger.tier_bytes_moved,
                                      tier_transfer_count=self.plan.ledger.tier_transfer_count)
                        for _ in range(n)]
        self.transport = transport_factory(n, self.ledgers)
        self.codebook = Codebook() if mode is PrecisionMode.BYTE else None
        self.states = [
            LocalState.zero_state(layout.local_qubits, mode, r == 0, self.codebook)
            for r in range(n)
        ]
        self.work = self.outbox = None
        if self.codebook is None:
            self.work = np.empty(self.plan.work_elements, dtype=np.complex128)
            self.outbox = np.empty(self.plan.outbox_elements, dtype=mode.dtype)
        self.rank_order = list(range(n))
        if rank_order_seed is not None:
            random.Random(rank_order_seed).shuffle(self.rank_order)
        self.report: ExpectationReport | None = None
        self._proposals, self._pending = {}, []

    def run(self) -> None:
        for ordinal, (gate, plan) in enumerate(zip(self.circuit.gates, self.plan.exchanges)):
            self._execute(gate, plan, ordinal)
        self.transport.assert_drained()
        for rank, ledger in enumerate(self.ledgers):
            for field, planned in self.plan.ledger.snapshot().items():
                if getattr(ledger, field) != planned:
                    raise RuntimeError(f"rank {rank} counted {field} "
                                       f"{getattr(ledger, field)}, but the plan has {planned}")

    # -- per-gate dispatch ------------------------------------------------

    def _execute(self, gate: g.Gate, plan: ExchangePlan, ordinal: int) -> None:
        try:
            if gate.kind == "M":
                self.report = measure_all(self.states, self.layout, self.transport,
                                          self.rank_order, self.work, self.outbox)
            elif plan.kind == "none":
                self._apply_local(gate)
            else:
                self._apply_exchange(gate, plan)
        except TransportError as exc:
            raise RuntimeError(f"gate {ordinal} ({gate.kind}): {exc}") from exc
        for ledger in self.ledgers:
            ledger.gate_operations += 1

    def _on_codec(self, gate: g.Gate) -> bool:
        """Whether ``gate`` runs through byte mode's codec: all but X and CNOT."""
        move = g.permutation(gate)
        return self.codebook is not None and (move is None or move.y)

    def _apply_local(self, gate: g.Gate) -> None:
        """In place on storage; byte mode's codec gates on the codes they read."""
        n_local = self.layout.local_qubits
        codec = self._on_codec(gate)
        where, qubits, rank_bits = (), gate.qubits, 0
        # whole pair groups per block keep a matrix kernel's buffers small
        block = max(2 << max(qubits, default=0), LOCAL_BLOCK)
        if g.is_diagonal(gate):
            # a diagonal gate acts only where all its qubits read one
            rank_bits = sum(1 << (q - n_local) for q in qubits if q >= n_local)
            qubits = tuple(q for q in qubits if q < n_local)
            block = 1 << n_local  # scaling a view in place allocates nothing
            if codec:
                # byte mode reads only that region, as the gate's one component
                where, qubits = (qubits,), ()
        for rank in self.rank_order:
            if rank & rank_bits != rank_bits:
                continue
            state = self.states[rank]
            if codec:
                self._apply_codes(rank, gate, state.stack([state.view(where)]),
                                  qubits, [(rank, where)])
                continue
            for start in range(0, state.data.size, block):
                _apply_gate(state.data[start:start + block], gate, qubits, self.work)
        self._commit()

    def _apply_exchange(self, gate: g.Gate, plan: ExchangePlan) -> None:
        qubits = stacked_qubits(gate.qubits, self.layout.local_qubits, plan.masks)
        codec = self._on_codec(gate)
        for rank, members, own, stacked in group_exchange(
                self.states, self.transport, plan.masks, self.rank_order, gate.qubits,
                self.work, self.outbox):
            writes = [(member, own) for member in members]
            if codec:
                self._apply_codes(rank, gate, stacked, qubits, writes)
                continue
            rest = None if self.work is None else self.work[stacked.size:]
            _apply_gate(stacked.reshape(-1), gate, qubits, rest)
            for (owner, where), row in zip(writes, stacked):
                self.states[owner].store(row, where)
        self._commit()

    # -- byte mode: distinct code tuples and the codebook barrier ----------

    def _apply_codes(self, rank: int, gate: g.Gate, codes: np.ndarray,
                     qubits: tuple[int, ...], writes: list) -> None:
        """Apply ``gate`` to the distinct code tuples of ``codes``; hold the write.

        ``codes`` has one row per write ``(owner, where)``, and the gate's
        qubits are ``qubits`` bits of its ravelled form.  The rank proposes
        the distinct results now; ``_commit`` stores them after the barrier.
        """
        tuples, inverse = _distinct_tuples(components(codes.reshape(-1), qubits))
        produced = np.stack(_apply_arrays(gate, self.states[rank].values(tuples)))
        r, theta, ux, uy = canonicalize(produced)
        self._proposals[rank] = self.codebook.propose(r, theta, ux, uy)
        self._pending.append((rank, writes, codes.shape, qubits, inverse, r, theta))

    def _commit(self) -> None:
        """Byte mode: merge all ranks' proposals, then encode and store the held writes.

        A gate that held no write, in the fp modes or one that only moved
        codes, has no barrier.
        """
        if not self._pending:
            return
        empty = Proposal(*(np.zeros(0),) * 4)
        proposals = [self._proposals.get(rank, empty)
                     for rank in range(self.layout.rank_count)]
        self.codebook.merge(self.transport.collective(proposals))
        for rank, writes, shape, qubits, inverse, r, theta in self._pending:
            codes = np.empty(shape, dtype=np.uint16)
            parts = components(codes.reshape(-1), qubits)
            encoded = self.states[rank].encode(r, theta).reshape(len(parts), -1)
            for view, part in zip(parts, encoded):
                view[...] = part[inverse]
            for (owner, where), row in zip(writes, codes):
                self.states[owner].store(row, where)
        self._proposals, self._pending = {}, []


def _distinct_tuples(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct tuples of aligned 16-bit code arrays, and each position's tuple.

    Returns the tuples as a ``(len(parts), D)`` array and, in the shape of a
    part, each position's column in it, in the smallest unsigned type that
    holds D - 1.  One part needs no sort: a 65536-entry presence table lists
    its distinct 16-bit codes in ascending order, and a second maps each to
    its column.  Wider tuples pack into one 32- or 64-bit key and take a
    sorting unique.
    """
    if len(parts) == 1:
        present = np.zeros(1 << 16, dtype=bool)
        present[parts[0]] = True
        distinct = np.flatnonzero(present).astype(np.uint16)
        table = np.empty(1 << 16, dtype=np.min_scalar_type(distinct.size - 1))
        table[distinct] = np.arange(distinct.size)
        return distinct[None], table[parts[0]]
    key = np.zeros(parts[0].shape, dtype=np.uint32 if len(parts) == 2 else np.uint64)
    for part in parts:
        key <<= 16
        key |= part
    keys, inverse = np.unique(key.reshape(-1), return_inverse=True)
    tuples = np.empty((len(parts), keys.size), dtype=np.uint16)
    for row in reversed(tuples):
        row[...] = keys & 0xFFFF
        keys >>= 16
    inverse = inverse.astype(np.min_scalar_type(keys.size - 1))
    return tuples, inverse.reshape(key.shape)


def _apply_arrays(gate: g.Gate, values: np.ndarray):
    """``gate`` applied to aligned component values, one row per component."""
    if g.is_diagonal(gate):
        apply_diagonal(values[0], (), g.diagonal_factor(gate))
        return values
    if len(values) == 2:
        return apply_pair_arrays(values[0], values[1], g.unitary_matrix(gate))
    return apply_quad_arrays(list(values), g.unitary_matrix(gate))


def _apply_gate(psi: np.ndarray, gate: g.Gate, qubits: tuple[int, ...], work) -> None:
    """Apply ``gate`` in place with its qubits at the given bits of ``psi``.

    X, Y and CNOT move data in ``psi``'s dtype, byte mode's codes included.
    A matrix or permutation kernel's buffers are carved from ``work``, or
    new without it; a diagonal gate scales a view and needs none.
    """
    move = g.permutation(gate, qubits)
    if move is not None:
        apply_permutation(psi, *move, work=work)
    elif g.is_diagonal(gate):
        apply_diagonal(psi, qubits, g.diagonal_factor(gate))
    elif len(qubits) == 1:
        apply_single(psi, qubits[0], g.unitary_matrix(gate), work=work)
    else:
        apply_two(psi, qubits[0], qubits[1], g.unitary_matrix(gate), work=work)

