"""Distributed execution of a circuit over in-process rank workers.

Every gate runs as a bulk-synchronous round, and there are two kinds of
round besides measurement.  A diagonal gate applies independently on each
rank whose rank bits its qubits read as one.  Every other gate goes through
the one group exchange of ``exchange``, as do measured qubits in the rank
bits: the 2**k ranks that differ in the gate's k rank bits trade the parts
each member owns, and each member computes on the rows of its own part, one
per member.  A gate whose qubits are all local has k = 0: its group is one
rank, its one row is the slice, and nothing is sent.  Every member's results
go back into that member's part within the same round through
process-shared memory rather than a second counted transfer.  Ledger bytes
therefore equal the planned exchange volume, 1 - 2**-k of the local elements
per rank at the storage mode's bytes per element, and each send charges
exactly what it carries.

In the fp modes a matrix or permutation gate computes on rows, taken as one
array in which the gate's high bits select the row.  The rows are the
visiting rank's own part, read where it sits in storage, and each received
payload as it arrived; each row's results are written straight into its
member's part.  The rows are cut into chunks of contiguous amplitudes, and
a gate bit above a chunk couples chunks as a rank bit couples ranks: each
kernel call computes on one coupled group of chunks, at most
``LOCAL_BLOCK`` amplitudes in all (``_apply_in_pieces`` states the rule), so
nothing is stacked or stored back.  A diagonal gate takes the rank's slice
whole: one ``apply_diagonal`` call scales its view in place, so blocking
would only add calls.  A run of consecutive diagonal gates that
``fused_runs`` picks from the gates alone is instead one ``apply_phases``
pass per rank where the qubits all its gates share read one.  Every Z,
PHASE and CPHASE is an exact part of a turn (``gates.phase_turn``), so each
amplitude's phase over the run is an exact integer mod 2**K, K the run's
largest exponent: its gates' terms summed, with rank bits folded in as each
rank's constants.  Each amplitude is then multiplied once, by the root of
unity at that index, chunk by chunk in the workspace.  This is the one place
where fp arithmetic is not gate by gate: a fused amplitude is rounded once,
not once per gate.  Byte mode applies every gate on its own, each with its
codebook barrier.

X, Y and CNOT only move amplitudes (``gates.permutation``).  They run as
crosswise copies from their source rows into their target rows in the
array's own dtype, with no 0/1 arithmetic, through two buffers only where
both sides of the swap are updated in place; in byte mode they move the
stored codes themselves.  Their values equal the matrix path's as numbers;
only the sign of a zero component can differ.  Traffic does not change: an
exchanged permutation moves what any exchanged gate moves.  The X gates on
local qubits that lead a circuit move nothing at all: the run starts from
the basis state they name (``RunPlan`` states the fold).

Fp modes store results at once.  In byte-encoded mode every gate that computes
new values ends with a codebook barrier: ranks propose the values they
produced, the proposals are merged identically everywhere, and only then are
results encoded back into storage.  Byte mode computes on the 16-bit codes
storage holds rather than on values.  X and CNOT only move codes, so they skip
the decode, the codec and the barrier; Y keeps the codec path, as its +-i turns
phases the table may not hold.  Every other gate combines 1, 2 or 4 components
of the code rows a rank reads (its slice, the region a diagonal gate scales,
or an exchange's rows, read where they lie), and its result at a position
depends only on the tuple of codes there.  So each rank keeps the distinct
tuples and each position's tuple index, decodes those tuples, applies the gate
to them through ``apply_diagonal``, ``apply_pair_arrays`` or
``apply_quad_arrays``, and canonicalizes and proposes the results once.  After
the barrier, which stays per gate, it encodes the distinct results and
scatters their codes through the tuple indices straight into the parts they
belong to.  Proposals depend only on the set of produced values, so tables and
bytes are those of a whole-slice decode.  Byte mode takes no chunks: its codec
already works on distinct tuples.

Ranks are visited in a configurable order; all results and counters are
independent of that order.

A run is planned whole before any state exists, by ``plan_run``: one
exchange plan per gate and one pairwise plan per rank-qubit round of each
measurement, the tier account, the memory the run holds (``RunPlan`` states
it), and the ledger every rank must end with.  Traffic and tier staging
depend only on the gates and the layout, never on a rank or on amplitude
values, so that ledger is the same on every rank.  The engine refuses a plan
whose peak exceeds the machine's physical memory, so a layout, memory or tier
error raises before the first amplitude is allocated or the first byte is
sent.  When the run ends, every rank's counted ledger must equal the planned
one field for field, or the run raises ``RuntimeError``.

In the fp modes the plan's workspace and outbox are created with the states
and dropped with them, so no gate, exchange or measurement allocates
anything of a slice's size.  Every kernel call and measurement computes in
the workspace, and every exchange carves its payloads from the outbox again.
The workspace starts on a cache line (``_aligned``).  Byte mode takes
neither (``RunPlan`` says why).
"""
from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass

import numpy as np

from . import gates as g
from .circuit import Circuit, validate_circuit
from .codec import Codebook, Proposal, canonicalize
from .exchange import group_exchange, row_qubits
from .kernels import (INDEX_BITS, apply_diagonal, apply_pair_arrays, apply_permutation,
                      apply_phases, apply_quad_arrays, apply_rows, apply_single, apply_two,
                      bit_view, move_rows, phase_work_elements, row_components, work_elements)
from .layout import (CACHE_LINE, ExchangePlan, PartitionLayout, TrafficLedger,
                     exchanged_elements, partition, peak_bytes, plan_exchange)
from .measure import ExpectationReport, measure_all, work_elements as measure_work_elements
from .state import LocalState, PrecisionMode
from .tier import TierAccount, TierConfig, plan_passes
from .transport import Transport, TransportError

# Amplitudes per matrix or permutation kernel call, counted over all the rows
# it computes on, and touched amplitudes per chunk of a fused phase pass; a
# single diagonal gate is not blocked.  Medians of run_circuit in
# seconds, block sizes interleaved in shuffled order (2 CPUs with 4 MiB of L2
# each, Python 3.11, numpy 2.4; the bench workloads, whose slices hold 2**16
# and 2**20 amplitudes):
#
#   block                        2**13  2**14  2**15  2**16
#   hadamard-fp32-r16, 16 runs   0.223  0.186  0.190  0.217
#   adder-fp64-r1-tier, 16 runs  0.228  0.200  0.195  0.231
#   random-fp64-r16, 16 runs     0.446  0.356  0.309  0.355
#   hadamard-fp32-r16, 24 runs   0.251  0.201  0.180  0.215
#   adder-fp64-r1-tier, 24 runs  0.234  0.211  0.211  0.235
#   random-fp64-r16, 24 runs     0.440  0.363  0.338  0.356
#
# 2**15 is fastest or level on every workload: each exchanged gate computes in
# pieces, and smaller ones cost more calls than they save in cache.
LOCAL_BLOCK = 1 << 15


@dataclass(frozen=True)
class RunPlan:
    """What a run will move and hold, planned before any state exists.

    ``exchanges`` has one plan per gate, and ``rounds`` one pairwise plan
    per rank-qubit round of each measurement.  ``tier`` is the run's one
    tier account, None untiered.  ``exchange_bytes`` is what all ranks send
    for the gates' exchanges, measurement excluded, and ``ledger`` what
    every rank's ledger reads when the run ends.

    ``fused`` are the gate ranges that run as one phase pass each
    (``fused_runs``), none in byte mode.  ``folded`` are the ordinals of the X
    gates on local qubits that come before any other gate (``folded_x``).
    They move no data: rank 0 starts with its unit amplitude at the local
    index they name, which is where they would move it, in every mode.  Each
    still counts one gate operation, and the rank-bit X gates among them
    exchange as any X does.  The exchange plans and the tier account read
    every gate, so the ledger does not depend on the fold.

    Memory is stated here once.  ``queued_elements`` is what the largest
    exchange or measurement round queues over all ranks before its first
    member computes.  ``work_elements`` is the complex128 workspace for the
    largest working set of any gate, fused run or measurement in the fp
    modes (``kernels.work_elements`` on one coupled group of chunks,
    ``kernels.phase_work_elements`` on a chunk's index and root tables,
    ``measure.work_elements``), and 0 in byte mode.  ``peak_bytes`` is
    storage, those two, and the overheads and transients that
    ``layout.peak_bytes`` names.  The fp modes hold the workspace, and an
    outbox of the queued elements, for the whole run.  Byte mode holds
    neither: its codec allocates what it computes on, and each payload is
    allocated as it is sent, so its queued payloads enter the peak but are
    not held.  Holding them would not lower its peak.  Traced on 64 Haar U2
    and 8 Haar U4 gates and a measurement at 20 qubits, a held workspace,
    which only measurement would use, raised byte mode's peak from 30.3 to
    31.4 MiB at 4 ranks and from 62.0 to 70.0 MiB at 1 rank; a held outbox
    moved it by 0.04 MiB at 4 ranks.
    """
    exchanges: tuple[ExchangePlan, ...]
    rounds: tuple[ExchangePlan, ...]
    fused: tuple[range, ...]
    folded: tuple[int, ...]
    tier: TierAccount | None
    exchange_bytes: int
    ledger: TrafficLedger
    work_elements: int
    queued_elements: int
    peak_bytes: int


def plan_run(circuit: Circuit, layout: PartitionLayout, mode: PrecisionMode,
             tier_config: TierConfig | None = None) -> RunPlan:
    """The plan of ``circuit`` on ``layout``; raises ``ValueError`` if infeasible.

    A kernel call computes on one coupled group of chunks, at most
    ``LOCAL_BLOCK`` amplitudes (``_apply_in_pieces``), and a phase pass on
    chunks of at most ``LOCAL_BLOCK`` touched amplitudes, so the workspace
    holds the largest of those working sets and measurement's.
    """
    n_local, size = layout.local_qubits, layout.local_size
    exchanges = tuple(plan_exchange(layout, gate, mode) for gate in circuit.gates)
    fused = () if mode is PrecisionMode.BYTE else fused_runs(circuit.gates)
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
    # an exchange queues all its payloads before its first member computes
    queued = layout.rank_count * max((p.element_count for p in exchanges + rounds), default=0)
    work = 0
    if mode is not PrecisionMode.BYTE:
        for gate in circuit.gates:
            if gate.kind == "M":
                work = max(work, measure_work_elements(layout, mode))
            elif not g.is_diagonal(gate):
                # every kernel call covers at most a block of all its rows
                block = min(max(LOCAL_BLOCK, 1 << len(gate.qubits)), size)
                work = max(work, work_elements(block, gate.qubits, mode.dtype,
                                               g.permutation(gate) is not None))
        for run in fused:
            top = max(g.phase_turn(gate)[1] for gate in circuit.gates[run.start:run.stop])
            work = max(work, phase_work_elements(min(LOCAL_BLOCK, size), top))
    return RunPlan(exchanges, rounds, fused, folded_x(circuit.gates, n_local), tier,
                   gate_bytes * layout.rank_count, ledger, work, queued,
                   peak_bytes(layout, mode, work, queued, len(circuit.gates)))


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
    mode = PrecisionMode(mode)
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
            raise ValueError(f"the run needs {self.plan.peak_bytes} B, the machine has {have} B")
        self.circuit = circuit
        self.layout = layout
        self.tier_accounts = None if self.plan.tier is None else [self.plan.tier]

        n = layout.rank_count
        self.ledgers = [TrafficLedger(tier_bytes_moved=self.plan.ledger.tier_bytes_moved,
                                      tier_transfer_count=self.plan.ledger.tier_transfer_count)
                        for _ in range(n)]
        self.transport = transport_factory(n, self.ledgers)
        self.codebook = Codebook() if mode is PrecisionMode.BYTE else None
        unit = 0
        for ordinal in self.plan.folded:
            unit ^= 1 << circuit.gates[ordinal].qubits[0]
        self.states = [
            LocalState.zero_state(layout.local_qubits, mode, unit if r == 0 else None,
                                  self.codebook)
            for r in range(n)
        ]
        self.work = self.outbox = None
        if self.codebook is None:
            self.work = _aligned(self.plan.work_elements)
            self.outbox = np.empty(self.plan.queued_elements, dtype=mode.dtype)
        self.rank_order = list(range(n))
        if rank_order_seed is not None:
            random.Random(rank_order_seed).shuffle(self.rank_order)
        self.report: ExpectationReport | None = None
        self._proposals, self._pending = {}, []

    def run(self) -> None:
        gates, ordinal = self.circuit.gates, 0
        # a fused run is one phase pass, and a folded X is only counted
        spans = {run.start: (run.stop, self._apply_phases) for run in self.plan.fused}
        spans.update((o, (o + 1, self._count)) for o in self.plan.folded)
        while ordinal < len(gates):
            if ordinal in spans:
                stop, apply = spans[ordinal]
                apply(gates[ordinal:stop])
                ordinal = stop
            else:
                self._execute(gates[ordinal], self.plan.exchanges[ordinal], ordinal)
                ordinal += 1
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
            elif g.is_diagonal(gate):
                self._apply_diagonal(gate)
            else:
                self._apply_rows(gate, plan)
        except TransportError as exc:
            raise RuntimeError(f"gate {ordinal} ({gate.kind}): {exc}") from exc
        self._count((gate,))

    def _count(self, gates) -> None:
        """Count ``gates`` as gate operations on every rank."""
        for ledger in self.ledgers:
            ledger.gate_operations += len(gates)

    def _on_codec(self, gate: g.Gate) -> bool:
        """Whether ``gate`` runs through byte mode's codec: all but X and CNOT."""
        move = g.permutation(gate)
        return self.codebook is not None and (move is None or move.y)

    def _apply_diagonal(self, gate: g.Gate) -> None:
        """In place on storage, where all the gate's qubits read one."""
        n_local = self.layout.local_qubits
        rank_bits = _rank_bits(gate.qubits, n_local)
        qubits = tuple(q for q in gate.qubits if q < n_local)
        # byte mode reads only that region, as the gate's one component
        where = (qubits, (1,) * len(qubits))
        for rank in self.rank_order:
            if rank & rank_bits != rank_bits:
                continue
            if self.codebook is None:
                # scaling a view in place needs no workspace, so it is not split
                apply_diagonal(self.states[rank].data, qubits, g.diagonal_factor(gate))
            else:
                self._apply_codes(rank, gate, [(self.states[rank].data, *where)],
                                  [(rank, *where)], (), n_local)
        self._commit()

    def _apply_phases(self, gates: tuple[g.Gate, ...]) -> None:
        """A fused run: one phase pass on each rank where its shared qubits read one.

        Each gate adds its part of a turn to the phase index where its other
        qubits read one: a rank bit it reads as zero drops it on that rank,
        and one it reads as one leaves only its local qubits.
        """
        n_local = self.layout.local_qubits
        shared = _shared(gates)
        ones = tuple(sorted(q for q in shared if q < n_local))
        top = max(g.phase_turn(gate)[1] for gate in gates)
        terms = []
        for gate in gates:
            turn, bits = g.phase_turn(gate)
            free = [q for q in gate.qubits if q not in shared]
            terms.append((_rank_bits(free, n_local), tuple(q for q in free if q < n_local),
                          (turn << (top - bits)) % (1 << top)))
        need = _rank_bits(shared, n_local)
        for rank in self.rank_order:
            if rank & need == need:
                apply_phases(self.states[rank].data, ones,
                             [(bits, weight) for rank_bits, bits, weight in terms
                              if rank & rank_bits == rank_bits],
                             top, LOCAL_BLOCK, self.work)
        self._count(gates)

    def _apply_rows(self, gate: g.Gate, plan: ExchangePlan) -> None:
        """A matrix or permutation gate on its group's rows; a local gate's group is one rank."""
        n_local = self.layout.local_qubits
        width = n_local - len(plan.masks)
        qubits = row_qubits(gate.qubits, n_local, plan.masks)
        codec = self._on_codec(gate)
        for rank, members, own, rows in group_exchange(
                self.states, self.transport, plan.masks, self.rank_order, gate.qubits,
                self.outbox):
            if codec:
                self._apply_codes(rank, gate, rows, [(m, *own) for m in members], qubits, width)
                continue
            # the visiting rank's row is its own target; every other row is
            # a payload whose results go into its member's part
            targets = [row if member == rank else (self.states[member].data, *own)
                       for member, row in zip(members, rows)]
            _apply_in_pieces(gate, rows, targets, qubits, width, self.work)
        self._commit()

    # -- byte mode: distinct code tuples and the codebook barrier ----------

    def _apply_codes(self, rank: int, gate: g.Gate, rows: list, writes: list,
                     qubits: tuple[int, ...], width: int) -> None:
        """Apply ``gate`` to the distinct code tuples of ``rows``; hold the write.

        ``rows`` are the code rows the rank reads, as ``(array, bits,
        values)`` triples, and ``writes`` the ``(owner, bits, values)`` part
        each row's results go to; the gate's qubits are ``qubits`` bits of
        the rows taken as one array of rows of 2**width codes.  The rank
        proposes the distinct results now; ``_commit`` stores them after the
        barrier.
        """
        parts, wheres = [], []
        for r, bits, values in row_components(qubits, width):
            array, fixed, fixed_values = rows[r]
            view = bit_view(array, fixed + _row_bits(bits, fixed), fixed_values + values)
            # the rows' own fixed bits only add axes of one element
            parts.append(np.atleast_1d(view.squeeze()))
            owner, fixed, fixed_values = writes[r]
            wheres.append((owner, (fixed + _row_bits(bits, fixed), fixed_values + values)))
        tuples, inverse = _distinct_tuples(parts)
        produced = np.stack(_apply_arrays(gate, self.states[rank].values(tuples)))
        r, theta, ux, uy = canonicalize(produced)
        self._proposals[rank] = self.codebook.propose(r, theta, ux, uy)
        self._pending.append((rank, wheres, inverse, r, theta))

    def _commit(self) -> None:
        """Byte mode: merge all ranks' proposals, then encode and store the held writes.

        A gate that held no write, in the fp modes or one that only moved
        codes, has no barrier.  Each component's codes are scattered from its
        distinct results straight into the part they belong to.
        """
        if not self._pending:
            return
        empty = Proposal(*(np.zeros(0),) * 4)
        proposals = [self._proposals.get(rank, empty)
                     for rank in range(self.layout.rank_count)]
        self.codebook.merge(self.transport.collective(proposals))
        for rank, wheres, inverse, r, theta in self._pending:
            encoded = self.states[rank].encode(r, theta).reshape(len(wheres), -1)
            for (owner, where), part in zip(wheres, encoded):
                self.states[owner].store(part[inverse], where)
        self._proposals, self._pending = {}, []


# The fusion rule against gate-by-gate scaling, timed at 2**20 amplitudes in
# fp64 on the diagonal runs of ``adder-fp64-r1-tier`` (min of 5, 2 CPUs with
# 4 MiB of L2 each, Python 3.11, numpy 2.4), in ms:
#
#   run                                  gate by gate   one pass
#   accumulate: 55 CPHASE, none shared           36.2        5.4   fused
#   Fourier ladders of 3-9 CPHASE             1.1-2.4    0.6-1.6   fused
#   ladders of 2 CPHASE                           1.0    0.6-0.8   not fused
#   single CPHASE                                 0.5        0.7   not fused
#
# A ladder of 2 scales exactly its shared region, so the rule leaves it,
# though one pass wins it by 0.2-0.4 ms: under 1 ms of a 130 ms run for the
# circuit's two such ladders.  Taking it would need a second condition to
# leave single gates alone.
def fused_runs(gates) -> tuple[range, ...]:
    """The runs of diagonal gates that one phase pass applies in the fp modes.

    A run is a maximal stretch of consecutive Z, PHASE and CPHASE gates; a
    gate whose exponent exceeds ``kernels.INDEX_BITS`` ends it and runs
    alone.  A run is fused when its gates, one by one, would scale more of
    the state than one pass over where the qubits they all share read one:
    when the sum of 2**-len(qubits) over its gates exceeds 2**-len(shared).
    The rule reads only the gates, so a circuit fuses the same runs at every
    layout.
    """
    runs, start = [], 0
    for fusable, group in itertools.groupby(
            gates, lambda gate: g.is_diagonal(gate) and g.phase_turn(gate)[1] <= INDEX_BITS):
        stop = start + len(list(group))
        run = gates[start:stop]
        if fusable and (sum(2.0 ** -len(gate.qubits) for gate in run)
                        > 2.0 ** -len(_shared(run))):
            runs.append(range(start, stop))
        start = stop
    return tuple(runs)


def folded_x(gates, n_local: int) -> tuple[int, ...]:
    """The ordinals of the X gates on local qubits before any other gate (``RunPlan``)."""
    leading = itertools.takewhile(lambda gate: gate.kind == "X", gates)
    return tuple(i for i, gate in enumerate(leading) if gate.qubits[0] < n_local)


def _shared(gates) -> set[int]:
    """The qubits every one of ``gates`` acts on."""
    return set.intersection(*(set(gate.qubits) for gate in gates))


# A large array starts where the heap places it: 16 B into a cache line when
# it is mapped on its own, as the first run's are, and after that anywhere the
# process's earlier allocations leave, once freeing them has raised glibc's
# mmap threshold.  Timed in one process on 2**15 fp64 amplitudes (medians of
# 200, 2 CPUs, numpy 2.4), a gathered U4 took 202 us with its workspace on a
# cache line, 206 us 32 B into one and 230-233 us 16 or 48 B in; a gathered
# U2 took 119, 124 and 133-134 us.
def _aligned(elements: int) -> np.ndarray:
    """An empty complex128 workspace of ``elements`` that starts on a cache line."""
    raw = np.empty(elements + CACHE_LINE // 16, dtype=np.complex128)
    start = -raw.ctypes.data % CACHE_LINE // 16
    return raw[start:start + elements]


def _rank_bits(qubits, n_local: int) -> int:
    """The rank-number bits of those of ``qubits`` that lie in the rank bits."""
    return sum(1 << (q - n_local) for q in qubits if q >= n_local)


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


def _row_bits(bits, fixed) -> tuple[int, ...]:
    """Bits of a row as bits of the array it lies in, where ``fixed`` are fixed."""
    out = []
    for b in bits:
        for f in sorted(fixed):
            b += f <= b
        out.append(b)
    return tuple(out)


def _chunks(row, c: int) -> list[np.ndarray]:
    """A row's chunks of 2**c elements, in order, each a contiguous run of its array.

    The row's fixed bits lie at or above c and next to one another, as in every
    row ``group_exchange`` yields, so its view splits into chunks without a copy.
    """
    view = bit_view(*row)
    return [x for run in view.reshape(-1, view.shape[-1] >> c, 1 << c, copy=False) for x in run]


def _apply_in_pieces(gate: g.Gate, sources: list, targets: list, qubits: tuple[int, ...],
                     width: int, work) -> None:
    """Apply ``gate`` across aligned rows, one coupled group of chunks at a time.

    Rows are ``(array, bits, values)`` triples of 2**width elements, taken
    as one array with row r after row r - 1, and ``qubits`` are the gate's
    bits of it.  A target that is its source (the same triple) is updated in
    place; every other source is a scratch copy.  The rows are cut into
    chunks of 2**c contiguous elements, c the widest that is no wider than a
    row or its lowest fixed bit and at which the 2**j chunks the gate's j
    bits at or above c couple hold at most ``LOCAL_BLOCK`` elements.  Those
    bits couple chunks as rank bits couple ranks, and each kernel call
    computes on one coupled group, taken as rows of 2**c.
    """
    block = LOCAL_BLOCK.bit_length() - 1
    widest = min([width, block] + [min(bits) for _, bits, _ in sources + targets if bits])
    c = next((c for c in range(widest, 0, -1) if c + sum(b >= c for b in qubits) <= block), 0)
    high = sorted(b for b in qubits if b >= c)
    bits = tuple(b if b < c else c + high.index(b) for b in qubits)
    move = g.permutation(gate, bits)
    matrix = None if move is not None else g.unitary_matrix(gate)
    in_place = all(t is s for s, t in zip(sources, targets))
    cut = [_chunks(s, c) for s in sources]
    src = [chunk for chunks in cut for chunk in chunks]
    if not high and in_place:
        # one chunk in place per call: the array kernels
        for psi in src:
            if move is not None:
                apply_permutation(psi, *move, work=work)
            elif len(bits) == 1:
                apply_single(psi, bits[0], matrix, work=work)
            else:
                apply_two(psi, bits[0], bits[1], matrix, work=work)
        return
    # a target that is its source takes the source's chunks, the same objects
    tgt = src if in_place else [chunk for s, t, chunks in zip(sources, targets, cut)
                                for chunk in (chunks if t is s else _chunks(t, c))]
    # chunk i holds elements i * 2**c on, so gate bit b >= c is bit b - c of i;
    # a group's member m is its first chunk with bit high[j] - c set for each
    # bit j set in m, the order of a rank group's members
    coupled = [0]
    for b in high:
        coupled += [m | 1 << (b - c) for m in coupled]
    for base in range(len(src)):
        if base & coupled[-1]:
            continue
        rows = [src[base | m] for m in coupled]
        out = rows if in_place else [tgt[base | m] for m in coupled]
        if move is not None:
            move_rows(rows, out, *move, work=work)
        else:
            apply_rows(rows, out, bits, matrix, work)
