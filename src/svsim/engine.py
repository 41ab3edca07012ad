"""Distributed execution of a circuit over in-process rank workers.

Every gate runs as a bulk-synchronous round.  A diagonal gate, or one whose
qubits are all local, applies independently on each rank.  Every other gate
goes through the one group exchange of ``exchange``, as do measured qubits
in the rank bits: the 2**k ranks that differ in the gate's k rank bits trade
the parts each member owns, each member applies the gate to the stacked
components of its own part, and every member's results go back into that
member's part within the same round through process-shared memory rather
than a second counted transfer.  Ledger bytes therefore equal the planned
exchange volume, 1 - 2**-k of the local elements per rank at the storage
mode's bytes per element, and each send charges exactly what it carries.

Fp modes store results at once.  In byte-encoded mode every gate ends with
a codebook barrier: ranks propose the values they produced, the proposals
are merged identically everywhere, and only then are results encoded back
into storage.

Ranks are visited in a configurable order; all results and counters are
independent of that order.

A run is planned whole before any state exists: the layout, one exchange
plan per gate, the run's peak memory (``layout.peak_bytes``) against the
machine's physical memory, and the tier staging, replayed once because it
is the same on every rank.  A layout, memory or tier error therefore raises
before the first amplitude is allocated or the first byte is sent.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace

import numpy as np

from . import gates as g
from .circuit import Circuit, validate_circuit
from .codec import Codebook
from .exchange import group_exchange, stacked_qubits
from .kernels import apply_diagonal, apply_single, apply_two
from .layout import (ExchangePlan, PartitionLayout, TrafficLedger, partition,
                     peak_bytes, plan_exchange)
from .measure import ExpectationReport, measure_all
from .state import LocalState, PrecisionMode
from .tier import TierAccount, TierConfig, plan_passes
from .transport import Transport, TransportError

LOCAL_BLOCK = 1 << 13  # amplitudes per kernel call on the local path


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


def run_circuit(circuit: Circuit, *, ranks: int = 1, local_qubits: int | None = None,
                mode: PrecisionMode = PrecisionMode.FP64,
                tier_config: TierConfig | None = None,
                rank_order_seed: int | None = None,
                transport_factory=Transport) -> RunResult:
    validate_circuit(circuit)
    layout = partition(circuit.n_qubits, ranks, local_qubits)
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
        need = peak_bytes(layout, mode)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ValueError(
                f"the run needs up to {need} B but the machine has {have} B of memory")
        self.circuit = circuit
        self.layout = layout
        self.plans = [plan_exchange(layout, gate, mode) for gate in circuit.gates]
        tier_ledger = TrafficLedger()
        self.tier_accounts = None
        if tier_config is not None:
            account = TierAccount(layout.local_size * mode.bytes_per_element,
                                  tier_config, tier_ledger)
            for group in plan_passes(circuit.gates, tier_config,
                                     layout.local_qubits, mode).groups:
                account.account(group)
            self.tier_accounts = [account]

        n = layout.rank_count
        self.ledgers = [replace(tier_ledger) for _ in range(n)]
        self.transport = transport_factory(n, self.ledgers)
        self.codebook = Codebook() if mode is PrecisionMode.BYTE else None
        self.states = [
            LocalState.zero_state(layout.local_qubits, mode, r == 0, self.codebook)
            for r in range(n)
        ]
        self.rank_order = list(range(n))
        if rank_order_seed is not None:
            random.Random(rank_order_seed).shuffle(self.rank_order)
        self.report: ExpectationReport | None = None
        self._proposals, self._pending = {}, []

    def run(self) -> None:
        for ordinal, (gate, plan) in enumerate(zip(self.circuit.gates, self.plans)):
            self._execute(gate, plan, ordinal)
        self.transport.assert_drained()

    # -- per-gate dispatch ------------------------------------------------

    def _execute(self, gate: g.Gate, plan: ExchangePlan, ordinal: int) -> None:
        try:
            if gate.kind == "M":
                self.report = measure_all(self.states, self.layout, self.transport,
                                          self.rank_order)
            elif plan.kind == "none":
                self._apply_local(gate)
            else:
                self._apply_exchange(gate, plan)
        except TransportError as exc:
            raise RuntimeError(f"gate {ordinal} ({gate.kind}): {exc}") from exc
        for ledger in self.ledgers:
            ledger.gate_operations += 1

    def _apply_local(self, gate: g.Gate) -> None:
        """Fp modes compute in place; byte mode on a decoded copy it commits."""
        n_local = self.layout.local_qubits
        decoded = self.codebook is not None
        where, qubits, rank_bits = (), gate.qubits, 0
        if g.is_diagonal(gate):
            # a diagonal gate acts only where all its qubits read one
            rank_bits = sum(1 << (q - n_local) for q in qubits if q >= n_local)
            qubits = tuple(q for q in qubits if q < n_local)
            if decoded:
                where, qubits = (qubits,), ()
        # whole pair groups per block keep kernel temporaries small
        block = max(2 << max(qubits, default=0), LOCAL_BLOCK)
        for rank in self.rank_order:
            if rank & rank_bits != rank_bits:
                continue
            state = self.states[rank]
            psi = state.working(where) if decoded else state.psi
            for start in range(0, psi.size, block):
                _apply_gate(psi[start:start + block], gate, qubits)
            if decoded:
                self._write(rank, psi, [(rank, where, psi)])
        self._commit()

    def _apply_exchange(self, gate: g.Gate, plan: ExchangePlan) -> None:
        qubits = stacked_qubits(gate.qubits, self.layout.local_qubits, plan.masks)
        for rank, members, own, stacked in group_exchange(
                self.states, self.transport, plan.masks, self.rank_order, gate.qubits):
            _apply_gate(stacked.reshape(-1), gate, qubits)
            self._write(rank, stacked, [(m, own, stacked[p]) for p, m in enumerate(members)])
        self._commit()

    # -- storage commit ----------------------------------------------------

    def _write(self, rank: int, produced: np.ndarray, writes: list) -> None:
        """Store what ``rank`` computed: fp at once, byte after ``_commit``."""
        if self.codebook is None:
            for owner, where, values in writes:
                self.states[owner].store(values, where)
            return
        self._proposals[rank] = self.codebook.propose(produced)
        self._pending += writes

    def _commit(self) -> None:
        """Byte mode: merge all ranks' proposals, then encode the held writes."""
        if self.codebook is None:
            return
        empty = self.codebook.propose(np.zeros(0, dtype=np.complex128))
        proposals = [self._proposals.get(rank, empty)
                     for rank in range(self.layout.rank_count)]
        self.codebook.merge(self.transport.collective(proposals))
        for owner, where, values in self._pending:
            self.states[owner].store(values, where)
        self._proposals, self._pending = {}, []


def _apply_gate(psi: np.ndarray, gate: g.Gate, qubits: tuple[int, ...]) -> None:
    """Apply ``gate`` in place with its qubits at the given bits of ``psi``."""
    if g.is_diagonal(gate):
        apply_diagonal(psi, qubits, g.diagonal_factor(gate))
    elif len(qubits) == 1:
        apply_single(psi, qubits[0], g.unitary_matrix(gate))
    else:
        apply_two(psi, qubits[0], qubits[1], g.unitary_matrix(gate))

