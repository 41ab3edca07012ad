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
into storage.  Byte mode has one gate path, on stored codes rather than
values.  A gate combines 1, 2 or 4 components of the codes a rank reads
(its slice, the region a diagonal gate scales, or the exchange's stacked
buffer), and its result at a position depends only on the tuple of codes
there.  So each rank keeps the distinct tuples and each position's tuple
index, decodes those tuples, applies the gate to them through
``apply_diagonal``, ``apply_pair_arrays`` or ``apply_quad_arrays``, and
canonicalizes and proposes the results once.  After the barrier, which
stays per gate, it encodes the distinct results and scatters their codes
back through the tuple indices.  Proposals depend only on the set of
produced values, so tables and bytes are those of a whole-slice decode.

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
from .codec import Codebook, Proposal, canonicalize
from .exchange import group_exchange, stacked_qubits
from .kernels import (apply_diagonal, apply_pair_arrays, apply_quad_arrays,
                      apply_single, apply_two, components)
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
        """Fp modes compute in place; byte mode on the codes it reads."""
        n_local = self.layout.local_qubits
        byte = self.codebook is not None
        where, qubits, rank_bits = (), gate.qubits, 0
        if g.is_diagonal(gate):
            # a diagonal gate acts only where all its qubits read one
            rank_bits = sum(1 << (q - n_local) for q in qubits if q >= n_local)
            qubits = tuple(q for q in qubits if q < n_local)
            if byte:
                # byte mode reads only that region, as the gate's one component
                where, qubits = (qubits,), ()
        # whole pair groups per block keep kernel temporaries small
        block = max(2 << max(qubits, default=0), LOCAL_BLOCK)
        for rank in self.rank_order:
            if rank & rank_bits != rank_bits:
                continue
            state = self.states[rank]
            if byte:
                self._apply_codes(rank, gate, state.stack([state.views(where)]),
                                  qubits, [(rank, where)])
                continue
            for start in range(0, state.psi.size, block):
                _apply_gate(state.psi[start:start + block], gate, qubits)
        self._commit()

    def _apply_exchange(self, gate: g.Gate, plan: ExchangePlan) -> None:
        qubits = stacked_qubits(gate.qubits, self.layout.local_qubits, plan.masks)
        for rank, members, own, stacked in group_exchange(
                self.states, self.transport, plan.masks, self.rank_order, gate.qubits):
            writes = [(member, own) for member in members]
            if self.codebook is not None:
                self._apply_codes(rank, gate, stacked, qubits, writes)
                continue
            _apply_gate(stacked.reshape(-1), gate, qubits)
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
        """Byte mode: merge all ranks' proposals, then encode and store the held writes."""
        if self.codebook is None:
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
    holds D - 1.  One part keys on its 16-bit codes, mapped through a
    65536-entry table; wider tuples pack into one 32- or 64-bit key and
    take a sorting unique.
    """
    if len(parts) == 1:
        distinct = np.unique(parts[0])
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


def _apply_gate(psi: np.ndarray, gate: g.Gate, qubits: tuple[int, ...]) -> None:
    """Apply ``gate`` in place with its qubits at the given bits of ``psi``."""
    if g.is_diagonal(gate):
        apply_diagonal(psi, qubits, g.diagonal_factor(gate))
    elif len(qubits) == 1:
        apply_single(psi, qubits[0], g.unitary_matrix(gate))
    else:
        apply_two(psi, qubits[0], qubits[1], g.unitary_matrix(gate))

