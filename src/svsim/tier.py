"""Two-tier memory model per rank: a bounded fast pool plus a slow pool.

The local amplitude array is divided into equal power-of-two chunks.  Chunks
born in the fast tier stay there; the rest live in the slow tier and must be
staged into fast memory to be computed on, then staged back out when
modified.  Staging is what the tier counters measure.

A look-ahead pass over the upcoming gates turns them into staging groups:

  * a maximal run of chunk-local gates (every qubit below the chunk width,
    or a diagonal gate, which touches amplitudes element-wise) costs each
    slow chunk one round trip for the whole run, however long it is;
  * a gate whose top local qubit falls between the chunk width and the
    partition width pairs chunk j with chunk j XOR 2**(q - c), and each such
    group is co-staged exactly once;
  * a gate needing an inter-rank exchange stages every slow chunk once
    around the exchange, and a measurement stages slow chunks inward only.

The schedule and its counters model the data movement; gate arithmetic is
identical with or without tiering, so tiered results match untiered results
bit for bit.  Staging depends only on the gates and the layout, never on a
rank or on amplitude values, so a run replays the plan through one
``TierAccount`` before any state exists, and every rank's ledger starts
from that account's counters.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import gates as g
from .layout import TrafficLedger, exchange_qubits
from .state import PrecisionMode

# fast-tier chunk slots reserved as the staging area when oversubscribed
STAGING_SLOTS = 4

# preferred slow:fast data split when capacity allows headroom
SLOW_FAST_RATIO = (4, 11)


@dataclass(frozen=True)
class TierConfig:
    fast_capacity_bytes: int
    chunk_bytes: int
    lookahead_window: int = 64

    def __post_init__(self):
        if self.chunk_bytes < 1 or self.chunk_bytes & (self.chunk_bytes - 1):
            raise ValueError("chunk size must be a power of two")
        if self.fast_capacity_bytes < 2 * self.chunk_bytes:
            raise ValueError("fast tier must hold at least two chunks")
        if self.lookahead_window < 1:
            raise ValueError("look-ahead window must be positive")


@dataclass(frozen=True)
class StagingGroup:
    """A contiguous stretch of gates executed under one staging decision.

    kind is one of "run" (chunk-local gates), "mid" (chunk pairing/quads),
    "exchange" (inter-rank gate) or "measure".  chunk_groups lists the chunk
    index tuples co-staged together for "mid" groups.
    """
    kind: str
    gate_indices: tuple[int, ...]
    chunk_groups: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class StagingPlan:
    groups: tuple[StagingGroup, ...]


def _classify(gate: g.Gate, chunk_qubits: int, n_local: int) -> str:
    if gate.kind == "M":
        return "measure"
    if exchange_qubits(gate, n_local):
        return "exchange"
    if g.is_diagonal(gate) or all(q < chunk_qubits for q in gate.qubits):
        return "run"
    return "mid"


def plan_passes(gate_list, config: TierConfig, n_local: int,
                mode: PrecisionMode) -> StagingPlan:
    """Deterministic staging plan for the given gate window."""
    bpe = mode.bytes_per_element
    state_bytes = (1 << n_local) * bpe
    chunk_bytes = min(config.chunk_bytes, state_bytes)
    if chunk_bytes < bpe or state_bytes % chunk_bytes:
        raise ValueError("chunk size must hold at least one element and divide the state")
    chunk_qubits = (chunk_bytes // bpe).bit_length() - 1
    n_chunks = state_bytes // chunk_bytes

    groups: list[StagingGroup] = []
    i = 0
    while i < len(gate_list):
        kind = _classify(gate_list[i], chunk_qubits, n_local)
        if kind == "run":
            j = i
            while (j < len(gate_list) and j - i < config.lookahead_window
                   and _classify(gate_list[j], chunk_qubits, n_local) == "run"):
                j += 1
            groups.append(StagingGroup("run", tuple(range(i, j))))
            i = j
            continue
        if kind == "mid":
            masks = [1 << (q - chunk_qubits)
                     for q in gate_list[i].qubits if q >= chunk_qubits]
            combined = 0
            for m in masks:
                combined |= m
            chunk_groups = []
            for j in range(n_chunks):
                if j & combined:
                    continue
                members = [j]
                for m in masks:
                    members += [x | m for x in members]
                chunk_groups.append(tuple(members))
            needed = 1 << len(masks)
            if needed * chunk_bytes > config.fast_capacity_bytes:
                raise ValueError(
                    f"gate needs {needed} co-resident chunks; shrink the chunk size")
            groups.append(StagingGroup("mid", (i,), tuple(chunk_groups)))
        else:
            groups.append(StagingGroup(kind, (i,)))
        i += 1
    return StagingPlan(tuple(groups))


def recommended_fast_bytes(state_bytes: int, chunk_bytes: int) -> int:
    """Fast-tier data target when the state outgrows the fast tier.

    Keeps slow:fast near 4:11, leaving fast-tier headroom rather than
    filling it to the brim.
    """
    s, f = SLOW_FAST_RATIO
    return (state_bytes * f // (s + f)) // chunk_bytes * chunk_bytes


class TierAccount:
    """Residency tracker and staging counter for one rank's chunks.

    The counts are the same on every rank, so a run keeps one account.
    """

    def __init__(self, state_bytes: int, config: TierConfig, ledger: TrafficLedger):
        self.config = config
        self.ledger = ledger
        self.chunk_bytes = min(config.chunk_bytes, state_bytes)
        self.n_chunks = state_bytes // self.chunk_bytes
        if state_bytes <= config.fast_capacity_bytes:
            fast_chunks = self.n_chunks
        else:
            budget = max(config.fast_capacity_bytes // self.chunk_bytes - STAGING_SLOTS, 0)
            target = recommended_fast_bytes(state_bytes, self.chunk_bytes) // self.chunk_bytes
            fast_chunks = min(budget, target, self.n_chunks)
        # chunks alternate between the tiers, spread evenly across the array
        self.fast_resident = [
            (j + 1) * fast_chunks // self.n_chunks > j * fast_chunks // self.n_chunks
            for j in range(self.n_chunks)
        ]
        self.static_fast_bytes = fast_chunks * self.chunk_bytes
        self.high_water_bytes = self.static_fast_bytes

    @property
    def slow_chunks(self) -> list[int]:
        return [j for j, fast in enumerate(self.fast_resident) if not fast]

    @property
    def slow_bytes(self) -> int:
        return len(self.slow_chunks) * self.chunk_bytes

    def _note_staged(self, count: int) -> None:
        resident = self.static_fast_bytes + count * self.chunk_bytes
        if resident > self.config.fast_capacity_bytes:
            raise ValueError("staging would overflow the fast tier")
        self.high_water_bytes = max(self.high_water_bytes, resident)

    def account(self, group: StagingGroup) -> None:
        if group.kind in ("run", "exchange"):
            # every slow chunk in once and, having been modified, out once
            for _ in self.slow_chunks:
                self._note_staged(1)
                self.ledger.count_tier(2 * self.chunk_bytes, 2)
        elif group.kind == "mid":
            for members in group.chunk_groups:
                slow = [j for j in members if not self.fast_resident[j]]
                if slow:
                    self._note_staged(len(slow))
                    self.ledger.count_tier(2 * self.chunk_bytes * len(slow), 2 * len(slow))
        elif group.kind == "measure":
            # read-only: slow chunks come in but nothing is written back
            for _ in self.slow_chunks:
                self._note_staged(1)
                self.ledger.count_tier(self.chunk_bytes, 1)


def naive_staging_bytes(gate_list, config: TierConfig, n_local: int,
                        mode: PrecisionMode) -> int:
    """Reference cost of staging the slow portion in and out for every gate."""
    ledger = TrafficLedger()
    account = TierAccount((1 << n_local) * mode.bytes_per_element, config, ledger)
    total = 0
    for gate in gate_list:
        if gate.kind == "M":
            total += account.slow_bytes
        else:
            total += 2 * account.slow_bytes
    return total
