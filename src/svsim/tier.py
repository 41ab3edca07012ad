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
rank or on amplitude values, so a run's plan (``engine.plan_run``) charges
it once, through one ``TierAccount``, before any state exists.  The account
counts in closed form and lists no chunk.  Every group stages each slow
chunk once: in and, unless it only measures, out again.  It raises the fast
tier's high-water mark by the most slow chunks it holds at once: one, or
for a "mid" group the most slow chunks in any co-staged group, which a sum
over the residency flags gives once per set of paired chunk-index bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates as g
from .kernels import components
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
        for field in ("fast_capacity_bytes", "chunk_bytes", "lookahead_window"):
            object.__setattr__(self, field, g.as_index(getattr(self, field), field))
        if self.chunk_bytes < 1 or self.chunk_bytes & (self.chunk_bytes - 1):
            raise ValueError("chunk size must be a power of two")
        if self.fast_capacity_bytes < 2 * self.chunk_bytes:
            raise ValueError("fast tier must hold at least two chunks")
        if self.lookahead_window < 1:
            raise ValueError("look-ahead window must be positive")

    def chunk(self, state_bytes: int) -> int:
        """Bytes per chunk of a rank's ``state_bytes``: at most the whole state."""
        return min(self.chunk_bytes, state_bytes)


@dataclass(frozen=True)
class StagingGroup:
    """A contiguous stretch of gates executed under one staging decision.

    kind is one of "run" (chunk-local gates), "mid" (chunk pairing/quads),
    "exchange" (inter-rank gate) or "measure".  A "mid" group's bits are
    the chunk-index bits its gate pairs: the chunks that differ only in
    them are co-staged together.
    """
    kind: str
    gate_indices: tuple[int, ...]
    bits: tuple[int, ...] = ()


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
    chunk_bytes = config.chunk((1 << n_local) * bpe)
    if chunk_bytes < bpe:
        raise ValueError("chunk size must hold at least one element")
    chunk_qubits = (chunk_bytes // bpe).bit_length() - 1

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
            bits = tuple(sorted(q - chunk_qubits for q in gate_list[i].qubits
                                if q >= chunk_qubits))
            if chunk_bytes << len(bits) > config.fast_capacity_bytes:
                raise ValueError(f"gate needs {1 << len(bits)} co-resident chunks; "
                                 "shrink the chunk size")
            groups.append(StagingGroup("mid", (i,), bits))
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
        self.chunk_bytes = config.chunk(state_bytes)
        self.n_chunks = state_bytes // self.chunk_bytes
        if state_bytes <= config.fast_capacity_bytes:
            fast_chunks = self.n_chunks
        else:
            budget = max(config.fast_capacity_bytes // self.chunk_bytes - STAGING_SLOTS, 0)
            target = recommended_fast_bytes(state_bytes, self.chunk_bytes) // self.chunk_bytes
            fast_chunks = min(budget, target, self.n_chunks)
        # chunks alternate between the tiers, spread evenly across the array
        j, n = np.arange(self.n_chunks), self.n_chunks
        self.fast_resident = (j + 1) * fast_chunks // n > j * fast_chunks // n
        self.static_fast_bytes = fast_chunks * self.chunk_bytes
        self.high_water_bytes = self.static_fast_bytes
        self._co_staged: dict[tuple[int, ...], int] = {}

    @property
    def slow_bytes(self) -> int:
        return self.n_chunks * self.chunk_bytes - self.static_fast_bytes

    def _most_slow(self, bits: tuple[int, ...]) -> int:
        """Most slow chunks among the chunks that differ only in ``bits``."""
        if bits not in self._co_staged:
            self._co_staged[bits] = int(sum(components(~self.fast_resident, bits)).max())
        return self._co_staged[bits]

    def account(self, group: StagingGroup) -> None:
        """Charge ``group``: every slow chunk in and, unless only measured, out again.

        The fast tier then holds the most slow chunks the group stages at once.
        """
        slow = self.slow_bytes // self.chunk_bytes
        if not slow:
            return
        staged = self._most_slow(group.bits) if group.kind == "mid" else 1
        resident = self.static_fast_bytes + staged * self.chunk_bytes
        if resident > self.config.fast_capacity_bytes:
            raise ValueError("staging would overflow the fast tier")
        self.high_water_bytes = max(self.high_water_bytes, resident)
        way = 1 if group.kind == "measure" else 2
        self.ledger.count_tier(way * slow * self.chunk_bytes, way * slow)


def naive_staging_bytes(gate_list, config: TierConfig, n_local: int,
                        mode: PrecisionMode) -> int:
    """Reference cost of staging the slow portion in and out for every gate."""
    account = TierAccount((1 << n_local) * mode.bytes_per_element, config, TrafficLedger())
    return sum(1 if gate.kind == "M" else 2 for gate in gate_list) * account.slow_bytes
