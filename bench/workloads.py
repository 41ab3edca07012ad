"""Benchmark workloads: seeded circuits, their references and the run check.

Each workload is one circuit run through ``svsim.run_circuit`` with a fixed
rank count, storage mode and tier setting.  The workload seed draws the
addends and the random circuit; the program only ever sees the generated
circuit.  The four workloads are chosen so that every layer an open item
targets is exercised by one workload and bypassed by another:

  hadamard-fp32-r16   exchange, measurement and fp32 conversion; no codec,
                      no diagonal gate, no tiering
  adder-fp64-r1-tier  kernels and diagonal gates with tier staging; one
                      rank, so no exchange
  adder-be-r4         the byte codec, with both tables full and overflowing
  random-fp64-r16     the full gate set, and the only workload with local
                      two-qubit gates and two-qubit pairwise and quad
                      exchanges
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from svsim import (Circuit, ExpectationReport, PartitionLayout, PrecisionMode,
                   RegisterMap, TierConfig, build_adder, build_benchmark,
                   decode_register, oracle_run, plan_exchange,
                   predicted_exchange_bytes)
from svsim import gates as g

# Largest allowed difference between a report and its reference.  Byte mode
# has no bound here: its check is the decoded sum, and its error is a metric.
TOLERANCE = {PrecisionMode.FP64: 1e-10, PrecisionMode.FP32: 1e-5}

# Gate mix of the random workload: (kind, exchange kind) -> count.  The mix
# is fixed so every exchange kind occurs and the exchange volume and run
# time do not depend on the seed; the seed draws order, qubits, phase
# exponents and matrices.
RANDOM_MIX = {
    ("H", "none"): 4, ("H", "pairwise"): 2,
    ("X", "none"): 4, ("X", "pairwise"): 1,
    ("Y", "none"): 3, ("Y", "pairwise"): 1,
    ("Z", "none"): 5,
    ("PHASE", "none"): 5,
    ("CPHASE", "none"): 6,
    ("CNOT", "none"): 5, ("CNOT", "pairwise"): 3, ("CNOT", "quad"): 2,
    ("U2", "none"): 6, ("U2", "pairwise"): 2,
    ("U4", "none"): 6, ("U4", "pairwise"): 3, ("U4", "quad"): 2,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "hadamard", "adder" or "random"
    circuit: Circuit
    ranks: int
    mode: PrecisionMode
    tier_config: TierConfig | None = None
    registers: RegisterMap | None = None
    addends: tuple[int, ...] = ()

    def run_kwargs(self) -> dict:
        return {"ranks": self.ranks, "mode": self.mode,
                "tier_config": self.tier_config}

    @property
    def layout(self) -> PartitionLayout:
        n = self.circuit.n_qubits
        return PartitionLayout(n, n - (self.ranks.bit_length() - 1))

    def exchange_kinds(self) -> dict[str, int]:
        """How many gates fall into each exchange kind under this layout."""
        counts = {"none": 0, "pairwise": 0, "quad": 0}
        layout = self.layout
        for gate in self.circuit.gates:
            if gate.kind != "M":
                counts[plan_exchange(layout, gate, self.mode).kind] += 1
        return counts


def hadamard(seed: int, n_qubits: int = 20, ranks: int = 16) -> Workload:
    """The paper's Hadamard benchmark circuit; the seed only orders ranks."""
    return Workload("hadamard-fp32-r16", "hadamard", build_benchmark(n_qubits),
                    ranks, PrecisionMode.FP32)


def _adder(name: str, seed: int, width: int, ranks: int, mode: PrecisionMode,
           tier_config: TierConfig | None) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    addends = (rng.randrange(1 << width), rng.randrange(1 << width))
    circuit, registers = build_adder(width, list(addends))
    return Workload(name, "adder", circuit, ranks, mode, tier_config,
                    registers, addends)


def adder_tier(seed: int, width: int = 10) -> Workload:
    return _adder("adder-fp64-r1-tier", seed, width, 1, PrecisionMode.FP64,
                  TierConfig(12 << 20, 256 << 10, 64))


def adder_byte(seed: int, width: int = 8) -> Workload:
    return _adder("adder-be-r4", seed, width, 4, PrecisionMode.BYTE, None)


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gates(seed: int, n_qubits: int, n_local: int,
                 mix: dict = RANDOM_MIX) -> list[g.Gate]:
    """Shuffled gates of the given (kind, exchange kind) mix.

    Qubits are drawn so that each gate lands in its exchange kind: "none"
    puts every qubit of a non-diagonal gate below ``n_local``, "pairwise"
    puts exactly one at or above it, "quad" puts both there.  Diagonal
    gates never exchange, so their qubits are drawn from the whole register.
    """
    rng = np.random.default_rng(seed)
    slots = [key for key, count in sorted(mix.items()) for _ in range(count)]
    order = rng.permutation(len(slots))
    low, high = list(range(n_local)), list(range(n_local, n_qubits))
    gate_list = []
    for index in order:
        kind, exchange = slots[index]
        if kind in g.DIAGONAL_KINDS:
            pools = (range(n_qubits), range(n_qubits))
        elif exchange == "none":
            pools = (low, low)
        elif exchange == "quad":
            pools = (high, high)
        elif kind in g.SINGLE_QUBIT_KINDS:
            pools = (high, low)
        else:
            pools = (low, high) if rng.integers(2) else (high, low)
        q1 = int(rng.choice(pools[0]))
        q2 = int(rng.choice([q for q in pools[1] if q != q1]))
        k = int(rng.integers(1, 6)) * (1 if rng.integers(2) else -1)
        if kind == "H":
            gate = g.h(q1)
        elif kind == "X":
            gate = g.x(q1)
        elif kind == "Y":
            gate = g.y(q1)
        elif kind == "Z":
            gate = g.z(q1)
        elif kind == "PHASE":
            gate = g.phase(q1, k)
        elif kind == "U2":
            gate = g.u2(q1, _haar(rng, 2))
        elif kind == "CPHASE":
            gate = g.cphase(q1, q2, k)
        elif kind == "CNOT":
            gate = g.cnot(q1, q2)
        else:
            gate = g.u4(q1, q2, _haar(rng, 4))
        gate_list.append(gate)
    return gate_list


def random_circuit(seed: int, n_qubits: int = 20, ranks: int = 16) -> Workload:
    n_local = n_qubits - (ranks.bit_length() - 1)
    gate_list = random_gates(seed, n_qubits, n_local) + [g.measure_all()]
    return Workload("random-fp64-r16", "random", Circuit(n_qubits, tuple(gate_list)),
                    ranks, PrecisionMode.FP64)


# name -> builder(seed); BENCHMARK.json gives each one's reason.
WORKLOADS = {
    "hadamard-fp32-r16": hadamard,
    "adder-fp64-r1-tier": adder_tier,
    "adder-be-r4": adder_byte,
    "random-fp64-r16": random_circuit,
}


def build_workload(name: str, seed: int) -> Workload:
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return builder(seed)


# -- references ----------------------------------------------------------------

def _basis_report(bits: list[int]) -> ExpectationReport:
    """Expectations of a computational basis state, bit q on qubit q."""
    n = len(bits)
    return ExpectationReport((0.5,) * n, (0.5,) * n, tuple(float(b) for b in bits))


def adder_bits(workload: Workload) -> list[int]:
    """Every qubit's value after the adder: the addends, then their sum."""
    width = len(workload.registers.registers[0][1])
    values = list(workload.addends[:-1]) + [sum(workload.addends) % (1 << width)]
    bits = [0] * workload.circuit.n_qubits
    for (_, register), value in zip(workload.registers.registers, values):
        for t, q in enumerate(register):
            bits[q] = (value >> (width - 1 - t)) & 1
    return bits


def reference(workload: Workload) -> ExpectationReport:
    """The report an exact simulator gives for the workload's circuit.

    The Hadamard circuit and the adders have analytic answers; the random
    circuit uses the dense oracle, which shares no code with the engine.
    """
    n = workload.circuit.n_qubits
    if workload.kind == "hadamard":
        twice = {n - 5, n - 6, n - 1, 0, n - 2, 1}
        return ExpectationReport(
            tuple(0.5 if q in twice else 0.0 for q in range(n)),
            (0.5,) * n,
            tuple(0.0 if q in twice else 0.5 for q in range(n)))
    if workload.kind == "adder":
        return _basis_report(adder_bits(workload))
    _, report = oracle_run(workload.circuit)
    return report.relabelled(workload.circuit.label_permutation)


# -- the run check -------------------------------------------------------------

@dataclass(frozen=True)
class RunSummary:
    """What a run must reproduce: its report and every rank's ledger."""
    report: ExpectationReport | None
    ledgers: tuple[tuple[tuple[str, int], ...], ...]

    @classmethod
    def of(cls, result) -> "RunSummary":
        return cls(result.report_in_program_labels(),
                   tuple(tuple(sorted(led.snapshot().items())) for led in result.ledgers))

    def total(self, field: str) -> int:
        return sum(dict(led)[field] for led in self.ledgers)


def measurement_bytes(workload: Workload) -> int:
    """Bytes the measurements charge: a pairwise round per qubit above the
    local width, each the volume the planner gives a single-qubit gate there."""
    layout = workload.layout
    n = layout.total_qubits
    one_round = Circuit(n, tuple(g.h(q) for q in range(layout.local_qubits, n)))
    measures = sum(gate.kind == "M" for gate in workload.circuit.gates)
    return measures * predicted_exchange_bytes(one_round, layout, workload.mode)


def check_run(workload: Workload, summary: RunSummary, ref: ExpectationReport,
              baseline: RunSummary | None = None) -> list[str]:
    """Problems with one run; an empty list means the run is correct."""
    report = summary.report
    if report is None:
        return ["the run produced no measurement report"]
    problems = []
    gate_ops = {dict(led)["gate_operations"] for led in summary.ledgers}
    if gate_ops != {len(workload.circuit.gates)}:
        problems.append(f"gate_operations {sorted(gate_ops)} != {len(workload.circuit.gates)} gates")
    gate_bytes = summary.total("inter_rank_bytes_sent") - measurement_bytes(workload)
    predicted = predicted_exchange_bytes(workload.circuit, workload.layout, workload.mode)
    if gate_bytes != predicted:
        problems.append(f"gate exchanges charged {gate_bytes} B, planner predicts {predicted} B")
    err = report.max_difference(ref)
    tolerance = TOLERANCE.get(workload.mode)
    if tolerance is not None and not err <= tolerance:
        problems.append(f"report differs from the reference by {err:.3g} > {tolerance:g}")
    if workload.kind == "adder":
        bits = [1 if z > 0.5 else 0 for z in report.qz]
        want = adder_bits(workload)
        for name, register in workload.registers.registers:
            got, expected = decode_register(bits, register), decode_register(want, register)
            if got != expected:
                problems.append(f"register {name} decodes to {got}, expected {expected}")
    if baseline is not None:
        if report != baseline.report:
            problems.append("report differs from the natural-order warm-up run")
        if summary.ledgers != baseline.ledgers:
            problems.append("ledgers differ from the natural-order warm-up run")
    return problems
