import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import (Circuit, PrecisionMode, build_benchmark, gates as g,
                   oracle_run, run_circuit)
from svsim.cli import main
from svsim.layout import TrafficLedger, memory_bytes, partition, peak_bytes
from svsim.state import LocalState
from svsim.tier import TierConfig
from svsim.transport import Transport, TransportError

from conftest import RecordingTransport, haar_unitary, random_circuit


def test_four_rank_h3_matches_single_rank():
    circuit = Circuit(4, (g.h(3), g.measure_all()))
    single = run_circuit(circuit, ranks=1)
    four = run_circuit(circuit, ranks=4)
    assert np.max(np.abs(single.gathered_state() - four.gathered_state())) < 1e-15


def test_h3_ledger_shows_two_elements_per_rank():
    # N=4, N'=2: half the local array is 2 elements of 16 bytes each
    circuit = Circuit(4, (g.h(3),))
    result = run_circuit(circuit, ranks=4)
    for ledger in result.ledgers:
        assert ledger.inter_rank_bytes_sent == 2 * 16
        assert ledger.inter_rank_bytes_received == 2 * 16
        assert ledger.inter_rank_messages == 1


def test_pairwise_partner_is_rank_xor_mask():
    sends = {}

    class Spy(RecordingTransport):
        def __init__(self, n, ledgers):
            super().__init__(n, ledgers)
            sends["log"] = self.sends

    circuit = Circuit(5, (g.h(4),))
    run_circuit(circuit, ranks=8, transport_factory=Spy)
    mask = 1 << (4 - 2)
    assert sorted(sends["log"]) == sorted((r, r ^ mask, 2 * 16) for r in range(8))


def test_quad_exchange_sends_three_quarters():
    circuit = Circuit(6, (g.u4(4, 5, g.CNOT_MATRIX),))
    result = run_circuit(circuit, ranks=4)
    local = 1 << 4
    for ledger in result.ledgers:
        assert ledger.inter_rank_bytes_sent == (3 * local // 4) * 16
        assert ledger.inter_rank_messages == 3


def test_two_qubit_one_high_sends_half():
    circuit = Circuit(6, (g.u4(1, 5, g.CNOT_MATRIX),))
    result = run_circuit(circuit, ranks=4)
    local = 1 << 4
    for ledger in result.ledgers:
        assert ledger.inter_rank_bytes_sent == (local // 2) * 16
        assert ledger.inter_rank_messages == 1


def test_diagonal_circuits_are_silent_at_any_rank_count():
    gates = (g.z(5), g.cphase(4, 5, 2), g.phase(3, 1), g.cphase(0, 5, 3))
    circuit = Circuit(6, gates)
    for ranks in (1, 2, 4, 8):
        result = run_circuit(circuit, ranks=ranks)
        assert result.total_bytes_sent == 0
        assert result.total_messages == 0


def test_conservation_and_partner_symmetry(rng):
    circuit = random_circuit(rng, 8, 25)
    result = run_circuit(circuit, ranks=8)
    sent = sum(l.inter_rank_bytes_sent for l in result.ledgers)
    received = sum(l.inter_rank_bytes_received for l in result.ledgers)
    assert sent == received
    # symmetric exchanges: every rank sent exactly what it received
    for ledger in result.ledgers:
        assert ledger.inter_rank_bytes_sent == ledger.inter_rank_bytes_received


def test_rank_count_invariance_random_circuits(rng):
    for trial in range(8):
        n = int(rng.integers(4, 9))
        circuit = random_circuit(rng, n, 20)
        reference = run_circuit(circuit, ranks=1)
        for log_ranks in (1, 2):
            other = run_circuit(circuit, ranks=1 << log_ranks)
            assert reference.report.max_difference(other.report) < 1e-12
            assert np.max(np.abs(reference.gathered_state()
                                 - other.gathered_state())) < 1e-12


def test_distributed_matches_oracle_all_modes(rng):
    tolerances = {PrecisionMode.FP64: 1e-12, PrecisionMode.FP32: 1e-5}
    for mode, tol in tolerances.items():
        circuit = random_circuit(rng, 7, 15)
        _, expected = oracle_run(circuit)
        result = run_circuit(circuit, ranks=4, mode=mode)
        assert result.report.max_difference(expected) < tol


def test_byte_mode_exchange_counts_two_bytes_per_element():
    circuit = Circuit(4, (g.h(3),))
    result = run_circuit(circuit, ranks=4, mode=PrecisionMode.BYTE)
    for ledger in result.ledgers:
        assert ledger.inter_rank_bytes_sent == 2 * 2


def test_gate_operations_counter():
    circuit = build_benchmark(9)
    result = run_circuit(circuit, ranks=2)
    # literal sequence: 9 + 6 Hadamards plus one all-qubit measurement
    assert result.gate_operations == 16
    assert all(l.gate_operations == 16 for l in result.ledgers)


def test_benchmark_high_gates_follow_volume_law():
    n, ranks = 10, 4
    circuit = build_benchmark(n)
    result = run_circuit(circuit, ranks=ranks)
    local = 1 << 8
    high_gates = sum(1 for gate in circuit.gates
                     if gate.kind == "H" and gate.qubits[0] >= 8)
    measured_high = 2  # qubits 8 and 9 measured via one exchange each
    expected = (high_gates + measured_high) * (local // 2) * 16
    for ledger in result.ledgers:
        assert ledger.inter_rank_bytes_sent == expected


def test_transport_failure_names_gate_and_ranks():
    class Failing(Transport):
        def send(self, src, dst, payload, nbytes):
            raise TransportError(f"link down between {src} and {dst}")

    circuit = Circuit(4, (g.x(0), g.h(3)))
    with pytest.raises(RuntimeError, match=r"gate 1 \(H\): link down"):
        run_circuit(circuit, ranks=4, transport_factory=Failing)


def test_invalid_rank_configuration_rejected():
    circuit = Circuit(4, (g.h(0),))
    with pytest.raises(ValueError, match="power of two"):
        run_circuit(circuit, ranks=3)
    with pytest.raises(ValueError):
        run_circuit(circuit, ranks=2, local_qubits=4)


def test_scheduling_invariance_of_states_and_ledgers(rng):
    circuit = random_circuit(rng, 8, 18)
    a = run_circuit(circuit, ranks=8, rank_order_seed=7)
    b = run_circuit(circuit, ranks=8, rank_order_seed=1234)
    assert np.array_equal(a.gathered_state(), b.gathered_state())
    assert [l.snapshot() for l in a.ledgers] == [l.snapshot() for l in b.ledgers]
    assert a.report == b.report


def test_every_send_charges_the_bytes_it_carries():
    circuit = build_benchmark(10)
    local = 1 << 8
    high_gates = sum(1 for gate in circuit.gates
                     if gate.kind == "H" and gate.qubits[0] >= 8)
    for mode in PrecisionMode:
        sends = []

        class Carried(Transport):
            def send(self, src, dst, payload, nbytes):
                parts = (payload,) if isinstance(payload, np.ndarray) else payload
                sends.append((nbytes, sum(part.nbytes for part in parts)))
                super().send(src, dst, payload, nbytes)

        result = run_circuit(circuit, ranks=4, mode=mode, transport_factory=Carried)
        assert len(sends) == result.total_messages == 4 * (high_gates + 2)
        assert [charged for charged, _ in sends] == [carried for _, carried in sends]
        # gates and the two high measured qubits each move half the slice
        assert result.total_bytes_sent == (
            4 * (high_gates + 2) * (local // 2) * mode.bytes_per_element)


def test_send_rejects_a_charge_other_than_the_payload_size():
    ledgers = [TrafficLedger(), TrafficLedger()]
    transport = Transport(2, ledgers)
    with pytest.raises(TransportError, match="charges 8 B but carries 16 B"):
        transport.send(0, 1, np.zeros(1, dtype=np.complex128), 8)
    assert ledgers[0].snapshot() == TrafficLedger().snapshot()
    transport.send(0, 1, (np.zeros(2, dtype=np.uint8), np.zeros(2, dtype=np.uint8)), 4)
    assert ledgers[1].inter_rank_bytes_received == 4


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_two_qubit_gate_on_the_top_local_bit(rng, mode):
    # the gate's local qubit is the top local bit, so each rank's share of the
    # pair exchange is the index set where the bit below it reads the rank's bit
    n = 6
    tolerance = 1e-5 if mode is PrecisionMode.FP32 else 1e-12
    # byte mode stays exact on H, X, Z, CNOT and real +-1/2 matrices
    u4 = (np.kron(g.H_MATRIX, g.H_MATRIX) if mode is PrecisionMode.BYTE
          else haar_unitary(rng, 4))
    for ranks in (2, 4, 8):
        top = n - ranks.bit_length()
        gates = [g.h(q) for q in range(n)] + [g.z(0), g.x(top), g.cphase(1, n - 1, 1)]
        for high in range(top + 1, n):
            for qa, qb in ((top, high), (high, top)):
                gates += [g.cnot(qa, qb), g.u4(qa, qb, u4), g.h(qb), g.z(qa)]
        circuit = Circuit(n, tuple(gates) + (g.measure_all(),))
        _, expected = oracle_run(circuit)
        a = run_circuit(circuit, ranks=ranks, mode=mode, rank_order_seed=3)
        b = run_circuit(circuit, ranks=ranks, mode=mode, rank_order_seed=11)
        assert a.report.max_difference(expected) < tolerance
        assert np.array_equal(a.gathered_state(), b.gathered_state())
        assert a.report == b.report
        assert [l.snapshot() for l in a.ledgers] == [l.snapshot() for l in b.ledgers]


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_local_gates_in_blocks_match_whole_slice_bit_for_bit(rng, monkeypatch, mode):
    import svsim.engine
    circuit = random_circuit(rng, 9, 40)
    runs = []
    for block in (1 << 3, 1 << 30):
        monkeypatch.setattr(svsim.engine, "LOCAL_BLOCK", block)
        runs.append(run_circuit(circuit, ranks=2, mode=mode))
    blocked, whole = runs
    assert np.array_equal(blocked.gathered_state(), whole.gathered_state())
    assert blocked.report == whole.report
    assert [l.snapshot() for l in blocked.ledgers] == [l.snapshot() for l in whole.ledgers]


def test_infeasible_layout_raises_before_the_first_send():
    transports = []

    def factory(n, ledgers):
        transports.append(RecordingTransport(n, ledgers))
        return transports[-1]

    # H 2 alone would exchange; CNOT 0 2 needs 4 local amplitudes per rank
    circuit = Circuit(3, (g.h(2), g.cnot(0, 2)))
    with pytest.raises(ValueError, match="4 local amplitudes"):
        run_circuit(circuit, ranks=4, local_qubits=1, transport_factory=factory)
    assert sum(len(t.sends) for t in transports) == 0


@pytest.mark.parametrize("case", ["layout", "tier", "memory"])
def test_planning_errors_raise_before_any_state_exists(monkeypatch, case):
    def no_state(*args, **kwargs):
        raise AssertionError("a LocalState was allocated")

    monkeypatch.setattr(LocalState, "zero_state", classmethod(no_state))
    kwargs = {"ranks": 4}
    if case == "layout":
        circuit, kwargs["local_qubits"] = Circuit(3, (g.h(2), g.cnot(0, 2))), 1
        match = "4 local amplitudes"
    elif case == "tier":
        # 64 local amplitudes in 16 chunks; U4 on qubits 2 and 3 co-stages
        # four chunks, but the fast tier holds two
        circuit = Circuit(8, (g.h(0), g.u4(2, 3, g.CNOT_MATRIX)))
        kwargs["tier_config"] = TierConfig(128, 64)
        match = "co-resident"
    else:
        circuit, kwargs["ranks"] = build_benchmark(40), 1
        match = "the machine has"
    with pytest.raises(ValueError, match=match):
        run_circuit(circuit, **kwargs)


def test_memory_check_counts_the_run_peak_not_only_storage(monkeypatch, capsys):
    def no_state(*args, **kwargs):
        raise AssertionError("a LocalState was allocated")

    # 12 qubits store 8 KiB in byte mode, but a run also holds their
    # complex128 values and the codec's working set; the machine has 16 KiB
    machine = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4}
    monkeypatch.setattr(os, "sysconf", machine.__getitem__)
    monkeypatch.setattr(LocalState, "zero_state", classmethod(no_state))
    mode = PrecisionMode.BYTE
    assert memory_bytes(12, mode) < 16384 < peak_bytes(partition(12, 1), mode)
    with pytest.raises(ValueError, match="the machine has 16384 B"):
        run_circuit(build_benchmark(12), mode=mode)
    with pytest.raises(SystemExit) as exit_info:
        main(["--builder", "benchmark:12", "--mode", "be"])
    assert exit_info.value.code == 2
    assert "the machine has 16384 B" in capsys.readouterr().err


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_traced_peak_stays_under_the_planned_bound(rng, mode):
    circuit = random_circuit(rng, 16, 12)
    tracemalloc.start()
    try:
        run_circuit(circuit, ranks=4, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_bytes(partition(16, 4), mode)


@given(seed=st.integers(0, 2**32 - 1), ranks=st.sampled_from([1, 2, 4, 8]),
       mode=st.sampled_from([PrecisionMode.FP64, PrecisionMode.FP32]),
       tiered=st.booleans())
def test_engine_matches_the_oracle(seed, ranks, mode, tiered):
    rng = np.random.default_rng(seed)
    n = 6
    # two-qubit gates on the top local bit, paired with the bit below and the top qubit
    top = n - ranks.bit_length()
    gates = list(random_circuit(rng, n, 10, measured=False).gates)
    for partner in {top - 1, n - 1} - {top}:
        gates += [g.u4(top, partner, haar_unitary(rng, 4)), g.cnot(partner, top)]
    circuit = Circuit(n, tuple(gates) + (g.measure_all(),))
    tier = TierConfig(8 * 4 * mode.bytes_per_element, 4 * mode.bytes_per_element)
    result = run_circuit(circuit, ranks=ranks, mode=mode,
                         tier_config=tier if tiered else None, rank_order_seed=seed)
    dense, expected = oracle_run(circuit)
    tolerance = 1e-5 if mode is PrecisionMode.FP32 else 1e-12
    assert np.max(np.abs(result.gathered_state() - dense.psi)) < tolerance
    assert result.report.max_difference(expected) < tolerance
