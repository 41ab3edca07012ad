import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import (Circuit, PrecisionMode, build_adder, build_benchmark, build_report,
                   gates as g, oracle_run, run_circuit)
import svsim.engine
import svsim.kernels
from svsim.cli import main
from svsim.engine import _Engine, plan_run
from svsim.layout import CACHE_LINE, TrafficLedger, memory_bytes, partition
from svsim.state import LocalState
from svsim.tier import TierConfig
from svsim.transport import Transport, TransportError

from conftest import RecordingTransport, diagonal_run, haar_unitary, random_circuit


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


def _integers_circuit(n=3, q=1, k=3, labels=()):
    """H, PHASE, CPHASE and CNOT on 3 qubits from a qubit count, a qubit, an exponent and labels."""
    return Circuit(n, (g.h(0), g.h(q), g.phase(q, k), g.cphase(0, 2, k), g.cnot(2, q),
                       g.measure_all()), labels)


@pytest.mark.parametrize("values, accepted", [
    ({"n": np.int64(3)}, True),
    ({"q": np.int32(1)}, True),
    ({"q": np.array(1)}, True),
    ({"k": np.int64(3)}, True),
    ({"labels": (np.int64(0), 1, 2)}, True),
    ({"ranks": np.int64(2)}, True),
    ({"n": 3.0}, False),
    ({"q": 1.0}, False),
    ({"q": "1"}, False),
    ({"q": [1]}, False),
    ({"k": np.float64(3)}, False),
    ({"labels": (0.0, 1, 2)}, False),
    ({"ranks": 2.0}, False),
], ids=["numpy-count", "numpy-qubit", "0d-array-qubit", "numpy-exponent", "numpy-label",
        "numpy-ranks", "float-count", "float-qubit", "str-qubit", "list-qubit",
        "float-exponent", "float-label", "float-ranks"])
def test_integers_enter_the_api_as_operator_index_takes_them(monkeypatch, values, accepted):
    values = dict(values)
    ranks = values.pop("ranks", 2)
    expected = run_circuit(_integers_circuit(), ranks=2)
    _, dense = oracle_run(_integers_circuit())

    def no_plan(*args, **kwargs):
        raise AssertionError("the run was planned")

    if not accepted:
        monkeypatch.setattr(svsim.engine, "plan_run", no_plan)
        with pytest.raises(ValueError, match="must be an integer"):
            run_circuit(_integers_circuit(**values), ranks=ranks)
        return
    result = run_circuit(_integers_circuit(**values), ranks=ranks)
    assert [s.data.tobytes() for s in result.states] == [
        s.data.tobytes() for s in expected.states]
    assert result.report_in_program_labels() == expected.report_in_program_labels()
    assert oracle_run(_integers_circuit(**values))[1] == dense


def _api_circuit(*gates):
    return Circuit(3, (g.h(0), g.h(2), *gates, g.cnot(0, 2), g.measure_all()))


@pytest.mark.parametrize("given, expected", [
    (lambda: (_api_circuit(), {"tier_config": TierConfig(np.int64(32), np.int64(16))}),
     lambda: (_api_circuit(), {"tier_config": TierConfig(32, 16)})),
    (lambda: (_api_circuit(), {"mode": "fp32"}),
     lambda: (_api_circuit(), {"mode": PrecisionMode.FP32})),
    (lambda: (_api_circuit(g.Gate("U2", (1,), matrix=[[0, 1], [1, 0]])), {}),
     lambda: (_api_circuit(g.u2(1, g.X_MATRIX)), {})),
    (lambda: (_api_circuit(), {"tier_config": TierConfig(64.0, 16)}),
     "fast_capacity_bytes must be an integer"),
    (lambda: (_api_circuit(), {"tier_config": TierConfig(256.0, 16.0)}), "must be an integer"),
    (lambda: (_api_circuit(), {"tier_config": TierConfig(256, 16, 2.5)}),
     "lookahead_window must be an integer"),
    (lambda: (_api_circuit(), {"mode": "fp16"}), "not a valid PrecisionMode"),
    (lambda: (_api_circuit(g.Gate("FOO", (1,))), {}), "unknown gate kind 'FOO'"),
], ids=["numpy-tier", "mode-string", "list-matrix", "float-tier-capacity", "float-tier",
        "float-lookahead", "unknown-mode", "unknown-kind"])
def test_api_input_is_taken_or_refused_before_the_run_is_planned(monkeypatch, given, expected):
    if callable(expected):
        result, reference = (run_circuit(c, ranks=2, **kwargs) for c, kwargs in (given(), expected()))
        assert [s.data.tobytes() for s in result.states] == [
            s.data.tobytes() for s in reference.states]
        assert [l.snapshot() for l in result.ledgers] == [l.snapshot() for l in reference.ledgers]
        # JSON tells an integer from a float that equals it
        ours, theirs = (dataclasses.replace(build_report(r), wall_time_seconds=0.0).to_json()
                        for r in (result, reference))
        assert ours == theirs
        return

    def no_plan(*args, **kwargs):
        raise AssertionError("the run was planned")

    monkeypatch.setattr(svsim.engine, "plan_run", no_plan)
    with pytest.raises(ValueError, match=expected):
        circuit, kwargs = given()
        run_circuit(circuit, ranks=2, **kwargs)


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
                sends.append((nbytes, payload.nbytes))
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
    transport.send(0, 1, np.zeros(2, dtype=np.uint16), 4)
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
        run_circuit(circuit, ranks=4, transport_factory=factory)
    assert sum(len(t.sends) for t in transports) == 0


@pytest.mark.parametrize("case", ["layout", "tier", "memory"])
def test_planning_errors_raise_before_any_state_exists(monkeypatch, case):
    def no_state(*args, **kwargs):
        raise AssertionError("a LocalState was allocated")

    monkeypatch.setattr(LocalState, "zero_state", classmethod(no_state))
    kwargs = {"ranks": 4}
    if case == "layout":
        circuit = Circuit(3, (g.h(2), g.cnot(0, 2)))
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
    peak = plan_run(build_benchmark(12), partition(12, 1), mode).peak_bytes
    assert memory_bytes(12, mode) < 16384 < peak
    with pytest.raises(ValueError, match="the machine has 16384 B"):
        run_circuit(build_benchmark(12), mode=mode)
    with pytest.raises(SystemExit) as exit_info:
        main(["--builder", "benchmark:12", "--mode", "be"])
    assert exit_info.value.code == 2
    assert "the machine has 16384 B" in capsys.readouterr().err


def test_fp64_benchmark_28_on_one_rank_fits_a_7_gib_machine(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    # 4 GiB of amplitudes and measurement's 2 GiB workspace, planned before
    # any amplitude is allocated
    circuit = build_benchmark(28)
    plan = plan_run(circuit, partition(28, 1), PrecisionMode.FP64)
    assert 6 << 30 < plan.peak_bytes < (6 << 30) + (1 << 20)
    machine = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 7 << 18}
    monkeypatch.setattr(os, "sysconf", machine.__getitem__)
    monkeypatch.setattr(LocalState, "zero_state", classmethod(admitted))
    with pytest.raises(Admitted):
        run_circuit(circuit)


def haar_gates_circuit(rng, n):
    """64 Haar U2 and 8 Haar U4 gates: byte-mode code tuples rarely repeat."""
    gates = [g.u2(int(rng.integers(n)), haar_unitary(rng, 2)) for _ in range(64)]
    gates += [g.u4(q, (q + 5) % n, haar_unitary(rng, 4)) for q in range(8)]
    return Circuit(n, tuple(gates) + (g.measure_all(),))


def fresh_pairs_circuit(rng, n):
    """40 Haar U4 gates on pairs no earlier gate used, then a buffered CPHASE.

    Each U4 leaves the most cached view shapes a gate can, and the CPHASE
    takes numpy's buffers on top of them: the run's per-gate term is pinned.
    """
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    picks = rng.choice(len(pairs), 40, replace=False)
    gates = [g.u4(*pairs[i], haar_unitary(rng, 4)) for i in picks]
    return Circuit(n, tuple(gates) + (g.cphase(1, 5, 3),))


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_traced_peak_stays_under_the_planned_bound(rng, mode):
    # at small slices what a rank holds besides its amplitudes dominates; on
    # one rank, what a run holds per gate does
    for n, ranks in ((16, 1), (16, 4), (14, 64), (12, 256)):
        circuits = [random_circuit(rng, n, 12)]
        if mode is PrecisionMode.BYTE and ranks == 64:
            circuits.append(haar_gates_circuit(rng, n))
        if mode is not PrecisionMode.BYTE and ranks == 1:
            circuits.append(fresh_pairs_circuit(rng, n))
        if mode is not PrecisionMode.BYTE and n == 16:
            # an adder whose diagonal runs fuse, through the plan's workspace
            adder = build_adder(8, [200, 111])[0]
            assert plan_run(adder, partition(n, ranks), mode).fused
            circuits.append(adder)
        for circuit in circuits:
            # a run's cached view shapes are part of what it holds
            svsim.kernels._split.cache_clear()
            svsim.kernels.row_components.cache_clear()
            tracemalloc.start()
            try:
                run_circuit(circuit, ranks=ranks, mode=mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= plan_run(circuit, partition(n, ranks), mode).peak_bytes, (n, ranks)


def test_a_drained_mailbox_is_forgotten(rng):
    transports = []

    def factory(n, ledgers):
        transports.append(Transport(n, ledgers))
        return transports[-1]

    result = run_circuit(random_circuit(rng, 12, 12), ranks=256, transport_factory=factory)
    assert result.total_messages > 0
    assert transports[0]._mailboxes == {}


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_a_diagonal_gate_makes_one_kernel_call_per_visited_rank(monkeypatch, mode):
    import svsim.engine
    calls = []

    def counting(psi, bits, factor):
        calls.append(psi.size)
        svsim.kernels.apply_diagonal(psi, bits, factor)

    monkeypatch.setattr(svsim.engine, "apply_diagonal", counting)
    monkeypatch.setattr(svsim.engine, "LOCAL_BLOCK", 8)
    # 8 local qubits on 4 ranks: qubits 8 and 9 are rank bits
    diagonal = [(g.cphase(0, 2, 2), 4), (g.z(9), 2), (g.phase(8, 3), 2),
                (g.cphase(9, 8, 1), 1), (g.cphase(3, 9, 4), 2)]
    for gate, visited in diagonal:
        calls.clear()
        run_circuit(Circuit(10, (g.h(0), g.h(9), gate)), ranks=4, mode=mode)
        assert calls == [1 << 8] * visited, gate


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


@given(seed=st.integers(0, 2**32 - 1), ranks=st.sampled_from([1, 2, 4, 8]),
       mode=st.sampled_from(list(PrecisionMode)), tiered=st.booleans(),
       measured=st.integers(0, 2))
def test_every_rank_counts_the_planned_ledger(seed, ranks, mode, tiered, measured):
    rng = np.random.default_rng(seed)
    n = 6
    gates = list(random_circuit(rng, n, 12, measured=False).gates)
    for _ in range(measured):
        gates.insert(int(rng.integers(len(gates) + 1)), g.measure_all())
    circuit = Circuit(n, tuple(gates))
    layout = partition(n, ranks)
    state_bytes = layout.local_size * mode.bytes_per_element
    tier = None
    if tiered:
        # eight chunks, none of them resident in a fast tier of four
        tier = TierConfig(state_bytes // 2, state_bytes // 8, int(rng.integers(1, 8)))
    plan = plan_run(circuit, layout, mode, tier)
    result = run_circuit(circuit, ranks=ranks, mode=mode, tier_config=tier,
                         rank_order_seed=seed)
    for ledger in result.ledgers:
        assert ledger.snapshot() == plan.ledger.snapshot()
    if tiered:
        (account,) = result.tier_accounts
        assert account.high_water_bytes == plan.tier.high_water_bytes
        assert plan.ledger.tier_bytes_moved > 0


@pytest.mark.parametrize("ranks, mode, staged", [
    (1024, PrecisionMode.FP64, (4083968437649408, 3803492)),
    (16384, PrecisionMode.BYTE, (14967961026560, 13940)),
])
def test_a_paper_scale_plan_counts_staging_in_little_memory(ranks, mode, staged):
    # the 50-qubit adder with a 64 GiB fast tier and 1 GiB chunks per rank;
    # the counts are those of a replay that visited every chunk group
    circuit, _ = build_adder(25, [21346502, 12207929])
    tracemalloc.start()
    try:
        plan = plan_run(circuit, partition(50, ranks), mode, TierConfig(1 << 36, 1 << 30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert (plan.ledger.tier_bytes_moved, plan.ledger.tier_transfer_count) == staged
    assert plan.tier.high_water_bytes == 66571993088


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(PrecisionMode)))
def test_stored_state_is_bit_identical_across_ranks_order_and_tiering(seed, mode):
    """Neither rank count, visiting order nor tiering changes a stored bit.

    Every mode's stored array and byte mode's codebook, compared bytewise on
    1, 2, 4 and 8 ranks, in natural and seeded order, untiered and tiered.
    The circuit also holds runs of diagonal gates on local and rank qubits,
    which the fp modes fuse; there the state and report match the oracle.
    """
    rng = np.random.default_rng(seed)
    n = 8
    gates = list(random_circuit(rng, n, 24, measured=False).gates)
    for _ in range(2):
        at = int(rng.integers(len(gates) + 1))
        gates[at:at] = diagonal_run(rng, n, int(rng.integers(3, 8)))
    circuit = Circuit(n, tuple(gates) + (g.measure_all(),))
    outcomes = {}
    for ranks in (1, 2, 4, 8):
        local_bytes = (1 << (n - ranks.bit_length() + 1)) * mode.bytes_per_element
        for tier in (None, TierConfig(local_bytes // 2, local_bytes // 8)):
            for order in (None, seed):
                result = run_circuit(circuit, ranks=ranks, mode=mode, tier_config=tier,
                                     rank_order_seed=order)
                book = result.codebook
                outcomes[ranks, tier is not None, order] = (
                    b"".join(state.data.tobytes() for state in result.states),
                    None if book is None else (book.dump(), book.units.tobytes()))
                if (ranks, tier, order) == (1, None, None):
                    first = result
    reference = outcomes[1, False, None]
    assert [key for key, outcome in outcomes.items() if outcome != reference] == []
    if mode is not PrecisionMode.BYTE:
        dense, expected = oracle_run(circuit)
        tolerance = 1e-5 if mode is PrecisionMode.FP32 else 1e-12
        assert np.max(np.abs(first.gathered_state() - dense.psi)) < tolerance
        assert first.report.max_difference(expected) < tolerance


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 6),
       mode=st.sampled_from(list(PrecisionMode)))
def test_stored_state_is_bit_identical_down_to_one_local_qubit(seed, n, mode):
    """Diagonal gates on all of a rank's local qubits scale one-element views.

    With one or two local qubits, a single diagonal gate often reads every
    local bit as one, so its view holds one element; it must round as it
    does on one rank, where the view is longer.
    """
    rng = np.random.default_rng(seed)
    gates = [g.h(q) for q in range(n)]
    for _ in range(24):
        q, other = (int(q) for q in rng.choice(n, 2, replace=False))
        k = int(rng.integers(1, 7)) * (1 if rng.integers(2) else -1)
        gates.append([g.u2(q, haar_unitary(rng, 2)), g.h(q), g.cphase(q, other, k),
                      g.phase(q, k), g.z(q)][rng.integers(5)])
    circuit = Circuit(n, tuple(gates) + (g.measure_all(),))
    outcomes = {}
    for ranks in (1, 2, 4, 8, 16)[:n]:
        result = run_circuit(circuit, ranks=ranks, mode=mode, rank_order_seed=seed)
        book = result.codebook
        outcomes[ranks] = (b"".join(state.data.tobytes() for state in result.states),
                           None if book is None else (book.dump(), book.units.tobytes()))
    assert [ranks for ranks, outcome in outcomes.items() if outcome != outcomes[1]] == []


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_the_workspace_starts_on_a_cache_line(mode):
    # a large array starts where the heap places it; the arrays held between
    # runs move that place
    held = []
    for n, ranks in ((12, 1), (16, 4), (18, 1)):
        for size in range(1, 5):
            held.append(np.empty(size * 1000 + 1, dtype=np.complex128))
            engine = _Engine(build_benchmark(n), partition(n, ranks), mode, None, None)
            assert engine.work.ctypes.data % CACHE_LINE == 0
            assert engine.work.size == engine.plan.work_elements
            del engine


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_a_result_keeps_no_workspace_or_outbox(rng, mode):
    # a pairwise and a quad exchange, local gates and a measured rank qubit
    n, ranks = 14, 4
    circuit = Circuit(n, (g.h(0), g.h(13), g.u4(12, 13, haar_unitary(rng, 4)),
                          g.u4(1, 7, haar_unitary(rng, 4)), g.measure_all()))
    storage = memory_bytes(n, mode)
    run_circuit(circuit, ranks=ranks, mode=mode)  # fills the view cache
    held = []
    tracemalloc.start()
    try:
        for _ in range(2):
            result = run_circuit(circuit, ranks=ranks, mode=mode)
            held.append(tracemalloc.get_traced_memory()[0])
            del result
    finally:
        tracemalloc.stop()
    # the outbox alone holds 3/4 of the storage
    assert max(held) < storage + storage // 8


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_payloads_are_copies_from_one_outbox_of_one_exchange(rng, mode):
    payloads = []

    class Keeping(Transport):
        def send(self, src, dst, payload, nbytes):
            payloads.append(payload)
            super().send(src, dst, payload, nbytes)

    n, ranks = 10, 8
    circuit = Circuit(n, (g.h(9), g.u4(8, 9, haar_unitary(rng, 4)), g.cnot(7, 3),
                          g.u4(0, 8, haar_unitary(rng, 4)), g.measure_all()))
    result = run_circuit(circuit, ranks=ranks, mode=mode, transport_factory=Keeping)
    assert len(payloads) == result.total_messages
    assert not any(np.shares_memory(p, s.data) for p in payloads for s in result.states)
    outboxes = {id(p.base): p.base for p in payloads}
    assert len(outboxes) == 1
    # the largest exchange queues 3/4 of the state: the quad gates'
    assert [box.nbytes for box in outboxes.values()] == [memory_bytes(n, mode) * 3 // 4]
