from svsim import Circuit, PrecisionMode, gates as g, oracle_run, run_circuit


def test_all_ones_state_reads_half_half_one():
    n = 4
    circuit = Circuit(n, tuple(g.x(q) for q in range(n)) + (g.measure_all(),))
    _, report = oracle_run(circuit)
    for q in range(n):
        assert abs(report.qx[q] - 0.50) < 1e-12
        assert abs(report.qy[q] - 0.50) < 1e-12
        assert abs(report.qz[q] - 1.00) < 1e-12


def test_ground_state_reads_half_half_zero():
    circuit = Circuit(3, (g.measure_all(),))
    _, report = oracle_run(circuit)
    for q in range(3):
        assert report.qx[q] == 0.5
        assert report.qy[q] == 0.5
        assert report.qz[q] == 0.0


def test_plus_state_pins_x_convention():
    circuit = Circuit(2, (g.h(0), g.measure_all()))
    _, report = oracle_run(circuit)
    assert abs(report.qx[0] - 0.0) < 1e-12
    assert abs(report.qy[0] - 0.5) < 1e-12
    assert abs(report.qz[0] - 0.5) < 1e-12


def test_dense_and_distributed_conventions_agree(rng):
    from conftest import random_circuit
    circuit = random_circuit(rng, 6, 12)
    _, expected = oracle_run(circuit)
    for ranks in (1, 2, 4):
        result = run_circuit(circuit, ranks=ranks)
        assert result.report.max_difference(expected) < 1e-12
        assert result.report.norm_deviation < 1e-12


def test_measurement_traffic_one_exchange_per_high_qubit():
    n, ranks = 6, 8
    circuit = Circuit(n, (g.measure_all(),))
    result = run_circuit(circuit, ranks=ranks)
    local = 1 << 3
    for ledger in result.ledgers:
        # qubits 3, 4, 5 sit in the rank bits: one half-exchange each
        assert ledger.inter_rank_messages == 3
        assert ledger.inter_rank_bytes_sent == 3 * (local // 2) * 16


def test_report_invariant_under_tier_and_mode(rng):
    from conftest import exact_class_circuit
    from svsim.tier import TierConfig
    circuit = exact_class_circuit(rng, 8, 16)
    _, expected = oracle_run(circuit)
    state_bytes = (1 << 7) * 16
    configs = [
        dict(ranks=2),
        dict(ranks=2, tier_config=TierConfig(state_bytes // 4, state_bytes // 32)),
        dict(ranks=2, mode=PrecisionMode.BYTE),
    ]
    for kwargs in configs:
        result = run_circuit(circuit, **kwargs)
        assert result.report.max_difference(expected) < 1e-12


def test_unnormalized_state_is_flagged_not_fatal():
    from svsim.layout import PartitionLayout, TrafficLedger
    from svsim.measure import measure_all
    from svsim.state import LocalState
    from svsim.transport import Transport

    state = LocalState.zero_state(3, PrecisionMode.FP64, True)
    state.psi *= 2.0
    ledgers = [TrafficLedger()]
    report = measure_all([state], PartitionLayout(3, 3), Transport(1, ledgers))
    assert abs(report.norm_deviation - 3.0) < 1e-12


def test_relabelled_report_restores_program_order():
    from svsim.measure import ExpectationReport
    raw = ExpectationReport((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9))
    view = raw.relabelled((2, 0, 1))
    assert view.qz == (0.9, 0.7, 0.8)


def test_expectations_stay_in_unit_interval(rng):
    from conftest import random_circuit
    for trial in range(10):
        circuit = random_circuit(rng, 5, 20)
        _, report = oracle_run(circuit)
        for seq in (report.qx, report.qy, report.qz):
            assert all(-1e-9 <= v <= 1 + 1e-9 for v in seq)
