import pytest

from svsim import build_adder, build_benchmark, decode_register, oracle_run
from svsim.builders import accumulate_gates, fourier_gates, inverse_fourier_gates


def test_benchmark_emits_literal_sequence():
    circuit = build_benchmark(12)
    kinds = [gate.kind for gate in circuit.gates]
    assert kinds == ["H"] * 18 + ["M"]
    order = [gate.qubits[0] for gate in circuit.gates[:-1]]
    assert order == list(range(11, -1, -1)) + [7, 6, 11, 0, 10, 1]


def test_benchmark_rejects_small_registers():
    with pytest.raises(ValueError):
        build_benchmark(7)


def test_builders_reject_more_than_64_qubits():
    assert build_benchmark(64).n_qubits == 64
    assert build_adder(32, [1, 2])[0].n_qubits == 64
    for build in (lambda: build_benchmark(65), lambda: build_benchmark(20000),
                  lambda: build_adder(33, [1, 2]), lambda: build_adder(22, [1, 2, 3])):
        with pytest.raises(ValueError, match="64"):
            build()


def test_benchmark_parity_determines_final_axes():
    # twice-hit qubits return to the ground state; once-hit ones sit along +x
    n = 12
    circuit = build_benchmark(n)
    _, report = oracle_run(circuit)
    twice = {n - 5, n - 6, n - 1, 0, n - 2, 1}
    for q in range(n):
        if q in twice:
            assert abs(report.qz[q] - 0.0) < 1e-12
            assert abs(report.qx[q] - 0.5) < 1e-12
        else:
            assert abs(report.qx[q] - 0.0) < 1e-12
            assert abs(report.qz[q] - 0.5) < 1e-12


def test_benchmark_gate_count_exposed():
    for n in (8, 12, 36):
        assert len(build_benchmark(n).gates) == n + 7


def test_fourier_block_gate_counts():
    for width in (1, 2, 5, 25):
        assert len(fourier_gates(0, width)) == width * (width + 1) // 2
        assert len(inverse_fourier_gates(0, width)) == width * (width + 1) // 2
        assert len(accumulate_gates(0, width, width)) == width * (width + 1) // 2


def test_two_bit_adder_outcome():
    circuit, registers = build_adder(2, [1, 2])
    _, report = oracle_run(circuit)
    assert [round(v) for v in report.qz] == [0, 1, 1, 1]
    assert registers["R1"] == range(0, 2)
    assert registers["R2"] == range(2, 4)


def test_adder_bit_order_most_significant_first():
    # encoding 1 into a 2-bit register flips the higher-index qubit
    circuit, _ = build_adder(2, [1, 0])
    x_targets = [gate.qubits[0] for gate in circuit.gates if gate.kind == "X"]
    assert x_targets == [1]


def test_gate_count_pin_25_bit_pair():
    circuit, _ = build_adder(25, [21346502, 12207929])
    assert len(circuit.gates) == 1001


def test_adder_random_pairs_modular(rng):
    for trial in range(50):
        width = int(rng.integers(1, 9))
        a = int(rng.integers(1 << width))
        b = int(rng.integers(1 << width))
        circuit, registers = build_adder(width, [a, b])
        _, report = oracle_run(circuit)
        bits = [round(v) for v in report.qz]
        assert decode_register(bits, registers["R2"]) == (a + b) % (1 << width)
        # source register comes through untouched
        assert decode_register(bits, registers["R1"]) == a


def test_adder_three_registers(rng):
    for trial in range(10):
        width = int(rng.integers(1, 5))
        vals = [int(rng.integers(1 << width)) for _ in range(3)]
        circuit, registers = build_adder(width, vals)
        assert registers.names() == ("R1", "R2", "R3")
        _, report = oracle_run(circuit)
        bits = [round(v) for v in report.qz]
        assert decode_register(bits, registers["R3"]) == sum(vals) % (1 << width)


def test_adder_all_ones_pattern():
    # complementary addends: every result-register z-expectation reads one
    from svsim import run_circuit
    for width in (3, 6, 11):
        a = (1 << width) - 1 - (0b1010101 & ((1 << width) - 1))
        b = (1 << width) - 1 - a
        circuit, registers = build_adder(width, [a, b])
        if circuit.n_qubits <= 20:
            _, report = oracle_run(circuit)
        else:
            report = run_circuit(circuit).report
        for q in registers["R2"]:
            assert abs(report.qz[q] - 1.0) < 1e-12


def test_adder_rejects_oversized_addend():
    with pytest.raises(ValueError, match="fit"):
        build_adder(3, [8, 1])
    with pytest.raises(ValueError):
        build_adder(3, [1])


def test_builders_are_deterministic():
    from svsim import serialize_circuit
    a, _ = build_adder(6, [17, 40])
    b, _ = build_adder(6, [17, 40])
    assert serialize_circuit(a) == serialize_circuit(b)
    assert serialize_circuit(build_benchmark(10)) == serialize_circuit(build_benchmark(10))
