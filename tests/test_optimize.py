import itertools

import pytest

from svsim import (Circuit, PartitionLayout, build_adder, build_benchmark,
                   gates as g, optimize_labels, oracle_run,
                   predicted_exchange_bytes, relabel, run_circuit)

from conftest import random_circuit


def test_identity_relabel_is_identity():
    circuit, _ = build_adder(3, [2, 5])
    same = relabel(circuit, tuple(range(6)))
    assert [gate.qubits for gate in same.gates] == [gate.qubits for gate in circuit.gates]
    assert same.label_permutation == circuit.label_permutation


def test_reversal_moves_h0_to_top():
    circuit = Circuit(4, (g.h(0),))
    flipped = relabel(circuit, (3, 2, 1, 0))
    assert flipped.gates[0].qubits == (3,)


def test_relabel_requires_bijection():
    with pytest.raises(ValueError, match="bijection"):
        relabel(Circuit(3, (g.h(0),)), (0, 0, 2))


def test_relabel_soundness_exhaustive_small(rng):
    circuit = random_circuit(rng, 4, 10)
    _, expected = oracle_run(circuit)
    for perm in itertools.permutations(range(4)):
        moved = relabel(circuit, perm)
        _, raw = oracle_run(moved)
        assert raw.relabelled(moved.label_permutation).max_difference(expected) < 1e-12


def test_relabel_soundness_random_larger(rng):
    for trial in range(10):
        n = int(rng.integers(5, 11))
        circuit = random_circuit(rng, n, 15)
        perm = tuple(rng.permutation(n).tolist())
        moved = relabel(circuit, perm)
        _, expected = oracle_run(circuit)
        _, raw = oracle_run(moved)
        assert raw.relabelled(moved.label_permutation).max_difference(expected) < 1e-12


def test_double_relabel_composes():
    circuit = Circuit(3, (g.h(0), g.x(1)))
    once = relabel(circuit, (1, 2, 0))
    twice = relabel(once, (2, 0, 1))
    _, expected = oracle_run(Circuit(3, circuit.gates + (g.measure_all(),)))
    _, raw = oracle_run(Circuit(3, twice.gates + (g.measure_all(),)))
    assert raw.relabelled(twice.label_permutation).max_difference(expected) < 1e-12


def test_optimizer_identity_when_no_high_gates():
    circuit = Circuit(6, (g.h(0), g.cnot(1, 2), g.measure_all()))
    layout = PartitionLayout(6, 4)
    assert optimize_labels(circuit, layout) == tuple(range(6))


def test_optimizer_never_predicts_more_than_identity(rng):
    for trial in range(8):
        n = int(rng.integers(5, 9))
        circuit = random_circuit(rng, n, 14)
        layout = PartitionLayout(n, n - 2)
        perm = optimize_labels(circuit, layout)
        assert predicted_exchange_bytes(relabel(circuit, perm), layout) <= \
            predicted_exchange_bytes(circuit, layout)


def test_optimizer_benchmark_never_worse():
    circuit = build_benchmark(10)
    layout = PartitionLayout(10, 8)
    perm = optimize_labels(circuit, layout)
    assert predicted_exchange_bytes(relabel(circuit, perm), layout) <= \
        predicted_exchange_bytes(circuit, layout)


def test_optimizer_reduces_measured_traffic_for_source_high_adder():
    # move the source register onto the rank bits, then let the optimizer
    # pull the exchange-carrying qubits back down
    width = 3
    circuit, _ = build_adder(width, [2, 5])
    swap = tuple(list(range(width, 2 * width)) + list(range(width)))
    moved = relabel(circuit, swap)
    layout = PartitionLayout(2 * width, 2 * width - 2)

    perm = optimize_labels(moved, layout)
    identity_run = run_circuit(moved, ranks=4)
    optimized_run = run_circuit(relabel(moved, perm), ranks=4)
    assert optimized_run.total_bytes_sent < identity_run.total_bytes_sent
    assert optimized_run.report_in_program_labels().max_difference(
        identity_run.report_in_program_labels()) < 1e-12


def test_optimizer_is_deterministic(rng):
    circuit = random_circuit(rng, 8, 20)
    layout = PartitionLayout(8, 6)
    assert optimize_labels(circuit, layout) == optimize_labels(circuit, layout)
