import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import (Circuit, ParseError, build_adder, gates as g, oracle_run,
                   parse_circuit, serialize_circuit)
from svsim.circuit import validate_circuit

from conftest import haar_unitary, random_circuit


def test_parse_minimal_program():
    circuit = parse_circuit("qubits 2\nH 0\nM\n")
    assert circuit.n_qubits == 2
    assert [gate.kind for gate in circuit.gates] == ["H", "M"]
    assert circuit.gates[0].qubits == (0,)


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ParseError, match="line 2.*out of range"):
        parse_circuit("qubits 2\nH 9\n")


def test_parse_rejects_unknown_mnemonic():
    with pytest.raises(ParseError, match="line 3.*unknown mnemonic"):
        parse_circuit("qubits 2\nH 0\nFROB 1\n")


def test_parse_rejects_malformed_number():
    with pytest.raises(ParseError, match="line 2.*malformed"):
        parse_circuit("qubits 2\nPHASE 0 xyz\n")


def test_parse_requires_header_first():
    with pytest.raises(ParseError, match="line 1"):
        parse_circuit("H 0\n")


def test_parser_never_raises_bare_exceptions():
    bad_programs = ["", "qubits 0", "qubits 2\nCPHASE 0 0 1", "qubits 2\nU2 0 1 2",
                    "qubits 2\nM 0", "qubits 2\nRELABEL 0 0"]
    for text in bad_programs:
        with pytest.raises(ParseError):
            parse_circuit(text)


def test_comments_and_blank_lines_ignored():
    circuit = parse_circuit("# header\nqubits 2\n\nH 0  # flip to plus\n")
    assert len(circuit.gates) == 1


def test_hex_float_numbers_accepted():
    h = (0.5 ** 0.5)
    text = (f"qubits 1\nU2 0 {h.hex()} 0.0 {h.hex()} 0.0 "
            f"{h.hex()} 0.0 {(-h).hex()} 0.0\n")
    circuit = parse_circuit(text)
    assert np.allclose(circuit.gates[0].matrix, g.H_MATRIX)


def test_two_bit_adder_circuit_parses_to_eleven_gates():
    # the adder body is 2 X + 3 transform + 3 accumulation + 3 inverse gates
    circuit, _ = build_adder(2, [1, 2])
    body = Circuit(circuit.n_qubits, circuit.gates[:-1])
    assert len(body.gates) == 11
    reparsed = parse_circuit(serialize_circuit(body))
    assert len(reparsed.gates) == 11
    kinds = [gate.kind for gate in reparsed.gates]
    assert kinds.count("X") == 2
    assert kinds.count("H") == 4
    assert kinds.count("CPHASE") == 5


def test_round_trip_preserves_random_circuits(rng):
    for trial in range(10):
        circuit = random_circuit(rng, int(rng.integers(2, 7)), 12)
        text = serialize_circuit(circuit)
        reparsed = parse_circuit(text)
        assert serialize_circuit(reparsed) == text
        assert reparsed.n_qubits == circuit.n_qubits
        for a, b in zip(reparsed.gates, circuit.gates):
            assert a.kind == b.kind and a.qubits == b.qubits and a.k == b.k
            if a.matrix is not None:
                assert np.array_equal(a.matrix, b.matrix)


@st.composite
def circuits(draw):
    """Circuits of every gate kind with any label permutation."""
    n = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(
        ["H", "X", "Y", "Z", "PHASE", "CPHASE", "CNOT", "U2", "U4", "M"]), max_size=14))
    gate_list = []
    for kind in kinds:
        q1, q2 = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-3000, 3000).filter(bool))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        gate_list.append({
            "H": lambda: g.h(q1), "X": lambda: g.x(q1), "Y": lambda: g.y(q1),
            "Z": lambda: g.z(q1), "PHASE": lambda: g.phase(q1, k),
            "CPHASE": lambda: g.cphase(q1, q2, k), "CNOT": lambda: g.cnot(q1, q2),
            "U2": lambda: g.u2(q1, haar_unitary(rng, 2)),
            "U4": lambda: g.u4(q1, q2, haar_unitary(rng, 4)),
            "M": g.measure_all}[kind]())
    return Circuit(n, tuple(gate_list), tuple(draw(st.permutations(range(n)))))


@given(circuit=circuits())
def test_parse_inverts_serialize(circuit):
    text = serialize_circuit(circuit)
    assert ("RELABEL" in text) == (circuit.label_permutation != tuple(range(circuit.n_qubits)))
    back = parse_circuit(text)
    assert back.n_qubits == circuit.n_qubits
    assert back.label_permutation == circuit.label_permutation
    assert len(back.gates) == len(circuit.gates)
    for a, b in zip(back.gates, circuit.gates):
        assert (a.kind, a.qubits, a.k) == (b.kind, b.qubits, b.k)
        assert (a.matrix is None) == (b.matrix is None)
        if a.matrix is not None:
            assert a.matrix.tobytes() == b.matrix.tobytes()


def test_serialization_is_deterministic(rng):
    circuit = random_circuit(rng, 5, 15)
    assert serialize_circuit(circuit) == serialize_circuit(circuit)


def test_relabel_line_renames_following_gates():
    circuit = parse_circuit("qubits 3\nRELABEL 2 1 0\nH 0\nM\n")
    assert circuit.gates[0].qubits == (2,)
    assert circuit.label_permutation == (2, 1, 0)


def test_relabelled_circuit_round_trips():
    circuit = parse_circuit("qubits 3\nRELABEL 1 2 0\nH 0\nCNOT 1 2\nM\n")
    text = serialize_circuit(circuit)
    reparsed = parse_circuit(text)
    assert reparsed.label_permutation == circuit.label_permutation
    assert [gate.qubits for gate in reparsed.gates] == [
        gate.qubits for gate in circuit.gates]


def test_relabel_reports_match_unrelabelled_run():
    plain = parse_circuit("qubits 3\nH 0\nX 2\nM\n")
    moved = parse_circuit("qubits 3\nRELABEL 2 1 0\nH 0\nX 2\nM\n")
    _, expected = oracle_run(plain)
    _, raw = oracle_run(moved)
    assert raw.relabelled(moved.label_permutation).max_difference(expected) < 1e-12


def test_validate_circuit_checks_permutation():
    with pytest.raises(ValueError, match="bijection"):
        validate_circuit(Circuit(2, (g.h(0),), (0, 0)))


def test_validate_circuit_names_offending_gate():
    with pytest.raises(ValueError, match=r"gate 1 \(U2\)"):
        bad = np.array([[1, 0], [0, 2]], dtype=complex)
        validate_circuit(Circuit(2, (g.h(0), g.Gate("U2", (1,), matrix=bad))))


def test_a_circuit_outside_the_qubit_bound_is_refused_before_it_is_built():
    for n in (0, 65, 30_000_000):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"qubit count must be in \[1, 64\]"):
                Circuit(n, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, n
