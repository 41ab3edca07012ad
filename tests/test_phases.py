"""Fused runs of diagonal gates: one pass over exact integer phase indices.

In the fp modes a run of consecutive Z, PHASE and CPHASE gates that
``engine.fused_runs`` picks is one ``kernels.apply_phases`` pass per rank:
each amplitude is multiplied once, by the root of unity at its phase index.
"""
import tracemalloc

import numpy as np
import pytest

import svsim.engine
import svsim.kernels
from svsim import Circuit, PrecisionMode, build_adder, gates as g, oracle_run, run_circuit
from svsim.engine import _Engine, fused_runs, plan_run
from svsim.kernels import INDEX_BITS, apply_diagonal, apply_phases, phase_work_elements
from svsim.layout import partition, ufunc_buffer_bytes

from conftest import haar_unitary

FP_MODES = [PrecisionMode.FP64, PrecisionMode.FP32]


def hadamards(n):
    return tuple(g.h(q) for q in range(n))


def stored(result) -> bytes:
    return b"".join(state.data.tobytes() for state in result.states)


def test_the_adder_fuses_its_accumulate_run_and_its_longer_ladders():
    circuit, _ = build_adder(10, [123, 456])
    runs = fused_runs(circuit.gates)
    lengths = [len(run) for run in runs]
    # ladders of 1 and 2 gates stay gate by gate
    assert lengths == [3, 4, 5, 6, 7, 8, 9, 55, 9, 8, 7, 6, 5, 4, 3]
    assert all(g.is_diagonal(gate) for run in runs for gate in circuit.gates[run.start:run.stop])


def test_the_paper_scale_adder_fuses_every_run_of_three_or_more_whole():
    circuit, _ = build_adder(25, [21346502, 12207929])
    runs = fused_runs(circuit.gates)
    top = max(g.phase_turn(gate)[1] for gate in circuit.gates if g.is_diagonal(gate))
    assert top == 25 <= INDEX_BITS
    assert (len(runs), sum(len(run) for run in runs), max(len(run) for run in runs)) == (
        45, 919, 325)
    # no fused run borders another diagonal gate
    for run in runs:
        for i in (run.start - 1, run.stop):
            assert i < 0 or i >= len(circuit.gates) or not g.is_diagonal(circuit.gates[i])


@pytest.mark.parametrize("mode", FP_MODES)
def test_a_run_of_quarter_turns_is_exact(mode):
    # the run turns each amplitude by a multiple of a quarter, which moves and
    # negates its parts exactly
    n = 4
    run = (g.z(0), g.phase(1, 1), g.phase(2, -2), g.phase(3, 2), g.phase(0, -1),
           g.cphase(1, 2, 2), g.cphase(3, 0, -2), g.z(2))
    circuit = Circuit(n, hadamards(n) + run)
    assert fused_runs(circuit.gates) == (range(n, n + len(run)),)
    quarter = np.zeros(1 << n, dtype=np.int64)
    for i in range(1 << n):
        for gate in run:
            if all(i >> q & 1 for q in gate.qubits):
                turn, bits = g.phase_turn(gate)
                quarter[i] += turn << (2 - bits)
    before = run_circuit(Circuit(n, hadamards(n)), mode=mode).gathered_state()
    expected = before * np.array([1, 1j, -1, -1j])[quarter % 4]
    for ranks in (1, 2, 4):
        state = run_circuit(circuit, ranks=ranks, mode=mode).gathered_state()
        assert np.array_equal(state, expected), ranks


@pytest.mark.parametrize("top", [1, 2, 3, 12, 13, 25, INDEX_BITS])
def test_the_root_tables_are_exact_at_the_quarter_turns(top):
    # bits 0 and 1 add a quarter and a half turn; every other index is off them
    psi = np.ones(1 << 4, dtype=np.complex128)
    quarter = 1 << top >> 2 if top >= 2 else 0
    terms = [((0,), quarter), ((1,), 1 << top >> 1), ((2, 3), 1)]
    apply_phases(psi, (), terms, top, 1 << 15)
    on_quarters = psi.reshape(4, 4)[0] if top >= 2 else psi.reshape(4, 4)[0, ::2]
    assert list(on_quarters) == ([1, 1j, -1, -1j] if top >= 2 else [1, -1])
    reference = np.ones_like(psi)
    for bits, weight in terms:
        apply_diagonal(reference, bits, np.exp(2j * np.pi * weight / (1 << top)))
    assert np.max(np.abs(psi - reference)) < 1e-15


@pytest.mark.parametrize("top", [5, 12, 13, 25])
def test_a_phase_pass_matches_the_gates_one_by_one_and_ignores_chunking(rng, top):
    n = 10
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    terms = []
    for _ in range(30):
        bits = tuple(int(b) for b in rng.choice([1, 2, 4, 5, 6, 7, 9], rng.integers(0, 3),
                                                replace=False))
        terms.append((bits, int(rng.integers(1 << top))))
    reference = psi.copy()
    for bits, weight in terms:
        apply_diagonal(reference, (3,) + bits, np.exp(2j * np.pi * weight / (1 << top)))
    outcomes = set()
    for block in (1, 4, 32, 1 << 15):
        out = psi.copy()
        apply_phases(out, (3,), terms, top, block)
        assert np.max(np.abs(out - reference)) < 1e-13
        outcomes.add(out.tobytes())
    # the chunk width changes no bit
    assert len(outcomes) == 1


def test_a_too_wide_exponent_ends_a_run_and_runs_alone():
    run = (g.z(0), g.z(1), g.z(2))
    at_width = Circuit(3, run + (g.cphase(0, 1, INDEX_BITS),) + run)
    assert fused_runs(at_width.gates) == (range(0, 7),)
    too_wide = Circuit(3, run + (g.cphase(0, 1, INDEX_BITS + 1),) + run)
    assert fused_runs(too_wide.gates) == (range(0, 3), range(4, 7))


def test_measurement_ends_a_run():
    run = (g.z(0), g.z(1), g.z(2))
    circuit = Circuit(3, run + (g.measure_all(),) + run)
    assert fused_runs(circuit.gates) == (range(0, 3), range(4, 7))


@pytest.mark.parametrize("mode", FP_MODES)
def test_an_underflowing_angle_runs_alone_and_changes_nothing(mode):
    n = 5
    before = (g.z(0), g.phase(1, 3), g.cphase(2, 4, -5))
    after = (g.phase(0, 3), g.cphase(1, 3, 4), g.z(4))
    circuit = Circuit(n, hadamards(n) + before + (g.cphase(0, 1, 2000),) + after)
    # the angle of 2000 underflows to 0, so its factor is 1 exactly
    assert g.diagonal_factor(g.cphase(0, 1, 2000)) == 1
    assert fused_runs(circuit.gates) == (range(5, 8), range(9, 12))
    dense, _ = oracle_run(circuit)
    tolerance = 1e-5 if mode is PrecisionMode.FP32 else 1e-12
    for ranks in (1, 4):
        result = run_circuit(circuit, ranks=ranks, mode=mode)
        assert np.max(np.abs(result.gathered_state() - dense.psi)) < tolerance
        # up to the wide gate, which multiplies by one
        up_to = [run_circuit(Circuit(n, circuit.gates[:stop]), ranks=ranks, mode=mode)
                 for stop in (8, 9)]
        assert np.array_equal(*(r.gathered_state() for r in up_to))


@pytest.mark.parametrize("mode", FP_MODES)
def test_a_run_can_lie_wholly_on_rank_bits(mode):
    # 6 qubits on 4 ranks: qubits 4 and 5 are rank bits, so each rank's whole
    # slice takes one constant phase
    n = 6
    run = (g.cphase(4, 5, 3), g.z(5), g.phase(4, -2), g.cphase(5, 4, -6))
    circuit = Circuit(n, hadamards(n) + run + (g.measure_all(),))
    assert fused_runs(circuit.gates) == (range(n, n + len(run)),)
    dense, report = oracle_run(circuit)
    tolerance = 1e-5 if mode is PrecisionMode.FP32 else 1e-12
    outcomes = set()
    for ranks in (1, 2, 4):
        result = run_circuit(circuit, ranks=ranks, mode=mode, rank_order_seed=ranks)
        assert np.max(np.abs(result.gathered_state() - dense.psi)) < tolerance
        assert result.report.max_difference(report) < tolerance
        assert result.gate_operations == len(circuit.gates)
        outcomes.add(stored(result))
    assert len(outcomes) == 1


@pytest.mark.parametrize("mode", FP_MODES)
def test_a_run_on_one_amplitude_per_rank_rounds_as_on_more(rng, mode):
    # on 16 ranks every slice has two local qubits, both shared by the run, so
    # each rank multiplies one amplitude; numpy rounds a one-element product
    # written over its own input differently, which the pass avoids
    n = 6
    state = tuple(g.u2(q, haar_unitary(rng, 2)) for q in range(n)) + tuple(
        g.u4(q, (q + 1) % n, haar_unitary(rng, 4)) for q in range(n))
    run = (g.cphase(0, 1, 3), g.cphase(1, 0, -5), g.cphase(0, 1, 7), g.cphase(1, 0, 2))
    circuit = Circuit(n, state + run)
    assert fused_runs(circuit.gates) == (range(len(state), len(circuit.gates)),)
    outcomes = {stored(run_circuit(circuit, ranks=ranks, mode=mode)) for ranks in (1, 4, 16)}
    assert len(outcomes) == 1


@pytest.mark.parametrize("mode", FP_MODES)
def test_a_fused_run_makes_one_pass_per_visited_rank_and_no_diagonal_call(monkeypatch, mode):
    diagonal, passes = [], []

    def counting_diagonal(psi, bits, factor):
        diagonal.append(bits)
        svsim.kernels.apply_diagonal(psi, bits, factor)

    def counting_pass(psi, *args):
        passes.append(psi.size)
        svsim.kernels.apply_phases(psi, *args)

    monkeypatch.setattr(svsim.engine, "apply_diagonal", counting_diagonal)
    monkeypatch.setattr(svsim.engine, "apply_phases", counting_pass)
    # 8 local qubits on 4 ranks: qubits 8 and 9 are rank bits.  Every gate of
    # the run shares qubit 9, so only the two ranks where it reads one are visited
    run = (g.cphase(9, 0, 3), g.cphase(9, 5, -4), g.cphase(2, 9, 2), g.phase(9, 7),
           g.cphase(8, 9, 1))
    circuit = Circuit(10, (g.h(0), g.h(9), g.h(8)) + run)
    result = run_circuit(circuit, ranks=4, mode=mode)
    assert diagonal == []
    assert passes == [1 << 8] * 2
    assert all(ledger.gate_operations == len(circuit.gates) for ledger in result.ledgers)
    # byte mode keeps one gate, and one codebook barrier, at a time
    passes.clear()
    run_circuit(circuit, ranks=4, mode=PrecisionMode.BYTE)
    assert passes == []


@pytest.mark.parametrize("mode", FP_MODES)
@pytest.mark.parametrize("top", [10, 25])
def test_the_plan_sizes_the_phase_pass_in_the_workspace(mode, top):
    # 2**16-amplitude slices on 4 ranks, a fused run and nothing else
    n, ranks = 18, 4
    run = (g.cphase(0, 17, top), g.cphase(3, 9, -3), g.cphase(16, 12, 5), g.z(1))
    circuit = Circuit(n, run)
    layout = partition(n, ranks)
    plan = plan_run(circuit, layout, mode)
    assert plan.fused == (range(0, len(run)),)
    assert plan.work_elements == phase_work_elements(svsim.engine.LOCAL_BLOCK, top)
    assert plan_run(circuit, layout, PrecisionMode.BYTE).fused == ()
    engine = _Engine(circuit, layout, mode, None, None)
    engine._apply_phases(run)  # fills the caches
    tracemalloc.start()
    try:
        engine._apply_phases(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy's buffers for a complex64 multiply, and small tables
    assert peak < ufunc_buffer_bytes() + engine.states[0].data.nbytes // 16, peak
