"""Gates on rows in pieces: the same bits as stacking, and no slice-sized copy."""
import functools
import tracemalloc

import numpy as np
import pytest

import svsim.engine
from svsim import Circuit, gates as g
from svsim.engine import _Engine, run_circuit
from svsim.exchange import group_exchange, row_qubits
from svsim.kernels import apply_permutation, apply_single, apply_two, bit_view
from svsim.state import PrecisionMode

from conftest import haar_unitary, random_circuit


def stacked_rows(self, gate, plan):
    """A matrix or permutation gate as rows stacked into one buffer, computed, stored back.

    Fp rows stack as complex128 and store back rounding; byte mode stacks its
    codes, and its codec gates read them from the stacked buffer.  A local
    gate's one row is a copy of the slice.
    """
    n_local = self.layout.local_qubits
    qubits = row_qubits(gate.qubits, n_local, plan.masks)
    dtype = np.complex128 if self.codebook is None else np.uint16
    for rank, members, own, rows in group_exchange(
            self.states, self.transport, plan.masks, self.rank_order, gate.qubits):
        stacked = np.array([bit_view(*row).reshape(-1) for row in rows], dtype=dtype)
        if self._on_codec(gate):
            self._apply_codes(rank, gate, [(row, (), ()) for row in stacked],
                              [(member, *own) for member in members], qubits,
                              n_local - len(plan.masks))
            continue
        psi = stacked.reshape(-1)
        move = g.permutation(gate, qubits)
        if move is not None:
            apply_permutation(psi, *move)
        elif len(qubits) == 1:
            apply_single(psi, qubits[0], g.unitary_matrix(gate))
        else:
            apply_two(psi, *qubits, g.unitary_matrix(gate))
        for member, row in zip(members, stacked):
            self.states[member].store(row, own)
    self._commit()


def layout_circuit(rng, n, ranks):
    """Every way a matrix or permutation gate meets the layout on ``ranks``.

    Pairwise single- and two-qubit gates (the local qubit the top local bit,
    which moves the part bit below it, or a low one), quad gates, X, Y and
    CNOT with the flipped bit or the condition on a rank bit, and local
    gates on high local qubits; then a random circuit.
    """
    top = n - ranks.bit_length()
    high = list(range(top + 1, n))
    gates = [g.h(q) for q in range(n)]
    for q in range(n):
        gates += [g.u2(q, haar_unitary(rng, 2)), g.x(q), g.y(q)]
    for qa in [0, top - 1, top] + high:
        for qb in [0, top - 1, top] + high:
            if qa != qb:
                gates += [g.u4(qa, qb, haar_unitary(rng, 4)), g.cnot(qa, qb), g.h(qb)]
    gates += random_circuit(rng, n, 40, measured=False).gates
    return Circuit(n, tuple(gates) + (g.measure_all(),))


def outcome(result):
    book = result.codebook
    return ([state.data.tobytes() for state in result.states],
            None if book is None else book.dump())


@pytest.mark.parametrize("mode", list(PrecisionMode))
@pytest.mark.parametrize("ranks", [1, 2, 4, 8])
def test_rows_in_pieces_match_the_stacked_arithmetic(monkeypatch, mode, ranks):
    circuit = layout_circuit(np.random.default_rng(ranks), 9, ranks)
    monkeypatch.setattr(svsim.engine, "LOCAL_BLOCK", 1 << 30)
    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "_apply_rows", stacked_rows)
        reference = run_circuit(circuit, ranks=ranks, mode=mode, rank_order_seed=5)
    expected = outcome(reference)
    # blocks of 4 and 16 amplitudes split every gate above them into
    # halves or quarters, and 4 leaves one-element pieces of quad rows
    for block in (4, 16):
        monkeypatch.setattr(svsim.engine, "LOCAL_BLOCK", block)
        result = run_circuit(circuit, ranks=ranks, mode=mode, rank_order_seed=5)
        assert outcome(result) == expected, block
        assert result.report == reference.report
        assert [l.snapshot() for l in result.ledgers] == [
            l.snapshot() for l in reference.ledgers]


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_the_gate_path_holds_nothing_of_a_slice_size(monkeypatch, mode):
    # the largest amplitudes any matrix or permutation kernel call covers
    covered = []
    for name in ("apply_single", "apply_two", "apply_permutation"):
        kernel = getattr(svsim.engine, name)
        monkeypatch.setattr(svsim.engine, name,
                            lambda psi, *a, _k=kernel, **kw: (covered.append(psi.size),
                                                              _k(psi, *a, **kw)))
    # rows of a call that are not one C-contiguous run, or differ in length
    ragged = []

    def rows_call(rows, targets, *a, _k, **kw):
        covered.append(sum(r.size for r in rows))
        every = list(rows) + list(targets)
        if (any(r.ndim != 1 or not r.flags.c_contiguous for r in every)
                or len({r.size for r in every}) != 1):
            ragged.append([r.shape for r in every])
        _k(rows, targets, *a, **kw)

    for name in ("apply_rows", "move_rows"):
        monkeypatch.setattr(svsim.engine, name,
                            functools.partial(rows_call, _k=getattr(svsim.engine, name)))
    peaks = []
    execute = _Engine._execute

    def traced(self, gate, plan, ordinal):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        execute(self, gate, plan, ordinal)
        peaks.append((gate.kind, plan.kind, tracemalloc.get_traced_memory()[1] - before))

    monkeypatch.setattr(_Engine, "_execute", traced)
    rng = np.random.default_rng(3)
    # 2**16-amplitude slices on 4 ranks: qubits 16 and 17 are rank bits
    circuit = Circuit(18, (
        g.h(0), g.h(17), g.u4(3, 16, haar_unitary(rng, 4)), g.u4(17, 15, haar_unitary(rng, 4)),
        g.u4(16, 17, haar_unitary(rng, 4)), g.cnot(3, 16), g.cnot(17, 2), g.y(16),
        g.h(15), g.u4(14, 15, haar_unitary(rng, 4)), g.x(14), g.u2(15, haar_unitary(rng, 2))))
    slice_bytes = (1 << 16) * mode.bytes_per_element
    tracemalloc.start()
    try:
        run_circuit(circuit, ranks=4, mode=mode)
    finally:
        tracemalloc.stop()
    assert len(peaks) == len(circuit.gates)
    assert [(kind, exchange) for kind, exchange, peak in peaks
            if peak >= slice_bytes // 16] == []
    assert 0 < max(covered) <= svsim.engine.LOCAL_BLOCK
    assert ragged == []
