"""Dense reference simulator: the standard everything else is tested against.

Deliberately naive: one contiguous complex128 array, gates applied through
generic tensor contraction, expectations by direct summation over explicit
index sets.  It shares no index arithmetic with the strided kernels or the
distributed machinery, which is the point.
"""
from __future__ import annotations

import numpy as np

from . import gates as g
from .circuit import Circuit, validate_circuit
from .measure import ExpectationReport

MAX_QUBITS = 20


class DenseState:
    def __init__(self, n_qubits: int):
        if n_qubits > MAX_QUBITS:
            raise ValueError(
                f"dense reference limited to {MAX_QUBITS} qubits, got {n_qubits}")
        self.n_qubits = n_qubits
        self.psi = np.zeros(1 << n_qubits, dtype=np.complex128)
        self.psi[0] = 1.0

    def apply(self, gate: g.Gate) -> None:
        matrix = g.dense_matrix(gate)
        k = len(gate.qubits)
        tens = self.psi.reshape((2,) * self.n_qubits)
        # axis of qubit q is n-1-q; matrix index is bit(qa) + 2*bit(qb),
        # so the contracted axes run over (qb, qa)
        axes_in = [self.n_qubits - 1 - q for q in reversed(gate.qubits)]
        op = matrix.reshape((2,) * (2 * k))
        out = np.tensordot(op, tens, axes=(list(range(k, 2 * k)), axes_in))
        self.psi = np.moveaxis(out, list(range(k)), axes_in).reshape(-1)


def dense_expectations(psi: np.ndarray, n_qubits: int) -> ExpectationReport:
    idx = np.arange(1 << n_qubits)
    prob = np.abs(psi) ** 2
    qx, qy, qz = [], [], []
    for q in range(n_qubits):
        bit = (idx >> q) & 1
        z = float(prob[bit == 1].sum())
        i0 = idx[bit == 0]
        s = complex(np.sum(psi[i0].conj() * psi[i0 + (1 << q)]))
        qx.append((1.0 - 2.0 * s.real) / 2.0)
        qy.append((1.0 - 2.0 * s.imag) / 2.0)
        qz.append(z)
    return ExpectationReport(tuple(qx), tuple(qy), tuple(qz),
                             norm_deviation=abs(float(prob.sum()) - 1.0))


def oracle_run(circuit: Circuit) -> tuple[DenseState, ExpectationReport | None]:
    """Run a circuit densely; the report comes from its last measurement."""
    validate_circuit(circuit)
    state = DenseState(circuit.n_qubits)
    report = None
    for gate in circuit.gates:
        if gate.kind == "M":
            report = dense_expectations(state.psi, circuit.n_qubits)
        else:
            state.apply(gate)
    return state, report
