import numpy as np
import pytest
from hypothesis import settings

from svsim import Circuit, gates as g
from svsim.transport import Transport

# property tests draw the same examples on every run and stay within tier-1 time
settings.register_profile("svsim", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.load_profile("svsim")


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng: np.random.Generator, n_qubits: int, depth: int,
                   measured: bool = True) -> Circuit:
    """Generic random circuit over the full gate set."""
    kinds = ["H", "X", "Y", "Z", "PHASE", "CPHASE", "CNOT", "U2", "U4"]
    gate_list = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        q1 = int(rng.integers(n_qubits))
        q2 = int((q1 + 1 + rng.integers(n_qubits - 1)) % n_qubits)
        k = int(rng.integers(1, 5))
        if kind == "H":
            gate_list.append(g.h(q1))
        elif kind == "X":
            gate_list.append(g.x(q1))
        elif kind == "Y":
            gate_list.append(g.y(q1))
        elif kind == "Z":
            gate_list.append(g.z(q1))
        elif kind == "PHASE":
            gate_list.append(g.phase(q1, k if rng.integers(2) else -k))
        elif kind == "CPHASE":
            gate_list.append(g.cphase(q1, q2, k))
        elif kind == "CNOT":
            gate_list.append(g.cnot(q1, q2))
        elif kind == "U2":
            gate_list.append(g.u2(q1, haar_unitary(rng, 2)))
        else:
            gate_list.append(g.u4(q1, q2, haar_unitary(rng, 4)))
    if measured:
        gate_list.append(g.measure_all())
    return Circuit(n_qubits, tuple(gate_list))


def diagonal_run(rng: np.random.Generator, n_qubits: int, length: int) -> list:
    """``length`` Z, PHASE and CPHASE gates on three qubits, which repeat.

    Exponents take both signs, up to 9.  In half the runs every gate acts on
    the first of the three, which they then share.
    """
    pool = [int(q) for q in rng.choice(n_qubits, 3, replace=False)]
    shared = bool(rng.integers(2))
    gate_list = []
    for _ in range(length):
        a, b = pool[0], int(rng.choice(pool[1:]))
        if not shared and rng.integers(2):
            a, b = b, a
        k = int(rng.integers(1, 10)) * (1 if rng.integers(2) else -1)
        kind = rng.integers(3)
        gate_list.append(g.z(a) if kind == 0 else g.phase(a, k) if kind == 1
                         else g.cphase(a, b, k))
    return gate_list


def exact_class_circuit(rng: np.random.Generator, n_qubits: int, depth: int,
                        measured: bool = True) -> Circuit:
    """Random circuit from the byte-exact family: H, X, CNOT, Z, pi phases."""
    kinds = ["H", "X", "CNOT", "Z", "PHASE", "CPHASE"]
    gate_list = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        q1 = int(rng.integers(n_qubits))
        q2 = int((q1 + 1 + rng.integers(n_qubits - 1)) % n_qubits)
        if kind == "H":
            gate_list.append(g.h(q1))
        elif kind == "X":
            gate_list.append(g.x(q1))
        elif kind == "CNOT":
            gate_list.append(g.cnot(q1, q2))
        elif kind == "Z":
            gate_list.append(g.z(q1))
        elif kind == "PHASE":
            gate_list.append(g.phase(q1, 1))
        else:
            gate_list.append(g.cphase(q1, q2, 1))
    if measured:
        gate_list.append(g.measure_all())
    return Circuit(n_qubits, tuple(gate_list))


class RecordingTransport(Transport):
    """Transport that remembers every (src, dst, nbytes) send."""

    def __init__(self, n_ranks, ledgers):
        super().__init__(n_ranks, ledgers)
        self.sends = []

    def send(self, src, dst, payload, nbytes):
        self.sends.append((src, dst, nbytes))
        super().send(src, dst, payload, nbytes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
