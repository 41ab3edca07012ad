"""Gate intermediate representation.

A gate is identified by a mnemonic kind, the qubit indices it acts on and,
depending on the kind, either a phase exponent ``k`` or an explicit unitary
matrix.  Phase-exponent gates rotate by ``2*pi / 2**k``; a negative ``k``
rotates the other way, which is what an inverse Fourier block needs.

Qubit convention: qubit ``q`` is bit ``q`` of the amplitude index, so the two
members of a single-qubit pair differ by ``2**q``.

X, Y and CNOT also have a permutation form (``permutation``): they only move
amplitudes, Y multiplying each moved one by -i or +i, so a kernel can run
them as exact data movement instead of 0/1 matrix arithmetic.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SQRT_HALF = math.sqrt(0.5)

H_MATRIX = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=np.complex128)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)

# Basis order for two-qubit matrices on (qa, qb): index = bit(qa) + 2 * bit(qb).
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]], dtype=np.complex128)

DIAGONAL_KINDS = frozenset({"Z", "PHASE", "CPHASE"})
SINGLE_QUBIT_KINDS = frozenset({"H", "X", "Y", "Z", "PHASE", "U2"})
TWO_QUBIT_KINDS = frozenset({"CNOT", "CPHASE", "U4"})
MATRIX_KINDS = frozenset({"U2", "U4"})


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    qubits: tuple[int, ...] = ()
    k: int = 0
    matrix: np.ndarray | None = None

    def __post_init__(self):
        # the engine indexes and hashes qubits, so they are ints from here on
        object.__setattr__(self, "qubits", tuple(as_index(q, "qubit index") for q in self.qubits))
        if self.matrix is not None:
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=np.complex128))


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def y(q: int) -> Gate:
    return Gate("Y", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def phase(q: int, k: int) -> Gate:
    return Gate("PHASE", (q,), k=k)


def cphase(control: int, target: int, k: int) -> Gate:
    return Gate("CPHASE", (control, target), k=k)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def u2(q: int, matrix: np.ndarray) -> Gate:
    return Gate("U2", (q,), matrix=matrix)


def u4(q1: int, q2: int, matrix: np.ndarray) -> Gate:
    return Gate("U4", (q1, q2), matrix=matrix)


class Permutation(NamedTuple):
    """A gate as data movement on the bits of the array it acts on.

    Where every ``conditions`` bit reads 1, the two amplitudes that differ
    only in bit ``flipped`` trade places.  With ``y`` the one that lands where
    ``flipped`` reads 0 is multiplied by -i and the other by +i, exactly.
    """
    conditions: tuple[int, ...]
    flipped: int
    y: bool = False


def measure_all() -> Gate:
    return Gate("M")


def as_index(value, what: str) -> int:
    """``value`` as an int, if ``operator.index`` takes it; ``ValueError`` if not.

    Numpy integers and bools pass; floats, strings and the rest do not.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None


def phase_angle(k: int) -> float:
    """Rotation angle for phase exponent k: sign(k) * 2*pi / 2**|k|."""
    k = as_index(k, "phase exponent")
    if k == 0:
        raise ValueError("phase exponent must be nonzero")
    # exact like the division by 2**|k|, but huge |k| underflows to 0.0
    # where 2**|k| would overflow a float
    return math.copysign(math.ldexp(2.0 * math.pi, -abs(k)), k)


def is_diagonal(gate: Gate) -> bool:
    return gate.kind in DIAGONAL_KINDS


def diagonal_factor(gate: Gate) -> complex:
    """Multiplier applied where all of the gate's qubits read 1."""
    if gate.kind == "Z":
        return -1.0 + 0.0j
    if gate.kind in ("PHASE", "CPHASE"):
        return complex(np.exp(1j * phase_angle(gate.k)))
    raise ValueError(f"not a diagonal gate: {gate.kind}")


def phase_turn(gate: Gate) -> tuple[int, int]:
    """A diagonal gate's factor as an exact part of a turn, ``(m, K)``: m / 2**K.

    Z is half a turn, ``(1, 1)``; PHASE and CPHASE of exponent k are
    ``(sign(k), |k|)``.  ``diagonal_factor`` is exp(2*pi*i * m / 2**K), rounded.
    """
    if gate.kind == "Z":
        return 1, 1
    if gate.kind in ("PHASE", "CPHASE"):
        return (1 if gate.k > 0 else -1), abs(gate.k)
    raise ValueError(f"not a diagonal gate: {gate.kind}")


def permutation(gate: Gate, bits=None) -> Permutation | None:
    """X, Y or CNOT as a ``Permutation``; None for every other kind.

    ``bits`` are the gate's qubits, in order, as bits of the array the
    permutation acts on; they default to the qubits themselves.  CNOT's
    control is its condition and its target the flipped bit.
    """
    bits = gate.qubits if bits is None else tuple(bits)
    if gate.kind in ("X", "Y"):
        return Permutation((), bits[0], gate.kind == "Y")
    if gate.kind == "CNOT":
        return Permutation((bits[0],), bits[1])
    return None


def unitary_matrix(gate: Gate) -> np.ndarray:
    """The 2x2 or 4x4 matrix of a non-diagonal gate.

    Two-qubit matrices are in the (qa, qb) basis: row/column index is
    bit(qa) + 2 * bit(qb) of the amplitude index.
    """
    if gate.kind == "H":
        return H_MATRIX
    if gate.kind == "X":
        return X_MATRIX
    if gate.kind == "Y":
        return Y_MATRIX
    if gate.kind == "CNOT":
        return CNOT_MATRIX
    if gate.kind in MATRIX_KINDS:
        return gate.matrix
    raise ValueError(f"gate {gate.kind} has no dense matrix form")


def dense_matrix(gate: Gate) -> np.ndarray:
    """Matrix form for any gate kind, diagonal kinds included."""
    if gate.kind in ("Z", "PHASE"):
        return np.diag([1.0, diagonal_factor(gate)]).astype(np.complex128)
    if gate.kind == "CPHASE":
        return np.diag([1.0, 1.0, 1.0, diagonal_factor(gate)]).astype(np.complex128)
    return unitary_matrix(gate)


def unitarity_residual(matrix: np.ndarray) -> float:
    m = np.asarray(matrix, dtype=np.complex128)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def validate_gate(gate: Gate, n_qubits: int) -> None:
    """Structural checks run once at circuit load, not per application."""
    if gate.kind == "M":
        if gate.qubits:
            raise ValueError("measurement takes no qubit arguments")
        return
    if gate.kind not in SINGLE_QUBIT_KINDS | TWO_QUBIT_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    if gate.kind in ("PHASE", "CPHASE"):
        phase_angle(gate.k)  # raises ValueError on a zero or non-integer exponent
    expected = 2 if gate.kind in TWO_QUBIT_KINDS else 1
    if len(gate.qubits) != expected:
        raise ValueError(f"{gate.kind} expects {expected} qubit(s), got {len(gate.qubits)}")
    if len(set(gate.qubits)) != len(gate.qubits):
        raise ValueError(f"{gate.kind} qubits must be distinct")
    for q in gate.qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
    if gate.kind in MATRIX_KINDS:
        dim = 2 if gate.kind == "U2" else 4
        if gate.matrix is None or gate.matrix.shape != (dim, dim):
            raise ValueError(f"{gate.kind} requires a {dim}x{dim} matrix")
        if not np.all(np.isfinite(gate.matrix)):
            raise ValueError(f"{gate.kind} matrix has non-finite entries")
        # no unitary has an entry above modulus 1; bounded entries also keep
        # the residual from overflowing to NaN, which no comparison rejects
        if np.max(np.abs(gate.matrix)) > 1 + 1e-12:
            raise ValueError(f"{gate.kind} matrix is not unitary (an entry exceeds modulus 1)")
        residual = unitarity_residual(gate.matrix)
        if not residual < 1e-12:
            raise ValueError(f"{gate.kind} matrix is not unitary (residual {residual:.2e})")
