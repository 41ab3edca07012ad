"""Circuit container and the line-oriented text format.

Format, one instruction per line, ``#`` starts a comment:

    qubits N            header, must come first
    H q | X q | Y q | Z q
    PHASE q k           rotation by 2*pi / 2**k (k may be negative)
    CPHASE c t k
    CNOT c t
    U2 q  re im re im re im re im          row-major 2x2
    U4 q1 q2  <16 complex entries as re im pairs>
    RELABEL p0 p1 ... p(N-1)
    M                   measure all qubits along all three axes

Numbers may be decimal or hex floats.  A RELABEL line renames qubits for the
instructions after it: a subsequent gate written on qubit q acts on p[q].
The circuit records the cumulative permutation so reports can be presented
in the labels the program was written in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates as g


# the most qubits a state may have: every amplitude index fits in 64 bits
MAX_QUBITS = 64


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[g.Gate, ...]
    label_permutation: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", g.as_index(self.n_qubits, "qubit count"))
        # before anything of the register's size is built
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
        labels = tuple(g.as_index(p, "qubit label") for p in self.label_permutation)
        object.__setattr__(self, "label_permutation", labels or tuple(range(self.n_qubits)))


@dataclass(frozen=True)
class RegisterMap:
    """Named registers as disjoint contiguous qubit ranges."""
    registers: tuple[tuple[str, range], ...]

    def __getitem__(self, name: str) -> range:
        for reg_name, qubits in self.registers:
            if reg_name == name:
                return qubits
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)


def validate_circuit(circuit: Circuit) -> None:
    perm = circuit.label_permutation
    if sorted(perm) != list(range(circuit.n_qubits)):
        raise ValueError("label permutation is not a bijection")
    for ordinal, gate in enumerate(circuit.gates):
        try:
            g.validate_gate(gate, circuit.n_qubits)
        except ValueError as exc:
            raise ValueError(f"gate {ordinal} ({gate.kind}): {exc}") from exc


def _parse_number(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        try:
            return float.fromhex(token)
        except ValueError:
            raise ParseError(line_no, f"malformed number {token!r}") from None


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise ParseError(line_no, f"malformed integer {token!r}") from None


def _parse_qubit(token: str, line_no: int, n_qubits: int) -> int:
    q = _parse_int(token, line_no)
    if not 0 <= q < n_qubits:
        raise ParseError(line_no, "qubit index out of range")
    return q


def _parse_matrix(tokens: list[str], dim: int, line_no: int) -> np.ndarray:
    need = 2 * dim * dim
    if len(tokens) != need:
        raise ParseError(line_no, f"expected {need} numbers for a {dim}x{dim} matrix")
    flat = [_parse_number(t, line_no) for t in tokens]
    values = np.array(flat[0::2]) + 1j * np.array(flat[1::2])
    return values.reshape(dim, dim)


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; failures carry the offending line number."""
    n_qubits = None
    gate_list: list[g.Gate] = []
    perm: list[int] | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op, args = tokens[0], tokens[1:]

        if n_qubits is None:
            if op != "qubits":
                raise ParseError(line_no, "first instruction must be 'qubits N'")
            if len(args) != 1:
                raise ParseError(line_no, "qubits takes one argument")
            n_qubits = _parse_int(args[0], line_no)
            if not 1 <= n_qubits <= MAX_QUBITS:
                raise ParseError(line_no, f"qubit count must be in [1, {MAX_QUBITS}]")
            perm = list(range(n_qubits))
            continue

        if op == "RELABEL":
            if len(args) != n_qubits:
                raise ParseError(line_no, f"RELABEL needs {n_qubits} entries")
            p = [_parse_qubit(t, line_no, n_qubits) for t in args]
            if sorted(p) != list(range(n_qubits)):
                raise ParseError(line_no, "RELABEL is not a permutation")
            perm = [perm[p[q]] for q in range(n_qubits)]
            continue

        def q(token: str) -> int:
            return perm[_parse_qubit(token, line_no, n_qubits)]

        try:
            if op == "H" and len(args) == 1:
                gate_list.append(g.h(q(args[0])))
            elif op == "X" and len(args) == 1:
                gate_list.append(g.x(q(args[0])))
            elif op == "Y" and len(args) == 1:
                gate_list.append(g.y(q(args[0])))
            elif op == "Z" and len(args) == 1:
                gate_list.append(g.z(q(args[0])))
            elif op == "PHASE" and len(args) == 2:
                gate_list.append(g.phase(q(args[0]), _parse_int(args[1], line_no)))
            elif op == "CPHASE" and len(args) == 3:
                gate_list.append(
                    g.cphase(q(args[0]), q(args[1]), _parse_int(args[2], line_no)))
            elif op == "CNOT" and len(args) == 2:
                gate_list.append(g.cnot(q(args[0]), q(args[1])))
            elif op == "U2" and len(args) == 9:
                gate_list.append(g.u2(q(args[0]), _parse_matrix(args[1:], 2, line_no)))
            elif op == "U4" and len(args) == 34:
                gate_list.append(
                    g.u4(q(args[0]), q(args[1]), _parse_matrix(args[2:], 4, line_no)))
            elif op == "M" and not args:
                gate_list.append(g.measure_all())
            elif op in ("H", "X", "Y", "Z", "PHASE", "CPHASE", "CNOT", "U2", "U4", "M"):
                raise ParseError(line_no, f"wrong argument count for {op}")
            else:
                raise ParseError(line_no, f"unknown mnemonic {op!r}")
            g.validate_gate(gate_list[-1], n_qubits)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc

    if n_qubits is None:
        raise ParseError(1, "empty circuit: missing 'qubits N' header")
    return Circuit(n_qubits, tuple(gate_list), tuple(perm))


def _fmt(value: float) -> str:
    return repr(float(value))


def serialize_circuit(circuit: Circuit) -> str:
    """Inverse of parse_circuit; identical circuits serialize identically."""
    lines = [f"qubits {circuit.n_qubits}"]
    perm = list(circuit.label_permutation)
    if perm != list(range(circuit.n_qubits)):
        lines.append("RELABEL " + " ".join(str(p) for p in perm))
        inverse = [0] * circuit.n_qubits
        for label, storage in enumerate(perm):
            inverse[storage] = label
    else:
        inverse = list(range(circuit.n_qubits))

    for gate in circuit.gates:
        qs = [str(inverse[q]) for q in gate.qubits]
        if gate.kind in ("H", "X", "Y", "Z"):
            lines.append(f"{gate.kind} {qs[0]}")
        elif gate.kind == "PHASE":
            lines.append(f"PHASE {qs[0]} {gate.k}")
        elif gate.kind == "CPHASE":
            lines.append(f"CPHASE {qs[0]} {qs[1]} {gate.k}")
        elif gate.kind == "CNOT":
            lines.append(f"CNOT {qs[0]} {qs[1]}")
        elif gate.kind in ("U2", "U4"):
            entries = " ".join(
                f"{_fmt(c.real)} {_fmt(c.imag)}" for c in gate.matrix.ravel())
            lines.append(f"{gate.kind} {' '.join(qs)} {entries}")
        elif gate.kind == "M":
            lines.append("M")
        else:
            raise ValueError(f"cannot serialize gate kind {gate.kind}")
    return "\n".join(lines) + "\n"
