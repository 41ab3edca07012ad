"""Circuit builders: the Hadamard stress sequence and Fourier-transform adders.

Integer registers store the most significant bit of the value in the lowest
qubit of the register: for an M-bit register starting at ``base``, qubit
``base + t`` holds value bit ``M - 1 - t``.  This matches the swap-free
Fourier transform used below, whose output is naturally bit-reversed.
"""
from __future__ import annotations

from . import gates as g
from .circuit import MAX_QUBITS, Circuit, RegisterMap


def build_benchmark(n_qubits: int) -> Circuit:
    """Hadamard sequence balancing compute against exchange traffic.

    Application order: H on every qubit from n-1 down to 0, then H on
    n-5, n-6, n-1, 0, n-2, 1, then the all-qubit measurement.
    """
    if not 8 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"benchmark circuit needs 8 to {MAX_QUBITS} qubits")
    order = list(range(n_qubits - 1, -1, -1))
    order += [n_qubits - 5, n_qubits - 6, n_qubits - 1, 0, n_qubits - 2, 1]
    gate_list = [g.h(q) for q in order] + [g.measure_all()]
    return Circuit(n_qubits, tuple(gate_list))


def encode_integer(value: int, base: int, width: int) -> list[g.Gate]:
    """X gates writing ``value`` into a register, most significant bit first."""
    return [
        g.x(base + t)
        for t in range(width)
        if (value >> (width - 1 - t)) & 1
    ]


def fourier_gates(base: int, width: int) -> list[g.Gate]:
    """Swap-free transform on one register.

    Maps the register value b (most significant bit at ``base``) onto phases:
    basis amplitude X picks up exp(2i*pi*b*X / 2**width), where X is read with
    its least significant bit at ``base``.

    Gates are emitted column by column (each qubit's controlled rotations,
    then its Hadamard), which is the same circuit as the row-major textbook
    drawing but introduces rotation angles coarsest-first.  That ordering
    keeps byte-encoded runs accurate: the phase table fills as a uniform
    grid instead of saturating on fine data-dependent values.
    """
    out: list[g.Gate] = []
    for u in range(width):
        for t in range(u - 1, -1, -1):
            out.append(g.cphase(base + u, base + t, u - t + 1))
        out.append(g.h(base + u))
    return out


def inverse_fourier_gates(base: int, width: int) -> list[g.Gate]:
    out: list[g.Gate] = []
    for u in range(width - 1, -1, -1):
        out.append(g.h(base + u))
        for t in range(u):
            out.append(g.cphase(base + u, base + t, -(u - t + 1)))
    return out


def accumulate_gates(src_base: int, dst_base: int, width: int) -> list[g.Gate]:
    """Controlled phases adding a source register into a transformed one.

    Source qubit src_base + ta carries value bit of weight 2**(width-1-ta);
    destination qubit dst_base + t carries phase-space bit of weight 2**t.
    Rotations whose combined weight is a multiple of 2**width are identities
    and are omitted, leaving width*(width+1)/2 gates, coarsest angles first
    within each source column.
    """
    out: list[g.Gate] = []
    for ta in range(width):
        for t in range(ta, -1, -1):
            out.append(g.cphase(src_base + ta, dst_base + t, ta - t + 1))
    return out


def build_adder(width: int, addends: list[int]) -> tuple[Circuit, RegisterMap]:
    """Modulo-2**width adder over two or three registers of ``width`` qubits.

    Each addend is X-encoded into its own register; the last register is
    transformed, accumulates every other register through controlled phases,
    and is transformed back, so it ends up holding the modular sum.  The
    circuit finishes with the all-qubit measurement.
    """
    if width < 1:
        raise ValueError("register width must be positive")
    if len(addends) not in (2, 3):
        raise ValueError("adder takes two or three addends")
    if len(addends) * width > MAX_QUBITS:
        raise ValueError(f"{len(addends)} registers of {width} qubits exceed "
                         f"{MAX_QUBITS} qubits")
    for a in addends:
        if not 0 <= a < (1 << width):
            raise ValueError(f"addend {a} does not fit in {width} bits")

    n_registers = len(addends)
    n_qubits = n_registers * width
    result_base = (n_registers - 1) * width

    gate_list: list[g.Gate] = []
    for i, a in enumerate(addends):
        gate_list += encode_integer(a, i * width, width)
    gate_list += fourier_gates(result_base, width)
    for i in range(n_registers - 1):
        gate_list += accumulate_gates(i * width, result_base, width)
    gate_list += inverse_fourier_gates(result_base, width)
    gate_list.append(g.measure_all())

    names = ["R1", "R2", "R3"][:n_registers]
    registers = tuple(
        (name, range(i * width, (i + 1) * width)) for i, name in enumerate(names))
    return Circuit(n_qubits, tuple(gate_list)), RegisterMap(registers)


def decode_register(bits: list[int], register: range) -> int:
    """Integer value of a measured register, most significant bit first."""
    value = 0
    for q in register:
        value = (value << 1) | bits[q]
    return value
