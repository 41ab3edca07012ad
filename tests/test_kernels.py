import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import gates as g
from svsim import kernels
from svsim.oracle import DenseState

from conftest import haar_unitary, random_circuit


def random_state(rng, n):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return (psi / np.linalg.norm(psi)).astype(np.complex128)


def test_h_on_q0_from_ground_state():
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = 1.0
    kernels.apply_single(psi, 0, g.H_MATRIX)
    s = 1 / np.sqrt(2)
    assert np.allclose(psi, [s, s, 0, 0])


def test_x_on_q1_swaps_stride_two():
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = 1.0
    kernels.apply_single(psi, 1, g.X_MATRIX)
    assert np.allclose(psi, [0, 0, 1, 0])


def test_pair_indices_match_brute_force_enumeration():
    # stride-2**q pairing: low members are exactly the indices with bit q clear
    for n, q in ((6, 0), (6, 3), (8, 5)):
        idx = kernels.pair_indices(n, q)
        brute = np.array([i for i in range(1 << n) if not (i >> q) & 1])
        assert np.array_equal(idx, brute)


def test_pair_indices_cardinality_large_case():
    # n=20, q=13: pairs are (i, i + 8192), one per index with bit 13 clear
    idx = kernels.pair_indices(20, 13)
    assert len(idx) == 1 << 19
    assert np.all((idx >> 13) & 1 == 0)
    sample = idx[::4097]
    assert np.all((sample + 8192) >> 13 & 1 == 1)


def test_apply_single_agrees_with_gather_scatter(rng):
    # same update written through explicit pair index arithmetic
    psi = random_state(rng, 8)
    u = haar_unitary(rng, 2)
    expected = psi.copy()
    i0 = kernels.pair_indices(8, 5)
    a0, a1 = expected[i0].copy(), expected[i0 + 32].copy()
    expected[i0] = u[0, 0] * a0 + u[0, 1] * a1
    expected[i0 + 32] = u[1, 0] * a0 + u[1, 1] * a1
    kernels.apply_single(psi, 5, u)
    assert np.array_equal(psi, expected)


def test_pair_update_count():
    # one single-qubit gate performs exactly 2**(n-1) pair updates
    for n in (4, 7, 10):
        assert len(kernels.pair_indices(n, n // 2)) == 1 << (n - 1)


def test_pair_sets_disjoint_and_cover():
    n, q = 8, 3
    i0 = kernels.pair_indices(n, q)
    touched = np.concatenate([i0, i0 + (1 << q)])
    assert len(np.unique(touched)) == 1 << n


def test_apply_two_matches_dense_oracle(rng):
    for qa, qb in ((0, 1), (4, 2), (7, 3)):
        psi = random_state(rng, 8)
        u = haar_unitary(rng, 4)
        dense = DenseState(8)
        dense.psi = psi.copy()
        dense.apply(g.u4(qa, qb, u))
        kernels.apply_two(psi, qa, qb, u)
        assert np.max(np.abs(psi - dense.psi)) < 1e-12


def test_quad_update_count(rng):
    # 2**(n-2) quadruples: verify via the cover of a two-qubit permutation
    n = 6
    psi = np.arange(1 << n, dtype=np.complex128)
    kernels.apply_two(psi, 1, 4, np.eye(4, dtype=complex))
    assert np.array_equal(psi, np.arange(1 << n))


def test_cnot_quadruple_cases():
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = 1.0
    kernels.apply_two(psi, 0, 1, g.CNOT_MATRIX)
    assert np.allclose(psi, [1, 0, 0, 0])
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = 1.0
    kernels.apply_two(psi, 0, 1, g.CNOT_MATRIX)
    assert np.allclose(psi, [0, 0, 0, 1])


def test_diagonal_cphase_examples():
    psi = np.full(4, 0.5, dtype=np.complex128)
    kernels.apply_diagonal(psi, (0, 1), np.exp(1j * np.pi))
    assert np.allclose(psi, [0.5, 0.5, 0.5, -0.5])

    psi = np.full(4, 0.5, dtype=np.complex128)
    kernels.apply_diagonal(psi, (0, 1), 1.0)
    assert np.allclose(psi, 0.5)


def test_cphase_quarter_turn_uniform_three_qubits():
    psi = np.full(8, 1 / np.sqrt(8), dtype=np.complex128)
    dense = DenseState(3)
    dense.psi = psi.copy()
    dense.apply(g.cphase(0, 1, 2))
    kernels.apply_diagonal(psi, (0, 1), np.exp(1j * np.pi / 2))
    assert np.max(np.abs(psi - dense.psi)) < 1e-15
    assert abs(psi[3] - 1j / np.sqrt(8)) < 1e-15
    assert abs(psi[7] - 1j / np.sqrt(8)) < 1e-15


def test_norm_preserved_over_random_circuits(rng):
    # unitary-only sequences keep the squared norm at 1
    for trial in range(20):
        n = int(rng.integers(2, 7))
        circuit = random_circuit(rng, n, 15, measured=False)
        psi = np.zeros(1 << n, dtype=np.complex128)
        psi[0] = 1.0
        for gate in circuit.gates:
            if g.is_diagonal(gate):
                local_bits = tuple(gate.qubits)
                kernels.apply_diagonal(psi, local_bits, g.diagonal_factor(gate))
            elif len(gate.qubits) == 1:
                kernels.apply_single(psi, gate.qubits[0], g.unitary_matrix(gate))
            else:
                kernels.apply_two(psi, gate.qubits[0], gate.qubits[1],
                                  g.unitary_matrix(gate))
        assert abs(kernels.norm_squared(psi) - 1.0) < 1e-12


def test_kernels_match_oracle_on_random_circuits(rng):
    for trial in range(15):
        n = int(rng.integers(2, 8))
        circuit = random_circuit(rng, n, 12, measured=False)
        psi = np.zeros(1 << n, dtype=np.complex128)
        psi[0] = 1.0
        dense = DenseState(n)
        for gate in circuit.gates:
            dense.apply(gate)
            if g.is_diagonal(gate):
                kernels.apply_diagonal(psi, tuple(gate.qubits), g.diagonal_factor(gate))
            elif len(gate.qubits) == 1:
                kernels.apply_single(psi, gate.qubits[0], g.unitary_matrix(gate))
            else:
                kernels.apply_two(psi, gate.qubits[0], gate.qubits[1],
                                  g.unitary_matrix(gate))
        assert np.max(np.abs(psi - dense.psi)) < 1e-12


def test_fp32_storage_keeps_double_arithmetic(rng):
    # the complex64 kernel result equals the complex128 result rounded once
    psi32 = random_state(rng, 6).astype(np.complex64)
    ref = psi32.astype(np.complex128)
    u = haar_unitary(rng, 2)
    kernels.apply_single(ref, 2, u)
    kernels.apply_single(psi32, 2, u)
    assert np.array_equal(psi32, ref.astype(np.complex64))


def test_single_qubit_out_of_range_is_index_error():
    psi = np.zeros(8, dtype=np.complex128)
    with pytest.raises(IndexError):
        kernels.apply_single(psi, 3, g.H_MATRIX)


@given(st.data())
def test_bit_view_reads_and_writes_exactly_the_fixed_bit_indices(data):
    n = data.draw(st.integers(1, 8), label="n")
    bits = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="bits")
    values = data.draw(st.none() | st.lists(st.integers(0, 1), min_size=len(bits),
                                            max_size=len(bits)), label="values")
    step = data.draw(st.integers(1, 3), label="step")
    fixed = list(zip(bits, values if values is not None else [1] * len(bits)))
    index = [i for i in range(1 << n) if all((i >> b) & 1 == v for b, v in fixed)]
    # a strided 1-D input: the view must still write into the caller's buffer
    base = np.zeros(step << n, dtype=np.complex128)
    a = base[::step]
    a[:] = np.arange(1 << n) + 0.5j
    view = kernels.bit_view(a, tuple(bits), values)
    assert np.array_equal(view.ravel(), a[index])
    expected = a.copy()
    expected[index] = -1 - np.arange(len(index))
    view[...] = (-1 - np.arange(len(index))).reshape(view.shape)
    assert np.array_equal(a, expected)
    assert not base.reshape(-1, step)[:, 1:].any()


def test_bit_view_rejects_bits_outside_the_array_and_non_1d_arrays():
    psi = np.zeros(8, dtype=np.complex128)
    for bits in ((3,), (0, 3), (-1,), (1, 1)):
        with pytest.raises(IndexError):
            kernels.bit_view(psi, bits)
    with pytest.raises(ValueError):
        kernels.bit_view(psi.reshape(2, 4), (0,))
    # a diagonal on a bit past the slice is the caller's error, not a no-op
    with pytest.raises(IndexError):
        kernels.apply_diagonal(psi, (0, 3), -1.0)


def test_fp32_diagonal_is_the_double_result_rounded_once(rng):
    psi32 = random_state(rng, 6).astype(np.complex64)
    factor = np.exp(0.3j)
    for bits in ((), (2,), (4, 1)):
        ref = psi32.astype(np.complex128)
        out = psi32.copy()
        kernels.apply_diagonal(ref, bits, factor)
        kernels.apply_diagonal(out, bits, factor)
        assert np.array_equal(out, ref.astype(np.complex64))
