import tracemalloc

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
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


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


def parent_expression(components, matrix):
    """Row r of ``matrix`` applied as m[r,0]*a0 + m[r,1]*a1 (+ ...), left to right.

    Products keep the matrix entry first and every operand is complex128:
    the arithmetic the kernels must reproduce bit for bit.
    """
    a = [c.astype(np.complex128) for c in components]
    rows = []
    for row in matrix:
        value = row[0] * a[0]
        for entry, x in zip(row[1:], a[1:]):
            value = value + entry * x
        rows.append(value)
    return rows


def component_indices(n, bits):
    """Index arrays of the 2**len(bits) components, in gate basis order."""
    i = np.arange(1 << n)
    base = i[np.all([(i >> b) & 1 == 0 for b in bits], axis=0)]
    return [base + sum(((c >> j) & 1) << b for j, b in enumerate(bits))
            for c in range(1 << len(bits))]


def signed_zero_state(seed, n, dtype):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    parts = psi.view(np.float64)
    zeros = rng.random(parts.size) < 0.25
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return psi.astype(dtype)


def drawn_matrix(data, dim):
    """A named gate matrix, or a Haar one.

    A 2x2 one may also be Haar with its first column one repeated entry, so
    that both rows share their first product, or with 0.0 and -0.0 there:
    equal under ``==``, their products differ in the sign of a zero.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    named = {2: [g.H_MATRIX, g.X_MATRIX], 4: [g.CNOT_MATRIX]}[dim]
    if dim == 2:
        repeated, signed = haar_unitary(rng, 2), haar_unitary(rng, 2)
        repeated[1, 0] = repeated[0, 0]
        signed[:, 0] = (0.0, -0.0)
        named += [repeated, signed]
    choice = data.draw(st.integers(0, len(named)), label="matrix")
    return named[choice] if choice < len(named) else haar_unitary(rng, dim)


def reference_update(psi, bits, matrix):
    """``psi`` after the gate, by ``parent_expression`` on explicit index arrays."""
    parts = component_indices(psi.size.bit_length() - 1, bits)
    expected = psi.copy()
    for index, value in zip(parts, parent_expression([psi[p] for p in parts], matrix)):
        expected[index] = value
    return expected


def apply_matrix(psi, bits, matrix, work=None):
    if len(bits) == 1:
        kernels.apply_single(psi, bits[0], matrix, work=work)
    else:
        kernels.apply_two(psi, bits[0], bits[1], matrix, work=work)


@given(st.data())
def test_matrix_kernels_keep_the_parent_arithmetic_bit_for_bit(data):
    dtype = data.draw(st.sampled_from([np.complex128, np.complex64]), label="dtype")
    k = data.draw(st.integers(1, 2), label="qubits")
    n = data.draw(st.integers(k, 7), label="n")
    matrix = drawn_matrix(data, 2 << (k - 1))
    drawn = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True),
                      label="bits")
    edges = [(0,), (n - 1,)] if k == 1 else [(0, n - 1), (n - 1, 0)]
    for bits in {tuple(drawn), *edges}:
        psi = signed_zero_state(data.draw(st.integers(0, 2**32 - 1)), n, dtype)
        expected = reference_update(psi, bits, matrix)
        apply_matrix(psi, bits, matrix)
        assert psi.tobytes() == expected.tobytes(), bits


@given(st.data())
def test_rows_into_other_targets_keep_the_parent_arithmetic_bit_for_bit(data):
    # two rows of 2**w taken as one array, the gate on the bit that selects the
    # row or on one of each row's; a row not updated in place has a target of
    # its own, and its source is a scratch copy
    dtype = data.draw(st.sampled_from([np.complex128, np.complex64]), label="dtype")
    w = data.draw(st.integers(0, 6), label="row width")
    bit = data.draw(st.integers(0, w), label="bit")
    in_place = data.draw(st.lists(st.booleans(), min_size=2, max_size=2), label="in place")
    matrix = drawn_matrix(data, 2)
    psi = signed_zero_state(data.draw(st.integers(0, 2**32 - 1)), w + 1, dtype)
    expected = reference_update(psi, (bit,), matrix)
    sources = list(psi.copy().reshape(2, -1))
    if bit < w:
        # one row holds both components
        sources, in_place = [psi.copy()], in_place[:1]
    targets = [s if own else np.full_like(s, np.nan) for s, own in zip(sources, in_place)]
    kernels.apply_rows(sources, targets, (bit,), matrix)
    assert np.concatenate(targets).tobytes() == expected.tobytes(), in_place


@given(st.data())
def test_array_kernels_keep_the_parent_arithmetic_and_match_the_in_place_kernels(data):
    k = data.draw(st.integers(1, 2), label="qubits")
    n = data.draw(st.integers(k, 7), label="n")
    matrix = drawn_matrix(data, 2 << (k - 1))
    bits = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                    unique=True), label="bits"))
    psi = signed_zero_state(data.draw(st.integers(0, 2**32 - 1)), n, np.complex128)
    parts = component_indices(n, bits)
    components = [psi[p] for p in parts]
    before = [c.copy() for c in components]
    if k == 1:
        produced = kernels.apply_pair_arrays(components[0], components[1], matrix)
        kernels.apply_single(psi, bits[0], matrix)
    else:
        produced = kernels.apply_quad_arrays(components, matrix)
        kernels.apply_two(psi, bits[0], bits[1], matrix)
    assert [c.tobytes() for c in components] == [c.tobytes() for c in before]
    expected = parent_expression(before, matrix)
    assert [p.tobytes() for p in produced] == [e.tobytes() for e in expected]
    assert [p.tobytes() for p in produced] == [psi[index].tobytes() for index in parts]


def moved_reference(psi, move):
    """``psi`` after ``move``, element by element through index arrays.

    Y's -i and +i exchange the real and imaginary parts of a float view and
    negate one, so every expected bit is exact.
    """
    bits = move.conditions + (move.flipped,)
    parts = component_indices(psi.size.bit_length() - 1, bits)
    low, high = parts[(1 << len(move.conditions)) - 1], parts[-1]
    expected = psi.copy()
    if not move.y:
        expected[low], expected[high] = psi[high], psi[low]
        return expected
    e, p = (a.view(psi.real.dtype).reshape(-1, 2) for a in (expected, psi))
    e[low, 0], e[low, 1] = p[high, 1], -p[high, 0]
    e[high, 0], e[high, 1] = -p[low, 1], p[low, 0]
    return expected


@given(st.data())
def test_permutation_moves_exactly_what_the_matrix_kernels_compute(data):
    kind = data.draw(st.sampled_from(["X", "Y", "CNOT"]), label="kind")
    dtypes = [np.complex128, np.complex64] + ([np.uint16] if kind != "Y" else [])
    dtype = data.draw(st.sampled_from(dtypes), label="dtype")
    k = 2 if kind == "CNOT" else 1
    n = data.draw(st.integers(k, 7), label="n")
    bits = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                    unique=True), label="bits"))
    gate = g.Gate(kind, bits)
    move = g.permutation(gate)
    seed = data.draw(st.integers(0, 2**32 - 1))
    if dtype is np.uint16:
        psi = np.random.default_rng(seed).integers(0, 1 << 16, 1 << n, dtype=np.uint16)
    else:
        psi = signed_zero_state(seed, n, dtype)
    work = None
    if data.draw(st.booleans(), label="in a workspace"):
        # larger than needed, at an offset, holding stale values
        size = kernels.work_elements(psi.size, bits, dtype, moves=True)
        work = np.full(size + 5, np.nan + 1j * np.inf)[3:]
    moved = psi.copy()
    kernels.apply_permutation(moved, *move, work=work)
    assert moved.tobytes() == moved_reference(psi, move).tobytes()
    if dtype is not np.uint16:
        # the matrix kernels' arithmetic gives the same numbers, zero signs aside
        assert np.array_equal(moved, reference_update(psi, bits, g.unitary_matrix(gate)))


def test_a_phase_is_refused_on_codes():
    with pytest.raises(TypeError):
        kernels.apply_permutation(np.zeros(8, dtype=np.uint16), (), 1, y=True)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_one_element_components_keep_the_parent_arithmetic(rng, dtype):
    # numpy rounds a one-element product written over its input differently
    for _ in range(20):
        for bits in ((0,), (1, 0)):
            matrix = haar_unitary(rng, 2 << (len(bits) - 1))
            state = signed_zero_state(int(rng.integers(2**32)), len(bits), dtype)
            expected = reference_update(state, bits, matrix)
            size = kernels.work_elements(state.size, bits, dtype)
            for work in (None, np.full(size, np.nan + 0j)):
                psi = state.copy()
                apply_matrix(psi, bits, matrix, work)
                assert psi.tobytes() == expected.tobytes()


def workspace_cases(rng):
    """(n, bits, matrix) over 2**1-2**16 amplitudes: every q, and sampled (qa, qb)."""
    for n in range(1, 17):
        for q in range(n):
            for matrix in (g.H_MATRIX, g.X_MATRIX, haar_unitary(rng, 2)):
                yield n, (q,), matrix
        if n >= 2:
            pairs = {(0, n - 1), (n - 1, 0)}
            pairs |= {tuple(int(b) for b in rng.choice(n, 2, replace=False)) for _ in range(3)}
            for bits in sorted(pairs):
                for matrix in (g.CNOT_MATRIX, haar_unitary(rng, 4)):
                    yield n, bits, matrix


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_kernels_in_a_workspace_match_the_allocating_call_bit_for_bit(rng, dtype):
    for n, bits, matrix in workspace_cases(rng):
        psi = signed_zero_state(int(rng.integers(2**32)), n, dtype)
        expected = psi.copy()
        apply_matrix(expected, bits, matrix)
        # a workspace larger than needed, at an offset, holding stale values
        size = kernels.work_elements(psi.size, bits, dtype)
        work = np.full(size + 5, np.nan + 1j * np.inf)[3:]
        apply_matrix(psi, bits, matrix, work)
        assert psi.tobytes() == expected.tobytes(), (n, bits)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_kernels_in_a_workspace_allocate_nothing_of_the_array_size(rng, dtype):
    n = 16
    for bits in [(q,) for q in range(n)] + [(0, n - 1), (n - 1, 0), (3, 9)]:
        psi = signed_zero_state(int(rng.integers(2**32)), n, dtype)
        matrix = haar_unitary(rng, 2 << (len(bits) - 1))
        work = np.empty(kernels.work_elements(psi.size, bits, dtype), dtype=np.complex128)
        tracemalloc.start()
        try:
            apply_matrix(psi, bits, matrix, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < psi.nbytes // 16, bits


def test_a_workspace_too_small_is_refused(rng):
    psi = random_state(rng, 6)
    short = np.empty(kernels.work_elements(psi.size, (2,)) - 1, dtype=np.complex128)
    with pytest.raises(ValueError):
        kernels.apply_single(psi, 2, g.H_MATRIX, work=short)


def test_bit_view_is_the_same_view_on_every_call():
    base = np.arange(64, dtype=np.complex128)
    for bits, values in (((), None), ((3,), None), ((0, 5), (1, 0)), ((4, 1), [0, 1])):
        views = [kernels.bit_view(base, bits, values) for _ in range(3)]
        for view in views:
            assert view.base is views[0].base
            assert view.__array_interface__ == views[0].__array_interface__
    with pytest.raises(IndexError):
        kernels.bit_view(base, (6,))
    with pytest.raises(IndexError):  # an error is raised again, not remembered
        kernels.bit_view(base, (6,))
