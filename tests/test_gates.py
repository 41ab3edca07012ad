import math

import numpy as np
import pytest

from svsim import gates as g


def test_phase_angle_values():
    assert g.phase_angle(1) == math.pi
    assert g.phase_angle(2) == math.pi / 2
    assert g.phase_angle(-2) == -math.pi / 2
    with pytest.raises(ValueError):
        g.phase_angle(0)


def test_permutation_forms_of_x_y_and_cnot_only():
    assert g.permutation(g.x(3)) == ((), 3, False)
    assert g.permutation(g.y(3), (5,)) == ((), 5, True)
    assert g.permutation(g.cnot(4, 1)) == ((4,), 1, False)
    assert g.permutation(g.cnot(4, 1), (0, 2)) == ((0,), 2, False)
    for gate in (g.h(0), g.z(0), g.phase(0, 2), g.cphase(0, 1, 2), g.u2(0, g.X_MATRIX),
                 g.u4(0, 1, g.CNOT_MATRIX), g.measure_all()):
        assert g.permutation(gate) is None


def test_builtin_matrices_unitary():
    for gate in (g.h(0), g.x(0), g.y(0), g.cnot(0, 1)):
        assert g.unitarity_residual(g.unitary_matrix(gate)) < 1e-15


def test_dense_matrix_diagonal_kinds():
    assert np.allclose(g.dense_matrix(g.z(0)), np.diag([1, -1]))
    assert np.allclose(g.dense_matrix(g.phase(0, 2)), np.diag([1, 1j]))
    cp = g.dense_matrix(g.cphase(0, 1, 1))
    assert np.allclose(cp, np.diag([1, 1, 1, -1]))


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        g.validate_gate(g.h(5), 4)


def test_validate_rejects_duplicate_qubits():
    with pytest.raises(ValueError, match="distinct"):
        g.validate_gate(g.cphase(2, 2, 1), 4)


def test_validate_rejects_non_unitary_matrix():
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        g.validate_gate(g.u2(0, bad), 2)


def test_validate_accepts_unitary_within_tolerance():
    g.validate_gate(g.u2(0, g.H_MATRIX), 2)


def test_measure_takes_no_arguments():
    with pytest.raises(ValueError):
        g.validate_gate(g.Gate("M", (0,)), 2)


def test_phase_angle_is_exact_and_underflows_for_huge_exponents():
    for k in range(1, 1024):
        assert g.phase_angle(k) == 2.0 * math.pi / (1 << k)
        assert g.phase_angle(-k) == -(2.0 * math.pi / (1 << k))
    assert g.phase_angle(2000) == 0.0
    assert g.phase_angle(-10 ** 30) == 0.0
    assert g.diagonal_factor(g.cphase(0, 1, 2000)) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_matrices(bad):
    m2 = g.H_MATRIX.copy()
    m2[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        g.validate_gate(g.u2(0, m2), 2)
    m4 = g.CNOT_MATRIX.copy()
    m4[3, 1] = complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        g.validate_gate(g.u4(0, 1, m4), 2)
