"""Strided gate kernels for one partition's amplitude array.

All kernels perform arithmetic in complex128 regardless of the array's
storage dtype; storing back into a complex64 array truncates, which is the
intended reduced-precision storage behaviour.

Every amplitude subset is named by the index bits it fixes, through the one
view helper ``bit_view``: a gate on qubit q pairs the views where bit q
reads 0 and 1, a two-qubit gate spans four views, and a diagonal gate
scales the view where its qubits read 1.  Updates are vectorised, so
results do not depend on any internal visiting order.

The ``*_arrays`` kernels compute the same expressions as ``apply_single``
and ``apply_two``, value by value, on separate aligned buffers; byte mode
applies them to the distinct stored code tuples of a gate's ``components``.
``pair_indices`` has no caller in the package; it stays as a tested public
kernel that the benchmark's tracer wraps by name.
"""
from __future__ import annotations

import numpy as np


def pair_indices(n_local: int, q: int) -> np.ndarray:
    """Ascending indices with bit q clear: the low member of every pair."""
    if not 0 <= q < n_local:
        raise IndexError(f"qubit {q} outside local range {n_local}")
    step = 1 << q
    base = np.arange(0, 1 << n_local, step << 1, dtype=np.int64)
    return (base[:, None] + np.arange(step, dtype=np.int64)[None, :]).ravel()


def bit_view(a: np.ndarray, bits=(), values=None) -> np.ndarray:
    """Strided view of 1-D ``a`` where index bit ``bits[j]`` reads ``values[j]``.

    ``values`` defaults to all ones; no bits means the whole array.  Ravelled,
    the view visits its indices in ascending order.  Splitting the one axis
    of a 1-D array never copies, so a write through the view lands in ``a``.
    """
    if a.ndim != 1:
        raise ValueError(f"bit_view needs a 1-D array, not shape {a.shape}")
    fixed = zip(bits, (1,) * len(bits) if values is None else values)
    shape, index, span = [], [], a.size
    for b, v in sorted(fixed, reverse=True):
        if b < 0 or (2 << b) > span:
            raise IndexError(f"bits {tuple(bits)} outside an array of {a.size}")
        shape += [span >> (b + 1), 2]
        index += [slice(None), v]
        span = 1 << b
    return a.reshape(shape + [span])[tuple(index) + (slice(None),)]


def apply_single(psi: np.ndarray, q: int, matrix: np.ndarray) -> None:
    """In-place 2x2 update of all (i, i + 2**q) pairs."""
    v0, v1 = bit_view(psi, (q,), (0,)), bit_view(psi, (q,))
    a0 = v0.astype(np.complex128)
    a1 = v1.astype(np.complex128)
    v0[...] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    v1[...] = matrix[1, 0] * a0 + matrix[1, 1] * a1


def apply_two(psi: np.ndarray, qa: int, qb: int, matrix: np.ndarray) -> None:
    """In-place 4x4 update of all quadruples spanned by qubits qa and qb.

    Matrix basis: index = bit(qa) + 2 * bit(qb).
    """
    if qa == qb:
        raise ValueError("two-qubit gate requires distinct qubits")
    views = [bit_view(psi, (qa, qb), (i & 1, i >> 1)) for i in range(4)]
    a = [v.astype(np.complex128) for v in views]
    for row, view in enumerate(views):
        view[...] = (matrix[row, 0] * a[0] + matrix[row, 1] * a[1]
                     + matrix[row, 2] * a[2] + matrix[row, 3] * a[3])


def apply_diagonal(psi: np.ndarray, local_bits: tuple[int, ...], factor: complex) -> None:
    """Multiply by ``factor`` where every listed local bit reads 1.

    A bit at or above the local width raises ``IndexError``; the caller
    resolves rank bits itself and passes only local ones.
    """
    view = bit_view(psi, local_bits)
    view *= np.complex128(factor)


def apply_pair_arrays(a0: np.ndarray, a1: np.ndarray, matrix: np.ndarray):
    """2x2 update across two aligned component buffers; returns new buffers."""
    b0 = a0.astype(np.complex128)
    b1 = a1.astype(np.complex128)
    return matrix[0, 0] * b0 + matrix[0, 1] * b1, matrix[1, 0] * b0 + matrix[1, 1] * b1


def apply_quad_arrays(components: list[np.ndarray], matrix: np.ndarray) -> list[np.ndarray]:
    """4x4 update across four aligned component buffers (basis order 0..3)."""
    a = [c.astype(np.complex128) for c in components]
    return [
        matrix[row, 0] * a[0] + matrix[row, 1] * a[1]
        + matrix[row, 2] * a[2] + matrix[row, 3] * a[3]
        for row in range(4)
    ]


def norm_squared(psi: np.ndarray) -> float:
    a = psi.astype(np.complex128, copy=False)
    return float(np.real(np.vdot(a, a)))


def components(a: np.ndarray, bits=()) -> list[np.ndarray]:
    """The 2**len(bits) views of 1-D ``a`` that fix ``bits``, in gate basis order.

    In view i, bit ``bits[j]`` reads bit j of i, as in ``apply_two``'s
    matrix basis; no bits gives ``a`` whole.
    """
    return [bit_view(a, bits, tuple(i >> j & 1 for j in range(len(bits))))
            for i in range(1 << len(bits))]
