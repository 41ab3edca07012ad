"""Strided gate kernels for one partition's amplitude array.

All kernels perform arithmetic in complex128 regardless of the array's
storage dtype; storing back into a complex64 array rounds once, which is
the intended reduced-precision storage behaviour.

Every amplitude subset is named by the index bits it fixes, through the one
view helper ``bit_view``: a gate on qubit q pairs the views where bit q
reads 0 and 1, a two-qubit gate spans four views, and a diagonal gate
scales the view where its qubits read 1.  Updates are vectorised, so
results do not depend on any internal visiting order.

The four matrix kernels share one arithmetic, ``_combine``: output row r is
m[r,0]*a0 + m[r,1]*a1 (+ m[r,2]*a2 + m[r,3]*a3), summed left to right, and
every product keeps the matrix entry first, because numpy's complex
multiply is not commutative bit for bit (``np.multiply(v, m)`` differs from
``m * v`` on Haar matrices).  IEEE addition is, so a two-term sum may swap
its operands.  The kernels compute in place, into buffers allocated once
per call, with no copy or temporary per term.  ``apply_single`` and
``apply_two`` gather their components once into contiguous complex128
buffers, accumulate each row in one buffer with one term buffer, and store
it.  When a pair's halves are contiguous complex128 storage,
``apply_single`` instead copies only the half it overwrites before its last
read and takes every product in place.  The ``*_arrays`` kernels compute
the same expressions, value by value, into new buffers; byte mode applies
them to the distinct stored code tuples of a gate's ``components``.
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


def _combine(row, xs, acc, term) -> None:
    """``acc = row[0]*xs[0] + row[1]*xs[1] + ...`` in complex128, left to right.

    Every product keeps the matrix entry first.  ``acc`` may be ``xs[0]``
    and ``term`` may be ``xs[-1]``, as each is read before it is written, but
    only on more than one element: numpy rounds a one-element product
    written over its own input differently.
    """
    np.multiply(row[0], xs[0], out=acc)
    for c in range(1, len(xs)):
        np.multiply(row[c], xs[c], out=term)
        acc += term


def _update(views: list[np.ndarray], matrix: np.ndarray) -> None:
    """Apply ``matrix`` across aligned component views in place, row i into view i.

    The components are gathered once into contiguous complex128 rows; each
    matrix row accumulates in one buffer and is stored, rounding once.
    """
    xs = [view.astype(np.complex128) for view in views]
    acc, term = np.empty_like(xs[0]), np.empty_like(xs[0])
    for row, view in zip(matrix, views):
        _combine(row, xs, acc, term)
        view[...] = acc


def apply_single(psi: np.ndarray, q: int, matrix: np.ndarray) -> None:
    """In-place 2x2 update of all (i, i + 2**q) pairs.

    A complex128 array whose top bit is q is updated half by half in place:
    the engine's blocks for high qubits and the stacked buffer of an
    exchanged single-qubit gate are such arrays.  Any other array is updated
    through its gathered components.
    """
    views = [bit_view(psi, (q,), (0,)), bit_view(psi, (q,))]
    if psi.dtype != np.complex128 or 2 << q != psi.size or q == 0:
        _update(views, matrix)
        return
    # complex128 halves of more than one element: each product overwrites an
    # operand it alone reads, and row 1's two-term sum swaps its operands so
    # that v1 comes first
    v0, v1 = views
    a0 = v0.copy()
    _combine(matrix[0], views, v0, np.empty_like(a0))
    _combine(matrix[1, ::-1], (v1, a0), v1, a0)


def apply_two(psi: np.ndarray, qa: int, qb: int, matrix: np.ndarray) -> None:
    """In-place 4x4 update of all quadruples spanned by qubits qa and qb.

    Matrix basis: index = bit(qa) + 2 * bit(qb).
    """
    if qa == qb:
        raise ValueError("two-qubit gate requires distinct qubits")
    _update(components(psi, (qa, qb)), matrix)


def apply_diagonal(psi: np.ndarray, local_bits: tuple[int, ...], factor: complex) -> None:
    """Multiply by ``factor`` where every listed local bit reads 1.

    A bit at or above the local width raises ``IndexError``; the caller
    resolves rank bits itself and passes only local ones.
    """
    view = bit_view(psi, local_bits)
    view *= np.complex128(factor)


def _rows(matrix: np.ndarray, xs) -> np.ndarray:
    """Each row of ``matrix`` applied across aligned buffers ``xs``, as new rows."""
    out = np.empty((len(matrix),) + xs[0].shape, dtype=np.complex128)
    term = np.empty(xs[0].shape, dtype=np.complex128)
    for row, acc in zip(matrix, out):
        _combine(row, xs, acc, term)
    return out


def apply_pair_arrays(a0: np.ndarray, a1: np.ndarray, matrix: np.ndarray):
    """2x2 update across two aligned component buffers; returns new buffers."""
    return tuple(_rows(matrix, (a0, a1)))


def apply_quad_arrays(components: list[np.ndarray], matrix: np.ndarray) -> list[np.ndarray]:
    """4x4 update across four aligned component buffers (basis order 0..3)."""
    return list(_rows(matrix, components))


def components(a: np.ndarray, bits=()) -> list[np.ndarray]:
    """The 2**len(bits) views of 1-D ``a`` that fix ``bits``, in gate basis order.

    In view i, bit ``bits[j]`` reads bit j of i, as in ``apply_two``'s
    matrix basis; no bits gives ``a`` whole.
    """
    return [bit_view(a, bits, tuple(i >> j & 1 for j in range(len(bits))))
            for i in range(1 << len(bits))]
