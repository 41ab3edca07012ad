"""Strided gate kernels for one partition's amplitude array.

All matrix and diagonal kernels perform arithmetic in complex128 regardless
of the array's storage dtype; storing back into a complex64 array rounds
once, which is the intended reduced-precision storage behaviour.
``apply_permutation``, the kernel of X, Y and CNOT, does no arithmetic: it
moves data in the array's own dtype, so it serves complex128 and complex64
amplitudes and byte mode's uint16 codes alike, and its values equal the
matrix path's as numbers (only the sign of a zero component can differ).

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
its operands.  The kernels compute in place, with no copy or temporary per
term.  ``apply_single`` and ``apply_two`` gather their components once into
contiguous complex128 buffers, accumulate each row in one buffer with one
term buffer, and store it.  When a pair's halves are contiguous complex128
storage, ``apply_single`` instead copies only the half it overwrites before
its last read and takes every product in place.

Those buffers are the kernels' only transients.  A caller that passes ``work``,
a 1-D complex128 array of at least ``work_elements`` elements, has them carved
from its front, so the call allocates nothing: the engine passes the run's one
workspace.  ``apply_permutation`` carves its two buffers in the array's dtype
from the same memory.  Without ``work`` each call allocates its own.  The bits
are the same either way.  The ``*_arrays`` kernels compute the same
expressions, value by value, into new buffers; byte mode applies them to the
distinct stored code tuples of a gate's ``components``.
``pair_indices`` has no caller in the package; it stays as a tested public
kernel that the benchmark's tracer wraps by name.
"""
from __future__ import annotations

import functools
import math

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
    shape, index = _split(a.size, tuple(bits), None if values is None else tuple(values))
    return a.reshape(shape)[index]


# a bench workload's run asks for 64-166 distinct views
@functools.lru_cache(maxsize=1024)
def _split(size: int, bits: tuple, values: tuple | None):
    """``bit_view``'s reshape shape and index for an array of ``size``."""
    fixed = zip(bits, (1,) * len(bits) if values is None else values)
    shape, index, span = [], [], size
    for b, v in sorted(fixed, reverse=True):
        if b < 0 or (2 << b) > span:
            raise IndexError(f"bits {bits} outside an array of {size}")
        shape += [span >> (b + 1), 2]
        index += [slice(None), v]
        span = 1 << b
    return tuple(shape) + (span,), tuple(index) + (slice(None),)


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


def _carve(work, count: int, shape, dtype=np.complex128) -> list[np.ndarray]:
    """``count`` buffers of ``shape`` and ``dtype``: consecutive parts of ``work``, or new."""
    if work is None:
        return [np.empty(shape, dtype=dtype) for _ in range(count)]
    n, work = math.prod(shape), work.view(dtype)
    return [work[i * n:(i + 1) * n].reshape(shape) for i in range(count)]


def _halves_in_place(size: int, q: int, dtype) -> bool:
    """Whether ``apply_single`` updates a pair's halves in place, not gathered.

    Halves of one element are gathered: numpy rounds a one-element product
    written over its own input differently.
    """
    return dtype == np.complex128 and 2 << q == size and q > 0


def work_elements(size: int, qubits: tuple[int, ...], dtype=np.complex128,
                  moves: bool = False) -> int:
    """Complex128 elements of ``work`` a kernel takes on an array of ``size``.

    ``qubits`` are the gate's bits of the array: one for ``apply_single``,
    two for ``apply_two``.  Gathered components fill ``size`` elements and
    the accumulator and term buffer one component each; halves updated in
    place need the saved half and one term buffer.  With ``moves`` the
    kernel is ``apply_permutation`` on an array of ``dtype``: two buffers of
    one component each, rounded up to whole complex128 elements.
    """
    if moves:
        return -(-2 * (size >> len(qubits)) * np.dtype(dtype).itemsize // 16)
    if len(qubits) == 1 and _halves_in_place(size, qubits[0], dtype):
        return size
    return size + 2 * (size >> len(qubits))


def _update(views: list[np.ndarray], matrix: np.ndarray, work=None) -> None:
    """Apply ``matrix`` across aligned component views in place, row i into view i.

    The components are gathered once into contiguous complex128 rows; each
    matrix row accumulates in one buffer and is stored, rounding once.
    """
    *xs, acc, term = _carve(work, len(views) + 2, views[0].shape)
    for x, view in zip(xs, views):
        np.copyto(x, view)
    for row, view in zip(matrix, views):
        _combine(row, xs, acc, term)
        view[...] = acc


def apply_single(psi: np.ndarray, q: int, matrix: np.ndarray, work=None) -> None:
    """In-place 2x2 update of all (i, i + 2**q) pairs.

    A complex128 array whose top bit is q is updated half by half in place:
    the engine's blocks for high qubits and the stacked buffer of an
    exchanged single-qubit gate are such arrays.  Any other array is updated
    through its gathered components.
    """
    views = [bit_view(psi, (q,), (0,)), bit_view(psi, (q,))]
    if not _halves_in_place(psi.size, q, psi.dtype):
        _update(views, matrix, work)
        return
    # each product overwrites an operand it alone reads, and row 1's two-term
    # sum swaps its operands so that v1 comes first
    v0, v1 = views
    a0, term = _carve(work, 2, v0.shape)
    np.copyto(a0, v0)
    _combine(matrix[0], views, v0, term)
    _combine(matrix[1, ::-1], (v1, a0), v1, a0)


def apply_two(psi: np.ndarray, qa: int, qb: int, matrix: np.ndarray, work=None) -> None:
    """In-place 4x4 update of all quadruples spanned by qubits qa and qb.

    Matrix basis: index = bit(qa) + 2 * bit(qb).
    """
    if qa == qb:
        raise ValueError("two-qubit gate requires distinct qubits")
    _update(components(psi, (qa, qb)), matrix, work)


def apply_diagonal(psi: np.ndarray, local_bits: tuple[int, ...], factor: complex) -> None:
    """Multiply by ``factor`` where every listed local bit reads 1.

    A bit at or above the local width raises ``IndexError``; the caller
    resolves rank bits itself and passes only local ones.
    """
    view = bit_view(psi, local_bits)
    view *= np.complex128(factor)


def apply_permutation(a: np.ndarray, conditions: tuple[int, ...], flipped: int,
                      y: bool = False, work=None) -> None:
    """Swap the elements that differ only in bit ``flipped`` where ``conditions`` read 1.

    The arguments after ``a`` are a ``gates.Permutation``.  Both sides of
    the swap are copied into two buffers of ``a``'s dtype, carved from
    ``work`` or new, and written back crosswise.  Two views of one array
    never meet in a copy: their bounds overlap, so numpy would first copy
    the whole source.  With ``y`` the crosswise writes exchange real and
    imaginary parts and negate one, multiplying by -i and +i exactly; that
    needs complex ``a``.
    """
    if y and a.dtype.kind != "c":
        raise TypeError(f"a phase needs complex elements, not {a.dtype}")
    bits, ones = tuple(conditions) + (flipped,), (1,) * len(conditions)
    v0, v1 = bit_view(a, bits, ones + (0,)), bit_view(a, bits, ones + (1,))
    b0, b1 = _carve(work, 2, v0.shape, a.dtype)
    np.copyto(b0, v0)
    np.copyto(b1, v1)
    if not y:
        np.copyto(v0, b1)
        np.copyto(v1, b0)
        return
    # -i (x + iy) = y - ix and +i (x + iy) = -y + ix
    np.copyto(v0.real, b1.imag)
    np.negative(b1.real, out=v0.imag)
    np.negative(b0.imag, out=v1.real)
    np.copyto(v1.imag, b0.real)


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
