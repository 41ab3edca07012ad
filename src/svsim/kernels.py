"""Strided gate kernels on rows of a partition's amplitudes.

All matrix and diagonal kernels perform arithmetic in complex128 regardless
of the array's storage dtype; storing back into a complex64 array rounds
once, which is the intended reduced-precision storage behaviour.  The
permutation kernels of X, Y and CNOT do no arithmetic: they move data in the
array's own dtype, so they serve complex128 and complex64 amplitudes and byte
mode's uint16 codes alike, and their values equal the matrix path's as
numbers (only the sign of a zero component can differ).

Every amplitude subset is named by the index bits it fixes, through the one
view helper ``bit_view``: a gate on qubit q pairs the views where bit q
reads 0 and 1, a two-qubit gate spans four views, and a diagonal gate
scales the view where its qubits read 1.  Updates are vectorised, so
results do not depend on any internal visiting order.  ``apply_phases``
applies a run of diagonal gates in one pass: each element's phase over the
run is an exact integer index into a table of roots of unity, computed
chunk by chunk, so each element is multiplied once.

A gate computes on rows: aligned 1-D arrays taken as one array, row r after
row r - 1, in which bits at or above a row's width select the row
(``row_components``).  ``apply_rows`` and ``move_rows`` read source rows and
write target rows, so an exchanged gate reads its own part in storage and
the payloads it received and writes every result into its owner's part;
``apply_single``, ``apply_two`` and ``apply_permutation`` are their one-row
forms, in place on one array.  A target that is its source (the same
object) is updated in place; any other source is a scratch copy.

The matrix kernels share one arithmetic (``_combine`` states it): output row
r is m[r,0]*a0 + m[r,1]*a1 (+ m[r,2]*a2 + m[r,3]*a3), summed left to right, and
every product keeps the matrix entry first, because numpy's complex
multiply is not commutative bit for bit (``np.multiply(v, m)`` differs from
``m * v`` on Haar matrices).  IEEE addition is, so a two-term sum may swap
its operands.  The kernels compute with no copy or temporary per term.  They
gather the source components once into contiguous complex128 buffers,
accumulate each row in one buffer with one term buffer, and store it into
its target, rounding once.  When a single-qubit gate's two components are
contiguous complex128 rows or halves, nothing is gathered or copied: each
product is written over an operand it alone reads, into a target, or into a
buffer where both components are in place (``_pair``).  When a 2x2 matrix's
rows start with the same entry bit for bit, as H's do, both rows' first
product is formed once (``_shares_first``): an in-place pair of H halves
takes five passes over a half, a general one six, and a gathered H nine.

Those buffers are the kernels' only transients.  A caller that passes ``work``,
a 1-D complex128 array of at least ``work_elements`` elements, has them carved
from its front, so the call allocates nothing: the engine passes the run's one
workspace.  The permutation kernels carve their buffers in the rows' dtype
from the same memory, and ``apply_phases`` its index and root tables
(``phase_work_elements``).  Without ``work`` each call allocates its own.  The bits
are the same either way.  The ``*_arrays`` kernels compute the same
expressions, value by value, into new buffers; byte mode applies them to the
distinct stored code tuples of a gate's components.
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


def work_elements(size: int, qubits: tuple[int, ...], dtype=np.complex128,
                  moves: bool = False) -> int:
    """Complex128 elements of ``work`` a kernel takes on ``size`` amplitudes.

    ``size`` counts the amplitudes of all rows of one call, and ``qubits``
    are the gate's bits of them: one for a 2x2 matrix, two for a 4x4 one.
    Gathered components fill ``size`` elements and the accumulator and term
    buffer one component each; the in-place forms of a single-qubit gate
    need less.  With ``moves`` the kernel is a permutation on elements of
    ``dtype``: two buffers of one component each, rounded up to whole
    complex128 elements.
    """
    if moves:
        return -(-2 * (size >> len(qubits)) * np.dtype(dtype).itemsize // 16)
    return size + 2 * (size >> len(qubits))


@functools.lru_cache(maxsize=1024)
def row_components(bits: tuple[int, ...], width: int) -> tuple:
    """Where each component of a gate on aligned rows lies, in gate basis order.

    The rows act as one array in which row r holds the indices from
    r * 2**width on, and ``bits`` are the gate's qubits as bits of it.  A bit
    at or above ``width`` selects the row; one below it is a bit of the row.
    Component i, in which bit j of i is the value of qubit j, is returned as
    (row, bits of the row, their values).
    """
    out = []
    for i in range(1 << len(bits)):
        row, fixed, values = 0, (), ()
        for j, b in enumerate(bits):
            v = i >> j & 1
            if b >= width:
                row |= v << (b - width)
            else:
                fixed, values = fixed + (b,), values + (v,)
        out.append((row, fixed, values))
    return tuple(out)


def _views(rows, bits, which=None) -> list[tuple[int, np.ndarray]]:
    """Components of a gate on aligned 1-D ``rows`` as (row, view): all, or ``which``."""
    parts = row_components(bits, rows[0].size.bit_length() - 1)
    if which is not None:
        parts = [parts[i] for i in which]
    return [(r, bit_view(rows[r], fixed, values)) for r, fixed, values in parts]


_COMPLEX = np.dtype(np.complex128)


def _shares_first(matrix: np.ndarray) -> bool:
    """Whether a 2x2 matrix's rows start with the same entry, bit for bit.

    Both rows' first products are then the same, so they are formed once.
    ``==`` would also take 0.0 and -0.0, whose products differ in the sign of
    a zero.
    """
    return len(matrix) == 2 and matrix[0, 0].tobytes() == matrix[1, 0].tobytes()


def _update(sources, targets, matrix: np.ndarray, work=None) -> None:
    """Apply ``matrix`` across aligned component views, row i into ``targets[i]``.

    The source components are gathered once into contiguous complex128
    buffers, so a target may be its source; each matrix row accumulates in
    one buffer and is stored, rounding once.  A 2x2 matrix whose rows share
    their first product keeps it in the accumulator, and each row adds its
    second product to it in the term buffer.
    """
    *xs, acc, term = _carve(work, len(sources) + 2, sources[0].shape)
    for x, view in zip(xs, sources):
        np.copyto(x, view)
    if _shares_first(matrix):
        np.multiply(matrix[0, 0], xs[0], out=acc)
        for row, view in zip(matrix, targets):
            np.multiply(row[1], xs[1], out=term)
            term += acc
            view[...] = term
        return
    for row, view in zip(matrix, targets):
        _combine(row, xs, acc, term)
        view[...] = acc


def _pair(sources, targets, in_place, matrix: np.ndarray, work=None) -> None:
    """A 2x2 update of two contiguous complex128 components, nothing gathered or copied.

    Each product overwrites an operand it alone reads, and a source that is
    not its target is a scratch copy.  The first products come first: in the
    first component, and row 1's in a buffer unless the rows share it.  Each
    second product goes into its row's target, or for an in-place row 0 into
    the second component when that is a scratch copy and a buffer otherwise,
    and each row then adds its two products.
    """
    v0, v1 = sources
    shared = _shares_first(matrix)
    spare = _carve(work, all(in_place) + (not shared), v0.shape)
    firsts = [v0, v0]
    if not shared:
        firsts[1] = spare.pop()
        np.multiply(matrix[1, 0], v0, out=firsts[1])
    np.multiply(matrix[0, 0], v0, out=v0)
    seconds = [spare.pop() if all(in_place) else v1 if in_place[0] else targets[0], targets[1]]
    # the product written over v1 is its last read
    for r in ((1, 0) if seconds[0] is v1 else (0, 1)):
        np.multiply(matrix[r, 1], v1, out=seconds[r])
    np.add(seconds[1], firsts[1], out=targets[1])
    np.add(seconds[0], v0, out=targets[0])


def apply_rows(sources, targets, bits, matrix: np.ndarray, work=None) -> None:
    """A 2x2 or 4x4 update across aligned 1-D rows, row results into ``targets``.

    The rows act as one array, row r after row r - 1, and ``bits`` are the
    gate's qubits as bits of it (``row_components``).  A target that is its
    source row (the same object) is updated in place; any other source may
    be overwritten, as a scratch copy.  A single-qubit gate whose two
    components are contiguous complex128 rows or halves of more than one
    element is updated with nothing gathered (``_pair``); every other gate
    gathers its components (``_update``).  Both give the same bits, except
    that numpy rounds a one-element product written over its own input
    differently, so one-element components are gathered.
    """
    views = _views(sources, bits)
    xs = [view for _, view in views]
    ts = xs if targets is sources else [view for _, view in _views(targets, bits)]
    if (len(bits) == 1 and xs[0].size > 1
            and all(x.dtype == _COMPLEX and x.flags.c_contiguous for x in xs)):
        _pair(xs, ts, [sources[r] is targets[r] for r, _ in views], matrix, work)
    else:
        _update(xs, ts, matrix, work)


def apply_single(psi: np.ndarray, q: int, matrix: np.ndarray, work=None) -> None:
    """In-place 2x2 update of all (i, i + 2**q) pairs: ``apply_rows`` on one row.

    A complex128 array whose top bit is q is updated half by half in place;
    any other array is updated through its gathered components.
    """
    rows = (psi,)
    apply_rows(rows, rows, (q,), matrix, work)


def apply_two(psi: np.ndarray, qa: int, qb: int, matrix: np.ndarray, work=None) -> None:
    """In-place 4x4 update of all quadruples spanned by qubits qa and qb.

    Matrix basis: index = bit(qa) + 2 * bit(qb).
    """
    if qa == qb:
        raise ValueError("two-qubit gate requires distinct qubits")
    rows = (psi,)
    apply_rows(rows, rows, (qa, qb), matrix, work)


def apply_diagonal(psi: np.ndarray, local_bits: tuple[int, ...], factor: complex) -> None:
    """Multiply by ``factor`` where every listed local bit reads 1.

    A view of one element is rounded as a longer one is (``_scale``), so the
    stored bits do not depend on how many local bits a rank holds.  A bit at
    or above the local width raises ``IndexError``; the caller resolves rank
    bits itself and passes only local ones.
    """
    _scale(bit_view(psi, local_bits), np.complex128(factor))


# A fused phase pass looks its roots up in one table of 2**K roots, K its
# largest exponent, up to this width, and above it as the product of a
# coarse table of 2**ceil(K/2) roots and a fine one of 2**floor(K/2).
ROOT_BITS = 12
# The largest exponent a fused run holds.  Its phase index tables add weights
# below 2**INDEX_BITS in int64, far from overflow, and its root tables take
# 4 MiB at this width.
INDEX_BITS = 32


def _buffers(work, specs) -> list[np.ndarray]:
    """Buffers of the given ``(size, dtype)``s: consecutive parts of ``work``, or new.

    Each starts at a complex128 element of ``work``.
    """
    out, start = [], 0
    for size, dtype in specs:
        if work is None:
            out.append(np.empty(size, dtype=dtype))
            continue
        out.append(work[start:].view(dtype)[:size])
        start += -(-size * np.dtype(dtype).itemsize // 16)
    return out


def _phase_specs(width: int, span: int, top: int) -> list:
    """``apply_phases``' buffers for chunks of 2**width runs of 2**span touched elements.

    The coarse and fine roots; per run, the cross table, the phase index
    and its root; every element's root; each half's bit matrix and own
    form; with a fine table, a second index and a second root per run.
    """
    half = width // 2
    coarse = top if top <= ROOT_BITS else -(-top // 2)
    fine = 0 if top <= ROOT_BITS else 1 << (top - coarse)
    runs = 1 << width
    # the index sums three tables, each below 2**top: the coarse roots repeat
    specs = [(3 << coarse, np.complex128), (fine, np.complex128), (runs, np.int64),
             (runs, np.int64), (runs, np.complex128), (runs << span, np.complex128),
             ((1 << half) * half, np.int64), ((1 << (width - half)) * (width - half), np.int64),
             (1 << half, np.int64), (1 << (width - half), np.int64)]
    return specs + [(runs, np.int64), (runs, np.complex128)] * (fine > 0)


def phase_work_elements(count: int, top: int) -> int:
    """Complex128 elements of ``work`` that ``apply_phases`` takes.

    ``count`` bounds the elements it touches per chunk, ``block`` at most,
    and ``top`` is its exponent.  Every buffer grows with the runs' and the
    elements' counts, so one root per element bounds every split.
    """
    return sum(-(-size * np.dtype(dtype).itemsize // 16)
               for size, dtype in _phase_specs(count.bit_length() - 1, 0, top))


def _bits(out: np.ndarray) -> np.ndarray:
    """``out``, 2**b x b, filled with the bits of each row's index, and returned."""
    np.right_shift(np.arange(out.shape[0])[:, None], np.arange(out.shape[1]), out=out)
    out &= 1
    return out


def _roots(table: np.ndarray, turn: int) -> None:
    """``table[m] = exp(2*pi*i * m / turn)``, repeated past ``turn``.

    1, i, -1 and -i are exact where they fall.  The angles are laid out
    2**ROOT_BITS at a time, so no temporary exceeds that many integers.
    """
    first = table[:turn]
    for start in range(0, first.size, 1 << ROOT_BITS):
        part = first[start:start + (1 << ROOT_BITS)]
        np.multiply(np.arange(start, start + part.size), 2j * np.pi / turn, out=part)
    np.exp(first, out=first)
    if first.size == turn:
        first[::max(turn // 4, 1)] = (1, 1j, -1, -1j)[::max(4 // turn, 1)]
    for start in range(turn, table.size, turn):
        table[start:start + turn] = first


def apply_phases(psi: np.ndarray, ones: tuple[int, ...], terms, top: int, block: int,
                 work=None) -> None:
    """Multiply ``psi`` where bits ``ones`` read 1 by a root of unity per element.

    Element i is multiplied by exp(2*pi*i * m / 2**top), where its phase
    index m is the sum mod 2**top of the weights of the ``terms`` whose bits
    all read 1 at i.  Each term is ``(bits, weight)``, with at most two
    bits, none of them in ``ones``, and ``top`` is at most ``INDEX_BITS``.
    m is an exact integer, so each element is multiplied once, by the root
    at m, whatever the order, number or grouping of the terms.  Up to
    ``ROOT_BITS`` the roots are one table, which holds 1, i, -1 and -i
    exactly; above it each is the product of a coarse root, exact at those
    four, and a fine one, 1 at 0.

    The pass runs chunk by chunk: 2**c contiguous elements, c the widest at
    which at most ``block`` of them are touched.  Touched elements that
    differ only in bits below every term bit share a root, so the index is
    computed once per such run of them.  Over a chunk's runs, m is a
    quadratic form in their bits.  Split into a low and a high half, it is a
    cross table of the pairs that span the halves, the same in every chunk,
    plus one table per half of its own pairs and singles, into which the
    bits that choose the chunk enter as constants.  The runs' roots are
    looked up, spread over their elements, and every touched element is
    multiplied by its own, in place.  Every table is computed in ``work``
    when it is given (``phase_work_elements``).
    """
    n, mask = psi.size.bit_length() - 1, (1 << top) - 1
    block = block.bit_length() - 1
    c = next(c for c in range(n, -1, -1) if c - sum(b < c for b in ones) <= block)
    fixed = tuple(b for b in ones if b < c)
    chosen = sum(1 << (b - c) for b in ones if b >= c)
    width = c - len(fixed)
    # a term bit as a bit of a touched element's place in its chunk, or of
    # the chunk number
    free = sorted({b for bits, _ in terms for b in bits})
    inner = {b: b - sum(o < b for o in fixed) for b in free if b < c}
    outer = [b for b in free if b >= c]
    # runs of 2**span touched elements share a root
    span = min([width, *inner.values()])
    width -= span
    half = width // 2
    # the form's variables: a run's bits, low half first, then the chunk
    # number's bits, then a constant 1
    at = {b: p - span for b, p in inner.items()}
    at.update((b, width + j) for j, b in enumerate(outer))
    size = width + len(outer) + 1
    form = np.zeros((size, size), dtype=np.int64)
    for bits, weight in terms:
        where = sorted(at[b] for b in bits) or [size - 1]
        form[where[-1], where[0]] += weight
    form &= mask
    (coarse, fine, cross, index, run_roots, roots, lows, highs, low_table, high_table,
     *second) = _buffers(work, _phase_specs(width, span, top))
    shape = (1 << (width - half), 1 << half)
    cross, index, run_roots = (a.reshape(shape) for a in (cross, index, run_roots))
    lows = _bits(lows.reshape(1 << half, half))
    highs = _bits(highs.reshape(1 << (width - half), width - half))
    # each half's own pairs and singles: its bits times the form times its bits
    np.sum((lows @ form[:half, :half]) * lows, axis=1, out=low_table)
    np.sum((highs @ form[half:width, half:width]) * highs, axis=1, out=high_table)
    np.matmul(highs, form[half:width, :half] @ lows.T, out=cross)
    cross &= mask
    # the chunk number's bits and the constant: their own form, and their
    # coefficients on each run bit
    chunk_form, chunk_rows = form[width:, width:], form[width:, :width]
    # bit v of the chunk number is variable v; the constant reads bit 0 of 2j + 1
    shifts = np.array([b - c + 1 for b in outer] + [0])
    if not span:
        roots = run_roots
    _roots(coarse, coarse.size // 3)
    if fine.size:
        _roots(fine, 1 << top)
        other, more = (a.reshape(shape) for a in second)
    chunks = psi.reshape(-1, 1 << c)
    fresh = True
    for j in range(len(chunks)):
        if j & chosen != chosen:
            continue
        if fresh:
            y = ((j << 1 | 1) >> shifts) & 1
            linear = y @ chunk_rows
            high_index = ((highs @ linear[half:] + high_table) & mask)[:, None]
            low_index = (lows @ linear[:half] + low_table + y @ chunk_form @ y) & mask
            np.add(cross, high_index, out=index)
            index += low_index
            # each of the three terms is below 2**top, and the coarse roots repeat
            if fine.size:
                np.right_shift(index, fine.size.bit_length() - 1, out=other)
                index &= fine.size - 1
                np.take(coarse, other, out=run_roots, mode="clip")
                np.take(fine, index, out=more, mode="clip")
                _scale(run_roots, more)
            else:
                np.take(coarse, index, out=run_roots, mode="clip")
            if span:
                np.copyto(roots.reshape(1 << width, 1 << span), run_roots.reshape(-1, 1))
            # without chunk bits, every chunk takes the same roots
            fresh = bool(outer)
        view = bit_view(chunks[j], fixed)
        _scale(view, roots.reshape(view.shape))


def _scale(target: np.ndarray, factor: np.ndarray) -> None:
    """``target *= factor``, rounded on one element as on many.

    numpy rounds a one-element product written over its own input
    differently, so one element is multiplied into a new array first.
    """
    if target.size == 1:
        target[...] = target * factor
    else:
        target *= factor


def _put(target: np.ndarray, source: np.ndarray, y: bool, sign: int) -> None:
    """``target = source``, times -i (``sign`` -1) or +i (``sign`` 1) with ``y``.

    -i (x + iy) = y - ix and +i (x + iy) = -y + ix: real and imaginary parts
    trade places and one is negated, which is exact.
    """
    if not y:
        np.copyto(target, source)
    elif sign < 0:
        np.copyto(target.real, source.imag)
        np.negative(source.real, out=target.imag)
    else:
        np.negative(source.imag, out=target.real)
        np.copyto(target.imag, source.real)


def move_rows(sources, targets, conditions: tuple[int, ...], flipped: int,
              y: bool = False, work=None) -> None:
    """Swap the elements that differ only in bit ``flipped`` where ``conditions`` read 1.

    The rows act as one array as in ``apply_rows``, and the arguments after
    the rows are a ``gates.Permutation`` on its bits.  Each side of the swap
    is written crosswise into the other side's target; elements outside the
    sides are not written, so a target that is not its source must already
    hold them.  Two sides both updated in place are first copied into two
    buffers of their dtype, carved from ``work`` or new: two views of one
    array never meet in a copy, as their bounds may overlap and numpy would
    then first copy the whole source.  Otherwise nothing is buffered: where
    one side is in place, the other side's target is written first.  With
    ``y`` the side that lands where ``flipped`` reads 0 is multiplied by -i
    and the other by +i; that needs complex rows.
    """
    if y and sources[0].dtype.kind != "c":
        raise TypeError(f"a phase needs complex elements, not {sources[0].dtype}")
    bits = tuple(conditions) + (flipped,)
    low = (1 << len(conditions)) - 1
    which = (low, low | 1 << len(conditions))
    (r0, s0), (r1, s1) = _views(sources, bits, which)
    t0, t1 = (view for _, view in _views(targets, bits, which))
    in_place = [sources[r] is targets[r] for r in (r0, r1)]
    if all(in_place):
        b0, b1 = _carve(work, 2, s0.shape, s0.dtype)
        np.copyto(b0, s0)
        np.copyto(b1, s1)
        s0, s1 = b0, b1
    if in_place[0] and not in_place[1]:
        _put(t1, s0, y, 1)
        _put(t0, s1, y, -1)
    else:
        _put(t0, s1, y, -1)
        _put(t1, s0, y, 1)


def apply_permutation(a: np.ndarray, conditions: tuple[int, ...], flipped: int,
                      y: bool = False, work=None) -> None:
    """``move_rows`` on the one array ``a``, in place: both sides are buffered."""
    rows = (a,)
    move_rows(rows, rows, conditions, flipped, y, work)


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
