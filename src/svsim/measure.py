"""All-qubit expectation reporting along the three spin axes.

For each qubit the report gives the probability of the -1 eigenvalue along
x, y and z, i.e. (1 - <sigma>) / 2.  With this convention a qubit in |1>
reads (0.50, 0.50, 1.00) and a qubit in |+> reads (0.00, 0.50, 0.50).

Measurement only reads the state, one rank at a time, and reads its rows
where they lie, through ``LocalState.values``: each rank's amplitudes give
its norm and every local qubit's sums before the next rank is read.  A
qubit at or above the local width is one round of the group exchange of
``exchange`` between partner ranks: each rank sends its partner the stored
half the partner owns, reads its own half in storage and the received one
as it arrived, and sums the pair products over its own half.  Scalar
reductions ride the collective channel and cost no counted bytes.
Byte-mode states decode with the codebook they hold, so measurement takes
none.

A slice's ``|a|**2`` is computed once; after that, each sum reads its data
once and writes nothing of a slice's size.  The squares, viewed as 2**(n-k)
rows of 2**k with k = n // 2, give their column and row sums once, and
every local qubit's one-weight is a sum over 2**k or 2**(n-k) of those.
Each cross sum adds up conjugating dot products (``np.vecdot``), one per
pair of blocks the qubit couples.  For the ``LOW_QUBITS`` lowest qubits the
blocks are columns of transposed chunks of rows of 16 amplitudes; for every
higher qubit they are read in place.  A measured rank qubit's two rows are
each contiguous, so its cross sum is one ``np.vdot``.  The norm is
``np.vdot`` of the slice with itself.

Measurement computes in a workspace of ``work_elements`` complex128
elements: the run's, or one it allocates per call.  Its front holds the
squares and their column and row sums; once those are summed, it holds a
transposed chunk or the dot products of one qubit's blocks.  Fp64 slices
are read in storage; fp32 slices are cast after the front, and byte-mode
slices decode into a new array.  A measured rank qubit's rows are read the
same way: in place in fp64, cast into one half each of the workspace's
front in fp32, and decoded into new arrays in byte mode.  The sums do not
depend on the workspace's contents or offset.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exchange import group_exchange
from .kernels import bit_view
from .layout import PartitionLayout
from .state import LocalState, PrecisionMode
from .transport import Transport


@dataclass(frozen=True)
class ExpectationReport:
    qx: tuple[float, ...]
    qy: tuple[float, ...]
    qz: tuple[float, ...]
    norm_deviation: float = 0.0

    @property
    def n_qubits(self) -> int:
        return len(self.qz)

    def relabelled(self, permutation: tuple[int, ...]) -> "ExpectationReport":
        """Present values in program labels: label q lives at storage perm[q]."""
        return ExpectationReport(
            tuple(self.qx[p] for p in permutation),
            tuple(self.qy[p] for p in permutation),
            tuple(self.qz[p] for p in permutation),
            self.norm_deviation)

    def max_difference(self, other: "ExpectationReport") -> float:
        return max(
            max(abs(a - b) for a, b in zip(self.qx, other.qx)),
            max(abs(a - b) for a, b in zip(self.qy, other.qy)),
            max(abs(a - b) for a, b in zip(self.qz, other.qz)))


# Qubits below this take their cross sums from chunks of the slice's rows of
# 16 amplitudes, transposed so that each column is contiguous: a dot product
# per pair of blocks of 2**q < 16 amplitudes costs more per call than it
# reads.  The four low qubits' cross sums, best of 9-15 on 2 CPUs with one
# OpenBLAS thread, at 2**16 / 2**20 amplitudes: 0.89 / 13.5 ms as
# conj(a0) * a1 formed in a buffer, 1.04 / 15.3 ms as vecdot, 0.25 / 5.1 ms
# transposed.  One real Gram matrix took 0.33 / 3.9 ms, but its first
# level-3 BLAS call maps about 0.45 MiB of packing buffers.
LOW_QUBITS = 4
# Rows per transposed chunk, 512 KiB.  Of 2**8 to 2**14 rows, 2**11 and
# 2**12 were fastest at both sizes.
CHUNK_ROWS = 1 << 11


def _front_elements(n_local: int) -> int:
    """Complex128 elements ``_local_sums`` computes in, before any decoded slice."""
    return (1 << n_local) // 2 + (1 << (n_local - n_local // 2))


def work_elements(layout: PartitionLayout, mode: PrecisionMode) -> int:
    """Complex128 elements of the workspace ``measure_all`` computes in.

    A rank's local sums take ``_front_elements``: its slice's squared
    magnitudes and their column and row sums.  Fp32 storage is cast after
    them; a measured rank qubit's two fp32 rows, half a slice each, then fit
    in the same elements.  Fp64 is read in place, and byte mode decodes into
    new arrays.
    """
    cast = layout.local_size if mode is PrecisionMode.FP32 else 0
    return _front_elements(layout.local_qubits) + cast


def _low_cross(amps: np.ndarray, buffer: np.ndarray) -> list[complex]:
    """``sum(conj(a0) * a1)`` of each of the ``LOW_QUBITS`` lowest qubits.

    The slice's rows of 16 amplitudes are transposed chunk by chunk into
    ``buffer``, half the slice at least; in a chunk, each pair of columns a
    qubit couples is one conjugating dot product, and the chunks' sums add
    up in order.
    """
    rows = amps.reshape(-1, 1 << LOW_QUBITS)
    step = min(CHUNK_ROWS, len(rows) // 2)
    cross = [0j] * LOW_QUBITS
    for start in range(0, len(rows), step):
        columns = buffer[:step << LOW_QUBITS].reshape(1 << LOW_QUBITS, step)
        np.copyto(columns, rows[start:start + step].T)
        for q in range(LOW_QUBITS):
            blocks = columns.reshape(-1, 2, 1 << q, step)
            cross[q] += complex(np.vecdot(blocks[:, 0], blocks[:, 1]).sum())
    return cross


def _local_sums(amps: np.ndarray, n_local: int, work: np.ndarray):
    """Norm, one-weights and cross-product sums per local qubit of one slice.

    ``work`` has ``_front_elements(n_local)`` complex128 elements apart from
    ``amps``: the slice's squared magnitudes, a table of 2**(n-k) rows of
    2**k with k = n // 2, fill its front, and its column and row sums follow.
    Once those are summed, the front holds the cross sums' transposed chunks
    and dot products.
    """
    size, k = amps.size, n_local // 2
    reals = work.view(np.float64)
    squares = np.square(np.abs(amps, out=reals[:size]), out=reals[:size])
    table = squares.reshape(-1, 1 << k)
    sums = reals[size:size + (1 << k) + len(table)]
    cols = np.sum(table, axis=0, out=sums[:1 << k])
    rows = np.sum(table, axis=1, out=sums[1 << k:])
    ones = [float(bit_view(cols, (q,)).sum()) for q in range(k)]
    ones += [float(bit_view(rows, (q - k,)).sum()) for q in range(k, n_local)]
    low = LOW_QUBITS if n_local > LOW_QUBITS else 0
    cross = _low_cross(amps, work[:size // 2]) if low else []
    for q in range(low, n_local):
        pairs = amps.reshape(-1, 2, 1 << q)
        dots = np.vecdot(pairs[:, 0], pairs[:, 1], out=work[:len(pairs)])
        cross.append(complex(dots.sum()))
    return float(np.real(np.vdot(amps, amps))), ones, cross


def measure_all(states: list[LocalState], layout: PartitionLayout, transport: Transport,
                rank_order: list[int] | None = None, work: np.ndarray | None = None,
                outbox: np.ndarray | None = None) -> ExpectationReport:
    """Expectations of every qubit along the three axes.

    ``work`` is a complex128 workspace of at least ``work_elements``
    elements, allocated when not given; ``outbox`` is as ``group_exchange``
    takes it.
    """
    n_local, n_qubits, n_ranks = layout.local_qubits, layout.total_qubits, layout.rank_count
    front, half = _front_elements(n_local), layout.local_size // 2
    order = list(rank_order) if rank_order is not None else list(range(n_ranks))
    if work is None:
        work = np.empty(work_elements(layout, states[0].mode), dtype=np.complex128)

    norms = [0.0] * n_ranks
    ones = [[0.0] * n_qubits for _ in range(n_ranks)]
    cross = [[0j] * n_qubits for _ in range(n_ranks)]
    for rank in order:
        norms[rank], ones[rank][:n_local], cross[rank][:n_local] = _local_sums(
            states[rank].values(states[rank].data, work[front:]), n_local, work[:front])
    total_norm = sum(transport.collective(norms))
    for q in range(n_local, n_qubits):
        bit = q - n_local
        for rank, _, _, rows in group_exchange(states, transport, (1 << bit,), order,
                                               outbox=outbox):
            a0, a1 = (states[rank].values(bit_view(*row), work[p * half:])
                      for p, row in enumerate(rows))
            cross[rank][q] = complex(np.vdot(a0, a1))
            if (rank >> bit) & 1:
                ones[rank][q] = norms[rank]

    qx, qy, qz = [], [], []
    for q in range(n_qubits):
        s = sum(transport.collective([c[q] for c in cross]))
        z = sum(transport.collective([o[q] for o in ones]))
        qx.append((1.0 - 2.0 * s.real) / 2.0)
        qy.append((1.0 - 2.0 * s.imag) / 2.0)
        qz.append(z)

    return ExpectationReport(tuple(qx), tuple(qy), tuple(qz),
                             norm_deviation=abs(total_norm - 1.0))
