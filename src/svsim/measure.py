"""All-qubit expectation reporting along the three spin axes.

For each qubit the report gives the probability of the -1 eigenvalue along
x, y and z, i.e. (1 - <sigma>) / 2.  With this convention a qubit in |1>
reads (0.50, 0.50, 1.00) and a qubit in |+> reads (0.00, 0.50, 0.50).

Measurement only reads the state, one rank at a time: each rank's decoded
copy gives its norm and every local qubit's sums before the next rank is
decoded.  A qubit at or above the local width is one round of the group
exchange of ``exchange`` between partner ranks: each rank sends its partner
the stored half the partner owns, decodes the pair of rows the exchange
stacks, and sums the pair products over its own half.  Scalar reductions
ride the collective channel and cost no counted bytes.  Byte-mode states
decode with the codebook they hold, so measurement takes none.

Measurement computes in a workspace of ``work_elements`` complex128
elements: the run's, or one it allocates per call.  Its front holds
``|a|**2`` of a rank's whole slice, computed once per slice, not once per
qubit, and one half-slice buffer.  Per qubit, the one-weight sums a
contiguous copy of the squares where the qubit reads 1, and the cross
product conj(a0) * a1 is formed in the buffer, so each sum reads the same
values in the same layout as the freshly allocated array it replaces.  Fp64
slices are read in storage; fp32 slices are decoded after the buffer, and
byte-mode slices into a new array.  A measured rank qubit stacks its pair
after the buffer too.
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


def work_elements(layout: PartitionLayout, mode: PrecisionMode) -> int:
    """Complex128 elements of the workspace ``measure_all`` computes in.

    A rank's local sums take ``local_size``: its slice's squared magnitudes,
    then a half-slice buffer.  Storage that is not complex128 is stacked
    after them to be decoded.  A measured rank qubit takes the buffer and,
    after it, the exchange's stacked pair.
    """
    size = layout.local_size
    rows = -(-size * mode.row_dtype.itemsize // 16)
    local = size + (0 if mode.dtype == np.complex128 else rows)
    return max(local, size // 2 + rows) if layout.rank_count > 1 else local


def _cross(a0: np.ndarray, a1: np.ndarray, buffer: np.ndarray) -> complex:
    """``sum(conj(a0) * a1)``, formed in ``buffer``'s front in ``a0``'s shape."""
    product = np.conjugate(a0, out=buffer[:a0.size].reshape(a0.shape))
    # numpy rounds a one-element product written over its own input differently
    product = np.multiply(product, a1, out=product if product.size > 1 else None)
    return complex(np.sum(product))


def _local_sums(amps: np.ndarray, n_local: int, work: np.ndarray):
    """Norm, one-weights and cross-product sums per local qubit of one slice.

    ``work`` has ``amps.size`` complex128 elements apart from ``amps``: the
    slice's squared magnitudes fill its first half, and the second is the
    buffer each qubit's sums read.
    """
    size = amps.size
    squares = work.view(np.float64)[:size]
    np.square(np.abs(amps, out=squares), out=squares)
    buffer = work[size // 2:size]
    ones, cross = [], []
    for q in range(n_local):
        a0, a1 = bit_view(amps, (q,), (0,)), bit_view(amps, (q,))
        weights = buffer.view(np.float64)[:a1.size].reshape(a1.shape)
        np.copyto(weights, bit_view(squares, (q,)))
        ones.append(float(np.sum(weights)))
        cross.append(_cross(a0, a1, buffer))
    return float(np.real(np.vdot(amps, amps))), ones, cross


def measure_all(states: list[LocalState], layout: PartitionLayout, transport: Transport,
                rank_order: list[int] | None = None, work: np.ndarray | None = None,
                outbox: np.ndarray | None = None) -> ExpectationReport:
    """Expectations of every qubit along the three axes.

    ``work`` is a complex128 workspace of at least ``work_elements``
    elements, allocated when not given; ``outbox`` is as ``group_exchange``
    takes it.
    """
    n_local, n_qubits = layout.local_qubits, layout.total_qubits
    n_ranks, size = layout.rank_count, layout.local_size
    order = list(rank_order) if rank_order is not None else list(range(n_ranks))
    if work is None:
        work = np.empty(work_elements(layout, states[0].mode), dtype=np.complex128)

    norms = [0.0] * n_ranks
    ones = [[0.0] * n_qubits for _ in range(n_ranks)]
    cross = [[0j] * n_qubits for _ in range(n_ranks)]
    for rank in order:
        norms[rank], ones[rank][:n_local], cross[rank][:n_local] = _local_sums(
            states[rank].amplitudes(work[size:]), n_local, work[:size])
    total_norm = sum(transport.collective(norms))
    for q in range(n_local, n_qubits):
        bit = q - n_local
        for rank, _, _, stacked in group_exchange(states, transport, (1 << bit,), order,
                                                  work=work[size // 2:], outbox=outbox):
            a0, a1 = states[rank].values(stacked)
            cross[rank][q] = _cross(a0, a1, work)
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
