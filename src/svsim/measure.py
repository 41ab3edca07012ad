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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exchange import group_exchange
from .kernels import bit_view
from .layout import PartitionLayout
from .state import LocalState
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


def _local_sums(working: np.ndarray, n_local: int):
    """Norm, one-weights and cross-product sums per local qubit of one slice."""
    pairs = [(bit_view(working, (q,), (0,)), bit_view(working, (q,))) for q in range(n_local)]
    return (float(np.real(np.vdot(working, working))),
            [float(np.sum(np.abs(a1) ** 2)) for _, a1 in pairs],
            [complex(np.sum(a0.conj() * a1)) for a0, a1 in pairs])


def measure_all(states: list[LocalState], layout: PartitionLayout, transport: Transport,
                rank_order: list[int] | None = None) -> ExpectationReport:
    n_local, n_qubits = layout.local_qubits, layout.total_qubits
    n_ranks = layout.rank_count
    order = list(rank_order) if rank_order is not None else list(range(n_ranks))

    norms = [0.0] * n_ranks
    ones = [[0.0] * n_qubits for _ in range(n_ranks)]
    cross = [[0j] * n_qubits for _ in range(n_ranks)]
    for rank in order:
        norms[rank], ones[rank][:n_local], cross[rank][:n_local] = _local_sums(
            states[rank].working(), n_local)
    total_norm = sum(transport.collective(norms))
    for q in range(n_local, n_qubits):
        bit = q - n_local
        for rank, _, _, stacked in group_exchange(states, transport, (1 << bit,), order):
            a0, a1 = states[rank].values(stacked)
            cross[rank][q] = complex(np.sum(a0.conj() * a1))
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
