"""All-qubit expectation reporting along the three spin axes.

For each qubit the report gives the probability of the -1 eigenvalue along
x, y and z, i.e. (1 - <sigma>) / 2.  With this convention a qubit in |1>
reads (0.50, 0.50, 1.00) and a qubit in |+> reads (0.00, 0.50, 0.50).

Measurement only reads the state.  A qubit below the local width is summed
rank-locally.  A qubit at or above it is one round of the group exchange of
``exchange`` between partner ranks: each rank sends its partner the stored
half the partner owns, so the send charges the bytes it carries, and sums
the pair products over its own half.  Scalar reductions ride the collective
channel and cost no counted bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Codebook
from .exchange import group_exchange
from .layout import PartitionLayout, TrafficLedger
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


def _pair_sums_local(working: np.ndarray, q: int) -> tuple[float, complex]:
    """(one-weight, cross-product sum) over local pairs split by bit q."""
    view = working.reshape(-1, 2, 1 << q)
    ones = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    cross = complex(np.sum(view[:, 0, :].conj() * view[:, 1, :]))
    return ones, cross


def measure_all(states: list[LocalState], layout: PartitionLayout,
                transport: Transport, ledgers: list[TrafficLedger],
                codebook: Codebook | None = None,
                rank_order: list[int] | None = None) -> ExpectationReport:
    n_local = layout.local_qubits
    n_ranks = layout.rank_count
    order = list(rank_order) if rank_order is not None else list(range(n_ranks))

    workings = [None] * n_ranks
    for rank in order:
        workings[rank] = states[rank].working(codebook)
    local_norms = [float(np.real(np.vdot(w, w))) for w in workings]
    total_norm = sum(transport.collective(local_norms))

    qx, qy, qz = [], [], []
    for q in range(layout.total_qubits):
        ones = [0.0] * n_ranks
        cross = [0j] * n_ranks
        if q < n_local:
            for rank in order:
                ones[rank], cross[rank] = _pair_sums_local(workings[rank], q)
        else:
            bit = q - n_local
            for rank, _, _, (a0, a1) in group_exchange(states, transport, (1 << bit,),
                                                       order, codebook):
                cross[rank] = complex(np.sum(a0.conj() * a1))
                if (rank >> bit) & 1:
                    ones[rank] = local_norms[rank]
        s = sum(transport.collective(cross))
        z = sum(transport.collective(ones))
        qx.append((1.0 - 2.0 * s.real) / 2.0)
        qy.append((1.0 - 2.0 * s.imag) / 2.0)
        qz.append(z)

    return ExpectationReport(tuple(qx), tuple(qy), tuple(qz),
                             norm_deviation=abs(total_norm - 1.0))
