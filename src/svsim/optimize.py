"""Qubit relabeling and the exchange-volume label optimizer.

Relabeling renames qubit indices through a bijection; measurement semantics
survive because reports are presented back in the original labels.  Since
exchange volume depends only on whether a gate's qubits land in the rank
bits, a good relabeling parks the qubits that induce the most traffic on the
low indices.
"""
from __future__ import annotations

from dataclasses import replace

from .circuit import Circuit
from .engine import plan_run
# bench/tracing.py rebinds plan_exchange in every svsim module that holds
# it, and its tests look it up here
from .layout import PartitionLayout, exchange_qubits, exchanged_elements, plan_exchange
from .state import PrecisionMode


def relabel(circuit: Circuit, permutation: tuple[int, ...]) -> Circuit:
    """Map every gate qubit q to permutation[q]; compose the label record."""
    if sorted(permutation) != list(range(circuit.n_qubits)):
        raise ValueError("relabeling must be a bijection on the qubit indices")
    new_gates = tuple(
        replace(gate, qubits=tuple(permutation[q] for q in gate.qubits))
        for gate in circuit.gates)
    new_label = tuple(permutation[p] for p in circuit.label_permutation)
    return Circuit(circuit.n_qubits, new_gates, new_label)


def predicted_exchange_bytes(circuit: Circuit, layout: PartitionLayout,
                             mode: PrecisionMode = PrecisionMode.FP64) -> int:
    """Total bytes all ranks would send for the circuit's gate exchanges.

    Measurement traffic is excluded: it depends only on the layout, not on
    the labeling, so it cannot change a comparison between labelings.
    """
    return plan_run(circuit, layout, mode).exchange_bytes


def optimize_labels(circuit: Circuit, layout: PartitionLayout) -> tuple[int, ...]:
    """Permutation placing the heaviest exchange-inducing qubits lowest.

    Each qubit is weighted by the exchange volume the non-diagonal gates on
    it would cause if it sat in the rank bits; qubits are then assigned to
    indices in decreasing weight order (ties keep the original order).  The
    identity is returned whenever the reordering would not predict strictly
    less traffic, so the result never predicts more than the identity.
    """
    n = circuit.n_qubits
    weights = [0] * n
    for gate in circuit.gates:
        qubits = exchange_qubits(gate, 0)
        for q in qubits:
            weights[q] += exchanged_elements(layout.local_size, len(qubits))
    by_weight = sorted(range(n), key=lambda q: (-weights[q], q))
    permutation = [0] * n
    for new_index, q in enumerate(by_weight):
        permutation[q] = new_index
    permutation = tuple(permutation)

    identity_cost = predicted_exchange_bytes(circuit, layout)
    candidate_cost = predicted_exchange_bytes(relabel(circuit, permutation), layout)
    if candidate_cost < identity_cost:
        return permutation
    return tuple(range(n))
