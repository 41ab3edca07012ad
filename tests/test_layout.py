import pytest

from svsim import (Circuit, PartitionLayout, PrecisionMode, TrafficLedger, gates as g,
                   run_circuit)
from svsim.layout import memory_bytes, plan_exchange

GIB = 1 << 30
TIB = 1 << 40


def test_memory_bytes_fp64_32_qubits_is_64_gib():
    assert memory_bytes(32, PrecisionMode.FP64) == 64 * GIB


def test_memory_bytes_byte_50_qubits_is_2048_tib():
    assert memory_bytes(50, PrecisionMode.BYTE) == 2048 * TIB


def test_memory_bytes_single_qubit():
    assert memory_bytes(1, PrecisionMode.FP64) == 32
    assert memory_bytes(1, PrecisionMode.FP32) == 16
    assert memory_bytes(1, PrecisionMode.BYTE) == 4


def test_layout_validation():
    with pytest.raises(ValueError):
        PartitionLayout(4, 5)
    layout = PartitionLayout(40, 32)
    assert layout.rank_count == 256
    assert layout.local_size == 1 << 32


def test_layout_bounds_the_qubit_count():
    assert PartitionLayout(64, 60).rank_count == 16
    for total in (65, 3_000_000):
        with pytest.raises(ValueError, match=r"qubit count must be in \[1, 64\]"):
            PartitionLayout(total, total)
    with pytest.raises(ValueError, match="qubit count"):
        run_circuit(Circuit(65, ()))


def test_plan_high_single_qubit_gate():
    layout = PartitionLayout(40, 32)
    plan = plan_exchange(layout, g.h(35), PrecisionMode.FP64)
    assert plan.kind == "pairwise"
    assert plan.masks == (8,)
    assert plan.element_count == 1 << 31
    # every rank's partner is rank xor 8
    for rank in (0, 3, 200):
        assert (rank ^ plan.masks[0]) ^ plan.masks[0] == rank


def test_total_network_traversal_for_one_high_gate():
    # 256 ranks each send and receive half their 2**32 elements in FP64
    layout = PartitionLayout(40, 32)
    plan = plan_exchange(layout, g.h(35), PrecisionMode.FP64)
    traversal = layout.rank_count * plan.bytes_per_rank * 2
    assert traversal == 16384 * GIB


def test_diagonal_gates_plan_no_exchange():
    layout = PartitionLayout(40, 32)
    for gate in (g.cphase(38, 39, 3), g.z(39), g.phase(33, 2)):
        assert plan_exchange(layout, gate, PrecisionMode.FP64).kind == "none"


def test_plan_local_gates_no_exchange():
    layout = PartitionLayout(10, 6)
    assert plan_exchange(layout, g.h(5), PrecisionMode.FP64).kind == "none"
    assert plan_exchange(layout, g.u4(1, 5, g.CNOT_MATRIX), PrecisionMode.FP64).kind == "none"


def test_plan_two_qubit_one_high():
    layout = PartitionLayout(10, 6)
    plan = plan_exchange(layout, g.u4(2, 8, g.CNOT_MATRIX), PrecisionMode.FP32)
    assert plan.kind == "pairwise"
    assert plan.element_count == 32
    assert plan.bytes_per_element == 8


def test_plan_two_qubit_both_high():
    layout = PartitionLayout(10, 6)
    plan = plan_exchange(layout, g.u4(7, 9, g.CNOT_MATRIX), PrecisionMode.BYTE)
    assert plan.kind == "quad"
    assert plan.masks == (2, 8)
    assert plan.element_count == 3 * 64 // 4
    assert plan.bytes_per_element == 2


def test_bytes_per_element_follows_mode():
    layout = PartitionLayout(8, 6)
    for mode, expect in ((PrecisionMode.FP64, 16), (PrecisionMode.FP32, 8),
                         (PrecisionMode.BYTE, 2)):
        plan = plan_exchange(layout, g.h(7), mode)
        assert plan.bytes_per_element == expect


def test_ledger_counters_monotone():
    ledger = TrafficLedger()
    ledger.count_send(100)
    ledger.count_receive(100)
    ledger.count_tier(64, 2)
    snap = ledger.snapshot()
    assert snap["inter_rank_bytes_sent"] == 100
    assert snap["inter_rank_messages"] == 1
    assert snap["tier_transfer_count"] == 2
