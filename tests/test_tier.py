import numpy as np
import pytest

from svsim import PrecisionMode, gates as g, run_circuit
from svsim.layout import TrafficLedger
from svsim.tier import TierAccount, TierConfig, naive_staging_bytes, plan_passes

from conftest import exact_class_circuit, random_circuit

FP64 = PrecisionMode.FP64


def low_run(n_gates, n_qubits=2):
    return tuple(g.h(i % n_qubits) for i in range(n_gates))


def test_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        TierConfig(1024, 100)
    with pytest.raises(ValueError, match="two chunks"):
        TierConfig(1024, 1024)


def test_whole_state_resident_plan_is_one_pass_zero_traffic():
    state_bytes = (1 << 10) * 16
    config = TierConfig(state_bytes, state_bytes // 2)
    gates = low_run(6)
    plan = plan_passes(gates, config, 10, FP64)
    ledger = TrafficLedger()
    account = TierAccount(state_bytes, config, ledger)
    assert account.slow_bytes == 0
    for group in plan.groups:
        account.account(group)
    assert ledger.tier_bytes_moved == 0
    assert ledger.tier_transfer_count == 0
    assert len(plan.groups) == 1


def test_low_run_costs_two_crossings_of_slow_bytes_regardless_of_length():
    state_bytes = (1 << 10) * 16
    config = TierConfig(state_bytes // 4, state_bytes // 64)
    for n_gates in (1, 4, 16):
        gates = low_run(n_gates)
        plan = plan_passes(gates, config, 10, FP64)
        ledger = TrafficLedger()
        account = TierAccount(state_bytes, config, ledger)
        for group in plan.groups:
            account.account(group)
        assert ledger.tier_bytes_moved == 2 * account.slow_bytes


def test_naive_per_gate_staging_reference():
    state_bytes = (1 << 10) * 16
    config = TierConfig(state_bytes // 4, state_bytes // 64)
    gates = low_run(16)
    ledger = TrafficLedger()
    account = TierAccount(state_bytes, config, ledger)
    assert naive_staging_bytes(gates, config, 10, FP64) == 32 * account.slow_bytes


def test_mid_gate_pairs_every_chunk_exactly_once():
    # chunk holds 2**c elements; a gate on qubit c pairs chunks (j, j+1)
    n_local = 8
    state_bytes = (1 << n_local) * 16
    chunk_bytes = state_bytes // 16
    c = 4
    config = TierConfig(state_bytes // 2, chunk_bytes)
    plan = plan_passes((g.h(c),), config, n_local, FP64)
    (group,) = plan.groups
    assert group.kind == "mid"
    assert group.chunk_groups == tuple((j, j + 1) for j in range(0, 16, 2))


def test_mid_gate_with_higher_stride():
    n_local = 8
    state_bytes = (1 << n_local) * 16
    config = TierConfig(state_bytes // 2, state_bytes // 16)
    plan = plan_passes((g.h(6),), config, n_local, FP64)
    (group,) = plan.groups
    assert group.chunk_groups == tuple(
        (j, j + 4) for j in range(16) if not j & 4)


def test_diagonal_gates_group_into_runs_regardless_of_qubit():
    n_local = 8
    state_bytes = (1 << n_local) * 16
    config = TierConfig(state_bytes // 4, state_bytes // 16)
    gates = (g.cphase(7, 6, 2), g.z(7), g.h(0), g.phase(6, 1))
    plan = plan_passes(gates, config, n_local, FP64)
    assert len(plan.groups) == 1
    assert plan.groups[0].kind == "run"


def test_lookahead_window_splits_runs():
    config = TierConfig(4096, 256, lookahead_window=4)
    plan = plan_passes(low_run(10), config, 8, FP64)
    assert [len(group.gate_indices) for group in plan.groups] == [4, 4, 2]


def test_tiered_run_bitwise_identical_fp64(rng):
    circuit = random_circuit(rng, 10, 24)
    state_bytes = (1 << 10) * 16
    config = TierConfig(state_bytes // 4, state_bytes // 64)
    plain = run_circuit(circuit)
    tiered = run_circuit(circuit, tier_config=config)
    assert np.array_equal(plain.states[0].data, tiered.states[0].data)
    assert plain.report == tiered.report
    assert tiered.total_tier_bytes > 0


def test_tiered_distributed_equivalence(rng):
    circuit = exact_class_circuit(rng, 9, 20)
    state_bytes = (1 << 7) * 16
    config = TierConfig(state_bytes // 4, state_bytes // 32)
    plain = run_circuit(circuit, ranks=4)
    tiered = run_circuit(circuit, ranks=4, tier_config=config)
    for a, b in zip(plain.states, tiered.states):
        assert np.array_equal(a.data, b.data)
    assert plain.total_bytes_sent == tiered.total_bytes_sent


def test_planned_staging_beats_naive_for_test_corpus(rng):
    state_bytes = (1 << 9) * 16
    config = TierConfig(state_bytes // 4, state_bytes // 32)
    for trial in range(6):
        circuit = random_circuit(rng, 9, 20, measured=False)
        plan = plan_passes(circuit.gates, config, 9, FP64)
        ledger = TrafficLedger()
        account = TierAccount(state_bytes, config, ledger)
        for group in plan.groups:
            account.account(group)
        assert ledger.tier_bytes_moved <= naive_staging_bytes(
            circuit.gates, config, 9, FP64)


def test_high_water_mark_respects_capacity(rng):
    circuit = random_circuit(rng, 9, 30)
    state_bytes = (1 << 9) * 16
    config = TierConfig(state_bytes // 4, state_bytes // 32)
    result = run_circuit(circuit, tier_config=config)
    for account in result.tier_accounts:
        assert account.high_water_bytes <= config.fast_capacity_bytes


def test_recommended_split_follows_four_elevenths_guidance():
    # capacities shaped like a 96-unit fast tier against a 128-unit state
    chunk = 1024
    state = 1280 * chunk
    fast_capacity = 960 * chunk
    config = TierConfig(fast_capacity, chunk)
    account = TierAccount(state, config, TrafficLedger())
    slow = account.slow_bytes
    fast = account.static_fast_bytes
    assert fast <= fast_capacity
    assert abs(slow / fast - 4 / 11) < 0.005


def test_placement_interleaves_chunks():
    chunk = 256
    config = TierConfig(6 * chunk + 4 * chunk, chunk)
    account = TierAccount(16 * chunk, config, TrafficLedger())
    flags = account.fast_resident
    # fast chunks are spread across the index range, not packed at the front
    assert any(flags[i] != flags[i + 1] for i in range(len(flags) - 1))


def test_quad_mid_gate_needs_four_chunk_slots():
    n_local = 6
    state_bytes = (1 << n_local) * 16
    chunk_bytes = state_bytes // 16
    tight = TierConfig(2 * chunk_bytes, chunk_bytes)
    with pytest.raises(ValueError, match="co-resident"):
        plan_passes((g.u4(2, 3, g.CNOT_MATRIX),), tight, n_local, FP64)
    roomy = TierConfig(4 * chunk_bytes, chunk_bytes)
    plan = plan_passes((g.u4(2, 3, g.CNOT_MATRIX),), roomy, n_local, FP64)
    assert all(len(members) == 4 for members in plan.groups[0].chunk_groups)


def test_single_element_chunks_fall_back_to_per_gate_staging():
    n_local = 4
    state_bytes = (1 << n_local) * 16
    config = TierConfig(64, 16)
    plan = plan_passes((g.h(0), g.h(1)), config, n_local, FP64)
    # chunk width zero: nothing can group, every gate stages chunk pairs
    assert [group.kind for group in plan.groups] == ["mid", "mid"]


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_every_rank_carries_one_replay_of_the_plan(rng, mode):
    circuit = random_circuit(rng, 9, 30)
    state_bytes = (1 << 7) * mode.bytes_per_element
    config = TierConfig(state_bytes // 4, state_bytes // 32)
    result = run_circuit(circuit, ranks=4, mode=mode, tier_config=config)
    ledger = TrafficLedger()
    account = TierAccount(state_bytes, config, ledger)
    for group in plan_passes(circuit.gates, config, 7, mode).groups:
        account.account(group)
    assert ledger.tier_bytes_moved > 0
    for rank_ledger in result.ledgers:
        assert rank_ledger.tier_bytes_moved == ledger.tier_bytes_moved
        assert rank_ledger.tier_transfer_count == ledger.tier_transfer_count
    (one,) = result.tier_accounts
    assert one.high_water_bytes == account.high_water_bytes
