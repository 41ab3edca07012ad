import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import PrecisionMode, gates as g, run_circuit
from svsim.kernels import components
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


def _co_staged(group, n_chunks):
    """The chunk-index groups a "mid" group co-stages, as ``TierAccount`` reads them."""
    views = components(np.arange(n_chunks), group.bits)
    return tuple(sorted(zip(*(view.ravel().tolist() for view in views))))


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
    assert _co_staged(group, 16) == tuple((j, j + 1) for j in range(0, 16, 2))
    # each slow chunk crosses once in and once out
    ledger = TrafficLedger()
    account = TierAccount(state_bytes, config, ledger)
    account.account(group)
    assert ledger.tier_bytes_moved == 2 * account.slow_bytes
    assert ledger.tier_transfer_count == 2 * account.slow_bytes // chunk_bytes


def test_mid_gate_with_higher_stride():
    n_local = 8
    state_bytes = (1 << n_local) * 16
    config = TierConfig(state_bytes // 2, state_bytes // 16)
    plan = plan_passes((g.h(6),), config, n_local, FP64)
    (group,) = plan.groups
    assert _co_staged(group, 16) == tuple(
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
    assert all(len(members) == 4 for members in _co_staged(plan.groups[0], 16))


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


def _closed_form(gate_list, config, n_local, mode):
    """Tier bytes, transfers and high-water mark as ``TierAccount`` counts them."""
    ledger = TrafficLedger()
    account = TierAccount((1 << n_local) * mode.bytes_per_element, config, ledger)
    for group in plan_passes(gate_list, config, n_local, mode).groups:
        account.account(group)
    return ledger.tier_bytes_moved, ledger.tier_transfer_count, account.high_water_bytes


def _listed(gate_list, config, n_local, mode):
    """The same counters from a replay that lists every co-staged chunk group.

    Chunks are placed as ``TierAccount`` places them.  A "run" or "exchange"
    group stages each slow chunk in and out and a "measure" group only in,
    one at a time.  A "mid" gate on chunk-index masks m co-stages chunk j
    (j & m == 0) with every j | subset of m, and stages that group's slow
    chunks in and out together.
    """
    bpe = mode.bytes_per_element
    state_bytes = (1 << n_local) * bpe
    chunk = min(config.chunk_bytes, state_bytes)
    n_chunks = state_bytes // chunk
    chunk_qubits = (chunk // bpe).bit_length() - 1
    fast = [True] * n_chunks
    if state_bytes > config.fast_capacity_bytes:
        budget = max(config.fast_capacity_bytes // chunk - 4, 0)
        fast_chunks = min(budget, state_bytes * 11 // 15 // chunk, n_chunks)
        fast = [(j + 1) * fast_chunks // n_chunks > j * fast_chunks // n_chunks
                for j in range(n_chunks)]
    static = sum(fast) * chunk
    counters = [0, 0, static]

    def stage(count, way):
        resident = static + count * chunk
        if resident > config.fast_capacity_bytes:
            raise ValueError("staging would overflow the fast tier")
        counters[2] = max(counters[2], resident)
        counters[0] += way * count * chunk
        counters[1] += way * count

    for group in plan_passes(gate_list, config, n_local, mode).groups:
        if group.kind != "mid":
            for j in range(n_chunks):
                if not fast[j]:
                    stage(1, 1 if group.kind == "measure" else 2)
            continue
        (index,) = group.gate_indices
        masks = [1 << (q - chunk_qubits) for q in gate_list[index].qubits
                 if q >= chunk_qubits]
        for j in range(n_chunks):
            if j & sum(masks):
                continue
            members = [j]
            for m in masks:
                members += [x | m for x in members]
            slow = sum(not fast[x] for x in members)
            if slow:
                stage(slow, 2)
    return tuple(counters)


def _outcome(count, *args):
    try:
        return count(*args)
    except ValueError as exc:
        return str(exc)


GATE = st.tuples(st.sampled_from(["H", "CNOT", "U4", "CPHASE", "M"]),
                 st.integers(0, 9), st.integers(1, 9))


@given(gate_specs=st.lists(GATE, max_size=12), n_local=st.integers(2, 8),
       mode=st.sampled_from(list(PrecisionMode)), chunk_shift=st.integers(0, 8),
       capacity_chunks=st.integers(2, 24), window=st.integers(1, 6))
def test_closed_form_counts_equal_a_replay_of_every_chunk_group(
        gate_specs, n_local, mode, chunk_shift, capacity_chunks, window):
    # qubits reach up to two rank bits above the local ones
    n_qubits = n_local + 2
    gate_list = []
    for kind, q1, step in gate_specs:
        q1 %= n_qubits
        q2 = (q1 + 1 + step % (n_qubits - 1)) % n_qubits
        gate_list.append({"H": lambda: g.h(q1), "CNOT": lambda: g.cnot(q1, q2),
                          "U4": lambda: g.u4(q1, q2, g.CNOT_MATRIX),
                          "CPHASE": lambda: g.cphase(q1, q2, 2),
                          "M": g.measure_all}[kind]())
    # from the whole state down to one element per chunk
    chunk = ((1 << n_local) * mode.bytes_per_element) >> min(chunk_shift, n_local)
    config = TierConfig(capacity_chunks * chunk, chunk, window)
    args = (tuple(gate_list), config, n_local, mode)
    assert _outcome(_closed_form, *args) == _outcome(_listed, *args)
