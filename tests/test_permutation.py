"""X, Y and CNOT as data movement, against the 0/1 matrix path they replace.

The matrix path is what the engine runs when ``gates.permutation`` gives no
permutation form: every X, Y and CNOT then goes through the matrix kernels
and, in byte mode, through the codec and its barrier.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import Circuit, PrecisionMode, gates as g, run_circuit
from svsim.engine import _Engine
from svsim.layout import partition
from svsim.tier import TierConfig

from conftest import haar_unitary, random_circuit

N = 6


def permutation_circuit(rng: np.random.Generator) -> Circuit:
    """Random gates on a dense state, with X, Y and CNOT on every kind of bit pair.

    On 8 ranks qubits 3-5 are rank bits, so CNOT on (5, 4) is a quad
    exchange, on (0, 5) and (5, 0) a pairwise one, and on (0, 2) local.
    """
    moves = [g.x(0), g.x(N - 1), g.y(0), g.y(N - 1), g.cnot(0, 2), g.cnot(0, N - 1),
             g.cnot(N - 1, 0), g.cnot(N - 1, N - 2), g.cnot(2, 3)]
    for _ in range(8):
        a, b = (int(q) for q in rng.choice(N, 2, replace=False))
        moves += [g.cnot(a, b), [g.x, g.y][int(rng.integers(2))](a)]
    rng.shuffle(moves)
    gates = [g.h(q) for q in range(0, N, 2)]
    gates += list(random_circuit(rng, N, 10, measured=False).gates)
    for i, gate in enumerate(moves):
        gates.append(gate)
        if i % 3 == 0:
            gates.append(g.u2(int(rng.integers(N)), haar_unitary(rng, 2)))
    return Circuit(N, tuple(gates) + (g.measure_all(),))


def outcome(result):
    """What a run leaves: stored arrays, report bits, ledgers, tier account, codebook."""
    account = None
    if result.tier_accounts is not None:
        (tier,) = result.tier_accounts
        account = (tier.static_fast_bytes, tier.high_water_bytes,
                   [bool(fast) for fast in tier.fast_resident], tier.ledger.snapshot())
    book = result.codebook
    return ([state.data.copy() for state in result.states], repr(result.report),
            [ledger.snapshot() for ledger in result.ledgers], account,
            None if book is None else (book.dump(), book.units.tobytes(),
                                        book.mag_overflow, book.phase_overflow))


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(PrecisionMode)),
       ranks=st.sampled_from([1, 2, 4, 8]), tiered=st.booleans(), ordered=st.booleans())
def test_moving_data_leaves_what_the_matrix_path_leaves(seed, mode, ranks, tiered, ordered):
    circuit = permutation_circuit(np.random.default_rng(seed))
    local_bytes = (1 << (N - ranks.bit_length() + 1)) * mode.bytes_per_element
    tier = TierConfig(local_bytes // 2, local_bytes // 8) if tiered else None
    runs = []
    for matrix_path in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if matrix_path:
                patch.setattr(g, "permutation", lambda gate, bits=None: None)
            runs.append(outcome(run_circuit(circuit, ranks=ranks, mode=mode, tier_config=tier,
                                            rank_order_seed=seed if ordered else None)))
    (moved, *rest), (computed, *expected) = runs
    assert rest == expected
    # equal as numbers; fp zeros may differ in sign, byte codes may not
    assert all(np.array_equal(a, b) for a, b in zip(moved, computed))
    if mode is PrecisionMode.BYTE:
        assert [a.tobytes() for a in moved] == [b.tobytes() for b in computed]


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
@pytest.mark.parametrize("n, ranks, gate", [
    (16, 1, g.x(0)), (16, 1, g.x(15)), (16, 1, g.cnot(0, 15)), (16, 1, g.y(15)),
    (18, 4, g.cnot(0, 17)), (18, 4, g.cnot(17, 16)), (18, 4, g.y(16)),
])
def test_a_permutation_allocates_nothing_of_a_slice_size(mode, n, ranks, gate):
    # every slice holds 2**16 amplitudes; the plan sizes the workspace for the gate
    circuit = Circuit(n, (gate,))
    engine = _Engine(circuit, partition(n, ranks), mode, None, None)
    (plan,) = engine.plan.exchanges
    engine._execute(gate, plan, 0)  # fills the view cache
    tracemalloc.start()
    try:
        engine._execute(gate, plan, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < engine.states[0].data.nbytes // 16, peak
