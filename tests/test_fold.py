"""Leading X gates on local qubits fold into the starting basis state.

``RunPlan.folded`` names the X gates on local qubits that come before any
other gate.  A run starts from the basis state they name instead of moving
its unit amplitude, and leaves the same bits, counts and accounts as the run
without the fold.
"""
import dataclasses

import numpy as np
import pytest

import svsim.engine
from svsim import Circuit, PrecisionMode, build_adder, gates as g, run_circuit
from svsim.engine import _Engine, folded_x, plan_run
from svsim.layout import partition
from svsim.tier import TierConfig

from conftest import haar_unitary, random_circuit


def leading_x_circuit(rng, n):
    """X gates on local and rank qubits, interleaved, one qubit twice, then more gates.

    On 4 ranks qubits n - 2 and n - 1 are rank bits; on 2 ranks only n - 1.
    The X after the first H must still run.
    """
    leading = [g.x(0), g.x(n - 1), g.x(2), g.x(n - 2), g.x(0), g.x(n - 3), g.x(3)]
    rest = [g.h(1), g.x(2), g.u2(4, haar_unitary(rng, 2)), g.cphase(0, n - 1, 3)]
    rest += random_circuit(rng, n, 16, measured=False).gates
    return Circuit(n, tuple(leading + rest) + (g.measure_all(),))


def unfolded(monkeypatch):
    """Makes every later run plan without the fold."""
    def plan(*args):
        return dataclasses.replace(plan_run(*args), folded=())

    monkeypatch.setattr(svsim.engine, "plan_run", plan)


def outcome(result):
    book, tier = result.codebook, result.tier_accounts
    return ([state.data.tobytes() for state in result.states], result.report,
            [ledger.snapshot() for ledger in result.ledgers],
            None if book is None else (book.dump(), book.units.tobytes()),
            None if tier is None else [(account.ledger.snapshot(), account.high_water_bytes)
                                       for account in tier])


def test_the_plan_folds_only_local_x_gates_before_any_other_gate(rng):
    circuit = leading_x_circuit(rng, 8)
    assert folded_x(circuit.gates, 8) == (0, 1, 2, 3, 4, 5, 6)
    assert folded_x(circuit.gates, 7) == (0, 2, 3, 4, 5, 6)
    assert folded_x(circuit.gates, 6) == (0, 2, 4, 5, 6)
    assert plan_run(circuit, partition(8, 4), PrecisionMode.FP64).folded == (0, 2, 4, 5, 6)
    assert folded_x((g.h(0), g.x(1)), 4) == ()
    adder, _ = build_adder(8, [200, 111])
    assert plan_run(adder, partition(16, 1), PrecisionMode.BYTE).folded == tuple(
        range(sum(gate.kind == "X" for gate in adder.gates)))


@pytest.mark.parametrize("mode", list(PrecisionMode))
@pytest.mark.parametrize("ranks", [1, 2, 4])
@pytest.mark.parametrize("tiered", [False, True])
def test_a_folded_run_leaves_what_the_unfolded_run_leaves(monkeypatch, mode, ranks, tiered):
    n = 8
    circuit = leading_x_circuit(np.random.default_rng(ranks), n)
    layout = partition(n, ranks)
    local_bytes = layout.local_size * mode.bytes_per_element
    tier = TierConfig(local_bytes // 2, local_bytes // 8) if tiered else None
    plan = plan_run(circuit, layout, mode, tier)
    assert plan.folded
    result = run_circuit(circuit, ranks=ranks, mode=mode, tier_config=tier, rank_order_seed=3)
    assert all(ledger.snapshot() == plan.ledger.snapshot() for ledger in result.ledgers)
    with monkeypatch.context() as patch:
        unfolded(patch)
        reference = run_circuit(circuit, ranks=ranks, mode=mode, tier_config=tier,
                                rank_order_seed=3)
    assert outcome(result) == outcome(reference)


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_a_folded_x_moves_nothing_and_a_later_x_runs(monkeypatch, mode):
    moved, running = [], []
    execute = _Engine._execute

    def tracked(self, gate, plan, ordinal):
        running.append(ordinal)
        execute(self, gate, plan, ordinal)

    def spy(name):
        kernel = getattr(svsim.engine, name)
        return lambda *args, **kwargs: (moved.append(running[-1]), kernel(*args, **kwargs))

    monkeypatch.setattr(_Engine, "_execute", tracked)
    for name in ("apply_permutation", "move_rows"):
        monkeypatch.setattr(svsim.engine, name, spy(name))
    # 2 ranks: qubit 7 is the rank bit, and its X exchanges
    circuit = leading_x_circuit(np.random.default_rng(0), 8)
    result = run_circuit(circuit, ranks=2, mode=mode)
    assert set(moved) == {1, 8} | {i for i, gate in enumerate(circuit.gates)
                                   if i > 8 and g.permutation(gate) is not None
                                   and (mode is not PrecisionMode.BYTE or gate.kind != "Y")}
    assert running[:2] == [1, 7]
    assert all(ledger.gate_operations == len(circuit.gates) for ledger in result.ledgers)
