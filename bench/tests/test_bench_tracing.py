"""Tracing: self-time arithmetic, per-layer counts, and clean restoration."""
from __future__ import annotations

import dataclasses
import itertools

import pytest

import svsim
import svsim.engine
import svsim.kernels
import svsim.optimize
import svsim.tier
from svsim import TierConfig, predicted_exchange_bytes
from svsim.codec import Codebook
from svsim.state import LocalState
from svsim.transport import Transport

from bench import tracing, workloads
from bench.tracing import Span, Tracer, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.inner", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", -1, 0.0, 10.0), Span("c1", 0, 1.0, 5.0), Span("c2", 0, 3.0, 7.0),
             Span("c3", 0, 9.0, 12.0)]
    # children cover [1, 7] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_wrapped_calls_nest_into_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: mid())
    top()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("top", -1), ("mid", 0), ("leaf", 1), ("leaf", 1)]
    # top 0..7, mid 1..6, leaves 2..3 and 4..5
    assert self_times(tracer.spans) == pytest.approx([2.0, 3.0, 1.0, 1.0])


def _bindings():
    return {
        "engine.apply_single": svsim.engine.apply_single,
        "engine.measure_all": svsim.engine.measure_all,
        "engine.plan_exchange": svsim.engine.plan_exchange,
        "engine.plan_passes": svsim.engine.plan_passes,
        "engine.run_circuit": svsim.engine.run_circuit,
        "svsim.run_circuit": svsim.run_circuit,
        "optimize.plan_exchange": svsim.optimize.plan_exchange,
        "kernels.apply_diagonal": svsim.kernels.apply_diagonal,
        "codec.canonicalize": svsim.codec.canonicalize,
        "LocalState.working": LocalState.__dict__["working"],
        "Codebook.encode": Codebook.__dict__["encode"],
        "Transport.send": Transport.__dict__["send"],
        "TierAccount.account": svsim.tier.TierAccount.__dict__["account"],
    }


def _tiered_adder():
    workload = workloads.adder_tier(seed=5, width=4)
    return dataclasses.replace(workload, ranks=2, tier_config=TierConfig(1024, 256, 8))


@pytest.mark.parametrize("make", [
    lambda: workloads.adder_byte(seed=2, width=3),
    _tiered_adder,
    lambda: workloads.random_circuit(seed=4, n_qubits=8, ranks=4),
])
def test_traced_run_counts_match_ledgers_and_wrappers_are_restored(make):
    workload = make()
    before = _bindings()
    untraced = svsim.run_circuit(workload.circuit, **workload.run_kwargs())
    with Tracer() as tracer:
        assert svsim.engine.apply_single is not before["engine.apply_single"]
        result = svsim.engine.run_circuit(workload.circuit, **workload.run_kwargs())
        layers = tracing.layer_metrics(tracer.spans, result)
    assert _bindings() == before
    assert tracing.leftover_wrappers() == []

    summary = workloads.RunSummary.of(result)
    assert summary == workloads.RunSummary.of(untraced)
    assert layers["transport.charged_bytes"] == summary.total("inter_rank_bytes_sent")
    assert layers["transport.send.calls"] == summary.total("inter_rank_messages")
    assert layers["layout.predicted_bytes"] == predicted_exchange_bytes(
        workload.circuit, workload.layout, workload.mode)
    high_qubits = workload.layout.total_qubits - workload.layout.local_qubits
    assert layers["measure.measure_all.sends"] == workload.ranks * high_qubits
    kinds = workload.exchange_kinds()
    assert layers["layout.pairwise_gates"] == kinds["pairwise"]
    assert layers["layout.quad_gates"] == kinds["quad"]
    assert layers["kernels.bytes"] > 0 and layers["engine.run_circuit.self_s"] > 0
    if workload.mode is svsim.PrecisionMode.BYTE:
        assert layers["codec.encode.elems"] > 0
        assert layers["codec.canon_per_encoded"] == pytest.approx(
            layers["codec.canonicalize.elems"] / layers["codec.encode.elems"])
    if workload.tier_config is not None:
        assert layers["tier.groups"] > 0 and layers["tier.high_water_bytes"] > 0


def test_wrappers_are_restored_when_a_traced_run_raises():
    before = _bindings()
    workload = workloads.hadamard(seed=0, n_qubits=8, ranks=2)
    with pytest.raises(ValueError):
        with Tracer():
            svsim.engine.run_circuit(workload.circuit, ranks=3)
    assert _bindings() == before
    assert tracing.leftover_wrappers() == []
