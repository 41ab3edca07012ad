"""Workload generation, the run check, and the benchmark's metric list."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import svsim
from svsim import serialize_circuit

from bench import run, workloads
from bench.workloads import RunSummary, build_workload, check_run, reference

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_for_a_seed(name):
    first, again = build_workload(name, 11), build_workload(name, 11)
    assert serialize_circuit(first.circuit) == serialize_circuit(again.circuit)
    assert first.addends == again.addends
    if name != "hadamard-fp32-r16":
        other = build_workload(name, 12)
        assert serialize_circuit(other.circuit) != serialize_circuit(first.circuit)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_circuit_has_every_exchange_kind_in_fixed_numbers(seed):
    workload = build_workload("random-fp64-r16", seed)
    want = {"none": 0, "pairwise": 0, "quad": 0}
    for (_, kind), count in workloads.RANDOM_MIX.items():
        want[kind] += count
    assert workload.exchange_kinds() == want
    assert all(want.values())
    kinds = {gate.kind for gate in workload.circuit.gates}
    assert kinds == {"H", "X", "Y", "Z", "PHASE", "CPHASE", "CNOT", "U2", "U4", "M"}


def test_adder_addends_fit_and_the_reference_holds_their_sum():
    workload = build_workload("adder-be-r4", 3)
    a, b = workload.addends
    bits = workloads.adder_bits(workload)
    registers = dict(workload.registers.registers)
    assert svsim.decode_register(bits, registers["R2"]) == (a + b) % 256
    assert svsim.decode_register(bits, registers["R1"]) == a


def _run(workload, rank_order_seed=None):
    result = svsim.run_circuit(workload.circuit, rank_order_seed=rank_order_seed,
                               **workload.run_kwargs())
    return RunSummary.of(result)


@pytest.mark.parametrize("workload", [
    workloads.hadamard(seed=0, n_qubits=10, ranks=4),
    workloads.adder_byte(seed=1, width=3),
    workloads.random_circuit(seed=2, n_qubits=8, ranks=4),
], ids=lambda w: w.name)
def test_check_passes_a_correct_run_and_rejects_a_corrupted_one(workload):
    ref = reference(workload)
    baseline = _run(workload)
    assert check_run(workload, baseline, ref) == []
    assert check_run(workload, _run(workload, rank_order_seed=7), ref, baseline) == []

    report = baseline.report
    flipped = dataclasses.replace(report, qz=(1.0 - round(report.qz[0]),) + report.qz[1:])
    assert check_run(workload, dataclasses.replace(baseline, report=flipped), ref)
    nudged = dataclasses.replace(report, qx=(report.qx[0] + 1e-12,) + report.qx[1:])
    assert check_run(workload, dataclasses.replace(baseline, report=nudged), ref, baseline)

    ledgers = list(baseline.ledgers)
    ledgers[0] = tuple((k, v + 1 if k == "inter_rank_bytes_sent" else v)
                       for k, v in ledgers[0])
    assert check_run(workload, dataclasses.replace(baseline, ledgers=tuple(ledgers)), ref)
    ledgers[0] = tuple((k, v + 1 if k == "gate_operations" else v) for k, v in baseline.ledgers[0])
    assert check_run(workload, dataclasses.replace(baseline, ledgers=tuple(ledgers)), ref)
    assert check_run(workload, dataclasses.replace(baseline, report=None), ref)


def test_adder_check_decodes_the_sum():
    workload = workloads.adder_byte(seed=1, width=3)
    summary = _run(workload)
    wrong = dataclasses.replace(workload, addends=(workload.addends[0] ^ 1, workload.addends[1]))
    problems = check_run(wrong, summary, reference(workload))
    assert any("register R1" in p for p in problems)


def test_percentile_interpolates_between_closest_ranks():
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([0.0, 10.0], 90) == pytest.approx(9.0)


def test_benchmark_json_lists_the_metrics_and_workloads_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
