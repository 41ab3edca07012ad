"""One workload process of the benchmark; ``run.py`` starts it.

    python3 bench/worker.py setup WORKLOAD SEED
        Time importing svsim in this fresh process, building the
        workload's circuit, round-tripping it through serialize_circuit and
        parse_circuit, and planning tier passes where tiering is on.  Prints
        the seconds.

    python3 bench/worker.py measure < config.json
        Warm up once in natural rank order, then time run_circuit calls in
        seeded rank orders for the given seconds, checking every run against
        the reference in the config.  With trace on, half the time goes to
        untraced runs and half to traced ones.  Prints one JSON object.

The reference is computed by the parent, so the dense oracle's memory never
counts toward this process's peak RSS.
"""
from __future__ import annotations

import dataclasses
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

MIN_SAMPLES = 3
FLOOR_SECONDS = 0.2


def load_circuit(workload):
    """The workload with its circuit taken through the CLI's text input path."""
    from svsim import parse_circuit, serialize_circuit
    return dataclasses.replace(workload,
                               circuit=parse_circuit(serialize_circuit(workload.circuit)))


def setup(name: str, seed: int) -> float:
    start = time.perf_counter()
    import svsim

    from bench.workloads import build_workload
    workload = load_circuit(build_workload(name, seed))
    if workload.tier_config is not None:
        svsim.plan_passes(workload.circuit.gates, workload.tier_config,
                          workload.layout.local_qubits, workload.mode)
    return time.perf_counter() - start


def peak_rss_mib() -> float:
    """This process's peak resident set size.

    VmHWM belongs to the address space exec created.  ru_maxrss is not used:
    Linux carries it across exec, so it would include the parent's memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def memcpy_gbps(nbytes: int) -> float:
    """Copy rate of a state-sized buffer, read plus written bytes per second."""
    import numpy as np
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    times = []
    deadline = time.perf_counter() + FLOOR_SECONDS
    while len(times) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * nbytes / statistics.median(times) / 1e9


def measure(config: dict) -> dict:
    import svsim.engine
    from svsim import ExpectationReport, memory_bytes

    from bench import tracing
    from bench.workloads import RunSummary, build_workload, check_run

    workload = load_circuit(build_workload(config["workload"], config["seed"]))
    ref = ExpectationReport(*(tuple(config["reference"][k]) for k in ("qx", "qy", "qz")))
    kwargs = workload.run_kwargs()
    orders = random.Random(f"rank-order:{config['seed']}")

    warm = svsim.engine.run_circuit(workload.circuit, **kwargs)
    baseline = RunSummary.of(warm)
    problems = [f"warm-up: {p}" for p in check_run(workload, baseline, ref)]
    report = baseline.report
    del warm
    attempted = failed = 0

    def run_once():
        """One run in a seeded rank order: (seconds, result, error)."""
        t0 = time.perf_counter()
        try:
            result = svsim.engine.run_circuit(
                workload.circuit, rank_order_seed=orders.randrange(1 << 31), **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            return time.perf_counter() - t0, None, f"run raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, result, None

    def check(result, error) -> None:
        nonlocal attempted, failed
        attempted += 1
        found = [error] if error else check_run(workload, RunSummary.of(result), ref, baseline)
        if found:
            failed += 1
            problems.extend(found)

    trace = bool(config["trace"])
    budget = config["seconds"] / 2 if trace else config["seconds"]
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        seconds, result, error = run_once()
        check(result, error)
        samples.append(seconds)
        del result
    peak_rss = peak_rss_mib()

    out = {
        "samples": samples,
        "peak_rss_mib": peak_rss,
        "qubits": workload.circuit.n_qubits,
        "gates": len(workload.circuit.gates),
        "exchange_kinds": workload.exchange_kinds(),
        "addends": list(workload.addends),
        "ledger": {
            "exchange_bytes": baseline.total("inter_rank_bytes_sent"),
            "exchange_messages": baseline.total("inter_rank_messages"),
            "tier_bytes": baseline.total("tier_bytes_moved"),
            "tier_transfers": baseline.total("tier_transfer_count"),
            "gate_operations": baseline.total("gate_operations") // workload.ranks,
        },
        "max_expect_err": report.max_difference(ref) if report else float("nan"),
        "norm_drift": report.norm_deviation if report else float("nan"),
        "floor_memcpy_gbps": memcpy_gbps(memory_bytes(workload.circuit.n_qubits,
                                                      workload.mode)),
    }
    if trace:
        traced_samples, per_run = [], []
        deadline = time.perf_counter() + budget
        with tracing.Tracer() as tracer:
            while not traced_samples or time.perf_counter() < deadline:
                tracer.spans.clear()
                seconds, result, error = run_once()
                if result is not None:
                    # before the check, whose planner calls would add spans
                    per_run.append(tracing.layer_metrics(tracer.spans, result))
                check(result, error)
                traced_samples.append(seconds)
                del result
        leftover = tracing.leftover_wrappers()
        if leftover:
            problems.append(f"tracing wrappers left installed: {leftover}")
        out["traced_samples"] = traced_samples
        out["layers"] = {key: statistics.median(run[key] for run in per_run)
                         for key in per_run[0]} if per_run else {}
    out.update(attempted=attempted, failed=failed, problems=problems[:20])
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        print(repr(setup(argv[1], int(argv[2]))))
        return 0
    if argv == ["measure"]:
        print(json.dumps(measure(json.load(sys.stdin))))
        return 0
    print("usage: worker.py setup WORKLOAD SEED | worker.py measure < config.json",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
