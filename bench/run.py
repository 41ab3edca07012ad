"""svsim benchmark: time, check and trace the four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

For each workload this runs, in order:

  1. SETUP_PROBES fresh processes that each time importing svsim, building
     the circuit, its text round trip and tier planning (``setup_s`` is
     their median);
  2. the reference, in this process: analytic for the Hadamard circuit and
     the adders, the dense oracle for the random circuit;
  3. one worker process that warms up, times ``run_circuit`` for S seconds
     (S/2 with trace on, then S/2 of traced runs) and checks every run.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  BENCHMARK.json at the repository root lists the same names.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")

SETUP_PROBES = 5
# Seconds per workload by which every process must be done; one workload's
# run must end within 180 s.
TIME_LIMIT_S = 170.0
# Workloads are single-threaded, so BLAS gets one thread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s.p50", "s", "lower"),
    ("run_s.tail", "s", "lower"),
    ("amp_gates_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

PER_LAYER = (
    ("engine.run_circuit.self_s", "s", "lower"),
    *((f"kernels.{k}.{m}", u, "lower")
      for k in ("apply_single", "apply_two", "apply_diagonal", "apply_pair_arrays",
                "apply_quad_arrays")
      for m, u in (("self_s", "s"), ("calls", "count"))),
    ("kernels.pair_indices.self_s", "s", "lower"),
    ("kernels.bytes", "B", "lower"),
    ("kernels.gbps", "GB/s", "higher"),
    ("floor.memcpy_gbps", "GB/s", "higher"),
    ("state.working.self_s", "s", "lower"),
    ("state.working.bytes", "B", "lower"),
    ("state.store.self_s", "s", "lower"),
    ("state.store.calls", "count", "lower"),
    *((f"codec.{f}.self_s", "s", "lower")
      for f in ("canonicalize", "propose", "merge", "encode", "decode")),
    *((f"codec.{f}.elems", "count", "lower") for f in ("canonicalize", "encode", "decode")),
    ("codec.canon_per_encoded", "ratio", "lower"),
    ("codec.mag_entries", "count", "lower"),
    ("codec.phase_entries", "count", "lower"),
    ("codec.overflow", "count", "lower"),
    ("transport.send.self_s", "s", "lower"),
    ("transport.send.calls", "count", "lower"),
    ("transport.charged_bytes", "B", "lower"),
    ("transport.payload_bytes", "B", "lower"),
    ("transport.charged_over_payload", "ratio", "higher"),
    ("layout.plan_exchange.self_s", "s", "lower"),
    ("layout.predicted_bytes", "B", "lower"),
    ("layout.pairwise_gates", "count", "lower"),
    ("layout.quad_gates", "count", "lower"),
    ("measure.measure_all.self_s", "s", "lower"),
    ("measure.measure_all.sends", "count", "lower"),
    ("tier.plan_passes.self_s", "s", "lower"),
    ("tier.account.self_s", "s", "lower"),
    ("tier.groups", "count", "lower"),
    ("tier.high_water_bytes", "B", "lower"),
    ("exchange_bytes", "B", "lower"),
    ("exchange_messages", "count", "lower"),
    ("tier_bytes", "B", "lower"),
    ("tier_transfers", "count", "lower"),
    ("max_expect_err", "prob", "lower"),
    ("norm_drift", "prob", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


# run_s.tail is this percentile of the untraced samples.  A run gives 14 to
# 55 samples, so 3 to 13 lie beyond it; the run prints the count.  A higher
# percentile would rest on fewer samples still, and moved by up to a quarter
# between runs on a noisy two-CPU machine.  It is fixed so that runs with
# different sample counts stay comparable.
TAIL_PERCENTILE = 75


def percentile(samples: list[float], p: int) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# The largest state any workload holds: 2**20 fp64 amplitudes.
MAX_STATE_BYTES = 16 << 20


def llc_bytes() -> int | None:
    """Size of the last-level (L3) cache, from sysfs; None if unknown."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("KMG")) * units.get(size[-1], 1)
        except (OSError, ValueError):
            return None
    return None


def machine_facts() -> dict:
    import numpy as np
    llc = llc_bytes()
    fits = llc is not None and llc >= MAX_STATE_BYTES
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "llc_mib": llc / (1 << 20) if llc else None,
        "note": (f"every state is at most {MAX_STATE_BYTES >> 20} MiB and "
                 + ("fits" if fits else "may not fit")
                 + " in the last-level cache; kernels.bytes and kernels.gbps are "
                 "computed from array sizes, not measured DRAM traffic"),
    }


def run_child(args: list[str], deadline: float, stdin: str | None = None) -> str:
    """Run a worker to completion and return its last stdout line.

    ``subprocess.run`` kills and reaps the child if the deadline passes.
    """
    proc = subprocess.run([sys.executable, str(WORKER), *args], input=stdin,
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     deadline: float) -> dict:
    from bench.workloads import build_workload, reference

    setup = [float(run_child(["setup", name, str(seed)], deadline))
             for _ in range(SETUP_PROBES)]
    workload = build_workload(name, seed)
    ref = reference(workload)
    config = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "reference": {"qx": ref.qx, "qy": ref.qy, "qz": ref.qz}}
    out = json.loads(run_child(["measure"], deadline, json.dumps(config)))

    samples = out["samples"]
    p50 = statistics.median(samples)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "run_s.p50": p50,
        "run_s.tail": percentile(samples, TAIL_PERCENTILE),
        "amp_gates_per_s": out["ledger"]["gate_operations"] * 2 ** out["qubits"] / p50,
        "peak_rss_mib": out["peak_rss_mib"],
    }
    per_layer = {}
    if trace:
        per_layer = dict(out["layers"])
        per_layer.update({k: out["ledger"][k] for k in
                          ("exchange_bytes", "exchange_messages", "tier_bytes",
                           "tier_transfers")})
        per_layer["floor.memcpy_gbps"] = out["floor_memcpy_gbps"]
        per_layer["max_expect_err"] = out["max_expect_err"]
        per_layer["norm_drift"] = out["norm_drift"]
        per_layer["trace.overhead"] = statistics.median(out["traced_samples"]) / p50 - 1

    print(f"== {name}  seed {seed}  qubits {out['qubits']}  gates {out['gates']}  "
          f"exchange kinds {out['exchange_kinds']}"
          + (f"  addends {out['addends']}" if out["addends"] else ""))
    print(f"   run_s.tail is p{TAIL_PERCENTILE} of {len(samples)} samples; "
          f"setup_s is the median of {SETUP_PROBES} processes")
    for key, value in {**end_to_end, **out["ledger"],
                       "max_expect_err": out["max_expect_err"],
                       "norm_drift": out["norm_drift"], **per_layer}.items():
        print(f"   {key:34s} {value:<24.6g} {UNITS.get(key, 'count')}")
    for problem in out["problems"]:
        print(f"   FAILED CHECK: {problem}")
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": per_layer if trace else end_to_end,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "svsim" / "__init__.py").is_file():
        print(f"bench: no svsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # before numpy is imported here or in any worker, which inherit it
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from all, "
                     + ", ".join(WORKLOADS))
    print("machine " + json.dumps(machine_facts()))
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = measure_workload(name, args.seed, args.seconds,
                                             bool(args.trace), deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    summary["metrics"] = {key: {"value": value, "unit": UNITS[key.rsplit("/", 1)[-1]]}
                          for key, value in summary["metrics"].items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
