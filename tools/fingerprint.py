"""Bit-identity fingerprints of svsim runs over a fixed configuration matrix.

Prints one line per configuration: its name and three sha256 digests of
what the run leaves behind.  The first covers everything but the report:
every rank's stored codes or values, the gathered state, every ledger, the
codebook's ``dump()``, unit vectors, overflow flags and ``resolution()``, and
the tier account.  The second covers the report as JSON, CSV and table (wall
time set to 0).  The third covers what the first does, with the sign of
every zero component of stored and gathered values cleared (``x + 0.0``;
byte mode's codes are taken as they are).  Two checkouts behave the same bit
for bit on the matrix when they print the same lines; a change that states
new report bits shows as lines whose first digest still matches, and one
that only flips the signs of zeros as lines whose first digest differs and
whose second and third match:

    python tools/fingerprint.py > change.txt
    python tools/fingerprint.py --root PARENT_CHECKOUT > parent.txt
    diff parent.txt change.txt

The matrix has 728 configurations: 8 random circuits of all nine gate kinds,
one circuit of Haar-random U2 and U4 gates, 5 adders (the width-8 one fills
and overflows both byte-mode tables) and ``benchmark:10``, each in fp64, fp32
and byte mode, on 1, 2, 4 and 8 ranks, untiered and tiered, in natural and in
seeded rank order; plus the four ``bench`` workloads for seeds 1 and 2.

Six more lines carry one digest each: the tier account of the 50-qubit adder
``adder:25:21346502:12207929`` at 1024 and 16384 ranks in each mode, with a
64 GiB fast tier and 1 GiB chunks.  They run no state, only ``plan_passes``
and ``TierAccount.account``, which every checkout since tiering has, so they
compare two checkouts' staging counts at paper scale.

Stored data is read as ``state.payload(((), ()))``, a flat copy of the
whole slice, which fp modes cast to complex128 and byte mode keeps as its
16-bit codes (magnitude index x 256 + phase index).  Those are the bytes
the stacked rows of earlier checkouts gave, so the digests compare across
that change; ``payload`` has taken this argument since storage became one
array.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

MODES = ("fp64", "fp32", "be")
RANKS = (1, 2, 4, 8)
ORDER_SEED = 7


def _random_circuit(svsim, seed: int, n_qubits: int = 9, depth: int = 40):
    g = svsim.gates
    rng = np.random.default_rng(seed)
    gate_list = []
    for _ in range(depth):
        kind = ("H", "X", "Y", "Z", "PHASE", "CPHASE", "CNOT", "U2", "U4")[rng.integers(9)]
        q1 = int(rng.integers(n_qubits))
        q2 = int((q1 + 1 + rng.integers(n_qubits - 1)) % n_qubits)
        k = int(rng.integers(1, 6)) * (1 if rng.integers(2) else -1)
        gate_list.append({
            "H": lambda: g.h(q1), "X": lambda: g.x(q1), "Y": lambda: g.y(q1),
            "Z": lambda: g.z(q1), "PHASE": lambda: g.phase(q1, k),
            "CPHASE": lambda: g.cphase(q1, q2, k), "CNOT": lambda: g.cnot(q1, q2),
            "U2": lambda: g.u2(q1, _haar(rng, 2)), "U4": lambda: g.u4(q1, q2, _haar(rng, 4)),
        }[kind]())
    return svsim.Circuit(n_qubits, tuple(gate_list) + (g.measure_all(),))


def _haar_circuit(svsim, seed: int, n_qubits: int = 9):
    g = svsim.gates
    rng = np.random.default_rng(seed)
    gate_list = [g.u2(q, _haar(rng, 2)) for q in range(n_qubits)]
    for _ in range(12):
        qa, qb = (int(q) for q in rng.choice(n_qubits, 2, replace=False))
        gate_list.append(g.u4(qa, qb, _haar(rng, 4)))
    return svsim.Circuit(n_qubits, tuple(gate_list) + (g.measure_all(),))


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def circuits(svsim) -> list:
    out = [(f"random{seed}", _random_circuit(svsim, seed)) for seed in range(8)]
    out.append(("haar0", _haar_circuit(svsim, 0)))
    for width, addends in ((2, [1, 2]), (3, [5, 6]), (3, [1, 2, 3]), (4, [9, 12]),
                           (8, [200, 111])):
        name = "adder" + ":".join(str(v) for v in [width] + addends)
        out.append((name, svsim.build_adder(width, addends)[0]))
    out.append(("benchmark10", svsim.build_benchmark(10)))
    return out


def tier_config(svsim, circuit, ranks: int, mode):
    """A tier setting of eight chunks per rank's slice and a fast tier of half of it."""
    n_local = circuit.n_qubits - (ranks.bit_length() - 1)
    state_bytes = (1 << n_local) * mode.bytes_per_element
    chunk = max(state_bytes >> 3, mode.bytes_per_element)
    return svsim.TierConfig(max(state_bytes // 2, 4 * chunk), chunk, 16)


def _zero_signs_cleared(values: np.ndarray) -> np.ndarray:
    """Complex values with every -0.0 component made 0.0; codes as they are."""
    return values + 0.0 if values.dtype.kind == "c" else values


def _stored(state) -> np.ndarray:
    """A rank's stored slice: complex128 values in the fp modes, codes in byte mode."""
    data = state.payload(((), ()))
    return data.astype(np.complex128) if data.dtype.kind == "c" else data


def fingerprint(svsim, result) -> tuple[str, str, str]:
    """Digests of the run's state, ledgers, codebook and tiers, of its report,
    and of the first's content with the signs of stored zeros cleared."""
    digests = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()

    def put(data, parts=(0, 2)) -> None:
        for part in parts:
            digests[part].update(data if isinstance(data, bytes) else repr(data).encode())
            digests[part].update(b"\0")

    stored = [_stored(state) for state in result.states]
    for values in stored + [result.gathered_state()]:
        put(values.tobytes(), (0,))
        put(_zero_signs_cleared(values).tobytes(), (2,))
    report = dataclasses.replace(svsim.build_report(result), wall_time_seconds=0.0)
    for fmt in ("json", "csv", "table"):
        put(report.render(fmt).encode(), (1,))
    put(json.dumps(report.to_dict(), sort_keys=True).encode(), (1,))
    for ledger in result.ledgers:
        put(sorted(ledger.snapshot().items()))
    book = result.codebook
    if book is not None:
        put(book.dump().encode())
        put(book.units.tobytes())
        put((book.mag_overflow, book.phase_overflow, book.resolution()))
    for account in result.tier_accounts or ():
        put(tier_record(account))
    return tuple(digest.hexdigest() for digest in digests)


def tier_record(account) -> tuple:
    """A tier account's geometry, placement and counters.

    The residency flags are read as a list of bools, whichever sequence holds
    them, so checkouts that store them differently print the same digests.
    """
    return (account.chunk_bytes, account.n_chunks,
            [bool(fast) for fast in account.fast_resident],
            account.static_fast_bytes, account.high_water_bytes,
            sorted(account.ledger.snapshot().items()))


def paper_tier_lines(svsim):
    """Yield (name, digest) of the 50-qubit adder's tier account per ranks and mode."""
    circuit, _ = svsim.build_adder(25, [21346502, 12207929])
    config = svsim.TierConfig(1 << 36, 1 << 30)
    modes = {mode.value: mode for mode in svsim.PrecisionMode}
    for ranks in (1024, 16384):
        n_local = circuit.n_qubits - (ranks.bit_length() - 1)
        for mode_name in MODES:
            mode = modes[mode_name]
            account = svsim.tier.TierAccount((1 << n_local) * mode.bytes_per_element, config,
                                             svsim.TrafficLedger())
            for group in svsim.plan_passes(circuit.gates, config, n_local, mode).groups:
                account.account(group)
            digest = hashlib.sha256(repr(tier_record(account)).encode()).hexdigest()
            yield f"adder:25:21346502:12207929 {mode_name} r{ranks} tier 64GiB/1GiB", digest


def configurations(svsim):
    """Yield (name, run) pairs; ``run()`` returns the configuration's RunResult."""
    modes = {mode.value: mode for mode in svsim.PrecisionMode}
    for name, circuit in circuits(svsim):
        for mode_name in MODES:
            mode = modes[mode_name]
            for ranks in RANKS:
                for tiered in (False, True):
                    tier = tier_config(svsim, circuit, ranks, mode) if tiered else None
                    for seed in (None, ORDER_SEED):
                        label = (f"{name} {mode_name} r{ranks} "
                                 f"{'tier' if tiered else 'flat'} order={seed}")
                        yield label, (lambda c=circuit, r=ranks, m=mode, t=tier, s=seed:
                                      svsim.run_circuit(c, ranks=r, mode=m, tier_config=t,
                                                        rank_order_seed=s))
    from bench.workloads import WORKLOADS, build_workload
    for workload_name in WORKLOADS:
        for seed in (1, 2):
            workload = build_workload(workload_name, seed)
            yield (f"bench:{workload_name} seed={seed}",
                   lambda w=workload, s=seed: svsim.run_circuit(
                       w.circuit, rank_order_seed=s, **w.run_kwargs()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout whose src/ and bench/ are run")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), args.root]
    import svsim
    print(f"fingerprinting {os.path.dirname(svsim.__file__)}", file=sys.stderr)

    for label, run in configurations(svsim):
        print(f"{label}  {'  '.join(fingerprint(svsim, run()))}", flush=True)
    for label, digest in paper_tier_lines(svsim):
        print(f"{label}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
