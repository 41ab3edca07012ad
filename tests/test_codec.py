import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import PrecisionMode, build_benchmark, oracle_run, run_circuit
from svsim.codec import CAPACITY, TWO_PI, Codebook, canonicalize
from svsim.state import LocalState

from conftest import exact_class_circuit

SQRT_HALF = math.sqrt(0.5)


def test_canonicalize_negative_real():
    r, theta, ux, uy = canonicalize(np.array([complex(-SQRT_HALF, 0.0)]))
    assert r[0] == SQRT_HALF
    assert theta[0] == math.pi
    assert ux[0] == -1.0 and uy[0] == 0.0


def test_canonicalize_zero():
    r, theta, ux, uy = canonicalize(np.array([0j]))
    assert r[0] == 0.0 and theta[0] == 0.0
    assert ux[0] == 1.0 and uy[0] == 0.0


def test_canonicalize_round_trips():
    # frozen from the polar identity: |0.6 - 0.8j| = 1, angle in [0, 2pi)
    v = np.array([complex(0.6, -0.8)])
    r, theta, ux, uy = canonicalize(v)
    assert abs(r[0] - 1.0) < 1e-15
    assert abs(theta[0] - (math.atan2(-0.8, 0.6) + 2 * math.pi)) < 1e-15
    assert abs(r[0] * (ux[0] + 1j * uy[0]) - v[0]) < 1e-15


def test_initial_tables_pinned():
    cb = Codebook()
    assert list(cb.mags) == [0.0, 1.0]
    assert list(cb.thetas) == [0.0]


def test_merge_deduplicates_across_ranks():
    cb = Codebook()
    proposals = [cb.propose(np.array([complex(SQRT_HALF, 0.0)])) for _ in range(4)]
    cb.merge(proposals)
    assert len(cb.mags) == 3
    assert cb.mags[2] == SQRT_HALF
    assert not cb.mag_overflow


def test_merge_capacity_overflow():
    cb = Codebook()
    values = np.linspace(0.1, 0.9, 300) * np.exp(0.5j)
    cb.merge([cb.propose(values)])
    assert len(cb.mags) == CAPACITY
    assert cb.mag_overflow
    # appended entries keep their positions; the head of the table is intact
    assert cb.mags[0] == 0.0 and cb.mags[1] == 1.0


def test_encode_zero_is_exact():
    cb = Codebook()
    mag, ph = cb.encode(np.array([0j]))
    assert mag[0] == 0 and ph[0] == 0
    assert cb.decode(mag, ph)[0] == 0.0


def test_round_trip_exact_for_table_entries():
    cb = Codebook()
    values = np.array([SQRT_HALF, -SQRT_HALF, 0.5j, -0.25j, 1.0, 0.0])
    cb.merge([cb.propose(values)])
    mag, ph = cb.encode(values)
    decoded = cb.decode(mag, ph)
    assert np.array_equal(decoded, values)


def test_nearest_ties_break_to_smaller_index():
    cb = Codebook()
    cb.merge([cb.propose(np.array([0.25 + 0j, 0.75 + 0j]))])
    # 0.5 is equidistant from 0.25 (index 2) and 0.75 (index 3)
    mag, _ = cb.encode(np.array([0.5 + 0j]))
    assert mag[0] == 2


def test_saturated_table_round_trip_within_gap_bound(rng):
    cb = Codebook()
    cb.merge([cb.propose(np.exp(1j * np.linspace(0, 2 * np.pi, 300, endpoint=False))
                         * np.linspace(0.05, 1.0, 300))])
    assert cb.overflowed
    mag_bound, phase_bound = cb.resolution()
    # brute-force the same bounds from the dumped tables
    mags = np.sort(cb.mags)
    assert mag_bound == pytest.approx(np.diff(mags).max() / 2)
    values = rng.uniform(0.05, 1.0, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    decoded = cb.decode(*cb.encode(values))
    worst = mag_bound + np.abs(values).max() * (2 * phase_bound)
    assert np.max(np.abs(decoded - values)) <= worst


def test_hadamard_circuit_round_trip_identity():
    # every amplitude such a circuit produces has table-resident polar parts
    for n in (8, 10, 12):
        circuit = build_benchmark(n)
        result = run_circuit(circuit, mode=PrecisionMode.BYTE)
        assert not result.codebook.overflowed
        dense, _ = oracle_run(circuit)
        gathered = result.gathered_state()
        assert np.array_equal(gathered, result.codebook.decode(
            *result.codebook.encode(gathered)))
        assert np.max(np.abs(gathered - dense.psi)) < 1e-12


def test_codebooks_identical_for_any_rank_count(rng):
    dumps = set()
    circuit = exact_class_circuit(rng, 8, 20)
    for ranks in (1, 2, 4, 8):
        result = run_circuit(circuit, ranks=ranks, mode=PrecisionMode.BYTE)
        dumps.add(result.codebook.dump())
    assert len(dumps) == 1


def test_byte_storage_is_one_eighth_of_fp64():
    for n_local in (4, 8, 12):
        byte = LocalState.zero_state(n_local, PrecisionMode.BYTE, True)
        fp64 = LocalState.zero_state(n_local, PrecisionMode.FP64, True)
        assert byte.storage_nbytes * 8 == fp64.storage_nbytes


def test_cross_rank_decodability_via_encoded_buffers(rng):
    # encoded bytes produced against one copy of the tables decode identically
    # against any equal copy, so exchanged buffers mean the same everywhere
    values = rng.normal(size=64) + 1j * rng.normal(size=64)
    cb_sender = Codebook()
    cb_sender.merge([cb_sender.propose(values)])
    cb_receiver = Codebook()
    cb_receiver.merge([cb_receiver.propose(values)])
    mag, ph = cb_sender.encode(values)
    assert np.array_equal(cb_receiver.decode(mag, ph), cb_sender.decode(mag, ph))
    assert cb_sender.dump() == cb_receiver.dump()


def test_dump_format():
    cb = Codebook()
    lines = cb.dump().splitlines()
    assert lines[0] == f"M 0 {(0.0).hex()}"
    assert lines[1] == f"M 1 {(1.0).hex()}"
    assert lines[2] == f"P 0 {(0.0).hex()}"


def test_generic_circuit_sets_overflow_flag(rng):
    circuit = exact_class_circuit(rng, 6, 4, measured=False)
    values = rng.normal(size=400) + 1j * rng.normal(size=400)
    cb = Codebook()
    cb.merge([cb.propose(values)])
    assert cb.mag_overflow and cb.phase_overflow


def _amplitudes(seed: int, n: int) -> np.ndarray:
    """Grid values that repeat exactly, mixed with free values far apart."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 5, n) / 4 * np.exp(1j * np.pi * rng.integers(0, 8, n) / 4)
    free = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    return np.where(rng.random(n) < 0.5, grid, free)


def _filled(seed: int, n: int) -> Codebook:
    cb = Codebook()
    cb.merge([cb.propose(_amplitudes(seed, n))])
    return cb


SEEDS = st.integers(0, 2**32 - 1)


@given(seed=SEEDS, n=st.integers(0, 600), primed=st.booleans(),
       cuts=st.lists(st.floats(0, 1), max_size=3), order=st.permutations(range(4)))
def test_merge_ignores_proposal_order_and_split(seed, n, primed, cuts, order):
    values = _amplitudes(seed, n)
    parts = np.split(values, sorted(int(c * n) for c in cuts))
    whole, split = Codebook(), Codebook()
    if primed:
        for cb in (whole, split):
            cb.merge([cb.propose(_amplitudes(seed + 1, 100))])
    whole.merge([whole.propose(values)])
    proposals = [split.propose(part) for part in parts]
    split.merge([proposals[i] for i in order if i < len(proposals)])
    assert split.dump() == whole.dump()
    assert split.units.tobytes() == whole.units.tobytes()
    assert (split.mag_overflow, split.phase_overflow) == (whole.mag_overflow,
                                                          whole.phase_overflow)


@given(seed=SEEDS, n=st.integers(0, 600))
def test_encode_is_the_brute_force_nearest_entry(seed, n):
    cb = _filled(seed, n)
    mags, thetas = np.sort(cb.mags), np.sort(cb.thetas)
    eps = 10.0 ** np.random.default_rng(seed).uniform(-16, -8, 32)
    q_mag = np.concatenate([mags, (mags[:-1] + mags[1:]) / 2, eps])
    q_theta = np.concatenate([thetas, (thetas[:-1] + thetas[1:]) / 2,
                              [(thetas[-1] + TWO_PI) / 2], eps, TWO_PI - eps])
    values = np.concatenate([q_mag + 0j, np.exp(1j * q_theta)])
    r, theta, _, _ = canonicalize(values)
    # argmin takes the first of equal distances: ties go to the smaller index
    want_mag = np.argmin(np.abs(cb.mags[None, :] - r[:, None]), axis=1)
    d = np.abs(cb.thetas[None, :] - theta[:, None])
    want_phase = np.argmin(np.minimum(d, TWO_PI - d), axis=1)
    want_phase[want_mag == 0] = 0
    mag_idx, phase_idx = cb.encode(values)
    assert np.array_equal(mag_idx, want_mag) and np.array_equal(phase_idx, want_phase)


@given(seed=SEEDS, n=st.integers(0, 600))
def test_resolution_is_half_the_largest_gap(seed, n):
    cb = _filled(seed, n)
    mags, thetas = np.sort(cb.mags), np.sort(cb.thetas)
    phase_gap = max(np.diff(thetas).max(initial=0.0), TWO_PI - thetas[-1] + thetas[0])
    assert cb.resolution() == (np.diff(mags).max() / 2, phase_gap / 2)
