import copy
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import Circuit, PrecisionMode, build_benchmark, gates as g, oracle_run, run_circuit
from svsim.codec import (CAPACITY, MAG_RTOL, PHASE_ATOL, TWO_PI, Codebook, _dedup_sorted,
                         canonicalize)
from svsim.engine import _Engine
from svsim.kernels import bit_view
from svsim.layout import partition
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
    proposals = [cb.propose(*canonicalize(np.array([complex(SQRT_HALF, 0.0)])))
                 for _ in range(4)]
    cb.merge(proposals)
    assert len(cb.mags) == 3
    assert cb.mags[2] == SQRT_HALF
    assert not cb.mag_overflow


def test_merge_capacity_overflow():
    cb = Codebook()
    values = np.linspace(0.1, 0.9, 300) * np.exp(0.5j)
    cb.merge([cb.propose(*canonicalize(values))])
    assert len(cb.mags) == CAPACITY
    assert cb.mag_overflow
    # appended entries keep their positions; the head of the table is intact
    assert cb.mags[0] == 0.0 and cb.mags[1] == 1.0


def test_encode_zero_is_exact():
    cb = Codebook()
    mag, ph = cb.encode(*canonicalize(np.array([0j]))[:2])
    assert mag[0] == 0 and ph[0] == 0
    assert cb.decode(mag, ph)[0] == 0.0


def test_round_trip_exact_for_table_entries():
    cb = Codebook()
    values = np.array([SQRT_HALF, -SQRT_HALF, 0.5j, -0.25j, 1.0, 0.0])
    cb.merge([cb.propose(*canonicalize(values))])
    mag, ph = cb.encode(*canonicalize(values)[:2])
    decoded = cb.decode(mag, ph)
    assert np.array_equal(decoded, values)


def test_nearest_ties_break_to_smaller_index():
    cb = Codebook()
    cb.merge([cb.propose(*canonicalize(np.array([0.25 + 0j, 0.75 + 0j])))])
    # 0.5 is equidistant from 0.25 (index 2) and 0.75 (index 3)
    mag, _ = cb.encode(*canonicalize(np.array([0.5 + 0j]))[:2])
    assert mag[0] == 2


def test_saturated_table_round_trip_within_gap_bound(rng):
    cb = Codebook()
    cb.merge([cb.propose(*canonicalize(
        np.exp(1j * np.linspace(0, 2 * np.pi, 300, endpoint=False))
        * np.linspace(0.05, 1.0, 300)))])
    assert cb.overflowed
    mag_bound, phase_bound = cb.resolution()
    # brute-force the same bounds from the dumped tables
    mags = np.sort(cb.mags)
    assert mag_bound == pytest.approx(np.diff(mags).max() / 2)
    values = rng.uniform(0.05, 1.0, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    decoded = cb.decode(*cb.encode(*canonicalize(values)[:2]))
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
            *result.codebook.encode(*canonicalize(gathered)[:2])))
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
        byte = LocalState.zero_state(n_local, PrecisionMode.BYTE, 0)
        fp64 = LocalState.zero_state(n_local, PrecisionMode.FP64, 0)
        assert byte.data.nbytes * 8 == fp64.data.nbytes


def test_cross_rank_decodability_via_encoded_buffers(rng):
    # encoded bytes produced against one copy of the tables decode identically
    # against any equal copy, so exchanged buffers mean the same everywhere
    values = rng.normal(size=64) + 1j * rng.normal(size=64)
    cb_sender = Codebook()
    cb_sender.merge([cb_sender.propose(*canonicalize(values))])
    cb_receiver = Codebook()
    cb_receiver.merge([cb_receiver.propose(*canonicalize(values))])
    mag, ph = cb_sender.encode(*canonicalize(values)[:2])
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
    cb.merge([cb.propose(*canonicalize(values))])
    assert cb.mag_overflow and cb.phase_overflow


def _amplitudes(seed: int, n: int) -> np.ndarray:
    """Grid values that repeat exactly, mixed with free values far apart."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 5, n) / 4 * np.exp(1j * np.pi * rng.integers(0, 8, n) / 4)
    free = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    return np.where(rng.random(n) < 0.5, grid, free)


def _filled(seed: int, n: int) -> Codebook:
    cb = Codebook()
    cb.merge([cb.propose(*canonicalize(_amplitudes(seed, n)))])
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
            cb.merge([cb.propose(*canonicalize(_amplitudes(seed + 1, 100)))])
    whole.merge([whole.propose(*canonicalize(values))])
    proposals = [split.propose(*canonicalize(part)) for part in parts]
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
    mag_idx, phase_idx = cb.encode(*canonicalize(values)[:2])
    assert np.array_equal(mag_idx, want_mag) and np.array_equal(phase_idx, want_phase)


@given(seed=SEEDS, n=st.integers(0, 600))
def test_resolution_is_half_the_largest_gap(seed, n):
    cb = _filled(seed, n)
    mags, thetas = np.sort(cb.mags), np.sort(cb.thetas)
    phase_gap = max(np.diff(thetas).max(initial=0.0), TWO_PI - thetas[-1] + thetas[0])
    assert cb.resolution() == (np.diff(mags).max() / 2, phase_gap / 2)


def _sequential_keep(values, is_mag: bool) -> np.ndarray:
    """Keep a value unless it is within tolerance of the last value kept."""
    keep, last = [], None
    for v in map(float, values):
        if last is None:
            close = False
        elif is_mag:
            close = abs(v - last) <= MAG_RTOL * max(abs(v), abs(last))
        else:
            close = abs(v - last) <= PHASE_ATOL
        keep.append(not close)
        if not close:
            last = v
    return np.array(keep, dtype=bool)


@given(seed=SEEDS, n=st.integers(0, 80), is_mag=st.booleans())
def test_dedup_matches_a_sequential_scan_over_close_chains(seed, n, is_mag):
    rng = np.random.default_rng(seed)
    # steps in units of the tolerance: repeats, chains of close neighbours
    # that drift past the tolerance together, near-boundary steps and gaps
    units = rng.choice([0.0, 0.3, 0.6, 0.999, 1.0, 1.001, 1.7, 1e6], n)
    values, v = [], rng.uniform(0.05, 0.5)
    for unit in units:
        values.append(v)
        v += unit * (MAG_RTOL * v if is_mag else PHASE_ATOL)
    values = np.array(values)
    assert np.array_equal(_dedup_sorted(values, is_mag), _sequential_keep(values, is_mag))


def _book_state(book: Codebook) -> tuple:
    return book.dump(), book.units.tobytes(), book.mag_overflow, book.phase_overflow


@given(seed=SEEDS, n=st.integers(1, 400))
def test_full_flagged_tables_take_no_proposal_and_a_full_one_still_flags(seed, n):
    book = _filled(seed, 600)
    while len(book.mags) < CAPACITY or len(book.thetas) < CAPACITY:
        seed += 1
        book.merge([book.propose(*canonicalize(_amplitudes(seed, 600)))])
    fresh = np.random.default_rng(seed).uniform(0.05, 1.0, n) * np.exp(1j * np.pi / 7)
    # full but not flagged: a value no entry represents still sets the flag
    book.mag_overflow = book.phase_overflow = False
    book.merge([book.propose(*canonicalize(fresh))])
    assert book.mag_overflow and book.phase_overflow
    before = _book_state(book)
    proposal = book.propose(*canonicalize(fresh))
    assert all(len(part) == 0 for part in (proposal.mags, proposal.thetas,
                                           proposal.ux, proposal.uy))
    book.merge([proposal, copy.deepcopy(proposal)])
    assert _book_state(book) == before


def _fill(book: Codebook, rng: np.random.Generator, fill: str) -> None:
    """Append random entries: none, some, or up to capacity, flagged or not."""
    if fill == "empty":
        return
    full = fill in ("full", "flagged")
    n_mag = CAPACITY - len(book.mags) if full else int(rng.integers(1, 60))
    n_phase = CAPACITY - len(book.thetas) if full else int(rng.integers(1, 60))
    thetas = rng.uniform(0.01, TWO_PI - 0.01, n_phase)
    book.mags = np.concatenate([book.mags, rng.uniform(0.01, 1.0, n_mag)])
    book.thetas = np.concatenate([book.thetas, thetas])
    book.units = np.concatenate([book.units, np.exp(1j * thetas)])
    book.mag_overflow = book.phase_overflow = fill == "flagged"


@pytest.mark.parametrize("fill", ["empty", "partial", "full", "flagged"])
@pytest.mark.parametrize("ranks", [1, 2, 4, 8])
@given(seed=SEEDS, kind=st.sampled_from(["Z", "PHASE", "CPHASE"]))
def test_byte_diagonal_gate_matches_decode_multiply_encode(ranks, fill, seed, kind):
    rng = np.random.default_rng(seed)
    n = 6
    q1, q2 = (int(q) for q in rng.choice(n, 2, replace=False))
    k = int(rng.integers(1, 12)) * int(rng.choice([-1, 1]))
    gate = {"Z": g.z(q1), "PHASE": g.phase(q1, k), "CPHASE": g.cphase(q1, q2, k)}[kind]
    layout = partition(n, ranks)
    engine = _Engine(Circuit(n, (gate,)), layout, PrecisionMode.BYTE, None, seed)
    book = engine.codebook
    _fill(book, rng, fill)
    for state in engine.states:
        size = state.data.size
        mag_idx = rng.integers(0, len(book.mags), size)
        phase_idx = rng.integers(0, len(book.thetas), size)
        mag_idx[rng.random(size) < 0.3] = 0
        phase_idx[mag_idx == 0] = 0
        state.data[:] = mag_idx << 8 | phase_idx

    # reference: decode each rank's whole region, multiply, propose, merge, encode
    ref = copy.deepcopy(book)
    stored = [((s.data >> 8).astype(np.uint8), (s.data & 0xFF).astype(np.uint8))
              for s in engine.states]
    n_local = layout.local_qubits
    local = tuple(q for q in gate.qubits if q < n_local)
    rank_bits = sum(1 << (q - n_local) for q in gate.qubits if q >= n_local)
    regions, proposals = [], []
    for rank, arrays in enumerate(stored):
        if rank & rank_bits == rank_bits:
            views = tuple(bit_view(a, local) for a in arrays)
            r, theta, ux, uy = canonicalize(ref.decode(*views) * g.diagonal_factor(gate))
            proposals.append(ref.propose(r, theta, ux, uy))
            regions.append((views, r, theta))
    ref.merge(proposals)
    for views, r, theta in regions:
        for view, part in zip(views, ref.encode(r, theta)):
            view[...] = part.reshape(view.shape)

    engine.run()
    assert _book_state(book) == _book_state(ref)
    for state, (mag_idx, phase_idx) in zip(engine.states, stored):
        assert np.array_equal(state.data, mag_idx.astype(np.uint16) << 8 | phase_idx)
