"""Byte-mode gates on distinct code tuples, against a whole-state codec reference.

Each case injects a codebook and stored codes into a one-gate run, runs the
gate, and compares every stored byte, the codebook's entries, unit vectors
and flags with a reference built from codec calls alone: decode the whole
state, apply the kernel to every position, canonicalize and propose what each
rank computes, merge, and encode every produced value.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsim import Circuit, Codebook, PrecisionMode, canonicalize, gates as g
from svsim.codec import CAPACITY
from svsim.engine import _Engine, _distinct_tuples
from svsim.kernels import apply_diagonal, apply_single, apply_two
from svsim.layout import partition, plan_exchange
from svsim.transport import Transport

from conftest import haar_unitary

N_QUBITS = 7
KINDS = ("H", "X", "Y", "Z", "PHASE", "CPHASE", "CNOT", "U2", "U4")
TABLES = ("empty", "partial", "full")


def _gate(kind: str, a: int, b: int, rng: np.random.Generator) -> g.Gate:
    k = int(rng.integers(1, 5))
    make = {"H": lambda: g.h(a), "X": lambda: g.x(a), "Y": lambda: g.y(a),
            "Z": lambda: g.z(a), "PHASE": lambda: g.phase(a, k),
            "CPHASE": lambda: g.cphase(a, b, k), "CNOT": lambda: g.cnot(a, b),
            "U2": lambda: g.u2(a, haar_unitary(rng, 2)),
            "U4": lambda: g.u4(a, b, haar_unitary(rng, 4))}
    return make[kind]()


def _codebook(table: str, rng: np.random.Generator) -> Codebook:
    """Pinned entries only, some random entries, or both tables full and flagged."""
    if table == "empty":
        return Codebook()
    full = table == "full"
    n_mags, n_phases = (CAPACITY, CAPACITY) if full else rng.integers(3, 40, size=2)
    thetas = rng.uniform(0.01, 2 * np.pi - 0.01, n_phases - 1)
    return Codebook(np.concatenate([[0.0, 1.0], rng.uniform(0.01, 1.2, n_mags - 2)]),
                    np.concatenate([[0.0], thetas]),
                    np.concatenate([[1.0 + 0j], np.exp(1j * thetas)]),
                    full, full)


def _copy(book: Codebook) -> Codebook:
    return Codebook(book.mags.copy(), book.thetas.copy(), book.units.copy(),
                    book.mag_overflow, book.phase_overflow)


def _stored(book: Codebook, pool: int, rng: np.random.Generator):
    """Global (magnitude, phase) index arrays drawn from ``pool`` stored pairs."""
    mags = rng.integers(len(book.mags), size=pool)
    phases = np.where(mags == 0, 0, rng.integers(len(book.thetas), size=pool))
    pick = rng.integers(pool, size=1 << N_QUBITS)
    return mags[pick].astype(np.uint8), phases[pick].astype(np.uint8)


def _codes(mag: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The 16-bit stored codes of index arrays: magnitude x 256 + phase."""
    return mag.astype(np.uint16) << 8 | phase


def _engine(gate, ranks, book, mag, phase, order_seed, transport=Transport):
    engine = _Engine(Circuit(N_QUBITS, (gate,)), partition(N_QUBITS, ranks),
                     PrecisionMode.BYTE, None, order_seed, transport)
    for attr in ("mags", "thetas", "units", "mag_overflow", "phase_overflow"):
        setattr(engine.codebook, attr, getattr(_copy(book), attr))
    size = engine.layout.local_size
    for rank, state in enumerate(engine.states):
        at = slice(rank * size, (rank + 1) * size)
        state.data[...] = _codes(mag[at], phase[at])
    return engine


def _computing_rank(gate: g.Gate, n_local: int, index: np.ndarray) -> np.ndarray:
    """The rank that computes each global position's new value.

    A local or diagonal gate's positions are computed by their owner.  With
    k qubits in the rank bits, the group member whose bit for the j-th of
    them reads p_j computes the positions whose local bit ``low + j`` reads
    p_j, where ``low`` is the lowest of the top k + 1 local bits, less the
    gate's own local qubit if it is among them.
    """
    rank = index >> n_local
    high = [] if g.is_diagonal(gate) else [q for q in gate.qubits if q >= n_local]
    low = n_local - len(high)
    if low in gate.qubits:
        low -= 1
    for j, q in enumerate(high):
        bit = q - n_local
        rank = (rank & ~(1 << bit)) | (((index >> (low + j)) & 1) << bit)
    return rank


def _reference(gate, ranks, book, mag, phase):
    """Stored indices and codebook after ``gate``, from codec calls only."""
    book = _copy(book)
    n_local = N_QUBITS - (ranks.bit_length() - 1)
    new = book.decode(mag, phase)
    index = np.arange(new.size)
    if g.is_diagonal(gate):
        apply_diagonal(new, gate.qubits, g.diagonal_factor(gate))
        produced = np.all([(index >> q) & 1 == 1 for q in gate.qubits], axis=0)
    else:
        if len(gate.qubits) == 1:
            apply_single(new, gate.qubits[0], g.unitary_matrix(gate))
        else:
            apply_two(new, *gate.qubits, g.unitary_matrix(gate))
        produced = np.ones(new.size, dtype=bool)
    computing = _computing_rank(gate, n_local, index)
    book.merge([book.propose(*canonicalize(new[produced & (computing == rank)]))
                for rank in range(ranks)])
    r, theta, _, _ = canonicalize(new[produced])
    mag, phase = mag.copy(), phase.copy()
    mag[produced], phase[produced] = book.encode(r, theta)
    return book, mag, phase


def _check(kind, qubits, ranks, table, pool, seed, order_seed):
    rng = np.random.default_rng(seed)
    gate = _gate(kind, *qubits, rng)
    book = _codebook(table, rng)
    mag, phase = _stored(book, pool, rng)
    engine = _engine(gate, ranks, book, mag, phase, order_seed)
    engine.run()
    want_book, want_mag, want_phase = _reference(gate, ranks, book, mag, phase)
    size = engine.layout.local_size
    for rank, state in enumerate(engine.states):
        at = slice(rank * size, (rank + 1) * size)
        assert state.data.tobytes() == _codes(want_mag[at], want_phase[at]).tobytes()
    got = engine.codebook
    assert got.dump() == want_book.dump()
    assert got.units.tobytes() == want_book.units.tobytes()
    assert (got.mag_overflow, got.phase_overflow) == (want_book.mag_overflow,
                                                      want_book.phase_overflow)
    assert got.resolution() == want_book.resolution()


@given(kind=st.sampled_from(KINDS),
       qubits=st.lists(st.integers(0, N_QUBITS - 1), min_size=2, max_size=2,
                       unique=True),
       ranks=st.sampled_from([1, 2, 4, 8]), table=st.sampled_from(TABLES),
       pool=st.sampled_from([1, 3, 40]), seed=st.integers(0, 2**32 - 1),
       order_seed=st.one_of(st.none(), st.integers(0, 99)))
def test_byte_gate_on_distinct_tuples_matches_whole_state_reference(
        kind, qubits, ranks, table, pool, seed, order_seed):
    _check(kind, qubits, ranks, table, pool, seed, order_seed)


# every way a gate meets the layout: local, a diagonal on a rank bit, a
# pairwise exchange of one and of two qubits (with the local qubit the top
# local bit, which moves the part bit below it, and a low one) and a quad one
@pytest.mark.parametrize("kind, qubits, ranks", [
    ("H", (0, 1), 1), ("U4", (2, 5), 2), ("Y", (3, 0), 8),
    ("CPHASE", (2, 6), 2), ("PHASE", (6, 0), 4), ("Z", (1, 0), 8),
    ("U2", (6, 0), 2), ("X", (4, 0), 8),
    ("CNOT", (6, 5), 2), ("U4", (5, 6), 2), ("U4", (1, 6), 2),
    ("CNOT", (6, 5), 4), ("U4", (5, 6), 4), ("U4", (4, 6), 8),
])
@pytest.mark.parametrize("table", TABLES)
def test_byte_gate_of_every_exchange_kind_matches_reference(kind, qubits, ranks, table):
    _check(kind, qubits, ranks, table, pool=5, seed=ranks * 1000 + len(kind), order_seed=3)


class PayloadTransport(Transport):
    """Transport that keeps every send's payload and charge."""

    def __init__(self, n_ranks, ledgers):
        super().__init__(n_ranks, ledgers)
        self.sends = []

    def send(self, src, dst, payload, nbytes):
        self.sends.append((src, dst, payload, nbytes))
        super().send(src, dst, payload, nbytes)


@pytest.mark.parametrize("kind, qubits, ranks", [
    ("H", (6, 0), 2), ("CNOT", (6, 5), 2), ("U4", (1, 6), 4), ("U4", (5, 6), 4)])
def test_byte_exchange_sends_the_stored_indices_of_the_receivers_part(kind, qubits, ranks):
    rng = np.random.default_rng(7)
    gate = _gate(kind, *qubits, rng)
    book = _codebook("partial", rng)
    mag, phase = _stored(book, 40, rng)
    engine = _engine(gate, ranks, book, mag, phase, None, PayloadTransport)
    engine.run()
    layout = engine.layout
    n_local = layout.local_qubits
    plan = plan_exchange(layout, gate, PrecisionMode.BYTE)
    index = np.arange(1 << N_QUBITS)
    computing = _computing_rank(gate, n_local, index)
    sends = engine.transport.sends
    assert len(sends) == ranks * ((1 << len(plan.masks)) - 1)
    for src, dst, payload, nbytes in sends:
        # the sender's bytes at the positions the receiver computes, ascending
        at = index[(index >> n_local == src) & (computing == dst)]
        assert payload.dtype == np.uint16
        assert payload.tobytes() == _codes(mag[at], phase[at]).tobytes()
        assert nbytes == payload.nbytes
        assert nbytes == plan.bytes_per_rank // ((1 << len(plan.masks)) - 1)
    for ledger in engine.ledgers:
        assert ledger.inter_rank_bytes_sent == plan.bytes_per_rank
        assert ledger.inter_rank_messages == (1 << len(plan.masks)) - 1


def _sorted_distinct(part):
    """One part's distinct codes and columns through a sorting unique."""
    distinct = np.unique(part)
    table = np.empty(1 << 16, dtype=np.min_scalar_type(distinct.size - 1))
    table[distinct] = np.arange(distinct.size)
    return distinct[None], table[part]


def test_one_part_distinct_codes_match_a_sorting_unique(rng):
    every = rng.permutation(1 << 16).astype(np.uint16)
    parts = [np.full(1000, code, dtype=np.uint16) for code in (0, 4097, 65535)]
    parts += [every, np.concatenate([every, every[::-1]]), every.reshape(256, 256)[:, ::3]]
    for size, pool in ((1, 1), (7, 3), (4096, 2000), (1 << 14, 255), (1 << 14, 257),
                       (1 << 16, 5000), (1 << 16, 1 << 16)):
        part = rng.choice(rng.choice(1 << 16, pool, replace=False), size).astype(np.uint16)
        parts += [part, part.reshape(-1, 1)[::2]]
    for part in parts:
        tuples, inverse = _distinct_tuples([part])
        expected_tuples, expected_inverse = _sorted_distinct(part)
        for got, expected in ((tuples, expected_tuples), (inverse, expected_inverse)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
