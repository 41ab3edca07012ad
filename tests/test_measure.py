import math
import tracemalloc

import numpy as np
import pytest

from svsim import Circuit, PrecisionMode, gates as g, measure, oracle_run, run_circuit
from svsim.kernels import bit_view
from svsim.layout import PartitionLayout, TrafficLedger
from svsim.state import LocalState
from svsim.transport import Transport

from conftest import random_circuit


def test_all_ones_state_reads_half_half_one():
    n = 4
    circuit = Circuit(n, tuple(g.x(q) for q in range(n)) + (g.measure_all(),))
    _, report = oracle_run(circuit)
    for q in range(n):
        assert abs(report.qx[q] - 0.50) < 1e-12
        assert abs(report.qy[q] - 0.50) < 1e-12
        assert abs(report.qz[q] - 1.00) < 1e-12


def test_ground_state_reads_half_half_zero():
    circuit = Circuit(3, (g.measure_all(),))
    _, report = oracle_run(circuit)
    for q in range(3):
        assert report.qx[q] == 0.5
        assert report.qy[q] == 0.5
        assert report.qz[q] == 0.0


def test_plus_state_pins_x_convention():
    circuit = Circuit(2, (g.h(0), g.measure_all()))
    _, report = oracle_run(circuit)
    assert abs(report.qx[0] - 0.0) < 1e-12
    assert abs(report.qy[0] - 0.5) < 1e-12
    assert abs(report.qz[0] - 0.5) < 1e-12


def test_dense_and_distributed_conventions_agree(rng):
    from conftest import random_circuit
    circuit = random_circuit(rng, 6, 12)
    _, expected = oracle_run(circuit)
    for ranks in (1, 2, 4):
        result = run_circuit(circuit, ranks=ranks)
        assert result.report.max_difference(expected) < 1e-12
        assert result.report.norm_deviation < 1e-12


def test_measurement_traffic_one_exchange_per_high_qubit():
    n, ranks = 6, 8
    circuit = Circuit(n, (g.measure_all(),))
    result = run_circuit(circuit, ranks=ranks)
    local = 1 << 3
    for ledger in result.ledgers:
        # qubits 3, 4, 5 sit in the rank bits: one half-exchange each
        assert ledger.inter_rank_messages == 3
        assert ledger.inter_rank_bytes_sent == 3 * (local // 2) * 16


def test_report_invariant_under_tier_and_mode(rng):
    from conftest import exact_class_circuit
    from svsim.tier import TierConfig
    circuit = exact_class_circuit(rng, 8, 16)
    _, expected = oracle_run(circuit)
    state_bytes = (1 << 7) * 16
    configs = [
        dict(ranks=2),
        dict(ranks=2, tier_config=TierConfig(state_bytes // 4, state_bytes // 32)),
        dict(ranks=2, mode=PrecisionMode.BYTE),
    ]
    for kwargs in configs:
        result = run_circuit(circuit, **kwargs)
        assert result.report.max_difference(expected) < 1e-12


def test_unnormalized_state_is_flagged_not_fatal():
    from svsim.layout import PartitionLayout, TrafficLedger
    from svsim.measure import measure_all
    from svsim.state import LocalState
    from svsim.transport import Transport

    state = LocalState.zero_state(3, PrecisionMode.FP64, 0)
    state.data *= 2.0
    ledgers = [TrafficLedger()]
    report = measure_all([state], PartitionLayout(3, 3), Transport(1, ledgers))
    assert abs(report.norm_deviation - 3.0) < 1e-12


def test_relabelled_report_restores_program_order():
    from svsim.measure import ExpectationReport
    raw = ExpectationReport((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9))
    view = raw.relabelled((2, 0, 1))
    assert view.qz == (0.9, 0.7, 0.8)


def test_expectations_stay_in_unit_interval(rng):
    from conftest import random_circuit
    for trial in range(10):
        circuit = random_circuit(rng, 5, 20)
        _, report = oracle_run(circuit)
        for seq in (report.qx, report.qy, report.qz):
            assert all(-1e-9 <= v <= 1 + 1e-9 for v in seq)


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


def _slice(rng, mode, n):
    state = LocalState(n, mode)
    state.data[...] = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state


def _sums(state, work):
    """``_local_sums`` of a state, computing in ``work`` as ``measure_all`` does."""
    front = measure._front_elements(state.n_local)
    amps = state.values(state.data, work[front:])
    return measure._local_sums(amps, state.n_local, work[:front])


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_values_reads_stored_rows_as_complex128(rng, mode):
    state = run_circuit(random_circuit(rng, 8, 30), ranks=2, mode=mode).states[1]
    # the slice, a strided view, a payload, and two rows of code tuples
    rows = [state.data, state.view(((2, 5), (1, 0))), state.payload(((6,), (1,))),
            np.array([state.payload(((0,), (v,))) for v in (0, 1)])]
    for stored in rows:
        work = np.full(stored.size + 5, np.nan + 0j)
        values = state.values(stored, work)
        assert values.dtype == np.complex128 and values.shape == stored.shape
        if mode is PrecisionMode.FP64:
            assert np.shares_memory(values, stored)
            continue
        if mode is PrecisionMode.FP32:
            expected = stored.astype(np.complex128)
            assert np.shares_memory(values, work[:stored.size])
            assert not np.shares_memory(values, work[stored.size:])
            assert not np.shares_memory(state.values(stored), work)
        else:
            expected = state.codebook.decode(stored >> 8, stored & 0xFF)
            assert not np.shares_memory(values, work)
        assert values.tobytes() == expected.tobytes()
        assert state.values(stored).tobytes() == expected.tobytes()


def _blocked_sums(amps, n):
    """The contraction ``_local_sums`` computes, written out block by block.

    One-weights: the squares as 2**(n-k) rows of 2**k, k = n // 2, summed down
    the columns row after row and along each row; a qubit below k adds the
    column sums where it reads 1, any other the row sums.  Cross sums: one
    dot product per pair of blocks, summed.  Above LOW_QUBITS local qubits,
    the low qubits' blocks are columns of chunks of rows of 16 amplitudes,
    and the chunks' sums add up in order.
    """
    k = n // 2
    table = (np.abs(amps) ** 2).reshape(-1, 1 << k)
    cols = table[0].copy()
    for row in table[1:]:
        cols = cols + row
    rows = np.array([np.sum(row) for row in table])
    ones = [float(np.sum(cols.reshape(-1, 2, 1 << q)[:, 1])) for q in range(k)]
    ones += [float(np.sum(rows.reshape(-1, 2, 1 << (q - k))[:, 1])) for q in range(k, n)]
    low = measure.LOW_QUBITS if n > measure.LOW_QUBITS else 0
    cross = [0j] * low
    lines = amps.reshape(-1, 1 << low)
    step = min(measure.CHUNK_ROWS, len(lines) // 2)
    for start in range(0, len(lines), step):
        chunk = lines[start:start + step]
        for q in range(low):
            dots = [np.vdot(np.ascontiguousarray(chunk[:, j]),
                            np.ascontiguousarray(chunk[:, j + (1 << q)]))
                    for j in range(1 << low) if not j >> q & 1]
            cross[q] += complex(np.sum(np.array(dots)))
    for q in range(low, n):
        blocks = amps.reshape(-1, 2, 1 << q)
        cross.append(complex(np.sum(np.array([np.vdot(b0, b1) for b0, b1 in blocks]))))
    return float(np.real(np.vdot(amps, amps))), ones, cross


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_local_sums_are_the_blocked_contraction_bit_for_bit(rng, mode):
    # small slices are drawn often, and 2**16 and 2**17 take several full chunks
    for n in [1] * 5 + [2] * 5 + [3] * 5 + list(range(4, 15)) + [16, 17]:
        state = _slice(rng, mode, n)
        work = np.full(measure.work_elements(PartitionLayout(n, n), mode), np.nan + 0j)
        norm, ones, cross = _sums(state, work)
        expected_norm, expected_ones, expected_cross = _blocked_sums(state.working(), n)
        assert _bits(norm) == _bits(expected_norm), n
        for q in range(n):
            assert _bits(ones[q]) == _bits(expected_ones[q]), (n, q)
            assert _bits(cross[q]) == _bits(expected_cross[q]), (n, q)


def _report_from_blocks(states, layout):
    """The report ``measure_all`` gives, from ``_blocked_sums`` and one vdot per rank pair."""
    n_local, half = layout.local_qubits, layout.local_size // 2
    amps = [state.working() for state in states]
    sums = [_blocked_sums(a, n_local) for a in amps]
    qx, qy, qz = [], [], []
    for q in range(layout.total_qubits):
        if q < n_local:
            s = sum(rank_sums[2][q] for rank_sums in sums)
            z = sum(rank_sums[1][q] for rank_sums in sums)
        else:
            bit, s, z = q - n_local, 0, 0
            for rank in range(len(states)):
                # each rank sums its own half of the pair: the top local bit reads its bit
                pos = rank >> bit & 1
                own = slice(pos * half, (pos + 1) * half)
                a0, a1 = amps[rank & ~(1 << bit)][own], amps[rank | (1 << bit)][own]
                s += complex(np.vdot(a0, a1))
                z += sums[rank][0] if pos else 0.0
        qx.append((1.0 - 2.0 * s.real) / 2.0)
        qy.append((1.0 - 2.0 * s.imag) / 2.0)
        qz.append(z)
    return qx, qy, qz


def _ledgers(ranks):
    return [TrafficLedger() for _ in range(ranks)]


def _random_states(rng, layout, mode):
    return [_slice(rng, mode, layout.local_qubits) for _ in range(layout.rank_count)]


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_a_report_is_the_blocked_contraction_bit_for_bit(rng, mode):
    # a measured rank qubit sums one vdot over each rank's half of the stacked pair
    for n, ranks in ((3, 4), (5, 8), (6, 2), (9, 4), (12, 2)):
        layout = PartitionLayout(n, n - (ranks.bit_length() - 1))
        states = _random_states(rng, layout, mode)
        report = measure.measure_all(states, layout, Transport(ranks, _ledgers(ranks)))
        qx, qy, qz = _report_from_blocks(states, layout)
        assert (_bits(report.qx), _bits(report.qy), _bits(report.qz)) == (
            _bits(qx), _bits(qy), _bits(qz)), (n, ranks)


def _exact_sum(factors) -> tuple[float, float]:
    """Correctly rounded sum of sign * a * b over ``(a, b, sign)`` arrays, and its scale.

    Each float64 product splits exactly into p + e (Dekker's two-product);
    the scale is the sum of |a * b|.
    """
    terms, scale = [], []
    for a, b, sign in factors:
        p = a * b
        ah, bh = (134217729.0 * v - (134217729.0 * v - v) for v in (a, b))
        al, bl = a - ah, b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        terms += (sign * p).tolist() + (sign * e).tolist()
        scale += np.abs(p).tolist()
    return math.fsum(terms), math.fsum(scale)


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_local_sums_stay_within_the_summation_bound_of_exact_sums(rng, mode):
    # A sum of m rounded products, in any order, errs by at most about
    # m * eps / 2 times the sum of their magnitudes (Higham, "Accuracy and
    # Stability of Numerical Algorithms", sec. 3.1).  No sum here takes more
    # than 2 * size products, |a|**2 from hypot adds at most 5 ulp-halves
    # per term, and fsum rounds once: 2 * size * eps bounds them all.
    eps = np.finfo(np.float64).eps
    for n in range(1, 17):
        state = _slice(rng, mode, n)
        work = np.empty(measure.work_elements(PartitionLayout(n, n), mode), complex)
        norm, ones, cross = _sums(state, work)
        amps, bound = state.working(), 2 * (1 << n) * eps

        def check(value, factors, what):
            exact, scale = _exact_sum(factors)
            assert abs(value - exact) <= bound * scale, (n, what, value - exact, scale)

        check(norm, [(amps.real, amps.real, 1), (amps.imag, amps.imag, 1)], "norm")
        for q in range(n):
            a0, a1 = (bit_view(amps, (q,), (v,)).ravel() for v in (0, 1))
            check(ones[q], [(a1.real, a1.real, 1), (a1.imag, a1.imag, 1)], ("ones", q))
            check(cross[q].real, [(a0.real, a1.real, 1), (a0.imag, a1.imag, 1)], ("re", q))
            check(cross[q].imag, [(a0.real, a1.imag, 1), (a0.imag, a1.real, -1)], ("im", q))


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_sums_ignore_the_workspace_contents_and_offset(rng, mode):
    for n, ranks in ((1, 1), (4, 1), (7, 2), (10, 4), (15, 2)):
        layout = PartitionLayout(n, n - (ranks.bit_length() - 1))
        states = _random_states(rng, layout, mode)
        size = measure.work_elements(layout, mode)
        outcomes = set()
        # NaN-filled, offset by whole and by half elements, and larger than asked
        for work in (None, np.full(size, np.nan + 1j * np.inf),
                     np.full(size + 3, np.nan + 0j)[3:],
                     np.full(2 * size + 1, np.nan)[1:].view(np.complex128),
                     np.zeros(2 * size, dtype=np.complex128)):
            report = measure.measure_all(states, layout, Transport(ranks, _ledgers(ranks)),
                                         work=work)
            own = np.full(size + 1, np.nan + 0j)[1:] if work is None else work
            local = _sums(states[0], own)
            outcomes.add((_bits(report.qx), _bits(report.qy), _bits(report.qz),
                          _bits(report.norm_deviation), repr(local)))
        assert len(outcomes) == 1, (n, ranks)


@pytest.mark.parametrize("mode", [PrecisionMode.FP64, PrecisionMode.FP32])
def test_measurement_in_a_workspace_holds_nothing_of_a_sixteenth_slice(rng, mode):
    for n, ranks in ((16, 1), (17, 2)):
        layout = PartitionLayout(n, n - (ranks.bit_length() - 1))
        states = _random_states(rng, layout, mode)
        work = np.empty(measure.work_elements(layout, mode), dtype=np.complex128)
        outbox = np.empty(layout.local_size * ranks, dtype=mode.dtype)
        transport = Transport(ranks, _ledgers(ranks))
        measure.measure_all(states, layout, transport, work=work, outbox=outbox)
        tracemalloc.start()
        try:
            measure.measure_all(states, layout, transport, work=work, outbox=outbox)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a complex128 slice takes 16 B per amplitude
        assert peak < layout.local_size, (n, ranks, peak)
