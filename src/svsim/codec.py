"""Adaptive two-byte polar encoding of amplitudes.

Each stored amplitude is a pair of 8-bit indices into a magnitude table and
a phase table that every partition holds identically.  The tables start
minimal (magnitude 0 and 1, phase 0) and grow as gates produce values that
are not yet representable; growth is synchronised at a per-gate barrier so
that encoded bytes mean the same thing on every partition.

Tables are append-only: an entry's index never changes within a run, so
previously encoded bytes stay valid.  New entries are merged from all
partitions' proposals, de-duplicated, sorted ascending, and appended; once a
table reaches 256 entries further values are quantised to the nearest
existing entry and the table's overflow flag is set.

Phase entries also carry the exact unit vector of the amplitude that first
proposed the phase.  Decoding multiplies the table magnitude by that unit
vector, so a value whose polar parts are table entries decodes back
bit-for-bit instead of through cos/sin round-off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CAPACITY = 256
MAG_RTOL = 1e-12
PHASE_ATOL = 1e-12
TWO_PI = 2.0 * math.pi


def canonicalize(values: np.ndarray):
    """Polar normal form: (r, theta in [0, 2pi), unit re, unit im).

    r == 0 forces theta = 0 and unit vector (1, 0).  Phases within the
    matching tolerance of 2pi are wrapped to 0 so near-duplicates on either
    side of the branch cut merge.
    """
    v = np.asarray(values, dtype=np.complex128).ravel()
    r = np.abs(v)
    theta = np.mod(np.angle(v), TWO_PI)
    theta[TWO_PI - theta < PHASE_ATOL] = 0.0
    nz = r > 0.0
    ux = np.ones_like(r)
    uy = np.zeros_like(r)
    ux[nz] = v.real[nz] / r[nz]
    uy[nz] = v.imag[nz] / r[nz]
    theta[~nz] = 0.0
    # normalise -0.0 so identical phases are bitwise identical
    ux += 0.0
    uy += 0.0
    return r, theta, ux, uy


def _nearest(sorted_vals: np.ndarray, orig_idx: np.ndarray, queries: np.ndarray,
             circular: bool) -> np.ndarray:
    """Index of the nearest table entry per query, ties to the smaller index."""
    pos = np.searchsorted(sorted_vals, queries)
    last = len(sorted_vals) - 1
    cand = [np.clip(pos - 1, 0, last), np.clip(pos, 0, last)]
    if circular and last > 0:
        cand.append(np.full_like(pos, 0))
        cand.append(np.full_like(pos, last))
    cand = np.stack(cand)
    dist = np.abs(sorted_vals[cand] - queries[None, :])
    if circular:
        dist = np.minimum(dist, TWO_PI - dist)
    best = dist.min(axis=0)
    idx = np.where(dist == best, orig_idx[cand], CAPACITY + 1)
    return idx.min(axis=0).astype(np.uint8)


def _dedup_sorted(values: np.ndarray, is_mag: bool) -> np.ndarray:
    """Boolean keep-mask over ascending values, dropping tolerance-duplicates."""
    keep = np.zeros(len(values), dtype=bool)
    last = None
    for i, v in enumerate(values):
        if last is not None:
            if is_mag:
                close = abs(v - last) <= MAG_RTOL * max(abs(v), abs(last))
            else:
                close = abs(v - last) <= PHASE_ATOL
            if close:
                continue
        keep[i] = True
        last = v
    return keep


@dataclass
class Proposal:
    """One partition's not-yet-representable values for the current gate."""
    mags: np.ndarray
    thetas: np.ndarray
    ux: np.ndarray
    uy: np.ndarray


@dataclass
class Codebook:
    mags: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    thetas: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    ux: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    uy: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    mag_overflow: bool = False
    phase_overflow: bool = False

    def __post_init__(self):
        self._sorted_cache = {}

    def _sorted(self, which: str):
        table = self.mags if which == "mag" else self.thetas
        key = (which, len(table))
        hit = self._sorted_cache.get(key)
        if hit is None:
            order = np.argsort(table, kind="stable").astype(np.int64)
            hit = (table[order], order)
            self._sorted_cache = {key: hit}
        return hit

    def _representable_mask(self, values: np.ndarray, which: str) -> np.ndarray:
        sorted_vals, order = self._sorted(which)
        pos = np.searchsorted(sorted_vals, values)
        last = len(sorted_vals) - 1
        mask = np.zeros(len(values), dtype=bool)
        for cand in (np.clip(pos - 1, 0, last), np.clip(pos, 0, last)):
            d = np.abs(sorted_vals[cand] - values)
            if which == "mag":
                tol = MAG_RTOL * np.maximum(np.abs(values), np.abs(sorted_vals[cand]))
            else:
                d = np.minimum(d, TWO_PI - d)
                tol = PHASE_ATOL
            mask |= d <= tol
        return mask

    def _fresh_mags(self, mags: np.ndarray) -> np.ndarray:
        """Distinct magnitudes, ascending, that no entry already represents."""
        mags = np.unique(mags)
        mags = mags[~self._representable_mask(mags, "mag")]
        return mags[_dedup_sorted(mags, is_mag=True)]

    def _fresh_phases(self, thetas: np.ndarray, ux: np.ndarray, uy: np.ndarray):
        """Distinct phases, ascending, that no entry already represents.

        Each keeps the unit vector that sorts first among those sharing its
        phase, so the result does not depend on the order of the input.
        """
        order = np.lexsort((uy, ux, thetas))
        thetas, ux, uy = thetas[order], ux[order], uy[order]
        first = np.ones(len(thetas), dtype=bool)
        first[1:] = thetas[1:] != thetas[:-1]
        thetas, ux, uy = thetas[first], ux[first], uy[first]
        new = ~self._representable_mask(thetas, "phase")
        thetas, ux, uy = thetas[new], ux[new], uy[new]
        keep = _dedup_sorted(thetas, is_mag=False)
        return thetas[keep], ux[keep], uy[keep]

    def propose(self, values: np.ndarray) -> Proposal:
        """Distinct canonical (r, theta) pairs not already representable."""
        r, theta, ux, uy = canonicalize(values)
        return Proposal(self._fresh_mags(r), *self._fresh_phases(theta, ux, uy))

    def merge(self, proposals: list[Proposal]) -> None:
        """Append the union of all partitions' proposals, in ascending order.

        Same input set implies the same resulting tables, independent of the
        number of partitions or their visiting order.
        """
        if proposals:
            mags = self._fresh_mags(np.concatenate([p.mags for p in proposals]))
            room = CAPACITY - len(self.mags)
            if len(mags) > room:
                mags = mags[:max(room, 0)]
                self.mag_overflow = True
            if len(mags):
                self.mags = np.concatenate([self.mags, mags])

            thetas, ux, uy = self._fresh_phases(np.concatenate([p.thetas for p in proposals]),
                                                np.concatenate([p.ux for p in proposals]),
                                                np.concatenate([p.uy for p in proposals]))
            room = CAPACITY - len(self.thetas)
            if len(thetas) > room:
                thetas, ux, uy = thetas[:max(room, 0)], ux[:max(room, 0)], uy[:max(room, 0)]
                self.phase_overflow = True
            if len(thetas):
                self.thetas = np.concatenate([self.thetas, thetas])
                self.ux = np.concatenate([self.ux, ux])
                self.uy = np.concatenate([self.uy, uy])

    def encode(self, values: np.ndarray):
        """Nearest-entry indices for each value; exact when parts are entries."""
        r, theta, _, _ = canonicalize(values)
        mag_sorted, mag_order = self._sorted("mag")
        phase_sorted, phase_order = self._sorted("phase")
        mag_idx = _nearest(mag_sorted, mag_order, r, circular=False)
        phase_idx = _nearest(phase_sorted, phase_order, theta, circular=True)
        phase_idx[mag_idx == 0] = 0
        return mag_idx, phase_idx

    def decode(self, mag_idx: np.ndarray, phase_idx: np.ndarray) -> np.ndarray:
        out = self.mags[mag_idx] * (self.ux[phase_idx] + 1j * self.uy[phase_idx])
        out[mag_idx == 0] = 0.0
        return out

    @property
    def overflowed(self) -> bool:
        return self.mag_overflow or self.phase_overflow

    def resolution(self) -> tuple[float, float]:
        """Worst-case quantisation error bound per table (half the max gap)."""
        mag_sorted, _ = self._sorted("mag")
        mag_gap = float(np.diff(mag_sorted).max()) if len(mag_sorted) > 1 else 0.0
        phase_sorted, _ = self._sorted("phase")
        if len(phase_sorted) > 1:
            gaps = np.diff(phase_sorted)
            wrap = TWO_PI - phase_sorted[-1] + phase_sorted[0]
            phase_gap = float(max(gaps.max(), wrap))
        else:
            phase_gap = TWO_PI
        return mag_gap / 2.0, phase_gap / 2.0

    def dump(self) -> str:
        """Diagnostic text form: one hex-float entry per line."""
        lines = [f"M {i} {float(v).hex()}" for i, v in enumerate(self.mags)]
        lines += [f"P {i} {float(v).hex()}" for i, v in enumerate(self.thetas)]
        return "\n".join(lines) + "\n"
