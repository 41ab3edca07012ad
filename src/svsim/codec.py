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

Every lookup reads one cached sorted view per table: the ascending entries
and their table indices.  The phase view ends with a 2pi sentinel that maps
to index 0; entry 0 is pinned at phase 0, so the sentinel is every phase's
neighbour across the branch cut and plain distances suffice.  A query's two
neighbours in the view answer both "is it representable?" and "which entry
is nearest?", and the view's gaps give the quantisation bound.

The codec's callers canonicalize each produced value once: ``propose``
takes the four parts ``canonicalize`` returns and ``encode`` takes
``(r, theta)``.  ``propose`` does no work that cannot change a table: it
drops representable phases before sorting, visits only tolerance-close
neighbours one by one, and skips a table that is full and already flagged.

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
    zero = r == 0.0
    theta = np.angle(v)
    # np.mod(theta, 2pi) bit for bit, without its fmod: negative angles move
    # up by 2pi, and adding 0.0 to the rest turns -0.0 into 0.0
    theta += np.where(theta < 0.0, TWO_PI, 0.0)
    theta[(TWO_PI - theta < PHASE_ATOL) | zero] = 0.0
    scale = np.where(zero, 1.0, r)
    ux = v.real / scale
    uy = v.imag / scale
    # zero gets unit vector (1, 0); adding 0.0 normalises -0.0, so identical
    # phases are bitwise identical
    ux += zero
    uy += 0.0
    return r, theta, ux, uy


def _neighbours(sorted_vals: np.ndarray, queries: np.ndarray):
    """Positions in ``sorted_vals`` just below and just above each query."""
    above = np.searchsorted(sorted_vals, queries)
    below = above - 1
    np.maximum(below, 0, out=below)
    np.minimum(above, len(sorted_vals) - 1, out=above)
    return below, above


def _close(a: np.ndarray, b: np.ndarray, is_mag: bool) -> np.ndarray:
    """Whether entries ``a`` and ``b`` are within the matching tolerance."""
    tol = MAG_RTOL * np.maximum(np.abs(a), np.abs(b)) if is_mag else PHASE_ATOL
    return np.abs(a - b) <= tol


def _dedup_sorted(values: np.ndarray, is_mag: bool) -> np.ndarray:
    """Boolean keep-mask over ascending values, dropping tolerance-duplicates.

    A value is dropped when it is close to the last value kept before it.
    One that is not close to its neighbour below is farther still from any
    smaller value (magnitudes are never negative), so it is always kept;
    only values close to their neighbour below are visited one by one.
    """
    keep = np.ones(len(values), dtype=bool)
    last = 0
    for i in np.flatnonzero(_close(values[1:], values[:-1], is_mag)) + 1:
        if keep[i - 1]:
            last = i - 1
        keep[i] = not _close(values[i], values[last], is_mag)
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
    units: np.ndarray = field(default_factory=lambda: np.array([1.0 + 0.0j]))
    mag_overflow: bool = False
    phase_overflow: bool = False

    def __post_init__(self):
        self._views = {}

    def _sorted(self, which: str):
        """Ascending entries of a table and their table indices, cached.

        The phase view ends with a 2pi sentinel at index 0.
        """
        table = self.mags if which == "mag" else self.thetas
        if self._views.get(which, (None,))[0] is not table:
            order = np.argsort(table, kind="stable").astype(np.uint8)
            entries = table[order]
            if which == "phase":
                entries, order = np.append(entries, TWO_PI), np.append(order, np.uint8(0))
            self._views[which] = (table, entries, order)
        return self._views[which][1:]

    def _representable_mask(self, values: np.ndarray, which: str) -> np.ndarray:
        entries, _ = self._sorted(which)
        below, above = _neighbours(entries, values)
        is_mag = which == "mag"
        return _close(entries[below], values, is_mag) | _close(entries[above], values, is_mag)

    def _nearest(self, queries: np.ndarray, which: str) -> np.ndarray:
        """Table index of the entry nearest each query, ties to the smaller index."""
        entries, order = self._sorted(which)
        below, above = _neighbours(entries, queries)
        d_below = np.abs(entries[below] - queries)
        d_above = np.abs(entries[above] - queries)
        below, above = order[below], order[above]
        return np.where((d_below < d_above) | ((d_below == d_above) & (below < above)),
                        below, above)

    def _full(self, which: str) -> bool:
        """Whether a table is full and flagged, so no proposal can change it."""
        if which == "mag":
            return self.mag_overflow and len(self.mags) == CAPACITY
        return self.phase_overflow and len(self.thetas) == CAPACITY

    def _fresh_mags(self, mags: np.ndarray) -> np.ndarray:
        """Distinct magnitudes, ascending, that no entry already represents."""
        if self._full("mag"):
            return np.empty(0)
        # unique first: it costs less than the neighbour search it shrinks
        mags = np.unique(mags)
        mags = mags[~self._representable_mask(mags, "mag")]
        return mags[_dedup_sorted(mags, is_mag=True)]

    def _fresh_phases(self, thetas: np.ndarray, ux: np.ndarray, uy: np.ndarray):
        """Distinct phases, ascending, that no entry already represents.

        Each keeps the unit vector that sorts first among those sharing its
        phase, so the result does not depend on the order of the input.
        """
        if self._full("phase"):
            return np.empty(0), np.empty(0), np.empty(0)
        # representability depends on the phase alone, so this drops whole
        # groups of equal phases and spares the three-key sort their rows
        new = ~self._representable_mask(thetas, "phase")
        thetas, ux, uy = thetas[new], ux[new], uy[new]
        order = np.lexsort((uy, ux, thetas))
        thetas, ux, uy = thetas[order], ux[order], uy[order]
        first = np.ones(len(thetas), dtype=bool)
        first[1:] = thetas[1:] != thetas[:-1]
        thetas, ux, uy = thetas[first], ux[first], uy[first]
        keep = _dedup_sorted(thetas, is_mag=False)
        return thetas[keep], ux[keep], uy[keep]

    def propose(self, r: np.ndarray, theta: np.ndarray, ux: np.ndarray,
                uy: np.ndarray) -> Proposal:
        """Distinct canonical (r, theta) pairs not already representable.

        Takes the four parts ``canonicalize`` returns for the produced values.
        """
        return Proposal(self._fresh_mags(r), *self._fresh_phases(theta, ux, uy))

    def merge(self, proposals: list[Proposal]) -> None:
        """Append the union of all partitions' proposals, in ascending order.

        Same input set implies the same resulting tables, independent of the
        number of partitions or their visiting order.
        """
        if not proposals:
            return
        mags = self._fresh_mags(np.concatenate([p.mags for p in proposals]))
        thetas, ux, uy = self._fresh_phases(
            *(np.concatenate([getattr(p, part) for p in proposals])
              for part in ("thetas", "ux", "uy")))
        room = CAPACITY - len(self.mags)
        self.mag_overflow |= len(mags) > room
        self.mags = np.concatenate([self.mags, mags[:room]])
        room = CAPACITY - len(self.thetas)
        self.phase_overflow |= len(thetas) > room
        self.thetas = np.concatenate([self.thetas, thetas[:room]])
        self.units = np.concatenate([self.units, ux[:room] + 1j * uy[:room]])

    def encode(self, r: np.ndarray, theta: np.ndarray):
        """Nearest-entry indices for canonical ``(r, theta)``; exact for table entries."""
        mag_idx = self._nearest(r, "mag")
        phase_idx = self._nearest(theta, "phase")
        phase_idx[mag_idx == 0] = 0
        return mag_idx, phase_idx

    def decode(self, mag_idx: np.ndarray, phase_idx: np.ndarray) -> np.ndarray:
        # encode pairs magnitude 0 with phase 0, whose unit is 1, so 0 decodes to +0j
        out = self.units[phase_idx]
        out *= self.mags[mag_idx]
        return out

    @property
    def overflowed(self) -> bool:
        return self.mag_overflow or self.phase_overflow

    def resolution(self) -> tuple[float, float]:
        """Worst-case quantisation error bound per table (half the max gap).

        The phase view's 2pi sentinel makes its last gap the wrap-around one.
        """
        return tuple(float(np.diff(self._sorted(which)[0]).max()) / 2.0
                     for which in ("mag", "phase"))

    def dump(self) -> str:
        """Diagnostic text form: one hex-float entry per line."""
        lines = [f"M {i} {float(v).hex()}" for i, v in enumerate(self.mags)]
        lines += [f"P {i} {float(v).hex()}" for i, v in enumerate(self.thetas)]
        return "\n".join(lines) + "\n"
