"""Per-partition amplitude storage.

A partition holds 2**n_local amplitudes in one of three storage modes.
Arithmetic always runs in double precision; the mode only controls what is
kept at rest (and therefore what travels over exchanges):

  FP64: complex128, 16 bytes per amplitude
  FP32: complex64, 8 bytes per amplitude
  BYTE: two uint8 codebook indices, 2 bytes per amplitude

A BYTE partition holds the run's one ``Codebook``, shared by every
partition, and decodes and encodes through it; callers pass no codebook.
Its ``store`` takes values in the ``(r, theta)`` form that ``canonicalize``
gives, so a value's proposal at the codebook barrier and its write share one
canonicalization.  ``distinct`` and ``store(..., codes=...)`` let a gate that
acts on each value alone work on a region's distinct stored index pairs
rather than on every position.
"""
from __future__ import annotations

import enum

import numpy as np

from .codec import Codebook
from .kernels import bit_view


class PrecisionMode(enum.Enum):
    FP64 = "fp64"
    FP32 = "fp32"
    BYTE = "be"

    @property
    def bytes_per_element(self) -> int:
        return {PrecisionMode.FP64: 16, PrecisionMode.FP32: 8, PrecisionMode.BYTE: 2}[self]

    @property
    def norm_tolerance(self) -> float:
        return 1e-5 if self is PrecisionMode.FP32 else 1e-12


class LocalState:
    """One partition's slice of the state vector."""

    def __init__(self, n_local: int, mode: PrecisionMode, codebook: Codebook | None = None):
        self.n_local = n_local
        self.mode = mode
        self.codebook = codebook  # None in fp modes
        size = 1 << n_local
        if mode is PrecisionMode.FP64:
            self.psi = np.zeros(size, dtype=np.complex128)
        elif mode is PrecisionMode.FP32:
            self.psi = np.zeros(size, dtype=np.complex64)
        else:
            self.mag_idx = np.zeros(size, dtype=np.uint8)
            self.phase_idx = np.zeros(size, dtype=np.uint8)

    @classmethod
    def zero_state(cls, n_local: int, mode: PrecisionMode, with_unit_amplitude: bool,
                   codebook: Codebook | None = None):
        """All-zeros slice; the partition owning global index 0 gets amplitude 1.

        In BYTE mode this relies on the codebook's pinned entries: magnitude
        index 1 is 1.0 and phase index 0 is 0, so no synchronisation is needed
        to encode the initial state.
        """
        state = cls(n_local, mode, codebook)
        if with_unit_amplitude:
            if mode is PrecisionMode.BYTE:
                state.mag_idx[0] = 1
            else:
                state.psi[0] = 1.0
        return state

    @property
    def storage_nbytes(self) -> int:
        return self.mode.bytes_per_element << self.n_local

    def _views(self, where) -> tuple:
        """Views of the arrays kept at rest, at ``where``."""
        arrays = ((self.mag_idx, self.phase_idx) if self.mode is PrecisionMode.BYTE
                  else (self.psi,))
        return tuple(bit_view(array, *where) for array in arrays)

    def working(self, where=()) -> np.ndarray:
        """Decoded complex128 copy of the slice, or of its ``where`` part."""
        views = self._views(where)
        if self.mode is PrecisionMode.BYTE:
            return self.codebook.decode(*views).reshape(-1)
        return views[0].astype(np.complex128).reshape(-1)

    def payload(self, where) -> tuple:
        """Copy of the stored arrays at ``where``: what an exchange sends."""
        return tuple(view.flatten() for view in self._views(where))

    def values(self, payload) -> np.ndarray:
        """Amplitudes a payload carries; an fp payload's array is returned as it is."""
        if self.mode is PrecisionMode.BYTE:
            return self.codebook.decode(*payload)
        return payload[0]

    def distinct(self, where) -> tuple[np.ndarray, np.ndarray]:
        """BYTE: the distinct stored codes at ``where`` and the values they decode to.

        A position's code is its magnitude index times 256 plus its phase
        index; the codes come out ascending.  Positions that share a code
        share a value, so a gate that acts on each value alone, such as a
        diagonal one, needs only these.
        """
        codes = np.unique(_codes(self._views(where)))
        return codes, self.codebook.decode(codes >> 8, codes & 0xFF)

    def store(self, values, where=(), codes=None) -> None:
        """Write back computed values, re-encoding as the mode requires.

        ``where`` is a ``(bits, values)`` pair as ``kernels.bit_view`` takes
        it, and ``()`` names the whole slice; in BYTE mode untouched positions
        keep their bytes.  BYTE mode takes the ``(r, theta)`` parts that
        ``canonicalize`` gave for the values, and writes after the gate's
        codebook barrier.  With the ``codes`` that ``distinct(where)`` gave,
        the parts hold one value per code, and each position at ``where``
        takes the encoding of its code's value through 65536-entry tables.
        """
        views = self._views(where)
        if self.mode is not PrecisionMode.BYTE:
            parts = (values,)
        else:
            parts = self.codebook.encode(*values)
            if codes is not None:
                stored = _codes(views)
                parts = tuple(_table(codes, part)[stored] for part in parts)
        for view, part in zip(views, parts):
            view[...] = part.reshape(view.shape)


def _codes(views) -> np.ndarray:
    """16-bit codes of the stored (magnitude, phase) index views."""
    mag_idx, phase_idx = views
    codes = mag_idx.astype(np.uint16)
    codes <<= 8
    codes |= phase_idx
    return codes


def _table(codes: np.ndarray, part: np.ndarray) -> np.ndarray:
    """A 65536-entry lookup that maps each of ``codes`` to its entry of ``part``."""
    table = np.zeros(1 << 16, dtype=np.uint8)
    table[codes] = part
    return table
