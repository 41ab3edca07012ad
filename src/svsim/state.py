"""Per-partition amplitude storage.

A partition holds 2**n_local amplitudes in one of three storage modes.
Arithmetic always runs in double precision; the mode only controls what is
kept at rest (and therefore what travels over exchanges):

  FP64: complex128, 16 bytes per amplitude
  FP32: complex64, 8 bytes per amplitude
  BYTE: two uint8 codebook indices, 2 bytes per amplitude

An exchanged gate, and every byte-mode gate, computes on ``stack``ed rows:
complex128 amplitudes in the fp modes, and in BYTE mode each position's
16-bit code, its magnitude index times 256 plus its phase index.  A
byte-mode gate's result at a position depends only on the codes it
combines, so the engine works on distinct code tuples and decodes
(``values``) and encodes (``encode``) only those; ``store`` takes codes
back.  A BYTE partition holds the run's one ``Codebook``, shared by every
partition, and decodes and encodes through it; callers pass no codebook.
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

    def views(self, where=()) -> tuple:
        """Views of the arrays kept at rest, at ``where``."""
        arrays = ((self.mag_idx, self.phase_idx) if self.mode is PrecisionMode.BYTE
                  else (self.psi,))
        return tuple(bit_view(array, *where) for array in arrays)

    def working(self, where=()) -> np.ndarray:
        """Decoded complex128 copy of the slice, or of its ``where`` part."""
        views = self.views(where)
        if self.mode is PrecisionMode.BYTE:
            return self.codebook.decode(*views).reshape(-1)
        return views[0].astype(np.complex128).reshape(-1)

    def payload(self, where) -> tuple:
        """Copy of the stored arrays at ``where``: what an exchange sends."""
        return tuple(view.flatten() for view in self.views(where))

    def stack(self, parts) -> np.ndarray:
        """What a gate computes on: one row per part, in ascending index order.

        A part is what ``views`` or ``payload`` gives.  Rows hold complex128
        amplitudes in the fp modes and 16-bit codes in BYTE mode.
        """
        byte = self.mode is PrecisionMode.BYTE
        rows = np.empty((len(parts), parts[0][0].size),
                        dtype=np.uint16 if byte else np.complex128)
        for row, part in zip(rows, parts):
            row = row.reshape(part[0].shape)
            row[...] = part[0]
            if byte:
                row <<= 8
                row |= part[1]
        return rows

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Amplitudes ``stack`` rows hold: BYTE codes decode, fp rows are returned."""
        if self.mode is PrecisionMode.BYTE:
            return self.codebook.decode(rows >> 8, rows & 0xFF)
        return rows

    def encode(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """BYTE: the codes of the ``(r, theta)`` parts that ``canonicalize`` gave.

        Called after the gate's codebook barrier, so the codes index the
        tables every partition then holds.
        """
        return self.stack([self.codebook.encode(r, theta)])[0]

    def store(self, data: np.ndarray, where=()) -> None:
        """Write back at ``where``: values in the fp modes, codes in BYTE mode.

        ``where`` is a ``(bits, values)`` pair as ``kernels.bit_view`` takes
        it, and ``()`` names the whole slice; positions outside it keep what
        they hold.  Fp32 storage rounds the complex128 values it is given.
        """
        views = self.views(where)
        parts = ((data >> 8, data & 0xFF) if self.mode is PrecisionMode.BYTE
                 else (data,))
        for view, part in zip(views, parts):
            view[...] = part.reshape(view.shape)
