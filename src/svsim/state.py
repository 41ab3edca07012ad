"""Per-partition amplitude storage.

A partition holds 2**n_local amplitudes in one stored array, ``data``, whose
dtype the storage mode gives.  Arithmetic always runs in double precision;
the mode only controls what is kept at rest (and therefore what travels over
exchanges):

  FP64: complex128, 16 bytes per amplitude
  FP32: complex64, 8 bytes per amplitude
  BYTE: uint16 codes, 2 bytes per amplitude: magnitude index x 256 + phase
        index into the run's codebook tables

A gate computes on rows where they lie: parts of ``data`` (``view``) and
the payloads other partitions sent (``payload``), and writes its results
straight into the parts they belong to.  A BYTE gate's result at a position
depends only on the codes it combines, so the engine works on distinct code
tuples, decodes (``values``) and encodes (``encode``) only those, and
``store``s codes back.  Measurement reads rows where they lie too, through
``values``, which gives any stored rows as complex128 amplitudes: fp64
storage as it is, fp32 cast into memory the caller may pass, so that a run
measures without allocating, and BYTE codes decoded.  A BYTE partition holds
the run's one ``Codebook``, shared by every partition, and decodes and
encodes through it; callers pass no codebook.
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
    def dtype(self) -> np.dtype:
        """What storage holds per amplitude: a complex value, or BYTE's code."""
        return np.dtype({PrecisionMode.FP64: np.complex128, PrecisionMode.FP32: np.complex64,
                         PrecisionMode.BYTE: np.uint16}[self])

    @property
    def bytes_per_element(self) -> int:
        return self.dtype.itemsize

    @property
    def stored_one(self) -> int:
        """Amplitude 1 as storage holds it.

        BYTE's code is magnitude index 1 times 256 plus phase index 0: the
        codebook pins those entries to 1.0 and to phase 0, so no
        synchronisation is needed to encode the initial state.
        """
        return {PrecisionMode.FP64: 1, PrecisionMode.FP32: 1, PrecisionMode.BYTE: 1 << 8}[self]

    @property
    def norm_tolerance(self) -> float:
        return 1e-5 if self is PrecisionMode.FP32 else 1e-12


class LocalState:
    """One partition's slice of the state vector."""

    def __init__(self, n_local: int, mode: PrecisionMode, codebook: Codebook | None = None):
        self.n_local = n_local
        self.mode = mode
        self.codebook = codebook  # None in fp modes
        self.data = np.zeros(1 << n_local, dtype=mode.dtype)

    @classmethod
    def zero_state(cls, n_local: int, mode: PrecisionMode, unit: int | None,
                   codebook: Codebook | None = None):
        """All-zeros slice, with amplitude 1 at local index ``unit`` unless it is None."""
        state = cls(n_local, mode, codebook)
        if unit is not None:
            state.data[unit] = mode.stored_one
        return state

    def view(self, where=()) -> np.ndarray:
        """View of the stored array at ``where``."""
        return bit_view(self.data, *where)

    def working(self, where=()) -> np.ndarray:
        """Decoded complex128 copy of the slice, or of its ``where`` part, flat."""
        view = self.view(where)
        values = self.values(view)
        return (values.copy() if values is view else values).reshape(-1)

    def payload(self, where, out=None) -> np.ndarray:
        """Copy of the stored array at ``where``: what an exchange sends.

        ``out``, a 1-D storage-dtype array of the part's size, receives the
        copy; without it the copy is new.
        """
        view = self.view(where)
        if out is None:
            return view.flatten()
        out.reshape(view.shape)[...] = view
        return out

    def values(self, stored: np.ndarray, work=None) -> np.ndarray:
        """The complex128 amplitudes of stored rows: a view, a payload or code tuples.

        Complex128 rows are returned as they are, to be read and not written.
        Complex64 rows are cast into the front of ``work``, a 1-D complex128
        array, or into a new array; BYTE codes decode into a new array.
        """
        if self.mode is PrecisionMode.BYTE:
            return self.codebook.decode(stored >> 8, stored & 0xFF)
        if stored.dtype == np.complex128:
            return stored
        if work is None:
            return stored.astype(np.complex128)
        out = work[:stored.size].reshape(stored.shape)
        out[...] = stored
        return out

    def encode(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """BYTE: the codes of the ``(r, theta)`` parts that ``canonicalize`` gave.

        Called after the gate's codebook barrier, so the codes index the
        tables every partition then holds.
        """
        mag_idx, phase_idx = self.codebook.encode(r, theta)
        codes = mag_idx.astype(np.uint16)
        codes <<= 8
        codes |= phase_idx
        return codes

    def store(self, data: np.ndarray, where=()) -> None:
        """Write at ``where``: values in the fp modes, codes in BYTE mode.

        ``where`` is a ``(bits, values)`` pair as ``kernels.bit_view`` takes
        it, and ``()`` names the whole slice; positions outside it keep what
        they hold.  Fp32 storage rounds the complex128 values it is given.
        """
        view = self.view(where)
        view[...] = data.reshape(view.shape)
