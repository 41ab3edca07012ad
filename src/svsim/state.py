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
``store``s codes back.  Measurement, ``amplitudes`` and ``working`` read
``stack``ed rows: complex128 amplitudes in the fp modes, and in BYTE mode the
stored codes as they are.  A caller may pass the memory that stacked rows
and payloads fill, so that a run stacks and sends without allocating.  A
BYTE partition holds the run's one ``Codebook``, shared by every partition,
and decodes and encodes through it; callers pass no codebook.
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
    def row_dtype(self) -> np.dtype:
        """What ``LocalState.stack`` rows hold: complex128, or BYTE's stored codes."""
        return np.dtype(np.uint16 if self is PrecisionMode.BYTE else np.complex128)

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
    def zero_state(cls, n_local: int, mode: PrecisionMode, with_unit_amplitude: bool,
                   codebook: Codebook | None = None):
        """All-zeros slice; the partition owning global index 0 gets amplitude 1."""
        state = cls(n_local, mode, codebook)
        if with_unit_amplitude:
            state.data[0] = mode.stored_one
        return state

    def view(self, where=()) -> np.ndarray:
        """View of the stored array at ``where``."""
        return bit_view(self.data, *where)

    def working(self, where=()) -> np.ndarray:
        """Decoded complex128 copy of the slice, or of its ``where`` part."""
        return self.values(self.stack([self.view(where)]))[0]

    def amplitudes(self, work=None) -> np.ndarray:
        """The slice's complex128 amplitudes, to be read and not written.

        Complex128 storage is returned as it is.  Other storage is decoded:
        stacked in the front of ``work``, as ``stack`` takes it, so fp32
        allocates nothing there, and BYTE codes decode into a new array.
        """
        if self.data.dtype == np.complex128:
            return self.data
        return self.values(self.stack([self.view()], work))[0]

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

    def stack(self, parts, work=None) -> np.ndarray:
        """What measurement reads: one row per part, in ascending index order.

        A part is what ``view`` or ``payload`` gives.  Rows hold complex128
        amplitudes in the fp modes and the stored 16-bit codes in BYTE mode.
        They are new, or the front of ``work``, a 1-D complex128 workspace
        viewed as the row dtype.
        """
        shape = (len(parts), parts[0].size)
        if work is None:
            rows = np.empty(shape, dtype=self.mode.row_dtype)
        else:
            rows = work.view(self.mode.row_dtype)[:shape[0] * shape[1]].reshape(shape)
        for row, part in zip(rows, parts):
            row.reshape(part.shape)[...] = part
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
