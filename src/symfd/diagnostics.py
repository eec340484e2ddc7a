"""A run's per-step diagnostics: the row type, and the columns that hold them.

A KdV or Burgers run appends one row per time step, and a Schwarzian run
one per node: 20,161 rows for ``configs/burgers_shock.cfg``, about 395,000
for an N = 512 KdV run.  Held as a list of row objects, a row costs 224
bytes or more: the object, a boxed step and four boxed floats.
``Diagnostics`` holds the same fields in typed arrays, about 51 bytes a
row with the arrays' spare room, and builds a row object only when one is
read.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from typing import NamedTuple


class DiagnosticsRow(NamedTuple):
    """One step's diagnostics, in the column order of the diagnostics CSV,
    which formats a row as it is."""

    step: int
    t: float
    min_spacing: float
    tv: float
    residual_inf: float
    newton_iters: int
    status: str


# every status a diagnostics row can carry: per step, then the stop statuses
_STATUSES = ("ok", "pole", "mesh_tangling", "scheme_singularity", "numerical_failure",
             "nonfinite")


class Diagnostics(Sequence):
    """A run's per-step diagnostics, held as columns and read as rows.

    Each row appends its fields to typed arrays, 8 bytes a field, and its
    status as a one-byte code into ``_STATUSES``.  Readers see a read-only
    sequence: ``len``, indexing (negative indices and slices too) and
    iteration build each row when it is read, with the values appended,
    bit for bit.
    """

    __slots__ = ("_step", "_t", "_min_spacing", "_tv", "_residual_inf", "_newton_iters",
                 "_status")

    def __init__(self):
        self._step = array("q")
        self._t = array("d")
        self._min_spacing = array("d")
        self._tv = array("d")
        self._residual_inf = array("d")
        self._newton_iters = array("q")
        self._status = bytearray()

    def append(self, step: int, t: float, min_spacing: float, tv: float,
               residual_inf: float, newton_iters: int, status: str) -> None:
        self._step.append(step)
        self._t.append(t)
        self._min_spacing.append(min_spacing)
        self._tv.append(tv)
        self._residual_inf.append(residual_inf)
        self._newton_iters.append(newton_iters)
        self._status.append(_STATUSES.index(status))

    def __len__(self) -> int:
        return len(self._step)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return DiagnosticsRow(self._step[i], self._t[i], self._min_spacing[i], self._tv[i],
                              self._residual_inf[i], self._newton_iters[i],
                              _STATUSES[self._status[i]])

    def __iter__(self) -> Iterator[DiagnosticsRow]:
        return map(DiagnosticsRow._make,
                   zip(self._step, self._t, self._min_spacing, self._tv, self._residual_inf,
                       self._newton_iters, map(_STATUSES.__getitem__, self._status)))
