"""A run's per-step diagnostics: the row type, and the columns that hold them.

A KdV or Burgers run appends one row per time step, and a Schwarzian run
one per node: 20,161 rows for ``configs/burgers_shock.cfg``, about 395,000
for an N = 512 KdV run.  Held as a list of row objects, a row costs 224
bytes or more: the object, a boxed step and four boxed floats.
``Diagnostics`` holds the same fields in typed arrays, about 51 bytes a
row with the arrays' spare room, and builds a row object only when one is
read.  ``DiagnosticsRow`` is the one declaration of the record: the store's
columns, the CSV header and the CSV row format are all derived from its
fields and their types, so a new per-step field is one annotated line.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from typing import NamedTuple, get_type_hints


class DiagnosticsRow(NamedTuple):
    """One step's diagnostics, in the column order of the diagnostics CSV,
    each field annotated with its column's type: ``int``, ``float`` or ``str``."""

    step: int
    t: float
    min_spacing: float
    tv: float
    residual_inf: float
    newton_iters: int
    status: str


# a stopping error's statuses, most specific first, as ``runner._STOPS`` pairs them
_ERROR_STATUSES = ("mesh_tangling", "scheme_singularity", "numerical_failure")
# every status a diagnostics row can carry: per step, then the stop statuses
_STATUSES = ("ok", "pole", *_ERROR_STATUSES, "nonfinite")

_TYPES = tuple(get_type_hints(DiagnosticsRow)[name] for name in DiagnosticsRow._fields)
# the diagnostics CSV's header line, and the %-format of a row's line
_CSV_HEADER = ",".join(DiagnosticsRow._fields) + "\n"
_CSV_ROW = ",".join("%.17g" if typ is float else "%s" for typ in _TYPES) + "\n"


class Diagnostics(Sequence):
    """A run's per-step diagnostics, held as columns and read as rows.

    ``append`` takes a row's fields in ``DiagnosticsRow`` order: an
    ``int`` or ``float`` goes to an 8-byte typed array, a ``str`` (the
    status) as a one-byte code into ``_STATUSES``.  Readers see a read-only
    sequence: ``len``, indexing (negative indices and slices too) and
    iteration build each row when it is read, with the values appended,
    bit for bit.
    """

    __slots__ = ("_columns",)

    def __init__(self):
        self._columns = tuple(bytearray() if typ is str else array("q" if typ is int else "d")
                              for typ in _TYPES)

    def append(self, *row) -> None:
        for column, typ, value in zip(self._columns, _TYPES, row, strict=True):
            column.append(_STATUSES.index(value) if typ is str else value)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return DiagnosticsRow._make([_STATUSES[column[i]] if typ is str else column[i]
                                     for column, typ in zip(self._columns, _TYPES)])

    def __iter__(self) -> Iterator[DiagnosticsRow]:
        return map(DiagnosticsRow._make,
                   zip(*[map(_STATUSES.__getitem__, column) if typ is str else column
                         for column, typ in zip(self._columns, _TYPES)]))
