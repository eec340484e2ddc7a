"""Closed-form difference invariants of the three group actions.

The Mobius family admits the cross-ratio of four consecutive u values; the
KdV family admits 18 functionally independent invariants on a two-row,
five-column stencil; the Burgers family admits 9 invariants on a two-row,
three-column stencil.  Each catalog is exposed both as a named record and as
a flat ordered vector, computed by one function.

The cross-ratio and the Schwarzian steps' solve for its fourth value share
one degeneracy rule, ``_cancels``, relative to the terms a difference
cancels, so the relation is scale-free in both directions.

``KdVStencil`` and ``BurgersStencil`` are one two-row type that differs only
in the offsets it names: checks, differences and the conversions to and from
:class:`~symfd.groups.Stencil` are written once.  Both constructors run one
check on Python floats (0 < k < inf, each row of x finite and strictly
increasing), and the catalogs read a stencil's arrays once, with
``tolist``, and do their arithmetic on Python floats: on arrays of 6-10
entries numpy's per-call cost would exceed the arithmetic.  The check makes
every spacing and k nonzero, so no catalog can raise ZeroDivisionError.

Powers are products, which scale exactly under x -> 2^j x; pow may not.

Notation for the stencils (shared with the schemes module)::

    k       = t^{n+1} - t^n           time step (rows are flat in t)
    h^l_j   = x^l_{j+1} - x^l_j       spacings within a row
    sigma   = x^{n+1}_i - x^n_i       center column displacement
    Du^l_j  = (u^l_{j+1} - u^l_j) / h^l_j
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DEGENERACY_TOL, DegenerateDenominator
from .groups import Stencil


# ---------------------------------------------------------------------------
# Mobius invariants
# ---------------------------------------------------------------------------

def _cancels(d: float, a: float, b: float) -> bool:
    """Whether d = a - b is at most DEGENERACY_TOL (|a| + |b|): lost to cancellation."""
    return abs(d) <= DEGENERACY_TOL * (abs(a) + abs(b))


def cross_ratio(u_im1: float, u_i: float, u_ip1: float, u_ip2: float) -> float:
    """(u_i - u_{i-1})(u_{i+2} - u_{i+1}) / ((u_{i+1} - u_{i-1})(u_{i+2} - u_i)).

    The fundamental difference invariant of the fractional linear action on
    four consecutive values; :class:`DegenerateDenominator` when a
    denominator factor cancels its terms (``_cancels``).
    """
    span, right = u_ip1 - u_im1, u_ip2 - u_i
    if _cancels(span, u_ip1, u_im1) or _cancels(right, u_ip2, u_i):
        raise DegenerateDenominator(f"cross-ratio factor {span!r} or {right!r} cancels")
    return (u_i - u_im1) * (u_ip2 - u_ip1) / (span * right)


# ---------------------------------------------------------------------------
# two-row stencils
# ---------------------------------------------------------------------------

def _check_two_rows(k: float, x_rows: list[list[float]]) -> None:
    """Raise ValueError unless 0 < k < inf and each row of x is finite and
    strictly increasing: the catalogs divide by k and by the spacings."""
    if not 0.0 < k < math.inf:  # NaN fails this test too
        raise ValueError("time step must be finite and positive")
    for row in x_rows:
        # NaN fails the first test; an increasing row is finite when its span is
        if not (all(map(operator.lt, row, row[1:])) and row[-1] - row[0] < math.inf):
            raise ValueError("x must be finite and strictly increasing")


@dataclass(frozen=True)
class _TwoRowStencil:
    """Two flat time rows of a stencil: row 0 at time t0, row 1 at t0 + k.

    ``x`` and ``u`` are (2, width) arrays over the columns that the subclass's
    ``_offsets`` name, in row-major order, which is also the sorted order of
    Stencil.from_dict.  The width, the centre column (j = 0) and the array
    shape follow from those offsets when the subclass is defined.  Each row
    of x must be finite and strictly increasing, and 0 < k < inf: the
    catalogs divide by both.
    """

    k: float
    x: np.ndarray
    u: np.ndarray
    t0: float = 0.0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        columns = [j for l, j in cls._offsets if l == 0]
        cls._width = len(columns)
        cls._centre = columns.index(0)
        cls._shape = (2, cls._width)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.shape != self._shape or u.shape != self._shape:
            raise ValueError(f"{type(self).__name__} needs 2x{self._width} x and u arrays")
        _check_two_rows(self.k, x.tolist())
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    def to_stencil(self) -> Stencil:
        """Generic stencil of the two rows at t0 and t0 + k."""
        points = np.empty(self._shape + (3,))
        points[0, :, 0] = self.t0
        points[1, :, 0] = self.t0 + self.k
        points[:, :, 1] = self.x
        points[:, :, 2] = self.u
        return Stencil(self._offsets, points.reshape(-1, 3))

    @classmethod
    def from_stencil(cls, z: Stencil):
        """The two rows of z, which must hold every offset of this class
        (KeyError otherwise) with its row 1 after its row 0 in time."""
        # a read-only view when z already has the canonical order
        rows = z.points if z.offsets == cls._offsets else z.take(cls._offsets)
        p = rows.reshape(2, cls._width, 3)
        t, x, _ = p.transpose(2, 0, 1).tolist()
        t0, t1 = t[0][cls._centre], t[1][cls._centre]
        k = t1 - t0
        if not k > 0.0:
            raise ValueError("rows must be ordered in time")
        _check_two_rows(k, x)
        # p holds floats in the right shape, so the constructor's work is done
        two_rows = object.__new__(cls)
        vars(two_rows).update(k=k, x=p[:, :, 1], u=p[:, :, 2], t0=t0)
        return two_rows


# ---------------------------------------------------------------------------
# KdV stencil and invariants
# ---------------------------------------------------------------------------

class KdVStencil(_TwoRowStencil):
    """Two flat time rows, five columns j = i-2 .. i+2 (2x5 arrays)."""

    _offsets = tuple((l, j) for l in range(2) for j in range(-2, 3))


KDV_INVARIANT_NAMES = (
    "H(0,-1)", "H(0,0)", "H(0,+1)",
    "H(1,-1)", "H(1,0)", "H(1,+1)",
    "I", "J", "L", "T",
    "K(0,-2)", "K(0,-1)", "K(0,0)", "K(0,+1)",
    "K(1,-2)", "K(1,-1)", "K(1,0)", "K(1,+1)",
)


def kdv_invariants(z: KdVStencil) -> dict[str, float]:
    """The 18 invariants of the KdV group action on the ten-point stencil.

    * H(l, j)  = h^l_{i+j-1} / h^l_{i+j}            spacing ratios
    * I        = h^{n+1}_i / h^n_i                  row spacing ratio
    * J        = (h^n_i)^3 / k                      dispersive mesh number
    * L        = (sigma - k u^n_i) / h^n_i          Lagrangian defect
    * T        = (u^{n+1}_i - u^n_i) (h^n_i)^2      scaled time increment
    * K(l, j)  = k Du^l_{i+j}                       scaled slopes
    """
    return dict(zip(KDV_INVARIANT_NAMES, _kdv_values(z)))


def kdv_invariant_vector(z: KdVStencil) -> np.ndarray:
    return np.array(_kdv_values(z))


def _kdv_values(z: KdVStencil) -> list[float]:
    """The KdV catalog in KDV_INVARIANT_NAMES order."""
    # a: row n, b: row n+1; columns i-2 .. i+2 numbered 0 .. 4
    (xa0, xa1, xa2, xa3, xa4), (xb0, xb1, xb2, xb3, xb4) = z.x.tolist()
    (ua0, ua1, ua2, ua3, ua4), (ub0, ub1, ub2, ub3, ub4) = z.u.tolist()
    k = z.k
    ha0, ha1, ha2, ha3 = xa1 - xa0, xa2 - xa1, xa3 - xa2, xa4 - xa3
    hb0, hb1, hb2, hb3 = xb1 - xb0, xb2 - xb1, xb3 - xb2, xb4 - xb3
    return [
        ha0 / ha1, ha1 / ha2, ha2 / ha3,
        hb0 / hb1, hb1 / hb2, hb2 / hb3,
        hb2 / ha2, ha2 * ha2 * ha2 / k, ((xb2 - xa2) - k * ua2) / ha2, (ub2 - ua2) * (ha2 * ha2),
        k * ((ua1 - ua0) / ha0), k * ((ua2 - ua1) / ha1),
        k * ((ua3 - ua2) / ha2), k * ((ua4 - ua3) / ha3),
        k * ((ub1 - ub0) / hb0), k * ((ub2 - ub1) / hb1),
        k * ((ub3 - ub2) / hb2), k * ((ub4 - ub3) / hb3),
    ]


# ---------------------------------------------------------------------------
# Burgers stencil and invariants
# ---------------------------------------------------------------------------

class BurgersStencil(_TwoRowStencil):
    """Two flat time rows, three columns j = i-1, i, i+1 (2x3 arrays)."""

    _offsets = tuple((l, j) for l in range(2) for j in range(-1, 2))


BURGERS_INVARIANT_NAMES = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9")


def burgers_invariants(z: BurgersStencil) -> dict[str, float]:
    """The 9 invariants of the four-parameter Burgers group action."""
    return dict(zip(BURGERS_INVARIANT_NAMES, _burgers_values(z)))


def burgers_invariant_vector(z: BurgersStencil) -> np.ndarray:
    return np.array(_burgers_values(z))


def _burgers_values(z: BurgersStencil) -> list[float]:
    """The Burgers catalog in BURGERS_INVARIANT_NAMES order."""
    (xl0, x0, xr0), (xl1, x1, xr1) = z.x.tolist()
    (ul0, u0, ur0), (ul1, u1, ur1) = z.u.tolist()
    k = z.k
    hl0, hr0, hl1, hr1 = x0 - xl0, xr0 - x0, x1 - xl1, xr1 - x1  # h_{i-1}, h_i on rows n, n+1
    dl0, dr0, dl1, dr1 = (u0 - ul0) / hl0, (ur0 - u0) / hr0, (u1 - ul1) / hl1, (ur1 - u1) / hr1
    sig = x1 - x0
    return [
        hr0 / hl0,
        hr1 / hl1,
        hr0 * hr1 / k,
        hr0 * hl0 * (dr0 - dl0),
        hr1 * hl1 * (dr1 - dl1),
        hr0 * (sig / k - u0),
        hr1 * (sig / k - u1),
        hr0 * hr0 * (dr0 + 1.0 / k),
        hr1 * hr1 * (dr1 - 1.0 / k),
    ]

