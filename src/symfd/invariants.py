"""Closed-form difference invariants of the three group actions.

The Mobius family admits the cross-ratio of four consecutive u values; the
KdV family admits 18 functionally independent invariants on a two-row,
five-column stencil; the Burgers family admits 9 invariants on a two-row,
three-column stencil.  Every catalog is exposed both as a named record and
as a flat ordered vector so that schemes and rank tests share one code path.

Notation for the stencils (shared with the schemes module)::

    k       = t^{n+1} - t^n           time step (rows are flat in t)
    h^l_j   = x^l_{j+1} - x^l_j       spacings within a row
    sigma   = x^{n+1}_i - x^n_i       center column displacement
    Du^l_j  = (u^l_{j+1} - u^l_j) / h^l_j
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .groups import Stencil

_DEN_TOL = 1e-14


def _checked_div(num: float, den: float) -> float:
    if abs(den) < _DEN_TOL:
        raise DegenerateDenominator(f"denominator {den} below 1e-14")
    return num / den


# ---------------------------------------------------------------------------
# Mobius invariants
# ---------------------------------------------------------------------------

def cross_ratio(u_im1: float, u_i: float, u_ip1: float, u_ip2: float) -> float:
    """(u_i - u_{i-1})(u_{i+2} - u_{i+1}) / ((u_{i+1} - u_{i-1})(u_{i+2} - u_i)).

    The fundamental difference invariant of the fractional linear action on
    four consecutive values.
    """
    den = (u_ip1 - u_im1) * (u_ip2 - u_i)
    return _checked_div((u_i - u_im1) * (u_ip2 - u_ip1), den)


def cross_ratio_conjugate(u_im1: float, u_i: float, u_ip1: float, u_ip2: float) -> float:
    """(u_{i+2} - u_{i-1})(u_{i+1} - u_i) / ((u_{i+2} - u_i)(u_{i+1} - u_{i-1}))."""
    den = (u_ip2 - u_i) * (u_ip1 - u_im1)
    return _checked_div((u_ip2 - u_im1) * (u_ip1 - u_i), den)


def sl2_invariant_chain(u_im1: float, u_i: float, u_ip1: float, u_ip2: float):
    """Stepwise reduction: differences I, ratios J, and the cross-ratio R.

    Returns (I_{i-1}, I_i, I_{i+1}, J_i, J_{i+1}, R_i) where
    R_i = J_i / ((1 + J_i)(1 + J_{i+1})) coincides with :func:`cross_ratio`.
    """
    i_im1 = u_i - u_im1
    i_i = u_ip1 - u_i
    i_ip1 = u_ip2 - u_ip1
    j_i = _checked_div(i_im1, i_i)
    j_ip1 = _checked_div(i_i, i_ip1)
    r = _checked_div(j_i, (1.0 + j_i) * (1.0 + j_ip1))
    return (i_im1, i_i, i_ip1, j_i, j_ip1, r)


# ---------------------------------------------------------------------------
# two-row stencils <-> generic stencils
# ---------------------------------------------------------------------------

# offsets (l, j) in row-major order of the 2 x m arrays, which is also the
# sorted order of Stencil.from_dict
_KDV_OFFSETS = tuple((l, j) for l in range(2) for j in range(-2, 3))
_BURGERS_OFFSETS = tuple((l, j) for l in range(2) for j in range(-1, 2))


def _to_stencil(offsets, t0: float, k: float, x: np.ndarray, u: np.ndarray) -> Stencil:
    """Generic stencil of two flat rows at t0 and t0 + k."""
    points = np.empty(x.shape + (3,))
    points[0, :, 0] = t0
    points[1, :, 0] = t0 + k
    points[:, :, 1] = x
    points[:, :, 2] = u
    return Stencil(offsets, points.reshape(-1, 3))


# ---------------------------------------------------------------------------
# KdV stencil and invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KdVStencil:
    """Two flat time rows, five columns j = i-2 .. i+2.

    ``x`` and ``u`` are 2x5 arrays (row 0 at time t0, row 1 at t0 + k).
    """

    k: float
    x: np.ndarray
    u: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.shape != (2, 5) or u.shape != (2, 5):
            raise ValueError("KdV stencil needs 2x5 x and u arrays")
        if not self.k > 0.0:
            raise ValueError("time step must be positive")
        if (x[:, 1:] <= x[:, :-1]).any():
            raise ValueError("spacings must be positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @property
    def h(self) -> np.ndarray:
        """Spacings h[l, m] = x[l, m+1] - x[l, m]; column m holds h_{i+m-2}."""
        return np.diff(self.x, axis=1)

    @property
    def sigma(self) -> float:
        return float(self.x[1, 2] - self.x[0, 2])

    @property
    def du(self) -> np.ndarray:
        """First differences Du[l, m] = Du_{i+m-2}."""
        return np.diff(self.u, axis=1) / self.h

    def to_stencil(self) -> Stencil:
        return _to_stencil(_KDV_OFFSETS, self.t0, self.k, self.x, self.u)

    @staticmethod
    def from_stencil(z: Stencil) -> "KdVStencil":
        p = z.take(_KDV_OFFSETS).reshape(2, 5, 3)
        t0, t1 = p[:, 2, 0].tolist()
        k = t1 - t0
        if not k > 0.0:
            raise ValueError("rows must be ordered in time")
        return KdVStencil(k, p[:, :, 1], p[:, :, 2], t0)


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
    x, u, k = z.x, z.u, z.k
    h = x[:, 1:] - x[:, :-1]
    if np.abs(h).min() < _DEN_TOL or abs(k) < _DEN_TOL:
        raise DegenerateDenominator("vanishing spacing or time step")
    du = (u[:, 1:] - u[:, :-1]) / h
    h0, h1 = h[:, 2].tolist()  # h^n_i, h^{n+1}_i
    x0, x1 = x[:, 2].tolist()
    u0, u1 = u[:, 2].tolist()
    values = (
        (h[:, :-1] / h[:, 1:]).ravel().tolist()
        + [h1 / h0, h0**3 / k, ((x1 - x0) - k * u0) / h0, (u1 - u0) * h0**2]
        + (k * du).ravel().tolist()
    )
    return dict(zip(KDV_INVARIANT_NAMES, values))


def kdv_invariant_vector(z: KdVStencil) -> np.ndarray:
    inv = kdv_invariants(z)
    return np.array([inv[name] for name in KDV_INVARIANT_NAMES])


def kdv_Q(z: KdVStencil, row: int = 0, column_shift: int = 0) -> float:
    """Q_{i+s} = H_{i+s+1} (K_{i+s+1} - K_{i+s})/(1 + H_{i+s+1})
               - (K_{i+s} - K_{i+s-1})/(1 + H_{i+s}) on the requested row.

    Equal to k h_{i+s}^2 / 2 times the discrete third x-derivative, which is
    how it enters the invariant schemes.  Only shifts 0 and -1 fit on the
    stencil.
    """
    if row not in (0, 1) or column_shift not in (0, -1):
        raise ValueError("row must be 0/1 and column_shift 0/-1")
    h = z.h
    if np.any(np.abs(h[row]) < _DEN_TOL) or abs(z.k) < _DEN_TOL:
        raise DegenerateDenominator("vanishing spacing or time step")
    du = z.du
    s = column_shift + 2  # array column of h_{i+s}, Du_{i+s}
    k_m1, k_0, k_p1 = (z.k * du[row, s - 1], z.k * du[row, s], z.k * du[row, s + 1])
    h_0 = h[row, s - 1] / h[row, s]          # H_{i+s}
    h_p1 = h[row, s] / h[row, s + 1]         # H_{i+s+1}
    return float(h_p1 * (k_p1 - k_0) / (1.0 + h_p1) - (k_0 - k_m1) / (1.0 + h_0))


# ---------------------------------------------------------------------------
# Burgers stencil and invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurgersStencil:
    """Two flat time rows, three columns j = i-1, i, i+1 (2x3 arrays)."""

    k: float
    x: np.ndarray
    u: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.shape != (2, 3) or u.shape != (2, 3):
            raise ValueError("Burgers stencil needs 2x3 x and u arrays")
        if not self.k > 0.0:
            raise ValueError("time step must be positive")
        if (x[:, 1:] <= x[:, :-1]).any():
            raise ValueError("spacings must be positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @property
    def h(self) -> np.ndarray:
        return np.diff(self.x, axis=1)

    @property
    def sigma(self) -> float:
        return float(self.x[1, 1] - self.x[0, 1])

    @property
    def du(self) -> np.ndarray:
        return np.diff(self.u, axis=1) / self.h

    def to_stencil(self) -> Stencil:
        return _to_stencil(_BURGERS_OFFSETS, self.t0, self.k, self.x, self.u)

    @staticmethod
    def from_stencil(z: Stencil) -> "BurgersStencil":
        p = z.take(_BURGERS_OFFSETS).reshape(2, 3, 3)
        t0, t1 = p[:, 1, 0].tolist()
        return BurgersStencil(t1 - t0, p[:, :, 1], p[:, :, 2], t0)


BURGERS_INVARIANT_NAMES = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9")


def burgers_invariants(z: BurgersStencil) -> dict[str, float]:
    """The 9 invariants of the four-parameter Burgers group action."""
    x, u, k = z.x, z.u, z.k
    h = x[:, 1:] - x[:, :-1]
    if np.abs(h).min() < _DEN_TOL or abs(k) < _DEN_TOL:
        raise DegenerateDenominator("vanishing spacing or time step")
    (hl0, hr0), (hl1, hr1) = h.tolist()  # h_{i-1}, h_i on rows n and n+1
    (dl0, dr0), (dl1, dr1) = ((u[:, 1:] - u[:, :-1]) / h).tolist()
    x0, x1 = x[:, 1].tolist()
    u0, u1 = u[:, 1].tolist()
    sig = x1 - x0
    values = (
        hr0 / hl0,
        hr1 / hl1,
        hr0 * hr1 / k,
        hr0 * hl0 * (dr0 - dl0),
        hr1 * hl1 * (dr1 - dl1),
        hr0 * (sig / k - u0),
        hr1 * (sig / k - u1),
        hr0**2 * (dr0 + 1.0 / k),
        hr1**2 * (dr1 - 1.0 / k),
    )
    return dict(zip(BURGERS_INVARIANT_NAMES, values))


def burgers_invariant_vector(z: BurgersStencil) -> np.ndarray:
    inv = burgers_invariants(z)
    return np.array([inv[name] for name in BURGERS_INVARIANT_NAMES])


def burgers_d2u(z: BurgersStencil, row: int = 0) -> float:
    """Discrete second x-derivative 2 (Du_i - Du_{i-1}) / (h_i + h_{i-1})."""
    h = z.h
    du = z.du
    den = h[row, 0] + h[row, 1]
    return float(_checked_div(2.0 * (du[row, 1] - du[row, 0]), den))
