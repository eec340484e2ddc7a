"""Moving mesh strategies: Lagrangian drift, equidistribution, projection.

The Lagrangian update advects nodes with the solution velocity and is prone
to tangling; the equidistribution update redistributes a fixed number of
nodes so that the monitor-weighted spacing is constant,

    (d_{i+1} + d_i)/2 (x_{i+1} - x_i) - (d_i + d_{i-1})/2 (x_i - x_{i-1}) = 0,

with the endpoints pinned to the domain boundary.  The arc-length monitor
d_i = sqrt(1 + alpha (k Du_i)^2) keeps the k factor inside the square so the
weights are unchanged under the scaling and boost symmetries of the KdV and
Burgers dynamics.  Linear and natural cubic spline interpolation provide the
invariant projection step back to a reference grid.

Both tridiagonal systems (equidistribution and the spline moments) are
solved by LAPACK ``dgtsv``, which does not check its input: non-finite or
nonpositive monitor weights raise :class:`SingularSystem` before the solve,
and a NaN in the spline data propagates into the projected values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DegenerateDenominator, MeshTangling, OutOfDomain, SingularSystem


@dataclass(frozen=True)
class MonitorParams:
    """Adaptation strength alpha >= 0; alpha = 0 recovers the uniform mesh."""

    alpha: float

    def __post_init__(self):
        if not self.alpha >= 0.0:
            raise ValueError("alpha must be nonnegative")


@dataclass(frozen=True)
class MeshUpdate:
    """Next-level abscissae plus diagnostics of the proposed mesh."""

    x_next: np.ndarray
    min_spacing: float
    equi_residual: float = 0.0


@dataclass(frozen=True)
class TanglingDiagnostics:
    min_spacing: float
    argmin: int
    tangled: bool


def detect_tangling(x: np.ndarray, floor: float) -> TanglingDiagnostics:
    """Report the minimum spacing and whether it fell below ``floor``."""
    dx = np.diff(np.asarray(x, dtype=float))
    i = int(np.argmin(dx))
    m = float(dx[i])
    return TanglingDiagnostics(m, i, m < floor)


def _checked_min_spacing(x_next: np.ndarray, floor: float) -> float:
    """Minimum spacing of x_next; MeshTangling if unordered or below floor."""
    dx = x_next[1:] - x_next[:-1]
    if (dx <= 0.0).any():
        raise MeshTangling(f"mesh ordering lost at index {int(dx.argmin())}")
    m = float(dx.min())
    if m < floor:
        raise MeshTangling(f"minimum spacing {m:.3e} below floor {floor:.3e}")
    return m


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system by LAPACK dgtsv (partial pivoting).

    The operands are copied, so ``sub`` and ``sup`` may be one array.  No
    finiteness check is made; a zero pivot raises :class:`SingularSystem`.
    """
    if diag.size == 1:  # dgtsv's wrapper rejects empty off-diagonals
        if diag[0] == 0.0:
            raise SingularSystem("tridiagonal solve failed: zero pivot")
        return rhs / diag
    *_, x, info = dgtsv(sub, diag, sup, rhs)
    if info != 0:
        raise SingularSystem(f"tridiagonal solve failed (LAPACK info {info})")
    return x


def lagrangian_update(state, k: float, floor: float = 0.0) -> MeshUpdate:
    """x^{n+1} = x^n + k u^n; endpoints move with the data."""
    if not k > 0.0:
        raise ValueError("time step must be positive")
    x_next = state.x + k * state.u
    return MeshUpdate(x_next, _checked_min_spacing(x_next, floor))


def monitor_arclength(state, k: float, params: MonitorParams) -> np.ndarray:
    """Arc-length weights d_i = sqrt(1 + alpha (k Du_i)^2), last entry replicated.

    Returns one weight per node; the final node has no forward difference, so
    the last interior value is repeated there.
    """
    x, u = state.x, state.u
    dx = x[1:] - x[:-1]
    if (np.abs(dx) < 1e-14).any():
        raise DegenerateDenominator("vanishing mesh spacing in monitor")
    slopes = k * (u[1:] - u[:-1]) / dx
    d = np.empty(x.size)
    d[:-1] = np.sqrt(1.0 + params.alpha * slopes**2)
    d[-1] = d[-2]
    return d


def equidistribute(delta: np.ndarray, domain: tuple[float, float],
                   floor: float = 0.0) -> MeshUpdate:
    """Solve the discrete equidistribution relation for the interior nodes.

    With w_{i+1/2} = (d_{i+1} + d_i)/2 the relation
    w_{i+1/2} (x_{i+1} - x_i) = w_{i-1/2} (x_i - x_{i-1}) for the interior
    and x_0 = a, x_{N-1} = b is a symmetric tridiagonal system, solved
    directly by LAPACK dgtsv.  Weights that are not positive and finite
    (NaN, inf, zero or negative) raise :class:`SingularSystem`.  The returned
    diagnostics include the normalized residual
    max_i |w_{i+1/2} dx_i - w_{i-1/2} dx_{i-1}| / (max d (b - a)).
    """
    d = np.asarray(delta, dtype=float)
    a, b = domain
    n = d.size
    if n < 3:
        raise ValueError("need at least three nodes")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("domain endpoints must be finite")
    d_max = d.max()
    if not (d.min() > 0.0 and d_max < math.inf):  # a NaN fails both tests
        raise SingularSystem("monitor weights must be positive and finite")
    w = 0.5 * (d[1:] + d[:-1])  # w[m] = weight on interval (m, m+1)

    # rows i = 1..n-2: -w[i-1] x_{i-1} + (w[i-1]+w[i]) x_i - w[i] x_{i+1} = 0
    m = n - 2
    rhs = np.zeros(m)
    rhs[0] += w[0] * a
    rhs[-1] += w[m] * b
    off = -w[1:m]            # sub- and superdiagonal
    x_next = np.empty(n)
    x_next[0] = a
    x_next[1:-1] = _solve_tridiagonal(off, w[:-1] + w[1:], off, rhs)
    x_next[-1] = b

    dx = x_next[1:] - x_next[:-1]
    res = np.abs(w[1:] * dx[1:] - w[:-1] * dx[:-1]).max()
    return MeshUpdate(x_next, _checked_min_spacing(x_next, floor),
                      float(res / (d_max * abs(b - a))))


def linear_interpolate(x_src: np.ndarray, u_src: np.ndarray, x_query: float) -> float:
    """Two-point interpolation; the query must lie inside the source hull."""
    x_src = np.asarray(x_src, dtype=float)
    u_src = np.asarray(u_src, dtype=float)
    if not (x_src[0] <= x_query <= x_src[-1]):
        raise OutOfDomain(f"query {x_query} outside [{x_src[0]}, {x_src[-1]}]")
    j = min(int(np.searchsorted(x_src, x_query, side="right") - 1), x_src.size - 2)
    j = max(j, 0)
    w = (x_query - x_src[j]) / (x_src[j + 1] - x_src[j])
    return float((1.0 - w) * u_src[j] + w * u_src[j + 1])


def _natural_spline_moments(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline at the knots."""
    n = x.size
    if n < 3:
        return np.zeros(n)
    h = x[1:] - x[:-1]
    off = h[1:-1]
    rhs = 6.0 * ((u[2:] - u[1:-1]) / h[1:] - (u[1:-1] - u[:-2]) / h[:-1])
    mom = np.zeros(n)
    mom[1:-1] = _solve_tridiagonal(off, 2.0 * (h[:-1] + h[1:]), off, rhs)
    return mom


def spline_project(x_src: np.ndarray, u_src: np.ndarray,
                   x_target: np.ndarray) -> np.ndarray:
    """Natural cubic spline built on (x_src, u_src), evaluated at x_target.

    Targets must lie inside the source hull; targets beyond an endpoint by at
    most 1e-12 (relative to the hull width) take the boundary data.
    """
    x_src = np.asarray(x_src, dtype=float)
    u_src = np.asarray(u_src, dtype=float)
    xq = np.asarray(x_target, dtype=float)
    lo, hi = x_src[0], x_src[-1]
    slack = 1e-12 * (1.0 + abs(hi - lo))
    if np.any(xq < lo - slack) or np.any(xq > hi + slack):
        raise OutOfDomain("projection target outside the source hull")
    xq = np.clip(xq, lo, hi)

    mom = _natural_spline_moments(x_src, u_src)
    h = np.diff(x_src)
    j = np.clip(np.searchsorted(x_src, xq, side="right") - 1, 0, x_src.size - 2)
    dl = xq - x_src[j]
    dr = x_src[j + 1] - xq
    hj = h[j]
    out = (
        mom[j] * dr**3 / (6.0 * hj)
        + mom[j + 1] * dl**3 / (6.0 * hj)
        + (u_src[j] / hj - mom[j] * hj / 6.0) * dr
        + (u_src[j + 1] / hj - mom[j + 1] * hj / 6.0) * dl
    )
    return out
