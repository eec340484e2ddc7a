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

Batches: the Lagrangian update, the monitor and equidistribution act on the
last axis, so node arrays of shape (n,) hold one mesh and arrays of shape
(B, n) a batch of B meshes, each row advanced exactly as it would be alone.
Per-row scalars of a batch are (B, 1) columns (the time step k, alpha),
except the domain endpoints of equidistribution, which are (B,) arrays.
A batch is equidistributed by one ``dgtsv`` call on the block-diagonal
system (zero coupling between the rows), which gives each row bit for bit
the solution of its own system.  The diagnostics of a batch are reduced
over its rows: the smallest spacing, the largest normalized residual.  A
check fails for the whole batch when it fails for one row.  Projection
(the spline) takes a single mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DegenerateDenominator, MeshTangling, OutOfDomain, SingularSystem


def _holds(cond) -> bool:
    """A comparison of a float (a bool) or of an array (all its entries)."""
    return cond.all() if isinstance(cond, np.ndarray) else cond


@dataclass(frozen=True)
class MonitorParams:
    """Adaptation strength alpha >= 0; alpha = 0 recovers the uniform mesh.

    For a batch, alpha may be a (B, 1) column of per-row strengths.
    """

    alpha: float

    def __post_init__(self):
        if not _holds(self.alpha >= 0.0):
            raise ValueError("alpha must be nonnegative")


@dataclass(frozen=True)
class MeshUpdate:
    """Next-level abscissae plus diagnostics of the proposed mesh (of all
    rows of a batch: its smallest spacing and largest residual)."""

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


def _checked_min_spacing(dx: np.ndarray, floor: float) -> float:
    """Minimum of the spacings dx; MeshTangling if one is not positive or
    the minimum is below floor."""
    if (dx <= 0.0).any():
        i = int(dx.argmin()) % dx.shape[-1]
        raise MeshTangling(f"mesh ordering lost at index {i}")
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
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")
    x_next = state.x + k * state.u
    return MeshUpdate(x_next, _checked_min_spacing(x_next[..., 1:] - x_next[..., :-1], floor))


def monitor_arclength(state, k: float, params: MonitorParams) -> np.ndarray:
    """Arc-length weights d_i = sqrt(1 + alpha (k Du_i)^2), last entry replicated.

    Returns one weight per node; the final node has no forward difference, so
    the last interior value is repeated there.
    """
    x, u = state.x, state.u
    dx = x[..., 1:] - x[..., :-1]
    if (np.abs(dx) < 1e-14).any():
        raise DegenerateDenominator("vanishing mesh spacing in monitor")
    slopes = k * (u[..., 1:] - u[..., :-1]) / dx
    d = np.empty(x.shape)
    np.sqrt(1.0 + params.alpha * slopes**2, out=d[..., :-1])
    d[..., -1] = d[..., -2]
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
    For a (B, n) batch of weights, a and b are floats or (B,) arrays of
    per-row endpoints.
    """
    d = np.asarray(delta, dtype=float)
    a, b = domain
    n = d.shape[-1]
    if n < 3:
        raise ValueError("need at least three nodes")
    width = abs(b - a)
    if not _holds(width < math.inf):  # NaN or inf endpoints fail this test
        raise ValueError("domain endpoints must be finite")
    d_max = d.max(axis=-1)
    if not (d.min() > 0.0 and _holds(d_max < math.inf)):  # a NaN fails both tests
        raise SingularSystem("monitor weights must be positive and finite")
    w = 0.5 * (d[..., 1:] + d[..., :-1])  # w[m] = weight on interval (m, m+1)

    # rows i = 1..n-2: -w[i-1] x_{i-1} + (w[i-1]+w[i]) x_i - w[i] x_{i+1} = 0
    m = n - 2
    # ``v.T[j]`` is entry j of one mesh (a scalar) and column j of a batch
    rhs = np.zeros(d.shape[:-1] + (m,))
    rhs.T[0] += w.T[0] * a
    rhs.T[-1] += w.T[m] * b
    # sub- and superdiagonal of the stacked rows; the last entry of a row
    # couples it to the next row of a batch and is zero
    off = -w[..., 1:]
    off.T[-1] = 0.0
    off = off.reshape(-1)[:-1]
    x_next = np.empty(d.shape)
    x_next.T[0] = a
    x_next[..., 1:-1] = _solve_tridiagonal(
        off, (w[..., :-1] + w[..., 1:]).reshape(-1), off, rhs.reshape(-1)).reshape(rhs.shape)
    x_next.T[-1] = b

    dx = x_next[..., 1:] - x_next[..., :-1]
    min_spacing = _checked_min_spacing(dx, floor)
    res = np.abs(w[..., 1:] * dx[..., 1:] - w[..., :-1] * dx[..., :-1])
    return MeshUpdate(x_next, min_spacing, float((res.T / (d_max * width)).max()))


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
