"""Moving mesh strategies: Lagrangian drift, equidistribution, projection.

The Lagrangian update advects nodes with the solution velocity and is prone
to tangling; the equidistribution update redistributes a fixed number of
nodes so that the monitor-weighted spacing is constant,

    (d_{i+1} + d_i)/2 (x_{i+1} - x_i) - (d_i + d_{i-1})/2 (x_i - x_{i-1}) = 0,

with the endpoints pinned to the domain boundary.  The arc-length monitor
d_i = sqrt(1 + alpha (k Du_i)^2) keeps the k factor inside the square so the
weights are unchanged under the scaling and boost symmetries of the KdV and
Burgers dynamics.  Natural cubic spline interpolation provides the
invariant projection step back to a reference grid.

The relation has a closed form: w_{i+1/2} dx_i is the same constant for
every interval, so the spacings are proportional to 1/w_{i+1/2} and
equidistribution is a cumulative sum (de Boor's algorithm; Huang &
Russell, *Adaptive Moving Mesh Methods*, 2011, ch. 2), with no linear
solve.  The closed form meets the relation to rounding, so no residual is
computed at run time; the tests measure it.  Non-finite or nonpositive
monitor weights raise :class:`SingularSystem`.  The spline moments are a
tridiagonal system, solved by LAPACK ``dgtsv``, which does not check its
input: a NaN in the spline data propagates into the projected values.  The first linear solve,
here or in the ten-point KdV step, loads scipy's compiled LAPACK wrappers
alone (``_lapack``), not the ``scipy.linalg`` package, which would add some
300 modules, about 22 MiB and 0.3 s.  A process that never solves one (the
frames, the invariant catalogs, the Schwarzian march, the Burgers march,
adaptive six-point KdV steps) loads no LAPACK at all.

Batches: the Lagrangian update, the monitor and equidistribution act on the
last axis, so node arrays of shape (n,) hold one mesh and arrays of shape
(B, n) a batch of B meshes, each row advanced exactly as it would be alone
(the cumulative sum runs along each row in order).  Per-row scalars of a
batch are (B, 1) columns (the time step k, alpha), except the domain
endpoints of equidistribution, which are (B,) arrays.  The minimum
spacing of a batch is the smallest over its rows, and a check fails for
the whole batch when it fails for one row.  Projection (the spline) takes
a single grid state and reads its spacings and slopes.

The monitor reads k Du as k times the slopes a grid state carries
(``state.slopes``), the same slopes the schemes and the projection read.
Each mesh update returns its abscissae with their spacings
(``MeshUpdate.dx``), from which the next state is built.  The KdV and
Burgers steps both take an adaptive mesh as
``equidistribute(monitor_arclength(state, k, params), domain, floor)``.
A spacing that is not positive, NaN included, raises :class:`MeshTangling`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MeshTangling, OutOfDomain, SingularSystem


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


@dataclass(frozen=True, eq=False)
class MeshUpdate:
    """Next-level abscissae, their spacings dx (x_next differenced along the
    last axis) and the smallest spacing (over all rows of a batch)."""

    x_next: np.ndarray
    dx: np.ndarray
    min_spacing: float


def _checked_min_spacing(dx: np.ndarray, floor: float) -> float:
    """Minimum of the spacings dx; MeshTangling if one is not positive (or
    is NaN) or the minimum is below floor."""
    m = float(dx.min())
    if not m > 0.0:  # a NaN minimum fails this test too
        i = int(dx.argmin()) % dx.shape[-1]
        raise MeshTangling(f"mesh ordering lost at index {i}")
    if m < floor:
        i = int(dx.argmin()) % dx.shape[-1]
        raise MeshTangling(f"minimum spacing {m:.3e} below floor {floor:.3e} at index {i}")
    return m


def _lapack():
    """scipy's compiled LAPACK wrappers, the extension module
    ``scipy.linalg._flapack``, loaded on its own by the first call and
    taken from ``sys.modules`` by every later one.

    ``scipy.linalg`` is not imported: its package ``__init__`` loads some
    300 more modules (about 22 MiB and 0.3 s) for the two routines used
    here, ``dgtsv`` (the spline moments) and ``dgbsv`` (the ten-point KdV
    band).  The module is registered in ``sys.modules``, so a later
    ``import scipy.linalg`` re-exports these very wrappers from
    ``scipy.linalg.lapack``, and one that came first is reused.  A process
    which never solves a linear system does not load scipy's LAPACK at all.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system by LAPACK dgtsv (partial pivoting),
    loaded by :func:`_lapack`.

    The operands are copied, so ``sub`` and ``sup`` may be one array.  No
    finiteness check is made; a zero pivot raises :class:`SingularSystem`.
    """
    if diag.size == 1:  # dgtsv's wrapper rejects empty off-diagonals
        if diag[0] == 0.0:
            raise SingularSystem("tridiagonal solve failed: zero pivot")
        return rhs / diag
    *_, x, info = _lapack().dgtsv(sub, diag, sup, rhs)
    if info != 0:
        raise SingularSystem(f"tridiagonal solve failed (LAPACK info {info})")
    return x


def lagrangian_update(state, k: float, floor: float = 0.0) -> MeshUpdate:
    """x^{n+1} = x^n + k u^n; endpoints move with the data."""
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")
    x_next = state.x + k * state.u
    dx = x_next[..., 1:] - x_next[..., :-1]
    return MeshUpdate(x_next, dx, _checked_min_spacing(dx, floor))


def monitor_arclength(state, k: float, params: MonitorParams) -> np.ndarray:
    """Arc-length weights d_i = sqrt(1 + alpha (k Du_i)^2), last entry replicated.

    Returns one weight per node; the final node has no forward difference, so
    the last interior value is repeated there.
    """
    d = np.empty(state.x.shape)
    np.sqrt(1.0 + params.alpha * (k * state.slopes)**2, out=d[..., :-1])
    d[..., -1] = d[..., -2]
    return d


def equidistribute(delta: np.ndarray, domain: tuple[float, float],
                   floor: float = 0.0) -> MeshUpdate:
    """Solve the discrete equidistribution relation for the interior nodes.

    With w_{i+1/2} = (d_{i+1} + d_i)/2 the relation
    w_{i+1/2} (x_{i+1} - x_i) = w_{i-1/2} (x_i - x_{i-1}) for the interior
    and x_0 = a, x_{N-1} = b has the closed form
    x_i = a + (b - a) S_i / S_{N-1} with S_i = sum_{m<i} 1/w_{m+1/2}; the
    last node is set to b exactly.  This meets the relation to rounding:
    the normalized residual
    max_i |w_{i+1/2} dx_i - w_{i-1/2} dx_{i-1}| / (max d (b - a)) stays at
    a few ulps, so it is not computed here.  Weights that are not positive
    and finite (NaN, inf, zero or negative) raise :class:`SingularSystem`.
    For a (B, n) batch of weights, a and b are floats or (B,) arrays of
    per-row endpoints.
    """
    d = np.asarray(delta, dtype=float)
    if d.shape[-1] < 3:
        raise ValueError("need at least three nodes")
    a, b = domain
    if not _holds(abs(b - a) < math.inf):  # NaN or inf endpoints fail this test
        raise ValueError("domain endpoints must be finite")
    if not (d.min() > 0.0 and d.max() < math.inf):  # NaN weights fail both tests
        raise SingularSystem("monitor weights must be positive and finite")
    w = 0.5 * (d[..., 1:] + d[..., :-1])  # w[m] = weight on interval (m, m+1)
    # w[m] dx[m] is the same for every interval of a row, so x_i - a is
    # (b - a) S_i / S_{n-1} with S_i = sum_{m<i} 1/w[m]
    s = np.cumsum(1.0 / w, axis=-1)
    a_col, b_col = np.asarray(a)[..., None], np.asarray(b)[..., None]  # (1,) or (B, 1)
    x_next = np.empty(d.shape)
    x_next[..., 1:] = a_col + (b_col - a_col) * (s / s[..., -1:])
    x_next[..., 0] = a
    x_next[..., -1] = b

    dx = x_next[..., 1:] - x_next[..., :-1]
    return MeshUpdate(x_next, dx, _checked_min_spacing(dx, floor))


def _natural_spline_moments(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Natural cubic spline second derivatives at the knots from the knot
    spacings h and the slopes s of the data over them."""
    off = h[1:-1]
    rhs = 6.0 * (s[1:] - s[:-1])
    mom = np.zeros(h.size + 1)
    mom[1:-1] = _solve_tridiagonal(off, 2.0 * (h[:-1] + h[1:]), off, rhs)
    return mom


def spline_project(src, x_target: np.ndarray) -> np.ndarray:
    """Natural cubic spline through the grid state ``src``, built from its
    ``dx`` and ``slopes``, evaluated at x_target.

    Targets must lie inside the source hull; targets beyond an endpoint by at
    most 1e-12 (relative to the hull width) take the boundary data.
    """
    x_src, u_src, h = src.x, src.u, src.dx
    xq = np.asarray(x_target, dtype=float)
    lo, hi = x_src[0], x_src[-1]
    slack = 1e-12 * (hi - lo)
    if np.any(xq < lo - slack) or np.any(xq > hi + slack):
        raise OutOfDomain("projection target outside the source hull")
    xq = np.clip(xq, lo, hi)

    mom = _natural_spline_moments(h, src.slopes)
    j = np.clip(np.searchsorted(x_src, xq, side="right") - 1, 0, x_src.size - 2)
    dl = xq - x_src[j]
    dr = x_src[j + 1] - xq
    hj = h[j]
    out = (
        mom[j] * (dr * dr * dr) / (6.0 * hj)
        + mom[j + 1] * (dl * dl * dl) / (6.0 * hj)
        + (u_src[j] / hj - mom[j] * hj / 6.0) * dr
        + (u_src[j + 1] / hj - mom[j + 1] * hj / 6.0) * dl
    )
    return out
