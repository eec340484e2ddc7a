"""Invariant numerical schemes and their non-invariant baselines.

Schwarzian ODE (third order, Mobius symmetry)
    Both schemes are one recurrence: on each four-point window the new value
    solves cross_ratio = R* in closed form (the equation is fractional
    linear in it).  The invariant scheme's target is
    R* = 1 / (2 (2 - h^2 F(x_i))).  The invariantized scheme enforces
    Rbar - R = 1 / (2 + h^2 F(x_i)) with the conjugate ratio Rbar; since
    (d-a)(c-b) + (b-a)(d-c) = (c-a)(d-b) for any four values, Rbar = 1 - R
    and Rbar - R = 1 - 2R, so its target is
    R* = (1 + h^2 F(x_i)) / (2 (2 + h^2 F(x_i))).  Its residual is
    (1/h^2) [1/(1 - 2R) - 2] - F(x_i).  The solve reads differences only,
    and it, the targets and the residuals test divisors by ``errors._cancels``.

KdV equation u_t + u u_x + u_xxx = 0
    Six-point scheme (one node on the upper row):
        (u1_i - u0_i)/k + (u0_i - sigma_i/k)(Du_i + Du_{i-1})/2
                        + (D3u_i + D3u_{i-1})/2 = 0,
    with the nonuniform third difference
        D3u_i = (2/h_i) [ (Du_{i+1}-Du_i)/(h_{i+1}+h_i)
                        - (Du_i-Du_{i-1})/(h_i+h_{i-1}) ].
    Ten-point scheme: same structure with slopes and third differences
    averaged over both rows.  On the moved mesh it is affine in u^{n+1}
    with a pentadiagonal matrix, solved by one banded linear solve.  Both
    residuals are one kernel, ``_kdv_residual``, averaging over the rows
    (prev, or prev and nxt).  They are relative invariants of weight
    lam^-5; k h_i^2 times the residual is the exact invariant combination,
    which is what invariance audits compare.  They read Du and D3u from the
    GridState (D3u formed once, on first use) and divide by spacings it
    checked; no absolute threshold of their own breaks the scaling.

Burgers equation u_t + u u_x = nu u_xx
    Finite-volume step in conservative computational-variable form
    Delta_tau(x_s u) + k Delta_s f = 0 with high-order (centered) and
    low-order (upwind) flux discretizations blended by the minmod limiter
    max(0, min(1, theta)) evaluated on the smoothness ratio theta.
    Upwinding follows the sign of the mesh-relative speed u - sigma/k, which
    is invariant under Galilean boosts (the raw sign of u is not); theta's
    degeneracy test is relative (``errors._cancels``), so the march commutes
    with scaling.  The blended update is diagonal in u^{n+1}, solved per node.

The naive KdV baseline lives on a uniform static mesh and is deliberately
not Galilean invariant; the adaptive Runge-Kutta-Fehlberg 4(5) solver is the
non-invariant ODE baseline.

Batches: the KdV and Burgers kernels act on the last axis of their node
arrays, so a :class:`GridState` holds one state with x and u of shape (n,)
or a batch of B states with x and u of shape (B, n).  Per-state scalars of
a batch (t, the time step k, nu, alpha, the Burgers drift) are floats
shared by all rows or (B, 1) columns.  Each row of a batch step is bit for
bit the step of that row alone: the ten-point solve stacks the B
pentadiagonal systems into one block-diagonal ``dgbsv`` call with zero
coupling between blocks (LAPACK: at the first solve ``mesh._lapack`` loads
scipy's compiled wrappers alone, not ``scipy.linalg``, about 22 MiB and
0.3 s less).  A step of a batch raises when one of its rows would
(tangling, a singular block or monitor weight), and its
:class:`StepInfo` is reduced over the rows (largest residual, smallest
spacing).  The projection strategy and the naive scheme take single
states; the Schwarzian and u_xx steps take scalars.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateDenominator, SchemeSingularity, _cancel_bound, _cancels
from .invariants import cross_ratio
from .mesh import (
    MeshUpdate,
    MonitorParams,
    _holds,
    _lapack,
    equidistribute,
    lagrangian_update,
    monitor_arclength,
    spline_project,
)


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridState:
    """One time level: time t, finite and strictly increasing x, values u.

    x and u have shape (n,) for one state, or (B, n) for a batch of B
    states with one state per row; x increases along the last axis.  t is a
    float, or for a batch a (B, 1) column of per-row times.

    The state carries its spacings ``dx``, increments ``du`` and slopes
    ``slopes = du / dx`` along the last axis, formed where it is built, and
    its third differences ``d3u``, formed once on first use; the monitor,
    the residuals, the Burgers fluxes and the run loop read them.  Its
    arrays are never modified after it is built, not even by a step.
    """

    t: float
    x: np.ndarray
    u: np.ndarray
    dx: np.ndarray = field(init=False, compare=False, repr=False)
    du: np.ndarray = field(init=False, compare=False, repr=False)
    slopes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.ndim == 0 or x.shape != u.shape:
            raise ValueError("x and u must be arrays of equal shape")
        if x.shape[-1] < 3:
            raise ValueError("need at least three nodes")
        with np.errstate(invalid="ignore"):  # equal infinities differ by NaN
            dx = x[..., 1:] - x[..., :-1]
            du = u[..., 1:] - u[..., :-1]
        # a NaN or infinite x gives a NaN or infinite spacing next to it
        if not (dx.min() > 0.0 and dx.max() < math.inf):
            raise ValueError("x must be finite and strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "du", du)
        object.__setattr__(self, "slopes", du / dx)

    @property
    def n(self) -> int:
        """Nodes per state."""
        return int(self.x.shape[-1])

    @functools.cached_property
    def d3u(self) -> np.ndarray:
        """Third differences D3u_1 .. D3u_{N-3} (module docstring); entry j is D3u_{j+1}."""
        h, s = self.dx, self.slopes
        q = (s[..., 1:] - s[..., :-1]) / (h[..., 1:] + h[..., :-1])
        return (2.0 / h[..., 1:-1]) * (q[..., 1:] - q[..., :-1])

    @classmethod
    def _unchecked(cls, t, x: np.ndarray, u: np.ndarray, dx: np.ndarray) -> "GridState":
        """A state from float arrays of equal shape and the spacings dx of
        x, which the caller has already checked to be positive; skips the
        constructor's checks."""
        st = object.__new__(cls)
        object.__setattr__(st, "t", t)
        object.__setattr__(st, "x", x)
        object.__setattr__(st, "u", u)
        object.__setattr__(st, "dx", dx)
        object.__setattr__(st, "du", u[..., 1:] - u[..., :-1])
        object.__setattr__(st, "slopes", st.du / dx)
        return st


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics of one scheme step.

    ``newton_iters`` counts linear solves: 1 for the ten-point KdV step,
    0 for the explicit and diagonal updates.  ``residual_inf`` is the
    max-norm residual of the linear system a step solves (the ten-point
    band), evaluated after the solve; an explicit or diagonal update
    solves its equation in closed form and reports 0.  ``min_spacing`` is
    the minimum spacing of the mesh the returned state lives on (for a
    projected step, the grid it is projected onto).
    """

    newton_iters: int
    residual_inf: float
    min_spacing: float


# ---------------------------------------------------------------------------
# Schwarzian ODE
# ---------------------------------------------------------------------------

def _solve_cross_ratio_target(u_im1: float, u_i: float, u_ip1: float,
                              target: float) -> float:
    """The unique w with cross_ratio(u_{i-1}, u_i, u_{i+1}, w) = target, as
    u_{i+1} + (T span / den) (u_{i+1} - u_i): differences only, no underflow."""
    if u_im1 == u_i or u_i == u_ip1:
        raise SchemeSingularity("consecutive u values must be distinct")
    i_im1 = u_i - u_im1
    t_span = target * (u_ip1 - u_im1)
    den = i_im1 - t_span
    if _cancels(den, i_im1, t_span):
        raise SchemeSingularity("cross-ratio solve degenerated")
    return u_ip1 + t_span / den * (u_ip1 - u_i)


def schwarzian_step(u_im1: float, u_i: float, u_ip1: float, h: float, f_i: float) -> float:
    """Advance the invariant Schwarzian recurrence by one node.

    Enforces cross_ratio = 1 / (2 (2 - h^2 F(x_i))) with ``f_i`` = F(x_i);
    the step is a closed form fractional-linear solve, no iteration.
    """
    hf = h**2 * f_i
    if _cancels(2.0 - hf, 2.0, hf):
        raise SchemeSingularity("target cross-ratio undefined: h^2 F = 2")
    return _solve_cross_ratio_target(u_im1, u_i, u_ip1, 1.0 / (2.0 * (2.0 - hf)))


def schwarzian_step_through_pole(u_ip1: float, u_ip2: float) -> bool:
    """Heuristic pole-crossing flag: large values of opposite sign."""
    return u_ip1 * u_ip2 < 0.0 and min(abs(u_ip1), abs(u_ip2)) > 1.0


def schwarzian_invariant_residual(u_im1, u_i, u_ip1, u_ip2, h, f_at_x) -> float:
    """(1/h^2) [2 - 1/(2 R_i)] - F(x_i); Mobius invariant at value level."""
    r = cross_ratio(u_im1, u_i, u_ip1, u_ip2)
    # a numerator difference cancelled, or the product of quotients underflowed
    if _cancels(u_i - u_im1, u_i, u_im1) or _cancels(u_ip2 - u_ip1, u_ip2, u_ip1) or r == 0.0:
        raise DegenerateDenominator("cross-ratio vanished")
    return (2.0 - 0.5 / r) / h**2 - f_at_x


def schwarzian_invariantized_residual(u_im1, u_i, u_ip1, u_ip2, h, f_at_x) -> float:
    """(1/h^2) [1/(Rbar_i - R_i) - 2] - F(x_i), with Rbar_i - R_i = 1 - 2 R_i."""
    r2 = 2.0 * cross_ratio(u_im1, u_i, u_ip1, u_ip2)
    gap = 1.0 - r2
    if _cancels(gap, 1.0, r2):
        raise DegenerateDenominator("Rbar - R vanished")
    return (1.0 / gap - 2.0) / h**2 - f_at_x


def schwarzian_invariantized_step(u_im1: float, u_i: float, u_ip1: float,
                                  h: float, f_i: float) -> float:
    """Advance the invariantized form: enforce Rbar - R = 1/(2 + h^2 F).

    As Rbar - R = 1 - 2R, that is cross_ratio = (1 + h^2 F) / (2 (2 + h^2 F)),
    the invariant step's recurrence with another target.
    """
    hf = h**2 * f_i
    if _cancels(2.0 + hf, 2.0, hf):
        raise SchemeSingularity("target cross-ratio undefined: h^2 F = -2")
    return _solve_cross_ratio_target(u_im1, u_i, u_ip1, (1.0 + hf) / (2.0 * (2.0 + hf)))


# ---------------------------------------------------------------------------
# straight-line scheme (weakly invariant second difference)
# ---------------------------------------------------------------------------

def uxx_w_residual(x_im1, x_i, x_ip1, u_im1, u_i, u_ip1) -> float:
    """W = h_{i-1}(u_{i+1} - u_i) - h_i (u_i - u_{i-1}).

    Weakly invariant under the five-parameter affine algebra: the zero set
    is preserved although W itself is only a relative invariant.
    """
    return (x_i - x_im1) * (u_ip1 - u_i) - (x_ip1 - x_i) * (u_i - u_im1)


def uxx_step(x_im1: float, x_i: float, u_im1: float, u_i: float,
             f_i: float) -> tuple[float, float]:
    """One step of the mesh recurrence x_{i+1} = (1 + f) x_i - f x_{i-1}
    together with the W = 0 update, which keeps u affine in x."""
    if not x_i > x_im1:
        raise ValueError("mesh must be increasing")
    if not f_i > 0.0:
        raise ValueError("mesh ratio must be positive")
    x_ip1 = (1.0 + f_i) * x_i - f_i * x_im1
    u_ip1 = u_i + f_i * (u_i - u_im1)
    return (x_ip1, u_ip1)


# ---------------------------------------------------------------------------
# KdV schemes
# ---------------------------------------------------------------------------

def _kdv_residual(prev: GridState, nxt: GridState, k: float, rows) -> np.ndarray:
    """Residual, nodes 2..N-3, of the KdV scheme averaging slopes and third
    differences over ``rows``, (prev,) or (prev, nxt); the sums start from
    the first row's slopes and the last row's D3u, which fixes the last bits."""
    if prev.x.shape != nxt.x.shape:
        raise ValueError("states must share their shape")
    if prev.n < 5:
        raise ValueError("KdV stencils need at least five nodes")
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")
    first, last = rows[0], rows[-1]
    du = first.slopes[..., 2:-1] + first.slopes[..., 1:-2]
    d3 = last.d3u[..., 1:] + last.d3u[..., :-1]
    if len(rows) == 2:
        du = du + last.slopes[..., 2:-1] + last.slopes[..., 1:-2]
        d3 = d3 + first.d3u[..., 1:] + first.d3u[..., :-1]
    w, u0, sig = 2.0 * len(rows), prev.u[..., 2:-2], nxt.x[..., 2:-2] - prev.x[..., 2:-2]
    return (nxt.u[..., 2:-2] - u0) / k + (u0 - sig / k) * du / w + d3 / w


def kdv_residual_6pt(prev: GridState, nxt: GridState, k: float) -> np.ndarray:
    """Per-node residual of the six-point invariant scheme, nodes 2..N-3."""
    return _kdv_residual(prev, nxt, k, (prev,))


def kdv_residual_10pt(prev: GridState, nxt: GridState, k: float) -> np.ndarray:
    """Per-node residual of the ten-point invariant scheme, nodes 2..N-3."""
    return _kdv_residual(prev, nxt, k, (prev, nxt))


def kdv_invariant_normalizer(prev: GridState, k: float) -> np.ndarray:
    """k h_i^2 on the residual nodes.

    The coordinate residuals are relative invariants of weight lam^-5;
    multiplying by k h_i^2 (weight lam^5) gives the value-level invariant
    combination that audits compare.
    """
    return k * prev.dx[..., 2:-1] ** 2


@functools.lru_cache(maxsize=16)
def _band_layout(blocks: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (dst, src) that fill the (7, blocks m) ``dgbsv`` band of
    ``_solve_affine_banded`` by ``ab.reshape(-1)[dst] = dr.take(src)``
    from the probe differences dr of shape (5, blocks, m).  Both are read-only.
    """
    # row r sees exactly one column of each color within the band:
    # cols[color, r], whose band entry is dr[color, ..., r]
    rows = np.arange(m)
    cols = rows + (np.arange(5)[:, None] - rows + 2) % 5 - 2
    color, r = np.nonzero((cols >= 0) & (cols < m))
    c = cols[color, r]
    size = blocks * m
    block = np.arange(0, size, m)  # block b of a batch occupies columns b*m .. b*m + m-1
    dst = (((4 + r - c) * size + c)[:, None] + block).ravel()
    src = ((color * size + r)[:, None] + block).ravel()
    dst.flags.writeable = src.flags.writeable = False
    return dst, src


def _solve_affine_banded(res_fn: Callable[[np.ndarray], np.ndarray],
                         v0: np.ndarray) -> np.ndarray:
    """The root of an affine residual map with a pentadiagonal matrix.

    The band is read off the residual at v0 and at 5 colored unit probes
    (exact up to roundoff for an affine map); one call of LAPACK ``dgbsv``
    then gives the root.  ``dgbsv`` does not check its input, so a
    non-finite band or residual is rejected first; both that and a zero
    pivot raise :class:`SchemeSingularity`.  A (B, m) batch of unknowns
    (each row's residual depending on that row alone) is solved as one
    block-diagonal band of B blocks with zero coupling between them.
    """
    m = v0.shape[-1]
    r0 = res_fn(v0)
    dr = np.empty((5,) + r0.shape)
    for color in range(5):
        probe = v0.copy()
        probe[..., color::5] += 1.0
        dr[color] = res_fn(probe) - r0
    dst, src = _band_layout(v0.size // m, m)
    ab = np.zeros(7 * v0.size)  # rows 0-1: dgbsv's fill-in space; the band is rows 2-6
    ab[dst] = dr.take(src)
    ab = ab.reshape(7, -1)
    if not (np.isfinite(ab).all() and np.isfinite(r0).all()):
        raise SchemeSingularity("banded solve failed: non-finite band or residual")
    *_, x, info = _lapack().dgbsv(2, 2, ab, r0.reshape(-1), overwrite_ab=True)
    if info != 0:
        raise SchemeSingularity(f"banded solve failed (LAPACK info {info})")
    return v0 - x.reshape(v0.shape)


def _adaptive_mesh(prev: GridState, k: float, monitor: MonitorParams, ends, floor) -> MeshUpdate:
    """The mesh on ``ends`` that equidistributes prev's monitor arclength."""
    return equidistribute(monitor_arclength(prev, k, monitor), ends, floor=floor)


def _kdv_mesh(prev: GridState, k: float, mesh_strategy: str,
              monitor: MonitorParams | None, spacing_floor: float) -> MeshUpdate:
    if mesh_strategy in ("lagrangian", "projection"):
        return lagrangian_update(prev, k, floor=spacing_floor)
    if mesh_strategy == "adaptive":
        if monitor is None:
            raise ValueError("adaptive strategy needs monitor parameters")
        return _adaptive_mesh(prev, k, monitor, prev.x[..., ::prev.n - 1].T, spacing_floor)
    raise ValueError(f"unknown mesh strategy {mesh_strategy!r}")


def kdv_step_detailed(
    prev: GridState,
    k: float,
    mesh_strategy: str = "lagrangian",
    scheme: str = "6pt",
    *,
    monitor: MonitorParams | None = None,
    spacing_floor: float = 0.0,
) -> tuple[GridState, StepInfo]:
    """One KdV step: mesh update first, then the solve for u^{n+1}.

    Two boundary nodes on each side carry Dirichlet values copied from the
    previous level.  The six-point scheme is explicit in u^{n+1}; the
    ten-point scheme is affine in u^{n+1} and solved by one banded linear
    solve (a singular band raises :class:`SchemeSingularity`).  With
    ``mesh_strategy='projection'`` the step advances on the Lagrangian mesh
    and projects the result back onto the previous abscissae with a natural
    cubic spline (extreme targets clamped into the moved hull, a constant
    extrapolation over at most k |u_boundary|).  A batch (see the module
    docstring) takes the Lagrangian or adaptive strategy.  Non-finite u
    raises :class:`SchemeSingularity` before the mesh moves: on a
    Lagrangian mesh it would otherwise surface as a lost node ordering.
    """
    if scheme not in ("6pt", "10pt"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if mesh_strategy == "projection" and prev.x.ndim != 1:
        raise ValueError("the projection strategy steps a single state")
    if not np.isfinite(prev.u).all():
        raise SchemeSingularity("u is not finite")
    upd = _kdv_mesh(prev, k, mesh_strategy, monitor, spacing_floor)
    x1 = upd.x_next

    u1 = prev.u.copy()
    if scheme == "6pt":
        r0 = kdv_residual_6pt(prev, GridState._unchecked(prev.t + k, x1, prev.u, upd.dx), k)
        u1[..., 2:-2] = prev.u[..., 2:-2] - k * r0  # first term vanished at the guess u1 = u0
        iters = 0
    else:
        def res_fn(v: np.ndarray) -> np.ndarray:
            uu = prev.u.copy()
            uu[..., 2:-2] = v
            return kdv_residual_10pt(prev, GridState(prev.t + k, x1, uu), k)

        u1[..., 2:-2] = _solve_affine_banded(res_fn, prev.u[..., 2:-2])
        iters = 1
    nxt = GridState(prev.t + k, x1, u1)
    # the explicit update is exact by construction; the banded solve is checked
    rfin = float(np.abs(kdv_residual_10pt(prev, nxt, k)).max()) if iters else 0.0

    min_spacing = upd.min_spacing
    if mesh_strategy == "projection":
        target = np.clip(prev.x, x1[0], x1[-1])
        u_proj = spline_project(nxt, target)
        nxt = GridState._unchecked(prev.t + k, prev.x, u_proj, prev.dx)
        min_spacing = float(prev.dx.min())

    return nxt, StepInfo(iters, rfin, min_spacing)


def kdv_step(prev: GridState, k: float, mesh_strategy: str = "lagrangian",
             scheme: str = "6pt", **kwargs) -> GridState:
    return kdv_step_detailed(prev, k, mesh_strategy, scheme, **kwargs)[0]


def naive_kdv_residual(u0: np.ndarray, u1: np.ndarray, k: float, h: float) -> np.ndarray:
    """Residual of the uniform-mesh baseline, periodic along the last axis."""
    up1 = np.roll(u0, -1, axis=-1)
    um1 = np.roll(u0, 1, axis=-1)
    up2 = np.roll(u0, -2, axis=-1)
    um2 = np.roll(u0, 2, axis=-1)
    return (
        (u1 - u0) / k
        + u0 * (up1 - um1) / (2.0 * h)
        + (up2 - 2.0 * up1 + 2.0 * um1 - um2) / (2.0 * h**3)
    )


def naive_kdv_step(prev: GridState, k: float, h: float) -> GridState:
    """Explicit baseline update on a uniform periodic mesh.

    Stability is the caller's concern: k/h^3 must stay small enough that the
    amplified roundoff remains below the truncation error over the intended
    horizon.
    """
    u0 = prev.u
    r = naive_kdv_residual(u0, u0, k, h)  # u1 = u0 zeroes the time term
    return GridState(prev.t + k, prev.x, u0 - k * r)


# ---------------------------------------------------------------------------
# Burgers finite-volume scheme
# ---------------------------------------------------------------------------

def _burgers_parts(prev: GridState, x1: np.ndarray, h1: np.ndarray,
                   k: float, nu: float, phi_override: float | None = None):
    """Blended coefficient of u^{n+1}_i, constant part, and flux difference.

    ``prev`` is the state advanced onto the abscissae ``x1`` with spacings
    ``h1``; its carried ``dx``, ``du`` and ``slopes`` are read, not formed
    again.  Valid on the interior i = 1..N-2.  Slopes and differences that
    the low-order stencil needs beyond the mesh are constant-extrapolated
    from the boundary.  Stencil neighbours are slices of the last axis:
    ``a[2:]``, ``a[1:-1]`` and ``a[:-2]`` hold a_{i+1}, a_i and a_{i-1} of
    node-based arrays, ``b[1:]`` and ``b[:-1]`` hold b_i and b_{i-1} of
    interval-based ones.  ``phi_override`` pins the limiter weight (0 =
    pure low order, 1 = pure high order) for conservation probes.
    """
    u0, h0, dlt = prev.u, prev.dx, prev.du
    lead, n = u0.shape[:-1], u0.shape[-1]
    sig = x1 - prev.x
    u_c = u0[..., 1:-1]
    # dlt_e[m+1] = Delta u_m = u_{m+1} - u_m, with the ghost dlt_e[0] = Delta u_0
    dlt_e = np.empty(lead + (n,))
    dlt_e[..., 1:] = dlt
    dlt_e[..., 0] = dlt[..., 0]
    # du_e[m+1] = Du_m with ghosts du_e[0] = Du_0 and du_e[n] = Du_{n-2}, so
    # the differences du_e[m+1] - du_e[m] vanish at both ends
    du_e = np.empty(lead + (n + 1,))
    du_e[..., 1:-1] = prev.slopes
    du_e[..., 0] = du_e[..., 1]
    du_e[..., -1] = du_e[..., -2]
    nu_ddu = nu * (du_e[..., 1:] - du_e[..., :-1])

    up = (u_c - sig[..., 1:-1] / k) >= 0.0

    # the high-order volume and flux differences span [x_{i-1}, x_{i+1}],
    # two cells, so the viscous flux difference is twice the one-cell one
    coef_hi = h1[..., 1:] + h1[..., :-1]
    const_hi = -(h0[..., 1:] + h0[..., :-1]) * u_c
    sq = u0**2
    su = sig * u0
    dsf_hi = (0.5 * (sq[..., 2:] - sq[..., :-2]) - 2.0 * nu_ddu[..., 1:-1]
              - (su[..., 2:] - su[..., :-2]) / k)

    coef_lo = np.where(up, h1[..., :-1], h1[..., 1:])
    const_lo = -np.where(up, h0[..., :-1], h0[..., 1:]) * u_c
    # one-sided flux differences over interval m = [x_m, x_{m+1}]
    half_dsq = 0.5 * (sq[..., 1:] - sq[..., :-1])
    dsu_k = (su[..., 1:] - su[..., :-1]) / k
    dsf_lo = np.where(up,
                      half_dsq[..., :-1] - nu_ddu[..., :-2] - dsu_k[..., :-1],
                      half_dsq[..., 1:] - nu_ddu[..., 2:] - dsu_k[..., 1:])

    if phi_override is not None:
        phi = np.full(u_c.shape, float(phi_override))
    else:
        # limiter weight Phi(theta_i): the ratio over [x_{i-1}, x_i], the
        # interval whose smoothness governs the update at node i; a lagged
        # index here displaces the discrete shock and breaks TV non-growth.
        # Delta u_{i-1} vanishing (errors._cancels) makes theta +-inf by the
        # sign of num, or 1 if num vanishes too: clipped, 1 where num >= -tiny,
        # else 0, as num / 1 clips (a subnormal den may overflow theta to +-inf).
        den = dlt_e[..., 1:-1]                                # Delta u_{i-1}
        num = np.where(up, dlt_e[..., :-2], dlt_e[..., 2:])   # Delta u_{i-2} or Delta u_i
        tiny = _cancel_bound(u_c, u0[..., :-2])
        small = np.abs(den) <= tiny
        theta = num / np.where(small, 1.0, den)
        phi = np.where(small & (num >= -tiny), 1.0, theta).clip(0.0, 1.0)

    coef = coef_lo - phi * (coef_lo - coef_hi)
    const = const_lo - phi * (const_lo - const_hi)
    dsf = dsf_lo - phi * (dsf_lo - dsf_hi)
    return coef, const, dsf


def burgers_fv_residual(prev: GridState, nxt: GridState, k: float, nu: float) -> np.ndarray:
    """Blended Delta_tau(x_s u) + k Delta_s f on the interior nodes 1..N-2.

    Value-level invariant under the four-parameter group thanks to the
    conservative form and the mesh-relative upwinding.
    """
    if prev.x.shape != nxt.x.shape:
        raise ValueError("states must share their shape")
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")
    coef, const, dsf = _burgers_parts(prev, nxt.x, nxt.dx, k, nu)
    return coef * nxt.u[..., 1:-1] + const + k * dsf


def burgers_fv_step_detailed(
    prev: GridState,
    k: float,
    nu: float,
    alpha: float,
    *,
    spacing_floor: float = 0.0,
    drift: float = 0.0,
) -> tuple[GridState, StepInfo]:
    """One finite-volume step: equidistributed mesh, then per-node solve.

    The blended Delta_tau term is linear in u^{n+1}_i with a coefficient
    no smaller than the lesser new spacing beside node i, which the mesh
    update has checked to be positive, so the update is a diagonal solve.
    Boundary values are held (Dirichlet).  ``drift`` moves both ends of the
    mesh by k drift, as a Galilean boost of the domain does.
    """
    if not _holds(nu >= 0.0):
        raise ValueError("viscosity must be nonnegative")
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")
    ends = (prev.x[..., ::prev.n - 1] + k * drift).T  # floats, or (B,) arrays
    upd = _adaptive_mesh(prev, k, MonitorParams(alpha), ends, spacing_floor)
    x1 = upd.x_next
    coef, const, dsf = _burgers_parts(prev, x1, upd.dx, k, nu)
    u1 = prev.u.copy()
    u1[..., 1:-1] = -(const + k * dsf) / coef
    # equidistribute has checked the spacings of x1
    return GridState._unchecked(prev.t + k, x1, u1, upd.dx), StepInfo(0, 0.0, upd.min_spacing)


def burgers_fv_step(prev: GridState, k: float, nu: float, alpha: float,
                    **kwargs) -> GridState:
    return burgers_fv_step_detailed(prev, k, nu, alpha, **kwargs)[0]


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta-Fehlberg 4(5) baseline
# ---------------------------------------------------------------------------

_RKF_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_RKF_A = [
    [],
    [1 / 4],
    [3 / 32, 9 / 32],
    [1932 / 2197, -7200 / 2197, 7296 / 2197],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
]
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)

_DIVERGE_LIMIT = 1e12


@dataclass
class RKTrajectory:
    """Accepted nodes of an adaptive integration, plus control statistics."""

    xs: np.ndarray
    ys: np.ndarray
    rejections: int
    diverged: bool

    def final(self) -> tuple[float, np.ndarray]:
        return float(self.xs[-1]), self.ys[-1]


def _weighted_sum(weights, column) -> float:
    """0 + w0 c0 + w1 c1 + ..., added left to right."""
    total = 0
    for w, c in zip(weights, column):
        total = total + w * c
    return total


def _max_abs(v: list[float]) -> float:
    """max |v_i|, NaN when any v_i is NaN (as np.max(np.abs(v)))."""
    return math.nan if any(map(math.isnan, v)) else max(map(abs, v))


def rk_adaptive_solve(f: Callable[[float, np.ndarray], np.ndarray],
                      y0, x_span: tuple[float, float],
                      rel_tol: float) -> RKTrajectory:
    """Runge-Kutta-Fehlberg 4(5) with proportional step control.

    The 4th/5th order difference drives the step size and the 5th order
    value is propagated (local extrapolation).  Integration stops with
    ``diverged=True`` once any state component exceeds 1e12 or the step
    size underflows (the two symptoms of a finite-x blow-up).

    ``f`` still receives the stage abscissa and the stage state as an
    ndarray of y0's shape, with numpy's floating-point warnings off.  The
    stage combinations, error estimate and norms run on Python floats, one
    component at a time, with the operations of the vector formulas in
    the same order, so the result is that of the vector form bit for bit.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    x0, x1 = x_span
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    shape = y0.shape
    y = y0.ravel().tolist()
    xs = [x0]
    ys = array("d", y)  # accepted states, flat: 8 bytes a value
    span = x1 - x0
    direction = math.copysign(1.0, span)
    h = span / 100.0
    rejections = 0
    diverged = False
    x = x0
    with np.errstate(all="ignore"):
        while (x1 - x) * direction > 0.0:
            if abs(h) > abs(x1 - x):
                h = x1 - x
            ks = []
            err = math.inf
            for c, row in zip(_RKF_C, _RKF_A):
                ya = y
                for a, k in zip(row, ks):
                    ha = h * a
                    ya = [v + ha * kv for v, kv in zip(ya, k)]
                k_s = np.asarray(f(x + c * h, np.array(ya).reshape(shape)), dtype=float)
                k_s = k_s.ravel().tolist()
                if len(k_s) != len(y):
                    raise ValueError(f"f returned {len(k_s)} values for a state of {len(y)}")
                if not all(map(math.isfinite, k_s)):
                    break
                ks.append(k_s)
            else:
                columns = list(zip(*ks))
                err_vec = [h * _weighted_sum(_RKF_ERR, col) for col in columns]
                y_new = [v + h * _weighted_sum(_RKF_B4, col) + e
                         for v, col, e in zip(y, columns, err_vec)]
                err = _max_abs(err_vec) / (rel_tol * (1.0 + _max_abs(y)))
            if not math.isfinite(err):
                rejections += 1
                h *= 0.25
            elif err <= 1.0:
                x += h
                y = y_new
                xs.append(x)
                ys.extend(y)
                if _max_abs(y) > _DIVERGE_LIMIT:
                    diverged = True
                    break
                h *= min(5.0, max(0.2, 0.9 * err**-0.2 if err > 0 else 5.0))
            else:
                rejections += 1
                h *= max(0.2, 0.9 * err**-0.2)
            if abs(h) < 1e-14 * (1.0 + abs(x)):
                diverged = True
                break
    return RKTrajectory(np.array(xs), np.array(ys).reshape((-1,) + shape), rejections, diverged)
