"""Invariant numerical schemes and their non-invariant baselines.

Schwarzian ODE (third order, Mobius symmetry)
    The invariant step enforces a target cross-ratio
    R* = 1 / (2 (2 - h^2 F(x_i))) on each four-point window and solves the
    resulting fractional-linear equation for the new value in closed form.
    The invariantized residual uses the conjugate ratio Rbar:
    (1/h^2) [1/(Rbar - R) - 2] - F(x_i).

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
    residuals are relative invariants of weight lam^-5; k h_i^2 times the
    residual is the exact invariant combination, which is what invariance
    audits compare.

Burgers equation u_t + u u_x = nu u_xx
    Finite-volume step in conservative computational-variable form
    Delta_tau(x_s u) + k Delta_s f = 0 with high-order (centered) and
    low-order (upwind) flux discretizations blended by the minmod limiter
    max(0, min(1, theta)) evaluated on the smoothness ratio theta.
    Upwinding follows the sign of the mesh-relative speed u - sigma/k, which
    is invariant under Galilean boosts (the raw sign of u is not).  The
    blended update is diagonal in u^{n+1} and solved per node.

The naive KdV baseline lives on a uniform static mesh and is deliberately
not Galilean invariant; the adaptive Runge-Kutta-Fehlberg 4(5) solver is the
non-invariant ODE baseline.

Batches: the KdV and Burgers kernels act on the last axis of their node
arrays, so a :class:`GridState` holds one state with x and u of shape (n,)
or a batch of B states with x and u of shape (B, n).  Per-state scalars of
a batch (t, the time step k, nu, alpha, drift) are floats shared by all
rows or (B, 1) columns.  Each row of a batch step is bit for bit the step
of that row alone: the ten-point solve stacks the B pentadiagonal systems
into one block-diagonal ``dgbsv`` call with zero coupling between blocks.
A step of a batch raises when one of its rows would (tangling, a singular
block, a nonpositive volume), and its :class:`StepInfo` is reduced over the
rows (largest residual, smallest spacing).  The projection strategy and the
naive, Schwarzian and u_xx schemes take single states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgbsv

from .errors import DegenerateDenominator, SchemeSingularity
from .invariants import cross_ratio, cross_ratio_conjugate
from .mesh import (
    MeshUpdate,
    MonitorParams,
    _holds,
    equidistribute,
    lagrangian_update,
    monitor_arclength,
    spline_project,
)

_DEN_TOL = 1e-14


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridState:
    """One time level: time t, strictly increasing x, values u.

    x and u have shape (n,) for one state, or (B, n) for a batch of B
    states with one state per row; x increases along the last axis.  t is a
    float, or for a batch a (B, 1) column of per-row times.
    """

    t: float
    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.ndim == 0 or x.shape != u.shape:
            raise ValueError("x and u must be arrays of equal shape")
        if x.shape[-1] < 3:
            raise ValueError("need at least three nodes")
        if (x[..., 1:] - x[..., :-1] <= 0.0).any():
            raise ValueError("x must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        """Nodes per state."""
        return int(self.x.shape[-1])

    @classmethod
    def _unchecked(cls, t, x: np.ndarray, u: np.ndarray) -> "GridState":
        """A state from float arrays of equal shape whose x the caller has
        already checked to increase; skips the constructor's checks."""
        st = object.__new__(cls)
        object.__setattr__(st, "t", t)
        object.__setattr__(st, "x", x)
        object.__setattr__(st, "u", u)
        return st


@dataclass(frozen=True)
class SchwarzianState:
    """Sliding window for the Schwarzian recurrence."""

    h: float
    x_i: float
    u_im1: float
    u_i: float
    u_ip1: float
    source: Callable[[float], float]

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError("step must be positive")
        if self.u_im1 == self.u_i or self.u_i == self.u_ip1:
            raise ValueError("consecutive u values must be distinct")


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics of one scheme step.

    ``newton_iters`` counts linear solves: 1 for the ten-point KdV step,
    0 for the explicit and diagonal updates.  ``min_spacing`` is the
    minimum spacing of the mesh the returned state lives on (for a
    projected step, the grid it is projected onto).
    """

    newton_iters: int
    residual_inf: float
    min_spacing: float
    equi_residual: float = 0.0


# ---------------------------------------------------------------------------
# Schwarzian ODE
# ---------------------------------------------------------------------------

def _solve_cross_ratio_target(u_im1: float, u_i: float, u_ip1: float,
                              target: float) -> float:
    """The unique w with cross_ratio(u_{i-1}, u_i, u_{i+1}, w) = target."""
    i_im1 = u_i - u_im1
    span = u_ip1 - u_im1
    num = i_im1 * u_ip1 - target * span * u_i
    den = i_im1 - target * span
    if abs(den) < _DEN_TOL * (1.0 + abs(num)):
        raise SchemeSingularity("cross-ratio solve degenerated")
    return num / den


def schwarzian_step(s: SchwarzianState) -> float:
    """Advance the invariant Schwarzian recurrence by one node.

    Enforces cross_ratio = 1 / (2 (2 - h^2 F(x_i))); the step is a closed
    form fractional-linear solve, no iteration.
    """
    f_i = s.source(s.x_i)
    den = 2.0 * (2.0 - s.h**2 * f_i)
    if abs(den) < _DEN_TOL:
        raise SchemeSingularity("target cross-ratio undefined: h^2 F = 2")
    return _solve_cross_ratio_target(s.u_im1, s.u_i, s.u_ip1, 1.0 / den)


def schwarzian_step_through_pole(u_ip1: float, u_ip2: float) -> bool:
    """Heuristic pole-crossing flag: large values of opposite sign."""
    return u_ip1 * u_ip2 < 0.0 and min(abs(u_ip1), abs(u_ip2)) > 1.0


def schwarzian_invariant_residual(u_im1, u_i, u_ip1, u_ip2, h, f_at_x) -> float:
    """(1/h^2) [2 - 1/(2 R_i)] - F(x_i); Mobius invariant at value level."""
    r = cross_ratio(u_im1, u_i, u_ip1, u_ip2)
    if abs(r) < _DEN_TOL:
        raise DegenerateDenominator("cross-ratio vanished")
    return (2.0 - 0.5 / r) / h**2 - f_at_x


def schwarzian_invariantized_residual(u_im1, u_i, u_ip1, u_ip2, h, f_at_x) -> float:
    """(1/h^2) [1/(Rbar_i - R_i) - 2] - F(x_i)."""
    r = cross_ratio(u_im1, u_i, u_ip1, u_ip2)
    rbar = cross_ratio_conjugate(u_im1, u_i, u_ip1, u_ip2)
    if abs(rbar - r) < _DEN_TOL:
        raise DegenerateDenominator("Rbar - R vanished")
    return (1.0 / (rbar - r) - 2.0) / h**2 - f_at_x


def schwarzian_invariantized_step(s: SchwarzianState) -> float:
    """Advance the invariantized form: enforce Rbar - R = 1/(2 + h^2 F).

    Rbar - R = (w D2 + M) / ((w - u_i) S) with D2 the second difference,
    S = u_{i+1} - u_{i-1} and M = u_i (u_{i-1} + u_{i+1}) - 2 u_{i-1} u_{i+1},
    fractional linear in the unknown w, so this too is a closed form solve.
    """
    f_i = s.source(s.x_i)
    rho = 1.0 / (2.0 + s.h**2 * f_i)
    d2 = s.u_ip1 - 2.0 * s.u_i + s.u_im1
    m = s.u_i * (s.u_im1 + s.u_ip1) - 2.0 * s.u_im1 * s.u_ip1
    span = s.u_ip1 - s.u_im1
    den = rho * span - d2
    num = rho * span * s.u_i + m
    if abs(den) < _DEN_TOL * (1.0 + abs(num)):
        raise SchemeSingularity("invariantized solve degenerated")
    return num / den


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

def _d3u(h: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Nonuniform third differences D3u_1 .. D3u_{N-3} from spacings and slopes.

    ``h[m] = x_{m+1} - x_m`` and ``du[m] = Du_m``; entry j is D3u_{j+1}.
    """
    q = (du[..., 1:] - du[..., :-1]) / (h[..., 1:] + h[..., :-1])
    return (2.0 / h[..., 1:-1]) * (q[..., 1:] - q[..., :-1])


def _check_kdv_pair(prev: GridState, nxt: GridState, k: float):
    if prev.x.shape != nxt.x.shape:
        raise ValueError("states must share their shape")
    if prev.n < 5:
        raise ValueError("KdV stencils need at least five nodes")
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")


def kdv_residual_6pt(prev: GridState, nxt: GridState, k: float) -> np.ndarray:
    """Per-node residual of the six-point invariant scheme, nodes 2..N-3."""
    _check_kdv_pair(prev, nxt, k)
    x0, u0, u1 = prev.x, prev.u, nxt.u
    h0 = x0[..., 1:] - x0[..., :-1]
    if (np.abs(h0) < _DEN_TOL).any():
        raise DegenerateDenominator("vanishing spacing")
    du0 = (u0[..., 1:] - u0[..., :-1]) / h0
    d30 = _d3u(h0, du0)
    sig = nxt.x - prev.x
    return (
        (u1[..., 2:-2] - u0[..., 2:-2]) / k
        + (u0[..., 2:-2] - sig[..., 2:-2] / k) * (du0[..., 2:-1] + du0[..., 1:-2]) / 2.0
        + (d30[..., 1:] + d30[..., :-1]) / 2.0
    )


def kdv_residual_10pt(prev: GridState, nxt: GridState, k: float) -> np.ndarray:
    """Per-node residual of the ten-point invariant scheme, nodes 2..N-3."""
    _check_kdv_pair(prev, nxt, k)
    x0, u0, x1, u1 = prev.x, prev.u, nxt.x, nxt.u
    h0, h1 = x0[..., 1:] - x0[..., :-1], x1[..., 1:] - x1[..., :-1]
    if (np.abs(h0) < _DEN_TOL).any() or (np.abs(h1) < _DEN_TOL).any():
        raise DegenerateDenominator("vanishing spacing")
    du0 = (u0[..., 1:] - u0[..., :-1]) / h0
    du1 = (u1[..., 1:] - u1[..., :-1]) / h1
    d30 = _d3u(h0, du0)
    d31 = _d3u(h1, du1)
    sig = x1 - x0
    return (
        (u1[..., 2:-2] - u0[..., 2:-2]) / k
        + (u0[..., 2:-2] - sig[..., 2:-2] / k)
        * (du0[..., 2:-1] + du0[..., 1:-2] + du1[..., 2:-1] + du1[..., 1:-2]) / 4.0
        + (d31[..., 1:] + d31[..., :-1] + d30[..., 1:] + d30[..., :-1]) / 4.0
    )


def kdv_invariant_normalizer(prev: GridState, k: float) -> np.ndarray:
    """k h_i^2 on the residual nodes.

    The coordinate residuals are relative invariants of weight lam^-5;
    multiplying by k h_i^2 (weight lam^5) gives the value-level invariant
    combination that audits compare.
    """
    x = prev.x
    return k * (x[..., 3:-1] - x[..., 2:-2]) ** 2


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
    # row r sees exactly one column of each color within the band:
    # cols[color, r], whose band entry is dr[color, ..., r]
    rows = np.arange(m)
    cols = rows + (np.arange(5)[:, None] - rows + 2) % 5 - 2
    ok = (cols >= 0) & (cols < m)
    ab = np.zeros((7, v0.size))  # rows 0-1: dgbsv's fill-in space; the band is rows 2-6
    # block b of a batch occupies columns b*m .. b*m + m-1
    ab.reshape(7, -1, m)[(4 + rows - cols)[ok], :, cols[ok]] = \
        np.moveaxis(dr.reshape(5, -1, m), 1, -1)[ok]
    if not (np.isfinite(ab).all() and np.isfinite(r0).all()):
        raise SchemeSingularity("banded solve failed: non-finite band or residual")
    *_, x, info = dgbsv(2, 2, ab, r0.reshape(-1), overwrite_ab=True)
    if info != 0:
        raise SchemeSingularity(f"banded solve failed (LAPACK info {info})")
    return v0 - x.reshape(v0.shape)


def _kdv_mesh(prev: GridState, k: float, mesh_strategy: str,
              monitor: MonitorParams | None, spacing_floor: float,
              drift: float) -> MeshUpdate:
    if mesh_strategy in ("lagrangian", "projection"):
        return lagrangian_update(prev, k, floor=spacing_floor)
    if mesh_strategy == "adaptive":
        if monitor is None:
            raise ValueError("adaptive strategy needs monitor parameters")
        a, b = (prev.x[..., ::prev.n - 1] + k * drift).T  # floats, or (B,) arrays
        return equidistribute(monitor_arclength(prev, k, monitor), (a, b),
                              floor=spacing_floor)
    raise ValueError(f"unknown mesh strategy {mesh_strategy!r}")


def kdv_step_detailed(
    prev: GridState,
    k: float,
    mesh_strategy: str = "lagrangian",
    scheme: str = "6pt",
    *,
    monitor: MonitorParams | None = None,
    spacing_floor: float = 0.0,
    drift: float = 0.0,
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
    docstring) takes the Lagrangian or adaptive strategy.
    """
    if scheme not in ("6pt", "10pt"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if mesh_strategy == "projection" and prev.x.ndim != 1:
        raise ValueError("the projection strategy steps a single state")
    upd = _kdv_mesh(prev, k, mesh_strategy, monitor, spacing_floor, drift)
    x1 = upd.x_next

    u1 = prev.u.copy()
    if scheme == "6pt":
        residual = kdv_residual_6pt
        r0 = residual(prev, GridState(prev.t + k, x1, u1), k)
        u1[..., 2:-2] = prev.u[..., 2:-2] - k * r0  # first term vanished at the guess u1 = u0
        iters = 0
    else:
        residual = kdv_residual_10pt

        def res_fn(v: np.ndarray) -> np.ndarray:
            uu = prev.u.copy()
            uu[..., 2:-2] = v
            return residual(prev, GridState(prev.t + k, x1, uu), k)

        u1[..., 2:-2] = _solve_affine_banded(res_fn, prev.u[..., 2:-2])
        iters = 1
    nxt = GridState(prev.t + k, x1, u1)
    rfin = float(np.abs(residual(prev, nxt, k)).max())

    min_spacing = upd.min_spacing
    if mesh_strategy == "projection":
        target = np.clip(prev.x, x1[0], x1[-1])
        u_proj = spline_project(x1, u1, target)
        nxt = GridState(prev.t + k, prev.x, u_proj)
        min_spacing = float((prev.x[1:] - prev.x[:-1]).min())

    return nxt, StepInfo(iters, rfin, min_spacing, upd.equi_residual)


def kdv_step(prev: GridState, k: float, mesh_strategy: str = "lagrangian",
             scheme: str = "6pt", **kwargs) -> GridState:
    return kdv_step_detailed(prev, k, mesh_strategy, scheme, **kwargs)[0]


def naive_kdv_residual(u0: np.ndarray, u1: np.ndarray, k: float, h: float) -> np.ndarray:
    """Residual of the uniform-mesh baseline, periodic in space."""
    up1 = np.roll(u0, -1)
    um1 = np.roll(u0, 1)
    up2 = np.roll(u0, -2)
    um2 = np.roll(u0, 2)
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

def _burgers_parts(x0: np.ndarray, u0: np.ndarray, x1: np.ndarray,
                   k: float, nu: float, phi_override: float | None = None):
    """Blended coefficient of u^{n+1}_i, constant part, and flux difference.

    Valid on the interior i = 1..N-2.  Slopes and differences that the
    low-order stencil needs beyond the mesh are constant-extrapolated from
    the boundary.  Stencil neighbours are slices of the last axis: ``a[2:]``,
    ``a[1:-1]`` and ``a[:-2]`` hold a_{i+1}, a_i and a_{i-1} of node-based
    arrays, ``b[1:]`` and ``b[:-1]`` hold b_i and b_{i-1} of interval-based
    ones.
    """
    lead, n = u0.shape[:-1], u0.shape[-1]
    h0 = x0[..., 1:] - x0[..., :-1]
    h1 = x1[..., 1:] - x1[..., :-1]
    sig = x1 - x0
    u_c = u0[..., 1:-1]
    # dlt_e[m+1] = Delta u_m = u_{m+1} - u_m, with the ghost dlt_e[0] = Delta u_0
    dlt_e = np.empty(lead + (n,))
    dlt_e[..., 1:] = u0[..., 1:] - u0[..., :-1]
    dlt_e[..., 0] = dlt_e[..., 1]
    # du_e[m+1] = Du_m with ghosts du_e[0] = Du_0 and du_e[n] = Du_{n-2}, so
    # the differences du_e[m+1] - du_e[m] vanish at both ends
    du_e = np.empty(lead + (n + 1,))
    du_e[..., 1:-1] = dlt_e[..., 1:] / h0
    du_e[..., 0] = du_e[..., 1]
    du_e[..., -1] = du_e[..., -2]
    nu_ddu = nu * (du_e[..., 1:] - du_e[..., :-1])

    up = (u_c - sig[..., 1:-1] / k) >= 0.0

    coef_hi = h1[..., 1:] + h1[..., :-1]
    const_hi = -(h0[..., 1:] + h0[..., :-1]) * u_c
    sq = u0**2
    su = sig * u0
    dsf_hi = (0.5 * (sq[..., 2:] - sq[..., :-2]) - nu_ddu[..., 1:-1]
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
        # A vanishing denominator saturates theta to sign(num) * 1e15; if
        # both differences vanish the smooth-region value 1 is used.
        den = dlt_e[..., 1:-1]                                # Delta u_{i-1}
        num = np.where(up, dlt_e[..., :-2], dlt_e[..., 2:])   # Delta u_{i-2} or Delta u_i
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = num / den
        small_den = np.abs(den) < _DEN_TOL
        if small_den.any():
            theta[small_den] = np.sign(num[small_den]) * 1e15
            theta[small_den & (np.abs(num) < _DEN_TOL)] = 1.0
        phi = theta.clip(0.0, 1.0)

    coef = coef_lo - phi * (coef_lo - coef_hi)
    const = const_lo - phi * (const_lo - const_hi)
    dsf = dsf_lo - phi * (dsf_lo - dsf_hi)
    return coef, const, dsf


def burgers_fv_residual(prev: GridState, nxt: GridState, k: float, nu: float,
                        phi_override: float | None = None) -> np.ndarray:
    """Blended Delta_tau(x_s u) + k Delta_s f on the interior nodes 1..N-2.

    Value-level invariant under the four-parameter group thanks to the
    conservative form and the mesh-relative upwinding.
    """
    if prev.x.shape != nxt.x.shape:
        raise ValueError("states must share their shape")
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")
    coef, const, dsf = _burgers_parts(prev.x, prev.u, nxt.x, k, nu, phi_override)
    return coef * nxt.u[..., 1:-1] + const + k * dsf


def burgers_fv_step_detailed(
    prev: GridState,
    k: float,
    nu: float,
    alpha: float,
    *,
    spacing_floor: float = 0.0,
    drift: float = 0.0,
    phi_override: float | None = None,
) -> tuple[GridState, StepInfo]:
    """One finite-volume step: equidistributed mesh, then per-node solve.

    The blended Delta_tau term is linear in u^{n+1}_i with a positive
    spacing coefficient, so the update is a diagonal solve.  Boundary
    values are held (Dirichlet).  ``phi_override`` pins the limiter weight
    (0 = pure low order, 1 = pure high order) for conservation probes.
    """
    if not _holds(nu >= 0.0):
        raise ValueError("viscosity must be nonnegative")
    if not _holds(k > 0.0):
        raise ValueError("time step must be positive")
    a, b = (prev.x[..., ::prev.n - 1] + k * drift).T  # floats, or (B,) arrays
    upd = equidistribute(monitor_arclength(prev, k, MonitorParams(alpha)), (a, b),
                         floor=spacing_floor)
    x1 = upd.x_next
    coef, const, dsf = _burgers_parts(prev.x, prev.u, x1, k, nu, phi_override)
    if (coef <= 0.0).any():
        raise SchemeSingularity("nonpositive volume coefficient")
    k_dsf = k * dsf
    u1 = prev.u.copy()
    u1[..., 1:-1] = -(const + k_dsf) / coef
    # equidistribute has checked that x1 increases
    nxt = GridState._unchecked(prev.t + k, x1, u1)
    rfin = float(np.abs(coef * u1[..., 1:-1] + const + k_dsf).max())
    return nxt, StepInfo(0, rfin, upd.min_spacing, upd.equi_residual)


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
_RKF_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RKF_ERR = np.array([1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55])

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


def rk_adaptive_solve(f: Callable[[float, np.ndarray], np.ndarray],
                      y0, x_span: tuple[float, float],
                      rel_tol: float) -> RKTrajectory:
    """Runge-Kutta-Fehlberg 4(5) with proportional step control.

    The 4th/5th order difference drives the step size and the 5th order
    value is propagated (local extrapolation).  Integration stops with
    ``diverged=True`` once any state component exceeds 1e12 or the step
    size underflows (the two symptoms of a finite-x blow-up).
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    x0, x1 = x_span
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    xs = [x0]
    ys = [y.copy()]
    span = x1 - x0
    direction = math.copysign(1.0, span)
    h = span / 100.0
    rejections = 0
    diverged = False
    x = x0
    while (x1 - x) * direction > 0.0:
        if abs(h) > abs(x1 - x):
            h = x1 - x
        ks = []
        bad = False
        err = math.inf
        y_new = y
        for s in range(6):
            ya = y.copy()
            for m, a in enumerate(_RKF_A[s]):
                ya = ya + h * a * ks[m]
            with np.errstate(all="ignore"):
                k_s = np.atleast_1d(np.asarray(f(x + _RKF_C[s] * h, ya), dtype=float))
            if not np.all(np.isfinite(k_s)):
                bad = True
                break
            ks.append(k_s)
        if not bad:
            err_vec = h * sum(e * k for e, k in zip(_RKF_ERR, ks))
            y_new = y + h * sum(b * k for b, k in zip(_RKF_B4, ks)) + err_vec
            scale = 1.0 + float(np.max(np.abs(y)))
            err = float(np.max(np.abs(err_vec))) / (rel_tol * scale)
        if bad or not math.isfinite(err):
            rejections += 1
            h *= 0.25
        elif err <= 1.0:
            x += h
            y = y_new
            xs.append(x)
            ys.append(y.copy())
            if float(np.max(np.abs(y))) > _DIVERGE_LIMIT:
                diverged = True
                break
            h *= min(5.0, max(0.2, 0.9 * err**-0.2 if err > 0 else 5.0))
        else:
            rejections += 1
            h *= max(0.2, 0.9 * err**-0.2)
        if abs(h) < 1e-14 * (1.0 + abs(x)):
            diverged = True
            break
    return RKTrajectory(np.array(xs), np.array(ys), rejections, diverged)
