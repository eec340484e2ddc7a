"""Equivariant moving frames and the invariantization map.

A right moving frame rho sends each admissible jet/stencil z to the unique
group element with rho(z) . z on a chosen cross-section; equivariance
rho(g . z) = rho(z) g^{-1} then makes iota(F)(z) = F(rho(z) . z) an
invariant for any scalar F.  Three frames are implemented:

* the compatible Mobius frame on four-point windows with uniform spacing h,
  normalizing the window to (-h e, 0, h e) where e is a data-dependent sign;
* the KdV frame on (t, x, u, centered slope), normalizing to
  {t = 0, x = 0, u = 0, slope = 1};
* the Burgers frame on (t, x, u, u at the next level, centered slope,
  advective time derivative, k), normalizing t, x, u to zero with the scale
  factor fixed by the cube root of (1 + k Dx u)(Dt u + u^{n+1} Dx u).

The Burgers action is the four-parameter subgroup only.  The KdV and Burgers
frames test positivity exactly, so no scaling of a jet makes them singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateJet, FrameSingularity
from .groups import (
    BurgersGroupElement,
    KdVGroupElement,
    SL2Element,
    apply_burgers,
    apply_kdv,
    apply_sl2,
    sign_pos,
)


# ---------------------------------------------------------------------------
# frame inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SL2DiscreteFrameInput:
    """Four consecutive u values on a uniform mesh of spacing h."""

    u_im1: float
    u_i: float
    u_ip1: float
    u_ip2: float
    h: float

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError("spacing must be positive")
        w = self.window
        if min(abs(w[m + 1] - w[m]) for m in range(3)) == 0.0:
            raise ValueError("consecutive u values must be distinct")

    @property
    def window(self) -> tuple[float, float, float, float]:
        return (self.u_im1, self.u_i, self.u_ip1, self.u_ip2)

    @property
    def epsilon(self) -> float:
        return sign_pos(
            (self.u_ip1 - self.u_i) * (self.u_i - self.u_im1) * (self.u_ip2 - self.u_im1)
        )


@dataclass(frozen=True, slots=True)
class KdVFrameInput:
    """Base point (t, x, u) with the centered slope (Du_i + Du_{i-1})/2."""

    t: float
    x: float
    u: float
    dxu: float


@dataclass(frozen=True, slots=True)
class BurgersFrameInput:
    """Base point data for the Burgers frame.

    dxu is the centered slope, dtu the advective time derivative
    (u^{n+1}_i - u^n_i)/k - (sigma/k) dxu, and u_next the value above the
    base node.
    """

    t: float
    x: float
    u: float
    u_next: float
    dxu: float
    dtu: float
    k: float

    @property
    def cube_argument(self) -> float:
        return (1.0 + self.k * self.dxu) * (self.dtu + self.u_next * self.dxu)


# ---------------------------------------------------------------------------
# prolonged actions on frame inputs
# ---------------------------------------------------------------------------

def apply_sl2_window(g: SL2Element, inp: SL2DiscreteFrameInput) -> SL2DiscreteFrameInput:
    return SL2DiscreteFrameInput(*(apply_sl2(g, u) for u in inp.window), inp.h)


def apply_kdv_jet(g: KdVGroupElement, inp: KdVFrameInput) -> KdVFrameInput:
    t, x, u = apply_kdv(g, (inp.t, inp.x, inp.u))
    return KdVFrameInput(t, x, u, inp.dxu / g.lam**3)


def apply_burgers_jet(g: BurgersGroupElement, inp: BurgersFrameInput) -> BurgersFrameInput:
    s = math.exp(g.eps4)
    t, x, u = apply_burgers(g, (inp.t, inp.x, inp.u))
    u_next = (inp.u_next + g.eps3) / s
    return BurgersFrameInput(
        t, x, u, u_next,
        inp.dxu / s**2,
        (inp.dtu - g.eps3 * inp.dxu) / s**3,
        s**2 * inp.k,
    )


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def sl2_discrete_frame(inp: SL2DiscreteFrameInput) -> SL2Element:
    """Compatible Mobius frame of a four-point window.

    Normalizes (u_{i-1}, u_i, u_{i+1}) to (-h e, 0, h e).  When the second
    difference vanishes the generic formulas degenerate (c^2 = 0) and the
    continuous limit c -> 0 is used instead: an affine map with
    a = |Du_i|^{-1/2}, b = -a u_i.  A negative c^2 with nonzero second
    difference means no real frame exists and raises
    :class:`FrameSingularity`.
    """
    u_im1, u_i, u_ip1, u_ip2 = inp.window
    h = inp.h
    du_i = (u_ip1 - u_i) / h
    du_im1 = (u_i - u_im1) / h
    d2 = (u_ip1 - 2.0 * u_i + u_im1) / h**2
    eps = inp.epsilon

    if abs(du_i - du_im1) <= 1e-12 * max(abs(du_i), abs(du_im1)):
        if du_i == 0.0:
            raise DegenerateJet("window slope vanishes in the limiting branch")
        a = 1.0 / math.sqrt(abs(du_i))
        return SL2Element(a, -a * u_i, 0.0, 1.0 / a)

    c2 = eps * d2**2 / (2.0 * du_i * du_im1 * (du_i + du_im1))
    if c2 <= 0.0 or not math.isfinite(c2):
        raise FrameSingularity(f"normalization equations need c^2 > 0, got {c2}")
    c = math.sqrt(c2)
    a = d2 / (2.0 * c * du_i * du_im1)
    b = -u_i * a
    d = c * (u_ip1 * du_im1 - u_im1 * du_i) / (du_i - du_im1)
    return SL2Element(a, b, c, d)


def kdv_discrete_frame(inp: KdVFrameInput) -> KdVGroupElement:
    """Right KdV frame: lam = m^{1/3}, v = -u m^{-2/3}, b = -t m,
    a = (u t - x) m^{1/3}, where m is the centered slope (must be positive).
    """
    m = inp.dxu
    if not m > 0.0:
        raise DegenerateJet(f"centered slope {m} not positive")
    lam = m ** (1.0 / 3.0)
    v = -inp.u / m ** (2.0 / 3.0)
    b = -inp.t * m
    a = (inp.u * inp.t - inp.x) * lam
    return KdVGroupElement(lam, v, a, b)


def burgers_discrete_frame(inp: BurgersFrameInput) -> BurgersGroupElement:
    """Right Burgers frame: shifts to the base point plus the cube-root scale.

    e1 = -x, e2 = -t, e3 = -u and
    e^{3 e4} = (1 + k Dx u)(Dt u + u^{n+1} Dx u), which must be positive.
    """
    p = inp.cube_argument
    if not p > 0.0:
        raise DegenerateJet(f"cube root argument {p} not positive")
    return BurgersGroupElement(-inp.x, -inp.t, -inp.u, math.log(p) / 3.0)


# ---------------------------------------------------------------------------
# normalization residuals (cross-section checks)
# ---------------------------------------------------------------------------

def sl2_discrete_normalization_residuals(inp: SL2DiscreteFrameInput) -> np.ndarray:
    g = sl2_discrete_frame(inp)
    eps = inp.epsilon
    img = apply_sl2_window(g, inp)
    return np.array([
        img.u_im1 + inp.h * eps,
        img.u_i,
        img.u_ip1 - inp.h * eps,
    ])


def kdv_normalization_residuals(inp: KdVFrameInput) -> np.ndarray:
    g = kdv_discrete_frame(inp)
    img = apply_kdv_jet(g, inp)
    return np.array([img.t, img.x, img.u, img.dxu - 1.0])


def burgers_normalization_residuals(inp: BurgersFrameInput) -> np.ndarray:
    g = burgers_discrete_frame(inp)
    img = apply_burgers_jet(g, inp)
    return np.array([img.t, img.x, img.u])


# ---------------------------------------------------------------------------
# invariantization
# ---------------------------------------------------------------------------

def invariantize_sl2_discrete(F: Callable[[SL2DiscreteFrameInput], float],
                              inp: SL2DiscreteFrameInput) -> float:
    """iota(F) = F(rho(z) . z) for window functions F."""
    g = sl2_discrete_frame(inp)
    return F(apply_sl2_window(g, inp))


def sl2_projectively_equal(g1: SL2Element, g2: SL2Element,
                           tol: float = 1e-9) -> bool:
    """Equality in the Mobius group, i.e. up to the overall sign of the matrix.

    The fractional linear action is insensitive to the sign of (a, b, c, d),
    so frame equivariance holds projectively.
    """
    p1 = np.array(g1.params())
    p2 = np.array(g2.params())
    scale = 1.0 + max(np.max(np.abs(p1)), np.max(np.abs(p2)))
    return bool(
        min(np.max(np.abs(p1 - p2)), np.max(np.abs(p1 + p2))) <= tol * scale
    )
