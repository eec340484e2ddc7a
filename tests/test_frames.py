"""Moving frames: normalization, equivariance, invariantization."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symfd.errors import DegenerateJet, FrameSingularity
from symfd.frames import (
    BurgersFrameInput,
    KdVFrameInput,
    SL2DiscreteFrameInput,
    apply_burgers_jet,
    apply_kdv_jet,
    apply_sl2_window,
    burgers_discrete_frame,
    burgers_normalization_residuals,
    invariantize_sl2_discrete,
    kdv_discrete_frame,
    kdv_normalization_residuals,
    sl2_discrete_frame,
    sl2_discrete_normalization_residuals,
    sl2_projectively_equal,
)
from symfd.groups import BurgersGroupElement, KdVGroupElement, SL2Element
from symfd.invariants import cross_ratio, kdv_invariants
from symfd.rng import DeterministicRng

from _helpers import (
    apply_burgers_stencil,
    apply_kdv_stencil,
    burgers_elements,
    kdv_elements,
    rand_burgers_element,
    rand_burgers_stencil,
    rand_kdv_stencil,
    rand_sl2_safe,
    rand_window,
)


def _rand_sl2_input(rng):
    while True:
        u = rand_window(rng)
        h = rng.uniform(0.1, 2.0)
        try:
            inp = SL2DiscreteFrameInput(*u, h)
            sl2_discrete_frame(inp)
            return inp
        except (FrameSingularity, DegenerateJet, ValueError):
            continue


def _rand_kdv_input(rng):
    return KdVFrameInput(rng.uniform(-1, 1), rng.uniform(-2, 2),
                         rng.uniform(-2, 2), rng.uniform(0.05, 3.0))


def _du(z):
    """First differences Du[l, m] = (u[l, m+1] - u[l, m]) / (x[l, m+1] - x[l, m])
    of a two-row stencil's rows."""
    return np.diff(z.u, axis=1) / np.diff(z.x, axis=1)


def _kdv_input(z):
    """The KdV frame input at the base node of a two-row stencil."""
    du = _du(z)
    return KdVFrameInput(z.t0, float(z.x[0, 2]), float(z.u[0, 2]),
                         float((du[0, 2] + du[0, 1]) / 2.0))


def _burgers_input(z):
    """The Burgers frame input at the base node of a two-row stencil."""
    du = _du(z)
    dxu = float((du[0, 1] + du[0, 0]) / 2.0)
    sigma = float(z.x[1, 1] - z.x[0, 1])
    dtu = float((z.u[1, 1] - z.u[0, 1]) / z.k - (sigma / z.k) * dxu)
    return BurgersFrameInput(z.t0, float(z.x[0, 1]), float(z.u[0, 1]), float(z.u[1, 1]),
                             dxu, dtu, z.k)


def _rand_burgers_input(rng):
    while True:
        inp = BurgersFrameInput(rng.uniform(-1, 1), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(0.1, 2.0))
        if inp.cube_argument > 0.05:
            return inp


# ---------------------------------------------------------------------------
# discrete Mobius frame
# ---------------------------------------------------------------------------

def test_sl2_discrete_frame_normalization_500():
    rng = DeterministicRng(53)
    worst = 0.0
    for _ in range(500):
        inp = _rand_sl2_input(rng)
        worst = max(worst, float(np.max(np.abs(sl2_discrete_normalization_residuals(inp)))))
    assert worst <= 1e-10


def test_sl2_discrete_frame_unimodular():
    rng = DeterministicRng(54)
    for _ in range(100):
        g = sl2_discrete_frame(_rand_sl2_input(rng))
        assert g.a * g.d - g.b * g.c == pytest.approx(1.0, abs=1e-12)


def test_sl2_discrete_frame_limit_branch():
    # vanishing second difference: affine limiting frame, identity here
    inp = SL2DiscreteFrameInput(-1.0, 0.0, 1.0, 2.0, 1.0)
    g = sl2_discrete_frame(inp)
    assert g.params() == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-14)
    img = apply_sl2_window(g, inp)
    assert img.u_ip2 == pytest.approx(2.0)  # iota(u_{i+2}) finite


def test_sl2_discrete_input_validation():
    with pytest.raises(ValueError):
        SL2DiscreteFrameInput(0.0, 0.0, 1.0, 2.0, 1.0)  # repeated value
    with pytest.raises(ValueError):
        SL2DiscreteFrameInput(0.0, 1.0, 2.0, 3.0, -1.0)  # bad spacing


def test_sl2_discrete_frame_singular_input():
    # epsilon and the slope product have matching signs here, so c^2 < 0
    with pytest.raises(FrameSingularity):
        sl2_discrete_frame(SL2DiscreteFrameInput(0.0, 1.0, 0.5, -2.0, 1.0))


def test_sl2_discrete_frame_equivariance():
    rng = DeterministicRng(55)
    count = 0
    while count < 100:
        inp = _rand_sl2_input(rng)
        g = rand_sl2_safe(rng, inp.window)
        try:
            gi = apply_sl2_window(g, inp)
            lhs = sl2_discrete_frame(gi)
        except (FrameSingularity, DegenerateJet, ValueError):
            continue
        rhs = sl2_discrete_frame(inp).compose(g.inverse())
        assert sl2_projectively_equal(lhs, rhs, 1e-9)
        count += 1


def test_invariantize_cross_ratio_is_identity():
    rng = DeterministicRng(56)
    F = lambda w: cross_ratio(*w.window)
    for _ in range(200):
        inp = _rand_sl2_input(rng)
        try:
            v = invariantize_sl2_discrete(F, inp)
        except Exception:
            continue
        r = cross_ratio(*inp.window)
        assert abs(v - r) <= 1e-11 * (1.0 + abs(r))


def test_invariantize_phantom_coordinates():
    inp = SL2DiscreteFrameInput(0.0, 1.0, 2.0, 3.0, 1.0)
    g = sl2_discrete_frame(inp)
    img = apply_sl2_window(g, inp)
    eps = inp.epsilon
    assert img.u_im1 == pytest.approx(-eps * inp.h, abs=1e-12)
    assert img.u_i == pytest.approx(0.0, abs=1e-12)
    assert img.u_ip1 == pytest.approx(eps * inp.h, abs=1e-12)
    # replacement identity on the equally spaced window
    assert cross_ratio(img.u_im1, img.u_i, img.u_ip1, img.u_ip2) == pytest.approx(
        0.25, abs=1e-12)


def test_invariantize_idempotent():
    rng = DeterministicRng(57)
    F = lambda w: w.u_ip2 - w.u_im1
    for _ in range(100):
        inp = _rand_sl2_input(rng)
        try:
            once = invariantize_sl2_discrete(F, inp)
            twice = invariantize_sl2_discrete(
                lambda w: invariantize_sl2_discrete(F, w), inp)
        except Exception:
            continue
        assert abs(twice - once) <= 1e-12 * (1.0 + abs(once))


def test_invariantize_orbit_constancy():
    rng = DeterministicRng(58)
    F = lambda w: w.u_ip2 - w.u_im1
    count = 0
    while count < 100:
        inp = _rand_sl2_input(rng)
        g = rand_sl2_safe(rng, inp.window)
        try:
            v0 = invariantize_sl2_discrete(F, inp)
            v1 = invariantize_sl2_discrete(F, apply_sl2_window(g, inp))
        except Exception:
            continue
        assert abs(v1 - v0) <= 1e-9 * (1.0 + abs(v0))
        count += 1


# ---------------------------------------------------------------------------
# KdV frame
# ---------------------------------------------------------------------------

def test_kdv_frame_cross_section_point():
    assert kdv_discrete_frame(KdVFrameInput(0, 0, 0, 1)).params() == pytest.approx(
        (1.0, 0.0, 0.0, 0.0))


def test_kdv_frame_pure_scaling_point():
    g = kdv_discrete_frame(KdVFrameInput(0, 0, 0, 8))
    assert g.params() == pytest.approx((2.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(kdv_normalization_residuals(KdVFrameInput(0, 0, 0, 8)))) <= 1e-12


def test_kdv_frame_components():
    inp = KdVFrameInput(0.7, -1.3, 0.9, 2.5)
    g = kdv_discrete_frame(inp)
    m = inp.dxu
    assert g.lam == pytest.approx(m ** (1 / 3), rel=1e-14)
    assert g.v == pytest.approx(-inp.u / m ** (2 / 3), rel=1e-14)
    assert g.b == pytest.approx(-inp.t * m, rel=1e-14)


def test_kdv_frame_degenerate_slope():
    with pytest.raises(DegenerateJet):
        kdv_discrete_frame(KdVFrameInput(0, 0, 0, 0.0))


def test_kdv_frame_normalization_500():
    rng = DeterministicRng(59)
    worst = 0.0
    for _ in range(500):
        worst = max(worst, float(np.max(np.abs(
            kdv_normalization_residuals(_rand_kdv_input(rng))))))
    assert worst <= 1e-10


@settings(max_examples=100)
@given(inp=st.builds(KdVFrameInput, st.floats(-1.0, 1.0), st.floats(-2.0, 2.0),
                     st.floats(-2.0, 2.0), st.floats(0.05, 3.0)),
       g=kdv_elements)
def test_kdv_frame_equivariance_100(inp, g):
    # rho(g . z) = rho(z) g^-1
    lhs = np.array(kdv_discrete_frame(apply_kdv_jet(g, inp)).params())
    rhs = np.array(kdv_discrete_frame(inp).compose(g.inverse()).params())
    assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-9


def test_invariantize_kdv_invariant_is_identity():
    # the frame of the base node moves the whole stencil: iota(T) = T
    rng = DeterministicRng(61)
    count = 0
    while count < 100:
        z = rand_kdv_stencil(rng)
        inp = _kdv_input(z)
        if inp.dxu <= 0.05:
            continue
        v = kdv_invariants(apply_kdv_stencil(kdv_discrete_frame(inp), z))["T"]
        expect = kdv_invariants(z)["T"]
        assert abs(v - expect) <= 1e-11 * (1.0 + abs(expect))
        count += 1


# ---------------------------------------------------------------------------
# Burgers frame
# ---------------------------------------------------------------------------

def test_burgers_frame_cross_section_point():
    inp = BurgersFrameInput(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0)  # cube arg = 1
    g = burgers_discrete_frame(inp)
    assert g.params() == pytest.approx((0.0, 0.0, 0.0, 0.0))


def test_burgers_frame_components_and_metadata():
    rng = DeterministicRng(62)
    inp = _rand_burgers_input(rng)
    g = burgers_discrete_frame(inp)
    assert g.eps1 == pytest.approx(-inp.x)
    assert g.eps2 == pytest.approx(-inp.t)
    assert g.eps3 == pytest.approx(-inp.u)
    assert math.exp(3.0 * g.eps4) == pytest.approx(inp.cube_argument, rel=1e-12)


def test_burgers_frame_degenerate_cube_argument():
    with pytest.raises(DegenerateJet):
        burgers_discrete_frame(BurgersFrameInput(0, 0, 0, 0, 0.0, -1.0, 1.0))


def test_burgers_frame_normalization_500():
    rng = DeterministicRng(63)
    worst = 0.0
    for _ in range(500):
        worst = max(worst, float(np.max(np.abs(
            burgers_normalization_residuals(_rand_burgers_input(rng))))))
    assert worst <= 1e-10


_burgers_inputs = st.builds(
    BurgersFrameInput, st.floats(-1.0, 1.0), *[st.floats(-2.0, 2.0)] * 5, st.floats(0.1, 2.0),
).filter(lambda inp: inp.cube_argument > 0.05)


@settings(max_examples=100)
@given(inp=_burgers_inputs, g=burgers_elements)
def test_burgers_frame_equivariance_100(inp, g):
    # rho(g . z) = rho(z) g^-1
    gi = apply_burgers_jet(g, inp)
    assume(gi.cube_argument >= 1e-6)
    lhs = np.array(burgers_discrete_frame(gi).params())
    rhs = np.array(burgers_discrete_frame(inp).compose(g.inverse()).params())
    assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-9


def _component(lo, hi):
    """Jet components of 0 or at least 1e-100 in size: a product of two,
    scaled by up to 2^(+-180) as a scaling by 2^(+-60) may, stays normal."""
    return st.floats(lo, hi).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)


@settings(max_examples=200)
@given(kdv=st.builds(KdVFrameInput, _component(-1.0, 1.0), _component(-2.0, 2.0),
                     _component(-2.0, 2.0), st.floats(0.05, 3.0)),
       burgers=st.builds(BurgersFrameInput, _component(-1.0, 1.0),
                         *[_component(-2.0, 2.0)] * 5, st.floats(0.1, 2.0)
                         ).filter(lambda inp: inp.cube_argument > 0.05),
       window=st.tuples(*[_component(-2.0, 2.0)] * 4), h=st.floats(0.1, 2.0),
       j=st.integers(-60, 60))
def test_frames_are_equivariant_under_extreme_scalings(kdv, burgers, window, h, j):
    # rho(g . z) = rho(z) g^-1 for g a scaling by 2^j: the frames test their
    # slope and cube argument for positivity exactly, so no scale is singular.
    # Each parameter agrees to 1e-12 of its size, and the Burgers log-scale
    # e4 to 1e-12 absolute, a relative error of the scale exp(e4).  The Mobius
    # frame forms its sign from signs and its parameters from quotients of
    # differences, so no scale underflows or overflows them either; its
    # scaling diag(2^j, 2^-j) maps u to 4^j u exactly, and its frames agree
    # up to the matrix's sign
    g = KdVGroupElement(2.0**j)
    lhs = kdv_discrete_frame(apply_kdv_jet(g, kdv)).params()
    rhs = kdv_discrete_frame(kdv).compose(g.inverse()).params()
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(lhs, rhs)), (lhs, rhs)
    g = BurgersGroupElement(eps4=j * math.log(2.0))
    lhs = burgers_discrete_frame(apply_burgers_jet(g, burgers)).params()
    rhs = burgers_discrete_frame(burgers).compose(g.inverse()).params()
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(lhs[:3], rhs[:3])), (lhs, rhs)
    assert abs(lhs[3] - rhs[3]) <= 1e-12, (lhs, rhs)
    try:
        sl2 = SL2DiscreteFrameInput(*window, h)
        rho = sl2_discrete_frame(sl2)
    except (ValueError, FrameSingularity, DegenerateJet):
        return  # a window with no frame
    g = SL2Element(2.0**j, 0.0, 0.0, 2.0**-j)
    assert sl2_projectively_equal(sl2_discrete_frame(apply_sl2_window(g, sl2)),
                                  rho.compose(g.inverse()))


@pytest.mark.parametrize("e", [-600, -400, 400])
def test_mobius_frame_of_a_window_scaled_far_from_one(e):
    # the products in the frame's sign and c^2 underflowed at 2^-400 and
    # 2^-600 (a ZeroDivisionError) and overflowed at 2^400 (c^2 = 0)
    inp = SL2DiscreteFrameInput(0.0, -1.0, -3.0, -4.0, 0.5)
    g = SL2Element(2.0 ** (e / 2), 0.0, 0.0, 2.0 ** (-e / 2))
    lhs = sl2_discrete_frame(apply_sl2_window(g, inp))
    assert sl2_projectively_equal(lhs, sl2_discrete_frame(inp).compose(g.inverse()))
    assert np.abs(sl2_discrete_normalization_residuals(apply_sl2_window(g, inp))).max() <= 1e-15


def _d2u(z):
    """Second x-difference 2 (Du_i - Du_{i-1}) / (h_i + h_{i-1}) on the lower row."""
    h, du = np.diff(z.x[0]), _du(z)[0]
    return float(2.0 * (du[1] - du[0]) / (h[0] + h[1]))


def _invariantized_d2u(z):
    """iota(D2 u)(z): D2 u of the stencil moved by the frame of its base node."""
    return _d2u(apply_burgers_stencil(burgers_discrete_frame(_burgers_input(z)), z))


def test_burgers_invariantized_second_difference():
    # iota(D2 u) = D2 u / [(1 + k Dx u)(Dt u + u^{n+1} Dx u)]
    rng = DeterministicRng(65)
    count = 0
    while count < 100:
        z = rand_burgers_stencil(rng)
        inp = _burgers_input(z)
        if inp.cube_argument < 0.05:
            continue
        v = _invariantized_d2u(z)
        expect = _d2u(z) / inp.cube_argument
        assert abs(v - expect) <= 1e-10 * (1.0 + abs(expect))
        count += 1


def test_burgers_invariantize_orbit_constancy():
    rng = DeterministicRng(66)
    count = 0
    while count < 100:
        z = rand_burgers_stencil(rng)
        if _burgers_input(z).cube_argument < 0.05:
            continue
        g = rand_burgers_element(rng)
        gz = apply_burgers_stencil(g, z)
        if _burgers_input(gz).cube_argument < 1e-6:
            continue
        v0 = _invariantized_d2u(z)
        v1 = _invariantized_d2u(gz)
        assert abs(v1 - v0) <= 1e-9 * (1.0 + abs(v0))
        count += 1

