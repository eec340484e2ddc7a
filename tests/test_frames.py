"""Moving frames: normalization, equivariance, invariantization."""

import math

import numpy as np
import pytest

from symfd.errors import DegenerateJet, FrameSingularity
from symfd.frames import (
    BurgersFrameInput,
    KdVFrameInput,
    SL2DiscreteFrameInput,
    apply_burgers_jet,
    apply_burgers_stencil,
    apply_kdv_jet,
    apply_kdv_stencil,
    apply_sl2_jet2,
    apply_sl2_jet3,
    apply_sl2_window,
    burgers_discrete_frame,
    burgers_normalization_residuals,
    invariantize_burgers,
    invariantize_kdv,
    invariantize_sl2_discrete,
    kdv_discrete_frame,
    kdv_normalization_residuals,
    sl2_differential_frame,
    sl2_differential_normalization_residuals,
    sl2_discrete_frame,
    sl2_discrete_normalization_residuals,
    sl2_projectively_equal,
)
from symfd.invariants import burgers_d2u, cross_ratio, kdv_invariants
from symfd.rng import DeterministicRng

from _helpers import (
    rand_burgers_element,
    rand_burgers_stencil,
    rand_kdv_element,
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


def _rand_burgers_input(rng):
    while True:
        inp = BurgersFrameInput(rng.uniform(-1, 1), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(0.1, 2.0))
        if inp.cube_argument > 0.05:
            return inp


# ---------------------------------------------------------------------------
# differential Mobius frame
# ---------------------------------------------------------------------------

def test_sl2_differential_frame_on_cross_section():
    assert sl2_differential_frame(0.0, 1.0, 0.0).params() == pytest.approx(
        (1.0, 0.0, 0.0, 1.0))


def test_sl2_differential_frame_scaled_jet():
    # direct substitution; the frame then maps the jet onto the cross-section
    g = sl2_differential_frame(0.0, 4.0, 0.0)
    assert g.params() == pytest.approx((0.5, 0.0, 0.0, 2.0))
    assert np.max(np.abs(sl2_differential_normalization_residuals(0.0, 4.0, 0.0))) <= 1e-12


def test_sl2_differential_frame_normalization_500():
    rng = DeterministicRng(50)
    worst = 0.0
    for _ in range(500):
        u = rng.uniform(-2, 2)
        ux = rng.choice_sign() * rng.uniform(0.1, 3.0)
        uxx = rng.uniform(-2, 2)
        worst = max(worst, float(np.max(np.abs(
            sl2_differential_normalization_residuals(u, ux, uxx)))))
    assert worst <= 1e-10


def test_sl2_differential_frame_degenerate_jet():
    with pytest.raises(DegenerateJet):
        sl2_differential_frame(0.5, 0.0, 1.0)


def test_sl2_differential_frame_equivariance():
    rng = DeterministicRng(51)
    count = 0
    while count < 100:
        u = rng.uniform(-2, 2)
        ux = rng.choice_sign() * rng.uniform(0.1, 3.0)
        uxx = rng.uniform(-2, 2)
        g = rand_sl2_safe(rng, [u])
        gu, gux, guxx = apply_sl2_jet2(g, u, ux, uxx)
        if abs(gux) < 1e-3:
            continue
        lhs = sl2_differential_frame(gu, gux, guxx)
        rhs = sl2_differential_frame(u, ux, uxx).compose(g.inverse())
        assert sl2_projectively_equal(lhs, rhs, 1e-9)
        count += 1


def test_sl2_schwarzian_from_invariantized_third_derivative():
    # eps * iota(u_xxx) equals the Schwarzian combination of the jet
    rng = DeterministicRng(52)
    for _ in range(100):
        u = rng.uniform(-2, 2)
        ux = rng.choice_sign() * rng.uniform(0.1, 3.0)
        uxx = rng.uniform(-2, 2)
        uxxx = rng.uniform(-2, 2)
        g = sl2_differential_frame(u, ux, uxx)
        img = apply_sl2_jet3(g, u, ux, uxx, uxxx)
        eps = 1.0 if ux >= 0 else -1.0
        schwarzian = (ux * uxxx - 1.5 * uxx**2) / ux**2
        assert eps * img[3] == pytest.approx(schwarzian, rel=1e-9, abs=1e-9)


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


def test_kdv_frame_equivariance_100():
    rng = DeterministicRng(60)
    for _ in range(100):
        inp = _rand_kdv_input(rng)
        g = rand_kdv_element(rng)
        lhs = np.array(kdv_discrete_frame(apply_kdv_jet(g, inp)).params())
        rhs = np.array(kdv_discrete_frame(inp).compose(g.inverse()).params())
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-9


def test_invariantize_kdv_invariant_is_identity():
    rng = DeterministicRng(61)
    count = 0
    while count < 100:
        z = rand_kdv_stencil(rng)
        du = z.du
        if (du[0, 1] + du[0, 2]) / 2.0 <= 0.05:
            continue
        F = lambda s: kdv_invariants(s)["T"]
        v = invariantize_kdv(F, z)
        expect = kdv_invariants(z)["T"]
        assert abs(v - expect) <= 1e-11 * (1.0 + abs(expect))
        count += 1


def test_invariantize_dispatcher():
    from symfd.frames import invariantize

    inp = SL2DiscreteFrameInput(0.0, 1.0, 2.0, 3.0, 1.0)
    v = invariantize("sl2", lambda w: cross_ratio(*w.window), inp)
    assert v == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        invariantize("unknown", lambda w: 0.0, inp)


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


def test_burgers_frame_equivariance_100():
    rng = DeterministicRng(64)
    count = 0
    while count < 100:
        inp = _rand_burgers_input(rng)
        g = rand_burgers_element(rng)
        gi = apply_burgers_jet(g, inp)
        if gi.cube_argument < 1e-6:
            continue
        lhs = np.array(burgers_discrete_frame(gi).params())
        rhs = np.array(burgers_discrete_frame(inp).compose(g.inverse()).params())
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-9
        count += 1


def test_burgers_invariantized_second_difference():
    # iota(D2 u) = D2 u / [(1 + k Dx u)(Dt u + u^{n+1} Dx u)]
    rng = DeterministicRng(65)
    count = 0
    while count < 100:
        z = rand_burgers_stencil(rng)
        inp = BurgersFrameInput.from_stencil(z)
        if inp.cube_argument < 0.05:
            continue
        v = invariantize_burgers(lambda s: burgers_d2u(s, 0), z)
        expect = burgers_d2u(z, 0) / inp.cube_argument
        assert abs(v - expect) <= 1e-10 * (1.0 + abs(expect))
        count += 1


def test_burgers_invariantize_orbit_constancy():
    rng = DeterministicRng(66)
    F = lambda s: burgers_d2u(s, 0)
    count = 0
    while count < 100:
        z = rand_burgers_stencil(rng)
        if BurgersFrameInput.from_stencil(z).cube_argument < 0.05:
            continue
        g = rand_burgers_element(rng)
        gz = apply_burgers_stencil(g, z)
        if BurgersFrameInput.from_stencil(gz).cube_argument < 1e-6:
            continue
        v0 = invariantize_burgers(F, z)
        v1 = invariantize_burgers(F, gz)
        assert abs(v1 - v0) <= 1e-9 * (1.0 + abs(v0))
        count += 1
