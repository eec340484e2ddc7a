"""Scheme residuals, steps, invariance, consistency, and baselines."""

import collections
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symfd.errors import DegenerateDenominator, MeshTangling, SchemeSingularity, SymfdError
from symfd.groups import BurgersGroupElement, KdVGroupElement, apply_burgers, apply_kdv, apply_sl2
from symfd.invariants import cross_ratio
from symfd.mesh import MeshUpdate, MonitorParams, equidistribute, monitor_arclength
from symfd.runner import exact_burgers, exact_kdv_double_soliton
from symfd import runner, schemes
from symfd.rng import DeterministicRng
from symfd.schemes import (
    GridState,
    _DIVERGE_LIMIT,
    _RKF_A,
    _RKF_B4,
    _RKF_C,
    _RKF_ERR,
    _burgers_parts,
    _band_layout,
    _solve_affine_banded,
    burgers_fv_residual,
    burgers_fv_step_detailed,
    kdv_invariant_normalizer,
    kdv_residual_10pt,
    kdv_residual_6pt,
    kdv_step_detailed,
    naive_kdv_residual,
    naive_kdv_step,
    rk_adaptive_solve,
    schwarzian_invariant_residual,
    schwarzian_invariantized_residual,
    schwarzian_invariantized_step,
    schwarzian_step,
    uxx_step,
    uxx_w_residual,
)

from _helpers import (
    POWER_OF_TWO_SCALES,
    WINDOW_VALUES,
    apply_kdv_stencil,
    equidistribution_residual,
    kdv_elements,
    kdv_residual_10pt_reference,
    kdv_residual_6pt_reference,
    rand_admissible_window,
    rand_burgers_element,
    rand_kdv_element,
    rand_kdv_stencil,
    rand_mesh_row,
    rand_sl2_safe,
    rel_err,
    third_differences,
)


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

def _mesh(draw, n, rows):
    """Increasing abscissae of shape (n,), or (rows, n) when rows is set."""
    def one():
        steps = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
        return draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    return one() if rows is None else np.array([one() for _ in range(rows)])


def _values(draw, n, rows, levels):
    """Values of the shape of _mesh, drawn from [-2, 2] and the given levels."""
    u = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(levels))
    size = n if rows is None else rows * n
    return np.array(draw(st.lists(u, min_size=size, max_size=size))).reshape(
        (n,) if rows is None else (rows, n))


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(3, 10), rows=st.sampled_from([None, 1, 3]))
def test_gridstate_rejects_nonfinite_abscissae(data, n, rows):
    x = _mesh(data.draw, n, rows)
    # NaN in u is allowed: the run loop's nonfinite guard reports it
    u = _values(data.draw, n, rows, [math.nan, math.inf])
    cells = data.draw(st.lists(st.integers(0, x.size - 1), min_size=1, max_size=3, unique=True))
    values = [data.draw(st.sampled_from([math.nan, math.inf, -math.inf])) for _ in cells]
    # forming the carried differences of infinite x or u warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GridState(0.0, x, u)
        x = x.copy()
        x.flat[cells] = values
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            GridState(0.0, x, u)


# ---------------------------------------------------------------------------
# Schwarzian recurrence
# ---------------------------------------------------------------------------

def test_schwarzian_step_continues_equal_spacing():
    assert schwarzian_step(-1.0, 0.0, 1.0, 1.0, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_schwarzian_step_tracks_tangent():
    h = 0.01
    n = 105
    x = np.arange(n) * h
    u = np.empty(n)
    u[:3] = np.tan(x[:3])
    for i in range(1, n - 2):
        u[i + 2] = schwarzian_step(u[i - 1], u[i], u[i + 1], h, 2.0)
    rel = abs(u[100] - math.tan(1.0)) / abs(math.tan(1.0))
    assert rel < 1e-2


def test_schwarzian_step_mobius_commutation():
    rng = DeterministicRng(80)
    count = 0
    while count < 100:
        u = rand_admissible_window(rng)[:3]
        h = rng.uniform(0.05, 1.0)
        f = rng.uniform(-1.0, 1.0)
        w = schwarzian_step(*u, h, f)
        g = rand_sl2_safe(rng, list(u) + [w])
        gu = [apply_sl2(g, v) for v in u]
        gw = schwarzian_step(*gu, h, f)
        assert rel_err(apply_sl2(g, w), gw) <= 1e-9
        count += 1


@settings(max_examples=300)
@given(u=st.lists(WINDOW_VALUES, min_size=3, max_size=3),
       h=st.floats(0.05, 1.0), f=st.floats(-1.0, 1.0), m=st.integers(-60, 60),
       step=st.sampled_from([schwarzian_step, schwarzian_invariantized_step]))
def test_schwarzian_steps_commute_with_scaling_by_powers_of_two(u, h, f, m, step):
    # the step is homogeneous of degree 1 in u and a scaling by 2^m is exact,
    # so a scaled window steps to the scaled value bit for bit, or both raise
    scaled = [math.ldexp(v, m) for v in u]
    try:
        want = math.ldexp(step(*u, h, f), m)
    except SchemeSingularity:
        with pytest.raises(SchemeSingularity):
            step(*scaled, h, f)
        return
    assert step(*scaled, h, f) == want


def test_schwarzian_step_singular_target():
    with pytest.raises(SchemeSingularity, match="h\\^2 F = 2"):
        schwarzian_step(0.0, 1.0, 2.0, 1.0, 2.0)
    with pytest.raises(SchemeSingularity, match="h\\^2 F = -2"):
        schwarzian_invariantized_step(0.0, 1.0, 3.0, 1.0, -2.0)


def _conjugate_ratio_reference(a, b, c, d):
    """Rbar = (d - a)(c - b) / ((d - b)(c - a)), the conjugate cross-ratio."""
    return (d - a) * (c - b) / ((d - b) * (c - a))


def _invariantized_step_reference(u_im1, u_i, u_ip1, h, f_i):
    """The closed form that solves Rbar - R = 1/(2 + h^2 F) directly:
    Rbar - R = (w D2 + M) / ((w - u_i) S) with D2 the second difference,
    S = u_{i+1} - u_{i-1} and M = u_i (u_{i-1} + u_{i+1}) - 2 u_{i-1} u_{i+1}."""
    rho = 1.0 / (2.0 + h**2 * f_i)
    d2 = u_ip1 - 2.0 * u_i + u_im1
    m = u_i * (u_im1 + u_ip1) - 2.0 * u_im1 * u_ip1
    span = u_ip1 - u_im1
    return (rho * span * u_i + m) / (rho * span - d2)


@settings(max_examples=200)
@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
def test_cross_ratio_and_its_conjugate_sum_to_one(u):
    a, b, c, d = u
    assume(abs(c - a) > 1e-3 and abs(d - b) > 1e-3)
    r = cross_ratio(*u)
    rbar = _conjugate_ratio_reference(*u)
    assert abs(r + rbar - 1.0) <= 1e-12 * (1.0 + abs(r) + abs(rbar))


def test_schwarzian_invariantized_step_matches_direct_closed_form():
    rng = DeterministicRng(83)
    for _ in range(2000):
        u = rand_admissible_window(rng)[:3]
        h = rng.uniform(0.05, 1.0)
        f = rng.uniform(-1.0, 1.0)
        want = _invariantized_step_reference(*u, h, f)
        assert abs(schwarzian_invariantized_step(*u, h, f) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("step", [schwarzian_step, schwarzian_invariantized_step])
@pytest.mark.parametrize("window", [(1.0, 1.0, 2.0), (0.0, 1.0, 1.0), (3.0, 3.0, 3.0)])
def test_schwarzian_steps_reject_equal_consecutive_values(step, window):
    with pytest.raises(SchemeSingularity, match="consecutive u values must be distinct"):
        step(*window, 0.1, 2.0)


def test_schwarzian_residuals_on_exact_samples():
    # first order bound; with a constant source the O(h) coefficient cancels
    # and the decay is even faster, so assert the bound plus a >= 1.6 shrink
    maxres = {}
    for h in (0.02, 0.01):
        xs = np.arange(0.0, 0.8, h)
        us = np.tan(xs)
        res_i = [abs(schwarzian_invariantized_residual(
            us[i - 1], us[i], us[i + 1], us[i + 2], h, 2.0))
            for i in range(1, len(us) - 2)]
        maxres[h] = max(res_i)
    assert maxres[0.01] <= 0.1
    assert maxres[0.02] / maxres[0.01] >= 1.6


def test_schwarzian_invariantized_residual_defines_source():
    # equal spacing, F chosen as the residual combination: residual vanishes
    u = (0.0, 1.0, 2.0, 3.0)
    h = 0.3
    f = (1.0 / (_conjugate_ratio_reference(*u) - cross_ratio(*u)) - 2.0) / h**2
    assert schwarzian_invariantized_residual(*u, h, f) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("residual,window,message", [
    pytest.param(schwarzian_invariant_residual, (1.0, 1.0 + 2.0**-52, 3.0, 4.0),
                 "cross-ratio vanished", id="left_difference_cancels"),
    pytest.param(schwarzian_invariant_residual, (0.0, 1.0, 2.0, 2.0),
                 "cross-ratio vanished", id="right_difference_zero"),
    # no difference cancels, but the product of the two quotients underflows
    pytest.param(schwarzian_invariant_residual, (0.0, 5e-324, 1.0, 1.5),
                 "cross-ratio vanished", id="ratio_underflows"),
    # R = 1/2, so Rbar - R = 1 - 2R is zero
    pytest.param(schwarzian_invariantized_residual, (0.0, 1.0, 3.0, -3.0),
                 "Rbar - R vanished", id="invariantized_gap_zero"),
])
def test_schwarzian_residuals_raise_where_their_divisor_vanishes(residual, window, message):
    with pytest.raises(DegenerateDenominator, match=message):
        residual(*window, 0.1, 2.0)


def test_schwarzian_residual_mobius_invariance():
    rng = DeterministicRng(81)
    for _ in range(100):
        u = rand_admissible_window(rng)
        h = rng.uniform(0.05, 1.0)
        f = rng.uniform(-1.0, 1.0)
        g = rand_sl2_safe(rng, u)
        gu = [apply_sl2(g, v) for v in u]
        for res in (schwarzian_invariant_residual, schwarzian_invariantized_residual):
            assert rel_err(res(*u, h, f), res(*gu, h, f)) <= 1e-9


def test_schwarzian_invariantized_step_solves_residual():
    rng = DeterministicRng(82)
    for _ in range(50):
        u = rand_admissible_window(rng)[:3]
        h = rng.uniform(0.05, 0.5)
        f = rng.uniform(-1.0, 1.0)
        w = schwarzian_invariantized_step(*u, h, f)
        r = schwarzian_invariantized_residual(u[0], u[1], u[2], w, h, f)
        assert abs(r) <= 1e-8 * (1.0 + abs(f))


# ---------------------------------------------------------------------------
# straight-line scheme
# ---------------------------------------------------------------------------

def test_uxx_step_keeps_affine_data():
    x_im1, x_i = 0.0, 0.4
    p, q = 2.0, 1.0
    x_ip1, u_ip1 = uxx_step(x_im1, x_i, p * x_im1 + q, p * x_i + q, 1.7)
    assert u_ip1 == pytest.approx(p * x_ip1 + q, abs=1e-12)
    # the new spacing is f times the previous one
    assert x_ip1 - x_i == pytest.approx(1.7 * (x_i - x_im1), abs=1e-12)


def test_uxx_step_unit_ratio_uniform_mesh():
    x_ip1, _u = uxx_step(0.0, 0.5, 1.0, 2.0, 1.0)
    assert x_ip1 == pytest.approx(1.0)


def test_uxx_step_five_parameter_invariance():
    rng = DeterministicRng(83)
    for _ in range(100):
        x = rand_mesh_row(rng, 2)
        u = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        f = rng.uniform(0.2, 3.0)
        lam = math.exp(rng.uniform(-0.7, 0.7))
        alp = math.exp(rng.uniform(-0.7, 0.7))
        a, b, beta = (rng.uniform(-1, 1) for _ in range(3))
        x_n, u_n = uxx_step(x[0], x[1], u[0], u[1], f)
        gx = [lam * v + a for v in x]
        gu = [alp * uu + beta * xx + b for uu, xx in zip(u, x)]
        gx_n, gu_n = uxx_step(gx[0], gx[1], gu[0], gu[1], f)
        assert abs(gx_n - (lam * x_n + a)) <= 1e-10 * (1.0 + abs(gx_n))
        assert abs(gu_n - (alp * u_n + beta * x_n + b)) <= 1e-10 * (1.0 + abs(gu_n))


def test_uxx_w_zero_set_preserved():
    rng = DeterministicRng(84)
    for _ in range(100):
        x = rand_mesh_row(rng, 3)
        u0, u1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        u2 = u1 + (x[2] - x[1]) / (x[1] - x[0]) * (u1 - u0)
        assert abs(uxx_w_residual(*x, u0, u1, u2)) <= 1e-12
        lam = math.exp(rng.uniform(-0.7, 0.7))
        alp = math.exp(rng.uniform(-0.7, 0.7))
        a, b, beta = (rng.uniform(-1, 1) for _ in range(3))
        gx = [lam * v + a for v in x]
        gu = [alp * uu + beta * xx + b for uu, xx in zip((u0, u1, u2), x)]
        w = uxx_w_residual(*gx, *gu)
        scale = max(1.0, abs((gx[1] - gx[0]) * (gu[2] - gu[1])))
        assert abs(w) / scale <= 1e-12


_UXX_VALUES = st.floats(-1e3, 1e3)
_UXX_POSITIVE = st.floats(1e-3, 1e3)


def _uxx_columns(draw, c: int, *values):
    """One (C,) array of c draws from each strategy of ``values``."""
    return [np.array(draw(st.lists(v, min_size=c, max_size=c))) for v in values]


def _uxx_windows(draw, c: int):
    """(x_{i-1}, x_i, u_{i-1}, u_i, f) of c admissible windows, as (C,) arrays."""
    x_im1, dx, u_im1, u_i, f = _uxx_columns(draw, c, _UXX_VALUES, _UXX_POSITIVE,
                                            _UXX_VALUES, _UXX_VALUES, _UXX_POSITIVE)
    return [x_im1, x_im1 + dx, u_im1, u_i, f]


@settings(max_examples=60)
@given(data=st.data(), c=st.integers(1, 6))
def test_uxx_kernels_on_arrays_equal_their_scalar_calls(data, c):
    args = _uxx_windows(data.draw, c)
    singles = [uxx_step(*map(float, window)) for window in zip(*args)]
    assert np.array(uxx_step(*args)).tobytes() == np.array(singles).T.tobytes()
    cols = _uxx_columns(data.draw, c, *[_UXX_VALUES] * 6)
    singles = [uxx_w_residual(*map(float, window)) for window in zip(*cols)]
    assert uxx_w_residual(*cols).tobytes() == np.array(singles).tobytes()


@settings(max_examples=30)
@given(data=st.data(), c=st.integers(1, 6), bad_mesh=st.booleans())
def test_uxx_step_on_arrays_rejects_one_bad_window(data, c, bad_mesh):
    x_im1, x_i, u_im1, u_i, f = _uxx_windows(data.draw, c)
    r, gap = data.draw(st.integers(0, c - 1)), data.draw(st.floats(0.0, 1e3))
    if bad_mesh:  # a non-increasing mesh
        x_i[r] = x_im1[r] - gap
    else:  # a nonpositive ratio
        f[r] = -gap
    with pytest.raises(ValueError, match="increasing" if bad_mesh else "ratio"):
        uxx_step(x_im1, x_i, u_im1, u_i, f)


# ---------------------------------------------------------------------------
# KdV residuals and steps
# ---------------------------------------------------------------------------

def _row_d3u(x, u):
    return GridState(0.0, x, u).d3u


def test_d3u_polynomial_oracle():
    # per-node assembly from the definition on a nonuniform row, plus the
    # closed forms D3u = 0 on quadratics and 6 on cubics (uniform row)
    xr = np.arange(7) * 0.3
    for exponent, expected in ((1, 0.0), (2, 0.0), (3, 6.0)):
        assert np.allclose(_row_d3u(xr, xr**exponent), expected, rtol=0.0, atol=1e-11)
    x = np.array([-1.0, -0.6, 0.1, 0.3, 1.2, 1.5, 2.6])
    u = np.sin(2.0 * x)
    assert np.allclose(_row_d3u(x, u), third_differences(x, u), rtol=1e-14, atol=1e-14)


def test_d3u_group_invariance():
    # k h_i^2 D3u_i / 2 is a KdV invariant on either row of the stencil
    rng = DeterministicRng(38)
    worst = 0.0
    for _ in range(200):
        z = rand_kdv_stencil(rng)
        gz = apply_kdv_stencil(rand_kdv_element(rng), z)
        for row in (0, 1):
            q0, q1 = (s.k * np.diff(s.x[row])[1:-1] ** 2 * _row_d3u(s.x[row], s.u[row]) / 2.0
                      for s in (z, gz))
            worst = max(worst, float(np.max(np.abs(q1 - q0) / (1.0 + np.abs(q0)))))
    assert worst <= 1e-9


def _soliton_pair(h, k, lagrangian=True):
    x = np.arange(-10.0, 10.0, h)
    u0 = exact_kdv_double_soliton(0.0, x, 1.0, 0.0, 0.0, 0.0)
    x1 = x + k * u0 if lagrangian else x
    u1 = exact_kdv_double_soliton(k, x1, 1.0, 0.0, 0.0, 0.0)
    return GridState(0.0, x, u0), GridState(k, x1, u1)


def test_kdv_residual_zero_on_advected_constant():
    x = np.linspace(0, 4, 9)
    c = 0.7
    k = 0.2
    prev = GridState(0.0, x, np.full(9, c))
    nxt = GridState(k, x + k * c, np.full(9, c))
    assert np.max(np.abs(kdv_residual_6pt(prev, nxt, k))) <= 1e-13
    assert np.max(np.abs(kdv_residual_10pt(prev, nxt, k))) <= 1e-13


@pytest.mark.parametrize("residual,reference", [
    (kdv_residual_6pt, kdv_residual_6pt_reference),
    (kdv_residual_10pt, kdv_residual_10pt_reference),
])
@pytest.mark.parametrize("rows", [None, 1, 4])
def test_kdv_residuals_match_the_written_out_schemes(residual, reference, rows):
    rng = DeterministicRng(43)
    for _ in range(50):
        n = 5 + int(8 * rng.random())
        prev, nxt = _state(rng, rows, n), _state(rng, rows, n)
        k = rng.uniform(0.01, 0.5) if rows is None else _column(rng, 0.01, 0.5, rows)
        assert _same_bits(residual(prev, nxt, k), reference(prev, nxt, k))


@pytest.mark.parametrize("residual", [kdv_residual_6pt, kdv_residual_10pt])
def test_kdv_residual_first_order_on_soliton(residual):
    # k tied to h so the O(k) and O(h) pieces refine together
    vals = []
    for h in (0.1, 0.05, 0.025):
        prev, nxt = _soliton_pair(h, h / 2.0)
        vals.append(float(np.max(np.abs(residual(prev, nxt, nxt.t)))))
    assert 1.6 <= vals[0] / vals[1] <= 2.4
    assert 1.6 <= vals[1] / vals[2] <= 2.4


@pytest.mark.parametrize("residual", [kdv_residual_6pt, kdv_residual_10pt])
@settings(max_examples=60)
@given(data=st.data(), rows=st.sampled_from([None, 1, 3]), g=kdv_elements)
def test_kdv_residual_group_invariance(residual, data, rows, g):
    # the normalized residual of a state pair, or of a (rows, 9) batch of
    # pairs, equals that of its image under g; under the scalings by 2^j,
    # which floating point applies exactly, it is equal bit for bit
    n = 9
    k = _per_row(data.draw, st.floats(0.1, 0.5), rows)
    prev = GridState(0.0, _mesh(data.draw, n, rows), _values(data.draw, n, rows, [-1.0, 0.0, 1.0]))
    nxt = GridState(k, _mesh(data.draw, n, rows), _values(data.draw, n, rows, [-1.0, 0.0, 1.0]))
    base = residual(prev, nxt, k) * kdv_invariant_normalizer(prev, k)

    def image(g):
        gp, gn = (GridState(*apply_kdv(g, (s.t, s.x, s.u))) for s in (prev, nxt))
        gk = gn.t - gp.t
        return residual(gp, gn, gk) * kdv_invariant_normalizer(gp, gk)

    img = image(g)
    assert img.shape == base.shape
    assert rel_err(base, img) <= 1e-9

    def in_range(fn):
        # rounding commutes with a scaling by 2^j unless a result underflows
        # or overflows; such a draw gives None and is not compared
        with np.errstate(under="raise", over="raise"):
            try:
                return fn()
            except FloatingPointError:
                return None

    ref = in_range(lambda: residual(prev, nxt, k) * kdv_invariant_normalizer(prev, k))
    for lam in POWER_OF_TWO_SCALES:
        got = in_range(lambda: image(KdVGroupElement(lam, 0.0, 0.0, 0.0)))
        if ref is not None and got is not None:
            assert np.array_equal(got, ref), lam


def test_kdv_step_constant_state_fixed_point():
    from symfd.mesh import MonitorParams

    x = np.linspace(0, 4, 9)
    c = -0.4
    prev = GridState(0.0, x, np.full(9, c))
    for scheme in ("6pt", "10pt"):
        for strategy in ("lagrangian", "adaptive", "projection"):
            nxt = kdv_step_detailed(prev, 0.1, strategy, scheme,
                                    monitor=MonitorParams(10.0))[0]
            assert np.max(np.abs(nxt.u - c)) <= 1e-12
            if strategy == "lagrangian":
                assert np.allclose(nxt.x, x + 0.1 * c)
            else:
                assert np.allclose(nxt.x, x, atol=0.1 * abs(c) + 1e-12)


def test_kdv_step_min_spacing_is_that_of_the_returned_mesh():
    from symfd.mesh import MonitorParams

    prev, _ = _soliton_pair(0.25, 0.05)
    for scheme in ("6pt", "10pt"):
        for strategy in ("lagrangian", "adaptive", "projection"):
            nxt, info = kdv_step_detailed(prev, 0.05, strategy, scheme,
                                          monitor=MonitorParams(3.0))
            assert info.min_spacing == float(np.min(np.diff(nxt.x)))
    # the projected step returns to the previous grid, not the moved mesh
    nxt, info = kdv_step_detailed(prev, 0.05, "projection", "10pt")
    assert np.array_equal(nxt.x, prev.x)
    assert info.min_spacing != float(np.min(np.diff(prev.x + 0.05 * prev.u)))


def test_kdv_step_6pt_solves_residual():
    h = 0.25
    prev, _ = _soliton_pair(h, 0.01)
    nxt, info = kdv_step_detailed(prev, 0.01, "lagrangian", "6pt")
    # an explicit update: nothing is solved, so no residual is reported
    assert (info.residual_inf, info.newton_iters) == (0.0, 0)
    assert np.max(np.abs(kdv_residual_6pt(prev, nxt, 0.01))) <= 1e-12


def test_kdv_step_10pt_solves_residual():
    h = 0.25
    prev, _ = _soliton_pair(h, 0.01)
    nxt, info = kdv_step_detailed(prev, 0.01, "lagrangian", "10pt")
    assert info.residual_inf <= 1e-12
    assert np.max(np.abs(kdv_residual_10pt(prev, nxt, 0.01))) <= 1e-12
    # the scheme is affine in the unknowns: one banded solve
    assert info.newton_iters == 1


def test_kdv_step_10pt_nonfinite_data_is_singular():
    h = 0.25
    prev, _ = _soliton_pair(h, 0.01)
    u = prev.u.copy()
    u[len(u) // 2] = math.nan
    with pytest.raises(SchemeSingularity):
        kdv_step_detailed(GridState(0.0, prev.x, u), 0.01, "lagrangian", "10pt")


@pytest.mark.parametrize("scheme", ["6pt", "10pt"])
@pytest.mark.parametrize("strategy", ["lagrangian", "adaptive", "projection"])
def test_kdv_step_rejects_nonfinite_data_on_every_mesh(strategy, scheme):
    prev, _ = _soliton_pair(0.25, 0.01)
    u = prev.u.copy()
    u[len(u) // 2] = math.inf
    with pytest.raises(SchemeSingularity, match="u is not finite"):
        kdv_step_detailed(GridState(0.0, prev.x, u), 0.01, strategy, scheme,
                          monitor=MonitorParams(1.0))


def test_solve_affine_banded_matches_dense_solve():
    rng = np.random.default_rng(5)
    m = 23
    a = np.zeros((m, m))
    for d in range(-2, 3):
        a += np.diag(rng.uniform(-1.0, 1.0, m - abs(d)), d)
    a += 4.0 * np.eye(m)  # diagonally dominant, so well conditioned
    b = rng.uniform(-1.0, 1.0, m)
    v = _solve_affine_banded(lambda w: a @ w - b, rng.uniform(-1.0, 1.0, m))
    assert np.max(np.abs(v - np.linalg.solve(a, b))) <= 1e-12


def test_solve_affine_banded_zero_band_is_singular():
    with pytest.raises(SchemeSingularity, match="LAPACK info"):
        _solve_affine_banded(lambda w: np.ones_like(w), np.zeros(9))


def test_kdv_step_tangling_abort():
    x = np.linspace(0, 4, 9)
    u = np.array([0.0, 3.0, -3.0, 3.0, -3.0, 3.0, -3.0, 3.0, 0.0])
    with pytest.raises(MeshTangling):
        kdv_step_detailed(GridState(0.0, x, u), 0.3, "lagrangian", "6pt")


def test_kdv_adaptive_step_equidistributes():
    from symfd.mesh import MonitorParams

    h = 0.25
    prev, _ = _soliton_pair(h, 0.01)
    nxt, info = kdv_step_detailed(prev, 0.01, "adaptive", "6pt",
                                  monitor=MonitorParams(10.0))
    weights = monitor_arclength(prev, 0.01, MonitorParams(10.0))
    assert equidistribution_residual(weights, nxt.x) <= 1e-14
    assert nxt.x[0] == pytest.approx(prev.x[0])
    assert nxt.x[-1] == pytest.approx(prev.x[-1])


def test_naive_kdv_constant_state():
    x = np.linspace(0, 4, 9)
    prev = GridState(0.0, x, np.full(9, 1.3))
    nxt, info = naive_kdv_step(prev, 0.01, 0.5)
    assert np.max(np.abs(nxt.u - 1.3)) <= 1e-14
    # the periodic grid never moves: the state keeps the x and spacings it had
    assert nxt.x is prev.x and nxt.dx is prev.dx
    assert (info.newton_iters, info.residual_inf, info.min_spacing) == (0, 0.0, 0.5)


def test_states_and_mesh_updates_compare_and_hash_by_identity():
    # they hold arrays, so a field-wise == or hash would raise
    x = np.linspace(0.0, 1.0, 5)
    a, b = GridState(0.0, x, x**2), GridState(0.0, x.copy(), x**2)
    upd = equidistribute(np.ones(4), (0.0, 1.0))
    assert a == a and a != b and upd == upd and upd != MeshUpdate(upd.x_next, upd.dx, 0.25)
    assert len({a, b, a, upd, upd}) == 3 and hash(a) == hash(a)


def test_naive_kdv_galilean_defect_formula():
    rng = DeterministicRng(86)
    n, h, k = 12, 0.4, 0.05
    u0 = np.array([rng.uniform(-2, 2) for _ in range(n)])
    u1 = np.array([rng.uniform(-2, 2) for _ in range(n)])
    for _ in range(20):
        v = rng.uniform(-1.0, 1.0)
        dev = (naive_kdv_residual(u0 + v, u1 + v, k, h)
               - naive_kdv_residual(u0, u1, k, h))
        predicted = v * (np.roll(u0, -1) - np.roll(u0, 1)) / (2.0 * h)
        assert np.max(np.abs(dev - predicted)) <= 1e-10
        assert np.max(np.abs(dev)) > 1e-3  # the defect is genuinely present


def test_naive_kdv_short_soliton_accuracy():
    h = 0.25
    a, b = -20.0, 20.0
    n = round((b - a) / h)
    x = np.linspace(a, b, n, endpoint=False)
    st = GridState(0.0, x, exact_kdv_double_soliton(0.0, x, 1.0, 0.0, 0.0, 0.0))
    k = 0.05 * h**3
    steps = round(0.1 / k)
    k = 0.1 / steps
    for _ in range(steps):
        st = naive_kdv_step(st, k, h)[0]
    err = np.max(np.abs(st.u - exact_kdv_double_soliton(st.t, x, 1.0, 0.0, 0.0, 0.0)))
    assert err <= 5e-3  # second order in h at t = 0.1


# ---------------------------------------------------------------------------
# Burgers finite volume
# ---------------------------------------------------------------------------

def _parts(x0, u0, x1, k, nu, phi_override=None):
    """_burgers_parts of the state (x0, u0) advanced onto x1."""
    return _burgers_parts(GridState(0.0, x0, u0), x1, np.diff(x1), k, nu, phi_override)


def _limiter_phi(x0, u0, x1, k):
    """Limiter weight Phi(theta_i) on the interior nodes, recovered from the
    scheme's blended volume coefficient and its pure low/high-order values."""
    coef = _parts(x0, u0, x1, k, 0.0)[0]
    lo = _parts(x0, u0, x1, k, 0.0, phi_override=0.0)[0]
    hi = _parts(x0, u0, x1, k, 0.0, phi_override=1.0)[0]
    return (lo - coef) / (lo - hi)


def _window_phi(window, upwind_sign):
    """Phi at node i of the window (u_{i-2}, u_{i-1}, u_i, u_{i+1}) on a unit
    mesh.  Translating the mesh by -10 k (+10 k) makes the mesh-relative
    speed u - sigma/k positive (negative) for |u| < 10, which selects the
    upwind side theta_i = Delta u_{i-2} / Delta u_{i-1} (Delta u_i / Delta u_{i-1})."""
    x0 = np.arange(4.0)
    k = 0.1
    return _limiter_phi(x0, np.array(window, dtype=float),
                        x0 - upwind_sign * 10.0 * k, k)[1]


def test_minmod_values():
    # Phi = max(0, min(1, theta)) for theta = 0.5, 2, -1
    assert _window_phi((0.0, 0.5, 1.5, 2.0), +1) == pytest.approx(0.5, abs=1e-12)
    assert _window_phi((0.0, 2.0, 3.0, 4.0), +1) == pytest.approx(1.0, abs=1e-12)
    assert _window_phi((0.0, -1.0, 0.0, 1.0), +1) == pytest.approx(0.0, abs=1e-12)


def test_limiter_theta_conventions():
    # upwind side: theta = 0.5 from the left, 0.3 from the right
    assert _window_phi((0.0, 0.5, 1.5, 1.8), +1) == pytest.approx(0.5, abs=1e-12)
    assert _window_phi((0.0, 0.5, 1.5, 1.8), -1) == pytest.approx(0.3, abs=1e-12)
    # a vanishing denominator saturates to sign(numerator) * 1e15 ...
    assert _window_phi((0.0, 1.0, 1.0, 1.0), +1) == pytest.approx(1.0, abs=1e-12)
    assert _window_phi((2.0, 1.0, 1.0, 1.0), +1) == pytest.approx(0.0, abs=1e-12)
    assert _window_phi((2.0, 1.0, 1.0, 3.0), -1) == pytest.approx(1.0, abs=1e-12)
    assert _window_phi((0.0, 1.0, 1.0, 0.0), -1) == pytest.approx(0.0, abs=1e-12)
    # ... unless both differences vanish: the smooth-region value theta = 1
    assert _window_phi((1.0, 1.0, 1.0, 5.0), +1) == pytest.approx(1.0, abs=1e-12)
    assert _window_phi((5.0, 1.0, 1.0, 1.0), -1) == pytest.approx(1.0, abs=1e-12)


def test_limiter_group_invariance():
    rng = DeterministicRng(87)
    k = 0.1
    x0 = np.arange(4.0)
    inside = 0
    for _ in range(100):
        u0 = np.array(rand_admissible_window(rng))
        x1 = x0 - rng.choice_sign() * 10.0 * k
        g = rand_burgers_element(rng)
        t0, gx0, gu0 = apply_burgers(g, (0.0, x0, u0))
        t1, gx1, _ = apply_burgers(g, (k, x1, u0))
        phi = _limiter_phi(x0, u0, x1, k)
        gphi = _limiter_phi(gx0, gu0, gx1, t1 - t0)
        assert np.max(np.abs(gphi - phi)) <= 1e-10
        inside += int(np.sum((phi > 0.01) & (phi < 0.99)))
    assert inside >= 20  # theta itself is compared, not only its clipped ends


def _burgers_parts_reference(x0, u0, x1, k, nu, phi_override):
    """Per-node loop over the scheme formulas: (coef, const, dsf) on 1..N-2.

    Slopes Du_m and differences Delta u_m beyond the mesh take their
    boundary values; each blended quantity is (1 - Phi) low + Phi high.
    """
    n = len(u0)
    h0 = [x0[m + 1] - x0[m] for m in range(n - 1)]
    h1 = [x1[m + 1] - x1[m] for m in range(n - 1)]
    sig = [x1[m] - x0[m] for m in range(n)]

    def delta_u(m):
        m = min(max(m, 0), n - 2)
        return u0[m + 1] - u0[m]

    def slope(m):
        m = min(max(m, 0), n - 2)
        return (u0[m + 1] - u0[m]) / h0[m]

    def flux_difference(left, right, viscous):
        return (0.5 * (u0[right] ** 2 - u0[left] ** 2) - nu * viscous
                - (sig[right] * u0[right] - sig[left] * u0[left]) / k)

    out = []
    for i in range(1, n - 1):
        # the high-order cell [x_{i-1}, x_{i+1}] is two cells wide, and so is
        # its viscous flux difference
        hi = (h1[i] + h1[i - 1], -(h0[i] + h0[i - 1]) * u0[i],
              flux_difference(i - 1, i + 1, 2.0 * (slope(i) - slope(i - 1))))
        upwind_left = u0[i] - sig[i] / k >= 0.0
        if upwind_left:
            lo = (h1[i - 1], -h0[i - 1] * u0[i],
                  flux_difference(i - 1, i, slope(i - 1) - slope(i - 2)))
            num = delta_u(i - 2)
        else:
            lo = (h1[i], -h0[i] * u0[i],
                  flux_difference(i, i + 1, slope(i + 1) - slope(i)))
            num = delta_u(i)
        den = delta_u(i - 1)
        # den = u_i - u_{i-1} vanishes within 1e-14 of the mean size of its
        # terms, and num counts as vanishing on the same scale
        tiny = 5e-15 * (abs(u0[i]) + abs(u0[i - 1]))
        if phi_override is not None:
            phi = phi_override
        else:
            if abs(den) > tiny:
                theta = num / den
            elif abs(num) > tiny:
                theta = math.copysign(1e15, num)
            else:
                theta = 1.0
            phi = max(0.0, min(1.0, theta))
        out.append([((1.0 - phi) * l + phi * h, abs(l) + abs(h)) for l, h in zip(lo, hi)])
    return out


_u_values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 0.0, 1.0]))

# drawn u values include subnormals: a subnormal Delta u_{i-1} beside normal
# values does not vanish, and the limiter's ratio (and the reference's) overflows
# to +-inf, which the clip takes to 1 or 0; a run silences numpy's warnings
_SUBNORMAL_RATIO = pytest.mark.filterwarnings(
    "ignore:overflow encountered in (scalar )?divide:RuntimeWarning")


@_SUBNORMAL_RATIO
@settings(max_examples=50)
@given(
    data=st.data(),
    n=st.integers(4, 12),
    k=st.floats(0.05, 1.0),
    nu=st.floats(0.0, 0.5),
    phi_override=st.sampled_from([None, 0.0, 1.0]),
)
def test_burgers_parts_matches_per_node_reference(data, n, k, nu, phi_override):
    spacing = st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1)
    x0 = np.concatenate([[0.0], np.cumsum(data.draw(spacing))])
    x1 = data.draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(data.draw(spacing))])
    u0 = np.array(data.draw(st.lists(_u_values, min_size=n, max_size=n)))
    _assert_burgers_parts_match(x0, u0, x1, k, nu, phi_override)


def _assert_burgers_parts_match(x0, u0, x1, k, nu, phi_override):
    parts = _parts(x0, u0, x1, k, nu, phi_override)
    ref = _burgers_parts_reference(x0, u0, x1, k, nu, phi_override)
    for name, got, col in zip(("coef", "const", "dsf"), parts, range(3)):
        assert got.shape == (len(x0) - 2,)
        for i, value in enumerate(got):
            want, scale = ref[i][col]
            # a scale below the normal range would put the bound under one
            # subnormal ulp, which no rounding can meet
            bound = 1e-12 * max(scale, np.finfo(float).tiny)
            assert abs(value - want) <= bound, (name, i + 1, value, want)


def test_burgers_parts_with_a_subnormal_value():
    # const at node 4 differs from the reference by one subnormal ulp (5e-324)
    x0 = np.concatenate([[0.0], np.cumsum([1.0, 1.0, 1.0, 1.0, 0.5] + [1.0] * 6)])
    x1 = np.arange(12.0)
    u0 = np.array([0.0, 0.0, 1.5, 1.0, 2.2250738585e-313] + [0.0] * 7)
    _assert_burgers_parts_match(x0, u0, x1, 1.0, 0.0, None)


@_SUBNORMAL_RATIO
@settings(max_examples=60)
@given(data=st.data(), n=st.integers(4, 12), rows=st.sampled_from([None, 1, 4]),
       phi_override=st.sampled_from([None, 0.0, 1.0]))
def test_burgers_volume_coefficient_is_at_least_the_smaller_new_spacing(
        data, n, rows, phi_override):
    # the coefficient lo - phi (lo - hi) blends one new spacing lo with the
    # sum hi of two by phi in [0, 1], so it is positive wherever the mesh
    # update has found the new spacings positive
    x0, x1 = _mesh(data.draw, n, rows), _mesh(data.draw, n, rows)
    u0 = _values(data.draw, n, rows, _FLAT_U)
    k = _per_row(data.draw, st.floats(1e-3, 1.0), rows)
    nu = _per_row(data.draw, st.floats(0.0, 0.5), rows)
    coef = _parts(x0, u0, x1, k, nu, phi_override)[0]
    h1 = np.diff(x1)
    assert (coef >= np.minimum(h1[..., :-1], h1[..., 1:])).all()


def test_burgers_constant_state_fixed_point():
    x = np.linspace(0, 1, 12)
    for c in (0.8, -0.8):
        prev = GridState(0.0, x, np.full(12, c))
        for nu in (0.0, 0.3):
            nxt = burgers_fv_step_detailed(prev, 0.01, nu, MonitorParams(0.7))[0]
            assert np.max(np.abs(nxt.u - c)) <= 1e-12


def test_burgers_residual_group_invariance():
    rng = DeterministicRng(88)
    count = 0
    while count < 100:
        n = 8
        k = rng.uniform(0.1, 0.5)
        nu = rng.uniform(0.0, 0.5)
        prev = GridState(0.0, rand_mesh_row(rng, n),
                         np.array([rng.uniform(-2, 2) for _ in range(n)]))
        nxt = GridState(k, rand_mesh_row(rng, n),
                        np.array([rng.uniform(-2, 2) for _ in range(n)]))
        speed = prev.u[1:-1] - (nxt.x - prev.x)[1:-1] / k
        if np.min(np.abs(speed)) < 1e-3 or np.min(np.abs(np.diff(prev.u))) < 1e-6:
            continue
        base = burgers_fv_residual(prev, nxt, k, nu)
        g = rand_burgers_element(rng)

        def tr(st):
            pts = [apply_burgers(g, (st.t, float(a), float(b)))
                   for a, b in zip(st.x, st.u)]
            return GridState(pts[0][0], np.array([p[1] for p in pts]),
                             np.array([p[2] for p in pts]))

        gp, gn = tr(prev), tr(nxt)
        img = burgers_fv_residual(gp, gn, gn.t - gp.t, nu)
        assert rel_err(base, img) <= 1e-9
        count += 1


# u levels for hypothesis states: exact repeats give flat stretches
# (Delta u = 0) and the last two differ by one ulp, both of which saturate
# the limiter's ratio
_FLAT_U = [-1.0, 0.0, 1.0, 0.5, 0.5 + 2.0**-52]


def _per_row(draw, strategy, rows):
    """A float, or for a batch a (rows, 1) column of per-row values."""
    if rows is None:
        return draw(strategy)
    return np.array([[draw(strategy)] for _ in range(rows)])


def _burgers_step_reference(prev, k, nu, alpha, drift):
    """monitor_arclength, equidistribute and the diagonal solve of the
    _burgers_parts terms, each forming its own spacings and differences;
    also the weights the mesh equidistributes."""
    a, b = (prev.x[..., ::prev.n - 1] + k * drift).T
    weights = monitor_arclength(prev, k, MonitorParams(alpha))
    upd = equidistribute(weights, (a, b))
    coef, const, dsf = _parts(prev.x, prev.u, upd.x_next, k, nu)
    u1 = prev.u.copy()
    u1[..., 1:-1] = -(const + k * dsf) / coef
    return upd.x_next, u1, upd.min_spacing, weights


@_SUBNORMAL_RATIO
@settings(max_examples=80)
@given(data=st.data(), n=st.integers(5, 12), rows=st.sampled_from([None, 1, 4]))
def test_burgers_step_equals_public_composition(data, n, rows):
    prev = GridState(0.0, _mesh(data.draw, n, rows), _values(data.draw, n, rows, _FLAT_U))
    k = _per_row(data.draw, st.floats(1e-3, 0.5), rows)
    nu = _per_row(data.draw, st.floats(0.0, 0.5), rows)
    alpha = _per_row(data.draw, st.floats(0.0, 2.0), rows)
    drift = _per_row(data.draw, st.floats(-1.0, 1.0), rows)
    try:
        want = _burgers_step_reference(prev, k, nu, alpha, drift)
    except SymfdError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            burgers_fv_step_detailed(prev, k, nu, MonitorParams(alpha), drift=drift)
        return
    nxt, info = burgers_fv_step_detailed(prev, k, nu, MonitorParams(alpha), drift=drift)
    x1, u1, min_spacing, weights = want
    assert nxt.x.tobytes() == x1.tobytes()
    assert nxt.u.tobytes() == u1.tobytes()
    # a diagonal solve: no residual is reported
    assert (info.residual_inf, info.min_spacing) == (0.0, min_spacing)
    assert equidistribution_residual(weights, nxt.x) <= 1e-14


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(5, 10))
def test_burgers_step_and_residual_strong_invariance(data, n):
    # exact repeats stay exact under the group; other differences keep a
    # margin from the limiter's relative vanishing threshold (1e-14 of the
    # size of u, which a boost changes) and the upwind selector from its
    # sign change, so that both frames take the same branches
    k = data.draw(st.floats(0.1, 0.5))
    nu = data.draw(st.floats(0.0, 0.5))
    alpha = data.draw(st.floats(0.0, 2.0))
    prev = GridState(0.0, _mesh(data.draw, n, None), _values(data.draw, n, None, [-1.0, 0.0, 1.0]))
    nxt = GridState(k, _mesh(data.draw, n, None), _values(data.draw, n, None, [-1.0, 0.0, 1.0]))
    du = np.abs(np.diff(prev.u))
    assume(((du == 0.0) | (du >= 1e-6)).all())
    stepped = burgers_fv_step_detailed(prev, k, nu, MonitorParams(alpha))[0]
    for x1 in (nxt.x, stepped.x):
        assume(np.min(np.abs(prev.u[1:-1] - (x1 - prev.x)[1:-1] / k)) >= 1e-3)
    g = BurgersGroupElement(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0)),
                            data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-0.7, 0.7)))

    def image(state):
        pts = [apply_burgers(g, (state.t, float(a), float(b))) for a, b in zip(state.x, state.u)]
        return GridState(pts[0][0], np.array([p[1] for p in pts]), np.array([p[2] for p in pts]))

    gp, gn, gs = image(prev), image(nxt), image(stepped)
    assert rel_err(burgers_fv_residual(prev, nxt, k, nu),
                   burgers_fv_residual(gp, gn, gn.t - gp.t, nu)) <= 1e-9
    s = math.exp(g.eps4)
    gstepped = burgers_fv_step_detailed(gp, s**2 * k, nu, MonitorParams(alpha),
                                        drift=g.eps3 / s)[0]
    assert rel_err(gs.x, gstepped.x) <= 1e-9
    assert rel_err(gs.u, gstepped.u) <= 1e-9


def test_burgers_step_solves_residual():
    x = np.linspace(-1, 1, 24)
    u = np.tanh(-3.0 * x)
    prev = GridState(0.0, x, u)
    nxt, info = burgers_fv_step_detailed(prev, 0.002, 0.05, MonitorParams(0.5))
    assert (info.residual_inf, info.newton_iters) == (0.0, 0)
    r = burgers_fv_residual(prev, nxt, 0.002, 0.05)
    assert np.max(np.abs(r)) <= 1e-12


def test_burgers_low_order_mass_balance():
    # nu = 0, positive data, uniform static mesh, limiter pinned low order:
    # the interior mass changes only by the boundary flux difference
    n = 24
    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]
    u = 1.0 + 0.5 * np.sin(2.0 * np.pi * x) ** 2
    k = 0.001
    coef, const, dsf = _parts(x, u, x, k, 0.0, phi_override=0.0)
    u1 = -(const + k * dsf) / coef  # the step's diagonal solve
    dm = h * float(np.sum(u1 - u[1:-1]))
    f = 0.5 * u**2  # sigma = 0 and nu = 0 leave only the advective flux
    assert abs(dm + k * (f[-2] - f[0])) <= 1e-10


def _burgers_consistency_error(n, nu, a, phase, v, psi, t0):
    """Largest |residual| / (k volume) on the exact viscous shock.

    The two levels t0 and t0 + k (k = 0.4 h^2, h = 1/n) sit on a smooth
    random mesh of [-0.5, 0.5], moved by k times a smooth random velocity;
    the volume is the high-order cell x1_{i+1} - x1_{i-1}.  Nodes 1 and
    N-2 are left out: their constant-extrapolated ghost slopes make them
    first order.
    """
    s = np.linspace(-0.5, 0.5, n + 1)
    k = 0.4 / n**2
    x0 = s + a * np.sin(2.0 * np.pi * s + phase) / (2.0 * np.pi)
    x1 = x0 + k * v * np.cos(2.0 * np.pi * x0 + psi)
    prev = GridState(t0, x0, exact_burgers(t0, x0, nu))
    nxt = GridState(t0 + k, x1, exact_burgers(t0 + k, x1, nu))
    r = burgers_fv_residual(prev, nxt, k, nu)
    return float(np.max(np.abs(r / (k * (x1[2:] - x1[:-2])))[1:-1]))


@settings(max_examples=25)
@given(a=st.floats(-0.5, 0.5), phase=st.floats(0.0, 2.0 * math.pi),
       v=st.floats(-2.0, 2.0), psi=st.floats(0.0, 2.0 * math.pi), t0=st.floats(0.0, 1.0))
def test_burgers_residual_is_second_order_consistent(a, phase, v, psi, t0):
    # the exact solution leaves a residual per unit volume and time that
    # falls at the scheme's second order, on moved nonuniform meshes
    coarse, fine = (_burgers_consistency_error(n, 0.05, a, phase, v, psi, t0)
                    for n in (256, 512))
    assert math.log2(coarse / fine) >= 1.8, (coarse, fine)


def test_burgers_shock_total_variation_bound():
    from symfd.runner import exact_burgers, total_variation

    n = 64
    x = np.linspace(-0.5, 0.5, n)
    h = x[1] - x[0]
    nu = 0.001
    st = GridState(0.0, x, np.asarray(exact_burgers(0.0, x, nu, 0.25)))
    tv0 = total_variation(st.du)
    k = 0.4 * h * h
    for _ in range(400):
        st = burgers_fv_step_detailed(st, k, nu, MonitorParams(0.5))[0]
        assert total_variation(st.du) <= tv0 + 1e-8


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta baseline
# ---------------------------------------------------------------------------

def test_rk_exponential():
    tr = rk_adaptive_solve(lambda x, y: y, [1.0], (0.0, 1.0), 1e-10)
    assert not tr.diverged
    assert abs(tr.final()[1][0] - math.e) <= 1e-9


def test_rk_riccati():
    tr = rk_adaptive_solve(lambda x, y: -y**2, [1.0], (0.0, 1.0), 1e-10)
    assert abs(tr.final()[1][0] - 0.5) <= 1e-9


def test_rk_schwarzian_divergence_near_pole():
    from symfd.runner import schwarzian_rhs

    f = schwarzian_rhs(lambda x: 2.0)
    tr = rk_adaptive_solve(f, [0.0, 1.0, 0.0], (0.0, 2.5), 1e-12)
    assert tr.diverged
    assert tr.final()[0] < 1.6
    assert abs(tr.final()[0] - math.pi / 2.0) < 0.05


def _rk_adaptive_reference(f, y0, x_span, rel_tol):
    """The RKF 4(5) stepper on numpy arrays: the vector form of rk_adaptive_solve."""
    c_, b4, e_ = np.array(_RKF_C), np.array(_RKF_B4), np.array(_RKF_ERR)
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
                k_s = np.atleast_1d(np.asarray(f(x + c_[s] * h, ya), dtype=float))
            if not np.all(np.isfinite(k_s)):
                bad = True
                break
            ks.append(k_s)
        if not bad:
            err_vec = h * sum(e * k for e, k in zip(e_, ks))
            y_new = y + h * sum(b * k for b, k in zip(b4, ks)) + err_vec
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
    return np.array(xs), np.array(ys), rejections, diverged


def _quadratic_system(a, q, b, cutoff):
    """y' = A y + q y^2 + (1 + x/10) b, non-finite wherever some |y_i| > cutoff."""
    a, q, b = np.array(a), np.array(q), np.array(b)

    def f(x, y):
        if cutoff is not None and np.max(np.abs(y)) > cutoff:
            return np.full_like(y, np.nan)
        return a @ y + q * y * y + b * (1.0 + 0.1 * x)

    return f


@st.composite
def _rk_problems(draw):
    n = draw(st.integers(1, 4))
    vec = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    a = draw(st.lists(vec, min_size=n, max_size=n))
    q, b, y0 = draw(vec), draw(vec), draw(vec)
    x0 = draw(st.floats(-1.0, 1.0))
    x1 = x0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 3.0))
    rel_tol = draw(st.sampled_from([1e-3, 1e-6, 1e-10]))
    cutoff = draw(st.sampled_from([None, 1.5, 4.0]))
    return _quadratic_system(a, q, b, cutoff), y0, (x0, x1), rel_tol


# y' = y to x = 1, whose large steps send a stage past the cutoff 2.75 > e
# (without the cutoff no step is rejected), and y1' = y1^2, which blows up
# at x = 1
_RK_NONFINITE = (_quadratic_system([[1.0]], [0.0], [0.0], 2.75), [1.0], (0.0, 1.0), 1e-3)
_RK_BLOWUP = (_quadratic_system([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0], [0.0, 0.0], None),
              [1.0, 0.0], (0.0, 2.0), 1e-8)


def _assert_rk_matches_reference(f, y0, x_span, rel_tol):
    tr = rk_adaptive_solve(f, y0, x_span, rel_tol)
    xs, ys, rejections, diverged = _rk_adaptive_reference(f, y0, x_span, rel_tol)
    assert _same_bits(tr.xs, xs) and _same_bits(tr.ys, ys)
    assert (tr.rejections, tr.diverged) == (rejections, diverged)
    return tr


def test_rk_rejects_a_nonfinite_stage_and_stops_on_blowup_like_reference():
    assert _assert_rk_matches_reference(*_RK_NONFINITE).rejections > 0
    _, y0, x_span, rel_tol = _RK_NONFINITE
    assert rk_adaptive_solve(_quadratic_system([[1.0]], [0.0], [0.0], None),
                             y0, x_span, rel_tol).rejections == 0
    tr = _assert_rk_matches_reference(*_RK_BLOWUP)
    assert tr.diverged and tr.final()[0] < 2.0


@settings(max_examples=60)
@given(problem=_rk_problems())
def test_rk_adaptive_solve_equals_vector_reference(problem):
    _assert_rk_matches_reference(*problem)


# ---------------------------------------------------------------------------
# batches: each row of a stacked call is the call on that row alone
# ---------------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _column(rng, lo, hi, rows):
    return np.array([[rng.uniform(lo, hi)] for _ in range(rows)])


def _batch(rng, rows, n, u_scale):
    x = np.array([rand_mesh_row(rng, n) for _ in range(rows)])
    u = np.array([[rng.uniform(-u_scale, u_scale) for _ in range(n)] for _ in range(rows)])
    return GridState(_column(rng, -1.0, 1.0, rows), x, u)


def _assert_rows_are_single_steps(step, prev, per_row, shared):
    """step(batch) against step(row i) with row i of every (B, 1) column;
    returns the batch's next state."""
    nxt, info = step(prev, **per_row, **shared)
    singles = [step(GridState(float(prev.t[i, 0]), prev.x[i], prev.u[i]),
                    **{key: float(v[i, 0]) for key, v in per_row.items()}, **shared)
               for i in range(prev.x.shape[0])]
    for i, (one, one_info) in enumerate(singles):
        assert _same_bits(nxt.x[i], one.x) and _same_bits(nxt.u[i], one.u), i
        assert _same_bits(nxt.t[i, 0], one.t), i
    assert info.residual_inf == max(s[1].residual_inf for s in singles)
    assert info.min_spacing == min(s[1].min_spacing for s in singles)
    assert info.newton_iters == singles[0][1].newton_iters
    return nxt


@pytest.mark.parametrize("scheme", ["6pt", "10pt"])
@pytest.mark.parametrize("strategy", ["lagrangian", "adaptive"])
def test_kdv_step_batch_rows_equal_single_steps(scheme, strategy):
    from symfd.mesh import MonitorParams

    rng = DeterministicRng(2024)
    rows = 7
    prev = _batch(rng, rows, 11, 1.0)
    # |k du| <= 0.02 * 2 stays below the smallest spacing 0.1: no tangling
    per_row = {"k": _column(rng, 0.005, 0.02, rows)}
    shared = {"mesh_strategy": strategy, "scheme": scheme}
    if strategy == "adaptive":
        per_row["alpha"] = _column(rng, 0.0, 10.0, rows)

        def step(p, k, alpha, **kw):
            return kdv_step_detailed(p, k, monitor=MonitorParams(alpha), **kw)
    else:
        step = kdv_step_detailed
    nxt = _assert_rows_are_single_steps(step, prev, per_row, shared)
    if strategy == "adaptive":
        weights = monitor_arclength(prev, per_row["k"], MonitorParams(per_row["alpha"]))
        assert equidistribution_residual(weights, nxt.x) <= 1e-14


def test_burgers_step_batch_rows_equal_single_steps():
    rng = DeterministicRng(2025)
    rows = 7
    prev = _batch(rng, rows, 10, 2.0)
    per_row = {"k": _column(rng, 0.05, 0.5, rows), "nu": _column(rng, 0.0, 0.5, rows),
               "alpha": _column(rng, 0.0, 2.0, rows), "drift": _column(rng, -1.0, 1.0, rows)}

    def step(p, k, nu, alpha, drift):
        return burgers_fv_step_detailed(p, k, nu, MonitorParams(alpha), drift=drift)

    nxt = _assert_rows_are_single_steps(step, prev, per_row, {})
    weights = monitor_arclength(prev, per_row["k"], MonitorParams(per_row["alpha"]))
    assert equidistribution_residual(weights, nxt.x) <= 1e-14


def test_kdv_step_batch_rejects_projection():
    rng = DeterministicRng(3)
    with pytest.raises(ValueError, match="single state"):
        kdv_step_detailed(_batch(rng, 2, 9, 1.0), 0.01, "projection", "10pt")


def test_grid_state_batch_checks_every_row():
    x = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0]])
    with pytest.raises(ValueError, match="increasing"):
        GridState(np.zeros((2, 1)), x, np.zeros_like(x))
    ok = GridState(np.zeros((2, 1)), np.sort(x, axis=-1), np.zeros_like(x))
    assert ok.n == 4


def _pentadiagonal_map(diags, rhs):
    """v -> A v - rhs, A pentadiagonal with diagonals diags[..., q + 2, :] (row
    index), evaluated elementwise so that every row of a batch is independent."""
    def res(v):
        out = diags[..., 2, :] * v - rhs
        for q in (1, 2):
            out[..., q:] += diags[..., 2 - q, q:] * v[..., :-q]
            out[..., :-q] += diags[..., 2 + q, :-q] * v[..., q:]
        return out
    return res


def test_solve_affine_banded_batch_rows_equal_single_solves():
    rng = np.random.default_rng(17)
    rows, m = 6, 13
    diags = rng.uniform(-1.0, 1.0, (rows, 5, m))
    diags[:, 2] += 4.0
    diags[2, 2, 0] = 0.0  # a zero first pivot: row interchanges within block 2
    rhs = rng.uniform(-1.0, 1.0, (rows, m))
    v0 = rng.uniform(-1.0, 1.0, (rows, m))
    batch = _solve_affine_banded(_pentadiagonal_map(diags, rhs), v0)
    for i in range(rows):
        one = _solve_affine_banded(_pentadiagonal_map(diags[i], rhs[i]), v0[i])
        assert _same_bits(batch[i], one), i
    assert np.max(np.abs(_pentadiagonal_map(diags, rhs)(batch))) <= 1e-12


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (9,), (63,), (20, 5), (3, 13), (4, 1)])
def test_band_layout_fills_the_band_of_the_index_expression(shape):
    # oracle: the band as the solver assembled it before the layout was cached
    m = shape[-1]
    dr = np.random.default_rng(m).uniform(-1.0, 1.0, (5,) + shape)
    rows = np.arange(m)
    cols = rows + (np.arange(5)[:, None] - rows + 2) % 5 - 2
    ok = (cols >= 0) & (cols < m)
    want = np.zeros((7, dr[0].size))
    want.reshape(7, -1, m)[(4 + rows - cols)[ok], :, cols[ok]] = \
        np.moveaxis(dr.reshape(5, -1, m), 1, -1)[ok]
    dst, src = _band_layout(dr[0].size // m, m)
    got = np.zeros(want.size)
    got[dst] = dr.take(src)
    assert np.array_equal(got.reshape(want.shape), want)
    assert not (dst.flags.writeable or src.flags.writeable)
    assert _band_layout(dr[0].size // m, m)[0] is dst


def test_solve_affine_banded_batch_with_a_singular_block_is_singular():
    rng = np.random.default_rng(18)
    rows, m = 4, 9
    diags = rng.uniform(-1.0, 1.0, (rows, 5, m))
    diags[:, 2] += 4.0
    diags[1] = 0.0
    rhs = rng.uniform(-1.0, 1.0, (rows, m))
    v0 = np.zeros((rows, m))
    with pytest.raises(SchemeSingularity, match="LAPACK info"):
        _solve_affine_banded(_pentadiagonal_map(diags, rhs), v0)
    for i in (0, 2, 3):  # the other blocks solve on their own
        _solve_affine_banded(_pentadiagonal_map(diags[i], rhs[i]), v0[i])


# ---------------------------------------------------------------------------
# carried differences and the one mesh path
# ---------------------------------------------------------------------------

def _state(rng, rows, n=11):
    """A random state of n nodes, or a batch of rows of them."""
    if rows is not None:
        return _batch(rng, rows, n, 1.0)
    return GridState(0.0, rand_mesh_row(rng, n), np.array([rng.uniform(-1.0, 1.0)
                                                           for _ in range(n)]))


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("equation", ["burgers", "kdv"])
def test_burgers_and_adaptive_kdv_steps_take_one_mesh_path(monkeypatch, equation, rows):
    counts = collections.Counter()
    for name in ("monitor_arclength", "equidistribute"):
        def counted(*args, _fn=getattr(schemes, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(schemes, name, counted)
    prev = _state(DeterministicRng(31), rows)
    if equation == "burgers":
        burgers_fv_step_detailed(prev, 0.05, 0.1, MonitorParams(1.0))
    else:
        kdv_step_detailed(prev, 0.01, "adaptive", "10pt", monitor=MonitorParams(1.0))
    assert counts == {"monitor_arclength": 1, "equidistribute": 1}


def _run_steps():
    """Every step a run takes, by the runner's table, as a builder of that step
    at k = 0.01, h = 0.5, alpha = 2 and nu = 0.1, and whether it takes (B, n)
    batches, named ``kdv_<scheme>_<mesh>``, ``kdv_naive`` (the same step on
    every mesh, listed once) and ``burgers``."""
    steps = {}
    for (equation, scheme, mesh), build in runner._STEPS.items():
        if build is None:  # the Schwarzian run marches in space
            continue
        values = {"equation": equation, "scheme": scheme, "domain_a": 0.0, "domain_b": 1.0,
                  "n_points": 8, "t_final": 1.0, "alpha": 2.0, "nu": 0.1}
        if mesh is not None:
            values["mesh"] = mesh
        name = {"burgers_fv": "burgers", "kdv_naive": scheme}.get(scheme, f"{scheme}_{mesh}")
        steps[name] = (functools.partial(build, runner.validate_config(values), 0.01, 0.5, 0.0),
                       mesh != "projection" and scheme != "kdv_naive")
    return steps


_STEPS = _run_steps()


def _carried(state):
    """The bytes of a state's arrays and of the differences it carries from its build."""
    return [a.tobytes() for a in (state.x, state.u, state.dx, state.du, state.slopes)]


@pytest.mark.parametrize("name, rows", [(name, rows) for name, (_step, batches) in _STEPS.items()
                                        for rows in ([None, 3] if batches else [None])])
def test_steps_carry_exact_differences_and_leave_their_input_alone(name, rows):
    step = _STEPS[name][0]()
    for seed in (5, 6, 7):
        prev = _state(DeterministicRng(seed), rows)
        before = _carried(prev)
        nxt = step(prev)[0]
        assert _same_bits(nxt.dx, np.diff(nxt.x)) and _same_bits(nxt.du, np.diff(nxt.u))
        assert _same_bits(nxt.slopes, np.diff(nxt.u) / np.diff(nxt.x))
        assert _same_bits(nxt.d3u, third_differences(nxt.x, nxt.u))
        assert _carried(prev) == before
        # with prev's third differences formed, a second step gives the same
        # state and leaves them as they were
        assert _same_bits(prev.d3u, third_differences(prev.x, prev.u))
        d3u = prev.d3u.tobytes()
        again = step(prev)[0]
        assert _same_bits(again.x, nxt.x) and _same_bits(again.u, nxt.u)
        assert _carried(prev) == before and prev.d3u.tobytes() == d3u


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(3, 10), rows=st.sampled_from([None, 1, 4]))
def test_checked_and_unchecked_states_carry_the_same_differences(data, n, rows):
    x = _mesh(data.draw, n, rows)
    u = _values(data.draw, n, rows, _FLAT_U)
    t = _per_row(data.draw, st.floats(-1.0, 1.0), rows)
    checked = GridState(t, x, u)
    unchecked = GridState._unchecked(t, x, u, np.diff(x))
    for name in ("dx", "du", "slopes", "d3u"):
        assert _same_bits(getattr(checked, name), getattr(unchecked, name)), name
    assert _same_bits(checked.d3u, third_differences(x, u))


@pytest.mark.parametrize("rows", [None, 3])
def test_ten_point_residual_on_formed_third_differences_matches_fresh_states(rows):
    # one previous level against several next levels: the differences it
    # formed for the first residual must not stand in for another level's
    rng = DeterministicRng(41)
    prev = _state(rng, rows)
    nexts = [_state(rng, rows) for _ in range(3)]
    k = 0.01
    first = [kdv_residual_10pt(prev, nxt, k) for nxt in nexts]
    for state in (prev, *nexts):
        assert _same_bits(state.d3u, third_differences(state.x, state.u))
    for nxt, res in zip(nexts, first):
        fresh = kdv_residual_10pt(GridState(prev.t, prev.x, prev.u),
                                  GridState(nxt.t, nxt.x, nxt.u), k)
        assert _same_bits(kdv_residual_10pt(prev, nxt, k), fresh) and _same_bits(res, fresh)
