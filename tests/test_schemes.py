"""Scheme residuals, steps, invariance, consistency, and baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfd.errors import MeshTangling, SchemeSingularity
from symfd.groups import apply_burgers, apply_kdv, apply_sl2
from symfd.runner import exact_kdv_double_soliton
from symfd.rng import DeterministicRng
from symfd.schemes import (
    GridState,
    SchwarzianState,
    _burgers_parts,
    _solve_affine_banded,
    burgers_fv_residual,
    burgers_fv_step,
    burgers_fv_step_detailed,
    kdv_invariant_normalizer,
    kdv_residual_10pt,
    kdv_residual_6pt,
    kdv_step,
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
    rand_admissible_window,
    rand_burgers_element,
    rand_kdv_element,
    rand_mesh_row,
    rand_sl2_safe,
    rel_err,
)


# ---------------------------------------------------------------------------
# Schwarzian recurrence
# ---------------------------------------------------------------------------

def test_schwarzian_step_continues_equal_spacing():
    s = SchwarzianState(1.0, 0.0, -1.0, 0.0, 1.0, lambda x: 0.0)
    assert schwarzian_step(s) == pytest.approx(2.0, abs=1e-12)


def test_schwarzian_step_tracks_tangent():
    h = 0.01
    n = 105
    x = np.arange(n) * h
    u = np.empty(n)
    u[:3] = np.tan(x[:3])
    for i in range(1, n - 2):
        st = SchwarzianState(h, float(x[i]), u[i - 1], u[i], u[i + 1], lambda _x: 2.0)
        u[i + 2] = schwarzian_step(st)
    rel = abs(u[100] - math.tan(1.0)) / abs(math.tan(1.0))
    assert rel < 1e-2


def test_schwarzian_step_mobius_commutation():
    rng = DeterministicRng(80)
    count = 0
    while count < 100:
        u = rand_admissible_window(rng)[:3]
        h = rng.uniform(0.05, 1.0)
        f = rng.uniform(-1.0, 1.0)
        s = SchwarzianState(h, 0.0, u[0], u[1], u[2], lambda _x, ff=f: ff)
        w = schwarzian_step(s)
        g = rand_sl2_safe(rng, list(u) + [w])
        gu = [apply_sl2(g, v) for v in u]
        gw = schwarzian_step(SchwarzianState(h, 0.0, gu[0], gu[1], gu[2],
                                             lambda _x, ff=f: ff))
        assert rel_err(apply_sl2(g, w), gw) <= 1e-9
        count += 1


def test_schwarzian_step_singular_target():
    s = SchwarzianState(1.0, 0.0, 0.0, 1.0, 2.0, lambda x: 2.0)  # h^2 F = 2
    with pytest.raises(SchemeSingularity):
        schwarzian_step(s)


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
    from symfd.invariants import cross_ratio, cross_ratio_conjugate
    f = (1.0 / (cross_ratio_conjugate(*u) - cross_ratio(*u)) - 2.0) / h**2
    assert schwarzian_invariantized_residual(*u, h, f) == pytest.approx(0.0, abs=1e-12)


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
        w = schwarzian_invariantized_step(
            SchwarzianState(h, 0.0, u[0], u[1], u[2], lambda _x, ff=f: ff))
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


# ---------------------------------------------------------------------------
# KdV residuals and steps
# ---------------------------------------------------------------------------

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
def test_kdv_residual_group_invariance(residual):
    rng = DeterministicRng(85)
    for _ in range(100):
        n = 9
        k = rng.uniform(0.1, 0.5)
        prev = GridState(0.0, rand_mesh_row(rng, n),
                         np.array([rng.uniform(-2, 2) for _ in range(n)]))
        nxt = GridState(k, rand_mesh_row(rng, n),
                        np.array([rng.uniform(-2, 2) for _ in range(n)]))
        base = residual(prev, nxt, k) * kdv_invariant_normalizer(prev, k)
        g = rand_kdv_element(rng)

        def tr(st):
            pts = [apply_kdv(g, (st.t, float(a), float(b)))
                   for a, b in zip(st.x, st.u)]
            return GridState(pts[0][0], np.array([p[1] for p in pts]),
                             np.array([p[2] for p in pts]))

        gp, gn = tr(prev), tr(nxt)
        img = residual(gp, gn, gn.t - gp.t) * kdv_invariant_normalizer(gp, gn.t - gp.t)
        assert rel_err(base, img) <= 1e-9


def test_kdv_step_constant_state_fixed_point():
    from symfd.mesh import MonitorParams

    x = np.linspace(0, 4, 9)
    c = -0.4
    prev = GridState(0.0, x, np.full(9, c))
    for scheme in ("6pt", "10pt"):
        for strategy in ("lagrangian", "adaptive", "projection"):
            nxt = kdv_step(prev, 0.1, strategy, scheme,
                           monitor=MonitorParams(10.0))
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
    assert info.residual_inf <= 1e-12
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
        kdv_step(GridState(0.0, x, u), 0.3, "lagrangian", "6pt")


def test_kdv_adaptive_step_equidistributes():
    from symfd.mesh import MonitorParams

    h = 0.25
    prev, _ = _soliton_pair(h, 0.01)
    nxt, info = kdv_step_detailed(prev, 0.01, "adaptive", "6pt",
                                  monitor=MonitorParams(10.0))
    assert info.equi_residual <= 1e-10
    assert nxt.x[0] == pytest.approx(prev.x[0])
    assert nxt.x[-1] == pytest.approx(prev.x[-1])


def test_naive_kdv_constant_state():
    x = np.linspace(0, 4, 9)
    prev = GridState(0.0, x, np.full(9, 1.3))
    nxt = naive_kdv_step(prev, 0.01, 0.5)
    assert np.max(np.abs(nxt.u - 1.3)) <= 1e-14


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
        st = naive_kdv_step(st, k, h)
    err = np.max(np.abs(st.u - exact_kdv_double_soliton(st.t, x, 1.0, 0.0, 0.0, 0.0)))
    assert err <= 5e-3  # second order in h at t = 0.1


# ---------------------------------------------------------------------------
# Burgers finite volume
# ---------------------------------------------------------------------------

def _limiter_phi(x0, u0, x1, k):
    """Limiter weight Phi(theta_i) on the interior nodes, recovered from the
    scheme's blended volume coefficient and its pure low/high-order values."""
    coef = _burgers_parts(x0, u0, x1, k, 0.0)[0]
    lo = _burgers_parts(x0, u0, x1, k, 0.0, phi_override=0.0)[0]
    hi = _burgers_parts(x0, u0, x1, k, 0.0, phi_override=1.0)[0]
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
        hi = (h1[i] + h1[i - 1], -(h0[i] + h0[i - 1]) * u0[i],
              flux_difference(i - 1, i + 1, slope(i) - slope(i - 1)))
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
        if phi_override is not None:
            phi = phi_override
        else:
            if abs(den) >= 1e-14:
                theta = num / den
            elif abs(num) >= 1e-14:
                theta = math.copysign(1e15, num)
            else:
                theta = 1.0
            phi = max(0.0, min(1.0, theta))
        out.append([((1.0 - phi) * l + phi * h, abs(l) + abs(h)) for l, h in zip(lo, hi)])
    return out


_u_values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 0.0, 1.0]))


@settings(max_examples=50, deadline=None)
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
    parts = _burgers_parts(x0, u0, x1, k, nu, phi_override)
    ref = _burgers_parts_reference(x0, u0, x1, k, nu, phi_override)
    for name, got, col in zip(("coef", "const", "dsf"), parts, range(3)):
        assert got.shape == (n - 2,)
        for i, value in enumerate(got):
            want, scale = ref[i][col]
            assert abs(value - want) <= 1e-12 * scale, (name, i + 1, value, want)


def test_burgers_constant_state_fixed_point():
    x = np.linspace(0, 1, 12)
    for c in (0.8, -0.8):
        prev = GridState(0.0, x, np.full(12, c))
        for nu in (0.0, 0.3):
            nxt = burgers_fv_step(prev, 0.01, nu, 0.7)
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


def test_burgers_step_solves_residual():
    x = np.linspace(-1, 1, 24)
    u = np.tanh(-3.0 * x)
    prev = GridState(0.0, x, u)
    nxt, info = burgers_fv_step_detailed(prev, 0.002, 0.05, 0.5)
    assert info.residual_inf <= 1e-10 * (1.0 + float(np.max(np.abs(nxt.u))))
    r = burgers_fv_residual(prev, nxt, 0.002, 0.05)
    assert np.max(np.abs(r)) <= 1e-12


def test_burgers_low_order_mass_balance():
    # nu = 0, positive data, uniform static mesh, limiter pinned low order:
    # the interior mass changes only by the boundary flux difference
    n = 24
    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]
    u = 1.0 + 0.5 * np.sin(2.0 * np.pi * x) ** 2
    prev = GridState(0.0, x, u)
    k = 0.001
    nxt, _ = burgers_fv_step_detailed(prev, k, 0.0, 0.0, phi_override=0.0)
    dm = h * float(np.sum(nxt.u[1:-1] - u[1:-1]))
    f = 0.5 * u**2  # sigma = 0 and nu = 0 leave only the advective flux
    assert abs(dm + k * (f[-2] - f[0])) <= 1e-10


def test_burgers_shock_total_variation_bound():
    from symfd.runner import exact_burgers, total_variation

    n = 64
    x = np.linspace(-0.5, 0.5, n)
    h = x[1] - x[0]
    nu = 0.001
    st = GridState(0.0, x, np.asarray(exact_burgers(0.0, x, nu, 0.25)))
    tv0 = total_variation(st.u)
    k = 0.4 * h * h
    for _ in range(400):
        st = burgers_fv_step(st, k, nu, 0.5)
        assert total_variation(st.u) <= tv0 + 1e-8


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
    """step(batch) against step(row i) with row i of every (B, 1) column."""
    nxt, info = step(prev, **per_row, **shared)
    singles = [step(GridState(float(prev.t[i, 0]), prev.x[i], prev.u[i]),
                    **{key: float(v[i, 0]) for key, v in per_row.items()}, **shared)
               for i in range(prev.x.shape[0])]
    for i, (one, one_info) in enumerate(singles):
        assert _same_bits(nxt.x[i], one.x) and _same_bits(nxt.u[i], one.u), i
        assert _same_bits(nxt.t[i, 0], one.t), i
    assert info.residual_inf == max(s[1].residual_inf for s in singles)
    assert info.min_spacing == min(s[1].min_spacing for s in singles)
    assert info.equi_residual == max(s[1].equi_residual for s in singles)
    assert info.newton_iters == singles[0][1].newton_iters


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
        per_row["drift"] = _column(rng, -1.0, 1.0, rows)
        per_row["alpha"] = _column(rng, 0.0, 10.0, rows)

        def step(p, k, drift, alpha, **kw):
            return kdv_step_detailed(p, k, monitor=MonitorParams(alpha), drift=drift, **kw)
    else:
        step = kdv_step_detailed
    _assert_rows_are_single_steps(step, prev, per_row, shared)


def test_burgers_step_batch_rows_equal_single_steps():
    rng = DeterministicRng(2025)
    rows = 7
    prev = _batch(rng, rows, 10, 2.0)
    per_row = {"k": _column(rng, 0.05, 0.5, rows), "nu": _column(rng, 0.0, 0.5, rows),
               "alpha": _column(rng, 0.0, 2.0, rows), "drift": _column(rng, -1.0, 1.0, rows)}

    def step(p, k, nu, alpha, drift):
        return burgers_fv_step_detailed(p, k, nu, alpha, drift=drift)

    _assert_rows_are_single_steps(step, prev, per_row, {})


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
