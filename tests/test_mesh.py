"""Mesh strategies, interpolation, and tangling diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfd.errors import MeshTangling, OutOfDomain, SingularSystem
from symfd.groups import apply_kdv
from symfd.mesh import (
    MonitorParams,
    detect_tangling,
    equidistribute,
    lagrangian_update,
    linear_interpolate,
    monitor_arclength,
    spline_project,
)
from symfd.rng import DeterministicRng
from symfd.schemes import GridState

from _helpers import rand_kdv_element


def _state(x, u, t=0.0):
    return GridState(t, np.asarray(x, float), np.asarray(u, float))


# ---------------------------------------------------------------------------
# Lagrangian drift
# ---------------------------------------------------------------------------

def test_lagrangian_rest_and_translation():
    x = np.linspace(0, 1, 6)
    upd = lagrangian_update(_state(x, np.zeros(6)), 0.3)
    assert np.allclose(upd.x_next, x)
    upd = lagrangian_update(_state(x, np.full(6, 2.0)), 0.3)
    assert np.allclose(upd.x_next, x + 0.6)


def test_lagrangian_tangling_for_large_step():
    x = np.linspace(0, 1, 6)
    u = np.array([0.0, 2.0, -2.0, 2.0, -2.0, 0.0])
    with pytest.raises(MeshTangling):
        lagrangian_update(_state(x, u), 0.5)


# ---------------------------------------------------------------------------
# monitor and equidistribution
# ---------------------------------------------------------------------------

def test_monitor_alpha_zero_is_unit():
    x = np.linspace(-1, 1, 9)
    d = monitor_arclength(_state(x, np.sin(x)), 0.1, MonitorParams(0.0))
    assert np.allclose(d, 1.0)


def test_monitor_monotone_in_slope():
    x = np.linspace(0, 1, 5)
    u_flat = np.zeros(5)
    u_steep = np.array([0.0, 0.0, 3.0, 3.0, 3.0])
    d0 = monitor_arclength(_state(x, u_flat), 0.2, MonitorParams(2.0))
    d1 = monitor_arclength(_state(x, u_steep), 0.2, MonitorParams(2.0))
    assert np.all(d1 >= d0)
    assert d1[1] > 1.0  # the steep cell carries the weight


def test_monitor_group_invariance():
    rng = DeterministicRng(70)
    x = np.cumsum(np.array([0.0, 0.4, 0.2, 0.5, 0.3, 0.6]))
    u = np.array([0.1, -0.5, 1.2, 0.4, -0.3, 0.8])
    k = 0.2
    st = _state(x, u, t=0.5)
    d0 = monitor_arclength(st, k, MonitorParams(3.0))
    for _ in range(50):
        g = rand_kdv_element(rng)
        pts = [apply_kdv(g, (st.t, float(a), float(b))) for a, b in zip(x, u)]
        gst = _state([p[1] for p in pts], [p[2] for p in pts], pts[0][0])
        d1 = monitor_arclength(gst, g.lam**3 * k, MonitorParams(3.0))
        assert np.max(np.abs(d1 - d0)) <= 1e-10


def test_equidistribute_uniform_for_unit_weights():
    upd = equidistribute(np.ones(11), (0.0, 2.0))
    assert np.allclose(upd.x_next, np.linspace(0, 2, 11), atol=1e-13)
    assert upd.equi_residual <= 1e-12


def test_equidistribute_two_region_oracle():
    # dense-solve oracle for the 1|9 split; interior spacings come out in
    # the 9:1 ratio away from the interface cell
    n = 20
    delta = np.array([1.0] * 10 + [9.0] * 10)
    upd = equidistribute(delta, (0.0, 1.0))
    w = 0.5 * (delta[1:] + delta[:-1])
    A = np.zeros((n, n))
    b = np.zeros(n)
    A[0, 0] = 1.0
    A[-1, -1] = 1.0
    b[-1] = 1.0
    for i in range(1, n - 1):
        A[i, i - 1] = w[i - 1]
        A[i, i] = -(w[i - 1] + w[i])
        A[i, i + 1] = w[i]
    x_oracle = np.linalg.solve(A, b)
    assert np.max(np.abs(upd.x_next - x_oracle)) <= 1e-12
    dx = np.diff(upd.x_next)
    assert dx[2] / dx[-3] == pytest.approx(9.0, rel=1e-10)


def test_equidistribute_assembled_residual():
    rng = DeterministicRng(71)
    delta = np.array([0.5 + rng.uniform(0.0, 3.0) for _ in range(17)])
    upd = equidistribute(delta, (-2.0, 5.0))
    assert upd.equi_residual <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_equidistribute_rejects_nonfinite_or_nonpositive_weights(bad):
    delta = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(SingularSystem):
        equidistribute(delta, (0.0, 1.0))


@settings(max_examples=50, deadline=None)
@given(
    delta=st.lists(st.floats(0.05, 20.0), min_size=3, max_size=40),
    a=st.floats(-5.0, 5.0),
    width=st.floats(0.5, 10.0),
)
def test_equidistribute_property_random_weights(delta, a, width):
    b = a + width
    upd = equidistribute(np.array(delta), (a, b))
    assert upd.x_next[0] == a and upd.x_next[-1] == b
    assert np.all(np.diff(upd.x_next) > 0.0)
    assert upd.equi_residual <= 1e-12


def test_equidistribute_idempotent_on_static_data():
    # fixed-point behavior in the regime the schemes run in: the k factor
    # inside the monitor keeps delta - 1 small, so re-solving on the output
    # mesh with unchanged u settles within a couple of sweeps (with an
    # order-one monitor variation the contraction is correspondingly slower)
    x = np.linspace(0, 1, 15)
    u = np.tanh(4.0 * (x - 0.5))
    xk = x.copy()
    changes = []
    for _ in range(4):
        d = monitor_arclength(_state(xk, u), 0.02, MonitorParams(0.5))
        x_new = equidistribute(d, (0.0, 1.0)).x_next
        changes.append(float(np.max(np.abs(x_new - xk))))
        xk = x_new
    assert changes[-1] <= 1e-9 * 1.0


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_linear_interpolate_nodes_and_midpoints():
    x = np.array([0.0, 1.0, 3.0])
    u = np.array([1.0, 3.0, -1.0])
    assert linear_interpolate(x, u, 1.0) == pytest.approx(3.0)
    assert linear_interpolate(x, u, 2.0) == pytest.approx(1.0)
    with pytest.raises(OutOfDomain):
        linear_interpolate(x, u, 3.5)


def test_linear_interpolate_equivariance():
    rng = DeterministicRng(72)
    x = np.cumsum(np.array([0.0, 0.7, 0.4, 0.9, 0.5]))
    u = np.array([0.3, -1.0, 0.8, 1.4, -0.2])
    t = 0.4
    for _ in range(50):
        g = rand_kdv_element(rng)
        xq = rng.uniform(float(x[0]), float(x[-1]))
        v = linear_interpolate(x, u, xq)
        pts = [apply_kdv(g, (t, float(a), float(b))) for a, b in zip(x, u)]
        gx = np.array([p[1] for p in pts])
        gu = np.array([p[2] for p in pts])
        _, gxq, gv = apply_kdv(g, (t, xq, v))
        assert abs(linear_interpolate(gx, gu, gxq) - gv) <= 1e-11 * (1.0 + abs(gv))


def test_spline_reproduces_cubics_midspan():
    x = np.linspace(0, 10, 61)
    y = x**3 - 2.0 * x**2 + 0.5
    xq = np.linspace(3.5, 6.5, 41)
    exact = xq**3 - 2.0 * xq**2 + 0.5
    assert np.max(np.abs(spline_project(x, y, xq) - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_spline_equivariance():
    rng = DeterministicRng(73)
    x = np.cumsum(np.array([0.0, 0.7, 0.4, 0.9, 0.5, 0.6, 0.8]))
    u = np.array([0.3, -1.0, 0.8, 1.4, -0.2, 0.5, 0.1])
    t = -0.3
    xq = np.linspace(float(x[0]), float(x[-1]), 23)
    v = spline_project(x, u, xq)
    for _ in range(50):
        g = rand_kdv_element(rng)
        pts = [apply_kdv(g, (t, float(a), float(b))) for a, b in zip(x, u)]
        gx = np.array([p[1] for p in pts])
        gu = np.array([p[2] for p in pts])
        img = np.array([apply_kdv(g, (t, float(a), float(b)))[2] for a, b in zip(xq, v)])
        gxq = np.array([apply_kdv(g, (t, float(a), 0.0))[1] for a in xq])
        got = spline_project(gx, gu, gxq)
        assert np.max(np.abs(got - img)) <= 1e-10 * (1.0 + np.max(np.abs(img)))


def test_spline_refinement_rate_on_soliton():
    # projecting smooth data from a drifted mesh back to uniform: quartic rate
    from symfd.runner import exact_kdv_double_soliton

    errs = []
    for n in (65, 129, 257):
        x = np.linspace(-10, 10, n)
        u = exact_kdv_double_soliton(0.0, x, 1.0, 0.0, 0.0, 0.0)
        drift = x + 0.3 * np.diff(x)[0] * np.exp(-x**2 / 20.0)
        src = exact_kdv_double_soliton(0.0, drift, 1.0, 0.0, 0.0, 0.0)
        xq = np.clip(x, drift[0], drift[-1])
        errs.append(float(np.max(np.abs(
            spline_project(drift, src, xq) - u))))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 3.0 <= rate1 <= 5.0
    assert 3.0 <= rate2 <= 5.0


def test_spline_out_of_domain_and_clamp():
    x = np.linspace(0, 1, 11)
    u = x.copy()
    got = spline_project(x, u, np.array([0.0 - 1e-13, 1.0]))
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(OutOfDomain):
        spline_project(x, u, np.array([1.1]))


# ---------------------------------------------------------------------------
# tangling diagnostics and projection safety
# ---------------------------------------------------------------------------

def test_spline_nan_data_gives_nonfinite_values():
    # the solve does not raise on NaN data: the runner's nonfinite guard
    # reports the projected state instead
    x = np.linspace(0.0, 1.0, 6)
    u = np.array([0.0, 1.0, np.nan, 1.0, 0.0, 1.0])
    out = spline_project(x, u, np.linspace(0.0, 1.0, 9))
    assert out.shape == (9,)
    assert not np.all(np.isfinite(out))


def test_detect_tangling():
    assert not detect_tangling(np.linspace(0, 1, 9), 1e-3).tangled
    d = detect_tangling(np.array([0.0, 0.5, 0.5 + 1e-9, 1.0]), 1e-3)
    assert d.tangled
    assert d.argmin == 1


def test_projection_step_preserves_uniform_grid():
    # evolution-projection composed step: uniform mesh maps to itself
    from symfd.runner import exact_kdv_double_soliton
    from symfd.schemes import kdv_step_detailed

    x = np.linspace(-30, 30, 64)
    st = GridState(0.0, x, exact_kdv_double_soliton(0.0, x))
    nxt, _info = kdv_step_detailed(st, 0.01, "projection", "6pt")
    assert np.array_equal(nxt.x, x)
    assert nxt.n == st.n


@pytest.mark.parametrize("n", [3, 4, 17])
def test_equidistribute_batch_rows_equal_single_solves(n):
    rng = DeterministicRng(40 + n)
    rows = 5
    delta = np.array([[rng.uniform(0.2, 5.0) for _ in range(n)] for _ in range(rows)])
    a = np.array([rng.uniform(-3.0, 0.0) for _ in range(rows)])
    b = a + np.array([rng.uniform(0.5, 6.0) for _ in range(rows)])
    upd = equidistribute(delta, (a, b))
    singles = [equidistribute(delta[i], (float(a[i]), float(b[i]))) for i in range(rows)]
    for i, one in enumerate(singles):
        assert upd.x_next[i].tobytes() == one.x_next.tobytes(), i
    assert upd.min_spacing == min(s.min_spacing for s in singles)
    assert upd.equi_residual == max(s.equi_residual for s in singles)


def test_equidistribute_batch_checks_every_row():
    delta = np.ones((3, 6))
    delta[1, 2] = np.nan
    with pytest.raises(SingularSystem):
        equidistribute(delta, (np.zeros(3), np.ones(3)))
    with pytest.raises(ValueError, match="finite"):
        equidistribute(np.ones((3, 6)), (np.zeros(3), np.array([1.0, np.inf, 1.0])))
    with pytest.raises(MeshTangling):
        equidistribute(np.ones((3, 6)), (np.zeros(3), np.array([1.0, 1.0, 1e-3])), floor=0.01)
