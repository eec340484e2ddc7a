"""Mesh strategies, interpolation, and the spacing checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfd.errors import MeshTangling, OutOfDomain, SingularSystem
from symfd.groups import apply_kdv
from symfd.mesh import (
    MonitorParams,
    equidistribute,
    lagrangian_update,
    monitor_arclength,
    spline_project,
)
from symfd.rng import DeterministicRng
from symfd.schemes import GridState

from _helpers import (
    POWER_OF_TWO_SCALES,
    equidistributed_exact,
    equidistribution_residual,
    rand_kdv_element,
    rand_mesh_row,
)


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


def test_spacing_below_floor_names_the_interval():
    x = np.linspace(0.0, 1.0, 6)
    u = np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0])
    with pytest.raises(MeshTangling, match=r"below floor 1\.000e-02 at index 2$"):
        lagrangian_update(_state(x, u), 0.099, floor=0.01)
    # in a batch the index is counted within the row
    with pytest.raises(MeshTangling, match=r"at index 2$"):
        lagrangian_update(_state(np.vstack([x, x]), np.vstack([0.0 * u, u])), 0.099, floor=0.01)


def test_nan_spacing_is_lost_ordering_and_names_the_interval():
    x = np.linspace(0.0, 1.0, 6)
    u = np.zeros(6)
    u[3] = np.nan
    with pytest.raises(MeshTangling, match=r"ordering lost at index 2$"):
        lagrangian_update(_state(x, u), 0.1)


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


def test_monitor_weights_read_the_state_slopes():
    # d_i = sqrt(1 + alpha (k slopes_i)^2) bit for bit, on (B, n) batches
    # with per-row k and alpha up to 1e6
    rng = DeterministicRng(72)
    for _ in range(200):
        b, n = 1 + int(4 * rng.random()), 3 + int(10 * rng.random())
        x = np.array([rand_mesh_row(rng, n) for _ in range(b)])
        st = _state(x, [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(b)])
        k = np.array([[rng.uniform(0.01, 1.0)] for _ in range(b)])
        alpha = np.array([[10.0 ** rng.uniform(-3.0, 6.0)] for _ in range(b)])
        d = monitor_arclength(st, k, MonitorParams(alpha))
        want = np.sqrt(1.0 + alpha * (k * st.slopes) ** 2)
        assert np.array_equal(d, np.concatenate([want, want[:, -1:]], axis=1))


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
    # the KdV (k -> lam^3 k, u -> u / lam^2) and Burgers (k -> lam^2 k,
    # u -> u / lam) scalings by 2^j give the same weights bit for bit
    for lam in POWER_OF_TWO_SCALES:
        for kk, uu in ((lam**3 * k, u / lam**2), (lam**2 * k, u / lam)):
            d1 = monitor_arclength(_state(lam * x, uu), kk, MonitorParams(3.0))
            assert np.array_equal(d1, d0), lam


def test_equidistribute_uniform_for_unit_weights():
    upd = equidistribute(np.ones(11), (0.0, 2.0))
    assert np.allclose(upd.x_next, np.linspace(0, 2, 11), atol=1e-13)
    assert equidistribution_residual(np.ones(11), upd.x_next) <= 1e-14


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
    # the documented normalized residual, entry by entry, and the oracle's
    w = 0.5 * (delta[1:] + delta[:-1])
    dx = np.diff(upd.x_next)
    want = max(abs(w[i] * dx[i] - w[i - 1] * dx[i - 1]) / (delta.max() * 7.0) for i in range(1, 16))
    assert want <= 1e-14
    assert equidistribution_residual(delta, upd.x_next) == want
    assert upd.dx.tobytes() == dx.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_equidistribute_rejects_nonfinite_or_nonpositive_weights(bad):
    delta = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(SingularSystem):
        equidistribute(delta, (0.0, 1.0))


@settings(max_examples=50)
@given(
    n=st.integers(3, 4096),
    rows=st.sampled_from([None, 1, 4]),
    contrast=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-5.0, 5.0),
    width=st.floats(0.5, 10.0),
)
def test_equidistribute_property_random_weights(n, rows, contrast, seed, a, width):
    # weights log-uniform over [1, 10^contrast]: a contrast up to 1e6
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    delta = 10.0 ** rng.uniform(0.0, contrast, shape)
    ends = (a, a + width) if rows is None else (np.full(rows, a), np.full(rows, a + width))
    upd = equidistribute(delta, ends)
    assert (upd.x_next[..., 0] == a).all() and (upd.x_next[..., -1] == a + width).all()
    assert np.all(np.diff(upd.x_next) > 0.0)
    assert equidistribution_residual(delta, upd.x_next) <= 1e-14


@settings(max_examples=100)
@given(
    exponents=st.lists(st.floats(0.0, 6.0), min_size=3, max_size=40),
    a=st.floats(-5.0, 5.0),
    width=st.floats(0.5, 10.0),
)
def test_equidistribute_matches_the_exact_rational_solution(exponents, a, width):
    # weights spanning up to six decades; each node within 1e-14 (b - a) of
    # the exact solution of the system for the same float weights
    delta = [10.0**e for e in exponents]
    b = a + width
    x = equidistribute(np.array(delta), (a, b)).x_next
    exact = equidistributed_exact(delta, a, b)
    err = max(abs(Fraction(v) - e) for v, e in zip(x.tolist(), exact))
    assert err <= Fraction(1e-14) * (Fraction(b) - Fraction(a))


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

def test_spline_reproduces_cubics_midspan():
    x = np.linspace(0, 10, 61)
    y = x**3 - 2.0 * x**2 + 0.5
    xq = np.linspace(3.5, 6.5, 41)
    exact = xq**3 - 2.0 * xq**2 + 0.5
    got = spline_project(_state(x, y), xq)
    assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_spline_equivariance():
    rng = DeterministicRng(73)
    x = np.cumsum(np.array([0.0, 0.7, 0.4, 0.9, 0.5, 0.6, 0.8]))
    u = np.array([0.3, -1.0, 0.8, 1.4, -0.2, 0.5, 0.1])
    t = -0.3
    xq = np.linspace(float(x[0]), float(x[-1]), 23)
    v = spline_project(_state(x, u), xq)
    for _ in range(50):
        g = rand_kdv_element(rng)
        pts = [apply_kdv(g, (t, float(a), float(b))) for a, b in zip(x, u)]
        gx = np.array([p[1] for p in pts])
        gu = np.array([p[2] for p in pts])
        img = np.array([apply_kdv(g, (t, float(a), float(b)))[2] for a, b in zip(xq, v)])
        gxq = np.array([apply_kdv(g, (t, float(a), 0.0))[1] for a in xq])
        got = spline_project(_state(gx, gu), gxq)
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
            spline_project(_state(drift, src), xq) - u))))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 3.0 <= rate1 <= 5.0
    assert 3.0 <= rate2 <= 5.0


def test_spline_out_of_domain_and_clamp():
    x = np.linspace(0, 1, 11)
    u = x.copy()
    got = spline_project(_state(x, u), np.array([0.0 - 1e-13, 1.0]))
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(OutOfDomain):
        spline_project(_state(x, u), np.array([1.1]))
    # the slack is relative to the hull width, also on a hull 2^-60 wide
    lam = 2.0**-60
    got = spline_project(_state(lam * x, u), lam * np.array([0.0 - 1e-13, 1.0]))
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(OutOfDomain):
        spline_project(_state(lam * x, u), np.array([2.0 * lam]))


def test_spline_commutes_with_power_of_two_scaling():
    # the cubes are products: numpy's pow rounds (2^j r)**3 and 2^3j r**3
    # differently in a few of a million values
    rng = np.random.default_rng(41)
    mismatches = dict.fromkeys((-50, -20, 20, 50), 0)
    for _ in range(300):
        x = np.cumsum(rng.uniform(0.1, 2.0, 40))
        u = rng.uniform(-2.0, 2.0, 40)
        xq = rng.uniform(x[0], x[-1], 1000)
        v = spline_project(_state(x, u), xq)
        for j in mismatches:
            lam = 2.0**j
            got = spline_project(_state(lam * x, u), lam * xq)
            mismatches[j] += int(np.count_nonzero(got != v))
    assert mismatches == dict.fromkeys(mismatches, 0)


# ---------------------------------------------------------------------------
# projection safety
# ---------------------------------------------------------------------------

def test_spline_nan_data_gives_nonfinite_values():
    # the solve does not raise on NaN data: the runner's nonfinite guard
    # reports the projected state instead
    x = np.linspace(0.0, 1.0, 6)
    u = np.array([0.0, 1.0, np.nan, 1.0, 0.0, 1.0])
    out = spline_project(_state(x, u), np.linspace(0.0, 1.0, 9))
    assert out.shape == (9,)
    assert not np.all(np.isfinite(out))


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
    assert equidistribution_residual(delta, upd.x_next) <= 1e-14


def test_equidistribute_batch_checks_every_row():
    delta = np.ones((3, 6))
    delta[1, 2] = np.nan
    with pytest.raises(SingularSystem):
        equidistribute(delta, (np.zeros(3), np.ones(3)))
    with pytest.raises(ValueError, match="finite"):
        equidistribute(np.ones((3, 6)), (np.zeros(3), np.array([1.0, np.inf, 1.0])))
    with pytest.raises(MeshTangling):
        equidistribute(np.ones((3, 6)), (np.zeros(3), np.array([1.0, 1.0, 1e-3])), floor=0.01)
