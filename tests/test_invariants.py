"""Closed-form difference invariants: values, invariance, independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfd.errors import DegenerateDenominator
from symfd.frames import apply_burgers_stencil, apply_kdv_stencil
from symfd.groups import apply_sl2, burgers_generators, kdv_generators
from symfd.groups import prolonged_directional_derivative
from symfd.invariants import (
    BURGERS_INVARIANT_NAMES,
    KDV_INVARIANT_NAMES,
    BurgersStencil,
    KdVStencil,
    burgers_d2u,
    burgers_invariant_vector,
    burgers_invariants,
    cross_ratio,
    kdv_Q,
    kdv_invariant_vector,
    kdv_invariants,
    sl2_invariant_chain,
)
from symfd.rng import DeterministicRng

from _helpers import (
    rand_admissible_window,
    rand_burgers_element,
    rand_burgers_stencil,
    rand_kdv_element,
    rand_kdv_stencil,
    rand_sl2_safe,
    rel_err,
)


# ---------------------------------------------------------------------------
# cross-ratio and the Mobius chain
# ---------------------------------------------------------------------------

def test_cross_ratio_values():
    assert cross_ratio(0, 1, 2, 3) == pytest.approx(0.25, abs=1e-15)
    assert cross_ratio(0, 1, 2, 2.5) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_cross_ratio_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        cross_ratio(0.0, 1.0, 0.0, 1.0)


def test_cross_ratio_mobius_invariance_1000():
    rng = DeterministicRng(31)
    worst = 0.0
    for _ in range(1000):
        u = rand_admissible_window(rng)
        g = rand_sl2_safe(rng, u)
        r = cross_ratio(*u)
        worst = max(worst, abs(cross_ratio(*(apply_sl2(g, v) for v in u)) - r)
                    / (1.0 + abs(r)))
    assert worst <= 1e-11


def test_chain_values_and_identity():
    i1, i2, i3, j1, j2, r = sl2_invariant_chain(0.0, 1.0, 2.0, 3.0)
    assert (i1, i2, i3) == (1.0, 1.0, 1.0)
    assert (j1, j2) == (1.0, 1.0)
    assert r == pytest.approx(0.25, abs=1e-15)


def test_chain_ratio_equals_cross_ratio():
    rng = DeterministicRng(32)
    for _ in range(1000):
        u = rand_admissible_window(rng)
        r_chain = sl2_invariant_chain(*u)[5]
        assert abs(r_chain - cross_ratio(*u)) <= 1e-12 * (1.0 + abs(r_chain))


def test_chain_j_invariant_under_affine_maps():
    rng = DeterministicRng(33)
    for _ in range(200):
        u = rand_admissible_window(rng)
        lam = 0.3 + rng.uniform(0.0, 3.0)
        b = rng.uniform(-2.0, 2.0)
        v = [lam * x + b for x in u]
        _, _, _, j1, j2, _ = sl2_invariant_chain(*u)
        _, _, _, k1, k2, _ = sl2_invariant_chain(*v)
        assert abs(j1 - k1) <= 1e-11 * (1.0 + abs(j1))
        assert abs(j2 - k2) <= 1e-11 * (1.0 + abs(j2))


# ---------------------------------------------------------------------------
# KdV invariants
# ---------------------------------------------------------------------------

def test_kdv_invariants_uniform_rest_state():
    h, k = 0.5, 0.25
    xr = np.arange(5) * h
    z = KdVStencil(k, np.vstack([xr, xr]), np.zeros((2, 5)))
    inv = kdv_invariants(z)
    for l in range(2):
        for j in ("-1", "0", "+1"):
            assert inv[f"H({l},{j})"] == pytest.approx(1.0)
    assert inv["I"] == pytest.approx(1.0)
    assert inv["J"] == pytest.approx(h**3 / k)
    assert inv["L"] == pytest.approx(0.0)  # sigma = 0, u = 0
    assert inv["T"] == pytest.approx(0.0)
    for name in KDV_INVARIANT_NAMES[10:]:
        assert inv[name] == pytest.approx(0.0)


def test_kdv_invariants_group_invariance_200():
    rng = DeterministicRng(34)
    worst = 0.0
    for _ in range(200):
        z = rand_kdv_stencil(rng)
        g = rand_kdv_element(rng)
        v0 = kdv_invariant_vector(z)
        v1 = kdv_invariant_vector(apply_kdv_stencil(g, z))
        worst = max(worst, float(np.max(np.abs(v1 - v0) / (1.0 + np.abs(v0)))))
    assert worst <= 1e-9


def test_kdv_J_scaling_closed_form():
    rng = DeterministicRng(35)
    z = rand_kdv_stencil(rng)
    lam = 1.7
    j0 = kdv_invariants(z)["J"]
    z2 = KdVStencil(lam**3 * z.k, lam * z.x, z.u / lam**2, lam**3 * z.t0)
    assert kdv_invariants(z2)["J"] == pytest.approx(j0, rel=1e-12)


def test_kdv_invariants_prolonged_derivative_vanishes():
    rng = DeterministicRng(36)
    gens = kdv_generators()
    worst = 0.0
    for _ in range(100):
        z = rand_kdv_stencil(rng).to_stencil()
        for name in KDV_INVARIANT_NAMES:
            F = lambda s, nm=name: kdv_invariants(KdVStencil.from_stencil(s))[nm]
            for f in gens:
                worst = max(worst, abs(prolonged_directional_derivative(F, f, z)))
    assert worst <= 1e-7


def test_kdv_functional_independence_jacobian_rank():
    rng = DeterministicRng(37)

    def jac_rank(z):
        base = np.concatenate([[z.k], z.x.ravel(), z.u.ravel()])

        def vec(p):
            return kdv_invariant_vector(
                KdVStencil(p[0], p[1:11].reshape(2, 5), p[11:21].reshape(2, 5)))

        J = np.zeros((18, 21))
        for j in range(21):
            e = 1e-6 * (1.0 + abs(base[j]))
            pp, pm = base.copy(), base.copy()
            pp[j] += e
            pm[j] -= e
            J[:, j] = (vec(pp) - vec(pm)) / (2.0 * e)
        sv = np.linalg.svd(J, compute_uv=False)
        return int(np.sum(sv > 1e-8 * sv[0]))

    for _ in range(20):
        assert jac_rank(rand_kdv_stencil(rng)) == 18


def test_kdv_Q_polynomial_oracle():
    # brute-force assembly of Q from the K and H values, plus the closed
    # forms Q = 0 on quadratics and Q = 3 k h^2 on cubics (uniform mesh)
    h, k = 0.3, 0.17
    xr = np.arange(5) * h
    x = np.vstack([xr, xr])
    for exponent, expected in ((1, 0.0), (2, 0.0), (3, 3.0 * k * h**2)):
        u = np.vstack([xr**exponent, xr**exponent])
        z = KdVStencil(k, x, u)
        du = np.diff(u[0]) / h
        K = k * du
        q_oracle = 1.0 * (K[3] - K[2]) / 2.0 - (K[2] - K[1]) / 2.0  # H = 1
        got = kdv_Q(z, 0, 0)
        assert got == pytest.approx(q_oracle, abs=1e-14)
        assert got == pytest.approx(expected, abs=1e-13)


def test_kdv_Q_group_invariance():
    rng = DeterministicRng(38)
    worst = 0.0
    for _ in range(200):
        z = rand_kdv_stencil(rng)
        g = rand_kdv_element(rng)
        for row in (0, 1):
            for shift in (0, -1):
                q0 = kdv_Q(z, row, shift)
                q1 = kdv_Q(apply_kdv_stencil(g, z), row, shift)
                worst = max(worst, abs(q1 - q0) / (1.0 + abs(q0)))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# Burgers invariants
# ---------------------------------------------------------------------------

def test_burgers_invariants_static_uniform():
    h, k, c = 0.4, 0.2, 0.7
    xr = np.arange(3) * h
    x0 = np.vstack([xr, xr + k * c])  # mesh advected with the constant state
    z = BurgersStencil(k, x0, np.full((2, 3), c))
    inv = burgers_invariants(z)
    assert inv["I1"] == pytest.approx(1.0)
    assert inv["I2"] == pytest.approx(1.0)
    assert inv["I4"] == pytest.approx(0.0)
    assert inv["I5"] == pytest.approx(0.0)
    assert inv["I6"] == pytest.approx(0.0)  # sigma = k c
    assert inv["I7"] == pytest.approx(0.0)


def test_burgers_invariants_literal_formulas():
    # independent re-assembly of the nine formulas on one random stencil
    rng = DeterministicRng(40)
    z = rand_burgers_stencil(rng)
    h = np.diff(z.x, axis=1)
    du = np.diff(z.u, axis=1) / h
    sig = z.x[1, 1] - z.x[0, 1]
    k = z.k
    expected = {
        "I1": h[0, 1] / h[0, 0],
        "I2": h[1, 1] / h[1, 0],
        "I3": h[0, 1] * h[1, 1] / k,
        "I4": h[0, 1] * h[0, 0] * (du[0, 1] - du[0, 0]),
        "I5": h[1, 1] * h[1, 0] * (du[1, 1] - du[1, 0]),
        "I6": h[0, 1] * (sig / k - z.u[0, 1]),
        "I7": h[1, 1] * (sig / k - z.u[1, 1]),
        "I8": h[0, 1] ** 2 * (du[0, 1] + 1.0 / k),
        "I9": h[1, 1] ** 2 * (du[1, 1] - 1.0 / k),
    }
    inv = burgers_invariants(z)
    for name in BURGERS_INVARIANT_NAMES:
        assert inv[name] == pytest.approx(expected[name], abs=1e-14)


def test_burgers_invariants_group_invariance_200():
    rng = DeterministicRng(41)
    worst = 0.0
    for _ in range(200):
        z = rand_burgers_stencil(rng)
        g = rand_burgers_element(rng)
        v0 = burgers_invariant_vector(z)
        v1 = burgers_invariant_vector(apply_burgers_stencil(g, z))
        worst = max(worst, float(np.max(np.abs(v1 - v0) / (1.0 + np.abs(v0)))))
    assert worst <= 1e-9


def test_burgers_invariants_prolonged_derivative_vanishes():
    rng = DeterministicRng(42)
    gens = burgers_generators()
    worst = 0.0
    for _ in range(100):
        z = rand_burgers_stencil(rng).to_stencil()
        for name in BURGERS_INVARIANT_NAMES:
            F = lambda s, nm=name: burgers_invariants(BurgersStencil.from_stencil(s))[nm]
            for f in gens:
                worst = max(worst, abs(prolonged_directional_derivative(F, f, z)))
    assert worst <= 1e-7


def test_burgers_invariants_on_exact_solution_data():
    # stencil sampled from the viscous-shock solution at a smooth point;
    # I8 and I9 evaluated through the module must match the direct formulas
    from symfd.runner import exact_burgers

    nu, c, k, h = 0.1, 0.25, 0.01, 0.05
    xs = np.array([0.1, 0.15, 0.2])
    x = np.vstack([xs, xs])
    u = np.vstack([
        np.asarray(exact_burgers(0.0, xs, nu, c)),
        np.asarray(exact_burgers(k, xs, nu, c)),
    ])
    z = BurgersStencil(k, x, u)
    inv = burgers_invariants(z)
    du0 = (u[0, 2] - u[0, 1]) / h
    du1 = (u[1, 2] - u[1, 1]) / h
    assert inv["I8"] == pytest.approx(h**2 * (du0 + 1.0 / k), rel=1e-12)
    assert inv["I9"] == pytest.approx(h**2 * (du1 - 1.0 / k), rel=1e-12)
    # the I8 - I9 combination cancels the 1/k pieces up to the slope change
    assert inv["I8"] - inv["I9"] == pytest.approx(
        h**2 * (du0 - du1) + 2.0 * h**2 / k, rel=1e-12)


def test_stencil_roundtrips():
    rng = DeterministicRng(44)
    zk = rand_kdv_stencil(rng)
    back = KdVStencil.from_stencil(zk.to_stencil())
    assert back.k == pytest.approx(zk.k, abs=1e-14)
    assert np.allclose(back.x, zk.x) and np.allclose(back.u, zk.u)
    zb = rand_burgers_stencil(rng)
    back = BurgersStencil.from_stencil(zb.to_stencil())
    assert back.k == pytest.approx(zb.k, abs=1e-14)
    assert np.allclose(back.x, zb.x) and np.allclose(back.u, zb.u)


def test_burgers_d2u_matches_direct_formula():
    rng = DeterministicRng(43)
    z = rand_burgers_stencil(rng)
    h = np.diff(z.x, axis=1)
    du = np.diff(z.u, axis=1) / h
    expected = 2.0 * (du[0, 1] - du[0, 0]) / (h[0, 0] + h[0, 1])
    assert burgers_d2u(z, 0) == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# property tests: stencil conversion and the catalogs' infinitesimal invariance
# ---------------------------------------------------------------------------

def _rows(n):
    """Strictly increasing mesh rows: start in [-1, 1], spacings in [0.1, 2]."""
    row = st.tuples(st.floats(-1.0, 1.0), st.lists(st.floats(0.1, 2.0), min_size=n - 1,
                                                     max_size=n - 1))
    return st.tuples(row, row).map(
        lambda rs: np.array([np.cumsum([a] + h) for a, h in rs]))


def _values(n):
    return st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n).map(
        lambda v: np.array(v).reshape(2, n))


def _stencils(cls, n):
    return st.builds(cls, st.floats(0.1, 2.0), _rows(n), _values(n), st.floats(-1.0, 1.0))


def _assert_roundtrip(z, back):
    # x, u and t0 come back bit for bit; k is recovered as (t0 + k) - t0
    assert back.t0 == z.t0
    assert np.array_equal(back.x, z.x) and np.array_equal(back.u, z.u)
    assert back.k == pytest.approx(z.k, rel=0.0, abs=4e-16 * (abs(z.t0) + z.k))


@settings(max_examples=50, deadline=None)
@given(zk=_stencils(KdVStencil, 5), zb=_stencils(BurgersStencil, 3))
def test_stencil_roundtrip_property(zk, zb):
    _assert_roundtrip(zk, KdVStencil.from_stencil(zk.to_stencil()))
    _assert_roundtrip(zb, BurgersStencil.from_stencil(zb.to_stencil()))


def _kdv_reference(z):
    """The 18 KdV formulas one by one, on numpy scalars (docstring notation)."""
    h = np.diff(z.x, axis=1)
    du = np.diff(z.u, axis=1) / h
    out = {}
    for l in range(2):
        for j in (-1, 0, 1):
            out[f"H({l},{j:+d})" if j else f"H({l},0)"] = h[l, j + 1] / h[l, j + 2]
    out["I"] = h[1, 2] / h[0, 2]
    out["J"] = h[0, 2] ** 3 / z.k
    out["L"] = ((z.x[1, 2] - z.x[0, 2]) - z.k * z.u[0, 2]) / h[0, 2]
    out["T"] = (z.u[1, 2] - z.u[0, 2]) * h[0, 2] ** 2
    for l in range(2):
        for j in (-2, -1, 0, 1):
            out[f"K({l},{j:+d})" if j else f"K({l},0)"] = z.k * du[l, j + 2]
    return out


def _burgers_reference(z):
    """The 9 Burgers formulas one by one, on numpy scalars."""
    h = np.diff(z.x, axis=1)
    du = np.diff(z.u, axis=1) / h
    k, sig = z.k, z.x[1, 1] - z.x[0, 1]
    return {
        "I1": h[0, 1] / h[0, 0], "I2": h[1, 1] / h[1, 0], "I3": h[0, 1] * h[1, 1] / k,
        "I4": h[0, 1] * h[0, 0] * (du[0, 1] - du[0, 0]),
        "I5": h[1, 1] * h[1, 0] * (du[1, 1] - du[1, 0]),
        "I6": h[0, 1] * (sig / k - z.u[0, 1]), "I7": h[1, 1] * (sig / k - z.u[1, 1]),
        "I8": h[0, 1] ** 2 * (du[0, 1] + 1.0 / k), "I9": h[1, 1] ** 2 * (du[1, 1] - 1.0 / k),
    }


@settings(max_examples=50, deadline=None)
@given(zk=_stencils(KdVStencil, 5), zb=_stencils(BurgersStencil, 3))
def test_catalogs_equal_formula_by_formula_reference(zk, zb):
    # same arithmetic in the same order, so equal bit for bit
    assert kdv_invariants(zk) == _kdv_reference(zk)
    assert list(kdv_invariants(zk)) == list(KDV_INVARIANT_NAMES)
    assert burgers_invariants(zb) == _burgers_reference(zb)
    assert list(burgers_invariants(zb)) == list(BURGERS_INVARIANT_NAMES)


def _worst_catalog_derivative(catalog, cls, gens, z):
    """Largest prolonged derivative of the whole catalog (one array-valued F)."""
    F = lambda s: np.array(list(catalog(cls.from_stencil(s)).values()))  # noqa: E731
    s = z.to_stencil()
    return max(float(np.max(np.abs(prolonged_directional_derivative(F, f, s)))) for f in gens)


@settings(max_examples=50, deadline=None)
@given(z=_stencils(KdVStencil, 5))
def test_kdv_catalog_invariance_property(z):
    assert _worst_catalog_derivative(kdv_invariants, KdVStencil, kdv_generators(), z) <= 1e-7


@settings(max_examples=50, deadline=None)
@given(z=_stencils(BurgersStencil, 3))
def test_burgers_catalog_invariance_property(z):
    assert _worst_catalog_derivative(burgers_invariants, BurgersStencil,
                                     burgers_generators(), z) <= 1e-7
