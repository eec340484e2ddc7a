"""Closed-form difference invariants: values, invariance, independence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfd.errors import DegenerateDenominator
from symfd.groups import (
    KdVGroupElement,
    Stencil,
    apply_sl2,
    burgers_generators,
    kdv_generators,
)
from symfd.invariants import (
    BURGERS_INVARIANT_NAMES,
    KDV_INVARIANT_NAMES,
    BurgersStencil,
    KdVStencil,
    burgers_invariant_vector,
    burgers_invariants,
    cross_ratio,
    kdv_invariant_vector,
    kdv_invariants,
)
from symfd.rng import DeterministicRng

from _helpers import (
    POWER_OF_TWO_SCALES,
    WINDOW_VALUES,
    apply_burgers_stencil,
    apply_kdv_stencil,
    rand_admissible_window,
    rand_burgers_element,
    rand_burgers_stencil,
    rand_kdv_element,
    rand_kdv_stencil,
    rand_sl2_safe,
    rel_err,
    worst_catalog_derivative,
)


# ---------------------------------------------------------------------------
# cross-ratio
# ---------------------------------------------------------------------------

def test_cross_ratio_values():
    assert cross_ratio(0, 1, 2, 3) == pytest.approx(0.25, abs=1e-15)
    assert cross_ratio(0, 1, 2, 2.5) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_cross_ratio_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        cross_ratio(0.0, 1.0, 0.0, 1.0)


@settings(max_examples=300)
@given(u=st.lists(WINDOW_VALUES, min_size=4, max_size=4), m=st.integers(-1000, 1000))
def test_cross_ratio_is_unchanged_by_scaling_by_powers_of_two(u, m):
    # each difference, and each term its degeneracy test compares it with,
    # scales by 2^m exactly, and so does each quotient of two differences:
    # the same cross-ratio bit for bit, or both raise
    scaled = [math.ldexp(v, m) for v in u]
    try:
        want = cross_ratio(*u)
    except DegenerateDenominator:
        with pytest.raises(DegenerateDenominator):
            cross_ratio(*scaled)
        return
    assert cross_ratio(*scaled) == want


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
        # floating point applies a scaling by 2^j exactly
        for lam in POWER_OF_TWO_SCALES:
            gz = apply_kdv_stencil(KdVGroupElement(lam, 0.0, 0.0, 0.0), z)
            assert np.array_equal(kdv_invariant_vector(gz), v0), lam
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
        worst = max(worst, worst_catalog_derivative(kdv_invariant_vector, KdVStencil, gens, z))
    assert worst <= 1e-11


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
        # x -> lam x, t -> lam^2 t, u -> u / lam, exact for lam = 2^j
        for lam in POWER_OF_TWO_SCALES:
            gz = BurgersStencil(lam**2 * z.k, lam * z.x, z.u / lam, lam**2 * z.t0)
            assert np.array_equal(burgers_invariant_vector(gz), v0), lam
    assert worst <= 1e-9


def test_burgers_invariants_prolonged_derivative_vanishes():
    rng = DeterministicRng(42)
    gens = burgers_generators()
    worst = 0.0
    for _ in range(100):
        z = rand_burgers_stencil(rng).to_stencil()
        worst = max(worst, worst_catalog_derivative(burgers_invariant_vector, BurgersStencil,
                                                    gens, z))
    assert worst <= 1e-11


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


_ORDER = "rows must be ordered in time"
_STEP = "time step must be finite and positive"
_X = "x must be finite and strictly increasing"


def _assert_both_constructors_reject(t0, t1, edits, direct_msg, gathered_msg):
    """cls(t1 - t0, x, u, t0) and cls.from_stencil of the same nodes raise
    ValueError with the given messages, for both two-row families.

    x starts as rows 0, 1, 2, ... and 0.5, 1.5, ... (no shared (t, x) even at
    t1 == t0); ``edits`` maps (row, column) to a new abscissa.
    """
    for cls, n in ((KdVStencil, 5), (BurgersStencil, 3)):
        x = np.arange(n) + np.array([[0.0], [0.5]])
        u = np.linspace(-1.0, 1.0, 2 * n).reshape(2, n)
        offsets = cls(1.0, x, u).to_stencil().offsets
        for (l, m), value in edits.items():
            x[l, m] = value
        t = np.repeat([[t0], [t1]], n, axis=1)
        points = np.stack([t, x, u], axis=-1).reshape(-1, 3)
        with pytest.raises(ValueError) as direct:
            cls(t1 - t0, x, u, t0)
        with pytest.raises(ValueError) as gathered:
            cls.from_stencil(Stencil(offsets, points))
        assert type(direct.value) is type(gathered.value) is ValueError
        assert (str(direct.value), str(gathered.value)) == (direct_msg, gathered_msg), cls


# the catalogs divide by the spacings and k without a test of their own
@pytest.mark.parametrize("t0, t1, edits, direct_msg, gathered_msg", [
    (0.0, 1.0, {(0, 1): np.nan}, _X, _X),
    (0.0, 1.0, {(1, -1): np.inf}, _X, _X),
    (0.0, 1.0, {(0, 0): -np.inf}, _X, _X),
    (-1e308, 1e308, {}, _STEP, _STEP),
    (0.0, np.nan, {}, _STEP, _ORDER),  # from_stencil tests the time order first
], ids=["nan_abscissa", "inf_abscissa", "minus_inf_abscissa", "inf_time_step", "nan_time"])
def test_two_row_stencils_reject_nonfinite_abscissae_and_time_steps(t0, t1, edits, direct_msg,
                                                                     gathered_msg):
    _assert_both_constructors_reject(t0, t1, edits, direct_msg, gathered_msg)


# the constructor takes k = t1 - t0 and reports the time step; from_stencil
# reads the two times and reports their order
@pytest.mark.parametrize("t0, t1, edits, direct_msg, gathered_msg", [
    (0.0, 1.0, {(0, 1): -0.5}, _X, _X),
    (0.0, 1.0, {(1, 2): 0.25}, _X, _X),
    (1.0, 1.0, {}, _STEP, _ORDER),
    (1.0, 0.5, {}, _STEP, _ORDER),
], ids=["decreasing_row_0", "decreasing_row_1", "equal_times", "reversed_times"])
def test_two_row_stencils_reject_unordered_abscissae_and_times(t0, t1, edits, direct_msg,
                                                               gathered_msg):
    _assert_both_constructors_reject(t0, t1, edits, direct_msg, gathered_msg)


def test_two_row_constructor_rejects_a_repeated_abscissa():
    # from_stencil never sees one: two nodes of a row would share (t, x),
    # which the Stencil already rejects
    for cls, n in ((KdVStencil, 5), (BurgersStencil, 3)):
        for l in range(2):
            x = np.arange(n) + np.array([[0.0], [0.5]])
            x[l, 1] = x[l, 0]
            with pytest.raises(ValueError, match=_X):
                cls(1.0, x, np.zeros((2, n)))


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


@settings(max_examples=50)
@given(zk=_stencils(KdVStencil, 5), zb=_stencils(BurgersStencil, 3))
def test_stencil_roundtrip_property(zk, zb):
    _assert_roundtrip(zk, KdVStencil.from_stencil(zk.to_stencil()))
    _assert_roundtrip(zb, BurgersStencil.from_stencil(zb.to_stencil()))


@settings(max_examples=50)
@given(zk=_stencils(KdVStencil, 5), zb=_stencils(BurgersStencil, 3), data=st.data())
def test_from_stencil_gathers_any_offset_order(zk, zb, data):
    for z in (zk, zb):
        cls = type(z)
        canon = z.to_stencil()
        order = data.draw(st.permutations(range(len(canon.offsets))))
        if order == sorted(order):  # the canonical order would take the view path
            order.reverse()
        shuffled = Stencil(tuple(canon.offsets[r] for r in order), canon.points[order])
        back, ref = cls.from_stencil(shuffled), cls.from_stencil(canon)
        assert type(back) is cls
        assert back.k == ref.k and back.t0 == ref.t0
        assert np.array_equal(back.x, ref.x) and np.array_equal(back.u, ref.u)
        # the canonical order is not copied: x and u are read-only views of the points
        for rows in (ref.x, ref.u):
            assert np.shares_memory(rows, canon.points) and not rows.flags.writeable
        # a stencil lacking one of the class's offsets
        with pytest.raises(KeyError):
            cls.from_stencil(Stencil(shuffled.offsets[1:], shuffled.points[1:]))
        # row 1 before row 0 in time, on the gather path and on the view path
        swapped = canon.points.copy()
        swapped[:, 0] = np.where(swapped[:, 0] == z.t0, z.t0 + z.k, z.t0)
        for bad in (Stencil(canon.offsets, swapped), Stencil(shuffled.offsets, swapped[order])):
            with pytest.raises(ValueError, match="ordered in time"):
                cls.from_stencil(bad)


def _kdv_reference(z):
    """The 18 KdV formulas one by one, on numpy scalars (docstring notation)."""
    h = np.diff(z.x, axis=1)
    du = np.diff(z.u, axis=1) / h
    out = {}
    for l in range(2):
        for j in (-1, 0, 1):
            out[f"H({l},{j:+d})" if j else f"H({l},0)"] = h[l, j + 1] / h[l, j + 2]
    out["I"] = h[1, 2] / h[0, 2]
    out["J"] = h[0, 2] * h[0, 2] * h[0, 2] / z.k
    out["L"] = ((z.x[1, 2] - z.x[0, 2]) - z.k * z.u[0, 2]) / h[0, 2]
    out["T"] = (z.u[1, 2] - z.u[0, 2]) * (h[0, 2] * h[0, 2])
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
        "I8": h[0, 1] * h[0, 1] * (du[0, 1] + 1.0 / k),
        "I9": h[1, 1] * h[1, 1] * (du[1, 1] - 1.0 / k),
    }


@settings(max_examples=50)
@given(zk=_stencils(KdVStencil, 5), zb=_stencils(BurgersStencil, 3))
def test_catalogs_equal_formula_by_formula_reference(zk, zb):
    # same arithmetic in the same order, so equal bit for bit
    assert kdv_invariants(zk) == _kdv_reference(zk)
    assert list(kdv_invariants(zk)) == list(KDV_INVARIANT_NAMES)
    assert burgers_invariants(zb) == _burgers_reference(zb)
    assert list(burgers_invariants(zb)) == list(BURGERS_INVARIANT_NAMES)


def _kdv_array_catalog(z):
    """The KdV catalog in name order, as numpy expressions over whole rows."""
    x, u, k = z.x, z.u, z.k
    h = x[:, 1:] - x[:, :-1]
    du = (u[:, 1:] - u[:, :-1]) / h
    h0, h1 = h[:, 2].tolist()
    x0, x1 = x[:, 2].tolist()
    u0, u1 = u[:, 2].tolist()
    return ((h[:, :-1] / h[:, 1:]).ravel().tolist()
            + [h1 / h0, h0 * h0 * h0 / k, ((x1 - x0) - k * u0) / h0, (u1 - u0) * (h0 * h0)]
            + (k * du).ravel().tolist())


def _burgers_array_catalog(z):
    """The Burgers catalog in name order, with h and Du as numpy expressions."""
    x, u, k = z.x, z.u, z.k
    h = x[:, 1:] - x[:, :-1]
    (hl0, hr0), (hl1, hr1) = h.tolist()
    (dl0, dr0), (dl1, dr1) = ((u[:, 1:] - u[:, :-1]) / h).tolist()
    x0, x1 = x[:, 1].tolist()
    u0, u1 = u[:, 1].tolist()
    sig = x1 - x0
    return [hr0 / hl0, hr1 / hl1, hr0 * hr1 / k, hr0 * hl0 * (dr0 - dl0),
            hr1 * hl1 * (dr1 - dl1), hr0 * (sig / k - u0), hr1 * (sig / k - u1),
            hr0 * hr0 * (dr0 + 1.0 / k), hr1 * hr1 * (dr1 - 1.0 / k)]


def _adjacent_rows(n):
    """Two rows whose neighbouring abscissae are adjacent doubles, from 1 <= |x_0| <= 2."""
    def row(a):
        r = [a]
        for _ in range(n - 1):
            r.append(np.nextafter(r[-1], np.inf))
        return r

    start = st.one_of(st.floats(-2.0, -1.0), st.floats(1.0, 2.0))
    return st.tuples(start, start).map(lambda s: np.array([row(a) for a in s]))


def _adjacent_stencils(cls, n):
    return st.builds(cls, st.floats(0.1, 2.0), _adjacent_rows(n), _values(n),
                     st.floats(-1.0, 1.0))


def _assert_catalog_equals(catalog, vector, names, oracle, z):
    want = oracle(z)
    got = catalog(z)
    assert list(got) == list(names)
    assert list(got.values()) == want
    assert vector(z).tolist() == want
    return want


@settings(max_examples=50)
@given(zk=_stencils(KdVStencil, 5), zb=_stencils(BurgersStencil, 3),
       ak=_adjacent_stencils(KdVStencil, 5), ab=_adjacent_stencils(BurgersStencil, 3))
def test_scalar_catalogs_equal_array_oracle(zk, zb, ak, ab):
    # the same operations in the same order on Python floats: equal bit for bit
    kdv = (kdv_invariants, kdv_invariant_vector, KDV_INVARIANT_NAMES, _kdv_array_catalog)
    burgers = (burgers_invariants, burgers_invariant_vector, BURGERS_INVARIANT_NAMES,
               _burgers_array_catalog)
    _assert_catalog_equals(*kdv, zk)
    _assert_catalog_equals(*burgers, zb)
    for lam in (2.0**-40, 2.0**40):
        _assert_catalog_equals(*kdv, KdVStencil(lam**3 * zk.k, lam * zk.x, zk.u / lam**2,
                                                lam**3 * zk.t0))
        _assert_catalog_equals(*burgers, BurgersStencil(lam**2 * zb.k, lam * zb.x, zb.u / lam,
                                                        lam**2 * zb.t0))
    # spacings of one ulp: no spacing is zero, so no ZeroDivisionError, and
    # every invariant stays finite
    for args, z in ((kdv, ak), (burgers, ab)):
        assert all(map(np.isfinite, _assert_catalog_equals(*args, z)))


@settings(max_examples=50)
@given(z=_stencils(KdVStencil, 5))
def test_kdv_catalog_invariance_property(z):
    assert worst_catalog_derivative(kdv_invariant_vector, KdVStencil, kdv_generators(),
                                    z.to_stencil()) <= 1e-11


@settings(max_examples=50)
@given(z=_stencils(BurgersStencil, 3))
def test_burgers_catalog_invariance_property(z):
    assert worst_catalog_derivative(burgers_invariant_vector, BurgersStencil,
                                    burgers_generators(), z.to_stencil()) <= 1e-11
