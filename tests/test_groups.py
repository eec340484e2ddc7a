"""Group actions, flows, and the infinitesimal invariance machinery."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symfd.errors import FlowDivergence, PoleError, ProjectionFailure
from symfd.groups import (
    BurgersGroupElement,
    KdVGroupElement,
    SL2Element,
    Stencil,
    affine_5d_generators,
    apply_burgers,
    apply_kdv,
    apply_sl2,
    check_difference_symmetry,
    dpkdv_generators,
    flow,
    burgers_generators,
    kdv_generators,
    lie_matrix,
    lie_matrix_rank,
    make_field,
    perturb_stencil,
    prolonged_directional_derivative,
    sl2_generators,
)
from symfd.invariants import cross_ratio
from symfd.rng import DeterministicRng

from _helpers import (
    rand_admissible_window,
    rand_burgers_element,
    rand_kdv_element,
    rand_mesh_row,
    rand_sl2,
    rel_err,
)


# ---------------------------------------------------------------------------
# pointwise actions
# ---------------------------------------------------------------------------

def test_apply_sl2_examples():
    assert apply_sl2(SL2Element(1, 0, 0, 1), 0.7) == pytest.approx(0.7, abs=1e-15)
    assert apply_sl2(SL2Element(1, 1, 0, 1), 2.0) == pytest.approx(3.0, abs=1e-15)
    assert apply_sl2(SL2Element(2, 0, 0, 0.5), 1.0) == pytest.approx(4.0, abs=1e-14)


def test_apply_sl2_pole():
    g = SL2Element(1.0, 0.0, 1.0, 1.0)  # pole at u = -1
    with pytest.raises(PoleError):
        apply_sl2(g, -1.0)


def test_sl2_unimodular_rescaling():
    g = SL2Element(2.0, 0.0, 0.0, 2.0)  # det 4, rescaled to 1
    assert g.a * g.d - g.b * g.c == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        SL2Element(1.0, 2.0, 1.0, 1.0)  # det < 0


def test_apply_kdv_examples():
    ident = KdVGroupElement(1.0)
    assert apply_kdv(ident, (1.0, 2.0, 3.0)) == pytest.approx((1.0, 2.0, 3.0))
    boost = KdVGroupElement(1.0, v=2.0)
    assert apply_kdv(boost, (1.0, 0.0, 0.0)) == pytest.approx((1.0, 2.0, 2.0))
    scale = KdVGroupElement(2.0)
    assert apply_kdv(scale, (1.0, 1.0, 4.0)) == pytest.approx((8.0, 2.0, 1.0))


def test_apply_burgers_examples():
    assert apply_burgers(BurgersGroupElement(), (1.0, 1.0, 1.0)) == pytest.approx(
        (1.0, 1.0, 1.0))
    boost = BurgersGroupElement(eps3=1.0)
    assert apply_burgers(boost, (2.0, 0.0, 0.0)) == pytest.approx((2.0, 2.0, 1.0))
    scale = BurgersGroupElement(eps4=math.log(2.0))
    assert apply_burgers(scale, (1.0, 1.0, 1.0)) == pytest.approx((4.0, 2.0, 0.5))


@pytest.mark.parametrize("family,draw,apply_fn", [
    ("sl2", rand_sl2, None),
    ("kdv", rand_kdv_element, apply_kdv),
    ("burgers", rand_burgers_element, apply_burgers),
])
def test_group_and_inverse_laws(family, draw, apply_fn):
    rng = DeterministicRng(2024)
    worst_comp = worst_inv = 0.0
    count = 0
    while count < 200:
        g, h = draw(rng), draw(rng)
        if family == "sl2":
            u = rng.uniform(-2.0, 2.0)
            if abs(h.c * u + h.d) < 0.2:
                continue
            hu = apply_sl2(h, u)
            gh = g.compose(h)
            if abs(g.c * hu + g.d) < 0.2 or abs(gh.c * u + gh.d) < 0.2:
                continue
            worst_comp = max(worst_comp, rel_err(apply_sl2(g, hu), apply_sl2(gh, u)))
            worst_inv = max(worst_inv, rel_err(apply_sl2(g.inverse(), apply_sl2(g, u)), u))
        else:
            z = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst_comp = max(worst_comp, rel_err(apply_fn(g, apply_fn(h, z)),
                                                 apply_fn(g.compose(h), z)))
            worst_inv = max(worst_inv, rel_err(apply_fn(g.inverse(), apply_fn(g, z)), z))
        count += 1
    assert worst_comp <= 1e-12
    assert worst_inv <= 1e-12


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_flow_identity_parameter():
    shift = make_field(xi=lambda t, x, u: 1.0)
    assert flow(shift, (0.3, 0.7, -0.2), 0.0) == (0.3, 0.7, -0.2)


def test_flow_matches_closed_forms():
    _, _, boost, scale = kdv_generators()
    for eps in (-1.0, -0.3, 0.2, 1.0):
        t, x, u = flow(boost, (1.0, 0.0, 0.0), eps)
        assert (t, x, u) == pytest.approx((1.0, eps, eps), abs=1e-10)
        t, x, u = flow(scale, (1.0, 1.0, 1.0), eps)
        assert (t, x, u) == pytest.approx(
            (math.exp(3 * eps), math.exp(eps), math.exp(-2 * eps)), abs=1e-10)


def test_flow_mobius_generators_closed_forms():
    shift, dilate, special = sl2_generators()
    for eps in (-1.0, -0.4, 0.3, 1.0):
        u0 = 0.6
        assert flow(shift, (0.0, 0.0, u0), eps)[2] == pytest.approx(u0 + eps, abs=1e-10)
        assert flow(dilate, (0.0, 0.0, u0), eps)[2] == pytest.approx(
            u0 * math.exp(eps), abs=1e-10)
        assert flow(special, (0.0, 0.0, u0), eps)[2] == pytest.approx(
            u0 / (1.0 - eps * u0), abs=1e-10)


def test_flow_burgers_inversion_generator():
    # the excluded one-parameter family still flows correctly as a field:
    # exp(e v5) (t, x, u) = (t/(1-et), x/(1-et), (1-et) u + e x)
    v5 = make_field(
        xi=lambda t, x, u: t * x,
        eta=lambda t, x, u: t * t,
        phi=lambda t, x, u: x - t * u,
    )
    eps = 0.4
    t0, x0, u0 = 1.0, 0.5, -0.3
    got = flow(v5, (t0, x0, u0), eps)
    q = 1.0 - eps * t0
    assert got == pytest.approx((t0 / q, x0 / q, q * u0 + eps * x0), abs=1e-10)


def test_flow_divergence_guard():
    grow = make_field(phi=lambda t, x, u: u * u)
    with pytest.raises(FlowDivergence):
        flow(grow, (0.0, 0.0, 1.0), 1.5)  # pole of du/de = u^2 at e = 1


def test_flow_respects_lattice_weight():
    alt = dpkdv_generators()[0]  # (-1)^(n+i) u d/du
    u0 = 0.8
    up = flow(alt, (0.0, 0.0, u0), 0.5, index=(0, 0))[2]
    dn = flow(alt, (0.0, 0.0, u0), 0.5, index=(0, 1))[2]
    assert up == pytest.approx(u0 * math.exp(0.5), abs=1e-10)
    assert dn == pytest.approx(u0 * math.exp(-0.5), abs=1e-10)


# ---------------------------------------------------------------------------
# prolonged directional derivative
# ---------------------------------------------------------------------------

def _window_stencil(u, h=1.0):
    return Stencil.from_dict({(0, j): (0.0, j * h, u[j + 1]) for j in range(-1, 3)})


def _cross_ratio_on(z):
    return cross_ratio(z.u(0, -1), z.u(0, 0), z.u(0, 1), z.u(0, 2))


def test_pdd_cross_ratio_annihilated_by_mobius_generators():
    rng = DeterministicRng(5)
    worst = 0.0
    for _ in range(100):
        z = _window_stencil(rand_admissible_window(rng))
        for f in sl2_generators():
            worst = max(worst, abs(prolonged_directional_derivative(_cross_ratio_on, f, z)))
    assert worst <= 1e-7


def test_pdd_exact_linear_example():
    z = Stencil.from_dict({(0, 0): (0.0, 0.0, 1.0), (0, 1): (0.0, 1.0, 3.0)})
    f = make_field(phi=lambda t, x, u: u)
    d = prolonged_directional_derivative(lambda s: s.u(0, 1) - s.u(0, 0), f, z)
    assert d == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# difference symmetry checker (dpKdV)
# ---------------------------------------------------------------------------

def _dpkdv_E(z):
    return z.u(1, 1) - z.u(0, 0) - 1.0 / (z.u(0, 1) - z.u(1, 0))


_DPKDV_OFFSETS = [(0, 0), (0, 1), (1, 0), (1, 1)]
_dpkdv_adm = lambda z: abs(z.u(0, 1) - z.u(1, 0)) > 0.3


def test_dpkdv_generators_pass():
    for f in dpkdv_generators():
        rep = check_difference_symmetry(
            _dpkdv_E, f, 40, 1e-7,
            offsets=_DPKDV_OFFSETS, solve_offset=(1, 1),
            admissible=_dpkdv_adm, seed=3,
        )
        assert rep.passed, (f.name, rep.max_abs_derivative)


def test_dpkdv_unweighted_dilation_fails():
    bad = make_field(phi=lambda t, x, u: u, name="no_sign")
    rep = check_difference_symmetry(
        _dpkdv_E, bad, 40, 1e-7,
        offsets=_DPKDV_OFFSETS, solve_offset=(1, 1),
        admissible=_dpkdv_adm, seed=3,
    )
    assert not rep.passed
    # on the solution set the derivative is 2/(u^n_{i+1} - u^{n+1}_i):
    # confirm against the worst sample reported
    z = rep.worst_sample
    predicted = 2.0 / (z.u(0, 1) - z.u(1, 0))
    d = prolonged_directional_derivative(_dpkdv_E, bad, z)
    assert d == pytest.approx(predicted, rel=1e-5)


def test_linear_scheme_shift_symmetry():
    E = lambda z: z.u(0, 1) - z.u(0, 0)
    f = make_field(phi=lambda t, x, u: 1.0)
    rep = check_difference_symmetry(
        E, f, 20, 1e-7, offsets=[(0, 0), (0, 1)], solve_offset=(0, 1), seed=9)
    assert rep.passed


def test_projection_failure_reported():
    E = lambda z: 1.0 + z.u(0, 1) ** 2  # no real root
    f = make_field(phi=lambda t, x, u: 1.0)
    with pytest.raises(ProjectionFailure):
        check_difference_symmetry(
            E, f, 5, 1e-7, offsets=[(0, 0), (0, 1)], solve_offset=(0, 1),
            seed=1, max_resample=10)


# ---------------------------------------------------------------------------
# Lie matrix rank
# ---------------------------------------------------------------------------

def _three_point(rng, on_locus=False):
    x = rand_mesh_row(rng, 3)
    u0, u1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
    if on_locus:
        u2 = u1 + (x[2] - x[1]) / (x[1] - x[0]) * (u1 - u0)
    else:
        u2 = rng.uniform(-2, 2)
    return Stencil.from_dict({
        (0, -1): (0.0, x[0], u0), (0, 0): (0.0, x[1], u1), (0, 1): (0.0, x[2], u2)})


def test_lie_matrix_rank_five_generic_four_on_locus():
    rng = DeterministicRng(77)
    gens = affine_5d_generators()
    for _ in range(50):
        assert lie_matrix_rank(gens, _three_point(rng)) == 5
        assert lie_matrix_rank(gens, _three_point(rng, on_locus=True)) == 4


def test_lie_matrix_rank_single_generator():
    rng = DeterministicRng(78)
    f = make_field(phi=lambda t, x, u: 1.0)
    assert lie_matrix_rank([f], _three_point(rng)) == 1


def test_stencil_rejects_duplicate_independent_variables():
    with pytest.raises(ValueError):
        Stencil.from_dict({(0, 0): (0.0, 1.0, 2.0), (0, 1): (0.0, 1.0, 3.0)})


# ---------------------------------------------------------------------------
# property tests: stencil coefficients, construction and group laws
# ---------------------------------------------------------------------------

# every generator family of the package, the lattice-weighted dpKdV ones
# included, plus the Burgers inversion field with products of coordinates
_ALL_FIELDS = (sl2_generators() + kdv_generators() + burgers_generators()
               + affine_5d_generators() + dpkdv_generators() + [make_field(
                   xi=lambda t, x, u: t * x, eta=lambda t, x, u: t * t,
                   phi=lambda t, x, u: x - t * u, name="inversion")])

_coord = st.floats(-2.0, 2.0)


@st.composite
def _stencils(draw):
    """Stencils on up to 10 distinct offsets with distinct (t, x) per node."""
    offsets = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2)),
                            min_size=1, max_size=10, unique=True))
    nodes = {(l, j): (l + draw(st.floats(-0.4, 0.4)), j + draw(st.floats(-0.4, 0.4)),
                      draw(_coord))
             for l, j in offsets}
    return Stencil.from_dict(nodes, ref=draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))


def _reference_coeffs(field, z):
    """Per-node loop over ``field.coeffs`` at absolute lattice indices."""
    n, i = z.ref
    return [(off, val, field.coeffs(val, (n + off[0], i + off[1]))) for off, val in z.nodes]


@settings(max_examples=60, deadline=None)
@given(z=_stencils(), field=st.sampled_from(_ALL_FIELDS), eps=st.floats(-1e-3, 1e-3))
def test_perturb_stencil_matches_per_node_reference(z, field, eps):
    expected = {off: tuple(v + eps * c for v, c in zip(val, coeff))
                for off, val, coeff in _reference_coeffs(field, z)}
    moved = perturb_stencil(z, field, eps)
    assert moved.as_dict() == expected
    assert moved.ref == z.ref


@settings(max_examples=60, deadline=None)
@given(z=_stencils(), fields=st.lists(st.sampled_from(_ALL_FIELDS), min_size=1, max_size=5))
def test_lie_matrix_matches_per_node_reference(z, fields):
    expected = [[c for _off, _val, coeff in _reference_coeffs(f, z) for c in coeff]
                for f in fields]
    assert lie_matrix(fields, z).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(z=_stencils())
def test_stencil_accessors_agree_with_nodes(z):
    assert Stencil.from_dict(z.as_dict(), z.ref).nodes == z.nodes
    for (l, j), (t, x, u) in z.nodes:
        assert z.node(l, j) == (t, x, u)
        assert (z.t(l, j), z.x(l, j), z.u(l, j)) == (t, x, u)
        assert z.with_u(l, j, 7.5).node(l, j) == (t, x, 7.5)
    assert z.sup_norm() == max(abs(c) for _off, val in z.nodes for c in val)
    with pytest.raises(KeyError):
        z.node(5, 5)


@settings(max_examples=30, deadline=None)
@given(z=_stencils(), data=st.data())
def test_stencil_rejects_duplicates(z, data):
    offsets = [off for off, _ in z.nodes]
    points = [val for _, val in z.nodes]
    k = data.draw(st.integers(0, len(offsets) - 1))
    with pytest.raises(ValueError, match="distinct"):
        Stencil(tuple(offsets + [offsets[k]]), np.array(points + [points[k]]))
    t, x, _u = points[k]
    with pytest.raises(ValueError, match="share independent variables"):
        Stencil(tuple(offsets + [(9, 9)]), np.array(points + [(t, x, 1.0)]))


_lam = st.floats(-0.7, 0.7).map(math.exp)
_unit = st.floats(-1.0, 1.0)
_kdv_elements = st.builds(KdVGroupElement, _lam, _unit, _unit, _unit)
_burgers_elements = st.builds(BurgersGroupElement, _unit, _unit, _unit, st.floats(-0.7, 0.7))
_sl2_elements = st.builds(
    lambda a, b, c: SL2Element(a, b, c, (1.0 + b * c) / a),
    st.one_of(st.floats(-1.5, -0.3), st.floats(0.3, 1.5)), _unit, _unit)
_points = st.tuples(_coord, _coord, _coord)


def _close(p, q, tol=1e-12):
    return rel_err(p, q) <= tol


@settings(max_examples=80, deadline=None)
@given(g=_kdv_elements, h=_kdv_elements, k=_kdv_elements, z=_points)
def test_kdv_group_laws_property(g, h, k, z):
    assert _close(apply_kdv(g, apply_kdv(h, z)), apply_kdv(g.compose(h), z))
    assert _close(apply_kdv(g.inverse(), apply_kdv(g, z)), z)
    assert _close(g.compose(g.inverse()).params(), KdVGroupElement.identity().params())
    assert _close(g.compose(h).compose(k).params(), g.compose(h.compose(k)).params())


@settings(max_examples=80, deadline=None)
@given(g=_burgers_elements, h=_burgers_elements, k=_burgers_elements, z=_points)
def test_burgers_group_laws_property(g, h, k, z):
    assert _close(apply_burgers(g, apply_burgers(h, z)), apply_burgers(g.compose(h), z))
    assert _close(apply_burgers(g.inverse(), apply_burgers(g, z)), z)
    assert _close(g.compose(g.inverse()).params(), BurgersGroupElement.identity().params())
    assert _close(g.compose(h).compose(k).params(), g.compose(h.compose(k)).params())


@settings(max_examples=80, deadline=None)
@given(g=_sl2_elements, h=_sl2_elements, k=_sl2_elements, u=_coord)
def test_sl2_group_laws_property(g, h, k, u):
    gh = g.compose(h)
    # stay away from the poles of h, g and g h at u
    assume(min(abs(h.c * u + h.d), abs(gh.c * u + gh.d)) >= 0.2)
    assume(abs(g.c * apply_sl2(h, u) + g.d) >= 0.2)
    assert _close(apply_sl2(g, apply_sl2(h, u)), apply_sl2(gh, u), 1e-11)
    assume(abs(g.c * u + g.d) >= 0.2)
    assert _close(apply_sl2(g.inverse(), apply_sl2(g, u)), u, 1e-11)
    assert _close(g.compose(g.inverse()).params(), SL2Element.identity().params())
    assert _close(gh.compose(k).params(), g.compose(h.compose(k)).params())
