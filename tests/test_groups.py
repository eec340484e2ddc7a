"""Group actions, flows, and the infinitesimal invariance machinery."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symfd.errors import PoleError, ProjectionFailure
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
    burgers_generators,
    kdv_generators,
    lie_matrix,
    lie_matrix_rank,
    make_field,
    prolonged_directional_derivative,
    _STEP,
)
from symfd.invariants import cross_ratio
from symfd.rng import DeterministicRng

from _helpers import (
    burgers_elements,
    field_coeffs,
    flow,
    kdv_elements,
    rand_admissible_window,
    rand_burgers_element,
    rand_kdv_element,
    rand_mesh_row,
    rand_sl2,
    rel_err,
    sl2_generators,
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
    # c u + d vanishes relative to its terms, not below an absolute size: a
    # scaling by 2^100 has d = 2^-50 and no pole at u = 1
    assert apply_sl2(SL2Element(2.0**50, 0.0, 0.0, 2.0**-50), 1.0) == 2.0**100
    with pytest.raises(PoleError):
        apply_sl2(SL2Element(1.0, 0.0, 1.0, 1.0 + 2.0**-52), -1.0)


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
# flows (the test oracle of the closed-form actions)
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
    with pytest.raises(OverflowError):
        flow(grow, (0.0, 0.0, 1.0), 1.5)  # pole of du/de = u^2 at e = 1


def test_flow_respects_lattice_weight():
    alt = dpkdv_generators()[0]  # (-1)^(n+i) u d/du
    u0 = 0.8
    up = flow(alt, (0.0, 0.0, u0), 0.5, index=(0, 0))[2]
    dn = flow(alt, (0.0, 0.0, u0), 0.5, index=(0, 1))[2]
    assert up == pytest.approx(u0 * math.exp(0.5), abs=1e-10)
    assert dn == pytest.approx(u0 * math.exp(-0.5), abs=1e-10)


def _apply_sl2_on_u(g: SL2Element, z):
    return (z[0], z[1], apply_sl2(g, z[2]))


# each generator with its one-parameter element: exp(eps v) z = g(eps) z
_KDV_FIELDS, _BURGERS_FIELDS, _SL2_FIELDS = kdv_generators(), burgers_generators(), sl2_generators()
_FLOW_CLOSED_FORMS = {
    "kdv_shift_x": (_KDV_FIELDS[0], lambda e: KdVGroupElement(1.0, 0.0, e, 0.0), apply_kdv),
    "kdv_shift_t": (_KDV_FIELDS[1], lambda e: KdVGroupElement(1.0, 0.0, 0.0, e), apply_kdv),
    "kdv_boost": (_KDV_FIELDS[2], lambda e: KdVGroupElement(1.0, e, 0.0, 0.0), apply_kdv),
    "kdv_scale": (_KDV_FIELDS[3], lambda e: KdVGroupElement(math.exp(e)), apply_kdv),
    "burgers_shift_x": (_BURGERS_FIELDS[0], lambda e: BurgersGroupElement(eps1=e), apply_burgers),
    "burgers_shift_t": (_BURGERS_FIELDS[1], lambda e: BurgersGroupElement(eps2=e), apply_burgers),
    "burgers_boost": (_BURGERS_FIELDS[2], lambda e: BurgersGroupElement(eps3=e), apply_burgers),
    "burgers_scale": (_BURGERS_FIELDS[3], lambda e: BurgersGroupElement(eps4=e), apply_burgers),
    "shift_u": (_SL2_FIELDS[0], lambda e: SL2Element(1.0, e, 0.0, 1.0), _apply_sl2_on_u),
    "dilate_u": (_SL2_FIELDS[1], lambda e: SL2Element(math.exp(e / 2), 0.0, 0.0, math.exp(-e / 2)),
                 _apply_sl2_on_u),
    "special_u": (_SL2_FIELDS[2], lambda e: SL2Element(1.0, 0.0, -e, 1.0), _apply_sl2_on_u),
}


@pytest.mark.parametrize("name", sorted(_FLOW_CLOSED_FORMS))
@settings(max_examples=30)
@given(node=st.tuples(*[st.floats(-2.0, 2.0)] * 3), eps=st.floats(-1.0, 1.0))
def test_flow_equals_the_one_parameter_element_property(name, node, eps):
    field, element, apply = _FLOW_CLOSED_FORMS[name]
    if name == "special_u":
        assume(abs(eps * node[2]) <= 0.4)  # keep away from the pole u = 1/eps
    want = apply(element(eps), node)
    got = flow(field, node, eps)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10 * (1.0 + abs(w))


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
    assert worst <= 1e-11


def test_pdd_exact_linear_example():
    z = Stencil.from_dict({(0, 0): (0.0, 0.0, 1.0), (0, 1): (0.0, 1.0, 3.0)})
    f = make_field(phi=lambda t, x, u: u)
    d = prolonged_directional_derivative(lambda s: s.u(0, 1) - s.u(0, 0), f, z)
    assert d == 2.0


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
            _dpkdv_E, f, 40, 1e-12,
            offsets=_DPKDV_OFFSETS, solve_offset=(1, 1),
            admissible=_dpkdv_adm, seed=3,
        )
        assert rep.passed, (f.name, rep.max_abs_derivative)


def test_dpkdv_unweighted_dilation_fails():
    bad = make_field(phi=lambda t, x, u: u, name="no_sign")
    rep = check_difference_symmetry(
        _dpkdv_E, bad, 40, 1e-12,
        offsets=_DPKDV_OFFSETS, solve_offset=(1, 1),
        admissible=_dpkdv_adm, seed=3,
    )
    assert not rep.passed
    # on the solution set the derivative is 2/(u^n_{i+1} - u^{n+1}_i):
    # confirm against the worst sample reported
    z = rep.worst_sample
    predicted = 2.0 / (z.u(0, 1) - z.u(1, 0))
    d = prolonged_directional_derivative(_dpkdv_E, bad, z)
    assert d == pytest.approx(predicted, rel=1e-13)


def test_linear_scheme_shift_symmetry():
    E = lambda z: z.u(0, 1) - z.u(0, 0)
    f = make_field(phi=lambda t, x, u: 1.0)
    rep = check_difference_symmetry(
        E, f, 20, 1e-12, offsets=[(0, 0), (0, 1)], solve_offset=(0, 1), seed=9)
    assert rep.passed


def test_projection_failure_reported():
    E = lambda z: 1.0 + z.u(0, 1) ** 2  # no real root
    f = make_field(phi=lambda t, x, u: 1.0)
    with pytest.raises(ProjectionFailure):
        check_difference_symmetry(
            E, f, 5, 1e-7, offsets=[(0, 0), (0, 1)], solve_offset=(0, 1),
            seed=1)


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
    """Per-node loop over ``field_coeffs`` at absolute lattice indices."""
    n, i = z.ref
    return [(off, val, field_coeffs(field, val, (n + off[0], i + off[1])))
            for off, val in zip(z.offsets, z.points.tolist())]


def _moved_stencils(field, z):
    """The one (complex) stencil prolonged_directional_derivative hands to F."""
    seen = []
    prolonged_directional_derivative(lambda s: seen.append(s) or 0j, field, z)
    return seen


@settings(max_examples=60)
@given(z=_stencils(), field=st.sampled_from(_ALL_FIELDS))
def test_perturb_stencil_matches_per_node_reference(z, field):
    [moved] = _moved_stencils(field, z)
    # the real part is z bit for bit; the imaginary part is h times each
    # node's (eta, xi, phi), weighted at the node's absolute lattice index
    assert moved.points.real.tobytes() == z.points.tobytes()
    assert moved.points.imag.tolist() == [[_STEP * c for c in coeff]
                                          for _off, _val, coeff in _reference_coeffs(field, z)]
    assert moved.offsets == z.offsets and moved.ref == z.ref
    for (l, j), (_t, _x, u) in zip(z.offsets, moved.points.tolist()):
        assert type(moved.u(l, j)) is complex and moved.u(l, j) == u


@settings(max_examples=60)
@given(z=_stencils(), fields=st.lists(st.sampled_from(_ALL_FIELDS), min_size=1, max_size=5))
def test_lie_matrix_matches_per_node_reference(z, fields):
    expected = [[c for _off, _val, coeff in _reference_coeffs(f, z) for c in coeff]
                for f in fields]
    assert lie_matrix(fields, z).tolist() == expected


@settings(max_examples=40)
@given(z=_stencils())
def test_stencil_accessors_agree_with_nodes(z):
    nodes = dict(zip(z.offsets, z.points.tolist()))
    assert Stencil.from_dict(nodes, z.ref).points.tolist() == z.points.tolist()
    for (l, j), (t, x, u) in nodes.items():
        assert z.u(l, j) == u
        assert z.take([(l, j)]).tolist() == [[t, x, u]]
        assert z.with_u(l, j, 7.5).take([(l, j)]).tolist() == [[t, x, 7.5]]
    assert z.sup_norm() == max(abs(c) for val in nodes.values() for c in val)
    with pytest.raises(KeyError):
        z.u(5, 5)


@settings(max_examples=30)
@given(z=_stencils(), data=st.data())
def test_stencil_rejects_duplicates(z, data):
    offsets = list(z.offsets)
    points = z.points.tolist()
    k = data.draw(st.integers(0, len(offsets) - 1))
    with pytest.raises(ValueError, match="distinct"):
        Stencil(tuple(offsets + [offsets[k]]), np.array(points + [points[k]]))
    t, x, _u = points[k]
    with pytest.raises(ValueError, match="share independent variables"):
        Stencil(tuple(offsets + [(9, 9)]), np.array(points + [(t, x, 1.0)]))


@settings(max_examples=60)
@given(z=_stencils(), field=st.sampled_from(_ALL_FIELDS),
       ref=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda r: r != (0, 0)))
def test_prolonged_derivative_equals_its_closed_form(z, field, ref):
    z = Stencil(z.offsets, z.points, ref)
    F = lambda s: np.sin(s.points).ravel() * s.points[::-1].ravel()  # noqa: E731
    p, q = z.points.ravel(), z.points[::-1].ravel()
    c = np.array([coeff for _off, _val, coeff in _reference_coeffs(field, z)])
    dp, dq = c.ravel(), c[::-1].ravel()
    terms = np.cos(p) * dp * q, np.sin(p) * dq
    got = prolonged_directional_derivative(F, field, z)
    # h c is exact unless |c| < 2^-958, where it leaves the normal floats and
    # loses at most 2^-1075 / h = 2^-1011 per unit of the other factor
    scale = np.abs(terms[0]) + np.abs(terms[1])
    assert np.all(np.abs(got - (terms[0] + terms[1])) <= 1e-13 * scale + 2.0**-1000)


@settings(max_examples=30)
@given(z=_stencils(), field=st.sampled_from(_ALL_FIELDS))
def test_moved_stencils_are_read_only_and_keep_the_offsets(z, field):
    l, j = z.offsets[0]
    for moved in _moved_stencils(field, z) + [z.with_u(l, j, 7.5)]:
        assert moved.offsets == z.offsets and moved.ref == z.ref
        assert not moved.points.flags.writeable
        with pytest.raises(ValueError):
            moved.points[0, 2] = 0.0
        assert moved.take(z.offsets).tolist() == moved.points.tolist()


def test_a_huge_field_moves_no_real_node():
    z = Stencil.from_dict({(0, -1): (0.0, 0.0, 1.0), (0, 0): (0.0, 1.0, 2.0),
                           (0, 1): (0.0, 2.0, 3.0)})
    # a real move of 4e24 in x rounds every x of the stencil to the same value
    with pytest.raises(ValueError, match="^nodes \\(0, -1\\) and \\(0, 0\\) share independent"):
        Stencil(z.offsets, z.points + [0.0, 4e24, 0.0])
    # the complex step moves x only in its imaginary part, so a linear F
    # reads the exact derivative
    far = make_field(xi=lambda t, x, u: 1e30)
    assert prolonged_directional_derivative(lambda s: 3.0 * s.points[2, 1], far, z) == 3.0 * 1e30


@pytest.mark.parametrize("F", [
    lambda s: abs(s.u(0, 0)),
    lambda s: float(s.u(0, 0)),
    lambda s: s.points.real.sum(),
    lambda s: np.abs(s.points).max(),
    lambda s: 1.0 if s.u(0, 0).real > 0.0 else 0.0,
], ids=["abs", "float", "real", "np_abs", "branch"])
def test_prolonged_derivative_of_a_non_holomorphic_F_is_a_type_error(F):
    z = Stencil.from_dict({(0, 0): (0.0, 0.0, 1.0), (0, 1): (0.0, 1.0, 3.0)})
    field = make_field(phi=lambda t, x, u: u)
    with pytest.raises(TypeError):
        prolonged_directional_derivative(F, field, z)
    # the projection's Newton slope is a complex step too
    with pytest.raises(TypeError):
        check_difference_symmetry(F, field, 1, 1.0, offsets=[(0, 0), (0, 1)],
                                  solve_offset=(0, 0))


_unit = st.floats(-1.0, 1.0)
_sl2_elements = st.builds(
    lambda a, b, c: SL2Element(a, b, c, (1.0 + b * c) / a),
    st.one_of(st.floats(-1.5, -0.3), st.floats(0.3, 1.5)), _unit, _unit)
_points = st.tuples(_coord, _coord, _coord)


def _close(p, q, tol=1e-12):
    return rel_err(p, q) <= tol


@settings(max_examples=80)
@given(g=kdv_elements, h=kdv_elements, k=kdv_elements, z=_points)
def test_kdv_group_laws_property(g, h, k, z):
    assert _close(apply_kdv(g, apply_kdv(h, z)), apply_kdv(g.compose(h), z))
    assert _close(apply_kdv(g.inverse(), apply_kdv(g, z)), z)
    assert _close(g.compose(g.inverse()).params(), (1.0, 0.0, 0.0, 0.0))
    assert _close(g.compose(h).compose(k).params(), g.compose(h.compose(k)).params())


@settings(max_examples=80)
@given(g=burgers_elements, h=burgers_elements, k=burgers_elements, z=_points)
def test_burgers_group_laws_property(g, h, k, z):
    assert _close(apply_burgers(g, apply_burgers(h, z)), apply_burgers(g.compose(h), z))
    assert _close(apply_burgers(g.inverse(), apply_burgers(g, z)), z)
    assert _close(g.compose(g.inverse()).params(), (0.0, 0.0, 0.0, 0.0))
    assert _close(g.compose(h).compose(k).params(), g.compose(h.compose(k)).params())


@settings(max_examples=80)
@given(g=_sl2_elements, h=_sl2_elements, k=_sl2_elements, u=_coord)
def test_sl2_group_laws_property(g, h, k, u):
    gh = g.compose(h)
    # stay away from the poles of h, g and g h at u
    assume(min(abs(h.c * u + h.d), abs(gh.c * u + gh.d)) >= 0.2)
    assume(abs(g.c * apply_sl2(h, u) + g.d) >= 0.2)
    assert _close(apply_sl2(g, apply_sl2(h, u)), apply_sl2(gh, u), 1e-11)
    assume(abs(g.c * u + g.d) >= 0.2)
    assert _close(apply_sl2(g.inverse(), apply_sl2(g, u)), u, 1e-11)
    assert _close(g.compose(g.inverse()).params(), (1.0, 0.0, 0.0, 1.0))
    assert _close(gh.compose(k).params(), g.compose(h.compose(k)).params())
