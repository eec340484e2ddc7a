"""Shared random constructors, hypothesis strategies and oracles for the test suite.

The constructors draw through the package's deterministic generator so
every test that uses them is reproducible bit for bit.  Sampling policy:
u values uniform on [-2, 2], mesh spacings uniform on [0.1, 2], scale
parameters log-uniform within a factor ~2 of unity.  The element
strategies follow the same policy.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from symfd.groups import (
    BurgersGroupElement,
    KdVGroupElement,
    SL2Element,
    apply_burgers,
    apply_kdv,
    make_field,
    prolonged_directional_derivative,
)
from symfd.invariants import BurgersStencil, KdVStencil
from symfd.rng import DeterministicRng
from symfd.schemes import rk_adaptive_solve


_unit = st.floats(-1.0, 1.0)
kdv_elements = st.builds(KdVGroupElement, st.floats(-0.7, 0.7).map(math.exp), _unit, _unit, _unit)
burgers_elements = st.builds(BurgersGroupElement, _unit, _unit, _unit, st.floats(-0.7, 0.7))

# scale factors 2^j, which floating point applies exactly: far outside the
# sampled scales, at spacings far below 1e-14 (j = -50, -60) and far above 1
POWER_OF_TWO_SCALES = tuple(2.0**j for j in (-60, -50, 60))

# a window's values are multiples of 2^-19 in [-2, 2]: scaled by 2^m, every
# value, difference and quotient of differences the cross-ratio forms stays a
# normal float for |m| <= 1000, and every product a Schwarzian step forms
# for |m| <= 60
WINDOW_VALUES = st.integers(-2**20, 2**20).map(lambda n: math.ldexp(n, -19))


def rand_sl2(rng: DeterministicRng) -> SL2Element:
    while True:
        a = rng.uniform(-1.5, 1.5)
        if abs(a) < 0.3:
            continue
        b = rng.uniform(-1.0, 1.0)
        c = rng.uniform(-1.0, 1.0)
        return SL2Element(a, b, c, (1.0 + b * c) / a)


def rand_sl2_safe(rng: DeterministicRng, values, margin=0.2) -> SL2Element:
    """Mobius element whose poles stay away from the given u values."""
    while True:
        g = rand_sl2(rng)
        if min(abs(g.c * v + g.d) for v in values) >= margin:
            return g


def rand_kdv_element(rng: DeterministicRng) -> KdVGroupElement:
    return KdVGroupElement(
        math.exp(rng.uniform(-0.7, 0.7)),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
    )


def rand_burgers_element(rng: DeterministicRng) -> BurgersGroupElement:
    return BurgersGroupElement(
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-0.7, 0.7),
    )


def rand_window(rng: DeterministicRng, n=4, lo=-2.0, hi=2.0):
    """n values with nonzero consecutive differences (random signs)."""
    u = [rng.uniform(lo, hi)]
    for _ in range(n - 1):
        u.append(u[-1] + rng.choice_sign() * rng.uniform(0.1, 2.0))
    return u


def rand_admissible_window(rng: DeterministicRng):
    """Four values with the cross-ratio denominators bounded away from zero."""
    while True:
        u = rand_window(rng)
        if abs(u[2] - u[0]) >= 0.05 and abs(u[3] - u[1]) >= 0.05:
            return u


def rand_mesh_row(rng: DeterministicRng, n: int, start=None) -> np.ndarray:
    x = [rng.uniform(-1.0, 1.0) if start is None else start]
    for _ in range(n - 1):
        x.append(x[-1] + rng.uniform(0.1, 2.0))
    return np.array(x)


def rand_kdv_stencil(rng: DeterministicRng) -> KdVStencil:
    x = np.vstack([rand_mesh_row(rng, 5), rand_mesh_row(rng, 5)])
    u = np.array([[rng.uniform(-2.0, 2.0) for _ in range(5)] for _ in range(2)])
    return KdVStencil(rng.uniform(0.1, 2.0), x, u, rng.uniform(-1.0, 1.0))


def rand_burgers_stencil(rng: DeterministicRng) -> BurgersStencil:
    x = np.vstack([rand_mesh_row(rng, 3), rand_mesh_row(rng, 3)])
    u = np.array([[rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(2)])
    return BurgersStencil(rng.uniform(0.1, 2.0), x, u, rng.uniform(-1.0, 1.0))


def rel_err(a, b) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def worst_catalog_derivative(vector, cls, gens, z) -> float:
    """Largest |prolonged derivative| over a whole invariant catalog at the
    generic stencil ``z``: one array-valued F per generator, not one per name."""
    F = lambda s: vector(cls.from_stencil(s))  # noqa: E731
    return max(float(np.max(np.abs(prolonged_directional_derivative(F, f, z)))) for f in gens)


# ---------------------------------------------------------------------------
# oracles: independent, per-node or integrated forms of production paths
# ---------------------------------------------------------------------------

def field_coeffs(field, node, index=(0, 0)):
    """(eta, xi, phi) of ``field`` at one (t, x, u) node, times its lattice
    weight at the node's offset ``index``."""
    t, x, u = node
    w = 1.0 if field.weight is None else field.weight(*index)
    return (w * field.eta(t, x, u), w * field.xi(t, x, u), w * field.phi(t, x, u))


def sl2_generators():
    """Generators of the Mobius action: d/du, u d/du, u^2 d/du."""
    return [
        make_field(phi=lambda t, x, u: 1.0, name="shift_u"),
        make_field(phi=lambda t, x, u: u, name="dilate_u"),
        make_field(phi=lambda t, x, u: u * u, name="special_u"),
    ]


def flow(field, node, epsilon, index=(0, 0)):
    """exp(epsilon field) . node: the oracle of the closed-form group actions.

    exp(epsilon v) z solves dz/de = v(z), integrated as dz/ds = epsilon v(z)
    over s in [0, 1] (so a tiny epsilon cannot trip the step-underflow test)
    by rk_adaptive_solve at relative tolerance 1e-13.  Raises OverflowError
    when that trajectory diverges.
    """
    if epsilon == 0.0:
        return node
    traj = rk_adaptive_solve(lambda _s, z: [epsilon * c for c in field_coeffs(field, tuple(z), index)],
                             node, (0.0, 1.0), 1e-13)
    if traj.diverged:
        raise OverflowError(f"flow diverged at parameter {traj.xs[-1] * epsilon:g}")
    return tuple(traj.ys[-1].tolist())


def apply_kdv_stencil(g, z):
    """The KdV element g applied to every node of the two-row stencil z."""
    t_rows = z.t0 + z.k * np.array([[0.0], [1.0]])  # broadcast against z.x
    _, x, u = apply_kdv(g, (t_rows, z.x, z.u))
    return KdVStencil(g.lam**3 * z.k, x, u, g.lam**3 * z.t0 + g.b)


def apply_burgers_stencil(g, z):
    """The Burgers element g applied to every node of the two-row stencil z."""
    s = math.exp(g.eps4)
    t_rows = z.t0 + z.k * np.array([[0.0], [1.0]])  # broadcast against z.x
    _, x, u = apply_burgers(g, (t_rows, z.x, z.u))
    return BurgersStencil(s**2 * z.k, x, u, s**2 * (z.t0 + g.eps2))


def equidistributed_exact(delta, a, b):
    """Exact nodes of the equidistribution system for the float weights
    ``delta`` on [a, b], in rational arithmetic: the oracle of
    ``mesh.equidistribute``.

    The relation -w_{i-1} x_{i-1} + (w_{i-1} + w_i) x_i - w_i x_{i+1} = 0 for
    i = 1..n-2, with w_m = (d_m + d_{m+1})/2 and x_0 = a, x_{n-1} = b, is
    eliminated row by row as written (the Thomas algorithm, which needs no
    pivoting in exact arithmetic).
    """
    d = [Fraction(v) for v in delta]
    w = [(d[m] + d[m + 1]) / 2 for m in range(len(d) - 1)]
    # forward sweep: x_i = c[i] x_{i+1} + e[i], starting from x_0 = a
    c, e = [Fraction(0)], [Fraction(a)]
    for i in range(1, len(d) - 1):
        piv = w[i - 1] + w[i] - w[i - 1] * c[-1]
        c.append(w[i] / piv)
        e.append(w[i - 1] * e[-1] / piv)
    x = [Fraction(b)]
    for i in reversed(range(1, len(d) - 1)):
        x.append(c[i] * x[-1] + e[i])
    x.append(Fraction(a))
    return x[::-1]


def equidistribution_residual(delta, x_next) -> float:
    """max_i |w_{i+1/2} dx_i - w_{i-1/2} dx_{i-1}| / (max d (b - a)), with
    w_{i+1/2} = (d_i + d_{i+1})/2, over every row of a (B, n) batch: how
    far the nodes x_next are from equidistributing the weights ``delta``,
    the oracle of ``mesh.equidistribute``'s accuracy."""
    d, x = np.asarray(delta, dtype=float), np.asarray(x_next, dtype=float)
    p = 0.5 * (d[..., 1:] + d[..., :-1]) * np.diff(x, axis=-1)
    scale = d.max(axis=-1) * (x[..., -1] - x[..., 0])
    return float((np.abs(np.diff(p, axis=-1)).max(axis=-1) / scale).max())


def third_differences(x, u) -> np.ndarray:
    """Nonuniform third differences D3u_1 .. D3u_{n-3} of each row, node by
    node on Python floats from the definition
    D3u_i = (2/h_i) [(Du_{i+1}-Du_i)/(h_{i+1}+h_i) - (Du_i-Du_{i-1})/(h_i+h_{i-1})]
    with h_i = x_{i+1} - x_i and Du_i = (u_{i+1} - u_i)/h_i: the oracle of
    ``GridState.d3u``, with the same operations in the same order."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if x.ndim > 1:
        return np.array([third_differences(xr, ur) for xr, ur in zip(x, u)])
    xs, us = x.tolist(), u.tolist()
    h = [b - a for a, b in zip(xs, xs[1:])]
    du = [(b - a) / hm for a, b, hm in zip(us, us[1:], h)]
    return np.array([2.0 / h[i] * ((du[i + 1] - du[i]) / (h[i + 1] + h[i])
                                   - (du[i] - du[i - 1]) / (h[i] + h[i - 1]))
                     for i in range(1, len(xs) - 2)])


def _kdv_rows(state):
    """Slopes and third differences of a state, each formed from its x and u."""
    x, u = state.x, state.u
    return np.diff(u, axis=-1) / np.diff(x, axis=-1), third_differences(x, u)


def kdv_residual_6pt_reference(prev, nxt, k) -> np.ndarray:
    """The six-point KdV residual, nodes 2..N-3, written out term by term:
    the oracle of ``schemes.kdv_residual_6pt``, with the same operations in
    the same order."""
    u0, u1 = prev.u, nxt.u
    du0, d30 = _kdv_rows(prev)
    sig = nxt.x - prev.x
    return (
        (u1[..., 2:-2] - u0[..., 2:-2]) / k
        + (u0[..., 2:-2] - sig[..., 2:-2] / k) * (du0[..., 2:-1] + du0[..., 1:-2]) / 2.0
        + (d30[..., 1:] + d30[..., :-1]) / 2.0
    )


def kdv_residual_10pt_reference(prev, nxt, k) -> np.ndarray:
    """The ten-point KdV residual, nodes 2..N-3, written out term by term:
    the oracle of ``schemes.kdv_residual_10pt``, with the same operations in
    the same order."""
    u0, u1 = prev.u, nxt.u
    du0, d30 = _kdv_rows(prev)
    du1, d31 = _kdv_rows(nxt)
    sig = nxt.x - prev.x
    return (
        (u1[..., 2:-2] - u0[..., 2:-2]) / k
        + (u0[..., 2:-2] - sig[..., 2:-2] / k)
        * (du0[..., 2:-1] + du0[..., 1:-2] + du1[..., 2:-1] + du1[..., 1:-2]) / 4.0
        + (d31[..., 1:] + d31[..., :-1] + d30[..., 1:] + d30[..., :-1]) / 4.0
    )
