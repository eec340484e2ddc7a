"""Shared random constructors and hypothesis strategies for the test suite.

The constructors draw through the package's deterministic generator so
every test that uses them is reproducible bit for bit.  Sampling policy:
u values uniform on [-2, 2], mesh spacings uniform on [0.1, 2], scale
parameters log-uniform within a factor ~2 of unity.  The element
strategies follow the same policy.
"""

import math

import numpy as np
from hypothesis import strategies as st

from symfd.groups import (
    BurgersGroupElement,
    KdVGroupElement,
    SL2Element,
    prolonged_directional_derivative,
)
from symfd.invariants import BurgersStencil, KdVStencil
from symfd.rng import DeterministicRng


_unit = st.floats(-1.0, 1.0)
kdv_elements = st.builds(KdVGroupElement, st.floats(-0.7, 0.7).map(math.exp), _unit, _unit, _unit)
burgers_elements = st.builds(BurgersGroupElement, _unit, _unit, _unit, st.floats(-0.7, 0.7))


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
