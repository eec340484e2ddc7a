"""Concrete symmetry group actions, generators and invariance checks.

Three transformation families act on points (t, x, u):

* ``SL2Element`` -- the fractional linear (Mobius) action on u alone,
  U = (a u + b)/(c u + d) with ad - bc = 1.  This is the symmetry group of
  the Schwarzian ODE.
* ``KdVGroupElement`` -- scalings, Galilean boosts and shifts,
  T = lam^3 t + b,  X = lam x + lam^3 v t + a,  U = u / lam^2 + v.
  The x-tilt carries the factor lam^3 so that composing a scaling with a
  boost stays inside the four-parameter family; v is the velocity added to
  u.  One-parameter boosts (lam = 1) reduce to X = x + v t, U = u + v.
* ``BurgersGroupElement`` -- the four-parameter subgroup
  shift-x, shift-t, boost, log-scale acting as the ordered product
  scale o boost o shift:
  T = e^{2 e4} (t + e2),  X = e^{e4} (x + e1 + e3 (t + e2)),
  U = e^{-e4} (u + e3).

Each element knows how to compose with and invert against its own family,
so group-law checks can be phrased directly on parameters.  Infinitesimal
generators are represented by :class:`VectorFieldSpec`; their prolongation
to a stencil moves every node along the same generator.

The infinitesimal invariance criterion pr v(F) = 0 is evaluated by a complex
step (Squire & Trapp, SIAM Rev. 40 (1998) 110): pr v(F)(z) = Im F(z + i h c)/h,
where c holds the generator's coefficients at the nodes and h = 2^-64.  One
evaluation of F gives the derivative to rounding, with no step to trade
truncation against cancellation, so F must be holomorphic in the stencil's
coordinates: built from +, -, *, / and analytic functions of them.  An F
that goes through ``abs``, ``float()``, ``.real``, a comparison, or returns a
constant drops the imaginary part, and the derivative raises TypeError
rather than read a silent 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import PoleError, ProjectionFailure, _cancels
from .rng import DeterministicRng

Node = tuple[float, float, float]  # (t, x, u)
_STEP = 2.0**-64  # the complex step: a power of two, so h c and Im / h are exact
_MAX_RESAMPLE = 200  # draws a symmetry check may reject, beyond ten per sample


def sign_pos(x: float) -> float:
    """sign with the convention sign(0) = +1, keeping branches total."""
    return 1.0 if x >= 0.0 else -1.0


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SL2Element:
    """Unimodular 2x2 matrix acting on u by fractional linear maps.

    The determinant is rescaled to one at construction; a negative
    determinant cannot be repaired by real rescaling and is rejected.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det <= 0.0 or not math.isfinite(det):
            raise ValueError(f"SL2Element needs ad - bc > 0, got {det}")
        s = 1.0 / math.sqrt(det)
        object.__setattr__(self, "a", self.a * s)
        object.__setattr__(self, "b", self.b * s)
        object.__setattr__(self, "c", self.c * s)
        object.__setattr__(self, "d", self.d * s)

    def compose(self, other: "SL2Element") -> "SL2Element":
        """Matrix product self * other (self applied after other)."""
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a)

    def params(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def apply_sl2(g: SL2Element, u: float) -> float:
    """Fractional linear action (a u + b)/(c u + d); PoleError where c u + d vanishes."""
    den = g.c * u + g.d
    if _cancels(den, g.c * u, g.d):
        raise PoleError(f"Mobius map evaluated at pole: cu + d = {den}")
    return (g.a * u + g.b) / den


@dataclass(frozen=True, slots=True)
class KdVGroupElement:
    """Element (lam, v, a, b): scaling, boost velocity, space and time shift."""

    lam: float
    v: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"scaling parameter must be positive, got {self.lam}")

    def compose(self, other: "KdVGroupElement") -> "KdVGroupElement":
        """self applied after other."""
        lam, v, a, b = self.lam, self.v, self.a, self.b
        mu, w, c, d = other.lam, other.v, other.a, other.b
        return KdVGroupElement(
            lam * mu,
            w / lam**2 + v,
            lam * c + lam**3 * v * d + a,
            lam**3 * d + b,
        )

    def inverse(self) -> "KdVGroupElement":
        lam, v, a, b = self.lam, self.v, self.a, self.b
        return KdVGroupElement(1.0 / lam, -(lam**2) * v, (v * b - a) / lam, -b / lam**3)

    def params(self) -> tuple[float, float, float, float]:
        return (self.lam, self.v, self.a, self.b)


# The point actions are written once, as an image of (t, x, u) under an
# element's factors, so that the same arithmetic serves one element on
# scalars or arrays and a batch of elements on (B, n) arrays: there the
# factors are stacked into (B, 1) columns (``_batch_factors``).  Powers are
# Python float powers; numpy's array powers can differ in the last bit.

def apply_kdv(g: KdVGroupElement, node: Node) -> Node:
    return _kdv_image(_kdv_factors(g), *node)


def _kdv_factors(g: KdVGroupElement) -> tuple[float, ...]:
    """lam, lam^2, lam^3, v, a, b."""
    lam = g.lam
    return (lam, lam**2, lam**3, g.v, g.a, g.b)


def _kdv_image(f, t, x, u) -> Node:
    lam, lam2, lam3, v, a, b = f
    return lam3 * t + b, lam * x + lam3 * v * t + a, u / lam2 + v


@dataclass(frozen=True, slots=True)
class BurgersGroupElement:
    """Element (e1, e2, e3, e4): shift-x, shift-t, boost, log-scale."""

    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    eps4: float = 0.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "eps3", "eps4"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def compose(self, other: "BurgersGroupElement") -> "BurgersGroupElement":
        """self applied after other."""
        s = math.exp(other.eps4)  # scale factor of the inner element
        e1, e2, e3, e4 = self.eps1, self.eps2, self.eps3, self.eps4
        f1, f2, f3, f4 = other.eps1, other.eps2, other.eps3, other.eps4
        return BurgersGroupElement(
            f1 + e1 / s - f3 * e2 / s**2,
            f2 + e2 / s**2,
            f3 + e3 * s,
            e4 + f4,
        )

    def inverse(self) -> "BurgersGroupElement":
        s = math.exp(self.eps4)
        return BurgersGroupElement(
            -s * (self.eps1 + self.eps2 * self.eps3),
            -(s**2) * self.eps2,
            -self.eps3 / s,
            -self.eps4,
        )

    def params(self) -> tuple[float, float, float, float]:
        return (self.eps1, self.eps2, self.eps3, self.eps4)


def apply_burgers(g: BurgersGroupElement, node: Node) -> Node:
    return _burgers_image(_burgers_factors(g), *node)


def _burgers_factors(g: BurgersGroupElement) -> tuple[float, ...]:
    """s, s^2, eps1, eps2, eps3 with s = exp(eps4)."""
    s = math.exp(g.eps4)
    return (s, s**2, g.eps1, g.eps2, g.eps3)


def _burgers_image(f, t, x, u) -> Node:
    s, s2, e1, e2, e3 = f
    return s2 * (t + e2), s * (x + e1 + e3 * (t + e2)), (u + e3) / s


def _batch_factors(factors, gs) -> np.ndarray:
    """The factors of each element of ``gs`` as (B, 1) columns, stacked on axis 0."""
    return np.array([factors(g) for g in gs]).T[..., None]


# ---------------------------------------------------------------------------
# vector fields and stencils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorFieldSpec:
    """An infinitesimal generator xi d/dx + eta d/dt + phi d/du.

    The coefficients are functions of (t, x, u).  They are called on the
    (t, x, u) columns of a stencil by :func:`prolonged_directional_derivative`
    and :func:`lie_matrix`, so they must work on numpy arrays (a constant may
    be returned as a scalar).  ``weight`` is an optional multiplicative
    lattice factor w(n, i) used by generators whose coefficients alternate
    with the multi-index (e.g. the dpKdV dilations); it multiplies all three
    coefficients at a node with absolute index (n, i).
    """

    xi: Callable[[float, float, float], float]
    eta: Callable[[float, float, float], float]
    phi: Callable[[float, float, float], float]
    weight: Callable[[int, int], float] | None = None
    name: str = ""


def _zero(t, x, u):
    return 0.0


def _one(t, x, u):
    return 1.0


def make_field(xi=None, eta=None, phi=None, weight=None, name="") -> VectorFieldSpec:
    return VectorFieldSpec(xi or _zero, eta or _zero, phi or _zero, weight, name)


def kdv_generators() -> list[VectorFieldSpec]:
    """Shift-x, shift-t, Galilean boost, scaling for the KdV dynamics."""
    return [
        make_field(xi=_one, name="shift_x"),
        make_field(eta=_one, name="shift_t"),
        make_field(xi=lambda t, x, u: t, phi=_one, name="boost"),
        make_field(
            xi=lambda t, x, u: x,
            eta=lambda t, x, u: 3.0 * t,
            phi=lambda t, x, u: -2.0 * u,
            name="scale",
        ),
    ]


def burgers_generators() -> list[VectorFieldSpec]:
    """Shift-x, shift-t, Galilean boost, scaling for the Burgers dynamics."""
    return [
        make_field(xi=_one, name="shift_x"),
        make_field(eta=_one, name="shift_t"),
        make_field(xi=lambda t, x, u: t, phi=_one, name="boost"),
        make_field(
            xi=lambda t, x, u: x,
            eta=lambda t, x, u: 2.0 * t,
            phi=lambda t, x, u: -u,
            name="scale",
        ),
    ]


def affine_5d_generators() -> list[VectorFieldSpec]:
    """The five-dimensional algebra d/dx, d/du, x d/dx, x d/du, u d/du.

    Its product action on three-point windows drops rank exactly on the
    discrete straight-line locus, which is how the weakly invariant
    second-difference equation is detected.
    """
    return [
        make_field(xi=_one, name="shift_x"),
        make_field(phi=_one, name="shift_u"),
        make_field(xi=lambda t, x, u: x, name="scale_x"),
        make_field(phi=lambda t, x, u: x, name="shear"),
        make_field(phi=lambda t, x, u: u, name="scale_u"),
    ]


def dpkdv_generators() -> list[VectorFieldSpec]:
    """Generators of the discrete potential KdV lattice equation.

    The first two alternate in sign with the lattice parity (-1)^(n+i); the
    third is a plain shift of u.
    """
    parity = lambda n, i: float((-1) ** ((n + i) % 2))
    return [
        make_field(phi=lambda t, x, u: u, weight=parity, name="alt_dilate"),
        make_field(phi=_one, weight=parity, name="alt_shift"),
        make_field(phi=_one, name="shift_u"),
    ]


@dataclass(frozen=True, eq=False)
class Stencil:
    """Finite collection of nodes approximating a discrete jet.

    ``offsets`` lists integer offset pairs (l, j) -- time shift and space
    shift relative to the reference index -- and row r of the (m, 3) array
    ``points`` holds the point (t, x, u) of node ``offsets[r]``.  The
    constructor builds the offset -> row index once; offsets must be
    distinct and no two nodes may share (t, x).  ``points`` is kept as a
    read-only view, so build a new stencil to move nodes.  The reference
    multi-index ``ref`` = (n, i) matters only for generators with
    lattice-dependent weights.

    Stencils derived from this one by moving nodes (:meth:`with_u`,
    :func:`prolonged_directional_derivative`) share its ``offsets``, ``ref``
    and row index instead of rebuilding them.  They skip the (t, x) check:
    :meth:`with_u` moves only u, and the derivative's complex stencil keeps
    this one's points as its real part.
    """

    offsets: tuple[tuple[int, int], ...]
    points: np.ndarray
    ref: tuple[int, int] = (0, 0)
    _row: dict[tuple[int, int], int] = field(init=False, repr=False)

    def __post_init__(self):
        offsets = tuple(self.offsets)
        points = np.asarray(self.points, dtype=float).view()
        if points.shape != (len(offsets), 3):
            raise ValueError(f"need one (t, x, u) row per offset, got {points.shape}")
        points.flags.writeable = False
        row = {off: r for r, off in enumerate(offsets)}
        if len(row) != len(offsets):
            raise ValueError("stencil offsets must be distinct")
        seen = {}  # (t, x) -> offset: name the first two nodes that share it
        for off, key in zip(offsets, map(tuple, points[:, :2].tolist())):
            if key in seen:
                raise ValueError(f"nodes {seen[key]} and {off} share independent variables {key}")
            seen[key] = off
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_row", row)

    def _derived(self, points: np.ndarray) -> "Stencil":
        """Stencil of the fresh (m, 3) array ``points``, which must keep this
        one's (t, x) as its real part, on this one's offsets; made read-only."""
        points.flags.writeable = False
        z = object.__new__(Stencil)
        vars(z).update(offsets=self.offsets, points=points, ref=self.ref, _row=self._row)
        return z

    @staticmethod
    def from_dict(nodes: dict[tuple[int, int], Node], ref=(0, 0)) -> "Stencil":
        items = sorted(nodes.items())
        return Stencil(tuple(off for off, _ in items),
                       np.array([val for _, val in items], dtype=float).reshape(-1, 3), ref)

    def take(self, offsets: Iterable[tuple[int, int]]) -> np.ndarray:
        """Rows of ``points`` for the given offsets; KeyError for a missing one."""
        return self.points[[self._row[off] for off in offsets]]

    def u(self, l: int, j: int) -> float | complex:
        """The u of node (l, j), complex on a moved stencil."""
        return self.points[self._row[(l, j)], 2].item()

    def with_u(self, l: int, j: int, u_new: float) -> "Stencil":
        points = self.points.copy()
        points[self._row[(l, j)], 2] = u_new
        return self._derived(points)

    def sup_norm(self) -> float:
        return float(np.abs(self.points).max())


StencilFunction = Callable[[Stencil], float | complex]


# ---------------------------------------------------------------------------
# infinitesimal invariance machinery
# ---------------------------------------------------------------------------

def _coefficients(field: VectorFieldSpec, z: Stencil) -> np.ndarray:
    """(m, 3) array of the generator's (eta, xi, phi) at every node of ``z``.

    The coefficient functions are evaluated once on the t, x and u columns
    (constants broadcast); only a lattice ``weight`` is evaluated per node,
    at the node's absolute index (n + l, i + j).
    """
    t, x, u = z.points.T
    c = np.empty((len(z.offsets), 3))
    c[:, 0] = field.eta(t, x, u)
    c[:, 1] = field.xi(t, x, u)
    c[:, 2] = field.phi(t, x, u)
    if field.weight is not None:
        n, i = z.ref
        c *= np.array([field.weight(n + l, i + j) for l, j in z.offsets])[:, None]
    return c


def _at_complex(F: StencilFunction, z: Stencil, imag: np.ndarray):
    """F at the stencil with real part z and imaginary part ``imag``; TypeError
    unless its value is complex (F went through abs, float(), .real, ...)."""
    points = z.points.astype(complex)
    points.imag = imag
    value = F(z._derived(points))
    if not (isinstance(value, complex) or np.iscomplexobj(value)):  # complex128 is a complex
        raise TypeError(f"F is not holomorphic: it returned {value!r} at a complex stencil")
    return value


def prolonged_directional_derivative(F: StencilFunction, field: VectorFieldSpec,
                                     z: Stencil) -> float:
    """d/de F(exp(e field) . z) at e = 0 by one complex step: Im F(z + i h c) / h.

    c is the generator at the nodes (:func:`_coefficients`) and h = 2^-64.
    The nodes move along the line z + e c, which has the flow's first
    derivative, all that the derivative at e = 0 reads.  The truncation error
    is of relative order (h |c| / L)^2, L the stencil's spacings: below
    rounding unless |c| / L nears 2^37.  h c is exact unless |c| < 2^-958,
    where it leaves the normal floats.  F must return a complex value at the moved stencil
    (TypeError otherwise).  F may also return an array (say a whole
    invariant catalog); an array of derivatives is returned.
    """
    return _at_complex(F, z, _STEP * _coefficients(field, z)).imag / _STEP


def lie_matrix(fields: Sequence[VectorFieldSpec], z: Stencil) -> np.ndarray:
    """r x d matrix of prolonged generator coefficients over stencil coordinates.

    Coordinates are ordered (t, x, u) per node, nodes in offset order.
    """
    return np.array([_coefficients(f, z).ravel() for f in fields], dtype=float)


def lie_matrix_rank(fields: Sequence[VectorFieldSpec], z: Stencil) -> int:
    """Numerical rank: singular values above 1e-8 * sigma_max."""
    m = lie_matrix(fields, z)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))


@dataclass
class SymmetryCheckReport:
    """Outcome of a randomized infinitesimal symmetry check."""

    passed: bool
    max_abs_derivative: float
    samples: int
    resampled: int
    tol: float
    worst_sample: Stencil | None = None


def _solve_for_coordinate(E: StencilFunction, z: Stencil,
                          solve_offset: tuple[int, int]) -> Stencil:
    """Newton solve of E(z) = 0 for the u-value at ``solve_offset``.

    Each iteration evaluates E once, at that u moved to val + i h: the real
    part is the residual and Im / h the slope, exact to rounding.
    """
    l, j = solve_offset
    imag = np.zeros_like(z.points)
    imag[z._row[solve_offset], 2] = _STEP
    val = z.u(l, j)
    scale = 1.0 + z.sup_norm()
    for _ in range(60):
        z_val = z.with_u(l, j, val)
        e = _at_complex(E, z_val, imag)
        if abs(e.real) <= 1e-12 * scale:
            return z_val
        drdv = e.imag / _STEP
        if drdv == 0.0 or not math.isfinite(drdv):
            break
        step = e.real / drdv
        if not math.isfinite(step):
            break
        val -= step
    raise ProjectionFailure(
        f"could not solve E = 0 for coordinate {solve_offset} from {z.points.tolist()}"
    )


def check_difference_symmetry(
    E: StencilFunction,
    field: VectorFieldSpec,
    samples: int,
    tol: float,
    *,
    offsets: Iterable[tuple[int, int]],
    solve_offset: tuple[int, int],
    seed: int = 0,
    admissible: Callable[[Stencil], bool] | None = None,
) -> SymmetryCheckReport:
    """Randomized test of the infinitesimal symmetry criterion on E = 0.

    Random stencils are drawn (u uniform on [-2, 2], spacings uniform on
    [0.1, 2]), projected onto the solution set by solving for the designated
    coordinate, and the prolonged directional derivative of E along ``field``
    is evaluated there.  Passes when the largest magnitude stays below
    ``tol``; ProjectionFailure once it has rejected too many draws.  Both the
    projection and the derivative take complex steps, so E must be
    holomorphic in the u values (TypeError otherwise).
    """
    rng = DeterministicRng(seed)
    offsets = list(offsets)
    admit = admissible or (lambda z: True)
    worst, worst_z, resampled, done = 0.0, None, 0, 0
    while done < samples:
        if resampled > _MAX_RESAMPLE + samples * 10:
            raise ProjectionFailure("too many degenerate draws")
        x: dict[tuple[int, int], float] = {}
        for l in sorted({l for l, _j in offsets}):  # rows in time order, each from x = 0
            js = sorted(j for ll, j in offsets if ll == l)
            x[(l, js[0])] = pos = 0.0
            for prev, j in zip(js, js[1:]):
                pos += rng.uniform(0.1, 2.0) * (j - prev)
                x[(l, j)] = pos
        z = Stencil.from_dict({(l, j): (float(l), x[(l, j)], rng.uniform(-2.0, 2.0))
                               for l, j in offsets})
        try:  # None for a draw or projection that is not admissible
            z_star = _solve_for_coordinate(E, z, solve_offset) if admit(z) else None
        except ProjectionFailure:
            z_star = None
        if z_star is None or not admit(z_star):
            resampled += 1
            continue
        d = abs(prolonged_directional_derivative(E, field, z_star))
        if d > worst:
            worst, worst_z = d, z_star
        done += 1
    return SymmetryCheckReport(worst <= tol, worst, samples, resampled, tol, worst_z)
