"""Concrete symmetry group actions, generator flows and invariance checks.

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
to a stencil acts on every node with the same flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FlowDivergence, PoleError, ProjectionFailure
from .rng import DeterministicRng

Node = tuple[float, float, float]  # (t, x, u)

_POLE_TOL = 1e-14
_FLOW_LIMIT = 1e12


def sign_pos(x: float) -> float:
    """sign with the convention sign(0) = +1, keeping branches total."""
    return 1.0 if x >= 0.0 else -1.0


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    @staticmethod
    def identity() -> "SL2Element":
        return SL2Element(1.0, 0.0, 0.0, 1.0)

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
    """Fractional linear action (a u + b)/(c u + d)."""
    den = g.c * u + g.d
    if abs(den) < _POLE_TOL:
        raise PoleError(f"Mobius map evaluated at pole: cu + d = {den}")
    return (g.a * u + g.b) / den


@dataclass(frozen=True)
class KdVGroupElement:
    """Element (lam, v, a, b): scaling, boost velocity, space and time shift."""

    lam: float
    v: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"scaling parameter must be positive, got {self.lam}")

    @staticmethod
    def identity() -> "KdVGroupElement":
        return KdVGroupElement(1.0, 0.0, 0.0, 0.0)

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


def apply_kdv(g: KdVGroupElement, node: Node) -> Node:
    t, x, u = node
    lam = g.lam
    return (
        lam**3 * t + g.b,
        lam * x + lam**3 * g.v * t + g.a,
        u / lam**2 + g.v,
    )


@dataclass(frozen=True)
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

    @staticmethod
    def identity() -> "BurgersGroupElement":
        return BurgersGroupElement()

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
    t, x, u = node
    s = math.exp(g.eps4)
    return (
        s**2 * (t + g.eps2),
        s * (x + g.eps1 + g.eps3 * (t + g.eps2)),
        (u + g.eps3) / s,
    )


# ---------------------------------------------------------------------------
# vector fields and stencils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorFieldSpec:
    """An infinitesimal generator xi d/dx + eta d/dt + phi d/du.

    The coefficients are functions of (t, x, u).  They are called on
    scalars by :func:`flow` and on the (t, x, u) columns of a stencil by
    :func:`perturb_stencil` and :func:`lie_matrix`, so they must work on
    numpy arrays (a constant may be returned as a scalar).  ``weight`` is an
    optional multiplicative lattice factor w(n, i) used by generators whose
    coefficients alternate with the multi-index (e.g. the dpKdV dilations);
    it multiplies all three coefficients at a node with absolute index
    (n, i).
    """

    xi: Callable[[float, float, float], float]
    eta: Callable[[float, float, float], float]
    phi: Callable[[float, float, float], float]
    weight: Callable[[int, int], float] | None = None
    name: str = ""

    def coeffs(self, node: Node, index: tuple[int, int] = (0, 0)) -> Node:
        t, x, u = node
        w = 1.0 if self.weight is None else self.weight(*index)
        return (w * self.eta(t, x, u), w * self.xi(t, x, u), w * self.phi(t, x, u))


def _zero(t, x, u):
    return 0.0


def _one(t, x, u):
    return 1.0


def make_field(xi=None, eta=None, phi=None, weight=None, name="") -> VectorFieldSpec:
    return VectorFieldSpec(xi or _zero, eta or _zero, phi or _zero, weight, name)


def sl2_generators() -> list[VectorFieldSpec]:
    """Generators of the Mobius action: d/du, u d/du, u^2 d/du."""
    return [
        make_field(phi=_one, name="shift_u"),
        make_field(phi=lambda t, x, u: u, name="dilate_u"),
        make_field(phi=lambda t, x, u: u * u, name="special_u"),
    ]


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
        seen = {}
        for off, key in zip(offsets, map(tuple, points[:, :2].tolist())):
            if key in seen:
                raise ValueError(f"nodes {seen[key]} and {off} share independent variables {key}")
            seen[key] = off
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_row", row)

    @staticmethod
    def from_dict(nodes: dict[tuple[int, int], Node], ref=(0, 0)) -> "Stencil":
        items = sorted(nodes.items())
        return Stencil(tuple(off for off, _ in items),
                       np.array([val for _, val in items], dtype=float).reshape(-1, 3), ref)

    @property
    def nodes(self) -> tuple[tuple[tuple[int, int], Node], ...]:
        """The (offset, (t, x, u)) pairs in offset order."""
        return tuple(zip(self.offsets, map(tuple, self.points.tolist())))

    def as_dict(self) -> dict[tuple[int, int], Node]:
        return dict(self.nodes)

    def take(self, offsets: Iterable[tuple[int, int]]) -> np.ndarray:
        """Rows of ``points`` for the given offsets; KeyError for a missing one."""
        return self.points[[self._row[off] for off in offsets]]

    def node(self, l: int, j: int) -> Node:
        return tuple(self.points[self._row[(l, j)]].tolist())

    def u(self, l: int, j: int) -> float:
        return float(self.points[self._row[(l, j)], 2])

    def x(self, l: int, j: int) -> float:
        return float(self.points[self._row[(l, j)], 1])

    def t(self, l: int, j: int) -> float:
        return float(self.points[self._row[(l, j)], 0])

    def with_u(self, l: int, j: int, u_new: float) -> "Stencil":
        points = self.points.copy()
        points[self._row[(l, j)], 2] = u_new
        return Stencil(self.offsets, points, self.ref)

    def sup_norm(self) -> float:
        return float(np.abs(self.points).max())


StencilFunction = Callable[[Stencil], float]


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def flow(field: VectorFieldSpec, node: Node, epsilon: float,
         index: tuple[int, int] = (0, 0), tol: float = 1e-13) -> Node:
    """Exponentiate ``field`` through ``node`` for parameter ``epsilon``.

    Classical RK4 with step doubling; each substep is accepted when the
    doubled-step estimate agrees to ``tol`` relative.  Raises
    :class:`FlowDivergence` once any component exceeds 1e12.
    """
    if epsilon == 0.0:
        return node

    def rhs(z: np.ndarray) -> np.ndarray:
        return np.array(field.coeffs((z[0], z[1], z[2]), index))

    def rk4(z: np.ndarray, h: float) -> np.ndarray:
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    z = np.array(node, dtype=float)
    remaining = epsilon
    h = epsilon / 8.0
    guard = 0
    while remaining != 0.0 and guard < 100_000:
        guard += 1
        if abs(h) > abs(remaining):
            h = remaining
        full = rk4(z, h)
        half = rk4(rk4(z, h / 2.0), h / 2.0)
        err = float(np.max(np.abs(full - half)))
        scale = 1.0 + float(np.max(np.abs(half)))
        if err <= tol * scale:
            z = half + (half - full) / 15.0  # 5th order local extrapolation
            remaining -= h
            if np.max(np.abs(z)) > _FLOW_LIMIT:
                raise FlowDivergence(f"flow state exceeded {_FLOW_LIMIT:g}")
            if err < 0.01 * tol * scale:
                h *= 2.0
        else:
            h /= 2.0
            if abs(h) < 1e-16 * abs(epsilon):
                raise FlowDivergence("flow step size underflow")
    if remaining != 0.0:
        raise FlowDivergence("flow failed to reach requested parameter")
    return (float(z[0]), float(z[1]), float(z[2]))


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


def perturb_stencil(z: Stencil, field: VectorFieldSpec, eps: float) -> Stencil:
    """Move every node by eps times the generator (linearized product action)."""
    return Stencil(z.offsets, z.points + eps * _coefficients(field, z), z.ref)


def prolonged_directional_derivative(F: StencilFunction, field: VectorFieldSpec,
                                     z: Stencil) -> float:
    """d/de F(exp(e field) . z) at e = 0 by central differencing.

    The step 1e-6 * (1 + |z|_inf) balances truncation and roundoff in double
    precision; the even-order flow curvature cancels in the central
    difference, so the linearized node motion is sufficient.  F may also
    return an array (say a whole invariant catalog); the difference is then
    taken componentwise and an array of derivatives is returned.
    """
    eps = 1e-6 * (1.0 + z.sup_norm())
    fp = F(perturb_stencil(z, field, eps))
    fm = F(perturb_stencil(z, field, -eps))
    return (fp - fm) / (2.0 * eps)


def lie_matrix(fields: Sequence[VectorFieldSpec], z: Stencil) -> np.ndarray:
    """r x d matrix of prolonged generator coefficients over stencil coordinates.

    Coordinates are ordered (t, x, u) per node, nodes in offset order.
    """
    return np.array([_coefficients(f, z).ravel() for f in fields], dtype=float)


def lie_matrix_rank(fields: Sequence[VectorFieldSpec], z: Stencil,
                    tol: float = 1e-8) -> int:
    """Numerical rank: singular values above tol * sigma_max."""
    m = lie_matrix(fields, z)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


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
    """Newton solve of E(z) = 0 for the u-value at ``solve_offset``."""
    l, j = solve_offset
    val = z.u(l, j)
    scale = 1.0 + z.sup_norm()
    for _ in range(60):
        r = E(z.with_u(l, j, val))
        if abs(r) <= 1e-12 * scale:
            return z.with_u(l, j, val)
        h = 1e-7 * (1.0 + abs(val))
        drdv = (E(z.with_u(l, j, val + h)) - E(z.with_u(l, j, val - h))) / (2.0 * h)
        if drdv == 0.0 or not math.isfinite(drdv):
            break
        step = r / drdv
        if not math.isfinite(step):
            break
        val -= step
    raise ProjectionFailure(
        f"could not solve E = 0 for coordinate {solve_offset} from {z.as_dict()}"
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
    max_resample: int = 200,
) -> SymmetryCheckReport:
    """Randomized test of the infinitesimal symmetry criterion on E = 0.

    Random stencils are drawn (u uniform on [-2, 2], spacings uniform on
    [0.1, 2]), projected onto the solution set by solving for the designated
    coordinate, and the prolonged directional derivative of E along ``field``
    is evaluated there.  Passes when the largest magnitude stays below
    ``tol``.
    """
    rng = DeterministicRng(seed)
    offsets = list(offsets)
    worst = 0.0
    worst_z = None
    resampled = 0
    done = 0
    while done < samples:
        if resampled > max_resample + samples * 10:
            raise ProjectionFailure("too many degenerate draws")
        nodes = {}
        xrow: dict[int, dict[int, float]] = {}
        for (l, j) in sorted(offsets):
            xrow.setdefault(l, {})
        for l, row in xrow.items():
            js = sorted(j for (ll, j) in offsets if ll == l)
            pos = 0.0
            prev = None
            for j in js:
                if prev is not None:
                    pos += rng.uniform(0.1, 2.0) * (j - prev)
                row[j] = pos
                prev = j
        for (l, j) in offsets:
            nodes[(l, j)] = (float(l), xrow[l][j], rng.uniform(-2.0, 2.0))
        z = Stencil.from_dict(nodes)
        if admissible is not None and not admissible(z):
            resampled += 1
            continue
        try:
            z_star = _solve_for_coordinate(E, z, solve_offset)
        except ProjectionFailure:
            resampled += 1
            continue
        if admissible is not None and not admissible(z_star):
            resampled += 1
            continue
        d = abs(prolonged_directional_derivative(E, field, z_star))
        if d > worst:
            worst, worst_z = d, z_star
        done += 1
    return SymmetryCheckReport(worst <= tol, worst, samples, resampled, tol, worst_z)
