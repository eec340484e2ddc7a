"""Exception taxonomy shared by all symfd modules, and their one rule for when a
difference d = a - b vanishes, |d| <= DEGENERACY_TOL (|a| + |b|)/2, which commutes
with scaling; every other vanishing test of the package is exact."""

DEGENERACY_TOL = 1e-14


def _cancel_bound(a, b):
    """The largest |a - b| that vanishes, of floats or arrays a and b."""
    return 0.5 * DEGENERACY_TOL * (abs(a) + abs(b))


def _cancels(d: float, a: float, b: float) -> bool:
    """Whether d = a - b vanishes: |d| <= _cancel_bound(a, b)."""
    return abs(d) <= _cancel_bound(a, b)


class SymfdError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(SymfdError):
    """A fractional-linear map was evaluated too close to its pole."""


class DegenerateJet(SymfdError):
    """Jet data violates a non-degeneracy requirement (e.g. vanishing slope)."""


class FrameSingularity(SymfdError):
    """The normalization equations of a moving frame admit no real solution."""


class DegenerateDenominator(SymfdError):
    """A denominator vanished: a difference cancelled its terms (``_cancels``)."""


class ProjectionFailure(SymfdError):
    """A sampled stencil could not be projected onto the solution set E = 0."""


class SchemeSingularity(SymfdError):
    """A closed-form scheme step degenerated (singular linear solve)."""


class MeshTangling(SymfdError):
    """Mesh ordering was lost, or the minimum spacing fell below its floor."""


class SingularSystem(SymfdError):
    """A linear system that should be definite turned out singular."""


class OutOfDomain(SymfdError):
    """An interpolation query lies outside the source hull."""


class ConfigError(SymfdError):
    """An experiment configuration is malformed or inconsistent."""
