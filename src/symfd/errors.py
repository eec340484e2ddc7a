"""Exception taxonomy shared by all symfd modules, and their shared threshold."""

# below this a denominator, slope or determinant counts as vanishing
DEGENERACY_TOL = 1e-14


class SymfdError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(SymfdError):
    """A fractional-linear map was evaluated too close to its pole."""


class DegenerateJet(SymfdError):
    """Jet data violates a non-degeneracy requirement (e.g. vanishing slope)."""


class FrameSingularity(SymfdError):
    """The normalization equations of a moving frame admit no real solution."""


class DegenerateDenominator(SymfdError):
    """A denominator vanished to within DEGENERACY_TOL (a difference, relative to its terms)."""


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
