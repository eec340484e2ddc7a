"""Symmetry-preserving finite difference and finite volume schemes.

Subpackages:

* :mod:`symfd.groups`     group actions, generators, infinitesimal invariance
* :mod:`symfd.invariants` closed-form difference invariants
* :mod:`symfd.frames`     moving frames and invariantization
* :mod:`symfd.mesh`       Lagrangian / equidistributed meshes, interpolation
* :mod:`symfd.schemes`    the invariant schemes and their baselines
* :mod:`symfd.runner`     experiments, invariance audits, convergence studies
"""

from . import errors, frames, groups, invariants, mesh, runner, schemes

__version__ = "0.1.0"

__all__ = ["errors", "frames", "groups", "invariants", "mesh", "runner",
           "schemes", "__version__"]
