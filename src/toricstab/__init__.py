"""Exact stability analysis of rational convex polytopes for toric manifolds.

The library decides sufficient conditions for relative stability and
energy properness directly from half-space data, in exact rational
arithmetic throughout, for polytopes of dimension 1 to 3: polytope
combinatorics, polynomial and boundary integrals with the lattice
measure, lattice-point sums, convex piecewise-linear functions, the
extremal potential and degeneration invariants.  For polygons a grid scan
over single-crease functions bounds the least ratio ``L(u) / B(u)`` from
above, its winner re-verified through the general functional.

Value records such as :class:`HalfSpace`, :class:`ConditionVerdict` and
:class:`ScanResult` are ``typing.NamedTuple``s; :class:`Facet` and
:class:`AffineFunction`, which cache derived data, and the validating
:class:`ScanConfig` are plain classes with their own ``__init__`` that
take equality, hashing and ``repr`` from :class:`geometry.Record`.
"""

__version__ = "0.1.0"

# All exact scalars in the library are arbitrary-precision rationals.
from fractions import Fraction as Rational

from .catalog import CATALOG_NAMES, catalog, hexagon
from .errors import ToricStabError
from .geometry import (
    Facet,
    HalfSpace,
    Polytope,
    build_polytope,
    delzant_check,
    halfspace,
    translate,
)
from .integration import (
    LatticeSum,
    Polynomial,
    boundary_integral,
    ehrhart_residual,
    integrate_polynomial,
    pl_lattice_sum,
)
from .invariants import (
    ConditionVerdict,
    DegenerationReport,
    ExtremalData,
    average_scalar_curvature,
    centering_constants,
    check_condition,
    extremal_field,
    futaki_vector,
    linear_functional_L,
    linear_functional_L_cone,
    relative_futaki,
)
from .plfunc import (
    AffineFunction,
    PLFunction,
    SimplePL,
    affine,
    is_affine,
    make_pl,
)
from .destabilizer import ScanConfig, ScanResult, scan
from .specfile import emit_spec, parse_spec

# The kernels are pure Python; the name stays for callers that record it.
KERNEL_BACKEND = "pure"

__all__ = [name for name in dir() if not name.startswith("_")]
