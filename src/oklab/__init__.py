"""Exact computations with multigraded monomial algebras.

Lattice algebra over Z^n, exact rational convex geometry, graded
semigroups with Newton-Okounkov bodies, monomial algebras with volume
functions and mixed multiplicities, and graded families of monomial
ideals with Bhattacharya-style limits.
"""

from .errors import (DimensionMismatchError, EmptyTruncationError,
                     InternalConsistencyError, InvalidRayError,
                     MeasureMismatchError, NotASubgroupError, OklabError,
                     RegularityNotReachedError, ResourceLimitError,
                     UnsupportedIdealError, UnsupportedSemigroupError,
                     ValidationError)
from .lattice import (Sublattice, group_generated, hermite_normal_form,
                      integer_kernel, lattice_preimage, rational_rank,
                      saturation, subgroup_index, vanishing_forms)
from .polytope import (MultidegreePolynomial, PolyCone, Polytope,
                       cone_fiber, cone_hrep, convex_hull,
                       integral_volume, make_cone, minkowski_polynomial,
                       minkowski_sum, mixed_volume, scaled_minkowski_sum,
                       standard_lattice, volume_in_dim)
from .semigroup import BoundRule, GradedSemigroup, StaircaseSpec
from .algebra import (FiberVolume, MixedMultiplicityReport,
                      MonomialAlgebra)
from .ideals import (BodyFamily, ExplicitFamily, GradedIdealFamily,
                     MonomialIdeal, PowersFamily, analytic_spread,
                     bhattacharya_limit, family_mixed_multiplicities,
                     family_positivity, fixed_ideal_mixed_multiplicities,
                     maximal_ideal, mixed_volume_via_ideals,
                     monomial_ideal, power, product, quotient_dim,
                     quotient_dim_by_mpower)
from .presets import PRESETS, preset

__version__ = "0.1.0"
