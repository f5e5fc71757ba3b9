"""Exact computational toolkit for orbit categories of module categories
under finite group actions, over small finite fields.

The layers, bottom up: exact field/polynomial/matrix arithmetic;
structure-constant algebras with a certified radical and primitive
idempotents; modules with Krull-Schmidt decomposition; the orbit category
of a strict action with its adjoint pair; the idempotent completion; the
inertia-group decomposition pipeline; and independent skew-group-algebra
and Galois-module oracles.
"""

from .ffield import FF, FiniteField
from .poly import Poly, is_irreducible, poly_factor, poly_gcd
from .algebra import (
    Algebra,
    AlgebraAut,
    CertificationError,
    IdempotentSet,
    is_local,
    lift_idempotent,
    make_group_algebra,
    make_matrix_algebra,
    make_path_algebra,
    primitive_orthogonal_idempotents,
    radical,
)
from .rep import (
    Decomposition,
    HomSpace,
    Module,
    ModuleMor,
    decompose,
    direct_sum,
    end_algebra,
    hom_space,
    is_isomorphic,
    regular_module,
    simple_modules,
    twist,
    zero_module,
)
from .orbit import (
    GroupAction,
    OrbitHomSpace,
    OrbitMor,
    adjunction_counit,
    adjunction_unit,
    adjuster_nu,
    check_action,
    functor_S,
    functor_T,
    kleisli_phi_psi,
    lifted_aut,
    make_skew_group_algebra,
    orbit_compose,
    orbit_hom,
    sub_inclusion_S,
    sub_restriction_T,
)
from .karoubi import (
    KarObject,
    kar_decompose,
    kar_functor_T,
    kar_is_isomorphic,
)
from .clifford import (
    CliffordReport,
    CliffordViolation,
    InertiaData,
    clifford_run,
    inertia,
    skewfield_check,
    trivial_inertia_check,
)
from .oracle import (
    GaloisScenario,
    SkewContext,
    counit_split_test,
    frobenius_action,
    galois_build,
    galois_monad_group_check,
    galois_rank_check,
    induce_skew,
    oracle_compare,
)

__version__ = "0.1.0"
