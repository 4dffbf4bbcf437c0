"""Exact-arithmetic verification kernel for BiHom-algebraic structures."""

from . import errors
from .exactlin import (
    GF,
    QQ,
    DenseMap,
    FieldTag,
    SolveResult,
    compose,
    invert,
    kron,
    solve_linear,
)
from .combinat import (
    Permutation,
    bar,
    flip_perm,
    z_of,
)
from .coherence import (
    BIG_PHI,
    BIG_PSI,
    SMALL_PHI,
    SMALL_PSI,
    BiHomObject,
    DuoidalInstance,
    LaxInstance,
    check_exponent_identities,
    coherence_map,
    nprod,
    phi_exponents,
    unit_object,
    xi_map,
)
from .report import CheckEntry, CheckReport
from .structures import (
    ComoduleInst,
    ModuleInst,
    StructureBundle,
    check_bimonoid,
    check_bisemigroup,
    check_comodule,
    check_comonoid,
    check_cosemigroup,
    check_generalized_assoc,
    check_generalized_coassoc,
    check_hopf_module,
    check_module,
    check_monoid,
    check_semigroup,
    delta_n,
    induced_module_action,
    mu_n,
    regular_comodule,
    regular_module,
)
from .twist import (
    AntipodeResult,
    PlainStructure,
    antipode_solve,
    canonical_morphism,
    untwist,
    yau_twist,
)

__version__ = "0.1.0"
