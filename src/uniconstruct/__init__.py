"""Workbench for finite multi-sorted structures, automorphism-group
splittings, skew products, and uniform reconstruction, with every computed
fact re-checked against brute-force oracles at desk scale."""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BoundExceededError,
    CatalogMismatchError,
    CongruenceError,
    GroupError,
    SignatureMismatchError,
    StructureError,
    UniconstructError,
    VerificationError,
)
from .structures import (
    SortedMap,
    SortedSignature,
    SortedStructure,
    automorphisms,
    canonical_copies,
    identity_map,
    isomorphisms,
    quotient,
    reduct,
    relabel,
    relabel_map,
    restrict_signature,
    validate,
)
from .groups import (
    AutomorphismGroup,
    FiniteGroup,
    GroupHom,
    Section,
    aut_group,
    catalog,
    catalog_search_weak_not_strong,
    center,
    classify_section,
    classify_sections,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    find_isomorphism,
    is_hom,
    is_surjective,
    quotient_by_center,
    quotient_by_subgroup,
    surjective_homs,
    symmetric,
    alternating,
)
from .skew import (
    CyclicSkewGroup,
    SkewElement,
    build_cyclic_skew,
    center_witness,
    hom_violations,
    phi13,
    phi23,
    phi23_hom_witness,
    psi0,
    shift_generator,
    skew_from_support,
    skew_identity,
    skew_inv,
    skew_mul,
    skew_pow,
)
from .ucp import (
    Solver,
    UniConstructionProblem,
    assemble_ucp,
    compose_solvers,
    derive_triple,
    fuse_sorts,
    reduct_solver,
    solver_from_catalog,
)
from .encode import (
    GroupTriple,
    attach_skew,
    encode_three_sorted,
    theta,
    verify_theta_iso,
)
from .uniform import (
    Family,
    LiftedCopy,
    MatchedTriple,
    TripleSpace,
    build_family,
    build_quotient,
    e_equiv,
    k_class,
    make_lifted_copy,
    matched_triples,
    uniform_F,
    verify_claims,
)
