"""Workbench for finite multi-sorted structures, automorphism-group
splittings, skew products, and uniform reconstruction, with every computed
fact re-checked against brute-force oracles at desk scale.

The names below are loaded on first access (PEP 562), so importing the
package, or running ``python -m uniconstruct.cli``, imports no submodule
until something asks for one."""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": (
        "BoundExceededError", "GroupError", "SignatureMismatchError", "StructureError",
        "UniconstructError", "VerificationError",
    ),
    "structures": (
        "SortedMap", "SortedSignature", "SortedStructure", "automorphisms", "identity_map",
        "isomorphisms", "reduct", "relabel", "relabel_map", "validate",
    ),
    "groups": (
        "AutomorphismGroup", "FiniteGroup", "GroupHom", "Section", "aut_group", "catalog",
        "catalog_search_weak_not_strong", "center", "classify_section", "classify_sections",
        "cyclic", "decide_splittings", "dicyclic", "dihedral", "direct_product",
        "find_isomorphism", "is_hom", "is_surjective", "quotient_by_center",
        "quotient_by_subgroup", "surjective_homs", "symmetric", "alternating",
    ),
    "skew": (
        "CyclicSkewGroup", "SkewElement", "build_cyclic_skew", "center_witness",
        "phi13", "phi23", "phi23_hom_witness", "psi0", "shift_generator", "skew_from_support",
        "skew_identity", "skew_inv", "skew_mul", "skew_pow",
    ),
    "ucp": ("UniConstructionProblem", "assemble_ucp", "derive_triple"),
    "encode": (
        "GroupTriple", "attach_skew", "encode_three_sorted", "theta", "verify_theta_iso",
    ),
    "uniform": (
        "Family", "LiftedCopy", "MatchedTriple", "TripleSpace", "build_family",
        "build_quotient", "uniform_F", "verify_claims",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules that were package attributes while the package imported them eagerly
_SUBMODULES = frozenset(_EXPORTS) | {"config"}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
