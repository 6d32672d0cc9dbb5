"""Uni-construction problems assembled from two-sorted structures.

A two-sorted structure B induces the restriction homomorphism from Aut(B)
onto (hopefully) Aut(A) where A is the first-sort reduct; assembling checks
each defining clause and reports the outcome rather than failing.  Solvers
model the construction map F over finite explicit catalogs, and compose and
reduce the way the transitivity and reduct-transfer facts say they should.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CatalogMismatchError, GroupError, SignatureMismatchError, StructureError
from .groups import (
    AutomorphismGroup,
    GroupHom,
    Section,
    aut_group,
    center,
    classify_section,
    is_hom,
)
from .structures import (
    SortedSignature,
    SortedStructure,
    isomorphisms,
    reduct,
    restrict_signature,
)

__all__ = [
    "Report",
    "UniConstructionProblem",
    "assemble_ucp",
    "restriction_map",
    "TripleDerivation",
    "derive_triple",
    "Solver",
    "solver_from_catalog",
    "compose_solvers",
    "reduct_solver",
    "solver_to_json",
    "solver_from_json",
]


@dataclass
class Report:
    """Named pass/fail entries (name, ok, detail), in the order checked.

    ``key`` is the JSON field that carries each entry's name: ``clause`` for
    problem clauses (a)-(f), ``check`` for tower encodings, ``claim`` for the
    uniform construction.
    """

    key: str
    entries: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.entries.append((name, bool(ok), detail))

    def ok(self, name: str) -> bool:
        for entry, good, _ in self.entries:
            if entry == name:
                return good
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(good for _, good, _ in self.entries)

    def to_json(self) -> list[dict]:
        return [
            {self.key: name, "ok": good, "detail": detail}
            for name, good, detail in self.entries
        ]


@dataclass
class UniConstructionProblem:
    """The tuple (B, A, H, K, G, phi, psi) with verification report.

    ``restriction[i]`` is the index in G of the restriction of H's element
    i.  ``phi``, the same map as a GroupHom between the two automorphism
    groups, is built on first access; clauses (c)-(e) are decided without
    it, and no Cayley table is built for either.
    ``weak_only`` records that no section was supplied; the clause report
    tells whether the weak conditions (a)-(e) actually hold.
    """

    B: SortedStructure
    A: SortedStructure
    H: AutomorphismGroup
    G: AutomorphismGroup
    K: tuple[int, ...]
    restriction: tuple[int, ...]
    psi: Section | None
    weak_only: bool
    report: Report

    @cached_property
    def phi(self) -> GroupHom:
        return GroupHom(self.H, self.G, self.restriction)

    @property
    def is_weak_ucp(self) -> bool:
        return all(self.report.ok(c) for c in "abcde")

    @property
    def is_ucp(self) -> bool:
        return self.is_weak_ucp and self.psi is not None and self.report.ok("f")

    def with_section(self, psi: Sequence[int] | Section) -> "UniConstructionProblem":
        """This problem with clause (f) decided for the section ``psi``; the
        groups, restriction map and clauses (a)-(e) are this problem's."""
        sec_map = psi.map if isinstance(psi, Section) else tuple(int(v) for v in psi)
        report = Report("clause", [entry for entry in self.report.entries if entry[0] != "f"])
        section: Section | None = None
        try:
            section = classify_section(self.phi, sec_map)
        except GroupError:
            report.add("f", False, "supplied map is not a section of the restriction map")
        else:
            report.add(
                "f",
                section.is_weak_splitting(),
                f"section classification: {section.classification}",
            )
        problem = replace(self, psi=section, weak_only=False, report=report)
        problem.phi = self.phi  # one GroupHom per restriction map
        return problem


def restriction_map(H: AutomorphismGroup, G: AutomorphismGroup) -> tuple[int, ...]:
    """The index in G of each element of H restricted to G's structure.

    G's structure is the reduct of H's to its leading sorts, so a
    restriction is the leading entries of an automorphism's ``perms`` row.
    A reduct automorphism is always induced, so a lookup failure means the
    two automorphism groups do not belong to the same structure pair.
    """
    width = G.structure.total_elements
    try:
        return tuple(G.row_index[row[:width]] for row in H.perms)
    except KeyError:
        raise GroupError(
            "internal error: restriction of an automorphism is not an "
            "automorphism of the first-sort reduct"
        ) from None


def assemble_ucp(
    B: SortedStructure,
    psi: Sequence[int] | Section | None = None,
    *,
    max_elements: int | None = None,
) -> UniConstructionProblem:
    """Assemble and check the uni-construction problem of a 2-sorted B.

    Clause failures (for example a non-surjective restriction map) come back
    in the report; only malformed input raises.  Clauses (c)-(f) are decided
    from the automorphisms' image rows and generators, so no Cayley table is
    built.
    """
    if len(B.sort_sizes) != 2:
        raise StructureError("assemble_ucp requires a 2-sorted structure")
    B.check_valid()
    A = reduct(B, (0,))
    H, G = aut_group(B, max_elements=max_elements), aut_group(A, max_elements=max_elements)
    problem = _restriction_problem(B, A, H, G)
    return problem if psi is None else problem.with_section(psi)


def _restriction_problem(
    B: SortedStructure, A: SortedStructure, H: AutomorphismGroup, G: AutomorphismGroup
) -> UniConstructionProblem:
    """The weak problem of B over A, B's reduct to its leading sorts, decided
    from H = Aut(B) and G = Aut(A) with :func:`assemble_ucp`'s clauses: the
    leading sorts and the rest play its two sorts."""
    report = Report("clause")
    report.add("a", True, "structure is 2-sorted")
    report.add("b", True, "first-sort reduct computed")
    K = tuple(center(H))
    report.add("c", True, f"|H|={H.order}, |K|={len(K)}, |G|={G.order}")

    restriction = restriction_map(H, G)
    if not is_hom(restriction, H, G):
        raise GroupError("map violates the homomorphism law")
    report.add("d", True, "restriction map is a group homomorphism")

    onto = len(set(restriction)) == G.order
    report.add("e", onto, f"restriction map is {'' if onto else 'not '}onto Aut(A)")
    report.add("f", True, "no section supplied (weak problem)")
    return UniConstructionProblem(
        B=B, A=A, H=H, G=G, K=K, restriction=restriction, psi=None, weak_only=True, report=report
    )


@dataclass
class TripleDerivation:
    """The three weak problems carved out of one 3-sorted structure."""

    c12: UniConstructionProblem
    c23: UniConstructionProblem
    c13: UniConstructionProblem
    composition_ok: bool

    @property
    def all_weak(self) -> bool:
        return self.c12.is_weak_ucp and self.c23.is_weak_ucp and self.c13.is_weak_ucp


def derive_triple(C: SortedStructure, *, max_elements: int | None = None) -> TripleDerivation:
    """Derive the three restriction problems of a 3-sorted structure.

    Aut(C), Aut(C01) and Aut(C0) of the reducts C01 (sorts 0, 1) and C0
    (sort 0) are searched once each and shared: c12 restricts C01 to C0,
    c23 restricts C to C01 and c13 restricts C to C0.  The composition law
    phi13 = phi12 . phi23 is checked on the restriction index maps.
    """
    if len(C.sort_sizes) != 3:
        raise StructureError("derive_triple requires a 3-sorted structure")
    C.check_valid()
    C01 = reduct(C, (0, 1))
    C0 = reduct(C01, (0,))
    aut01 = aut_group(C01, max_elements=max_elements)
    aut0 = aut_group(C0, max_elements=max_elements)
    aut = aut_group(C, max_elements=max_elements)

    c12 = _restriction_problem(C01, C0, aut01, aut0)
    c23 = _restriction_problem(C, C01, aut, aut01)
    c13 = _restriction_problem(C, C0, aut, aut0)
    composition_ok = c13.restriction == tuple(c12.restriction[i] for i in c23.restriction)
    return TripleDerivation(c12, c23, c13, composition_ok)


# ---------------------------------------------------------------------------
# Solvers: finite explicit construction maps

@dataclass
class Solver:
    """An explicit map from first-sort reducts back to full structures.

    ``keep`` names the sorts of a catalog2 member that constitute its
    "first sort" side; the defining property is
    ``map(reduct(B, keep)) == B`` for every catalog2 member B.  Both catalogs
    must be closed into single isomorphism classes.
    """

    catalog1: tuple[SortedStructure, ...]
    catalog2: tuple[SortedStructure, ...]
    outputs: tuple[SortedStructure, ...]  # parallel to catalog1
    keep: tuple[int, ...] = (0,)

    def __post_init__(self):
        if len(self.outputs) != len(self.catalog1):
            raise CatalogMismatchError("solver map must be total on catalog1")

    def apply(self, a: SortedStructure) -> SortedStructure:
        for inp, out in zip(self.catalog1, self.outputs):
            if inp == a:
                return out
        raise CatalogMismatchError("structure is not in the solver's input catalog")

    def verify(self, *, max_elements: int | None = None) -> None:
        """Re-check the defining property and the catalog iso-class closure."""
        cat1 = list(self.catalog1)
        if len(set(c.canonical_key() for c in cat1)) != len(cat1):
            raise CatalogMismatchError("input catalog contains duplicates")
        for out in self.outputs:
            if out not in self.catalog2:
                raise CatalogMismatchError("solver output leaves catalog2")
        for b in self.catalog2:
            r = reduct(b, self.keep)
            if self.apply(r) != b:
                raise CatalogMismatchError(
                    "solver does not invert the reduct on catalog2"
                )
        for cat in (self.catalog1, self.catalog2):
            for other in cat[1:]:
                if not isomorphisms(cat[0], other, max_elements=max_elements, limit=1):
                    raise CatalogMismatchError("catalog members are not pairwise isomorphic")


def solver_from_catalog(
    catalog2: Iterable[SortedStructure], keep: Sequence[int] = (0,)
) -> Solver:
    """Build the canonical solver for a catalog of full structures.

    Requires the keep-reduct to be injective on the catalog, which is exactly
    what makes the defining property satisfiable.
    """
    cat2 = tuple(catalog2)
    keep_t = tuple(int(k) for k in keep)
    cat1: list[SortedStructure] = []
    outs: list[SortedStructure] = []
    seen: dict = {}
    for b in cat2:
        r = reduct(b, keep_t)
        key = r.canonical_key()
        if key in seen and seen[key] != b:
            raise CatalogMismatchError(
                "two catalog members share a first-sort reduct; no solver exists"
            )
        if key not in seen:
            seen[key] = b
            cat1.append(r)
            outs.append(b)
    solver = Solver(tuple(cat1), cat2, tuple(outs), keep_t)
    solver.verify()
    return solver


def compose_solvers(f12: Solver, f23: Solver) -> Solver:
    """Chain two solvers; the middle catalogs must coincide."""
    mid_left = set(c.canonical_key() for c in f12.catalog2)
    mid_right = set(c.canonical_key() for c in f23.catalog1)
    if mid_left != mid_right:
        raise CatalogMismatchError("middle catalogs do not match")
    outputs = tuple(f23.apply(out) for out in f12.outputs)
    keep = tuple(f23.keep[i] for i in f12.keep)
    composed = Solver(f12.catalog1, f23.catalog2, outputs, keep)
    composed.verify()
    return composed


def solver_to_json(s: Solver) -> dict:
    """Serialize as a list of (input, output) structure pairs."""
    from .structures import structure_to_json

    return {
        "keep": list(s.keep),
        "pairs": [
            [structure_to_json(a), structure_to_json(b)]
            for a, b in zip(s.catalog1, s.outputs)
        ],
    }


def solver_from_json(doc) -> Solver:
    """The solver of a ``{"keep": [...], "pairs": [...]}`` document; ``keep``
    must be a list of JSON integers, and anything else raises
    CatalogMismatchError("malformed solver document: …")."""
    from .jsondoc import is_int_list
    from .structures import structure_from_json

    try:
        if not is_int_list(doc["keep"]):
            raise ValueError(f"keep must be a list of integers, not {doc['keep']!r}")
        keep = tuple(doc["keep"])
        pairs = [
            (structure_from_json(a), structure_from_json(b)) for a, b in doc["pairs"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogMismatchError(f"malformed solver document: {exc}") from exc
    catalog1 = tuple(a for a, _ in pairs)
    outputs = tuple(b for _, b in pairs)
    catalog2 = []
    seen = set()
    for b in outputs:
        key = b.canonical_key()
        if key not in seen:
            seen.add(key)
            catalog2.append(b)
    solver = Solver(catalog1, tuple(catalog2), outputs, keep)
    solver.verify()
    return solver


def reduct_solver(fd: Solver, target: SortedSignature) -> Solver:
    """Forget the expansion symbols of every solver output.

    The target signature must be a symbol-subset of the catalog2 signature
    whose removal does not touch the kept sorts (so the input catalog is
    unchanged).
    """
    if not fd.catalog2:
        raise CatalogMismatchError("empty solver")
    for b in fd.catalog2:
        restricted = restrict_signature(b, target)  # raises if not an expansion
        if reduct(restricted, fd.keep) != reduct(b, fd.keep):
            raise SignatureMismatchError(
                "restriction changes the kept sorts; input catalogs would differ"
            )
    new_cat2 = tuple(restrict_signature(b, target) for b in fd.catalog2)
    if len(set(c.canonical_key() for c in new_cat2)) != len(new_cat2):
        raise CatalogMismatchError("restricted catalog members collide")
    new_outputs = tuple(restrict_signature(b, target) for b in fd.outputs)
    solver = Solver(fd.catalog1, new_cat2, new_outputs, fd.keep)
    solver.verify()
    return solver
