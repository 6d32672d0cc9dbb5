"""Uni-construction problems assembled from two-sorted structures.

A two-sorted structure B induces the restriction homomorphism from Aut(B)
onto (hopefully) Aut(A) where A is the first-sort reduct; assembling checks
each defining clause and reports the outcome rather than failing.  A
three-sorted structure yields three such problems (:func:`derive_triple`),
one per construction of its tower; :mod:`uniconstruct.uniform` runs each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

from .errors import GroupError, StructureError
from .groups import (
    AutomorphismGroup,
    GroupHom,
    Section,
    aut_group,
    center,
    classify_section,
    is_hom,
)
from .structures import SortedStructure, reduct

__all__ = [
    "Report",
    "UniConstructionProblem",
    "assemble_ucp",
    "restriction_map",
    "TripleDerivation",
    "derive_triple",
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
    report.add("a", True, f"structure is {len(B.sort_sizes)}-sorted")
    report.add("b", True, f"{_ordinals(range(len(A.sort_sizes)))}-sort reduct computed")
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


def _ordinals(sorts: range) -> str:
    """The sorts as messages name them, "first/second" (problems have at
    most three sorts)."""
    return "/".join(("first", "second", "third")[s] for s in sorts)


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
