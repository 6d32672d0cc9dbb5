"""Encoding group towers as multi-sorted structures.

A tower G1 <- G2 <- G3 of surjections becomes a 3-sorted structure whose
sorts are the element sets, with one unary symbol per connecting map and one
right-translation symbol per group element.  Right translations make left
translations the automorphisms, and the automorphism group of the encoded
structure is exactly G3 acting by left translation on every level; the
verification report re-checks that exhaustively.  The same trick attaches a
fresh top group to an arbitrary two-sorted structure through evaluation
symbols.
"""

from __future__ import annotations

from .errors import GroupError, StructureError
from .groups import AutomorphismGroup, FiniteGroup, GroupHom, is_hom, is_surjective
from .records import Record
from .structures import SortedMap, SortedSignature, SortedStructure, reduct
from .ucp import Report, UniConstructionProblem, derive_triple

__all__ = [
    "GroupTriple",
    "encode_three_sorted",
    "theta",
    "verify_theta_iso",
    "attach_skew",
]


class GroupTriple(Record):
    """G1, G2, G3 with surjections phi12: G2->G1 and phi23: G3->G2.

    phi13 is the composite; supplying it explicitly is allowed but it must
    agree pointwise.
    """

    __slots__ = _fields = ("g1", "g2", "g3", "phi12", "phi23", "phi13")

    def __init__(
        self,
        g1: FiniteGroup,
        g2: FiniteGroup,
        g3: FiniteGroup,
        phi12: GroupHom,
        phi23: GroupHom,
        phi13: GroupHom | None = None,
    ):
        if phi12.domain != g2 or phi12.codomain != g1:
            raise GroupError("phi12 must map G2 onto G1")
        if phi23.domain != g3 or phi23.codomain != g2:
            raise GroupError("phi23 must map G3 onto G2")
        if not is_surjective(phi12) or not is_surjective(phi23):
            raise GroupError("both connecting maps must be surjective")
        composite = phi12.compose(phi23)
        if phi13 is None:
            phi13 = composite
        elif phi13.map != composite.map:
            raise GroupError("phi13 does not equal phi12 composed with phi23")
        self.g1 = g1
        self.g2 = g2
        self.g3 = g3
        self.phi12 = phi12
        self.phi23 = phi23
        self.phi13 = phi13


def encode_three_sorted(t: GroupTriple) -> SortedStructure:
    """The 3-sorted structure with connecting maps and right translations.

    Sorts are the element sets of G1, G2, G3; F1 and F2 realize phi12 and
    phi23; T{level}_{a} sends b to b*a within its level.
    """
    groups = (t.g1, t.g2, t.g3)
    fn_syms = [("F1", (1,), 0), ("F2", (2,), 1)]
    fns = [
        {(b,): t.phi12(b) for b in t.g2.elements()},
        {(b,): t.phi23(b) for b in t.g3.elements()},
    ]
    for level, g in enumerate(groups, start=1):
        for a in g.elements():
            fn_syms.append((f"T{level}_{a}", (level - 1,), level - 1))
            fns.append({(b,): g.mul(b, a) for b in g.elements()})
    sig = SortedSignature(("g1", "g2", "g3"), (), tuple(fn_syms), ())
    return SortedStructure(sig, (t.g1.order, t.g2.order, t.g3.order), (), fns, ())


def theta(t: GroupTriple, structure: SortedStructure, c: int) -> SortedMap:
    """Left translation by c on the top sort and by its projections below.

    The level is the structure's sort count: the encoded tower (3, c in G3),
    its sort-{1,2} reduct (2, c in G2) or its first sort (1, c in G1).
    """
    level = len(structure.sort_sizes)
    if level == 3:
        elements = (t.phi13(c), t.phi23(c), c)
    elif level == 2:
        elements = (t.phi12(c), c)
    elif level == 1:
        elements = (c,)
    else:
        raise StructureError("theta acts on a 1-, 2- or 3-sorted structure")
    maps = tuple(
        tuple(g.mul(x, b) for b in g.elements())
        for g, x in zip((t.g1, t.g2, t.g3), elements)
    )
    return SortedMap(structure, structure, maps)


def verify_theta_iso(t: GroupTriple, *, max_elements: int | None = None) -> Report:
    """Exhaustively verify that left translation realizes G3 as Aut of the
    encoded structure, and that the derived restriction maps are the
    connecting maps in disguise."""
    report = Report("check")
    structure = encode_three_sorted(t)
    bound = max_elements if max_elements is not None else max(12, structure.total_elements)
    d = derive_triple(structure, max_elements=bound)
    aut = d.c23.H

    report.add("aut_order", aut.order == t.g3.order, f"|Aut|={aut.order}, |G3|={t.g3.order}")

    try:
        images = [aut.index_of(theta(t, structure, c)) for c in t.g3.elements()]
        in_aut = True
    except GroupError:
        in_aut = False
    report.add("theta_in_aut", in_aut, "every translation map is an automorphism")
    if not in_aut:
        return report

    report.add("theta_injective", len(set(images)) == t.g3.order)
    report.add("theta_surjective", set(images) == set(range(aut.order)))
    report.add("theta_hom", is_hom(images, t.g3, aut), "theta(c1*c2) = theta(c1) o theta(c2)")

    recovered = all(m == theta(t, structure, m.maps[2][0]) for m in map(aut.map, range(aut.order)))
    report.add(
        "theta_recovers_all",
        recovered,
        "every automorphism is translation by its value at the sort-3 identity",
    )

    report.add(
        "derived_weak_ucps",
        d.all_weak,
        "all three derived restriction problems satisfy clauses (a)-(e)",
    )
    report.add("derived_composition", d.composition_ok)
    report.add("restriction_matches_phi23", _restriction_matches(t, d.c23, t.phi23))
    report.add("restriction_matches_phi12", _restriction_matches(t, d.c12, t.phi12))
    report.add("restriction_matches_phi13", _restriction_matches(t, d.c13, t.phi13))
    return report


def _restriction_matches(t: GroupTriple, problem: UniConstructionProblem, phi: GroupHom) -> bool:
    """Whether the problem's restriction map sends theta(c) on ``problem.B``
    to theta(phi(c)) on its reduct ``problem.A``, for every c in phi's
    domain."""
    for c in phi.domain.elements():
        m = theta(t, problem.B, c)
        val = problem.G.map(problem.restriction[problem.H.index_of(m)])
        if val != theta(t, problem.A, phi(c)):
            return False
    return True


# ---------------------------------------------------------------------------
# Attaching a top group to an arbitrary 2-sorted structure

def attach_skew(
    B: SortedStructure,
    g3: FiniteGroup,
    phi23: GroupHom,
    phi13: GroupHom | None = None,
) -> SortedStructure:
    """B extended by a third sort of G3 elements acting through evaluations.

    phi23 must land in the AutomorphismGroup of B and phi13 in that of its
    first-sort reduct A, as ``aut_group`` returns them.  phi13 defaults to
    phi23 followed by the restriction map, read off Aut(B) alone: the
    restriction of an automorphism is its row's prefix, so Aut(A) is never
    searched.  Evaluation symbols F2_{i} record where phi23(b) sends the
    i-th element of B, F1_{i} likewise on the first-sort reduct, and T3_{c}
    are right translations of the new sort.
    """
    if len(B.sort_sizes) != 2:
        raise StructureError("attach_skew requires a 2-sorted structure")
    B.check_valid()
    autB = phi23.codomain
    if phi23.domain != g3 or not isinstance(autB, AutomorphismGroup) or autB.structure != B:
        raise GroupError("phi23 must map G3 into the automorphism group of B")
    if phi13 is None:
        rows1, phi1 = autB.perms, phi23
    else:
        autA = phi13.codomain
        if (
            phi13.domain != g3
            or not isinstance(autA, AutomorphismGroup)
            or autA.structure != reduct(B, (0,))
        ):
            raise GroupError("phi13 must map G3 into the automorphism group of the reduct")
        rows1, phi1 = autA.perms, phi13

    fn_syms = []
    fns = []
    # alpha is the element's row position, and alpha - e its sort's start
    for alpha, (sort, e) in enumerate(B.elements()):
        if sort == 0:
            fn_syms.append((f"F1_{alpha}", (2,), 0))
            fns.append({(b,): rows1[phi1(b)][alpha] for b in g3.elements()})
    for alpha, (sort, e) in enumerate(B.elements()):
        fn_syms.append((f"F2_{alpha}", (2,), sort))
        fns.append({(b,): autB.perms[phi23(b)][alpha] - (alpha - e) for b in g3.elements()})
    for c in g3.elements():
        fn_syms.append((f"T3_{c}", (2,), 2))
        fns.append({(b,): g3.mul(b, c) for b in g3.elements()})

    sig = SortedSignature(
        B.signature.sort_names + ("g3",),
        B.signature.relations,
        B.signature.functions + tuple(fn_syms),
        B.signature.constants,
    )
    return SortedStructure(
        sig,
        B.sort_sizes + (g3.order,),
        B.relations,
        list(B.functions) + fns,
        B.constants,
    )
