from __future__ import annotations

import pytest

from uniconstruct.errors import CatalogMismatchError, SignatureMismatchError, StructureError
from uniconstruct.groups import GroupHom, center, cyclic
from uniconstruct.encode import GroupTriple, encode_three_sorted
from uniconstruct.structures import (
    SortedMap,
    SortedSignature,
    SortedStructure,
    automorphisms,
    canonical_copies,
    reduct,
)
from uniconstruct.ucp import (
    Solver,
    assemble_ucp,
    compose_solvers,
    derive_triple,
    fuse_sorts,
    reduct_solver,
    solver_from_catalog,
)

from .conftest import two_sorted
from .test_uniform import weak_only_lifting


def trivial_triple():
    c1 = cyclic(1)
    ident = GroupHom(c1, c1, [0])
    return GroupTriple(c1, c1, c1, ident, ident)


def c2_triple():
    c2 = cyclic(2)
    ident = GroupHom(c2, c2, [0, 1])
    return GroupTriple(c2, c2, c2, ident, ident)


class TestAssembleUcp:
    def test_trivial_two_singletons(self, b_two_free):
        s = SortedStructure(SortedSignature(("p", "q")), (1, 1))
        ucp = assemble_ucp(s, [0])
        assert ucp.is_ucp and ucp.H.group.order == 1 and ucp.G.group.order == 1

    def test_two_free_points_over_apex(self, b_two_free):
        ucp = assemble_ucp(b_two_free)
        assert ucp.is_weak_ucp
        assert ucp.H.group.order == 2 and ucp.G.group.order == 2
        assert ucp.phi.map == (0, 1)

    def test_splitting_section_accepted(self, b_two_free):
        ucp = assemble_ucp(b_two_free, [0, 1])
        assert ucp.is_ucp and not ucp.weak_only
        assert ucp.psi.classification == "splitting"

    def test_clause_e_failure_reported_not_raised(self):
        # a first-sort swap extends to no automorphism of B
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0)])])
        ucp = assemble_ucp(b)
        assert not ucp.report.ok("e")
        assert not ucp.is_weak_ucp
        assert ucp.H.group.order == 1 and ucp.G.group.order == 2

    def test_k_is_center_of_h(self, b_matching):
        ucp = assemble_ucp(b_matching)
        assert list(ucp.K) == center(ucp.H.group)

    def test_kernel_is_first_sort_fixers(self, b_matching):
        ucp = assemble_ucp(b_matching)
        for i in range(ucp.H.group.order):
            fixes = ucp.H.maps[i].maps[0] == tuple(range(b_matching.sort_sizes[0]))
            assert (ucp.phi.map[i] == 0) == fixes

    def test_weak_problem_builds_no_table(self, b_cycle3):
        ucp = assemble_ucp(b_cycle3)
        assert ucp.H._group is None and ucp.G._group is None
        assert ucp.phi.map == ucp.restriction == (0, 1, 2)
        assert ucp.H._group is ucp.phi.domain and ucp.G._group is ucp.phi.codomain

    def test_with_section_equals_assembling_with_it(self):
        b, search = weak_only_lifting()
        weak = assemble_ucp(b)
        for sec in [*search.splittings, *search.weak_splittings, [0, 0, 0]]:
            direct = assemble_ucp(b, sec)
            reused = weak.with_section(sec)
            assert reused.report == direct.report and reused.psi == direct.psi
            assert reused.weak_only is direct.weak_only is False
            assert reused.H is weak.H and reused.phi is weak.phi
        assert weak.report.entries[-1] == ("f", True, "no section supplied (weak problem)")

    def test_bad_section_fails_clause_f(self, b_two_free):
        ucp = assemble_ucp(b_two_free, [1, 1])
        assert not ucp.report.ok("f")
        assert not ucp.is_ucp

    def test_non_two_sorted_rejected(self):
        s = SortedStructure(SortedSignature(("p",)), (2,))
        with pytest.raises(StructureError):
            assemble_ucp(s)

    def test_weakly_split_but_unsplittable_restriction(self):
        """A full problem whose restriction map admits weak liftings only.

        A 9-cycle over a 3-cycle with positions tied mod 3 restricts as
        C9 -> C3; no section is a homomorphism, but inverse-preserving ones
        exist, so the problem assembles with a weak splitting.
        """
        from uniconstruct.groups import classify_sections

        b = two_sorted(
            (3, 9),
            [
                ("E", (0, 0), [(i, (i + 1) % 3) for i in range(3)]),
                ("C", (1, 1), [(i, (i + 1) % 9) for i in range(9)]),
                ("R", (0, 1), [(i % 3, i) for i in range(9)]),
            ],
        )
        ucp = assemble_ucp(b)
        assert ucp.H.group.order == 9 and ucp.G.group.order == 3
        search = classify_sections(ucp.phi)
        assert not search.has_splitting
        assert search.has_weak_splitting
        with_psi = assemble_ucp(b, search.weak_splittings[0])
        assert with_psi.is_ucp
        assert with_psi.psi.classification == "weak-splitting"


class TestFuseSorts:
    def test_blocks_must_partition(self, b_two_free):
        with pytest.raises(StructureError):
            fuse_sorts(b_two_free, ((0,),))

    def test_markers_pin_blocks(self):
        # two same-size free sorts: fused sort has markers, so autos cannot mix
        s = SortedStructure(SortedSignature(("p", "q")), (2, 2))
        fused = fuse_sorts(s, ((0, 1),))
        auts = automorphisms(fused.structure)
        assert len(auts) == 4  # 2! * 2!, not 4!

    def test_aut_counts_match_original(self):
        t = c2_triple()
        s = encode_three_sorted(t)
        fused = fuse_sorts(s, ((0, 1), (2,)))
        assert len(automorphisms(fused.structure, max_elements=16)) == len(
            automorphisms(s, max_elements=16)
        )

    def test_fuse_unfuse_round_trip(self):
        t = c2_triple()
        s = encode_three_sorted(t)
        fused = fuse_sorts(s, ((0, 1), (2,)))
        leading = reduct(fused.structure, (0,))
        for a in automorphisms(s, max_elements=16):
            fused_map = fused.fuse_map(a.maps)
            assert fused.unfuse_map(fused_map) == a.maps
            # a map on the leading block alone gives the maps of its sorts
            on_leading = SortedMap(leading, leading, fused_map.maps[:1])
            assert fused.unfuse_map(on_leading) == a.maps[:2]
        # sort 0 sent into sort 1's range
        swap = SortedMap(leading, leading, ((2, 3, 0, 1),))
        with pytest.raises(StructureError, match="does not preserve the fused blocks"):
            fused.unfuse_map(swap)

    def test_function_graphs_carried(self, b_two_free):
        sig = SortedSignature(("p", "q"), functions=(("f", (0,), 1),))
        s = SortedStructure(sig, (2, 2), [], [{(0,): 0, (1,): 1}])
        fused = fuse_sorts(s, ((0, 1),))
        (name, rsig) = fused.structure.signature.relations[0]
        assert name == "f" and rsig == (0, 0)
        assert fused.structure.relations[0] == frozenset({(0, 2), (1, 3)})


class TestDeriveTriple:
    def test_trivial_groups_give_trivial_ucps(self):
        s = encode_three_sorted(trivial_triple())
        d = derive_triple(s)
        assert d.all_weak and d.composition_ok
        assert d.c12.H.group.order == d.c23.H.group.order == d.c13.H.group.order == 1

    def test_c2_tower_all_surjective(self):
        s = encode_three_sorted(c2_triple())
        d = derive_triple(s)
        assert d.all_weak and d.composition_ok
        for ucp in (d.c12, d.c23, d.c13):
            assert ucp.report.ok("e")
            assert ucp.H.group.order == 2

    def test_pinned_third_sort_fails_clause_e(self):
        # free pair on sort 1; sort-2 asymmetry through a constant-pinned sort 3
        sig = SortedSignature(
            ("a", "b", "c"),
            relations=(("R", (1, 2)),),
            constants=(("k", 2),),
        )
        s = SortedStructure(sig, (1, 2, 2), [[(0, 0)]], [], [0])
        d = derive_triple(s)
        assert not d.c23.report.ok("e")
        assert not d.all_weak

    def test_requires_three_sorts(self, b_two_free):
        with pytest.raises(StructureError):
            derive_triple(b_two_free)

    def test_restriction_composition_on_nontrivial_tower(self):
        c4, c2 = cyclic(4), cyclic(2)
        t = GroupTriple(c2, c2, c4, GroupHom(c2, c2, [0, 1]), GroupHom(c4, c2, [0, 1, 0, 1]))
        d = derive_triple(encode_three_sorted(t))
        assert d.composition_ok


def rigid_three_sorted():
    """Rigid 3-sorted structure with injective reducts at every level."""
    sig = SortedSignature(
        ("a", "b", "c"),
        relations=(("L", (0, 0)), ("P", (0, 1)), ("Q", (1, 2))),
    )
    return SortedStructure(
        sig,
        (3, 2, 2),
        [
            [(0, 1), (1, 2), (0, 2)],
            [(0, 0), (1, 1)],
            [(0, 0), (1, 1)],
        ],
    )


def chain_catalogs(n=3):
    c = rigid_three_sorted()
    selected, seen = [], set()
    for copy in canonical_copies(c):
        key = reduct(copy, (0,)).canonical_key()
        if key not in seen:
            seen.add(key)
            selected.append(copy)
        if len(selected) == n:
            break
    return selected


class TestSolvers:
    def test_solver_from_catalog_invariant(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        f23.verify()
        for b in cat2:
            assert f23.apply(reduct(b, (0, 1))) == b

    def test_catalog_collision_rejected(self):
        c = rigid_three_sorted()
        copies = canonical_copies(c)
        colliding = None
        for x in copies:
            for y in copies:
                if x != y and reduct(x, (0, 1)) == reduct(y, (0, 1)):
                    colliding = (x, y)
                    break
            if colliding:
                break
        assert colliding is not None
        with pytest.raises(CatalogMismatchError):
            solver_from_catalog(colliding, keep=(0, 1))

    def test_identity_solver_composition(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        mid = list(f23.catalog1)
        ident = Solver(tuple(mid), tuple(mid), tuple(mid), (0, 1))
        ident.verify()
        f12 = solver_from_catalog(mid, keep=(0,))
        comp = compose_solvers(f12, ident)
        assert comp.outputs == f12.outputs

    def test_full_chain_composition(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        f12 = solver_from_catalog(f23.catalog1, keep=(0,))
        f13 = compose_solvers(f12, f23)
        f13.verify()
        assert f13.keep == (0,)
        for b in f13.catalog2:
            assert f13.apply(reduct(b, (0,))) == b

    def test_one_element_catalogs(self):
        cat2 = chain_catalogs(1)
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        f12 = solver_from_catalog(f23.catalog1, keep=(0,))
        f13 = compose_solvers(f12, f23)
        assert len(f13.catalog1) == 1

    def test_catalog_mismatch_rejected(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        other = solver_from_catalog(cat2[:2], keep=(0, 1))
        f12 = solver_from_catalog(f23.catalog1, keep=(0,))
        with pytest.raises(CatalogMismatchError):
            compose_solvers(f12, other)

    def test_reduct_solver_drops_expansion_symbol(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        target = SortedSignature(
            ("a", "b", "c"), relations=(("L", (0, 0)), ("P", (0, 1)))
        )
        fr = reduct_solver(f23, target)
        fr.verify()
        assert fr.catalog1 == f23.catalog1
        for b in fr.catalog2:
            assert [n for n, _ in b.signature.relations] == ["L", "P"]

    def test_reduct_solver_full_signature_unchanged(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        fr = reduct_solver(f23, cat2[0].signature)
        assert fr.catalog2 == f23.catalog2

    def test_non_expansion_rejected(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        bad = SortedSignature(("a", "b", "c"), relations=(("X", (0, 0)),))
        with pytest.raises(SignatureMismatchError):
            reduct_solver(f23, bad)

    def test_dropping_kept_symbol_rejected(self):
        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        target = SortedSignature(("a", "b", "c"), relations=(("L", (0, 0)),))
        with pytest.raises(SignatureMismatchError):
            reduct_solver(f23, target)

    def test_reduct_solver_drops_constant_expansion(self):
        # expanded catalog members carry one constant; the reduction forgets it
        base = rigid_three_sorted()
        sig = SortedSignature(
            base.signature.sort_names,
            base.signature.relations,
            (),
            (("k", 2),),
        )
        expanded = SortedStructure(
            sig, base.sort_sizes, base.relations, (), (0,)
        )
        selected, seen = [], set()
        for copy in canonical_copies(expanded):
            key = reduct(copy, (0,)).canonical_key()
            if key not in seen:
                seen.add(key)
                selected.append(copy)
            if len(selected) == 3:
                break
        fd = solver_from_catalog(selected, keep=(0, 1))
        fr = reduct_solver(fd, base.signature)
        fr.verify()
        for b in fr.catalog2:
            assert b.signature.constants == ()
        assert fr.catalog1 == fd.catalog1

    def test_json_round_trip(self):
        import json

        from uniconstruct.ucp import solver_from_json, solver_to_json

        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        doc = json.loads(json.dumps(solver_to_json(f23)))
        back = solver_from_json(doc)
        assert back.keep == f23.keep
        assert back.catalog1 == f23.catalog1
        assert back.outputs == f23.outputs
