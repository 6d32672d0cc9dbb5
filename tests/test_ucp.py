from __future__ import annotations

import pytest

from uniconstruct.errors import SignatureMismatchError, StructureError
from uniconstruct.groups import (
    FiniteGroup,
    GroupHom,
    center,
    cyclic,
    dicyclic,
    dihedral,
    first_weak_splitting,
    quotient_by_center,
    surjective_homs,
    symmetric,
)
from uniconstruct.encode import GroupTriple, encode_three_sorted
from uniconstruct.structures import (
    SortedSignature,
    SortedStructure,
    automorphisms,
    reduct,
)
from uniconstruct.ucp import assemble_ucp, derive_triple

from .conftest import rigid_three_sorted, two_sorted
from .oracles import (
    CatalogMismatchError,
    Solver,
    canonical_copies,
    cayley_table,
    compose_solvers,
    naive_restriction,
    reduct_solver,
    solver_from_catalog,
    solver_from_json,
    solver_to_json,
)
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
        assert ucp.is_ucp and cayley_table(ucp.H).order == 1
        assert cayley_table(ucp.G).order == 1

    def test_two_free_points_over_apex(self, b_two_free):
        ucp = assemble_ucp(b_two_free)
        assert ucp.is_weak_ucp
        assert cayley_table(ucp.H).order == 2 and cayley_table(ucp.G).order == 2
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
        assert cayley_table(ucp.H).order == 1 and cayley_table(ucp.G).order == 2

    def test_k_is_center_of_h(self, b_matching):
        ucp = assemble_ucp(b_matching)
        assert list(ucp.K) == center(cayley_table(ucp.H))

    def test_kernel_is_first_sort_fixers(self, b_matching):
        ucp = assemble_ucp(b_matching)
        for i in range(cayley_table(ucp.H).order):
            fixes = ucp.H.maps[i].maps[0] == tuple(range(b_matching.sort_sizes[0]))
            assert (ucp.phi.map[i] == 0) == fixes

    def test_weak_problem_builds_no_table(self, b_cycle3, monkeypatch):
        built = []
        init = FiniteGroup.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.order)

        monkeypatch.setattr(FiniteGroup, "__init__", counted)
        ucp = assemble_ucp(b_cycle3)
        assert set(ucp.H._columns) == {0, *ucp.H.gens} and set(ucp.G._columns) == {0, *ucp.G.gens}
        assert ucp.phi.map == ucp.restriction == (0, 1, 2)
        assert ucp.phi.domain is ucp.H and ucp.phi.codomain is ucp.G
        assert first_weak_splitting(ucp.phi).is_splitting()
        assert built == []

    def test_one_element_sorts(self):
        # each sort of B has one element, so A's rows have one entry: an
        # itemgetter of one index would return the entry, not a row
        b = two_sorted((1, 1), [("R", (0, 1), [(0, 0)])])
        ucp = assemble_ucp(b, [0])
        assert ucp.is_ucp and ucp.restriction == (0,) and ucp.K == (0,)
        for g in (ucp.H, ucp.G):
            assert g.order == 1 and g.gens == ()
            assert g.right(0) == [0] and g.mul(0, 0) == 0
            assert g.inverses() == [0] and cayley_table(g).table == ((0,),)
        assert ucp.G.perms == [(0,)] and ucp.H.perms == [(0, 1)]

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
        assert cayley_table(ucp.H).order == 9 and cayley_table(ucp.G).order == 3
        search = classify_sections(ucp.phi)
        assert not search.has_splitting
        assert search.has_weak_splitting
        with_psi = assemble_ucp(b, search.weak_splittings[0])
        assert with_psi.is_ucp
        assert with_psi.psi.classification == "weak-splitting"


def library_tower(g1, g2, g3):
    """The tower G1 <- G2 <- G3 along the first surjections the library finds."""
    return GroupTriple(
        g1, g2, g3, surjective_homs(g2, g1, limit=1)[0], surjective_homs(g3, g2, limit=1)[0]
    )


# the groups (G1, G2, G3) of the benchmark's encode3 towers
BENCH_TOWERS = {
    "s4-s3-c2": lambda: (cyclic(2), symmetric(3), symmetric(4)),
    "d4-d4-c2": lambda: (cyclic(2), dihedral(4), dihedral(4)),
    "q8-v4-c2": lambda: (cyclic(2), quotient_by_center(dicyclic(2))[0], dicyclic(2)),
    "s3-s3-c2": lambda: (cyclic(2), symmetric(3), symmetric(3)),
}


def check_direct_derivation(C, d):
    """The three problems of ``d = derive_triple(C)`` share one search per
    automorphism group, each group holds all its structure's automorphisms,
    and each restriction map is the oracle's."""
    assert d.c23.H is d.c13.H and d.c23.G is d.c12.H and d.c12.G is d.c13.G
    for aut, s in ((d.c23.H, C), (d.c12.H, reduct(C, (0, 1))), (d.c12.G, reduct(C, (0,)))):
        assert aut.structure == s
        assert aut.order == len(automorphisms(s, max_elements=C.total_elements))
    for problem in (d.c12, d.c23, d.c13):
        assert problem.restriction == naive_restriction(problem.H, problem.G)


class TestDeriveTriple:
    def test_trivial_groups_give_trivial_ucps(self):
        s = encode_three_sorted(trivial_triple())
        d = derive_triple(s)
        assert d.all_weak and d.composition_ok
        assert [cayley_table(p.H).order for p in (d.c12, d.c23, d.c13)] == [1, 1, 1]

    def test_c2_tower_all_surjective(self):
        s = encode_three_sorted(c2_triple())
        d = derive_triple(s)
        assert d.all_weak and d.composition_ok
        for ucp in (d.c12, d.c23, d.c13):
            assert ucp.report.ok("e")
            assert cayley_table(ucp.H).order == 2

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

    @pytest.mark.parametrize("build", [trivial_triple, c2_triple])
    def test_small_towers_restrict_directly(self, build):
        C = encode_three_sorted(build())
        check_direct_derivation(C, derive_triple(C))

    @pytest.mark.parametrize("name", sorted(BENCH_TOWERS))
    def test_bench_towers_restrict_directly(self, name):
        t = library_tower(*BENCH_TOWERS[name]())
        C = encode_three_sorted(t)
        d = derive_triple(C, max_elements=C.total_elements)
        assert d.all_weak and d.composition_ok
        assert d.c23.H.order == t.g3.order
        check_direct_derivation(C, d)


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
    """The catalog model of construction maps in ``tests/oracles``, which
    criterion 6 checks the uniform construction against."""

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

        cat2 = chain_catalogs()
        f23 = solver_from_catalog(cat2, keep=(0, 1))
        doc = json.loads(json.dumps(solver_to_json(f23)))
        back = solver_from_json(doc)
        assert back.keep == f23.keep
        assert back.catalog1 == f23.catalog1
        assert back.outputs == f23.outputs

    @pytest.mark.parametrize("keep", [[0.0], ["0"], [True], 0, None])
    def test_json_keep_must_be_a_list_of_ints(self, keep):
        doc = solver_to_json(solver_from_catalog(chain_catalogs(1), keep=(0,)))
        doc["keep"] = keep
        with pytest.raises(CatalogMismatchError, match="malformed solver document: keep must be"):
            solver_from_json(doc)
