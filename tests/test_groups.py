from __future__ import annotations

import itertools
import json
import os

import numpy as np
import pytest

from uniconstruct import config, groups, ucp
from uniconstruct.encode import GroupTriple, encode_three_sorted
from uniconstruct.errors import BoundExceededError, GroupError
from uniconstruct.groups import (
    FiniteGroup,
    GroupHom,
    alternating,
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
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    is_hom,
    is_surjective,
    normal_subgroups,
    quotient_by_center,
    quotient_by_subgroup,
    subgroups,
    surjective_homs,
    symmetric,
)
from uniconstruct.structures import SortedSignature, SortedStructure

from .conftest import directed_cycle, free_points, two_sorted
from .oracles import (
    naive_catalog,
    naive_closure,
    naive_direct_product,
    naive_is_hom,
    naive_normal_subgroups,
    naive_quotient,
    naive_section_census,
    naive_sections,
    naive_subgroups,
)


class TestFiniteGroup:
    def test_identity_is_zero(self):
        g = cyclic(5)
        assert all(g.mul(0, a) == a == g.mul(a, 0) for a in g.elements())

    def test_bad_identity_rejected(self):
        with pytest.raises(GroupError):
            FiniteGroup([[1, 0], [0, 1]])

    def test_non_associative_rejected(self):
        # rows/columns are permutations but (1*1)*2 != 1*(1*2)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupError):
            FiniteGroup(table)

    def test_element_orders(self):
        q8 = dicyclic(2)
        orders = sorted(q8.element_order(a) for a in q8.elements())
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_inverse_table(self):
        g = dihedral(4)
        assert all(g.mul(a, g.inv(a)) == 0 for a in g.elements())

    @pytest.mark.parametrize(
        "table",
        [
            [[0, 1, 2], [1, 2, 0], [2, 0, -1]],
            [[0, 1, 2], [1, 2, 0], [2, 0, 3]],
            [[0, 1], [1, 0], [0, 1]],
            [[0, 1], [1]],
        ],
        ids=["negative-entry", "entry-equal-to-order", "non-square", "ragged"],
    )
    def test_malformed_tables_rejected(self, table):
        with pytest.raises(GroupError):
            FiniteGroup(table)

    def test_array_table_equals_nested_lists(self):
        lists = cyclic(300).table.tolist()
        from_array = FiniteGroup(np.array(lists))
        from_lists = FiniteGroup(lists)
        assert from_array == from_lists
        assert hash(from_array) == hash(from_lists)
        assert from_array.table.dtype == np.int64
        assert np.array_equal(from_array.table, lists)

    def test_equality_ignores_names(self):
        g = cyclic(3)
        named = FiniteGroup(g.table, names=["e", "a", "b"], name="other")
        assert named == g and hash(named) == hash(g)
        assert g != cyclic(4) and g != direct_product(cyclic(2), cyclic(2))

    def test_table_and_inverses_are_read_only(self):
        g = cyclic(4)
        with pytest.raises(ValueError):
            g.table[1, 1] = 0
        with pytest.raises(ValueError):
            g._inv[1] = 1
        assert g.mul(1, 1) == 2 and g.inv(1) == 3

    def test_table_does_not_alias_callers_array(self):
        arr = cyclic(5).table.copy()
        g = FiniteGroup(arr)
        assert arr.flags.writeable and not np.shares_memory(arr, g.table)
        arr[1, 1] = 0
        assert g.mul(1, 1) == 2
        assert g == cyclic(5)

    def test_one_table_and_no_tuple_table(self):
        g = symmetric(3)
        center(g)  # fill the cached center too
        tables = [
            slot for slot in FiniteGroup.__slots__
            if isinstance(getattr(g, slot), np.ndarray) and getattr(g, slot).ndim == 2
        ]
        assert tables == ["table"]
        for slot in FiniteGroup.__slots__:
            value = getattr(g, slot)
            assert not (isinstance(value, tuple) and any(isinstance(v, tuple) for v in value))

    def test_accessors_return_int(self):
        g = dicyclic(2)
        for a in g.elements():
            assert type(g.inv(a)) is int and type(g.element_order(a)) is int
            assert all(type(g.mul(a, b)) is int for b in g.elements())

    def test_swapped_intercalate_in_c256_rejected(self):
        # rows and columns stay permutations, so only associativity can fail;
        # a check of sampled triples accepts this table
        table = cyclic(256).table.tolist()
        for row in (3, 131):
            table[row][5], table[row][133] = table[row][133], table[row][5]
        with pytest.raises(GroupError, match="not associative"):
            FiniteGroup(table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_light_test_agrees_with_all_triples(self, n):
        # every table with identity 0 whose rows and columns are permutations
        loops = _loop_tables(n)
        assert len(loops) == {1: 1, 2: 1, 3: 1, 4: 4, 5: 56}[n]
        for table in loops:
            arr = np.array(table)
            exhaustive = np.array_equal(arr[arr], arr[:, arr])
            small = arr.astype(np.uint8)
            gens = groups._generators(n, lambda a, b: small[a, b])
            assert groups._is_associative(small, gens) == exhaustive
            if not exhaustive:
                with pytest.raises(GroupError, match="not associative"):
                    FiniteGroup(table)

    @pytest.mark.parametrize("g", catalog(12), ids=lambda g: g.label())
    def test_generators_are_the_greedy_generating_set(self, g):
        gens = g.gens
        reached = frozenset({0})
        for x in gens:
            assert x == min(a for a in g.elements() if a not in reached)
            reached = naive_closure(g, reached | {x})
        assert len(reached) == g.order


def _loop_tables(n: int) -> list[list[list[int]]]:
    """All n x n tables with identity 0 whose rows and columns are permutations."""
    out = []
    rows = [list(range(n))]

    def extend():
        i = len(rows)
        if i == n:
            out.append([list(r) for r in rows])
            return
        for perm in itertools.permutations(range(n)):
            if perm[0] == i and all(perm[c] != r[c] for r in rows for c in range(n)):
                rows.append(list(perm))
                extend()
                rows.pop()

    extend()
    return out


class TestCenter:
    def test_abelian_center_is_everything(self):
        assert center(cyclic(4)) == [0, 1, 2, 3]

    def test_s3_is_centerless(self):
        assert center(symmetric(3)) == [0]

    def test_d4_center(self):
        # rotation subgroup encoded as 0..3; r^2 is element 2
        assert center(dihedral(4)) == [0, 2]

    @pytest.mark.parametrize("make", [lambda: dicyclic(2), lambda: dihedral(6),
                                      lambda: direct_product(cyclic(2), symmetric(3))])
    def test_matches_definition(self, make):
        g = make()
        naive = [z for z in g.elements() if all(g.mul(z, x) == g.mul(x, z) for x in g.elements())]
        assert center(g) == naive

    def test_kept_on_the_group_and_copied_out(self):
        g = dicyclic(2)
        first = center(g)
        first.append(99)
        assert center(g) == [0, 2]
        assert g._center == (0, 2)
        # an equal group built afresh starts empty and computes its own
        assert dicyclic(2)._center is None


class TestQuotients:
    def test_abelian_by_center_is_trivial(self):
        q, pi = quotient_by_center(cyclic(6))
        assert q.order == 1
        assert is_surjective(pi)

    def test_s3_by_center_is_s3(self):
        q, pi = quotient_by_center(symmetric(3))
        assert q.order == 6
        assert find_isomorphism(q, symmetric(3)) is not None

    def test_q8_by_center_is_klein_four(self):
        q, _ = quotient_by_center(dicyclic(2))
        klein = direct_product(cyclic(2), cyclic(2))
        assert q.order == 4
        assert find_isomorphism(q, klein) is not None
        assert all(q.mul(a, a) == 0 for a in q.elements())

    def test_projection_kernel_is_center(self):
        g = dihedral(4)
        _, pi = quotient_by_center(g)
        assert list(pi.kernel()) == center(g)

    def test_non_normal_subgroup_rejected(self):
        s3 = symmetric(3)
        reflection = next(
            h for h in subgroups(s3) if len(h) == 2
        )
        with pytest.raises(GroupError):
            quotient_by_subgroup(s3, reflection)

    @pytest.mark.parametrize("sub", [[0, 2, 7], [0, -2]], ids=["too-large", "negative"])
    def test_out_of_range_element_rejected(self, sub):
        with pytest.raises(GroupError, match="out of range"):
            quotient_by_subgroup(cyclic(4), sub)


class TestHoms:
    def test_identity_is_hom(self):
        g = cyclic(4)
        assert is_hom(list(range(4)), g, g)

    def test_constant_map_is_hom_not_surjective(self):
        g = cyclic(4)
        h = GroupHom(g, g, [0, 0, 0, 0])
        assert not is_surjective(h)

    def test_mod2_reduction(self):
        phi = GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        assert is_surjective(phi)
        assert is_hom(phi.map, phi.domain, phi.codomain)

    def test_non_hom_rejected(self):
        with pytest.raises(GroupError):
            GroupHom(cyclic(4), cyclic(2), [0, 1, 1, 0])

    def test_hom_json_round_trip(self):
        phi = GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        assert hom_from_json(json.loads(json.dumps(hom_to_json(phi)))) == phi


class TestClassifySections:
    def test_product_projection_splits(self):
        v4 = direct_product(cyclic(2), cyclic(2))
        phi = GroupHom(v4, cyclic(2), [0, 0, 1, 1])
        res = classify_sections(phi)
        assert res.has_splitting and res.has_weak_splitting
        # x -> (x, 0) is among the splittings
        assert any(sec.map == (0, 2) for sec in res.splittings)

    def test_c4_to_c2_has_nothing(self):
        phi = GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        res = classify_sections(phi)
        assert res.n_candidates == 4
        assert not res.has_splitting and not res.has_weak_splitting
        assert naive_section_census(phi) == (4, 0, 0)
        # the failure is the self-inverse condition on every candidate
        for combo in itertools.product((0, 2), (1, 3)):
            assert classify_section(phi, combo).classification == "section-only"

    def test_q8_to_quotient_has_nothing(self):
        q8 = dicyclic(2)
        _, phi = quotient_by_center(q8)
        res = classify_sections(phi)
        assert res.n_candidates == 16
        assert not res.has_splitting and not res.has_weak_splitting

    def test_d4_to_quotient_has_no_splitting(self):
        _, phi = quotient_by_center(dihedral(4))
        res = classify_sections(phi)
        assert not res.has_splitting

    def test_search_agrees_with_naive_sections(self):
        cases = [
            GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1]),
            GroupHom(direct_product(cyclic(2), cyclic(2)), cyclic(2), [0, 0, 1, 1]),
            quotient_by_center(dicyclic(2))[1],
            quotient_by_center(dihedral(4))[1],
            GroupHom(symmetric(3), cyclic(2), [0, 1, 1, 0, 0, 1]),
        ]
        for phi in cases:
            res = classify_sections(phi)
            split, weak = naive_sections(phi)
            assert [s.map for s in res.splittings] == split
            assert [s.map for s in res.weak_splittings] == weak
            assert res.has_splitting == bool(split)
            assert res.has_weak_splitting == bool(split or weak)

    def test_agrees_with_naive_census(self):
        cases = [
            GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1]),
            quotient_by_center(dicyclic(2))[1],
            quotient_by_center(dihedral(4))[1],
            GroupHom(cyclic(6), cyclic(3), [0, 1, 2, 0, 1, 2]),
        ]
        for phi in cases:
            res = classify_sections(phi)
            n_sections, n_split, n_weak = naive_section_census(phi)
            assert res.n_candidates == n_sections
            assert len(res.splittings) == n_split
            assert len(res.splittings) + len(res.weak_splittings) == n_weak

    def test_every_splitting_is_weak(self):
        v4 = direct_product(cyclic(2), cyclic(2))
        phi = GroupHom(v4, cyclic(2), [0, 0, 1, 1])
        for sec in classify_sections(phi).splittings:
            assert sec.is_weak_splitting()
            checks = classify_section(phi, sec.map)
            assert checks.classification == "splitting"

    def test_deterministic_order(self):
        for phi in (
            GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1]),
            quotient_by_subgroup(cyclic(9), [0, 3, 6])[1],
        ):
            a = classify_sections(phi)
            b = classify_sections(phi)
            found = [s.map for s in a.splittings + a.weak_splittings]
            assert found == [s.map for s in b.splittings + b.weak_splittings]
            assert found == sum(naive_sections(phi), [])

    def test_lists_equal_naive_on_catalog_8_quotients(self):
        checked = 0
        for g in catalog(8):
            for nsub in normal_subgroups(g):
                _, phi = quotient_by_subgroup(g, nsub)
                res = classify_sections(phi)
                split, weak = naive_sections(phi)
                assert [s.map for s in res.splittings] == split, (g, nsub)
                assert [s.map for s in res.weak_splittings] == weak, (g, nsub)
                checked += 1
        assert checked > 14

    def test_lists_equal_naive_on_d16_mod_center(self):
        """65,536 candidate sections, none a splitting of either kind; the
        search decides that without visiting them."""
        _, phi = quotient_by_center(dihedral(16))
        res = classify_sections(phi)
        assert res.n_candidates == 2**16
        assert res.nodes < 100
        assert ([s.map for s in res.splittings], [s.map for s in res.weak_splittings]) == (
            naive_sections(phi)
        ) == ([], [])

    def test_node_bound_is_checked_during_search(self):
        _, phi = quotient_by_center(dihedral(16))
        nodes = classify_sections(phi).nodes
        assert classify_sections(phi, max_candidates=nodes).nodes == nodes
        with pytest.raises(BoundExceededError):
            classify_sections(phi, max_candidates=nodes - 1)

    def test_non_surjective_rejected(self):
        phi = GroupHom(cyclic(2), cyclic(4), [0, 2])
        with pytest.raises(GroupError):
            classify_sections(phi)


class TestCatalog:
    def test_catalog_8_contents(self):
        cat = catalog(8)
        expected = [
            cyclic(1), cyclic(2), cyclic(3), cyclic(4),
            direct_product(cyclic(2), cyclic(2)),
            cyclic(5), cyclic(6), symmetric(3), cyclic(7), cyclic(8),
            direct_product(cyclic(4), cyclic(2)),
            direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))),
            dihedral(4), dicyclic(2),
        ]
        assert len(cat) == 14
        for want in expected:
            assert any(
                g.order == want.order and find_isomorphism(want, g) is not None
                for g in cat
            )

    def test_catalog_deduplicates(self):
        cat = catalog(8)
        for i, g in enumerate(cat):
            for h in cat[i + 1 :]:
                if g.order == h.order:
                    assert find_isomorphism(g, h) is None

    @pytest.mark.parametrize("max_order", [16, 24])
    def test_catalog_equals_naive_closure(self, max_order):
        got, want = catalog(max_order), naive_catalog(max_order)
        assert [g.label() for g in got] == [g.label() for g in want]
        assert all(np.array_equal(a.table, b.table) for a, b in zip(got, want))

    def test_catalog_builds_each_unordered_product_once(self, monkeypatch):
        built = []
        real = groups.direct_product

        def recording(g1, g2, name=None):
            built.append(frozenset({id(g1), id(g2)}))  # factors are kept groups, alive
            return real(g1, g2, name=name)

        monkeypatch.setattr(groups, "direct_product", recording)
        catalog(16)
        assert built and len(built) == len(set(built))

    @pytest.mark.parametrize(
        "g1, g2",
        [
            (symmetric(3), dihedral(4)),
            (dicyclic(2), cyclic(3)),
            (cyclic(1), symmetric(3)),
            (symmetric(3), cyclic(1)),
            (cyclic(4), cyclic(6)),
        ],
        ids=["S3xD4", "Q8xC3", "C1xS3", "S3xC1", "C4xC6"],
    )
    def test_direct_product_equals_naive(self, g1, g2):
        got, want = direct_product(g1, g2), naive_direct_product(g1, g2)
        assert np.array_equal(got.table, want.table) and got.label() == want.label()

    def test_iso_search_positive_and_negative(self):
        assert find_isomorphism(dihedral(3), symmetric(3)) is not None
        assert find_isomorphism(dihedral(4), dicyclic(2)) is None
        assert find_isomorphism(cyclic(4), direct_product(cyclic(2), cyclic(2))) is None

    def test_iso_search_returns_isomorphism(self):
        m = find_isomorphism(dihedral(3), symmetric(3))
        d3, s3 = dihedral(3), symmetric(3)
        assert sorted(m) == list(range(6))
        for a in d3.elements():
            for b in d3.elements():
                assert m[d3.mul(a, b)] == s3.mul(m[a], m[b])


class TestSubgroups:
    def test_s3_subgroup_count(self):
        assert len(subgroups(symmetric(3))) == 6

    def test_normal_subgroups_of_s3(self):
        ns = normal_subgroups(symmetric(3))
        assert sorted(len(n) for n in ns) == [1, 3, 6]

    def test_q8_all_subgroups_normal(self):
        q8 = dicyclic(2)
        assert len(subgroups(q8)) == len(normal_subgroups(q8))

    @pytest.mark.parametrize("g", catalog(16), ids=lambda g: g.label())
    def test_subgroups_and_quotients_equal_mul_oracle(self, g):
        assert subgroups(g) == naive_subgroups(g)
        normal = normal_subgroups(g)
        assert normal == naive_normal_subgroups(g)
        for nsub in normal:
            q, phi = quotient_by_subgroup(g, nsub)
            table, proj = naive_quotient(g, nsub)
            assert np.array_equal(q.table, table)
            assert phi.map == proj


class TestCatalogSearch:
    def test_search_small_orders_runs(self):
        witnesses = catalog_search_weak_not_strong(8)
        # every witness must genuinely separate weak from strong
        for w in witnesses:
            assert w.search.has_weak_splitting and not w.search.has_splitting

    def test_c4_to_c2_never_a_witness(self):
        witnesses = catalog_search_weak_not_strong(8)
        for w in witnesses:
            if w.group.order == 4 and find_isomorphism(w.group, cyclic(4)):
                assert w.phi.codomain.order != 2

    def test_c9_to_c3_weak_but_not_strong(self):
        """For abelian groups the center condition trivializes, so a weak
        splitting only has to preserve inverses; C9 -> C3 has three of those
        and no homomorphic section.  Frozen from the naive census."""
        c9 = cyclic(9)
        _, phi = quotient_by_subgroup(c9, [0, 3, 6])
        res = classify_sections(phi)
        assert res.has_weak_splitting and not res.has_splitting
        assert naive_section_census(phi) == (27, 0, 3)
        assert [s.map for s in res.weak_splittings] == naive_sections(phi)[1]

    def test_search_finds_witnesses_at_order_16(self):
        witnesses = catalog_search_weak_not_strong(16)
        found = {(w.group.label(), len(w.normal)) for w in witnesses}
        assert ("C9", 3) in found
        assert ("C2xC8", 4) in found


class TestAutGroup:
    def test_rigid_structure_trivial_group(self):
        sig_auts = aut_group(directed_cycle(3))
        assert sig_auts.group.order == 3

    def test_bare_three_points_is_s3(self):
        ag = aut_group(free_points(3))
        assert ag.group.order == 6
        assert find_isomorphism(ag.group, symmetric(3)) is not None

    def test_three_cycle_is_c3(self):
        ag = aut_group(directed_cycle(3))
        assert find_isomorphism(ag.group, cyclic(3)) is not None

    def test_action_is_isomorphism_under_composition(self):
        ag = aut_group(free_points(4))
        assert ag.group.order == 24
        for i in range(ag.group.order):
            for j in range(ag.group.order):
                composed = ag.maps[i].compose(ag.maps[j])
                assert ag.index_of(composed) == ag.group.mul(i, j)

    def test_identity_is_element_zero(self):
        ag = aut_group(free_points(3))
        assert ag.maps[0].maps == ((0, 1, 2),)

    @pytest.mark.parametrize("make, order", [
        (lambda: free_points(5), 120),
        # two 2-point blocks over a 2-point apex sort: Aut = C2 wr C2
        (lambda: two_sorted((4, 2), [("R", (0, 1), [(0, 0), (1, 0), (2, 1), (3, 1)])]), 8),
        # S4 -> S3 -> C2 encoded on 24 + 6 + 2 = 32 elements: Aut = G3
        (lambda: encode_three_sorted(_s4_s3_c2()), 24),
    ], ids=["free5", "two-sorted", "encode3-s4-s3-c2"])
    def test_table_is_composition(self, make, order):
        ag = aut_group(make(), max_elements=32)
        assert ag.group.order == order
        for i, mi in enumerate(ag.maps):
            for j, mj in enumerate(ag.maps):
                assert ag.index_of(mi.compose(mj)) == ag.group.mul(i, j)

    def test_missing_automorphism_raises_group_error(self, monkeypatch):
        full = groups.automorphisms
        monkeypatch.setattr(groups, "automorphisms", lambda s, **kw: full(s, **kw)[:-1])
        with pytest.raises(GroupError, match="not closed"):
            aut_group(free_points(3))

    def test_four_disjoint_three_cycles_order_against_sympy(self):
        from sympy.combinatorics import Permutation, PermutationGroup

        ag = aut_group(four_triangles())
        cycles = [[3 * k, 3 * k + 1, 3 * k + 2] for k in range(4)]
        # generated independently of the search: rotate each cycle, and
        # permute the cycles as blocks by a transposition and a 4-cycle
        gens = [Permutation([c], size=12) for c in cycles]
        gens.append(Permutation([[0, 3], [1, 4], [2, 5]], size=12))
        gens.append(Permutation([[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]], size=12))
        oracle = PermutationGroup(gens)
        assert oracle.order() == ag.group.order == 1944
        assert len(ag.index) == 1944
        assert all(oracle.contains(Permutation(list(m.maps[0]))) for m in ag.maps)
        last = ag.maps[-1]
        for j, mj in enumerate(ag.maps):
            assert ag.index_of(last.compose(mj)) == ag.group.mul(1943, j)


class TestPermutationFacts:
    """Order, centre and the homomorphism law decided from image rows and
    generators, with no Cayley table."""

    @pytest.mark.parametrize("make, order, center_size", [
        (lambda: free_points(5), 120, 1),
        (lambda: free_points(6), 720, 1),
        (lambda: free_points(7), 5040, 1),
        # C3 wr S4: the centre rotates all four triangles at once
        (lambda: four_triangles(), 1944, 3),
    ], ids=["free5", "free6", "free7", "four-triangles"])
    def test_order_and_center_equal_sympy_and_table(self, make, order, center_size):
        from sympy.combinatorics import Permutation, PermutationGroup

        ag = aut_group(make())
        oracle = PermutationGroup([Permutation(ag.perms[g].tolist()) for g in ag.gens])
        assert oracle.order() == ag.order == order
        oracle_center = [z.array_form for z in oracle.center().elements]
        assert center(ag) == sorted(ag.row_indices(np.array(oracle_center)).tolist())
        assert len(center(ag)) == center_size
        if order**2 <= config.DEFAULT.table_cells:
            assert ag.group.order == order and ag.group.gens == ag.gens
            assert center(ag.group) == center(ag)
        else:
            with pytest.raises(BoundExceededError, match="cells"):
                ag.group

    @pytest.mark.parametrize("g", catalog(12), ids=lambda g: g.label())
    def test_generator_law_equals_all_pairs_on_quotients(self, g):
        rejected = 0
        for sub in normal_subgroups(g):
            q, pi = quotient_by_subgroup(g, sub)
            assert is_hom(pi.map, g, q) and naive_is_hom(pi.map, g, q)
            for x in g.elements():
                for v in q.elements():
                    if v == pi.map[x]:
                        continue
                    # one changed cell: a hom only for C2 -> C2, whose mutant [0, 0] is trivial
                    mutant = list(pi.map)
                    mutant[x] = v
                    verdict = naive_is_hom(mutant, g, q)
                    assert is_hom(mutant, g, q) is verdict
                    rejected += not verdict
        assert rejected > 0 or g.order == 1

    def test_restriction_law_on_automorphism_groups(self, b_cycle3):
        h, g = aut_group(b_cycle3), aut_group(directed_cycle(3))
        restriction = ucp.restriction_map(h, g)
        assert is_hom(restriction, h, g)
        assert restriction == ucp.restriction_hom(h, g).map
        assert is_hom((0, 2, 1), h, g)  # inversion, since C3 is abelian
        assert not is_hom((0, 1, 1), h, g)


class TestTableCellsBound:
    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(config.DEFAULT, "table_cells", 99)

    @pytest.mark.parametrize("build", [
        lambda: cyclic(10),
        lambda: dihedral(5),
        lambda: dicyclic(3),
        lambda: symmetric(4),
        lambda: alternating(5),
        lambda: direct_product(cyclic(5), cyclic(2)),
        lambda: FiniteGroup([[(i + j) % 10 for j in range(10)] for i in range(10)]),
    ], ids=["cyclic", "dihedral", "dicyclic", "symmetric", "alternating", "product", "table"])
    def test_tables_over_the_bound_refused(self, build):
        with pytest.raises(BoundExceededError, match="order .* has .* cells, over the bound 99"):
            build()

    def test_table_at_the_bound_accepted(self):
        assert cyclic(9).order == 9

    def test_automorphism_facts_need_no_table(self):
        ag = aut_group(free_points(5))
        assert ag.order == 120 and center(ag) == [0] and len(ag.gens) == 4
        with pytest.raises(BoundExceededError, match="order 120 has 14400 cells"):
            ag.group

    def test_environment_override(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "from uniconstruct import config; print(config.DEFAULT.table_cells)"],
            env={**os.environ, "UNICONSTRUCT_TABLE_CELLS_BOUND": "123"},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "123"


def four_triangles() -> SortedStructure:
    """Four disjoint directed 3-cycles on 12 points; Aut = C3 wr S4."""
    sig = SortedSignature(("p",), relations=(("E", (0, 0)),))
    cycles = [[3 * k, 3 * k + 1, 3 * k + 2] for k in range(4)]
    return SortedStructure(sig, (12,), [[(c[i], c[(i + 1) % 3]) for c in cycles for i in range(3)]])


def _s4_s3_c2() -> GroupTriple:
    s4, s3, c2 = symmetric(4), symmetric(3), cyclic(2)
    return GroupTriple(c2, s3, s4, surjective_homs(s3, c2)[0], surjective_homs(s4, s3)[0])


class TestSurjectiveHoms:
    def test_c4_onto_c2(self):
        homs = surjective_homs(cyclic(4), cyclic(2))
        assert [h.map for h in homs] == [(0, 1, 0, 1)]

    def test_s3_onto_c2_is_sign(self):
        homs = surjective_homs(symmetric(3), cyclic(2))
        assert len(homs) == 1
        sign = homs[0]
        s3 = symmetric(3)
        transpositions = [a for a in s3.elements() if s3.element_order(a) == 2]
        assert all(sign(a) == 1 for a in transpositions)

    def test_no_surjection_onto_larger(self):
        assert surjective_homs(cyclic(2), cyclic(4)) == []

    def test_order_obstruction(self):
        assert surjective_homs(cyclic(9), cyclic(2)) == []


class TestGroupSerialization:
    def test_round_trip(self):
        g = dihedral(4)
        doc = json.loads(json.dumps(group_to_json(g)))
        assert group_from_json(doc) == g

    def test_rows_are_plain_ints_shared_per_element(self):
        g = cyclic(300)
        rows = group_to_json(g)["table"]
        assert all(type(row) is list for row in rows)
        assert all(type(v) is int for row in rows for v in row)
        assert rows[1][298] is rows[298][1] is rows[0][299]

    def test_json_bytes_unchanged(self):
        assert json.dumps(group_to_json(cyclic(3))) == (
            '{"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}'
        )
        for g in (symmetric(3), dicyclic(3), cyclic(300)):
            rows = [[g.mul(a, b) for b in g.elements()] for a in g.elements()]
            want = {"order": g.order, "table": rows}
            if g.names is not None:
                want["names"] = list(g.names)
            assert json.dumps(group_to_json(g), indent=2) == json.dumps(want, indent=2)

    def test_bad_table_rejected(self):
        with pytest.raises(GroupError):
            group_from_json({"order": 2, "table": [[0, 1], [1, 1]]})
