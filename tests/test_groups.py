from __future__ import annotations

import gc
import itertools
import json
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from uniconstruct import config, groups, structures, ucp
from uniconstruct.encode import encode_three_sorted
from uniconstruct.errors import BoundExceededError, GroupError
from uniconstruct.groups import (
    SECTION_ONLY,
    SPLITTING,
    WEAK_SPLITTING,
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
    decide_splittings,
    first_weak_splitting,
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

from .conftest import directed_cycle, free_points, s4_s3_c2, two_sorted
from .oracles import (
    _naive_labelled_sections,
    cayley_table,
    naive_catalog,
    naive_closure,
    naive_direct_product,
    naive_homs,
    naive_is_hom,
    naive_normal_subgroups,
    naive_quotient,
    naive_center_set,
    naive_section_census,
    naive_section_label,
    naive_sections,
    naive_subgroups,
    on_tables,
    table_labeller,
    table_weak_splittings,
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

    @pytest.mark.parametrize("g", catalog(16), ids=lambda g: g.label())
    def test_inverses_are_the_zeros_of_the_rows(self, g):
        # found along the generator columns, not by scanning every row
        assert g.inverses() == [row.index(0) for row in g.table]

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, 1, 2], [1, 2, 0], [2, 0, -1]], "table entries out of range"),
            ([[0, 1, 2], [1, 2, 0], [2, 0, 3]], "table entries out of range"),
            ([[0, 1], [1, 0], [0, 1]], "multiplication table is not square"),
            ([[0, 1], [1]], "multiplication table is not square"),
            ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "row/column 1 is not a permutation"),
            ([[0, 1], [1, 1]], "row/column 1 is not a permutation"),
            ([[1, 0], [0, 1]], "element 0 is not an identity"),
        ],
        ids=["negative-entry", "entry-equal-to-order", "non-square", "ragged",
             "rows-permute-columns-do-not", "associative-no-right-inverse", "no-identity"],
    )
    def test_malformed_tables_rejected(self, table, message):
        with pytest.raises(GroupError) as info:
            FiniteGroup(table)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "table",
        [[[0, 1.7], [1.7, 0]], [["0", "1"], ["1", "0"]], [[0, 1], [1, None]], [[0, 1], [1, [0]]]],
        ids=["float", "string", "none", "list"],
    )
    def test_non_integer_entries_refused_not_truncated(self, table):
        with pytest.raises(GroupError, match="is not an integer"):
            FiniteGroup(table)

    def test_values_equal_to_an_index_read_as_that_index(self):
        g = FiniteGroup([[0, True], [np.int64(1), 0]])
        assert g == cyclic(2) and all(type(v) is int for row in g.table for v in row)

    def test_array_table_equals_nested_lists(self):
        lists = [list(row) for row in cyclic(300).table]
        from_array = FiniteGroup(np.array(lists))
        from_lists = FiniteGroup(lists)
        assert from_array == from_lists
        assert hash(from_array) == hash(from_lists)
        assert from_array.table == from_lists.table == tuple(map(tuple, lists))
        assert all(type(v) is int for row in from_array.table for v in row)

    def test_cells_are_the_shared_ints_of_their_elements(self):
        g = FiniteGroup([[(a + b) % 300 for b in range(300)] for a in range(300)])
        element = g.table[0]
        assert all(v is element[v] for row in g.table for v in row)
        assert all(g.inv(a) is element[g.inv(a)] for a in g.elements())

    def test_equality_ignores_names(self):
        g = cyclic(3)
        named = FiniteGroup(g.table, names=["e", "a", "b"], name="other")
        assert named == g and hash(named) == hash(g)
        assert g != cyclic(4) and g != direct_product(cyclic(2), cyclic(2))

    def test_table_hash_is_made_once_and_kept(self):
        g, twin = cyclic(300), FiniteGroup([list(row) for row in cyclic(300).table])
        assert g._hash is None  # nothing is hashed until asked
        assert hash(g) == hash(twin) == hash(g.table) == g._hash == twin._hash
        assert len({g, twin, cyclic(300)}) == 1

    def test_table_and_inverses_are_read_only(self):
        g = cyclic(4)
        with pytest.raises(TypeError):
            g.table[1][1] = 0
        with pytest.raises(TypeError):
            g._inv[1] = 1
        g.inverses()[1] = 1  # a fresh list each call
        assert g.mul(1, 1) == 2 and g.inv(1) == 3 and g.inverses() == [0, 3, 2, 1]

    def test_table_does_not_alias_callers_array(self):
        lists = [list(row) for row in cyclic(5).table]
        arr = np.array(lists)
        from_lists, from_array = FiniteGroup(lists), FiniteGroup(arr)
        lists[1][1] = 0
        arr[1, 1] = 0
        assert from_lists.mul(1, 1) == from_array.mul(1, 1) == 2
        assert from_lists == from_array == cyclic(5)

    def test_one_table_and_no_row_cache(self):
        g = symmetric(3)
        center(g)  # fill the cached center too
        tables = [
            slot for slot in FiniteGroup.__slots__
            if isinstance(getattr(g, slot), tuple) and any(isinstance(v, tuple) for v in getattr(g, slot))
        ]
        assert tables == ["table"]
        assert g.right(1) == [row[1] for row in g.table]

    def test_accessors_return_int(self):
        g = dicyclic(2)
        for a in g.elements():
            assert type(g.inv(a)) is int and type(g.element_order(a)) is int
            assert all(type(g.mul(a, b)) is int for b in g.elements())

    def test_swapped_intercalate_in_c256_rejected(self):
        # rows and columns stay permutations, so only associativity can fail;
        # a check of sampled triples accepts this table
        table = [list(row) for row in cyclic(256).table]
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
            exhaustive = all(
                table[table[x][y]][z] == table[x][table[y][z]]
                for x, y, z in itertools.product(range(n), repeat=3)
            )
            rows = tuple(map(tuple, table))
            column = lambda q: [row[q] for row in rows]  # noqa: E731
            gens = groups._generators(n, column)
            pruned = groups._irredundant(n, gens, column)
            assert set(pruned) <= set(gens)
            assert groups._is_associative(rows, gens) == exhaustive
            assert groups._is_associative(rows, pruned) == exhaustive
            if not exhaustive:
                with pytest.raises(GroupError, match="not associative"):
                    FiniteGroup(table)

    @pytest.mark.parametrize("g", catalog(16), ids=lambda g: g.label())
    def test_irredundant_generators_generate(self, g):
        pruned = groups._irredundant(g.order, g.gens, g.right)
        assert set(pruned) <= set(g.gens)
        assert len(naive_closure(g, {0, *pruned})) == g.order
        # no generator left out of the subset could be dropped as well
        for q in pruned:
            assert len(naive_closure(g, {0, *pruned} - {q})) < g.order

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

    def test_trivial_domain_must_map_to_the_identity(self):
        # the trivial group has no generators, so only m(1) = 1 is left to check
        assert is_hom((0,), cyclic(1), cyclic(2))
        assert not is_hom((1,), cyclic(1), cyclic(2)) and not naive_is_hom((1,), cyclic(1), cyclic(2))

    def test_hom_json_round_trip(self):
        phi = GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        assert hom_from_json(json.loads(json.dumps(hom_to_json(phi)))) == phi

    def test_non_integer_values_refused_not_truncated(self):
        c4, c2 = cyclic(4), cyclic(2)
        with pytest.raises(GroupError, match="hom map must hold integers"):
            GroupHom(c4, c2, [0, 1.9, 0, 1])
        with pytest.raises(GroupError, match="hom map must hold integers"):
            is_hom([0, 1.5, 0, 1], c4, c2)
        with pytest.raises(GroupError, match="subgroup must hold integers"):
            quotient_by_subgroup(c4, [0, 2.5])
        phi = GroupHom(c4, c2, [0, 1, 0, 1])
        with pytest.raises(GroupError, match="section must hold integers"):
            classify_section(phi, [0, "1"])

    def test_values_equal_to_an_index_read_as_that_index(self):
        c4, c2 = cyclic(4), cyclic(2)
        phi = GroupHom(c4, c2, [0, True, np.int64(0), np.int64(1)])
        assert phi.map == (0, 1, 0, 1) and all(type(v) is int for v in phi.map)
        assert is_hom([0, True, 0, 1], c4, c2)
        q, _ = quotient_by_subgroup(c4, [0, np.int64(2)])
        assert q.order == 2


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


def _block_cases() -> dict:
    """Every catalog(16) quotient, C2xD8 -> D8 (4,096 leaves) and D16 -> D16/Z
    (no leaf)."""
    cases = {}
    for g in catalog(16):
        for nsub in normal_subgroups(g):
            cases[f"{g.label()}/{sorted(nsub)}"] = quotient_by_subgroup(g, nsub)[1]
    c2xd8 = direct_product(cyclic(2), dihedral(8))
    cases["C2xD8->D8"] = GroupHom(c2xd8, dihedral(8), [x % 16 for x in range(32)])
    cases["D16->D16/Z"] = quotient_by_center(dihedral(16))[1]
    return cases


def _found(res):
    return (
        res.nodes,
        [(s.map, s.classification) for s in res.splittings],
        [(s.map, s.classification) for s in res.weak_splittings],
    )


@pytest.fixture(scope="module")
def block_searches():
    cases = _block_cases()
    return cases, {name: _found(classify_sections(phi)) for name, phi in cases.items()}


class TestSectionSearchBlocks:
    """classify_sections on every catalog(16) quotient, C2xD8 -> D8 and
    D16 -> D16/Z: its totals, and every leaf labelled as classify_section
    and the all-pairs oracle label it."""

    def test_totals(self, block_searches):
        cases, found = block_searches
        catalog_names = [name for name in cases if "/[" in name]
        assert len(catalog_names) == 303
        assert sum(found[n][0] for n in catalog_names) == 8757
        assert sum(len(found[n][1]) for n in catalog_names) == 1252
        assert sum(len(found[n][2]) for n in catalog_names) == 4046
        assert [(nodes, len(split), len(weak)) for nodes, split, weak in (
            found["C2xD8->D8"], found["D16->D16/Z"]
        )] == [(8190, 4, 4092), (14, 0, 0)]

    def test_each_leaf_labelled_as_classify_section_labels_it(self, block_searches):
        cases, found = block_searches
        for name, phi in cases.items():
            _, split, weak = found[name]
            for m, classification in split + weak:
                assert classify_section(phi, m).classification == classification, name

    def test_each_leaf_labelled_as_the_oracle_labels_it(self, block_searches):
        cases, found = block_searches
        naive_label = {SPLITTING: "splitting", WEAK_SPLITTING: "weak"}
        for name, phi in cases.items():
            _, split, weak = found[name]
            zset = naive_center_set(phi.domain)
            for m, classification in split + weak:
                assert naive_section_label(phi, m, zset) == naive_label[classification], name

    def test_every_catalog_section_labelled_as_the_oracle_labels_it(self, block_searches):
        # every section, not only the leaves: the non-weak ones too
        cases, _ = block_searches
        naive_label = {SPLITTING: "splitting", WEAK_SPLITTING: "weak", SECTION_ONLY: None}
        labels = set()
        for name, phi in cases.items():
            if "/[" not in name:
                continue
            for m, label in _naive_labelled_sections(phi):
                assert naive_label[classify_section(phi, m).classification] == label, name
                labels.add(label)
        assert labels == {"splitting", "weak", None}

    def test_block_rejects_a_non_section_row(self):
        phi = GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        with pytest.raises(GroupError, match="not a section"):
            classify_section(phi, [0, 2])
        assert classify_section(phi, [0, 1]).classification == SECTION_ONLY


class TestSectionSearchOnColumns:
    """The section search and its labeller read both groups through their
    columns; the same search on whole Cayley tables (``tests/oracles.py``)
    gives the same leaves, in the same order, after the same nodes, and the
    same labels."""

    @staticmethod
    def _leaves(search, phi):
        budget = groups._NodeBudget(None)
        return list(search(phi, groups._fibers(phi), budget)), budget.used

    def _check(self, phi):
        on_table = on_tables(phi)
        leaves, nodes = self._leaves(groups._weak_splittings, phi)
        assert (leaves, nodes) == self._leaves(table_weak_splittings, on_table)
        label, table_label = groups._labeller(phi), table_labeller(on_table)
        fibers = groups._fibers(phi)
        n_sections = math.prod(map(len, fibers))
        if n_sections <= 256:
            sections = list(itertools.product(*fibers))
        else:
            rng = random.Random(0)
            sections = [tuple(map(rng.choice, fibers)) for _ in range(64)]
        labels = [label(m) for m in leaves + sections]
        assert labels == [table_label(m) for m in leaves + sections]
        return labels

    def test_block_cases(self):
        seen = set()
        for name, phi in _block_cases().items():
            seen.update(self._check(phi))
        assert seen == {SPLITTING, WEAK_SPLITTING, SECTION_ONLY}

    @pytest.mark.parametrize(
        "case", [*(f"free{n}-over-apex" for n in range(3, 7)), "b_cycle3", "b_rich", "b_kernel"]
    )
    def test_restriction_maps(self, case, request):
        from uniconstruct.ucp import assemble_ucp

        if case.startswith("free"):
            n = int(case[4])
            b = two_sorted((n, 1), [("R", (0, 1), [(p, 0) for p in range(n)])])
        else:
            b = request.getfixturevalue(case)
        phi = assemble_ucp(b).phi
        assert type(phi.domain) is groups.AutomorphismGroup
        assert SPLITTING in self._check(phi)


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
        assert [a.table for a in got] == [b.table for b in want]

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
        assert got.table == want.table and got.label() == want.label()

    def test_catalog_32_counts_per_order(self):
        # frozen from the all-pairs closures the generator-column closure
        # replaced; the orders 16, 24 and 32 are short of OEIS A000001
        # (14, 15, 51): the catalog holds only the named families' products
        counts = {}
        for g in catalog(32):
            counts[g.order] = counts.get(g.order, 0) + 1
        assert sum(counts.values()) == 95
        assert counts == {
            1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5,
            13: 1, 14: 2, 15: 1, 16: 9, 17: 1, 18: 4, 19: 1, 20: 4, 21: 1, 22: 2, 23: 1,
            24: 12, 25: 2, 26: 2, 27: 3, 28: 4, 29: 1, 30: 4, 31: 1, 32: 15,
        }

    def test_homs_equal_generator_word_oracle(self):
        cat = catalog(8)
        for g1 in cat:
            for g2 in cat:
                homs = naive_homs(g1, g2)
                onto = sorted(m for m in homs if len(set(m)) == g2.order)
                assert sorted(h.map for h in surjective_homs(g1, g2)) == onto
                iso = find_isomorphism(g1, g2)
                assert (iso is not None) == (g1.order == g2.order and bool(onto))
                assert iso is None or iso in onto

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
            assert q.table == tuple(map(tuple, table))
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

    def test_witnesses_at_order_32(self):
        # (group, normal subgroup, quotient order), frozen from the
        # all-pairs closures the generator-column closure replaced
        witnesses = catalog_search_weak_not_strong(32)
        assert [(w.group.label(), w.normal, w.phi.codomain.order) for w in witnesses] == [
            ("C9", (0, 3, 6), 3),
            ("C2xC8", (0, 4, 10, 14), 4),
            ("C18", (0, 6, 12), 6),
            ("C18", (0, 3, 6, 9, 12, 15), 3),
            ("C25", (0, 5, 10, 15, 20), 5),
            ("C27", (0, 9, 18), 9),
            ("C27", (0, 3, 6, 9, 12, 15, 18, 21, 24), 3),
            ("C3xC9", (0, 3, 6), 9),
            ("C3xC9", (0, 3, 6, 9, 12, 15, 18, 21, 24), 3),
            ("C16xC2", (0, 8, 20, 28), 8),
            ("C16xC2", (0, 4, 8, 12, 18, 22, 26, 30), 4),
            ("C2xC2xC8", (0, 4, 10, 14), 8),
            ("C2xC2xC8", (0, 4, 18, 22), 8),
            ("C2xC2xC8", (0, 4, 26, 30), 8),
            ("C2xC2xC8", (0, 4, 8, 12, 18, 22, 26, 30), 4),
            ("C2xC2xC8", (0, 4, 10, 14, 16, 20, 26, 30), 4),
            ("C2xC2xC8", (0, 4, 10, 14, 18, 22, 24, 28), 4),
        ]


@pytest.fixture(scope="module")
def catalog_quotients():
    """max order -> (group, normal subgroup, projection) for every quotient
    of every catalog group."""
    return {
        max_order: [
            (g, nsub, quotient_by_subgroup(g, nsub)[1])
            for g in catalog(max_order)
            for nsub in normal_subgroups(g)
        ]
        for max_order in (16, 24)
    }


class TestDecideSplittings:
    """decide_splittings answers classify_sections' two verdicts without
    listing the sections."""

    @pytest.mark.parametrize("max_order, count", [(16, 303), (24, 529)])
    def test_equals_classify_sections_on_every_catalog_quotient(
        self, catalog_quotients, max_order, count
    ):
        quotients = catalog_quotients[max_order]
        assert len(quotients) == count
        for g, nsub, phi in quotients:
            search = classify_sections(phi)
            assert decide_splittings(phi) == (search.has_splitting, search.has_weak_splitting), (
                g.label(), sorted(nsub)
            )

    def test_schur_zassenhaus(self, catalog_quotients):
        # a normal subgroup of order coprime to its index has a complement
        coprime = [
            (g, nsub, phi) for g, nsub, phi in catalog_quotients[24]
            if math.gcd(len(nsub), phi.codomain.order) == 1
        ]
        assert len(coprime) == 176
        for g, nsub, phi in coprime:
            assert decide_splittings(phi) == (True, True), (g.label(), sorted(nsub))

    def test_weak_half_stops_at_its_first_leaf(self):
        # no element of C9 over a generator of C3 has order 3, so the
        # splitting half tries nothing, and the first weak splitting is the
        # first node of the section search; listing all three takes three
        _, phi = quotient_by_subgroup(cyclic(9), [0, 3, 6])
        assert decide_splittings(phi, max_candidates=1) == (False, True)
        assert classify_sections(phi, max_candidates=3).nodes == 3
        with pytest.raises(BoundExceededError):
            classify_sections(phi, max_candidates=1)
        with pytest.raises(BoundExceededError):
            decide_splittings(phi, max_candidates=0)

    def test_splitting_half_counts_its_nodes(self):
        phi = _block_cases()["C2xD8->D8"]
        assert decide_splittings(phi) == (True, True)
        with pytest.raises(BoundExceededError, match="node bound 0"):
            decide_splittings(phi, max_candidates=0)

    def test_no_weak_splitting(self):
        phi = GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        assert decide_splittings(phi) == (False, False)
        assert decide_splittings(_block_cases()["D16->D16/Z"]) == (False, False)

    def test_trivial_quotients(self):
        g = dihedral(4)
        assert decide_splittings(quotient_by_subgroup(g, g.elements())[1]) == (True, True)
        assert decide_splittings(quotient_by_subgroup(g, [0])[1]) == (True, True)

    def test_non_surjective_rejected(self):
        with pytest.raises(GroupError, match="surjective"):
            decide_splittings(GroupHom(cyclic(2), cyclic(4), [0, 2]))

    def test_splitting_of_automorphism_groups_builds_no_table(self):
        # 5 free points over an apex restrict as S5 -> S5: the splitting is
        # found on generator columns, so neither group makes another column
        from uniconstruct.ucp import assemble_ucp

        phi = assemble_ucp(two_sorted((5, 1), [("R", (0, 1), [(p, 0) for p in range(5)])])).phi
        assert decide_splittings(phi) == (True, True)
        for g in (phi.domain, phi.codomain):
            assert g.order == 120 and set(g._columns) == {0, *g.gens}

    def test_catalog_search_lists_sections_of_witnesses_only(self, monkeypatch):
        listed = []
        real = groups.classify_sections

        def recording(phi, **kwargs):
            listed.append(phi)
            return real(phi, **kwargs)

        monkeypatch.setattr(groups, "classify_sections", recording)
        witnesses = catalog_search_weak_not_strong(16)
        assert [w.phi for w in witnesses] == listed and len(listed) == 2
        for w in witnesses:
            assert _found(w.search) == _found(real(w.phi))


class TestFirstWeakSplitting:
    """first_weak_splitting returns the section classify_sections lists
    first, without listing the rest."""

    @staticmethod
    def listed_first(phi, **kwargs):
        search = classify_sections(phi, **kwargs)
        return next(iter(search.splittings + search.weak_splittings), None)

    def test_equals_classify_sections_on_every_catalog_quotient(self, catalog_quotients):
        quotients = catalog_quotients[16]
        assert len(quotients) == 303
        for g, nsub, phi in quotients:
            assert first_weak_splitting(phi) == self.listed_first(phi), (g.label(), sorted(nsub))

    def test_stops_at_the_first_splitting(self):
        # Aut of 4 + 2 free points restricts as S4 x C2 -> S4: 2**16 sections
        from uniconstruct.structures import SortedSignature, SortedStructure
        from uniconstruct.ucp import assemble_ucp

        phi = assemble_ucp(SortedStructure(SortedSignature(("p", "q")), (4, 2))).phi
        first = first_weak_splitting(phi, max_candidates=500)
        assert first == self.listed_first(phi) and first.is_splitting()
        with pytest.raises(BoundExceededError):
            classify_sections(phi, max_candidates=500)

    def test_weak_only_stops_at_its_first_leaf(self):
        # no splitting of C9 -> C3, so the first leaf is the answer
        _, phi = quotient_by_subgroup(cyclic(9), [0, 3, 6])
        first = first_weak_splitting(phi, max_candidates=1)
        assert first == self.listed_first(phi) and first.classification == "weak-splitting"

    def test_no_weak_splitting(self):
        assert first_weak_splitting(GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])) is None

    def test_non_surjective_rejected(self):
        with pytest.raises(GroupError, match="surjective"):
            first_weak_splitting(GroupHom(cyclic(2), cyclic(4), [0, 2]))


class TestSearchAccounting:
    """The nodes both splitting decisions take over every catalog quotient,
    pinned: a change to a search's candidate order or pruning shows here.
    Both read one first section, so they take the same nodes."""

    @pytest.mark.parametrize("max_order, nodes", [(16, 412), (24, 910)])
    def test_nodes_over_catalog_quotients(self, catalog_quotients, monkeypatch, max_order, nodes):
        taken = []
        real = groups._NodeBudget.take

        def counted(budget):
            taken.append(None)
            real(budget)

        monkeypatch.setattr(groups._NodeBudget, "take", counted)
        phis = [phi for _, _, phi in catalog_quotients[max_order]]
        for phi in phis:
            decide_splittings(phi)
        assert len(taken) == nodes
        taken.clear()
        for phi in phis:
            first_weak_splitting(phi)
        assert len(taken) == nodes


class TestAutGroup:
    def test_rigid_structure_trivial_group(self):
        sig_auts = aut_group(directed_cycle(3))
        assert cayley_table(sig_auts).order == 3

    def test_bare_three_points_is_s3(self):
        table = cayley_table(aut_group(free_points(3)))
        assert table.order == 6
        assert find_isomorphism(table, symmetric(3)) is not None

    def test_three_cycle_is_c3(self):
        table = cayley_table(aut_group(directed_cycle(3)))
        assert find_isomorphism(table, cyclic(3)) is not None

    def test_action_is_isomorphism_under_composition(self):
        ag = aut_group(free_points(4))
        table = cayley_table(ag)
        assert table.order == 24
        for i in range(table.order):
            for j in range(table.order):
                composed = ag.map(i).compose(ag.map(j))
                assert ag.index_of(composed) == table.mul(i, j)

    def test_identity_is_element_zero(self):
        ag = aut_group(free_points(3))
        assert ag.map(0).maps == ((0, 1, 2),)

    @pytest.mark.parametrize("make, order", [
        (lambda: free_points(5), 120),
        # two 2-point blocks over a 2-point apex sort: Aut = C2 wr C2
        (lambda: two_sorted((4, 2), [("R", (0, 1), [(0, 0), (1, 0), (2, 1), (3, 1)])]), 8),
        # S4 -> S3 -> C2 encoded on 24 + 6 + 2 = 32 elements: Aut = G3
        (lambda: encode_three_sorted(s4_s3_c2()), 24),
    ], ids=["free5", "two-sorted", "encode3-s4-s3-c2"])
    def test_table_is_composition(self, make, order):
        ag = aut_group(make(), max_elements=32)
        table = cayley_table(ag)
        assert table.order == order
        maps = [ag.map(i) for i in range(ag.order)]
        for i, mi in enumerate(maps):
            for j, mj in enumerate(maps):
                assert ag.index_of(mi.compose(mj)) == table.mul(i, j)
        # every column, the generators' and those made along the Schreier tree
        assert all(ag.right(q) == table.right(q) for q in range(order))

    @pytest.mark.parametrize("make", [
        lambda: directed_cycle(3),
        lambda: free_points(3),
        lambda: free_points(4),
        lambda: free_points(5),
        lambda: two_sorted((4, 2), [("R", (0, 1), [(0, 0), (1, 0), (2, 1), (3, 1)])]),
        lambda: encode_three_sorted(s4_s3_c2()),
        lambda: four_triangles(),
    ], ids=["cycle3", "free3", "free4", "free5", "two-sorted", "encode3-s4-s3-c2", "four-triangles"])
    def test_maps_made_from_rows_are_the_search(self, make):
        s = make()
        ag = aut_group(s, max_elements=32)
        maps = [ag.map(i) for i in range(ag.order)]
        assert maps == structures.automorphisms(s, max_elements=32)
        assert all(m.domain is s and m.codomain is s for m in maps)
        assert [ag.index_of(m) for m in maps] == list(range(ag.order))
        assert ag.perms == [m.row() for m in maps]

    def test_index_of_refuses_a_map_of_another_layout(self):
        # (0, 1, 2) is the identity row on sorts of sizes (2, 1) and (1, 2)
        ag = aut_group(two_sorted((2, 1), []))
        other = two_sorted((1, 2), [])
        with pytest.raises(GroupError, match="not an automorphism"):
            ag.index_of(structures.identity_map(other))

    def test_aut_group_makes_no_sorted_map(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("aut_group made a SortedMap")

        monkeypatch.setattr(structures.SortedMap, "__init__", refuse)
        ag = aut_group(two_sorted((4, 2), [("R", (0, 1), [(0, 0), (1, 0), (2, 1), (3, 1)])]))
        assert ag.order == 8 and ag.perms[0] == tuple(range(6))

    def test_group_keeps_only_its_rows(self):
        # 7 free points over an apex: 5040 rows of 8 entries, the row index,
        # the identity column and the generators' columns.  Holding each
        # automorphism also as a SortedMap and a key of a map index kept
        # 2.77 MiB
        s = two_sorted((7, 1), [("R", (0, 1), [(p, 0) for p in range(7)])])
        aut_group(two_sorted((3, 1), [("R", (0, 1), [(p, 0) for p in range(3)])]))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ag = aut_group(s)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ag.order == 5040
        assert not hasattr(ag, "maps") and not hasattr(ag, "index")
        assert kept < 2 * 2**20

    def test_missing_automorphism_raises_group_error(self, monkeypatch):
        full = structures.isomorphism_rows
        monkeypatch.setattr(
            structures, "isomorphism_rows", lambda s1, s2, **kw: full(s1, s2, **kw)[:-1]
        )
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
        table = cayley_table(ag)
        assert oracle.order() == table.order == 1944
        assert len(ag.row_index) == 1944
        maps = [ag.map(i) for i in range(ag.order)]
        assert all(oracle.contains(Permutation(list(m.maps[0]))) for m in maps)
        last = maps[-1]
        for j, mj in enumerate(maps):
            assert ag.index_of(last.compose(mj)) == table.mul(1943, j)


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
        oracle = PermutationGroup([Permutation(list(ag.perms[g])) for g in ag.gens])
        assert oracle.order() == ag.order == order
        oracle_center = [z.array_form for z in oracle.center().elements]
        assert center(ag) == sorted(ag.row_index[tuple(z)] for z in oracle_center)
        assert len(center(ag)) == center_size
        if order**2 <= config.DEFAULT.table_cells:
            table = cayley_table(ag)
            assert table.order == order and table.gens == ag.gens
            assert center(table) == center(ag)
        else:
            with pytest.raises(BoundExceededError, match="cells"):
                cayley_table(ag)

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
        tables = cayley_table(h), cayley_table(g)
        assert restriction == GroupHom(*tables, ucp.restriction_map(h, g)).map
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

    def test_order_too_long_to_print_refused(self):
        # 2000! has 5736 digits, past Python's int-to-text limit of 4300
        with pytest.raises(BoundExceededError, match=r"order over 2\*\*19052 is over the bound 99$"):
            symmetric(2000)

    def test_automorphism_facts_need_no_table(self):
        ag = aut_group(free_points(5))
        assert ag.order == 120 and center(ag) == [0] and len(ag.gens) == 4
        with pytest.raises(BoundExceededError, match="order 120 has 14400 cells"):
            cayley_table(ag)

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

    def test_limit_takes_the_first(self):
        groups12 = catalog(12)
        for a in groups12:
            for b in groups12:
                if b.order <= a.order:
                    first = surjective_homs(a, b, limit=1)
                    assert first == surjective_homs(a, b)[:1], (a.label(), b.label())


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
