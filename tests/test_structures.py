from __future__ import annotations

import copy
import gc
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconstruct.errors import BoundExceededError, SignatureMismatchError, StructureError
from uniconstruct.groups import (
    GroupHom,
    Section,
    SectionSearch,
    catalog,
    classify_sections,
    cyclic,
    direct_product,
)
from uniconstruct.structures import (
    SortedMap,
    SortedSignature,
    SortedStructure,
    automorphisms,
    dumps,
    identity_map,
    isomorphism_rows,
    isomorphisms,
    loads,
    reduct,
    relabel,
    relabel_map,
    validate,
)
from uniconstruct.ucp import Report
from uniconstruct.uniform import MatchedTriple

from .conftest import directed_cycle, free_points, linear_order, random_structure, two_sorted
from .oracles import CongruenceError, canonical_copies, naive_isomorphisms, quotient, restrict_signature


class TestValidate:
    def test_minimal_structure_ok(self):
        s = SortedStructure(SortedSignature(("p",)), (1,))
        assert validate(s) == []

    def test_out_of_range_tuple(self):
        sig = SortedSignature(("p",), relations=(("R", (0,)),))
        s = SortedStructure(sig, (2,), [[(5,)]])
        assert any("out of range" in v for v in validate(s))

    def test_partial_function_table(self):
        sig = SortedSignature(("p",), functions=(("f", (0,), 0),))
        s = SortedStructure(sig, (2,), [], [{(0,): 0}])
        assert any("function not total" in v for v in validate(s))

    def test_empty_universe_reported(self):
        s = SortedStructure(SortedSignature(("p",)), (0,))
        assert any("empty" in v for v in validate(s))

    def test_duplicate_symbol_names_rejected(self):
        with pytest.raises(StructureError):
            SortedSignature(("p",), relations=(("R", (0,)),), constants=(("R", 0),))


class TestReduct:
    def test_full_reduct_is_identity(self):
        s = directed_cycle(3)
        assert reduct(s, (0,)) == s

    def test_cross_sort_symbol_dropped(self):
        s = two_sorted((2, 2), [("R", (0, 1), [(0, 0)])])
        r = reduct(s, (0,))
        assert r.signature.relations == ()
        assert r.sort_sizes == (2,)

    def test_symbol_survival_by_signature_scan(self):
        sig = SortedSignature(
            ("a", "b", "c"),
            relations=(("Rab", (0, 1)), ("Rbb", (1, 1)), ("Rc", (2,))),
            functions=(("f", (1,), 1), ("g", (2,), 0)),
        )
        s = SortedStructure(
            sig,
            (1, 2, 1),
            [[(0, 0)], [(0, 1)], [(0,)]],
            [{(0,): 1, (1,): 0}, {(0,): 0}],
        )
        r = reduct(s, (0, 1))
        assert [n for n, _ in r.signature.relations] == ["Rab", "Rbb"]
        assert [n for n, _, _ in r.signature.functions] == ["f"]

    def test_empty_keep_rejected(self):
        with pytest.raises(StructureError):
            reduct(free_points(2), ())

    def test_out_of_range_keep_rejected(self):
        with pytest.raises(StructureError):
            reduct(free_points(2), (3,))


class TestAutomorphisms:
    def test_bare_sort_gives_symmetric_group(self):
        assert len(automorphisms(free_points(3))) == 6

    def test_three_cycle_has_three_rotations(self):
        auts = automorphisms(directed_cycle(3))
        assert [a.maps for a in auts] == [((0, 1, 2),), ((1, 2, 0),), ((2, 0, 1),)]

    def test_all_constants_pin_identity(self):
        sig = SortedSignature(("p",), constants=(("a", 0), ("b", 0)))
        s = SortedStructure(sig, (2,), [], [], [0, 1])
        auts = automorphisms(s)
        assert len(auts) == 1 and auts[0] == identity_map(s)

    def test_canonical_order_is_lexicographic(self):
        auts = automorphisms(free_points(4))
        seqs = [a.row() for a in auts]
        assert seqs == sorted(seqs)
        assert seqs[0] == (0, 1, 2, 3)

    def test_size_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            automorphisms(free_points(13))
        assert len(automorphisms(free_points(4), max_elements=4)) == 24

    def test_group_axioms_on_small_structures(self):
        rng = random.Random(5)
        for _ in range(12):
            s = random_structure(rng, max_total=6)
            auts = automorphisms(s)
            keys = {a.maps for a in auts}
            assert identity_map(s).maps in keys
            for a in auts:
                assert a.inverse().maps in keys
                for b in auts:
                    assert a.compose(b).maps in keys


class TestIsomorphisms:
    def test_rigid_structure_unique_map(self):
        s = linear_order(3)
        maps = isomorphisms(s, s)
        assert len(maps) == 1

    def test_two_relabelings_of_cycle(self):
        s = directed_cycle(3)
        t = relabel(s, [(1, 0, 2)])
        assert len(isomorphisms(s, t)) == 3

    def test_cardinality_mismatch_empty(self):
        sig = SortedSignature(("p",), relations=(("R", (0,)),))
        s1 = SortedStructure(sig, (2,), [[(0,)]])
        s2 = SortedStructure(sig, (2,), [[(0,), (1,)]])
        assert isomorphisms(s1, s2) == []

    def test_signature_mismatch_raises(self):
        with pytest.raises(SignatureMismatchError):
            isomorphisms(free_points(2), directed_cycle(2))

    def test_size_mismatch_empty(self):
        assert isomorphisms(free_points(2), free_points(3)) == []

    def test_matches_naive_filter_on_random_structures(self):
        rng = random.Random(11)
        for _ in range(25):
            s1 = random_structure(rng, max_total=5)
            perms = [tuple(rng.sample(range(n), n)) for n in s1.sort_sizes]
            s2 = relabel(s1, perms)
            fast = [m.maps for m in isomorphisms(s1, s2)]
            assert fast == naive_isomorphisms(s1, s2)

    def test_iso_of_self_is_automorphisms(self):
        s = directed_cycle(4)
        assert [m.maps for m in isomorphisms(s, s)] == [
            m.maps for m in automorphisms(s)
        ]



def _reinterpret(rng: random.Random, s: SortedStructure) -> SortedStructure:
    """A random structure on s's signature and sort sizes."""
    sig, sizes = s.signature, s.sort_sizes
    rels = [
        {tuple(rng.randrange(sizes[k]) for k in rsig) for _ in range(len(rel))}
        for (_, rsig), rel in zip(sig.relations, s.relations)
    ]
    fns = [
        {args: rng.randrange(sizes[target]) for args in table}
        for (_, _, target), table in zip(sig.functions, s.functions)
    ]
    consts = [rng.randrange(sizes[sort]) for _, sort in sig.constants]
    return SortedStructure(sig, sizes, rels, fns, consts)


class TestIsomorphismRows:
    def test_a_row_is_the_maps_concatenated_and_offset(self):
        s = two_sorted((2, 3), [("R", (0, 1), [(0, 0), (1, 1)])])
        maps = isomorphisms(s, s)
        assert len(maps) == 2
        for m in maps:
            assert m.row() == (*m.maps[0], *(2 + v for v in m.maps[1]))
            assert SortedMap.from_row(s, s, m.row()) == m
        assert isomorphism_rows(s, s) == [m.row() for m in maps]

    def test_rows_match_naive_filter_on_random_pairs(self):
        # relabelled copies, and structures drawn on the same signature, most
        # of which are not isomorphic
        rng = random.Random(17)
        found = 0
        for _ in range(60):
            s1 = random_structure(rng, max_total=5)
            for s2 in (relabel(s1, [rng.sample(range(n), n) for n in s1.sort_sizes]),
                       _reinterpret(rng, s1)):
                want = [SortedMap(s1, s2, maps).row() for maps in naive_isomorphisms(s1, s2)]
                assert isomorphism_rows(s1, s2) == want
                assert isomorphism_rows(s1, s2, limit=1) == want[:1]
                found += bool(want)
        assert 60 < found < 120

    def test_a_limit_below_one_is_read_before_the_search(self):
        s = free_points(3)
        assert isomorphism_rows(s, s, limit=0) == [] and isomorphisms(s, s, limit=0) == []
        assert len(isomorphism_rows(s, s, limit=1)) == 1 and len(isomorphism_rows(s, s)) == 6
        for limit in (-1, -2):
            with pytest.raises(ValueError, match=f"limit must be None or non-negative, not {limit}"):
                isomorphisms(s, s, limit=limit)

    @pytest.mark.parametrize("holds", [(True, True), (False, False), (True, False), (False, True)])
    def test_a_nullary_relation_must_agree(self, holds):
        sig = SortedSignature(("p",), relations=(("Z", ()),))
        s1, s2 = (SortedStructure(sig, (2,), [[()] if h else []]) for h in holds)
        assert isomorphism_rows(s1, s2) == ([(0, 1), (1, 0)] if holds[0] == holds[1] else [])

    def test_functions_and_constants_are_checked(self):
        # successor on a 3-cycle commutes with the rotations; a named point
        # leaves one of them
        sig = SortedSignature(("p",), functions=(("s", (0,), 0),), constants=(("c", 0),))
        succ = [{(i,): (i + 1) % 3 for i in range(3)}]
        s, t = (SortedStructure(sig, (3,), [], succ, [c]) for c in (0, 2))
        assert isomorphism_rows(s, s) == [(0, 1, 2)]
        assert isomorphism_rows(s, t) == [(2, 0, 1)]
        swapped = SortedStructure(sig, (3,), [], [{(i,): (i - 1) % 3 for i in range(3)}], [0])
        assert isomorphism_rows(s, swapped) == [(0, 2, 1)]

    def test_search_leaves_nothing_for_the_cycle_collector(self):
        # 7 free points over an apex: 5040 maps.  A search that calls itself
        # through a closure is a reference cycle, which kept its output and
        # state (about 0.8 MiB here) alive after the caller dropped them,
        # until the cycle collector ran
        s = two_sorted((7, 1), [("R", (0, 1), [(p, 0) for p in range(7)])])
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert len(isomorphisms(s, s)) == 5040
            left = tracemalloc.get_traced_memory()[0]
            gc.collect(1)  # a full collection would also empty the free lists
            collected = left - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert collected < 64 * 1024


class TestRelabel:
    def test_identity_relabel(self):
        s = directed_cycle(3)
        assert relabel(s, [(0, 1, 2)]) == s

    def test_swap_outside_tuples_is_automorphism_case(self):
        s = two_sorted((2, 2), [("R", (0, 1), [(0, 0)])])
        t = relabel(s, [(0, 1), (0, 1)])
        assert t == s

    def test_rotation_transports_tuples(self):
        s = directed_cycle(3)
        f = relabel_map(s, [(1, 2, 0)])
        assert f.codomain.relations[0] == frozenset({(1, 2), (2, 0), (0, 1)})
        assert len(isomorphisms(s, f.codomain)) == 3

    def test_relabel_map_is_isomorphism(self):
        rng = random.Random(3)
        for _ in range(10):
            s = random_structure(rng, max_total=5)
            perms = [tuple(rng.sample(range(n), n)) for n in s.sort_sizes]
            f = relabel_map(s, perms)
            assert f.maps in [m.maps for m in isomorphisms(s, f.codomain)]

    def test_non_bijection_rejected(self):
        with pytest.raises(StructureError):
            relabel(free_points(2), [(0, 0)])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_relabel_composition(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        s = random_structure(rng, max_total=5)
        p1 = [tuple(rng.sample(range(n), n)) for n in s.sort_sizes]
        p2 = [tuple(rng.sample(range(n), n)) for n in s.sort_sizes]
        step = relabel(relabel(s, p1), p2)
        combined = relabel(
            s, [tuple(p2[i][p1[i][e]] for e in range(n)) for i, n in enumerate(s.sort_sizes)]
        )
        assert step == combined


class TestCanonicalCopies:
    def test_rigid_two_point_order(self):
        assert len(canonical_copies(linear_order(2))) == 2

    def test_bare_sort_single_copy(self):
        assert len(canonical_copies(free_points(3))) == 1

    def test_cycle_has_two_orientations(self):
        assert len(canonical_copies(directed_cycle(3))) == 2

    def test_cap_truncates(self):
        assert len(canonical_copies(linear_order(3), cap=2)) == 2

    def test_orbit_counting_identity(self):
        rng = random.Random(7)
        for _ in range(10):
            s = random_structure(rng, max_total=6)
            total = 1
            for n in s.sort_sizes:
                for k in range(2, n + 1):
                    total *= k
            assert len(canonical_copies(s)) * len(automorphisms(s)) == total


class TestQuotient:
    def test_equality_partition_is_identity(self):
        s = directed_cycle(3)
        q, proj = quotient(s, [[(0,), (1,), (2,)]])
        assert q.sort_sizes == s.sort_sizes
        assert q.relations == s.relations
        assert proj.maps == ((0, 1, 2),)

    def test_total_relation_collapses_to_point(self):
        sig = SortedSignature(("p",), relations=(("R", (0, 0)),))
        s = SortedStructure(sig, (2,), [[(i, j) for i in range(2) for j in range(2)]])
        q, _ = quotient(s, [[(0, 1)]])
        assert q.sort_sizes == (1,)
        assert q.relations[0] == frozenset({(0, 0)})

    def test_two_block_congruence(self):
        # 4 points, edges within blocks {0,1} and {2,3}: blocks are congruent
        sig = SortedSignature(("p",), relations=(("R", (0, 0)),))
        s = SortedStructure(
            sig, (4,), [[(0, 1), (1, 0), (2, 3), (3, 2), (0, 0), (1, 1), (2, 2), (3, 3)]]
        )
        q, proj = quotient(s, [[(0, 1), (2, 3)]])
        assert q.sort_sizes == (2,)
        assert q.relations[0] == frozenset({(0, 0), (1, 1)})
        # re-expansion oracle: every class tuple unfolds to all-in or all-out
        for ct in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            block = [
                (x, y)
                for x in range(4)
                for y in range(4)
                if proj.maps[0][x] == ct[0] and proj.maps[0][y] == ct[1]
            ]
            verdicts = {t in s.relations[0] for t in block}
            assert len(verdicts) == 1

    def test_non_congruence_rejected(self):
        s = directed_cycle(3)
        with pytest.raises(CongruenceError):
            quotient(s, [[(0, 1), (2,)]])

    def test_functions_rejected(self):
        sig = SortedSignature(("p",), functions=(("f", (0,), 0),))
        s = SortedStructure(sig, (2,), [], [{(0,): 0, (1,): 1}])
        with pytest.raises(StructureError):
            quotient(s, [[(0, 1)]])

    def test_projection_is_strong_homomorphism(self):
        rng = random.Random(13)
        for _ in range(10):
            sig = SortedSignature(("p",), relations=(("R", (0, 0)),))
            n = rng.randint(2, 5)
            # build a congruence first, then a relation constant on class pairs
            blocks = [[], []]
            for x in range(n):
                blocks[rng.randrange(2)].append(x)
            blocks = [b for b in blocks if b]
            cls = {}
            for ci, b in enumerate(sorted(blocks, key=min)):
                for x in b:
                    cls[x] = ci
            chosen = {
                (ci, cj)
                for ci in range(len(blocks))
                for cj in range(len(blocks))
                if rng.random() < 0.5
            }
            tuples = [
                (x, y) for x in range(n) for y in range(n) if (cls[x], cls[y]) in chosen
            ]
            s = SortedStructure(sig, (n,), [tuples])
            q, proj = quotient(s, [blocks])
            for x in range(n):
                for y in range(n):
                    assert ((x, y) in s.relations[0]) == (
                        (proj.maps[0][x], proj.maps[0][y]) in q.relations[0]
                    )


class TestRecords:
    """The record classes keep a dataclass's repr, field-wise equality and,
    when frozen, hashing, immutability and copies."""

    def test_frozen_records(self):
        sig = SortedSignature(("p",), (("R", (0,)),))
        triple = MatchedTriple((0,), (-1,), ((0, 1),))
        section = Section(GroupHom(cyclic(2), cyclic(1), [0, 0]), (0,), "splitting")
        assert repr(sig) == (
            "SortedSignature(sort_names=('p',), relations=(('R', (0,)),), functions=(), constants=())"
        )
        assert repr(triple) == "MatchedTriple(pi_idx=(0,), g_idx=(-1,), b=((0, 1),))"
        assert hash(triple) == hash(((0,), (-1,), ((0, 1),)))
        assert triple != ((0,), (-1,), ((0, 1),))
        assert section == Section(section.of, (0,), "splitting") != Section(section.of, (1,), "splitting")
        for record in (sig, triple, section):
            assert record == copy.copy(record) == pickle.loads(pickle.dumps(record))
            with pytest.raises(AttributeError, match="cannot assign to field"):
                record.cid = 1
        with pytest.raises(StructureError, match="sort names must be unique"):
            SortedSignature(("p", "p"))

    def test_mutable_records(self):
        phi = GroupHom(cyclic(2), cyclic(1), [0, 0])
        first, second = Report("claim"), Report("claim")
        first.add("x", True)
        assert second.entries == [] and first != second
        assert repr(second) == "Report(key='claim', entries=[])"
        search = SectionSearch(phi, 2)
        assert search.splittings == search.weak_splittings == [] and search.splittings is not search.weak_splittings
        with pytest.raises(TypeError, match="unhashable"):
            hash(search)


ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestCopies:
    """Immutable structures and groups rebuild through their constructors
    under pickle and copy, as the frozen records do."""

    @pytest.mark.parametrize("how", ROUND_TRIPS)
    def test_structure_with_every_kind_of_symbol(self, how):
        sig = SortedSignature(
            ("p", "q"), relations=(("R", (0, 1)),), functions=(("f", (0,), 1),), constants=(("c", 1),)
        )
        s = SortedStructure(sig, (2, 3), [[(0, 1), (1, 2)]], [{(0,): 2, (1,): 0}], [1])
        t = ROUND_TRIPS[how](s)
        assert t == s and t.canonical_key() == s.canonical_key()
        assert t.functions == s.functions and t.constants == (1,)

    @pytest.mark.parametrize("how", ROUND_TRIPS)
    def test_catalog_group(self, how):
        g = next(g for g in catalog(8) if g.order == 8 and not g.is_abelian())
        h = ROUND_TRIPS[how](g)
        assert h == g and h.table == g.table and h.name == g.name and h.names == g.names
        assert h.gens == g.gens and hash(h) == hash(g)

    @pytest.mark.parametrize("how", ROUND_TRIPS)
    def test_section(self, how):
        v4 = direct_product(cyclic(2), cyclic(2))
        section = classify_sections(GroupHom(v4, cyclic(2), [0, 0, 1, 1])).splittings[0]
        copied = ROUND_TRIPS[how](section)
        assert copied == section and copied.of.map == section.of.map
        assert copied.of.domain == section.of.domain and copied.classification == section.classification


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            s = random_structure(rng, max_total=6)
            assert loads(dumps(s)) == s

    def test_tuples_sorted_on_write(self):
        import json

        sig = SortedSignature(("p",), relations=(("R", (0, 0)),))
        s = SortedStructure(sig, (3,), [[(2, 1), (0, 2), (1, 0)]])
        doc = json.loads(dumps(s))
        tuples = doc["relations"][0]["tuples"]
        assert tuples == sorted(tuples) == [[0, 2], [1, 0], [2, 1]]

    def test_byte_identical_dumps(self):
        s = two_sorted((2, 2), [("R", (0, 1), [(1, 1), (0, 0)])])
        assert dumps(s) == dumps(loads(dumps(s)))


class TestRestrictSignature:
    def test_drop_one_relation(self):
        s = two_sorted((2, 1), [("R", (0, 1), [(0, 0)]), ("S", (0, 0), [(0, 1)])])
        target = SortedSignature(("p", "q"), relations=(("R", (0, 1)),))
        r = restrict_signature(s, target)
        assert r.signature == target
        assert r.relations[0] == s.relations[0]

    def test_unknown_symbol_rejected(self):
        s = two_sorted((2, 1), [("R", (0, 1), [(0, 0)])])
        target = SortedSignature(("p", "q"), relations=(("X", (0, 1)),))
        with pytest.raises(SignatureMismatchError):
            restrict_signature(s, target)
