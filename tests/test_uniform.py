from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest

from uniconstruct import cli, config, encode, groups, ucp, uniform
from uniconstruct.errors import BoundExceededError, GroupError, StructureError, VerificationError
from uniconstruct.groups import aut_group, classify_sections
from uniconstruct.structures import (
    SortedMap,
    SortedSignature,
    SortedStructure,
    dumps,
    isomorphisms,
    reduct,
    relabel,
)
from uniconstruct.ucp import assemble_ucp, derive_triple
from uniconstruct.uniform import (
    TripleSpace,
    build_family,
    build_quotient,
    k_class,
    make_lifted_copy,
    uniform_F,
    verify_claims,
)

from .conftest import matched_three_sorted, random_structure, rigid_three_sorted, two_sorted
from .oracles import (
    canonical_copies,
    cayley_table,
    g_map,
    naive_classes,
    naive_cocycle_holds,
    naive_e_matrix,
    naive_family,
    naive_frame_threads,
    naive_k_classes_claim,
    naive_matched_triples,
    naive_relation_verdicts,
    naive_representative_structure,
    naive_thread_classes,
)


def family_and_target(b, psi, n):
    fam = build_family(b, psi, n)
    return fam, fam.members[0].A


def triple_space(b, psi, n):
    """The matched-triple space of the n-member family of (b, psi) over the
    base's own reduct."""
    fam = build_family(b, psi, n)
    return TripleSpace(fam.members[0].A, fam)


def triple_keys(triples):
    """The (pi_idx, g_idx, b) value of each triple, in order."""
    return [(x.pi_idx, x.g_idx, x.b) for x in triples]


def triple_summaries(space):
    """Each triple as :func:`naive_matched_triples` summarises it: its
    isomorphisms, its full matrix of member isomorphisms and its thread."""
    n = len(space.fam.members)
    pairs = [(s, t) for s in range(n) for t in range(n)]
    return {
        (
            tuple(space.iso[s][x.pi_idx[s]].maps for s in range(n)),
            tuple(g_map(space, x, t).compose(g_map(space, x, s).inverse()).maps for s, t in pairs),
            x.b,
        )
        for x in space.triples
    }


class TestLiftedCopy:
    def test_weak_splitting_required(self, b_two_free):
        with pytest.raises(StructureError):
            make_lifted_copy(b_two_free, [1, 1])

    def test_relational_required(self):
        sig = SortedSignature(("p", "q"), functions=(("f", (0,), 1),))
        s = SortedStructure(sig, (1, 1), [], [{(0,): 0}])
        with pytest.raises(StructureError):
            make_lifted_copy(s, [0])

    def test_copy_records_restriction(self, b_two_free):
        copy = make_lifted_copy(b_two_free, [0, 1])
        assert copy.phi.map == (0, 1)
        assert copy.psi.classification == "splitting"

    def test_supplied_problem_is_reused(self, b_cycle3, monkeypatch):
        problem = assemble_ucp(b_cycle3)
        monkeypatch.setattr(ucp, "aut_group", None)  # any new search would fail
        copy = make_lifted_copy(b_cycle3, [0, 1, 2], problem=problem)
        assert copy.autB is problem.H and copy.autA is problem.G and copy.phi is problem.phi
        assert copy.psi.classification == "splitting"
        with pytest.raises(StructureError, match="weak splitting: supplied map is not a section"):
            make_lifted_copy(b_cycle3, [0, 0, 0], problem=problem)

    def test_problem_of_another_structure_rejected(self, b_cycle3, b_rich):
        with pytest.raises(StructureError, match="belongs to another structure"):
            make_lifted_copy(b_cycle3, [0, 1, 2], problem=assemble_ucp(b_rich))


class TestBuildFamily:
    def test_singleton_family(self, b_two_free):
        fam = build_family(b_two_free, [0, 1], 1)
        assert len(fam) == 1

    def test_transported_sections_verify(self, b_cycle3):
        fam = build_family(b_cycle3, [0, 1, 2], 3)
        for member in fam:
            assert member.psi.is_weak_splitting()

    def test_members_pairwise_isomorphic(self, b_matching):
        fam = build_family(b_matching, [0, 1], 2)
        assert isomorphisms(fam.members[0].B, fam.members[1].B)

    def test_too_many_copies_rejected(self):
        s = two_sorted((1, 1), [("R", (0, 1), [(0, 0)])])
        with pytest.raises(StructureError):
            build_family(s, [0], 2)

    def test_non_weak_splitting_rejected(self, b_two_free):
        with pytest.raises(StructureError, match="weak splitting: supplied map is not a section"):
            build_family(b_two_free, [1, 0], 1)

    @pytest.mark.parametrize("name,n", [("b_cycle3", 4), ("b_rich", 8)])
    def test_only_the_base_is_searched(self, request, monkeypatch, name, n):
        searched = []

        def counted(s, **kwargs):
            searched.append(s)
            return aut_group(s, **kwargs)

        for mod in (cli, encode, groups, ucp, uniform):
            if hasattr(mod, "aut_group"):
                monkeypatch.setattr(mod, "aut_group", counted)
        b = request.getfixturevalue(name)
        fam = build_family(b, [0, 1, 2], n)
        assert len(fam) == n
        assert searched == [b, reduct(b, (0,))]


class TestMatchedTriples:
    def test_singleton_rigid_counts(self):
        # rigid B over a rigid reduct: |X| = |B| elements, pi and g forced
        b = two_sorted(
            (2, 1), [("L", (0, 0), [(0, 1)]), ("R", (0, 1), [(0, 0), (1, 0)])]
        )
        assert len(triple_space(b, [0], 1).triples) == 3

    def test_non_isomorphic_target_empty(self, b_two_free):
        fam = build_family(b_two_free, [0, 1], 1)
        other = SortedStructure(SortedSignature(("p",)), (3,))
        assert TripleSpace(other, fam).triples == []

    def test_wrong_signature_target_raises(self, b_two_free):
        fam = build_family(b_two_free, [0, 1], 1)
        target = SortedStructure(SortedSignature(("points",)), (2,))
        from uniconstruct.errors import SignatureMismatchError

        with pytest.raises(SignatureMismatchError):
            TripleSpace(target, fam)

    def test_counts_factor(self, b_two_free):
        # |iso|^2 frames, kernel trivial so one family each, |B| threads
        assert len(triple_space(b_two_free, [0, 1], 2).triples) == 4 * 3

    def test_matches_naive_full_matrix_enumeration(self, b_two_free):
        for n in (1, 2):
            fam, A = family_and_target(b_two_free, [0, 1], n)
            assert triple_summaries(TripleSpace(A, fam)) == naive_matched_triples(A, fam)

    def test_matches_naive_on_matching_fixture(self, b_matching):
        fam, A = family_and_target(b_matching, [0, 1], 2)
        assert triple_summaries(TripleSpace(A, fam)) == naive_matched_triples(A, fam)

    def test_kernel_family_matches_naive(self, b_kernel):
        fam, A = family_and_target(b_kernel, [0], 2)
        assert len(TripleSpace(A, fam).triples) == len(naive_matched_triples(A, fam))


class TestEquivalence:
    def test_reflexive(self, b_cycle3):
        space = triple_space(b_cycle3, [0, 1, 2], 2)
        for x in space.triples:
            assert space.e_equiv(x, x)

    def test_distinct_threads_same_frame_not_equivalent(self, b_two_free):
        space = triple_space(b_two_free, [0, 1], 2)
        xs = space.triples
        same_frame = [x for x in xs if x.pi_idx == xs[0].pi_idx]
        x1 = same_frame[0]
        x2 = next(x for x in same_frame if x.b != x1.b)
        assert not space.e_equiv(x1, x2)

    def test_transitivity_chain(self, b_cycle3):
        space = triple_space(b_cycle3, [0, 1, 2], 2)
        xs = space.triples
        class_of, members = space.classes()
        for group in members:
            for i in group:
                for j in group:
                    assert space.e_equiv(xs[i], xs[j])


class TestKClass:
    def test_singleton_rigid(self):
        b = two_sorted(
            (2, 1), [("L", (0, 0), [(0, 1)]), ("R", (0, 1), [(0, 0), (1, 0)])]
        )
        space = triple_space(b, [0], 1)
        for a in range(space.A.sort_sizes[0]):
            assert len(k_class(space, a)) == 1

    def test_distinct_elements_disjoint_classes(self, b_cycle3):
        space = triple_space(b_cycle3, [0, 1, 2], 2)
        seen = set()
        for a in range(space.A.sort_sizes[0]):
            cls = triple_keys(k_class(space, a))
            assert cls and len(set(cls)) == len(cls)
            assert not set(cls) & seen
            seen |= set(cls)
        first_sort = [x for x in space.triples if all(sort == 0 for sort, _ in x.b)]
        assert seen == set(triple_keys(first_sort))

    def test_closure_under_equivalence(self, b_two_free):
        space = triple_space(b_two_free, [0, 1], 2)
        for a in range(space.A.sort_sizes[0]):
            members = k_class(space, a)
            member_set = set(triple_keys(members))
            for x in space.triples:
                for m in members:
                    if space.e_equiv(m, x):
                        assert (x.pi_idx, x.g_idx, x.b) in member_set

    @pytest.mark.parametrize("a", [-1, 3, 4])
    def test_element_outside_the_first_sort_is_refused(self, b_cycle3, a):
        space = triple_space(b_cycle3, [0, 1, 2], 2)
        with pytest.raises(StructureError, match=f"element {a} is not in the target's first sort"):
            k_class(space, a)

    def test_weak_only_lifting_is_refused_before_classes_are_read(self):
        # its E is not transitive, so no thread set is a class of it
        b, search = weak_only_lifting()
        for n in (1, 2):
            space = triple_space(b, search.weak_splittings[0], n)
            for build in (lambda: k_class(space, 0), lambda: build_quotient(space),
                          lambda: uniform_F(space)):
                with pytest.raises(VerificationError, match="E_transitive fails"):
                    build()


# (fixture, weak splitting, family sizes) on which every claim passes
CLAIMS_PASS_FIXTURES = [
    ("b_two_free", (0, 1), (1, 2)),
    ("b_cycle3", (0, 1, 2), (1, 2, 3)),
    ("b_matching", (0, 1), (1, 2, 3)),
    ("b_kernel", (0,), (1,)),
    ("b_rich", (0, 1, 2), (1, 2, 3)),
]
# the passing families, then the kernel pair (cla3 fails) and the weak-only
# lifting (E fails before cla3 and cla4 are read)
CONGRUENCE_FIXTURES = CLAIMS_PASS_FIXTURES + [("b_kernel", (0,), (2,)), ("b_weak_only", None, (1, 2))]


class TestQuotient:
    def test_singleton_family_quotient_isomorphic(self, b_cycle3):
        quot = build_quotient(triple_space(b_cycle3, [0, 1, 2], 1))
        assert isomorphisms(quot.structure, b_cycle3)

    def test_two_member_quotient_isomorphic(self, b_matching):
        quot = build_quotient(triple_space(b_matching, [0, 1], 2))
        assert isomorphisms(quot.structure, b_matching)

    def test_empty_relation_stays_empty(self):
        b = two_sorted((2, 1), [("R", (0, 1), []), ("S", (0, 0), [(0, 1), (1, 0)])])
        quot = build_quotient(triple_space(b, [0, 1], 1))
        assert quot.structure.relations[0] == frozenset()

    def test_own_reduct_rebuilds_member(self, b_cycle3):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 2)
        space = TripleSpace(A, fam)
        assert naive_representative_structure(A, fam) == b_cycle3
        assert uniform_F(space).structure == b_cycle3
        assert isomorphisms(build_quotient(space).structure, b_cycle3)

    def test_spaces_share_nothing_through_the_family(self, b_rich):
        # a second space over the same target is enumerated and decided
        # afresh, and a smaller element bound refuses it
        fam, A = family_and_target(b_rich, [0, 1, 2], 2)
        first = TripleSpace(A, fam)
        quot = build_quotient(first)
        assert build_quotient(first) is quot
        second = TripleSpace(A, fam)
        assert second.triples is not first.triples
        assert triple_keys(second.triples) == triple_keys(first.triples)
        assert build_quotient(second) is not quot
        assert build_quotient(second).structure == quot.structure
        with pytest.raises(BoundExceededError, match="structure has 3 elements, search bound is 2"):
            TripleSpace(A, fam, max_elements=2)

    def test_space_bound_reaches_the_result_checks(self, b_cycle3):
        # the target's 3 elements pass a bound of 3; the 4-element result
        # checks of verify_claims and uniform_F do not
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 2)
        space = TripleSpace(A, fam, max_elements=3)
        for check in (verify_claims, uniform_F):
            with pytest.raises(BoundExceededError, match="structure has 4 elements"):
                check(space)
        assert uniform_F(TripleSpace(A, fam, max_elements=4)).structure == b_cycle3

    def test_kernel_family_congruence_fails_honestly(self, b_kernel):
        with pytest.raises(VerificationError):
            build_quotient(triple_space(b_kernel, [0], 2))

    @pytest.mark.parametrize("name,psi,sizes", CONGRUENCE_FIXTURES,
                             ids=[f"{f[0][2:]}-{f[2]}" for f in CONGRUENCE_FIXTURES])
    def test_raises_exactly_where_cla3_or_cla4_fails(self, request, name, psi, sizes):
        if name == "b_weak_only":
            b, search = weak_only_lifting()
            psi = search.weak_splittings[0]
        else:
            b = request.getfixturevalue(name)
        for n in sizes:
            fam = build_family(b, psi, n)
            for A_copy in canonical_copies(fam.members[0].A):
                ok = {entry[0]: entry[1] for entry in verify_claims(TripleSpace(A_copy, fam)).entries}
                # a fresh space: build_quotient decides without verify_claims' help
                space = TripleSpace(A_copy, fam)
                if "cla3_exists_forall_agreement" not in ok:  # E failed first
                    with pytest.raises(VerificationError, match="E_transitive fails"):
                        build_quotient(space)
                elif not ok["cla3_exists_forall_agreement"]:
                    with pytest.raises(VerificationError) as refused:
                        build_quotient(space)
                    assert str(refused.value) == (
                        "relation 'Eq': exists/forall agreement fails across members"
                    )
                    assert ok["cla4_congruence_frame_independent"]
                else:
                    assert ok["cla4_congruence_frame_independent"]
                    assert isomorphisms(build_quotient(space).structure, b, limit=1)

    def test_frame_dependent_membership_names_the_earliest_frame(self, b_rich):
        # 'S' varies from frame 2 on and 'R' from frame 1 on; exists and
        # forall agree, so only cla4 fails, and its message names 'R'
        space = triple_space(b_rich, [0, 1, 2], 2)
        table = space.membership()
        varied = []
        for ri, frame in ((1, 2), (2, 1)):
            ct, (exists, _) = next(iter(table[ri].items()))
            exists = exists[:frame] + tuple(not e for e in exists[frame:])
            table[ri][ct] = (exists, exists)
            varied.append(f"{space.fam.members[0].B.signature.relations[ri][0]}{ct}")
        report = {entry[0]: entry[1:] for entry in verify_claims(space).entries}
        assert report["cla3_exists_forall_agreement"] == (True, "")
        assert report["cla4_congruence_frame_independent"] == (False, "; ".join(varied))
        assert report["quotient_constructible"] == (False, "")
        with pytest.raises(VerificationError) as refused:
            build_quotient(space)
        assert str(refused.value) == "relation 'R': membership is not constant across frames"


class TestUniformF:
    def test_reduct_is_target_verbatim(self, b_cycle3):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 2)
        res = uniform_F(TripleSpace(A, fam))
        assert reduct(res.structure, (0,)) == A
        assert res.structure == naive_representative_structure(A, fam)

    def test_result_isomorphic_to_member(self, b_matching):
        fam, A = family_and_target(b_matching, [0, 1], 2)
        res = uniform_F(TripleSpace(A, fam))
        assert isomorphisms(res.structure, b_matching)

    @pytest.mark.parametrize(
        "name,psi,sizes", CLAIMS_PASS_FIXTURES, ids=[f[0][2:] for f in CLAIMS_PASS_FIXTURES]
    )
    def test_equals_representative_oracle(self, request, name, psi, sizes):
        for n in sizes:
            fam = build_family(request.getfixturevalue(name), psi, n)
            for A_copy in canonical_copies(fam.members[0].A):
                space = TripleSpace(A_copy, fam)
                assert verify_claims(space).all_pass
                res = uniform_F(space)
                assert res.structure == naive_representative_structure(A_copy, fam)

    def test_kernel_pair_raises_where_claims_fail(self, b_kernel):
        fam, A = family_and_target(b_kernel, [0], 2)
        space = TripleSpace(A, fam)
        assert not verify_claims(space).all_pass
        with pytest.raises(VerificationError):
            uniform_F(space)

    def test_membership_pass_runs_once_per_space(self, b_cycle3, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2])
            return frame_membership(*args)

        frame_membership = uniform._frame_membership
        monkeypatch.setattr(uniform, "_frame_membership", counted)
        space = triple_space(b_cycle3, [0, 1, 2], 3)
        assert verify_claims(space).all_pass
        res = uniform_F(space)
        assert build_quotient(space) is res.quotient
        frames, _ = space.frame_threads()
        n_tuples = sum(len(by_tuple) for by_tuple in space.membership())
        assert len(frames) == 27 and n_tuples == 12
        assert len(calls) == len(frames) * n_tuples

    def test_deterministic_bytes(self, b_cycle3):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 2)
        one = dumps(uniform_F(TripleSpace(A, fam)).structure)
        two = dumps(uniform_F(TripleSpace(A, fam)).structure)
        assert one == two

    def test_every_canonical_copy_accepted(self, b_cycle3):
        fam, _ = family_and_target(b_cycle3, [0, 1, 2], 2)
        copies = canonical_copies(fam.members[0].A)
        assert len(copies) == 2
        for A_copy in copies:
            res = uniform_F(TripleSpace(A_copy, fam))
            assert reduct(res.structure, (0,)) == A_copy

    def test_isomorphic_targets_give_isomorphic_results(self, b_cycle3):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 1)
        rot = relabel(A, [(1, 2, 0)])
        res1 = uniform_F(TripleSpace(A, fam))
        res2 = uniform_F(TripleSpace(rot, fam))
        assert reduct(res2.structure, (0,)) == rot
        assert isomorphisms(res1.structure, res2.structure)


class TestVerifyClaims:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cycle_fixture_all_sizes(self, b_cycle3, n):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], n)
        report = verify_claims(TripleSpace(A, fam))
        assert report.all_pass, [e for e in report.entries if not e[1]]

    def test_matching_fixture(self, b_matching):
        fam, A = family_and_target(b_matching, [0, 1], 2)
        assert verify_claims(TripleSpace(A, fam)).all_pass

    def test_rich_fixture_with_second_sort_relations(self, b_rich):
        fam, A = family_and_target(b_rich, [0, 1, 2], 2)
        space = TripleSpace(A, fam)
        report = verify_claims(space)
        assert report.all_pass, [e for e in report.entries if not e[1]]
        res = uniform_F(space)
        assert reduct(res.structure, (0,)) == A
        assert isomorphisms(res.structure, b_rich)
        # the ordered second sort survives the round trip
        assert len(res.structure.relations[1]) == 1

    def test_kernel_singleton_passes(self, b_kernel):
        fam, A = family_and_target(b_kernel, [0], 1)
        assert verify_claims(TripleSpace(A, fam)).all_pass

    def test_kernel_pair_fails_agreement_claims(self, b_kernel):
        fam, A = family_and_target(b_kernel, [0], 2)
        report = verify_claims(TripleSpace(A, fam))
        assert not report.all_pass
        failed = {name for name, ok, _ in report.entries if not ok}
        assert "cla3_exists_forall_agreement" in failed
        # the frame-independence congruence still holds; the equivalence is fine
        assert "cla4_congruence_frame_independent" not in failed
        assert "E_transitive" not in failed

    def test_weak_only_lifting_breaks_transitivity_honestly(self):
        b, search = weak_only_lifting()
        assert len(search.splittings) == 1 and len(search.weak_splittings) == 1

        fam_weak = build_family(b, search.weak_splittings[0], 1)
        rep = verify_claims(TripleSpace(fam_weak.members[0].A, fam_weak))
        failed = {name for name, ok, _ in rep.entries if not ok}
        assert "E_transitive" in failed

        fam_strong = build_family(b, search.splittings[0], 1)
        assert verify_claims(TripleSpace(fam_strong.members[0].A, fam_strong)).all_pass

    def test_report_shape(self, b_two_free):
        fam, A = family_and_target(b_two_free, [0, 1], 2)
        report = verify_claims(TripleSpace(A, fam))
        names = [name for name, _, _ in report.entries]
        for expected in (
            "family_nonempty_weak_liftings",
            "copy_set_definable_from_family",
            "E_reflexive",
            "E_symmetric",
            "E_transitive",
            "cla3_exists_forall_agreement",
            "cla4_congruence_frame_independent",
            "cla5_k_classes",
            "cla6_rho_constant_on_classes",
            "cla6_y_meets_every_class",
            "cla6_quotient_isomorphic_to_member",
            "cla6_explicit_rho_witness",
        ):
            assert expected in names


# (fixture, weak splitting, family size) on which keyed classes are checked
KEYED_FIXTURES = [
    ("b_cycle3", (0, 1, 2), n) for n in range(1, 6)
] + [
    ("b_rich", (0, 1, 2), n) for n in range(1, 6)
] + [
    ("b_matching", (0, 1), n) for n in range(1, 4)
] + [
    ("b_kernel", (0,), n) for n in range(1, 3)
]
_SPACES: dict = {}


# the keyed fixtures plus the weak-only lifting, where the cocycle law fails
E_FIXTURES = KEYED_FIXTURES + [("b_weak_only", None, n) for n in (1, 2)]


def _space(request):
    """The family and matched-triple space of a (fixture, psi, size)
    parameter, built once per session."""
    name, psi, n = request.param
    if (name, n) not in _SPACES:
        if name == "b_weak_only":
            b, search = weak_only_lifting()
            fam = build_family(b, search.weak_splittings[0], n)
        else:
            fam = build_family(request.getfixturevalue(name), psi, n)
        _SPACES[name, n] = fam, TripleSpace(fam.members[0].A, fam)
    return _SPACES[name, n]


@pytest.fixture(params=KEYED_FIXTURES, ids=lambda p: f"{p[0][2:]}-s{p[2]}")
def keyed_space(request):
    """A matched-triple space per fixture and size, built once per session."""
    return _space(request)


@pytest.fixture(params=E_FIXTURES, ids=lambda p: f"{p[0][2:]}-s{p[2]}")
def e_space(request):
    """A keyed space, or the weak-only lifting's space."""
    return _space(request)


def weak_only_lifting():
    """3-cycle under a 6-cycle, positions tied mod 3: restriction C6 -> C3
    with kernel C2, one genuine splitting and one weak-only section.  Returns
    the structure and its section search."""
    b = two_sorted(
        (3, 6),
        [
            ("E", (0, 0), [(i, (i + 1) % 3) for i in range(3)]),
            ("C", (1, 1), [(i, (i + 1) % 6) for i in range(6)]),
            ("R", (0, 1), [(i % 3, i) for i in range(6)]),
        ],
    )
    return b, classify_sections(assemble_ucp(b).phi)


class TestConjugatedFamily:
    def test_copies_equal_research_oracle(self, keyed_space):
        fam, _ = keyed_space
        base = fam.members[0]
        oracle = naive_family(base.B, base.psi.map, len(fam))
        for member, naive in zip(fam, oracle):
            assert member.B == naive.B and member.A == naive.A
            for got, structure in ((member.autB, member.B), (member.autA, member.A)):
                maps = [got.map(i) for i in range(got.order)]
                searched = aut_group(structure)
                assert {m.maps for m in maps} == {searched.map(i).maps for i in range(searched.order)}
                assert all(got.index_of(m) == j for j, m in enumerate(maps))
                mul = cayley_table(got).table
                assert all(
                    maps[mul[i][j]] == maps[i].compose(maps[j])
                    for i in range(len(maps))
                    for j in range(len(maps))
                )
                # the columns a copy shares with its base are its own products
                assert all(got.right(j) == [row[j] for row in mul] for j in range(len(maps)))
            assert all(
                member.autA.map(member.phi.map[j]).maps == (member.autB.map(j).maps[0],)
                for j in range(member.autB.order)
            )
            psi = {member.autA.map(j).maps: member.psi_map(j).maps for j in range(member.autA.order)}
            want = {naive.autA.map(j).maps: naive.psi_map(j).maps for j in range(naive.autA.order)}
            assert psi == want

    def test_copy_rows_are_conjugates_composed_as_maps(self, keyed_space):
        fam, _ = keyed_space
        base = fam.members[0]
        k = len(base.A.sort_sizes)
        for member in fam.members[1:]:
            f = member.relabel
            f_a = SortedMap(base.A, member.A, f.maps[:k])
            for got, source, g in ((member.autB, base.autB, f), (member.autA, base.autA, f_a)):
                want = [g.compose(source.map(j).compose(g.inverse())) for j in range(source.order)]
                assert got.perms == [m.row() for m in want]
                assert [got.map(j) for j in range(got.order)] == want

    def test_copies_share_the_base_group_and_section(self, b_rich):
        fam = build_family(b_rich, [0, 1, 2], 3)
        base = fam.members[0]
        for member in fam.members[1:]:
            for got, shared in ((member.autB, base.autB), (member.autA, base.autA)):
                assert got.gens == shared.gens
                assert all(got.right(q) is shared.right(q) for q in range(shared.order))
            assert member.phi is base.phi and member.psi is base.psi


def _renumbered(keys):
    """(class_of, members) of a partition given by one key per triple,
    classes numbered by first occurrence."""
    ids: dict = {}
    class_of = [ids.setdefault(k, len(ids)) for k in keys]
    members = [[] for _ in ids]
    for i, cid in enumerate(class_of):
        members[cid].append(i)
    return class_of, members


def _with_classes(space, class_of_members):
    """Install a partition on the space, dropping every cache built on it."""
    space._classes = class_of_members
    space._thread_classes = space._frame_threads = space._membership = space._quotient = None
    space._class_sorts = space._congruence = None


class TestThreadClasses:
    def test_one_pass_equals_per_element_scan(self, keyed_space):
        fam, space = keyed_space
        got = [(tc.triples, tc.cid, tc.problem) for tc in space.thread_classes()]
        assert got == naive_thread_classes(space)
        report = verify_claims(space)
        claim = next(entry for entry in report.entries if entry[0] == "cla5_k_classes")
        assert claim[1:] == naive_k_classes_claim(space)

    def test_weak_only_lifting_equals_per_element_scan(self):
        b, search = weak_only_lifting()
        fam = build_family(b, search.weak_splittings[0], 1)
        space = TripleSpace(fam.members[0].A, fam)
        got = [(tc.triples, tc.cid, tc.problem) for tc in space.thread_classes()]
        assert got == naive_thread_classes(space)

    @pytest.mark.parametrize("defect,detail", [
        ("merge", "element 0: thread set is a strict part of its class; "
                  "element 1: thread set is a strict part of its class; "
                  "element 1: class collides with another element"),
        ("split", "element 0: spans 2 classes"),
        ("drop", "element 0: empty thread set"),
    ], ids=["merge", "split", "drop"])
    def test_broken_partitions_keep_claim_details(self, b_cycle3, defect, detail):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 2)
        space = TripleSpace(A, fam)
        class_of, _ = space.classes()
        tcs = space.thread_classes()
        if defect == "merge":
            _with_classes(space, _renumbered(
                [tcs[0].cid if c == tcs[1].cid else c for c in class_of]
            ))
        elif defect == "split":
            _with_classes(space, _renumbered(
                [-1 if i == tcs[0].triples[0] else c for i, c in enumerate(class_of)]
            ))
        else:
            space.triples = [x for i, x in enumerate(space.triples) if i not in tcs[0].triples]
            _with_classes(space, None)
        got = [(tc.triples, tc.cid, tc.problem) for tc in space.thread_classes()]
        assert got == naive_thread_classes(space)
        report = verify_claims(space)
        claim = next(entry for entry in report.entries if entry[0] == "cla5_k_classes")
        assert claim[1:] == naive_k_classes_claim(space) == (False, detail)
        with pytest.raises(VerificationError):
            k_class(space, 0)
        with pytest.raises(VerificationError):
            uniform_F(space)


class TestKeyedClasses:
    def test_cocycle_law_holds_and_agrees_with_full_cube(self, keyed_space):
        _, space = keyed_space
        assert space.cocycle_holds()
        assert naive_cocycle_holds(space)

    def test_equivalence_composes_no_transport_pairs(self, monkeypatch):
        # 6 free points over an apex: |iso| = 720, so checking the law
        # pairwise would compose 720**2 transports; reading the splitting
        # leaves only each transport into frame 0
        b = two_sorted((6, 1), [("R", (0, 1), [(p, 0) for p in range(6)])])
        problem = assemble_ucp(b)
        psi = [0] * len(problem.phi.map)
        for h, g in enumerate(problem.phi.map):
            psi[g] = h
        fam = build_family(b, psi, 1, problem=problem)
        space = TripleSpace(fam.members[0].A, fam)
        calls = []

        def counted(self, first):
            calls.append(self)
            return compose(self, first)

        compose = SortedMap.compose
        monkeypatch.setattr(SortedMap, "compose", counted)
        verdicts, detail, (_, members) = space.equivalence()
        assert verdicts == (True, True, True) and len(members) == 7
        assert detail == "proved from the cocycle law: every member's psi is a splitting"
        assert len(space.iso[0]) == 720 and len(calls) <= 720

    def test_law_equals_the_full_cube(self, e_space):
        _, space = e_space
        assert space.cocycle_holds() == naive_cocycle_holds(space)

    def test_law_equals_the_full_cube_on_random_draws(self):
        # the two-sorted relational draws with at most 5 elements (so
        # |Aut A| <= 24 and the cube has at most 24**3 compositions per
        # member), up to three splittings and three weak-only sections each
        rng = random.Random(1)
        verdicts = []
        for _ in range(400):
            b = random_structure(rng, max_total=5)
            if len(b.sort_sizes) != 2 or b.signature.functions or b.signature.constants:
                continue
            try:
                search = classify_sections(assemble_ucp(b).phi, max_candidates=10**4)
            except (GroupError, BoundExceededError):  # no section, or too many to list
                continue
            for section in search.splittings[:3] + search.weak_splittings[:3]:
                for n in (1, 2):
                    if n > math.prod(math.factorial(k) for k in b.sort_sizes):
                        continue
                    space = triple_space(b, section, n)
                    assert space.cocycle_holds() == naive_cocycle_holds(space), (b, section, n)
                    verdicts.append(space.cocycle_holds())
        assert verdicts.count(True) == 96 and verdicts.count(False) == 18

    def test_classes_equal_pairwise_union_find(self, e_space):
        _, space = e_space
        assert space.classes() == naive_classes(space)

    def test_e_verdicts_equal_naive_matrix(self, e_space):
        _, space = e_space
        report = verify_claims(space)
        ok = {name: flag for name, flag, _ in report.entries}
        got = (ok["E_reflexive"], ok["E_symmetric"], ok["E_transitive"])
        assert got == naive_relation_verdicts(naive_e_matrix(space))

    def test_frame_threads_equal_per_frame_scan(self, keyed_space):
        _, space = keyed_space
        try:
            single_pass = space.frame_threads()
        except VerificationError as exc:
            single_pass = str(exc)
        assert single_pass == naive_frame_threads(space)

    def test_weak_only_lifting_falls_back_to_pairwise(self):
        b, search = weak_only_lifting()
        fam = build_family(b, search.weak_splittings[0], 1)
        space = TripleSpace(fam.members[0].A, fam)
        assert not space.cocycle_holds()
        assert not naive_cocycle_holds(space)
        assert naive_relation_verdicts(naive_e_matrix(space))[2] is False
        report = verify_claims(space)
        failed = {name for name, ok, _ in report.entries if not ok}
        assert "E_transitive" in failed

    def test_x_bound_caps_only_the_pairwise_fallback(self, b_cycle3, monkeypatch):
        b, search = weak_only_lifting()
        weak = build_family(b, search.weak_splittings[0], 1)
        keyed, A = family_and_target(b_cycle3, [0, 1, 2], 2)
        monkeypatch.setattr(config.DEFAULT, "x_pairwise", 10)
        with pytest.raises(BoundExceededError):
            verify_claims(TripleSpace(weak.members[0].A, weak))
        space = TripleSpace(A, keyed)
        assert len(space.triples) > 10
        assert verify_claims(space).all_pass

    def test_cycle3_six_copies_beyond_pairwise_bound(self, b_cycle3):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 6)
        space = TripleSpace(A, fam)
        assert len(space.triples) == 2916 > config.DEFAULT.x_pairwise
        report = verify_claims(space)
        assert report.all_pass, [e for e in report.entries if not e[1]]
        res = uniform_F(space)
        assert reduct(res.structure, (0,)) == A
        assert isomorphisms(res.structure, b_cycle3)



def _keyed_against_naive(space):
    """The keyed decider's verdicts and classes, checked against the naive
    matrix and the pairwise union-find; returns its result."""
    verdicts, class_of, n_keys, n_frames = space._keyed_equivalence()
    assert verdicts == naive_relation_verdicts(naive_e_matrix(space))
    assert class_of == naive_classes(space)[0]
    assert n_keys == len({(x.pi_idx, x.b) for x in space.triples})
    assert n_frames == len({x.pi_idx for x in space.triples})
    return verdicts, class_of


def _break_transport(space, s, i, j, replacement):
    """Replace psi_tilde(s, i, j), record that the cocycle law fails with it,
    and drop every decision built on it.  The law is read from the sections,
    which a corrupted transport cache leaves alone, so its verdict is set
    here."""
    space._psi_tilde_cache[(s, i, j)] = replacement
    space._cocycle = False
    space._classes = space._e_verdicts = None
    space._thread_classes = space._frame_threads = space._membership = space._quotient = None
    space._class_sorts = space._congruence = None


class TestKeyedDecider:
    def test_forced_where_the_law_holds(self, keyed_space):
        _, space = keyed_space
        verdicts, class_of = _keyed_against_naive(space)
        assert verdicts == (True, True, True)
        assert class_of == space.classes()[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("section", ["weak_splittings", "splittings"])
    def test_weak_only_lifting_and_its_splitting(self, section, n):
        b, search = weak_only_lifting()
        fam = build_family(b, getattr(search, section)[0], n)
        space = TripleSpace(fam.members[0].A, fam)
        verdicts, class_of = _keyed_against_naive(space)
        assert verdicts == (True, True, section == "splittings")
        assert space.cocycle_holds() == (section == "splittings")
        assert space.classes()[0] == class_of

    @pytest.mark.parametrize("name,psi,n", [
        ("b_cycle3", (0, 1, 2), 1), ("b_cycle3", (0, 1, 2), 2),
        ("b_rich", (0, 1, 2), 2), ("b_matching", (0, 1), 2),
    ])
    @pytest.mark.parametrize("defect", ["reflexive", "symmetric"])
    def test_broken_transport_is_named_and_refused(self, request, name, psi, n, defect):
        fam = build_family(request.getfixturevalue(name), psi, n)
        A = fam.members[0].A
        space = TripleSpace(A, fam)
        if defect == "reflexive":
            # T(0, 0) becomes a transport between two different frames
            _break_transport(space, 0, 0, 0, space.psi_tilde(0, 1, 0))
        else:
            _break_transport(space, 0, 0, 1, space.psi_tilde(0, 0, 0))
        assert not space.cocycle_holds()
        verdicts, class_of = _keyed_against_naive(space)
        assert space.classes()[0] == class_of
        failed = {prop for prop, ok in zip(uniform.E_PROPERTIES, verdicts) if not ok}
        assert f"E_{defect}" in failed

        report = verify_claims(space)
        entries = {entry[0]: entry[1:] for entry in report.entries}
        n_keys = len({(x.pi_idx, x.b) for x in space.triples})
        n_frames = len({x.pi_idx for x in space.triples})
        detail = f"cocycle law fails; decided on {n_keys} (frame, thread) keys in {n_frames} frames"
        for prop, ok in zip(uniform.E_PROPERTIES, verdicts):
            assert entries[prop] == (ok, detail)
        assert "cla3_exists_forall_agreement" not in entries
        for build in (lambda: k_class(space, 0), lambda: build_quotient(space),
                      lambda: uniform_F(space)):
            with pytest.raises(VerificationError, match=f"E_{defect}"):
                build()

    @pytest.mark.parametrize("section", ["weak_splittings", "splittings"])
    def test_key_without_partners_leaves_its_triples_apart(self, section):
        # two triples share a key; its own-frame transport at member 0 is
        # collapsed, and every triple it could be related to is dropped
        b, search = weak_only_lifting()
        fam = build_family(b, getattr(search, section)[0], 2)
        space = TripleSpace(fam.members[0].A, fam)
        class_of, _ = space.classes()
        xs = space.triples
        i1, i2 = next(
            (i, j) for i, j in itertools.combinations(range(len(xs)), 2)
            if (xs[i].pi_idx, xs[i].b) == (xs[j].pi_idx, xs[j].b) and xs[i].b[0][1] != 0
        )
        x = xs[i1]
        B = fam.members[0].B
        _break_transport(
            space, 0, x.pi_idx[0], x.pi_idx[0], SortedMap(B, B, [[0] * n for n in B.sort_sizes])
        )
        own = (x.pi_idx, ((x.b[0][0], 0),) + x.b[1:])
        space.triples = [
            y for i, y in enumerate(xs)
            if i in (i1, i2) or (class_of[i] != class_of[i1] and (y.pi_idx, y.b) != own)
        ]
        verdicts, class_of = _keyed_against_naive(space)
        assert verdicts == (False, False, False)
        kept = [y for y in space.triples if (y.pi_idx, y.b) == (x.pi_idx, x.b)]
        assert len(kept) == 2
        first, second = (space.triples.index(y) for y in kept)
        assert class_of[first] != class_of[second]


class TestDerivedIsomorphisms:
    def test_member_lists_equal_the_search(self, keyed_space):
        fam, space = keyed_space
        A, base = space.A, fam.members[0]
        for t, member in enumerate(fam.members):
            searched = isomorphisms(member.A, A)
            assert [m.maps for m in space.iso[t]] == [m.maps for m in searched]
            assert all(m.domain is member.A and m.codomain is A for m in space.iso[t])
            if t:
                searched_b = sorted(isomorphisms(base.B, member.B), key=lambda m: m.maps[0])
                assert [m.maps for m in space.biso[t]] == [m.maps for m in searched_b]
                assert all(m.domain is base.B and m.codomain is member.B for m in space.biso[t])

    def test_only_the_base_is_searched(self, b_rich, monkeypatch):
        fam = build_family(b_rich, [0, 1, 2], 5)
        calls = []

        def counted(s1, s2, **kwargs):
            calls.append(s1)
            return isomorphisms(s1, s2, **kwargs)

        monkeypatch.setattr(uniform, "isomorphisms", counted)
        space = TripleSpace(fam.members[0].A, fam)
        assert calls == [fam.members[0].A]
        assert len(space.triples) == 1215

    def test_families_are_built_with_no_isomorphism_search(self, b_rich, monkeypatch):
        monkeypatch.setattr(uniform, "isomorphisms", None)  # any search would fail
        fam = build_family(b_rich, [0, 1, 2], 5)
        assert [m.B for m in fam] == [m.B for m in naive_family(b_rich, [0, 1, 2], 5)]

    @pytest.mark.parametrize("maps", [((0, 1, 2), (0,)), ((0, 0, 0), (0,))],
                             ids=["identity", "not-bijective"])
    def test_relabellings_must_carry_the_base_onto_each_member(self, b_cycle3, maps):
        base, member = build_family(b_cycle3, [0, 1, 2], 2).members
        bad = dataclasses.replace(member, relabel=SortedMap(base.B, member.B, maps))
        with pytest.raises(StructureError, match="family members are not pairwise isomorphic"):
            uniform.Family((base, bad))

    def test_copy_count_equals_the_enumerated_copies(self, keyed_space):
        fam, space = keyed_space
        copies = {c.canonical_key() for c in canonical_copies(fam.members[0].B)}
        for member in fam.members[1:]:
            assert {c.canonical_key() for c in canonical_copies(member.B)} == copies
        claim = next(e for e in verify_claims(space).entries if e[0] == "copy_set_definable_from_family")
        assert claim[1:] == (True, f"{len(copies)} canonical copies shared by all members")

    def test_members_must_relabel_the_base(self, b_cycle3):
        members = naive_family(b_cycle3, [0, 1, 2], 2)
        with pytest.raises(StructureError, match="relabelling"):
            uniform.Family(tuple(members))
        fam = build_family(b_cycle3, [0, 1, 2], 2)
        assert fam.members[0].relabel.maps == ((0, 1, 2), (0,))
        assert fam.members[1].relabel.codomain is fam.members[1].B


class TestKeptSorts:
    """Families kept on the first k sorts of a three-sorted C: C over C0
    (k = 1, two sorts rebuilt) and C over C01 (k = 2), from
    ``derive_triple``, over a relabelled target."""

    @pytest.fixture(params=[
        (rigid_three_sorted, "c13"), (rigid_three_sorted, "c23"),
        (matched_three_sorted, "c13"), (matched_three_sorted, "c23"),
    ], ids=["rigid-k1", "rigid-k2", "matched-k1", "matched-k2"])
    def kept_space(self, request):
        make, name = request.param
        problem = getattr(derive_triple(make()), name)
        fam = build_family(problem.B, groups.first_weak_splitting(problem.phi), 2, problem=problem)
        target = relabel(problem.A, [[*range(1, n), 0] for n in problem.A.sort_sizes])
        return TripleSpace(target, fam)

    def test_triples_equal_full_matrix_enumeration(self, kept_space):
        assert triple_summaries(kept_space) == naive_matched_triples(kept_space.A, kept_space.fam)

    def test_thread_classes_equal_per_element_scan(self, kept_space):
        got = [(tc.triples, tc.cid, tc.problem) for tc in kept_space.thread_classes()]
        assert got == naive_thread_classes(kept_space)
        assert len(got) == kept_space.A.total_elements
        claim = next(e for e in verify_claims(kept_space).entries if e[0] == "cla5_k_classes")
        assert claim[1:] == naive_k_classes_claim(kept_space) == (True, "")

    def test_construction_keeps_the_target(self, kept_space):
        assert verify_claims(kept_space).all_pass
        k = len(kept_space.A.sort_sizes)
        result = uniform_F(kept_space).structure
        assert reduct(result, range(k)) == kept_space.A
        assert isomorphisms(result, kept_space.fam.members[0].B, limit=1)
        for a, (sort, _) in enumerate(kept_space.A.elements()):
            assert {entry[0] for x in k_class(kept_space, a) for entry in x.b} == {sort}
