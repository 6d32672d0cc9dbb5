from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest

from uniconstruct import cli, encode, groups, ucp, uniform
from uniconstruct.errors import BoundExceededError, GroupError, StructureError, VerificationError
from uniconstruct.groups import aut_group, classify_sections
from uniconstruct.structures import (
    SortedMap,
    SortedSignature,
    SortedStructure,
    dumps,
    identity_map,
    isomorphism_rows,
    isomorphisms,
    reduct,
    relabel,
)
from uniconstruct.ucp import assemble_ucp, derive_triple
from uniconstruct.uniform import (
    TripleSpace,
    build_family,
    build_quotient,
    uniform_F,
    verify_claims,
)

from .conftest import (
    matched_three_sorted,
    random_structure,
    rigid_three_sorted,
    s4_s3_c2,
    two_sorted,
)
from .oracles import (
    canonical_copies,
    cayley_table,
    explicit_triples,
    extension_row,
    frame_isomorphisms,
    g_map,
    graph_functions,
    k_class,
    naive_classes,
    naive_cocycle_holds,
    naive_e_matrix,
    naive_family,
    naive_frame_threads,
    naive_k_classes_claim,
    naive_matched_triples,
    naive_membership,
    naive_relation_verdicts,
    naive_representative_structure,
    naive_rho_claims,
    naive_thread_classes,
    naive_transport,
    transports,
)


def family_and_target(b, psi, n):
    fam = build_family(assemble_ucp(b), psi, n)
    return fam, fam.members[0].A


def triple_space(b, psi, n):
    """The matched-triple space of the n-member family of (b, psi) over the
    base's own reduct."""
    fam = build_family(assemble_ucp(b), psi, n)
    return TripleSpace(fam.members[0].A, fam)


def triple_keys(triples):
    """The (pi_idx, g_idx, b) value of each triple, in order."""
    return [(x.pi_idx, x.g_idx, x.b) for x in triples]


def triple_summaries(space):
    """Each matched triple, in every frame, as :func:`naive_matched_triples`
    summarises it: its isomorphisms, its full matrix of member isomorphisms
    and its thread."""
    members, isos = space.fam.members, frame_isomorphisms(space)
    n = len(members)
    pairs = [(s, t) for s in range(n) for t in range(n)]
    return {
        (
            tuple(SortedMap.from_row(members[s].A, space.A, isos[s][x.pi_idx[s]]).maps for s in range(n)),
            tuple(g_map(space, x, t).compose(g_map(space, x, s).inverse()).maps for s, t in pairs),
            x.b,
        )
        for x in explicit_triples(space)
    }


class TestLiftedCopy:
    def test_weak_splitting_required(self, b_two_free):
        with pytest.raises(StructureError):
            build_family(assemble_ucp(b_two_free), [1, 1], 1)

    def test_relational_required(self):
        sig = SortedSignature(("p", "q"), functions=(("f", (0,), 1),))
        s = SortedStructure(sig, (1, 1), [], [{(0,): 0}])
        with pytest.raises(StructureError, match="lifted copies must be relational"):
            build_family(assemble_ucp(s), [0], 1)

    def test_copy_records_restriction(self, b_two_free):
        fam = build_family(assemble_ucp(b_two_free), [0, 1], 1)
        assert fam.problem.phi.map == (0, 1)
        assert fam.problem.psi.classification == "splitting"

    def test_supplied_problem_is_reused(self, b_cycle3, monkeypatch):
        problem = assemble_ucp(b_cycle3)
        monkeypatch.setattr(ucp, "aut_group", None)  # any new search would fail
        fam = build_family(problem, [0, 1, 2], 1)
        assert fam.problem.H is problem.H and fam.problem.G is problem.G
        assert fam.problem.phi is problem.phi
        assert fam.problem.psi.classification == "splitting"
        with pytest.raises(StructureError, match="weak splitting: supplied map is not a section"):
            build_family(problem, [0, 0, 0], 1)

    def test_problem_of_another_structure_rejected(self, b_cycle3, b_rich):
        fam = build_family(assemble_ucp(b_cycle3), [0, 1, 2], 2)
        other = build_family(assemble_ucp(b_rich), [0, 1, 2], 1).problem
        with pytest.raises(StructureError, match="the family's base is not its problem's structure"):
            uniform.Family(other, fam.members)


class TestBuildFamily:
    def test_singleton_family(self, b_two_free):
        fam = build_family(assemble_ucp(b_two_free), [0, 1], 1)
        assert len(fam) == 1

    def test_transported_sections_verify(self, b_cycle3):
        fam = build_family(assemble_ucp(b_cycle3), [0, 1, 2], 3)
        assert fam.problem.psi.is_weak_splitting()
        for problem in naive_family(b_cycle3, [0, 1, 2], 3):
            assert problem.psi.is_weak_splitting()

    def test_members_pairwise_isomorphic(self, b_matching):
        fam = build_family(assemble_ucp(b_matching), [0, 1], 2)
        assert isomorphisms(fam.members[0].B, fam.members[1].B)

    def test_too_many_copies_rejected(self):
        s = two_sorted((1, 1), [("R", (0, 1), [(0, 0)])])
        with pytest.raises(StructureError):
            build_family(assemble_ucp(s), [0], 2)

    def test_non_weak_splitting_rejected(self, b_two_free):
        with pytest.raises(StructureError, match="weak splitting: supplied map is not a section"):
            build_family(assemble_ucp(b_two_free), [1, 0], 1)

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
        fam = build_family(assemble_ucp(b), [0, 1, 2], n)
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
        fam = build_family(assemble_ucp(b_two_free), [0, 1], 1)
        other = SortedStructure(SortedSignature(("p",)), (3,))
        space = TripleSpace(other, fam)
        assert space.triples == [] and space.size() == 0

    def test_wrong_signature_target_raises(self, b_two_free):
        fam = build_family(assemble_ucp(b_two_free), [0, 1], 1)
        target = SortedStructure(SortedSignature(("points",)), (2,))
        from uniconstruct.errors import SignatureMismatchError

        with pytest.raises(SignatureMismatchError):
            TripleSpace(target, fam)

    def test_counts_factor(self, b_two_free):
        # |iso|^2 frames, kernel trivial so one family each, |B| threads;
        # the space holds frame 0's
        space = triple_space(b_two_free, [0, 1], 2)
        assert space.size() == 4 * 3 and len(space.triples) == 3

    def test_matches_naive_full_matrix_enumeration(self, b_two_free):
        for n in (1, 2):
            fam, A = family_and_target(b_two_free, [0, 1], n)
            assert triple_summaries(TripleSpace(A, fam)) == naive_matched_triples(A, fam)

    def test_matches_naive_on_matching_fixture(self, b_matching):
        fam, A = family_and_target(b_matching, [0, 1], 2)
        assert triple_summaries(TripleSpace(A, fam)) == naive_matched_triples(A, fam)

    def test_kernel_family_matches_naive(self, b_kernel):
        fam, A = family_and_target(b_kernel, [0], 2)
        assert TripleSpace(A, fam).size() == len(naive_matched_triples(A, fam))


class TestEquivalence:
    def test_reflexive(self, b_cycle3):
        space = triple_space(b_cycle3, [0, 1, 2], 2)
        for x in explicit_triples(space):
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
        first_sort = [x for x in explicit_triples(space) if all(sort == 0 for sort, _ in x.b)]
        assert seen == set(triple_keys(first_sort))

    def test_closure_under_equivalence(self, b_two_free):
        space = triple_space(b_two_free, [0, 1], 2)
        for a in range(space.A.sort_sizes[0]):
            members = k_class(space, a)
            member_set = set(triple_keys(members))
            for x in explicit_triples(space):
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
        for n in (1, 2, 3):
            space = triple_space(b, search.weak_splittings[0], n)
            for build in (lambda: k_class(space, 0), lambda: build_quotient(space),
                          lambda: uniform_F(space), space.classes):
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
            fam = build_family(assemble_ucp(b), psi, n)
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
            fam = build_family(assemble_ucp(request.getfixturevalue(name)), psi, n)
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
        builds = []

        def counted(self):
            builds.append(self._membership is None)
            return membership(self)

        membership = uniform.TripleSpace.membership
        monkeypatch.setattr(uniform.TripleSpace, "membership", counted)
        space = triple_space(b_cycle3, [0, 1, 2], 3)
        assert verify_claims(space).all_pass
        res = uniform_F(space)
        assert build_quotient(space) is res.quotient
        table = space.membership()
        assert builds.count(True) == 1 and len(builds) > 2
        # one set per relation and member, read off that member's tuples
        assert [[len(p) for p in sets] for sets in table] == [
            [len(m.B.relations[ri]) for m in space.fam] for ri in range(len(table))
        ] == [[3] * 3, [3] * 3]

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

    def test_rich_twelve_copies_pass_every_claim(self, b_rich):
        # |X| = 3**12 * 5 = 2,657,205 matched triples, of which the space
        # holds frame 0's five
        fam, A = family_and_target(b_rich, [0, 1, 2], 12)
        space = TripleSpace(A, fam)
        assert space.size() == 3**12 * 5 and len(space.triples) == 5
        report = verify_claims(space)
        assert report.all_pass, [e for e in report.entries if not e[1]]
        assert uniform_F(space).structure == b_rich

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

        fam_weak = build_family(assemble_ucp(b), search.weak_splittings[0], 1)
        rep = verify_claims(TripleSpace(fam_weak.members[0].A, fam_weak))
        failed = {name for name, ok, _ in rep.entries if not ok}
        assert "E_transitive" in failed

        fam_strong = build_family(assemble_ucp(b), search.splittings[0], 1)
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
E_FIXTURES = KEYED_FIXTURES + [("b_weak_only", None, n) for n in (1, 2, 3)]


def _space(request):
    """The family and matched-triple space of a (fixture, psi, size)
    parameter, built once per session."""
    name, psi, n = request.param
    if (name, n) not in _SPACES:
        if name == "b_weak_only":
            b, search = weak_only_lifting()
            fam = build_family(assemble_ucp(b), search.weak_splittings[0], n)
        else:
            fam = build_family(assemble_ucp(request.getfixturevalue(name)), psi, n)
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


def c9_over_c3():
    """A 3-cycle under a 9-cycle, each point over its residue mod 3: the
    restriction C9 -> C3 has kernel C3 and no splitting (C9 is not C3 x C3),
    so its three weak splittings are a weak-not-strong witness.  Returns the
    structure and its section search."""
    b = two_sorted(
        (3, 9),
        [
            ("Q", (0, 0), [(x, (x + 1) % 3) for x in range(3)]),
            ("G", (1, 1), [(y, (y + 1) % 9) for y in range(9)]),
            ("P", (0, 1), [(y % 3, y) for y in range(9)]),
        ],
    )
    return b, classify_sections(assemble_ucp(b).phi)


class TestConjugatedFamily:
    def test_copies_equal_research_oracle(self, e_space):
        # each copy's problem assembled again, its section carried across map
        # by map: its groups are the base's conjugated, and its transports are
        # the space's
        fam, space = e_space
        H = fam.problem.H
        oracle = naive_family(fam.problem.B, fam.problem.psi.map, len(fam))
        for s, (member, naive) in enumerate(zip(fam, oracle)):
            assert member.B == naive.B and member.A == naive.A
            f = member.relabel
            conjugated = {f.compose(H.map(j).compose(f.inverse())).row() for j in range(H.order)}
            assert conjugated == set(naive.H.perms)
            isos = [SortedMap.from_row(member.A, space.A, row) for row in frame_isomorphisms(space)[s]]
            for i, j in itertools.product(range(len(isos)), repeat=2):
                assert space.psi_tilde(s, i, j) == naive_transport(naive, isos[i], isos[j]).row()

    def test_copy_rows_are_conjugates_composed_as_maps(self, keyed_space):
        # T_s(i, j) = f . T_0(i0, j0) . f^-1, where iso_s[i] = iso_0[i0] . f_A^-1,
        # and member s's first isomorphism is the least of the carried ones
        fam, space = keyed_space
        base = fam.members[0]
        k = len(base.A.sort_sizes)
        as_map = SortedMap.from_row
        isos = frame_isomorphisms(space)
        base_isos = [as_map(base.A, space.A, row) for row in isos[0]]
        for s, member in enumerate(fam.members[1:], start=1):
            f = member.relabel
            f_a_inv = SortedMap(base.A, member.A, f.maps[:k]).inverse()
            carried = [pi.compose(f_a_inv).row() for pi in base_isos]
            to_base = [carried.index(row) for row in isos[s]]
            assert sorted(to_base) == list(range(len(carried)))
            assert space.first[s] == isos[s][0] == min(carried)
            for (i, i0), (j, j0) in itertools.product(enumerate(to_base), repeat=2):
                t0 = as_map(base.B, base.B, space.psi_tilde(0, i0, j0))
                want = f.compose(t0.compose(f.inverse()))
                assert as_map(member.B, member.B, space.psi_tilde(s, i, j)) == want

    def test_copies_share_the_base_group_and_section(self, b_rich):
        fam = build_family(assemble_ucp(b_rich), [0, 1, 2], 3)
        space = TripleSpace(fam.members[0].A, fam)
        for member in fam:
            assert not hasattr(member, "__dict__")
            assert sorted(type(member).__slots__) == ["A", "B", "relabel", "tag"]
        # the base's transports are the problem's own rows
        rows = {id(row) for row in fam.problem.H.perms}
        assert all(
            id(space.psi_tilde(0, i, j)) in rows
            for i, j in itertools.product(range(len(frame_isomorphisms(space)[0])), repeat=2)
        )

    def test_builds_no_automorphism_group(self, b_rich, monkeypatch):
        problem = assemble_ucp(b_rich)

        def refuse(*args, **kwargs):
            raise AssertionError("an automorphism group was built")

        monkeypatch.setattr(groups.AutomorphismGroup, "__init__", refuse)
        fam = build_family(problem, [0, 1, 2], 5)
        with monkeypatch.context() as no_maps:
            # the space and its decisions hold rows, never maps
            no_maps.setattr(SortedMap, "__init__", refuse)
            space = TripleSpace(fam.members[0].A, fam)
            space.classes()
            assert space.membership()
        assert verify_claims(space).all_pass
        assert uniform_F(space).structure == b_rich

    def test_copies_keep_memory_flat(self, b_rich):
        # rows shared with the problem, and thread entries read from one list
        problem = assemble_ucp(b_rich)
        tracemalloc.start()
        try:
            fam = build_family(problem, [0, 1, 2], 6)
            space = TripleSpace(fam.members[0].A, fam)
            assert verify_claims(space).all_pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.size() == 3645 and len(space.triples) == 5
        assert peak < 2.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def assert_thread_sets_are_keyed_classes(space):
    """(d) of ``uniform_F``'s proof against every frame: each target
    element's thread set, scanned over every matched triple, is one whole
    class, the one whose frame-0 thread is (iso_s[0]^-1(a))_s, and
    cla5_k_classes reports what the scan finds."""
    threads = space.threads()
    for a, (idxs, cid, problem) in enumerate(naive_thread_classes(space)):
        assert idxs and problem == "", (a, problem)
        assert threads[cid] == tuple(space._elements[iso[0].index(a)] for iso in frame_isomorphisms(space))
    claim = next(entry for entry in verify_claims(space).entries if entry[0] == "cla5_k_classes")
    assert claim[1:] == naive_k_classes_claim(space) == (True, "")


class TestThreadClasses:
    def test_one_pass_equals_per_element_scan(self, keyed_space):
        _, space = keyed_space
        assert_thread_sets_are_keyed_classes(space)

    def test_weak_only_lifting_equals_per_element_scan(self):
        # E is not transitive there, so there are no classes to thread
        b, search = weak_only_lifting()
        fam = build_family(assemble_ucp(b), search.weak_splittings[0], 1)
        space = TripleSpace(fam.members[0].A, fam)
        with pytest.raises(VerificationError, match="E_transitive fails"):
            k_class(space, 0)
        assert "cla5_k_classes" not in {entry[0] for entry in verify_claims(space).entries}


class TestKeyedClasses:
    def test_cocycle_law_holds_and_agrees_with_full_cube(self, keyed_space):
        _, space = keyed_space
        assert space.cocycle_holds()
        assert naive_cocycle_holds(space)

    def test_equivalence_composes_no_transport_pairs(self, monkeypatch):
        # 6 free points over an apex: |iso| = 720, so checking the law
        # pairwise would compose 720**2 transports; reading the splitting
        # leaves only each transport into frame 0, one row composed apiece
        b = two_sorted((6, 1), [("R", (0, 1), [(p, 0) for p in range(6)])])
        problem = assemble_ucp(b)
        psi = [0] * len(problem.phi.map)
        for h, g in enumerate(problem.phi.map):
            psi[g] = h
        fam = build_family(problem, psi, 1)
        space = TripleSpace(fam.members[0].A, fam)
        calls = []

        def counted(x, y):
            calls.append(x)
            return compose(x, y)

        compose = uniform._compose_rows
        monkeypatch.setattr(uniform, "_compose_rows", counted)
        verdicts, detail = space.equivalence()
        _, members = space.classes()
        assert verdicts == (True, True, True) and len(members) == 7
        assert detail == "proved from the cocycle law: every member's psi is a splitting"
        assert len(frame_isomorphisms(space)[0]) == 720 and len(calls) <= 720

    def test_law_equals_the_full_cube(self, e_space):
        _, space = e_space
        assert space.cocycle_holds() == naive_cocycle_holds(space)

    def test_law_equals_the_full_cube_on_random_draws(self):
        # the two-sorted relational draws with at most 5 elements (so
        # |Aut A| <= 24 and the cube has at most 24**3 compositions per
        # member), up to three splittings and three weak-only sections each
        rng = random.Random(1)
        verdicts, rho_failures = [], 0
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
                    claims = {name: ok for name, ok, _ in verify_claims(space).entries}
                    e_claims = tuple(claims[name] for name in uniform.E_PROPERTIES)
                    assert e_claims == naive_relation_verdicts(naive_e_matrix(space)), (b, section, n)
                    assert_frame0_facts(space)
                    if not space.cocycle_holds():
                        assert_transitivity_breaks(space)
                        continue
                    assert_membership_equals_oracle(space)
                    # the rho dichotomy in verify_claims' docstring
                    problem = space.fam.problem
                    kernel = problem.H.order > problem.G.order
                    rho = claims["cla6_rho_injective_across_classes"]
                    assert rho is not (n >= 2 and kernel), (b, section, n)
                    rho_failures += not rho
        assert verdicts.count(True) == 96 and verdicts.count(False) == 18
        assert rho_failures == 19

    def test_classes_equal_pairwise_union_find(self, e_space):
        _, space = e_space
        if space.cocycle_holds():
            assert_classes_are_the_frame0_prefix(space)
        else:  # E is not an equivalence, so it has no classes
            with pytest.raises(VerificationError, match="E_transitive fails"):
                space.classes()

    def test_e_verdicts_equal_naive_matrix(self, e_space):
        _, space = e_space
        report = verify_claims(space)
        ok = {name: flag for name, flag, _ in report.entries}
        got = (ok["E_reflexive"], ok["E_symmetric"], ok["E_transitive"])
        assert got == naive_relation_verdicts(naive_e_matrix(space))

    def test_frame_threads_equal_per_frame_scan(self, keyed_space):
        # (c): in frame pi, a class's thread at member s is T_s(0, pi_s)
        # applied to its frame-0 thread
        _, space = keyed_space
        frames, by_frame = naive_frame_threads(space)
        elements, position = space._elements, space._position
        for frame, found in zip(frames, by_frame):
            assert found == {
                cid: tuple(
                    elements[space.psi_tilde(s, 0, p)[position[entry]]]
                    for s, (p, entry) in enumerate(zip(frame, thread))
                )
                for cid, thread in enumerate(space.threads())
            }
        claim = next(e for e in verify_claims(space).entries if e[0] == "classes_have_unique_frame_threads")
        assert claim[1:] == (True, f"{len(frames)} frames, one thread per class in each")

    def test_frame0_facts_hold_in_every_frame(self, e_space):
        _, space = e_space
        assert_frame0_facts(space)

    def test_weak_only_lifting_falls_back_to_pairwise(self):
        b, search = weak_only_lifting()
        fam = build_family(assemble_ucp(b), search.weak_splittings[0], 1)
        space = TripleSpace(fam.members[0].A, fam)
        assert not space.cocycle_holds()
        assert not naive_cocycle_holds(space)
        assert naive_relation_verdicts(naive_e_matrix(space))[2] is False
        report = verify_claims(space)
        failed = {name for name, ok, _ in report.entries if not ok}
        assert "E_transitive" in failed

    def test_cycle3_six_copies_beyond_pairwise_bound(self, b_cycle3):
        fam, A = family_and_target(b_cycle3, [0, 1, 2], 6)
        space = TripleSpace(A, fam)
        assert space.size() == 2916
        report = verify_claims(space)
        assert report.all_pass, [e for e in report.entries if not e[1]]
        res = uniform_F(space)
        assert reduct(res.structure, (0,)) == A
        assert isomorphisms(res.structure, b_cycle3)



def assert_classes_are_the_frame0_prefix(space):
    """(b) and (c): the space's classes, on its frame-0 triples, are the
    oracle's classes over every frame cut down to the frame-0 prefix, with
    the same ids."""
    m = len(space.triples)
    class_of, members = naive_classes(space)
    assert space.classes() == (class_of[:m], [[i for i in group if i < m] for group in members])


def assert_frame0_facts(space):
    """The proofs in ``uniform`` against every frame: the space holds the
    frame-0 prefix of :func:`explicit_triples`, |X| is that list's length
    and the full-matrix count, and where E is an equivalence, each claim
    that (c)-(e) prove equals its oracle verdict."""
    xs = explicit_triples(space)
    m = len(space.triples)
    frame0 = (0,) * len(space.fam)
    assert triple_keys(xs[:m]) == triple_keys(space.triples)
    assert all(x.pi_idx == frame0 for x in xs[:m]) and all(x.pi_idx != frame0 for x in xs[m:])
    naive = naive_matched_triples(space.A, space.fam, max_elements=space.max_elements)
    assert space.size() == len(xs) == len(naive)
    if not space.cocycle_holds():
        return
    assert_classes_are_the_frame0_prefix(space)
    claims = {name: (ok, detail) for name, ok, detail in verify_claims(space).entries}
    frames, _ = naive_frame_threads(space)
    assert claims["classes_have_unique_frame_threads"] == (True, f"{len(frames)} frames, one thread per class in each")
    assert claims["cla5_k_classes"] == naive_k_classes_claim(space) == (True, "")
    for name, ok in naive_rho_claims(space).items():
        assert claims[name][0] == ok, name


def assert_membership_equals_oracle(space):
    """exists and forall, read off the members' sets, equal the per-frame
    evaluation in every frame, and the cla3 list holds the first four class
    tuples where they differ, in product order."""
    table, naive = space.membership(), naive_membership(space)
    assert len(table) == len(naive)
    for sets, verdicts in zip(table, naive):
        union, common = set.union(*sets), set.intersection(*sets)
        assert union <= verdicts.keys()
        for ct, (exists, forall) in verdicts.items():
            assert set(exists) == {ct in union} and set(forall) == {ct in common}, ct
    assert space.congruence() == [
        (ri, ct)
        for ri, verdicts in enumerate(naive)
        for ct, (exists, forall) in verdicts.items()
        if exists != forall
    ][:4]


class TestMembership:
    """Membership decided once per member in frame 0 (the proof in
    ``TripleSpace.membership``) against its evaluation in every frame."""

    def test_keyed_spaces_agree_in_every_frame(self, keyed_space):
        _, space = keyed_space
        assert_membership_equals_oracle(space)

    @pytest.mark.parametrize(
        "name,psi,sizes", CLAIMS_PASS_FIXTURES, ids=[f[0][2:] for f in CLAIMS_PASS_FIXTURES]
    )
    def test_claims_pass_families_agree_on_every_target(self, request, name, psi, sizes):
        for n in sizes:
            fam = build_family(assemble_ucp(request.getfixturevalue(name)), psi, n)
            for A_copy in canonical_copies(fam.members[0].A):
                assert_membership_equals_oracle(TripleSpace(A_copy, fam))

    def test_kernel_control_lists_its_disagreements(self, b_kernel):
        space = triple_space(b_kernel, [0], 2)
        assert_membership_equals_oracle(space)
        report = {name: (ok, detail) for name, ok, detail in verify_claims(space).entries}
        assert report["cla3_exists_forall_agreement"] == (False, "Eq(1, 3); Eq(1, 4); Eq(2, 3); Eq(2, 4)")
        assert report["cla4_congruence_frame_independent"] == (True, "")


def assert_transitivity_breaks(space):
    """Build x1, x2, x3 as the proof in :meth:`TripleSpace.equivalence` does
    on a space whose cocycle law fails, and assert x1 E x2 E x3 but not
    x1 E x3: i, j, l and a position e of B_0 where the law fails at member 0,
    x1 a triple at (i, e), x2 its partner in a frame at j, and x3 the partner
    of x2 in a frame at l.  Asserts on the way that x1's partner in every
    frame is a triple."""
    T, elements, position = transports(space), space._elements, space._position
    i, j, l, e = next(
        (i, j, l, e)
        for i, j, l in itertools.product(range(len(frame_isomorphisms(space)[0])), repeat=3)
        for e in range(len(elements))
        if T(0, j, l)[T(0, i, j)[e]] != T(0, i, l)[e]
    )
    xs = explicit_triples(space)
    by_key = {(x.pi_idx, x.b): x for x in xs}

    def partner(x, frame):
        b = tuple(elements[T(s, x.pi_idx[s], p)[position[x.b[s]]]] for s, p in enumerate(frame))
        return by_key.get((frame, b))

    frames = list(itertools.product(*(range(len(lst)) for lst in frame_isomorphisms(space))))
    x1 = next(x for x in xs if x.pi_idx[0] == i and x.b[0] == elements[e])
    assert all(partner(x1, frame) is not None for frame in frames)
    x2 = partner(x1, next(frame for frame in frames if frame[0] == j))
    x3 = partner(x2, next(frame for frame in reversed(frames) if frame[0] == l))
    assert space.e_equiv(x1, x2) and space.e_equiv(x2, x3)
    assert not space.e_equiv(x1, x3)


class TestSectionDecidesE:
    """E is reflexive and symmetric for every weak splitting, and transitive
    exactly when it is a splitting (:meth:`TripleSpace.equivalence`)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_proof_chain_breaks_transitivity(self, n):
        b, search = weak_only_lifting()
        space = triple_space(b, search.weak_splittings[0], n)
        assert not space.cocycle_holds()
        assert_transitivity_breaks(space)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("section", ["weak_splittings", "splittings"])
    def test_lifting_e_equals_naive_matrix(self, section, n):
        b, search = weak_only_lifting()
        space = triple_space(b, getattr(search, section)[0], n)
        verdicts, _ = space.equivalence()
        assert verdicts == (True, True, section == "splittings")
        assert verdicts == naive_relation_verdicts(naive_e_matrix(space))
        if section == "splittings":
            assert_classes_are_the_frame0_prefix(space)
        else:
            with pytest.raises(VerificationError, match="E_transitive fails"):
                space.classes()

    @pytest.mark.parametrize("n,size", [(4, 5832), (5, 34992), (6, 209952)])
    def test_verify_answers_past_two_thousand_triples(self, n, size):
        # |X| = 3**n frames * 2**(n - 1) extensions * 9 elements; frame 0's
        # 2**(n - 1) * 9 are built
        b, search = weak_only_lifting()
        space = triple_space(b, search.weak_splittings[0], n)
        assert space.size() == size and len(space.triples) == 2 ** (n - 1) * 9
        entries = {name: (ok, detail) for name, ok, detail in verify_claims(space).entries}
        detail = "proved from psi: a weak splitting that is not a splitting"
        assert [entries[name] for name in uniform.E_PROPERTIES] == [
            (True, detail), (True, detail), (False, detail)
        ]
        assert "cla3_exists_forall_agreement" not in entries

    @pytest.mark.parametrize("kind", ["none", "section-only"])
    def test_family_refuses_a_problem_without_a_weak_splitting(self, kind):
        b, search = weak_only_lifting()
        problem = assemble_ucp(b)
        members = (uniform.LiftedCopy(0, b, problem.A, identity_map(b)),)
        if kind == "none":
            detail = "no section supplied"
        else:
            # the splitting with the identity sent to the kernel's other
            # element: a section, but not a weak splitting
            section = list(search.splittings[0].map)
            section[0] = next(h for h, g in enumerate(problem.restriction) if g == 0 and h != section[0])
            problem = problem.with_section(section)
            assert problem.psi.classification == "section-only"
            detail = "section classification: section-only"
        with pytest.raises(StructureError, match=f"not a weak splitting: {detail}"):
            uniform.Family(problem, members)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_every_weak_splitting_of_a_witness_breaks_transitivity(self, k, n):
        b, search = c9_over_c3()
        assert not search.splittings and len(search.weak_splittings) == 3
        space = triple_space(b, search.weak_splittings[k], n)
        claims = {name: ok for name, ok, _ in verify_claims(space).entries}
        verdicts = tuple(claims[name] for name in uniform.E_PROPERTIES)
        assert verdicts == (True, True, False)
        if n < 3:  # the naive matrix of the 2,916 triples at n = 3 is left out
            assert verdicts == naive_relation_verdicts(naive_e_matrix(space))
        assert_transitivity_breaks(space)


class TestDerivedIsomorphisms:
    def test_member_lists_equal_the_search(self, keyed_space):
        fam, space = keyed_space
        A, base = space.A, fam.members[0]
        H = fam.problem.H
        isos = frame_isomorphisms(space)
        for t, member in enumerate(fam.members):
            searched = [m.row() for m in isomorphisms(member.A, A)]
            assert sorted(isos[t]) == searched and space.first[t] == isos[t][0] == searched[0]
            # each frame's isomorphism is a base isomorphism carried along f_A^-1
            k = len(A.sort_sizes)
            f_a_inv = SortedMap(base.A, member.A, member.relabel.maps[:k]).inverse()
            carried = sorted(SortedMap.from_row(base.A, A, row).compose(f_a_inv).row() for row in isos[0])
            assert carried == sorted(isos[t])
            if t:
                searched_b = sorted(isomorphisms(base.B, member.B), key=lambda m: m.maps[0])
                assert sorted(extension_row(space, t, h) for h in range(H.order)) == [m.row() for m in searched_b]

    @staticmethod
    def _targets(A: SortedStructure, rng: random.Random) -> list[tuple[SortedStructure, bool]]:
        """(target, isomorphic) pairs: A, A randomly relabelled, and a target
        that is not isomorphic, A less one relation tuple or, where A has
        none, A with one more element in its first sort."""
        perms = [rng.sample(range(n), n) for n in A.sort_sizes]
        rels = [set(rel) for rel in A.relations]
        ri = next((i for i, rel in enumerate(rels) if rel), None)
        if ri is None:
            other = SortedStructure(A.signature, (A.sort_sizes[0] + 1, *A.sort_sizes[1:]), rels)
        else:
            rels[ri].remove(min(rels[ri]))
            other = SortedStructure(A.signature, A.sort_sizes, rels)
        return [(A, True), (relabel(A, perms), True), (other, False)]

    def test_only_the_base_is_searched(self, request, monkeypatch):
        # one search, limit 1, per space: |iso_s| = |G| is read off the torsor
        # and |X| = |G|^n |K|^(n-1) |B| off (a), on every keyed family
        rng = random.Random(36)
        calls = []

        def counted(s1, s2, **kwargs):
            calls.append((s1, s2, kwargs))
            return isomorphism_rows(s1, s2, **kwargs)

        for name, psi, n in KEYED_FIXTURES:
            fam = build_family(assemble_ucp(request.getfixturevalue(name)), psi, n)
            problem = fam.problem
            kernel = problem.H.order // problem.G.order
            for target, isomorphic in self._targets(problem.A, rng):
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(uniform, "isomorphism_rows", counted)
                    space = TripleSpace(target, fam)
                assert calls == [(problem.A, target, {"max_elements": None, "limit": 1})], (name, n)
                searched = isomorphism_rows(problem.A, target)
                if isomorphic:
                    assert len(searched) == problem.G.order and len(space.first) == n
                    assert space.size() == problem.G.order ** n * kernel ** (n - 1) * problem.B.total_elements
                else:
                    assert searched == [] and space.first == [] and space.size() == 0
        fam = build_family(assemble_ucp(request.getfixturevalue("b_rich")), [0, 1, 2], 5)
        assert TripleSpace(fam.members[0].A, fam).size() == 1215

    def test_families_are_built_with_no_isomorphism_search(self, b_rich, monkeypatch):
        for name in ("isomorphisms", "isomorphism_rows"):  # any search would fail
            monkeypatch.setattr(uniform, name, None)
        fam = build_family(assemble_ucp(b_rich), [0, 1, 2], 5)
        assert [m.B for m in fam] == [m.B for m in naive_family(b_rich, [0, 1, 2], 5)]

    @pytest.mark.parametrize("maps", [((0, 1, 2), (0,)), ((0, 0, 0), (0,))],
                             ids=["identity", "not-bijective"])
    def test_relabellings_must_carry_the_base_onto_each_member(self, b_cycle3, maps):
        fam = build_family(assemble_ucp(b_cycle3), [0, 1, 2], 2)
        base, member = fam.members
        bad = uniform.LiftedCopy(member.tag, member.B, member.A, SortedMap(base.B, member.B, maps))
        with pytest.raises(StructureError, match="family members are not pairwise isomorphic"):
            uniform.Family(fam.problem, (base, bad))

    def test_copy_count_equals_the_enumerated_copies(self, keyed_space):
        fam, space = keyed_space
        copies = {c.canonical_key() for c in canonical_copies(fam.members[0].B)}
        for member in fam.members[1:]:
            assert {c.canonical_key() for c in canonical_copies(member.B)} == copies
        claim = next(e for e in verify_claims(space).entries if e[0] == "copy_set_definable_from_family")
        assert claim[1:] == (True, f"{len(copies)} canonical copies shared by all members")

    def test_members_must_relabel_the_base(self, b_cycle3):
        problems = naive_family(b_cycle3, [0, 1, 2], 2)
        members = [
            uniform.LiftedCopy(tag, p.B, p.A, identity_map(p.B)) for tag, p in enumerate(problems)
        ]
        with pytest.raises(StructureError, match="relabelling"):
            uniform.Family(problems[0], tuple(members))
        fam = build_family(assemble_ucp(b_cycle3), [0, 1, 2], 2)
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
        fam = build_family(problem, groups.first_weak_splitting(problem.phi), 2)
        target = relabel(problem.A, [[*range(1, n), 0] for n in problem.A.sort_sizes])
        return TripleSpace(target, fam)

    def test_triples_equal_full_matrix_enumeration(self, kept_space):
        assert triple_summaries(kept_space) == naive_matched_triples(kept_space.A, kept_space.fam)

    def test_thread_classes_equal_per_element_scan(self, kept_space):
        assert_thread_sets_are_keyed_classes(kept_space)
        assert len(naive_thread_classes(kept_space)) == kept_space.A.total_elements

    def test_construction_keeps_the_target(self, kept_space):
        assert verify_claims(kept_space).all_pass
        k = len(kept_space.A.sort_sizes)
        result = uniform_F(kept_space).structure
        assert reduct(result, range(k)) == kept_space.A
        assert isomorphisms(result, kept_space.fam.members[0].B, limit=1)
        for a, (sort, _) in enumerate(kept_space.A.elements()):
            assert {entry[0] for x in k_class(kept_space, a) for entry in x.b} == {sort}


# the claims every graphed-tower problem fails with two members
GRAPHED_FAILS_AT_TWO = {
    "cla3_exists_forall_agreement",
    "quotient_constructible",
    "cla6_rho_injective_across_classes",
    "cla6_quotient_isomorphic_to_member",
    "cla6_explicit_rho_witness",
}


class TestGraphedTower:
    """``derive_triple``'s three problems on the S4 -> S3 -> C2 tower, each
    function symbol replaced by its graph, through the uniform layer."""

    @pytest.fixture(scope="class")
    def derivation(self):
        return derive_triple(graph_functions(encode.encode_three_sorted(s4_s3_c2())), max_elements=64)

    @staticmethod
    def space(problem, n):
        fam = build_family(problem, groups.first_weak_splitting(problem.phi), n)
        return TripleSpace(fam.members[0].A, fam, max_elements=64)

    def test_graphs_keep_the_automorphisms(self):
        tower = encode.encode_three_sorted(s4_s3_c2())
        graphed = graph_functions(tower)
        assert not graphed.signature.functions
        assert aut_group(graphed, max_elements=32).perms == aut_group(tower, max_elements=32).perms

    @pytest.mark.parametrize("name", ["c12", "c23", "c13"])
    def test_one_member_passes_and_two_fail_the_congruence(self, derivation, name):
        problem = getattr(derivation, name)
        assert verify_claims(self.space(problem, 1)).all_pass
        report = verify_claims(self.space(problem, 2))
        assert {claim for claim, ok, _ in report.entries if not ok} == GRAPHED_FAILS_AT_TWO

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["c12", "c23", "c13"])
    def test_frame0_facts_hold_in_every_frame(self, derivation, name, n):
        assert_frame0_facts(self.space(getattr(derivation, name), n))

    def test_c13_with_two_members_keeps_memory_small(self, derivation):
        # 1,536 triples in 308 classes over 34 binary graph relations; one
        # evaluation per class tuple and frame peaked at 640 MiB of RSS
        tracemalloc.start()
        try:
            space = self.space(derivation.c13, 2)
            assert not verify_claims(space).all_pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.size() == 1536 and len(space.classes()[1]) == 308
        assert peak < 50 * 2**20, f"peak {peak / 2**20:.2f} MiB"
