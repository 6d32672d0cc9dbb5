from __future__ import annotations

import itertools

import pytest

from uniconstruct import encode, ucp
from uniconstruct.encode import (
    GroupTriple,
    attach_skew,
    encode_three_sorted,
    theta,
    verify_theta_iso,
)
from uniconstruct.errors import GroupError
from uniconstruct.groups import (
    GroupHom,
    aut_group,
    classify_sections,
    cyclic,
    dicyclic,
    quotient_by_center,
    symmetric,
)
from uniconstruct.structures import automorphisms, reduct
from uniconstruct.ucp import derive_triple

from .conftest import two_sorted
from .oracles import cayley_table
from .test_ucp import check_direct_derivation


def ident(g):
    return GroupHom(g, g, list(range(g.order)))


def triple(g1, g2, g3, m12, m23):
    return GroupTriple(g1, g2, g3, GroupHom(g2, g1, m12), GroupHom(g3, g2, m23))


class TestGroupTriple:
    def test_phi13_is_composition(self):
        c2, c4 = cyclic(2), cyclic(4)
        t = triple(c2, c2, c4, [0, 1], [0, 1, 0, 1])
        assert t.phi13.map == (0, 1, 0, 1)

    def test_wrong_phi13_rejected(self):
        c2 = cyclic(2)
        with pytest.raises(GroupError):
            GroupTriple(c2, c2, c2, ident(c2), ident(c2), GroupHom(c2, c2, [0, 0]))

    def test_non_surjective_rejected(self):
        c2, c4 = cyclic(2), cyclic(4)
        with pytest.raises(GroupError):
            triple(c2, c2, c4, [0, 1], [0, 0, 0, 0])


class TestEncodeThreeSorted:
    def test_trivial_groups_rigid(self):
        c1 = cyclic(1)
        t = GroupTriple(c1, c1, c1, ident(c1), ident(c1))
        s = encode_three_sorted(t)
        assert s.sort_sizes == (1, 1, 1)
        assert len(automorphisms(s)) == 1

    def test_c2_tower_has_two_automorphisms(self):
        c2 = cyclic(2)
        t = GroupTriple(c2, c2, c2, ident(c2), ident(c2))
        s = encode_three_sorted(t)
        assert len(automorphisms(s)) == 2

    def test_c4_tower_has_four_automorphisms(self):
        c2, c4 = cyclic(2), cyclic(4)
        t = triple(c2, c2, c4, [0, 1], [0, 1, 0, 1])
        s = encode_three_sorted(t)
        assert len(automorphisms(s, max_elements=12)) == 4

    def test_reduct_keeps_only_lower_symbols(self):
        c2, c4 = cyclic(2), cyclic(4)
        t = triple(c2, c2, c4, [0, 1], [0, 1, 0, 1])
        s = encode_three_sorted(t)
        r = reduct(s, (0, 1))
        names = [n for n, _, _ in r.signature.functions]
        assert names == ["F1"] + [f"T1_{a}" for a in c2.elements()] + [
            f"T2_{a}" for a in c2.elements()
        ]

    def test_translations_are_right_translations(self):
        c4 = cyclic(4)
        t = triple(cyclic(1), cyclic(1), c4, [0], [0, 0, 0, 0])
        s = encode_three_sorted(t)
        by_name = {
            name: s.functions[i]
            for i, (name, _, _) in enumerate(s.signature.functions)
        }
        for a in c4.elements():
            for b in c4.elements():
                assert by_name[f"T3_{a}"][(b,)] == c4.mul(b, a)


class TestTheta:
    def test_identity_maps_to_identity(self):
        c2 = cyclic(2)
        t = GroupTriple(c2, c2, c2, ident(c2), ident(c2))
        s = encode_three_sorted(t)
        m = theta(t, s, 0)
        assert m.maps == ((0, 1), (0, 1), (0, 1))

    def test_theta_is_homomorphism(self):
        c2, c4 = cyclic(2), cyclic(4)
        t = triple(c2, c2, c4, [0, 1], [0, 1, 0, 1])
        s = encode_three_sorted(t)
        for c1 in c4.elements():
            for c2_ in c4.elements():
                lhs = theta(t, s, c4.mul(c1, c2_))
                rhs = theta(t, s, c1).compose(theta(t, s, c2_))
                assert lhs.maps == rhs.maps

    def test_theta_lands_in_aut(self):
        c2, c4 = cyclic(2), cyclic(4)
        t = triple(c2, c2, c4, [0, 1], [0, 1, 0, 1])
        s = encode_three_sorted(t)
        aut = aut_group(s, max_elements=12)
        for c in c4.elements():
            assert theta(t, s, c).row() in aut.row_index

    def test_every_automorphism_is_a_theta(self):
        c2 = cyclic(2)
        t = GroupTriple(c2, c2, c2, ident(c2), ident(c2))
        s = encode_three_sorted(t)
        for a in automorphisms(s):
            c = a.maps[2][0]
            assert a == theta(t, s, c)


class TestVerifyThetaIso:
    def test_trivial_tower(self):
        c1 = cyclic(1)
        t = GroupTriple(c1, c1, c1, ident(c1), ident(c1))
        assert verify_theta_iso(t).all_pass

    def test_c2_tower(self):
        c2 = cyclic(2)
        t = GroupTriple(c2, c2, c2, ident(c2), ident(c2))
        assert verify_theta_iso(t).all_pass

    def test_mixed_tower(self):
        c2, c4 = cyclic(2), cyclic(4)
        t = triple(c2, c2, c4, [0, 1], [0, 1, 0, 1])
        assert verify_theta_iso(t).all_pass

    def test_q8_tower(self):
        q8 = dicyclic(2)
        v4, piq = quotient_by_center(q8)
        pr = GroupHom(v4, cyclic(2), [0, 0, 1, 1])
        t = GroupTriple(cyclic(2), v4, q8, pr, piq)
        report = verify_theta_iso(t)
        assert report.all_pass

    def test_s3_sign_tower(self):
        s3 = symmetric(3)
        sign = GroupHom(s3, cyclic(2), [0, 1, 1, 0, 0, 1])
        t = GroupTriple(cyclic(2), cyclic(2), s3, ident(cyclic(2)), sign)
        report = verify_theta_iso(t)
        assert report.all_pass


class TestAttachSkew:
    def test_rigid_base_trivial_top(self, b_two_free):
        # pin the base so Aut(B) is trivial
        rigid = two_sorted((2, 1), [("R", (0, 1), [(0, 0)])])
        autb = aut_group(rigid)
        assert cayley_table(autb).order == 1
        att = attach_skew(rigid, cyclic(1), GroupHom(cyclic(1), autb, [0]))
        assert len(automorphisms(att.structure)) == 1
        check_direct_derivation(att.structure, derive_triple(att.structure))

    def test_aut_is_g3_for_identity_phi(self, b_two_free):
        autb = aut_group(b_two_free)
        c2 = cyclic(2)
        att = attach_skew(b_two_free, c2, GroupHom(c2, autb, [0, 1]))
        assert len(automorphisms(att.structure)) == 2
        d = derive_triple(att.structure)
        assert d.all_weak and d.composition_ok
        assert classify_sections(d.c23.phi).has_splitting
        check_direct_derivation(att.structure, d)

    def test_c4_top_lifting_classification(self, b_two_free):
        autb = aut_group(b_two_free)
        c4 = cyclic(4)
        att = attach_skew(b_two_free, c4, GroupHom(c4, autb, [0, 1, 0, 1]))
        assert len(automorphisms(att.structure, max_elements=12)) == 4
        d = derive_triple(att.structure)
        assert d.all_weak
        check_direct_derivation(att.structure, d)
        c13 = classify_sections(d.c13.phi)
        assert not c13.has_splitting and not c13.has_weak_splitting
        c23 = classify_sections(d.c23.phi)
        assert not c23.has_splitting

    def test_sort12_reduct_is_base(self, b_two_free):
        autb = aut_group(b_two_free)
        c2 = cyclic(2)
        att = attach_skew(b_two_free, c2, GroupHom(c2, autb, [0, 1]))
        assert reduct(att.structure, (0, 1)) == b_two_free

    def test_restriction_to_base_is_automorphism(self, b_matching):
        autb = aut_group(b_matching)
        c2 = cyclic(2)
        att = attach_skew(b_matching, c2, GroupHom(c2, autb, [0, 1]))
        for a in automorphisms(att.structure):
            restricted = (a.maps[0], a.maps[1])
            assert restricted in [autb.map(i).maps for i in range(autb.order)]
        check_direct_derivation(att.structure, derive_triple(att.structure))

    def test_wrong_codomain_rejected(self, b_two_free):
        c4 = cyclic(4)
        with pytest.raises(GroupError):
            attach_skew(b_two_free, c4, GroupHom(c4, c4, [0, 1, 2, 3]))


class TestSearchCounts:
    """Each automorphism group of a tower is searched once."""

    @pytest.fixture
    def searched(self, monkeypatch):
        structures = []

        def counted(s, **kwargs):
            structures.append(s)
            return aut_group(s, **kwargs)

        for mod in (encode, ucp):
            monkeypatch.setattr(mod, "aut_group", counted)
        return structures

    def test_derive_triple_searches_each_group_once(self, searched):
        C = encode_three_sorted(triple(cyclic(2), cyclic(2), cyclic(4), [0, 1], [0, 1, 0, 1]))
        derive_triple(C, max_elements=C.total_elements)
        assert searched == [reduct(C, (0, 1)), reduct(C, (0,)), C]

    def test_verify_theta_iso_searches_each_group_once(self, searched):
        t = triple(cyclic(2), cyclic(2), cyclic(4), [0, 1], [0, 1, 0, 1])
        assert verify_theta_iso(t).all_pass
        C = encode_three_sorted(t)
        assert searched == [reduct(C, (0, 1)), reduct(C, (0,)), C]


class TestBoundedSweep:
    def test_towers_of_order_at_most_four(self):
        from uniconstruct.groups import catalog, surjective_homs

        groups = [g for g in catalog(4)]
        count = 0
        for g3, g2, g1 in itertools.product(groups, repeat=3):
            if g3.order < g2.order or g2.order < g1.order:
                continue
            homs23 = surjective_homs(g3, g2, limit=1)
            homs12 = surjective_homs(g2, g1, limit=1)
            if not homs23 or not homs12:
                continue
            t = GroupTriple(g1, g2, g3, homs12[0], homs23[0])
            report = verify_theta_iso(t, max_elements=16)
            assert report.all_pass, (g1.label(), g2.label(), g3.label())
            count += 1
        assert count >= 10
