from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconstruct.errors import BoundExceededError, GroupError
from uniconstruct.groups import (
    GroupHom,
    center,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    find_isomorphism,
    symmetric,
)
from uniconstruct.skew import (
    SkewElement,
    build_cyclic_skew,
    center_witness,
    hom_violations,
    phi13,
    phi23,
    phi23_hom_witness,
    psi0,
    random_skew_element,
    shift_generator,
    skew_from_json,
    skew_from_support,
    skew_identity,
    skew_inv,
    skew_mul,
    skew_pow,
    skew_to_json,
)

from .oracles import naive_cyclic_skew_table, rewrite_mul

BASES = [cyclic(2), cyclic(3), symmetric(3)]


def elements(base, rng, k, **kw):
    return [random_skew_element(base, rng, allow_identity=True, **kw) for _ in range(k)]


class TestNormalForm:
    def test_identity_support_rejected(self):
        with pytest.raises(GroupError):
            SkewElement(cyclic(2), 0, ((0, 0),))

    def test_unsorted_support_rejected(self):
        with pytest.raises(GroupError):
            SkewElement(cyclic(2), 0, ((1, 1), (0, 1)))

    @pytest.mark.parametrize(
        "support, message",
        [
            (((1, 1), (0, 1)), "strictly ascending"),
            (((0, 1), (0, 2)), "strictly ascending"),
            (((1, 0), (0, 5)), "strictly ascending"),  # order is checked first
            (((0, 1), (2, 0)), "non-identity"),
            (((0, 0), (1, 7)), "non-identity"),  # before the range check
            (((0, 3),), "out of base-group range"),
            (((0, 1), (4, -1)), "out of base-group range"),
        ],
    )
    def test_each_rule_keeps_its_message(self, support, message):
        with pytest.raises(GroupError, match=message):
            SkewElement(cyclic(3), 0, support)

    def test_equal_bases_built_apart_multiply(self):
        a = skew_from_support(cyclic(3), 1, {0: 1})
        b = skew_from_support(cyclic(3), 0, {0: 1, 1: 2})
        assert a.base is not b.base
        assert skew_mul(a, b) == skew_from_support(cyclic(3), 1, {0: 2, 1: 2})

    def test_from_support_drops_identities(self):
        el = skew_from_support(cyclic(2), 2, {0: 1, 3: 0})
        assert el.support == ((0, 1),)


class TestMultiplication:
    def test_identity_is_neutral(self):
        rng = random.Random(0)
        for base in BASES:
            e = skew_identity(base)
            for a in elements(base, rng, 20):
                assert skew_mul(e, a) == a == skew_mul(a, e)

    def test_conjugation_shifts_support(self):
        base = cyclic(2)
        x = skew_from_support(base, 0, {0: 1})
        y = shift_generator(base)
        assert skew_mul(skew_mul(skew_inv(y), x), y) == skew_from_support(base, 0, {1: 1})

    def test_conjugation_law_random(self):
        rng = random.Random(1)
        for base in BASES:
            y = shift_generator(base)
            for _ in range(200):
                a = random_skew_element(base, rng, allow_identity=True)
                x = skew_from_support(base, 0, dict(a.support))
                conj = skew_mul(skew_mul(skew_inv(y), x), y)
                assert conj == skew_from_support(base, 0, {p + 1: v for p, v in x.support})

    def test_against_rewriting_oracle(self):
        rng = random.Random(2)
        for base in BASES:
            for _ in range(300):
                a, b = elements(base, rng, 2)
                prod = skew_mul(a, b)
                assert (prod.shift, prod.support) == rewrite_mul(a, b)

    def test_spec_cross_shift_example(self):
        base = cyclic(2)
        a = skew_from_support(base, 2, {0: 1})
        b = skew_from_support(base, -2, {1: 1})
        prod = skew_mul(a, b)
        assert (prod.shift, prod.support) == rewrite_mul(a, b)
        assert prod.shift == 0 and prod.support == ((-2, 1), (1, 1))

    def test_base_mismatch_rejected(self):
        with pytest.raises(GroupError):
            skew_mul(skew_identity(cyclic(2)), skew_identity(cyclic(3)))


class TestInverseAndPower:
    def test_inverse_of_identity(self):
        assert skew_inv(skew_identity(cyclic(2))).is_identity()

    def test_pointwise_inverse_at_shift_zero(self):
        base = cyclic(3)
        el = skew_from_support(base, 0, {0: 1})
        assert skew_inv(el) == skew_from_support(base, 0, {0: 2})

    def test_shift_inverse(self):
        base = cyclic(2)
        y = shift_generator(base, 1)
        assert skew_inv(y) == shift_generator(base, -1)
        assert skew_mul(y, skew_inv(y)).is_identity()

    def test_inverse_round_trip_random(self):
        rng = random.Random(3)
        for base in BASES:
            for a in elements(base, rng, 200):
                assert skew_mul(a, skew_inv(a)).is_identity()
                assert skew_mul(skew_inv(a), a).is_identity()

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(4)
        base = symmetric(3)
        for a in elements(base, rng, 30):
            acc = skew_identity(base)
            for m in range(5):
                assert skew_pow(a, m) == acc
                acc = skew_mul(acc, a)
            assert skew_pow(a, -3) == skew_inv(skew_pow(a, 3))

    @given(st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_shift_powers_add(self, n, m):
        base = cyclic(2)
        assert skew_mul(shift_generator(base, n), shift_generator(base, m)) == shift_generator(
            base, n + m
        )


class TestProjections:
    def test_phi23_identity(self):
        assert phi23(skew_identity(symmetric(3))) == 0

    def test_phi23_single_position(self):
        base = cyclic(4)
        assert phi23(skew_from_support(base, 5, {3: 3})) == 3

    def test_phi23_hom_for_abelian(self):
        rng = random.Random(5)
        for base in (cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2))):
            for _ in range(300):
                a, b = elements(base, rng, 2)
                assert phi23(skew_mul(a, b)) == base.mul(phi23(a), phi23(b))

    def test_phi23_violations_for_s3(self):
        assert len(hom_violations(symmetric(3), 2000, seed=0)) > 0

    def test_phi23_no_violations_for_abelian(self):
        for base in (cyclic(2), cyclic(3), cyclic(4)):
            assert hom_violations(base, 2000, seed=0) == []

    def test_explicit_violation_pair(self):
        s3 = symmetric(3)
        s, t = 1, 2
        assert s3.mul(s, t) != s3.mul(t, s)
        a = skew_from_support(s3, 0, {1: s})
        b = skew_from_support(s3, 0, {0: t})
        assert phi23(skew_mul(a, b)) != s3.mul(phi23(a), phi23(b))

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "C4", "C2xC2"])
    def test_hom_witness_exact(self, name):
        base = {
            "S3": symmetric(3),
            "D4": dihedral(4),
            "Q8": dicyclic(2),
            "C4": cyclic(4),
            "C2xC2": direct_product(cyclic(2), cyclic(2)),
        }[name]
        pairs = [(a, b) for a in base.elements() for b in base.elements()
                 if base.mul(a, b) != base.mul(b, a)]
        witness = phi23_hom_witness(base)
        assert (witness is None) == base.is_abelian() == (not pairs)
        if witness is None:
            return
        x, y = witness
        a, b = pairs[0]
        assert (x, y) == (skew_from_support(base, 0, {0: a}), skew_from_support(base, 0, {-1: b}))
        assert phi23(skew_mul(x, y)) != base.mul(phi23(x), phi23(y))
        # every non-commuting pair breaks the law the same way: b*a != a*b
        for a, b in pairs:
            x, y = skew_from_support(base, 0, {0: a}), skew_from_support(base, 0, {-1: b})
            assert phi23(skew_mul(x, y)) == base.mul(b, a) != base.mul(a, b)

    def test_psi0_sections_phi23(self):
        for base in (cyclic(8), symmetric(3), dihedral(4)):
            for g in base.elements():
                assert phi23(psi0(base, g)) == g

    def test_psi0_is_injective_hom(self):
        base = symmetric(3)
        seen = set()
        for g in base.elements():
            el = psi0(base, g)
            assert el not in seen
            seen.add(el)
            for h in base.elements():
                assert skew_mul(psi0(base, g), psi0(base, h)) == psi0(base, base.mul(g, h))

    def test_phi13_composition(self):
        base = cyclic(4)
        phi12 = GroupHom(base, cyclic(2), [0, 1, 0, 1])
        rng = random.Random(6)
        for a in elements(base, rng, 100):
            assert phi13(a, phi12) == phi12(phi23(a))

    def test_phi13_of_pure_shift_is_identity(self):
        base = cyclic(4)
        phi12 = GroupHom(base, cyclic(2), [0, 1, 0, 1])
        assert phi13(shift_generator(base, 7), phi12) == 0


class TestCenterWitness:
    def test_identity_rejected(self):
        with pytest.raises(GroupError):
            center_witness(skew_identity(cyclic(2)))

    def test_trivial_base_rejected(self):
        el = shift_generator(cyclic(1), 1)
        with pytest.raises(GroupError):
            center_witness(el)

    def test_supported_element_gets_shift_witness(self):
        base = cyclic(2)
        a = skew_from_support(base, 0, {0: 1})
        w = center_witness(a)
        assert w == shift_generator(base, 1)
        assert skew_mul(a, w) != skew_mul(w, a)

    def test_pure_shift_gets_planted_generator(self):
        base = cyclic(2)
        a = shift_generator(base, 1)
        w = center_witness(a)
        assert w == skew_from_support(base, 0, {2: 1})
        assert skew_mul(a, w) != skew_mul(w, a)

    def test_never_commutes_random(self):
        rng = random.Random(7)
        for base in BASES:
            for _ in range(300):
                a = random_skew_element(base, rng)
                w = center_witness(a)
                assert skew_mul(a, w) != skew_mul(w, a)

    def test_negative_shift_cases(self):
        base = cyclic(2)
        for support in ({}, {0: 1}, {-1: 1, 0: 1}, {-4: 1}):
            for shift in (-3, -1, 1, 2):
                a = skew_from_support(base, shift, support)
                w = center_witness(a)
                assert skew_mul(a, w) != skew_mul(w, a)


class TestCyclicSkew:
    def test_k1_over_c2_is_c2(self):
        cs = build_cyclic_skew(1, cyclic(2))
        assert cs.group.order == 2
        assert find_isomorphism(cs.group, cyclic(2)) is not None

    def test_k2_over_trivial_is_c2(self):
        cs = build_cyclic_skew(2, cyclic(1))
        assert cs.group.order == 2
        assert find_isomorphism(cs.group, cyclic(2)) is not None

    def test_k2_over_c2_order_8(self):
        cs = build_cyclic_skew(2, cyclic(2))
        assert cs.group.order == 8
        # center computed, never assumed
        assert len(center(cs.group)) == 2
        assert find_isomorphism(cs.group, dihedral(4)) is not None

    def test_multiplication_matches_skew_arithmetic(self):
        base = cyclic(3)
        k = 2
        cs = build_cyclic_skew(k, base)
        g = cs.group
        rng = random.Random(8)
        for _ in range(200):
            x, y = rng.randrange(g.order), rng.randrange(g.order)
            n, xs = cs.decode(x)
            m, ys = cs.decode(y)
            # reduce the infinite arithmetic mod k
            a = skew_from_support(base, n, {p: v for p, v in enumerate(xs)})
            b = skew_from_support(base, m, {p: v for p, v in enumerate(ys)})
            prod = skew_mul(a, b)
            folded = [0] * k
            for p, v in prod.support:
                folded[p % k] = base.mul(folded[p % k], v)
            assert g.mul(x, y) == cs.encode(prod.shift % k, folded)

    def test_k3_over_c2_is_c2_times_a4(self):
        # the rotation action of Z3 on C2^3 realizes the wreath product
        from uniconstruct.groups import alternating, direct_product

        cs = build_cyclic_skew(3, cyclic(2))
        assert cs.group.order == 24
        assert find_isomorphism(cs.group, direct_product(cyclic(2), alternating(4))) is not None

    def test_order_bound(self):
        with pytest.raises(BoundExceededError):
            build_cyclic_skew(12, cyclic(2))

    @pytest.mark.parametrize(
        "k, base",
        [
            (1, cyclic(2)),
            (2, cyclic(1)),
            (2, cyclic(3)),
            (3, cyclic(2)),
            (3, symmetric(3)),
            (4, cyclic(3)),
            (5, cyclic(3)),
        ],
        ids=["1-C2", "2-C1", "2-C3", "3-C2", "3-S3", "4-C3", "5-C3"],
    )
    def test_table_equals_naive_loop(self, k, base):
        cs = build_cyclic_skew(k, base)
        naive = naive_cyclic_skew_table(k, base)
        assert cs.group.order == len(naive) == k * base.order**k
        assert np.array_equal(cs.group.table, naive)
        for idx in (0, 1, cs.group.order // 2, cs.group.order - 1):
            shift, values = cs.decode(idx)
            assert cs.group.element_name(idx) == (
                f"y^{shift}({','.join(base.element_name(v) for v in values)})"
            )

    def test_encode_decode_round_trip(self):
        cs = build_cyclic_skew(2, cyclic(2))
        for idx in range(cs.group.order):
            shift, values = cs.decode(idx)
            assert cs.encode(shift, values) == idx


def skew_elements(base):
    values = st.integers(1, base.order - 1) if base.order > 1 else st.nothing()
    supports = st.dictionaries(st.integers(-4, 4), values, max_size=3)
    return st.builds(
        lambda shift, support: skew_from_support(base, shift, support),
        st.integers(-3, 3),
        supports,
    )


class TestHypothesisLaws:
    @given(skew_elements(symmetric(3)), skew_elements(symmetric(3)), skew_elements(symmetric(3)))
    @settings(max_examples=150, deadline=None)
    def test_associativity(self, a, b, c):
        assert skew_mul(skew_mul(a, b), c) == skew_mul(a, skew_mul(b, c))

    @given(skew_elements(cyclic(3)))
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, a):
        assert skew_mul(a, skew_inv(a)).is_identity()
        assert skew_inv(skew_inv(a)) == a

    @given(skew_elements(symmetric(3)), skew_elements(symmetric(3)))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_rewriting_oracle(self, a, b):
        prod = skew_mul(a, b)
        assert (prod.shift, prod.support) == rewrite_mul(a, b)

    @given(skew_elements(cyclic(4)), skew_elements(cyclic(4)))
    @settings(max_examples=100, deadline=None)
    def test_phi23_hom_on_abelian(self, a, b):
        base = a.base
        assert phi23(skew_mul(a, b)) == base.mul(phi23(a), phi23(b))


class TestSerialization:
    def test_round_trip(self):
        base = symmetric(3)
        el = skew_from_support(base, -2, {-1: 3, 4: 1})
        assert skew_from_json(base, skew_to_json(el)) == el

    def test_positions_ascending_in_json(self):
        base = cyclic(2)
        el = skew_from_support(base, 0, {3: 1, -2: 1})
        assert skew_to_json(el)["support"] == [[-2, 1], [3, 1]]
