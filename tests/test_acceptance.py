"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from uniconstruct.encode import GroupTriple, verify_theta_iso
from uniconstruct.groups import (
    GroupHom,
    catalog,
    catalog_search_weak_not_strong,
    classify_sections,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    normal_subgroups,
    quotient_by_center,
    quotient_by_subgroup,
    surjective_homs,
    symmetric,
)
from uniconstruct.skew import (
    center_witness,
    hom_violations,
    phi23,
    psi0,
    random_skew_element,
    shift_generator,
    skew_from_support,
    skew_inv,
    skew_mul,
)
from uniconstruct.structures import (
    SortedSignature,
    SortedStructure,
    automorphisms,
    canonical_copies,
    isomorphisms,
    reduct,
)
from uniconstruct.ucp import compose_solvers, reduct_solver, solver_from_catalog
from uniconstruct.uniform import build_family, uniform_F, verify_claims

from .conftest import random_structure, two_sorted
from .oracles import naive_isomorphisms, naive_section_census, naive_sections


def report(criterion: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"[{criterion}] {status} ({elapsed:.2f}s){suffix}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_automorphism_oracle_equivalence():
    """Backtracking equals naive all-permutations filtering on 50 structures."""
    start = time.time()
    rng = random.Random(20250811)
    n_structures = 0
    while n_structures < 50:
        s = random_structure(rng, max_total=6)
        fast = [m.maps for m in automorphisms(s)]
        naive = naive_isomorphisms(s, s)
        assert fast == naive, f"disagreement on {s!r}"
        n_structures += 1
    elapsed = time.time() - start
    report(
        "criterion-1 automorphism-oracle-equivalence",
        elapsed < 10.0,
        elapsed,
        f"{n_structures} structures, exact agreement",
    )


def _agrees_with_naive(res) -> bool:
    split, weak = naive_sections(res.phi)
    return [s.map for s in res.splittings] == split and [
        s.map for s in res.weak_splittings
    ] == weak


def test_criterion_2_splitting_classification():
    start = time.time()
    c2 = cyclic(2)

    v4 = direct_product(c2, c2)
    res_v4 = classify_sections(GroupHom(v4, c2, [0, 0, 1, 1]))
    ok = res_v4.has_splitting

    res_c4 = classify_sections(GroupHom(cyclic(4), c2, [0, 1, 0, 1]))
    ok = ok and not res_c4.has_splitting and not res_c4.has_weak_splitting

    _, phi_q8 = quotient_by_center(dicyclic(2))
    res_q8 = classify_sections(phi_q8)
    ok = ok and not res_q8.has_splitting and not res_q8.has_weak_splitting

    _, phi_d4 = quotient_by_center(dihedral(4))
    res_d4 = classify_sections(phi_d4)
    ok = ok and not res_d4.has_splitting

    ok = ok and all(_agrees_with_naive(r) for r in (res_v4, res_c4, res_q8, res_d4))

    elapsed = time.time() - start
    report(
        "criterion-2 splitting-classification",
        ok and elapsed < 5.0,
        elapsed,
        "C2xC2->C2 splits; C4->C2 neither; Q8->Q8/Z neither; D4->D4/Z no splitting",
    )


def test_criterion_3_skew_group_laws():
    start = time.time()
    bases = [cyclic(2), cyclic(3), symmetric(3)]
    rng = random.Random(97)
    for base in bases:
        y = shift_generator(base)
        for _ in range(10_000):
            a = random_skew_element(base, rng, allow_identity=True)
            b = random_skew_element(base, rng, allow_identity=True)
            c = random_skew_element(base, rng, allow_identity=True)
            assert skew_mul(skew_mul(a, b), c) == skew_mul(a, skew_mul(b, c))
            assert skew_mul(a, skew_inv(a)).is_identity()
        for _ in range(1_000):
            a = random_skew_element(base, rng, allow_identity=True)
            x = skew_from_support(base, 0, dict(a.support))
            conj = skew_mul(skew_mul(skew_inv(y), x), y)
            assert conj == skew_from_support(base, 0, {p + 1: v for p, v in x.support})
        assert all(phi23(psi0(base, g)) == g for g in base.elements())
        for _ in range(1_000):
            a = random_skew_element(base, rng)
            w = center_witness(a)
            assert skew_mul(a, w) != skew_mul(w, a)
    elapsed = time.time() - start
    report(
        "criterion-3 skew-group-laws",
        elapsed < 30.0,
        elapsed,
        "3 bases x (10^4 assoc/inv + 10^3 conjugation + 10^3 witnesses + lifting)",
    )


def _sweep_triples(max_triples=24):
    groups = catalog(8)
    triples = []
    for g3, g2, g1 in itertools.product(groups, repeat=3):
        if g2.order > g3.order or g1.order > g2.order:
            continue
        if g3.order % g2.order or g2.order % g1.order:
            continue
        homs23 = surjective_homs(g3, g2, limit=1)
        homs12 = surjective_homs(g2, g1, limit=1)
        if homs23 and homs12:
            triples.append(GroupTriple(g1, g2, g3, homs12[0], homs23[0]))
        if len(triples) >= max_triples:
            break
    return triples


def test_criterion_4_theta_isomorphism_sweep():
    start = time.time()
    triples = _sweep_triples()
    assert len(triples) >= 20, f"only {len(triples)} triples found"
    for t in triples:
        rep = verify_theta_iso(t, max_elements=32)
        assert rep.all_pass, (
            t.g1.label(),
            t.g2.label(),
            t.g3.label(),
            [e for e in rep.entries if not e[1]],
        )
    elapsed = time.time() - start
    report(
        "criterion-4 theta-isomorphism",
        elapsed < 300.0,
        elapsed,
        f"{len(triples)} towers, |Aut| = |G3| and all restriction maps match",
    )


def _uniformity_fixtures():
    b_two_free = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
    b_cycle3 = two_sorted(
        (3, 1),
        [
            ("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
            ("R", (0, 1), [(0, 0), (1, 0), (2, 0)]),
        ],
    )
    b_matching = two_sorted((2, 2), [("M", (0, 1), [(0, 0), (1, 1)])])
    b_kernel = two_sorted((1, 2), [("Eq", (1, 1), [(0, 0), (1, 1)])])
    b_rich = two_sorted(
        (3, 2),
        [
            ("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
            ("S", (1, 1), [(0, 1)]),
            ("R", (0, 1), [(p, q) for p in range(3) for q in range(2)]),
        ],
    )
    return [
        ("two-free |S|=1", b_two_free, [0, 1], 1),
        ("two-free |S|=2", b_two_free, [0, 1], 2),
        ("cycle3 |S|=2", b_cycle3, [0, 1, 2], 2),
        ("cycle3 |S|=3", b_cycle3, [0, 1, 2], 3),
        ("matching |S|=2", b_matching, [0, 1], 2),
        ("kernel |S|=1", b_kernel, [0], 1),
        ("rich |S|=2", b_rich, [0, 1, 2], 2),
    ]


@pytest.mark.parametrize("name,b,psi,n", _uniformity_fixtures())
def test_criterion_5_uniform_construction(name, b, psi, n):
    start = time.time()
    fam = build_family(b, psi, n)
    target = fam.members[0].A

    claims = verify_claims(target, fam)
    ok = claims.all_pass
    detail = "" if ok else str([e for e in claims.entries if not e[1]])

    result = uniform_F(target, fam)
    ok = ok and reduct(result.structure, (0,)) == target
    ok = ok and bool(isomorphisms(result.structure, b))

    copies = canonical_copies(target, cap=24)
    for a_copy in copies:
        res = uniform_F(a_copy, fam)
        ok = ok and reduct(res.structure, (0,)) == a_copy
        ok = ok and bool(isomorphisms(res.structure, b))

    elapsed = time.time() - start
    report(
        f"criterion-5 uniform-construction [{name}]",
        ok and elapsed < 120.0,
        elapsed,
        detail or f"claims pass, {len(copies)} canonical copies re-run",
    )


def _rigid_three_sorted():
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


def test_criterion_6_solver_algebra():
    start = time.time()
    c = _rigid_three_sorted()
    selected, seen = [], set()
    for copy in canonical_copies(c):
        key = reduct(copy, (0,)).canonical_key()
        if key not in seen:
            seen.add(key)
            selected.append(copy)
        if len(selected) == 3:
            break
    assert len(selected) == 3

    f23 = solver_from_catalog(selected, keep=(0, 1))
    f12 = solver_from_catalog(f23.catalog1, keep=(0,))
    f13 = compose_solvers(f12, f23)
    f13.verify()
    ok = all(f13.apply(reduct(bb, (0,))) == bb for bb in f13.catalog2)

    target = SortedSignature(("a", "b", "c"), relations=(("L", (0, 0)), ("P", (0, 1))))
    fr = reduct_solver(f23, target)
    fr.verify()
    ok = ok and all(fr.apply(reduct(bb, (0, 1))) == bb for bb in fr.catalog2)

    elapsed = time.time() - start
    report(
        "criterion-6 solver-algebra",
        ok and elapsed < 1.0,
        elapsed,
        "composition and reduction preserve the solver invariant on 3-element catalogs",
    )


def test_criterion_7_negative_control_honesty():
    start = time.time()

    violations_s3 = hom_violations(symmetric(3), 10_000, seed=0)
    ok = len(violations_s3) >= 1

    abelian = [g for g in catalog(8) if g.is_abelian()]
    for base in abelian:
        ok = ok and hom_violations(base, 10_000, seed=0) == []

    witnesses = catalog_search_weak_not_strong(16)
    for w in witnesses:
        ok = ok and w.search.has_weak_splitting and not w.search.has_splitting

    # classification agrees with the naive enumerator on every instance
    checked = 0
    for g in catalog(16):
        for nsub in normal_subgroups(g):
            _, phi = quotient_by_subgroup(g, nsub)
            res = classify_sections(phi)
            if res.n_candidates > 256:
                continue
            n_sections, n_split, n_weak = naive_section_census(phi)
            ok = ok and res.n_candidates == n_sections
            ok = ok and len(res.splittings) == n_split
            ok = ok and len(res.splittings) + len(res.weak_splittings) == n_weak
            ok = ok and _agrees_with_naive(res)
            checked += 1

    elapsed = time.time() - start
    report(
        "criterion-7 negative-control-honesty",
        ok,
        elapsed,
        f"{len(violations_s3)} S3 violations, {len(abelian)} clean abelian bases, "
        f"{len(witnesses)} weak-not-strong witnesses, {checked} instances vs naive census",
    )
