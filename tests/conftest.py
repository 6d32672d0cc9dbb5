"""Shared structure builders for the test suite."""

from __future__ import annotations

import random

import pytest

from uniconstruct.encode import GroupTriple
from uniconstruct.groups import cyclic, surjective_homs, symmetric
from uniconstruct.structures import SortedSignature, SortedStructure


def one_sorted(size, relations=(), functions=(), constants=(), name="p"):
    """Build a 1-sorted structure from (name, arity_signature, interpretation) triples."""
    rel_syms = tuple((n, sig) for n, sig, _ in relations)
    fn_syms = tuple((n, sig, tgt) for n, sig, tgt, _ in functions)
    const_syms = tuple((n, s) for n, s, _ in constants)
    signature = SortedSignature((name,), rel_syms, fn_syms, const_syms)
    return SortedStructure(
        signature,
        (size,),
        [interp for _, _, interp in relations],
        [interp for _, _, _, interp in functions],
        [v for _, _, v in constants],
    )


def free_points(n):
    return SortedStructure(SortedSignature(("p",)), (n,))


def directed_cycle(n):
    sig = SortedSignature(("p",), relations=(("E", (0, 0)),))
    return SortedStructure(sig, (n,), [[(i, (i + 1) % n) for i in range(n)]])


def linear_order(n):
    sig = SortedSignature(("p",), relations=(("L", (0, 0)),))
    return SortedStructure(sig, (n,), [[(i, j) for i in range(n) for j in range(n) if i < j]])


def two_sorted(sizes, relations):
    """relations: iterable of (name, signature, tuples)."""
    sig = SortedSignature(
        ("p", "q"), relations=tuple((n, s) for n, s, _ in relations)
    )
    return SortedStructure(sig, sizes, [t for _, _, t in relations])


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


def matched_three_sorted():
    """Three 3-point sorts, P a matching of the first two and Q of the last
    two: Aut is S3 at every level, and every restriction map is onto."""
    sig = SortedSignature(("a", "b", "c"), relations=(("P", (0, 1)), ("Q", (1, 2))))
    return SortedStructure(
        sig, (3, 3, 3), [[(i, i) for i in range(3)], [(i, (i + 1) % 3) for i in range(3)]]
    )


def s4_s3_c2() -> GroupTriple:
    """The tower S4 -> S3 -> C2 of the first surjections found."""
    s4, s3, c2 = symmetric(4), symmetric(3), cyclic(2)
    return GroupTriple(c2, s3, s4, surjective_homs(s3, c2)[0], surjective_homs(s4, s3)[0])


@pytest.fixture
def b_two_free():
    """Two free first-sort points over one apex; Aut = C2 at both levels."""
    return two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])


@pytest.fixture
def b_cycle3():
    """Directed 3-cycle plus apex; Aut = C3 at both levels."""
    return two_sorted(
        (3, 1),
        [
            ("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
            ("R", (0, 1), [(0, 0), (1, 0), (2, 0)]),
        ],
    )


@pytest.fixture
def b_matching():
    """Perfect matching between two 2-point sorts; Aut = C2 diagonal."""
    return two_sorted((2, 2), [("M", (0, 1), [(0, 0), (1, 1)])])


@pytest.fixture
def b_kernel():
    """One first-sort point over a free 2-point second sort.

    The restriction map has a nontrivial kernel; the family-based claims are
    expected to fail for two or more members (see the uniform module notes).
    """
    return two_sorted((1, 2), [("Eq", (1, 1), [(0, 0), (1, 1)])])


@pytest.fixture
def b_rich():
    """3-cycle first sort, ordered 2-point second sort, full cross relation.

    Nontrivial structure on both sorts with a trivial restriction kernel;
    exercises second-sort relations through the quotient reconstruction.
    """
    return two_sorted(
        (3, 2),
        [
            ("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
            ("S", (1, 1), [(0, 1)]),
            ("R", (0, 1), [(p, q) for p in range(3) for q in range(2)]),
        ],
    )


def random_structure(rng: random.Random, max_total=6):
    """A random small multi-sorted structure (valid by construction)."""
    n_sorts = rng.randint(1, 3)
    sizes = []
    remaining = max_total - n_sorts
    for i in range(n_sorts):
        extra = rng.randint(0, remaining)
        sizes.append(1 + extra)
        remaining -= extra
    sizes = tuple(sizes)

    rel_syms, rels = [], []
    for ri in range(rng.randint(0, 2)):
        arity = rng.randint(1, 2)
        rsig = tuple(rng.randrange(n_sorts) for _ in range(arity))
        universe = 1
        for s in rsig:
            universe *= sizes[s]
        tuples = set()
        for _ in range(rng.randint(0, universe)):
            tuples.add(tuple(rng.randrange(sizes[s]) for s in rsig))
        rel_syms.append((f"R{ri}", rsig))
        rels.append(tuples)

    fn_syms, fns = [], []
    if rng.random() < 0.5:
        src = rng.randrange(n_sorts)
        tgt = rng.randrange(n_sorts)
        fn_syms.append(("f0", (src,), tgt))
        fns.append({(x,): rng.randrange(sizes[tgt]) for x in range(sizes[src])})

    const_syms, consts = [], []
    if rng.random() < 0.3:
        s = rng.randrange(n_sorts)
        const_syms.append(("c0", s))
        consts.append(rng.randrange(sizes[s]))

    sig = SortedSignature(
        tuple(f"s{i}" for i in range(n_sorts)),
        tuple(rel_syms),
        tuple(fn_syms),
        tuple(const_syms),
    )
    return SortedStructure(sig, sizes, rels, fns, consts)
