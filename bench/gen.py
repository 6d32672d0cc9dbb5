"""Seeded input files for the benchmark workloads.

Plain Python with no ``uniconstruct`` import, so a library change cannot
change the inputs it is measured on.  The seed relabels every input: both
sorts of each two-sorted structure B, the target A (a copy of B's first-sort
reduct), and the non-identity elements of every group table together with
the homomorphisms between them.  The same seed writes byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# ---------------------------------------------------------------------------
# Groups as Cayley tables with identity 0


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral(n):
    """Order 2n; element j*n + k stands for r^k s^j."""

    def mul(a, b):
        k1, j1, k2, j2 = a % n, a // n, b % n, b // n
        if j1 == 0:
            return (k1 + k2) % n + n * j2
        return (k1 - k2) % n + n * ((j1 + j2) % 2)

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def quaternion():
    """Q8 as the dicyclic group of order 8; element 2 is the central -1."""
    m = 4

    def mul(x, y):
        k1, j1, k2, j2 = x % m, x // m, y % m, y // m
        if j1 == 0:
            return (k1 + k2) % m + m * j2
        if j2 == 0:
            return (k1 - k2) % m + m
        return (k1 - k2 + 2) % m

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def permutations(n):
    """Permutations of range(n), identity first; p*q applies q first."""
    return [tuple(p) for p in itertools.permutations(range(n))]


def perm_table(perms):
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(len(q)))] for q in perms] for p in perms]


def direct_product(t1, t2):
    n2 = len(t2)
    size = len(t1) * n2
    return [
        [t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2] for y in range(size)]
        for x in range(size)
    ]


def sign(p):
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2


def check_hom(dom, cod, mapping):
    """Guard against a mistake in this file: the map must be a surjective hom."""
    for a in range(len(dom)):
        for b in range(len(dom)):
            if mapping[dom[a][b]] != cod[mapping[a]][mapping[b]]:
                raise ValueError("generated map is not a homomorphism")
    if sorted(set(mapping)) != list(range(len(cod))):
        raise ValueError("generated map is not surjective")


def s4_to_s3():
    """S4 acting on its three pair partitions of {0,1,2,3}; kernel V4."""
    parts = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    key = [frozenset(frozenset(pair) for pair in part) for part in parts]
    s3 = {p: i for i, p in enumerate(permutations(3))}
    mapping = []
    for p in permutations(4):
        image = tuple(
            key.index(frozenset(frozenset(p[x] for x in pair) for pair in part))
            for part in parts
        )
        mapping.append(s3[image])
    return mapping


def towers():
    """(name, g1, g2, g3, phi12, phi23) for the encode3 jobs."""
    s3 = perm_table(permutations(3))
    s3_sign = [sign(p) for p in permutations(3)]
    d4 = dihedral(4)
    q8 = quaternion()
    v4 = direct_product(cyclic(2), cyclic(2))
    return [
        ("s4-s3-c2", cyclic(2), s3, perm_table(permutations(4)), s3_sign, s4_to_s3()),
        ("d4-d4-c2", cyclic(2), d4, d4, [a // 4 for a in range(8)], list(range(8))),
        # Q8 / {1, -1} = V4 via (k mod 2, j); then project onto the second factor
        ("q8-v4-c2", cyclic(2), v4, q8, [a % 2 for a in range(4)],
         [(a % 2) * 2 + a // 4 for a in range(8)]),
        ("s3-s3-c2", cyclic(2), s3, s3, s3_sign, list(range(6))),
    ]


def d16_mod_center():
    """D16 (order 32) onto D16/Z with Z = {1, r^8}; cosets numbered by first visit."""
    g = dihedral(16)
    coset_of = {}
    reps = []
    for a in range(len(g)):
        if a not in coset_of:
            for z in (0, 8):
                coset_of[g[a][z]] = len(reps)
            reps.append(a)
    quotient = [[coset_of[g[a][b]] for b in reps] for a in reps]
    return g, quotient, [coset_of[a] for a in range(len(g))]


def c2_x_d8_to_d8():
    g = direct_product(cyclic(2), dihedral(8))
    return g, dihedral(8), [a % 16 for a in range(32)]


# ---------------------------------------------------------------------------
# Seeded relabeling


def group_perm(rng, n):
    """A bijection of range(n) fixing the identity 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel_group(table, sigma):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out


def relabel_hom(mapping, sigma_dom, sigma_cod):
    out = [0] * len(mapping)
    for a, v in enumerate(mapping):
        out[sigma_dom[a]] = sigma_cod[v]
    return out


def group_doc(table):
    return {"order": len(table), "table": table}


# ---------------------------------------------------------------------------
# Two-sorted structures: (sizes, [(name, signature, tuples)])

STRUCTURES = {
    "cycle3": ((3, 1), [("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
                        ("R", (0, 1), [(0, 0), (1, 0), (2, 0)])]),
    "rich": ((3, 2), [("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
                      ("S", (1, 1), [(0, 1)]),
                      ("R", (0, 1), [(p, q) for p in range(3) for q in range(2)])]),
    "matching": ((2, 2), [("M", (0, 1), [(0, 0), (1, 1)])]),
    "kernel": ((1, 2), [("Eq", (1, 1), [(0, 0), (1, 1)])]),
    "free5": ((5, 1), [("R", (0, 1), [(p, 0) for p in range(5)])]),
    "free6": ((6, 1), [("R", (0, 1), [(p, 0) for p in range(6)])]),
}

# structures that also get a relabeled first-sort target A
TARGETS = ("cycle3", "rich", "matching", "kernel")
SORT_NAMES = ("p", "q")


def structure_doc(sizes, relations):
    return {
        "sorts": [{"name": SORT_NAMES[i], "size": n} for i, n in enumerate(sizes)],
        "relations": [
            {
                "name": name,
                "signature": [SORT_NAMES[i] for i in sig],
                "tuples": sorted(list(t) for t in tuples),
            }
            for name, sig, tuples in relations
        ],
        "functions": [],
        "constants": [],
    }


def relabel_structure(sizes, relations, perms):
    return [
        (name, sig, [tuple(perms[sig[i]][t[i]] for i in range(len(t))) for t in tuples])
        for name, sig, tuples in relations
    ]


def first_sort_reduct(sizes, relations):
    return sizes[:1], [r for r in relations if all(s == 0 for s in r[1])]


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def cycle3_attach_map(perm_p, sigma_c6):
    """C6 onto Aut(relabeled cycle3) = C3, as indices into the canonical
    automorphism order (lexicographic on image sequences, identity first)."""
    inv = [0] * 3
    for x, y in enumerate(perm_p):
        inv[y] = x
    # rotation k conjugated by the relabeling, on sort p; sort q is one point
    autos = {k: tuple(perm_p[(inv[x] + k) % 3] for x in range(3)) + (0,) for k in range(3)}
    order = sorted(autos.values())
    index = {k: order.index(img) for k, img in autos.items()}
    return relabel_hom([index[c % 3] for c in range(6)], sigma_c6, list(range(3)))


# ---------------------------------------------------------------------------


def rng_seed(seed: int) -> int:
    return random.Random(f"uniconstruct-bench:{seed}:laws").randrange(2**31)


def generate(seed: int, out_dir: Path) -> dict[str, str]:
    """Write every input file for ``seed`` into ``out_dir``.

    Returns name -> CLI argument: the path of each file, plus ``laws_seed``,
    the sampler seed handed to ``skew --op laws``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {"laws_seed": str(rng_seed(seed))}

    def rng_for(name):
        return random.Random(f"uniconstruct-bench:{seed}:{name}")

    def write(name, doc):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        paths[name] = str(path)

    for name, (sizes, relations) in STRUCTURES.items():
        rng = rng_for(name)
        perms = [shuffled(rng, n) for n in sizes]
        rel_b = relabel_structure(sizes, relations, perms)
        write(f"B_{name}", structure_doc(sizes, rel_b))
        if name in TARGETS:
            a_sizes, a_rel = first_sort_reduct(sizes, relations)
            a_perm = [shuffled(rng, a_sizes[0])]
            write(f"A_{name}", structure_doc(a_sizes, relabel_structure(a_sizes, a_rel, a_perm)))
        if name == "cycle3":
            c6_sigma = group_perm(rng, 6)
            write("G3_c6", group_doc(relabel_group(cyclic(6), c6_sigma)))
            write("phi23_cycle3_c6", {"map": cycle3_attach_map(perms[0], c6_sigma)})

    write("free6_plain", structure_doc((6,), []))

    for name, g1, g2, g3, phi12, phi23 in towers():
        check_hom(g2, g1, phi12)
        check_hom(g3, g2, phi23)
        rng = rng_for(name)
        s1, s2, s3 = (group_perm(rng, len(g)) for g in (g1, g2, g3))
        write(f"triple_{name}", {
            "g1": group_doc(relabel_group(g1, s1)),
            "g2": group_doc(relabel_group(g2, s2)),
            "g3": group_doc(relabel_group(g3, s3)),
            "phi12": relabel_hom(phi12, s2, s1),
            "phi23": relabel_hom(phi23, s3, s2),
        })

    for name, (dom, cod, mapping) in {
        "hom_d16_center": d16_mod_center(),
        "hom_c2xd8_d8": c2_x_d8_to_d8(),
    }.items():
        check_hom(dom, cod, mapping)
        rng = rng_for(name)
        sd, sc = group_perm(rng, len(dom)), group_perm(rng, len(cod))
        write(name, {
            "domain": group_doc(relabel_group(dom, sd)),
            "codomain": group_doc(relabel_group(cod, sc)),
            "map": relabel_hom(mapping, sd, sc),
        })

    for name, table in {
        "base_c2": cyclic(2),
        "base_c3": cyclic(3),
        "base_s3": perm_table(permutations(3)),
    }.items():
        write(name, group_doc(relabel_group(table, group_perm(rng_for(name), len(table)))))
    return paths
