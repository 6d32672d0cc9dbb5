"""Independent brute-force oracles.

These deliberately avoid the library's search code paths: isomorphisms by
filtering all permutation families, skew multiplication by string rewriting,
cyclic skew tables and direct products cell by cell, the homomorphism law
over every pair, sections by raw fiber products, matched triples by enumerating full commutative matrices,
twist-equivalence classes by pairwise comparison, thread sets by scanning
every triple once per element, the uniform construction's output by
relabelling the base member along one isomorphism.  The family oracle
searches each relabelled copy's automorphism groups again and carries the
weak splitting across map by map.  The catalog
oracle keeps the library's isomorphism search but re-tries every ordered
product pair in every round.
Expected values in the tests are frozen from these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from uniconstruct.groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    find_isomorphism,
    symmetric,
)
from uniconstruct.groups import aut_group
from uniconstruct.structures import (
    SortedMap,
    SortedStructure,
    identity_map,
    isomorphisms,
    reduct,
    relabel,
    relabel_map,
)
from uniconstruct.uniform import make_lifted_copy


def naive_isomorphisms(s1: SortedStructure, s2: SortedStructure):
    """All per-sort bijection families preserving everything, by filtering."""
    if s1.signature != s2.signature or s1.sort_sizes != s2.sort_sizes:
        return []
    out = []
    for perms in itertools.product(
        *(itertools.permutations(range(n)) for n in s1.sort_sizes)
    ):
        if _preserves(s1, s2, perms):
            out.append(tuple(tuple(p) for p in perms))
    return out


def _preserves(s1, s2, perms):
    for (name, rsig), rel1, rel2 in zip(s1.signature.relations, s1.relations, s2.relations):
        image = {
            tuple(perms[rsig[i]][t[i]] for i in range(len(t))) for t in rel1
        }
        if image != rel2:
            return False
    for (name, fsig, tgt), tab1, tab2 in zip(
        s1.signature.functions, s1.functions, s2.functions
    ):
        for args, v in tab1.items():
            mapped = tuple(perms[fsig[i]][args[i]] for i in range(len(args)))
            if tab2.get(mapped) != perms[tgt][v]:
                return False
    for (name, sort), c1, c2 in zip(s1.signature.constants, s1.constants, s2.constants):
        if perms[sort][c1] != c2:
            return False
    return True


# ---------------------------------------------------------------------------
# Skew product by word rewriting over {y, y^-1} and positioned generators

def rewrite_mul(a, b):
    """Multiply two skew elements by normalizing the concatenated word.

    Tokens are ("y", +-1) or ("g", position, value).  The only rewrite rules
    used are g@p . y^d -> y^d . g@(p+d), commutation of distinct positions,
    and in-place merging at equal positions.
    """
    base = a.base
    word = []
    for el in (a, b):
        d = 1 if el.shift > 0 else -1
        word.extend([("y", d)] * abs(el.shift))
        word.extend([("g", p, v) for p, v in el.support])

    # push every y-token to the front, shifting generators it passes
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i][0] == "g" and word[i + 1][0] == "y":
                d = word[i + 1][1]
                word[i], word[i + 1] = word[i + 1], ("g", word[i][1] + d, word[i][2])
                changed = True

    shift = sum(tok[1] for tok in word if tok[0] == "y")
    gens = [(tok[1], tok[2]) for tok in word if tok[0] == "g"]

    # bubble-sort by position (distinct positions commute), merging equals
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gens) - 1:
            (p, g), (q, h) = gens[i], gens[i + 1]
            if p > q:
                gens[i], gens[i + 1] = gens[i + 1], gens[i]
                changed = True
            elif p == q:
                merged = base.mul(g, h)
                if merged == 0:
                    del gens[i : i + 2]
                else:
                    gens[i : i + 2] = [(p, merged)]
                changed = True
            else:
                i += 1
    return shift, tuple(gens)


def naive_cyclic_skew_table(k, base):
    """Cayley table of the cyclic skew analogue, cell by cell in pure Python.

    Index ``shift * n^k + sum_p values[p] * n^(k-1-p)`` with n = |base|; the
    product rotates the left values by the right shift and multiplies per
    position in the base table."""
    n_base = base.order

    def decode(index):
        values = []
        for _ in range(k):
            index, v = divmod(index, n_base)
            values.append(v)
        values.reverse()
        return index, values

    def encode(shift, values):
        idx = shift % k
        for v in values:
            idx = idx * n_base + v
        return idx

    size = k * n_base**k
    decoded = [decode(x) for x in range(size)]
    table = [[0] * size for _ in range(size)]
    for x, (n, xs) in enumerate(decoded):
        for y, (m, ys) in enumerate(decoded):
            rotated = [xs[(p - m) % k] for p in range(k)]
            table[x][y] = encode(n + m, [base.mul(rotated[p], ys[p]) for p in range(k)])
    return table


# ---------------------------------------------------------------------------
# Direct products and the catalog by the plain loops


def naive_direct_product(g1, g2, name=None):
    """g1 x g2 cell by cell, the pair (a, b) encoded as a * |g2| + b."""
    n2 = g2.order
    n = g1.order * n2
    table = [
        [g1.mul(x // n2, y // n2) * n2 + g2.mul(x % n2, y % n2) for y in range(n)]
        for x in range(n)
    ]
    return FiniteGroup(table, name=name or f"{g1.label()}x{g2.label()}")


def naive_catalog(max_order):
    """The catalog by its definition: the named families, deduplicated against
    every kept group of the same order, then every ordered product pair
    re-built and re-tested in every round until a round keeps nothing new."""
    raw = [cyclic(n) for n in range(1, max_order + 1)]
    raw += [symmetric(n) for n in range(3, 8) if math.factorial(n) <= max_order]
    raw += [alternating(n) for n in range(3, 8) if math.factorial(n) // 2 <= max_order]
    raw += [dihedral(k) for k in range(3, max_order // 2 + 1)]
    raw += [dicyclic(k) for k in range(2, max_order // 4 + 1)]
    kept = []

    def known(g):
        return any(find_isomorphism(g, h) is not None for h in kept if h.order == g.order)

    for g in raw:
        if not known(g):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        current = list(kept)
        for g1 in current:
            for g2 in current:
                if g1.order * g2.order > max_order or 1 in (g1.order, g2.order):
                    continue
                name = "x".join(sorted([g1.label(), g2.label()]))
                prod = naive_direct_product(g1, g2, name=name)
                if not known(prod):
                    kept.append(prod)
                    changed = True
    return sorted(kept, key=lambda g: (g.order, g.label()))


# ---------------------------------------------------------------------------
# Subgroups and quotients through g.mul alone


def naive_closure(g, seed):
    """The subgroup generated by a non-empty seed: add products until none is new."""
    current = set(seed)
    while True:
        bigger = current | {g.mul(a, b) for a in current for b in current}
        if bigger == current:
            return frozenset(current)
        current = bigger


def naive_subgroups(g):
    """Every subgroup as a join of cyclic subgroups: start from the cyclic
    subgroups and close the set under pairwise joins."""
    found = {naive_closure(g, {x}) for x in g.elements()}
    while True:
        joins = {naive_closure(g, h | k) for h in found for k in found}
        if joins <= found:
            return sorted(found, key=lambda s: (len(s), sorted(s)))
        found |= joins


def naive_normal_subgroups(g):
    return [
        h
        for h in naive_subgroups(g)
        if all({g.mul(g.mul(x, a), g.inv(x)) for a in h} == h for x in g.elements())
    ]


def naive_quotient(g, sub):
    """(table, projection map) of g/N, the cosets xN numbered by their least
    element and multiplied through their largest elements."""
    n = frozenset(sub)
    cosets = sorted({frozenset(g.mul(x, a) for a in n) for x in g.elements()}, key=min)
    index = {x: i for i, c in enumerate(cosets) for x in c}
    table = [[index[g.mul(max(c1), max(c2))] for c2 in cosets] for c1 in cosets]
    return table, tuple(index[x] for x in g.elements())


def naive_is_hom(mapping, domain, codomain):
    """m(ab) == m(a)m(b) over every pair, by ``mul``."""
    m = list(mapping)
    return all(
        m[domain.mul(a, b)] == codomain.mul(m[a], m[b])
        for a in domain.elements()
        for b in domain.elements()
    )


# ---------------------------------------------------------------------------
# Sections by raw fiber products, with first-principles checks

def _naive_labelled_sections(phi):
    """Every section in fiber-product order, with "splitting", "weak" or None."""
    h, g = phi.domain, phi.codomain
    fibers = [[x for x in h.elements() if phi.map[x] == v] for v in g.elements()]
    z = [x for x in h.elements() if all(h.mul(x, y) == h.mul(y, x) for y in h.elements())]
    zset = set(z)
    out = []
    for combo in itertools.product(*fibers):
        hom = all(
            combo[g.mul(x, y)] == h.mul(combo[x], combo[y])
            for x in g.elements()
            for y in g.elements()
        )
        if hom:
            out.append((combo, "splitting"))
            continue
        central = (
            combo[0] == 0
            and all(combo[g.inv(x)] == h.inv(combo[x]) for x in g.elements())
            and all(
                h.mul(h.mul(combo[x], combo[y]), h.inv(combo[g.mul(x, y)])) in zset
                for x in g.elements()
                for y in g.elements()
            )
        )
        out.append((combo, "weak" if central else None))
    return out


def naive_sections(phi):
    """(splittings, weak splittings that are not splittings), each a list of
    section maps in fiber-product order."""
    labelled = _naive_labelled_sections(phi)
    return (
        [combo for combo, label in labelled if label == "splitting"],
        [combo for combo, label in labelled if label == "weak"],
    )


def naive_section_census(phi):
    """(n_sections, n_splittings, n_weak_splittings) by direct enumeration."""
    labels = [label for _, label in _naive_labelled_sections(phi)]
    n_split = labels.count("splitting")
    return len(labels), n_split, n_split + labels.count("weak")


# ---------------------------------------------------------------------------
# Matched triples by enumerating full commutative matrices

def naive_matched_triples(A, fam, *, max_elements=None):
    """Every (pi, full g matrix, b) satisfying the written conditions.

    Returned as a set of hashable summaries:
    (pi image keys, g matrix image keys, b) for comparison against the
    base-row enumeration in the package.
    """
    members = fam.members
    n = len(members)
    iso = [isomorphisms(m.A, A, max_elements=max_elements) for m in members]
    if any(not lst for lst in iso):
        return set()
    biso = [
        [
            isomorphisms(members[s].B, members[t].B, max_elements=max_elements)
            for t in range(n)
        ]
        for s in range(n)
    ]
    out = set()
    for pis in itertools.product(*iso):
        h = {}
        for s in range(n):
            for t in range(n):
                h[(s, t)] = pis[t].inverse().compose(pis[s])
        pair_choices = []
        pairs = [(s, t) for s in range(n) for t in range(n)]
        for s, t in pairs:
            if s == t:
                pair_choices.append([identity_map(members[s].B)])
            else:
                pair_choices.append(
                    [m for m in biso[s][t] if m.maps[0] == h[(s, t)].maps[0]]
                )
        for combo in itertools.product(*pair_choices):
            g = {pairs[i]: combo[i] for i in range(len(pairs))}
            if not _commutative(g, n):
                continue
            for b0 in members[0].B.elements():
                b = [None] * n
                b[0] = b0
                ok = True
                for t in range(n):
                    b[t] = g[(0, t)].apply_pair(b0)
                for s in range(n):
                    for t in range(n):
                        if g[(s, t)].apply_pair(b[s]) != b[t]:
                            ok = False
                if ok:
                    out.add(
                        (
                            tuple(p.key() for p in pis),
                            tuple(g[p].key() for p in pairs),
                            tuple(b),
                        )
                    )
    return out


def _commutative(g, n):
    for s in range(n):
        if g[(s, s)].maps != tuple(tuple(range(len(m))) for m in g[(s, s)].maps):
            return False
    for r in range(n):
        for s in range(n):
            for t in range(n):
                if g[(s, t)].compose(g[(r, s)]).maps != g[(r, t)].maps:
                    return False
    return True


# ---------------------------------------------------------------------------
# The twist equivalence on a matched-triple space, decided pairwise


def naive_classes(space):
    """(class_of, members) of the equivalence e_equiv generates, by pairwise
    union-find over all triples related in either direction, classes
    numbered by their first triple, members ascending."""
    xs = space.triples
    parent = list(range(len(xs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if find(i) != find(j) and (
                space.e_equiv(xs[i], xs[j]) or space.e_equiv(xs[j], xs[i])
            ):
                parent[find(j)] = find(i)
    roots, class_of, members = {}, [], []
    for i in range(len(xs)):
        r = find(i)
        if r not in roots:
            roots[r] = len(members)
            members.append([])
        class_of.append(roots[r])
        members[roots[r]].append(i)
    return class_of, members


def naive_e_matrix(space):
    """The |X| x |X| matrix of x1 E x2, straight from the definition: for every
    member s, x2.b[s] is psi_tilde(s, x1.pi[s], x2.pi[s]) applied to x1.b[s]."""
    xs = space.triples
    mat = np.ones((len(xs), len(xs)), dtype=bool)
    for s, iso in enumerate(space.iso):
        sizes = space.fam.members[s].B.sort_sizes
        offset = [sum(sizes[:k]) for k in range(len(sizes))]
        # image[i, j, g]: global index of psi_tilde(s, i, j) applied to element g
        image = np.array([
            [
                [offset[k] + v for k, m in enumerate(space.psi_tilde(s, i, j).maps) for v in m]
                for j in range(len(iso))
            ]
            for i in range(len(iso))
        ])
        pi = np.array([x.pi_idx[s] for x in xs])
        g = np.array([offset[x.b[s][0]] + x.b[s][1] for x in xs])
        mat &= image[pi[:, None], pi[None, :], g[:, None]] == g[None, :]
    return mat


def naive_relation_verdicts(mat):
    """(reflexive, symmetric, transitive) of a boolean matrix; two-step path
    counts in float64, exact integers far beyond any |X| here."""
    counts = mat.astype(np.float64)
    return (
        bool(mat.diagonal().all()),
        bool((mat == mat.T).all()),
        bool((((counts @ counts) > 0) <= mat).all()),
    )


def naive_cocycle_holds(space):
    """psi_tilde(s,j,l) . psi_tilde(s,i,j) == psi_tilde(s,i,l) over the whole cube."""
    return all(
        space.psi_tilde(s, j, l).compose(space.psi_tilde(s, i, j)).maps
        == space.psi_tilde(s, i, l).maps
        for s, iso in enumerate(space.iso)
        for i, j, l in itertools.product(range(len(iso)), repeat=3)
    )


def naive_frame_threads(space):
    """Per frame, class id -> thread, by scanning every triple once per frame.

    Returns the error message instead when a class has two threads in a frame
    or misses one."""
    class_of, members = space.classes()
    frames = list(itertools.product(*(range(len(iso)) for iso in space.iso)))
    by_frame = []
    for frame in frames:
        threads = {}
        for i, x in enumerate(space.triples):
            if x.pi_idx != frame:
                continue
            if class_of[i] in threads and threads[class_of[i]] != x.b:
                return "a class carries two different threads in one frame"
            threads[class_of[i]] = x.b
        if len(threads) != len(members):
            return "a class misses a frame entirely"
        by_frame.append(threads)
    return frames, by_frame


def naive_representative_structure(A, fam):
    """The base member's structure carried onto A: its first sort relabelled
    by the first isomorphism base.A -> A (lexicographic), its second sort by
    the identity.  Where the claims pass, the uniform construction must
    return exactly this."""
    base = fam.members[0]
    first = naive_isomorphisms(base.A, A)[0][0]
    return relabel(base.B, (first, tuple(range(base.B.sort_sizes[1]))))


# ---------------------------------------------------------------------------
# Lifted families by searching every copy again


def naive_family(B, psi, n):
    """The n family members, each relabelled copy re-searched: its groups
    come from ``aut_group`` in canonical order, and its section sends each
    automorphism g of the copy's reduct to f . psi(f^-1 g f) . f^-1 for the
    relabelling f, looked up by map in the copy's own group."""
    base = make_lifted_copy(B, psi)
    members = [base]
    perm_iter = itertools.product(*(itertools.permutations(range(size)) for size in B.sort_sizes))
    next(perm_iter)  # identity family
    for tag in range(1, n):
        f = relabel_map(B, next(perm_iter))
        f_inv = f.inverse()
        copy_a = reduct(f.codomain, (0,))
        f_a = SortedMap(base.A, copy_a, (f.maps[0],))
        f_a_inv = f_a.inverse()
        aut_a, aut_b = aut_group(copy_a), aut_group(f.codomain)
        section = [
            aut_b.index_of(
                f.compose(base.psi_map(base.autA.index_of(f_a_inv.compose(g.compose(f_a)))))
                .compose(f_inv)
            )
            for g in aut_a.maps
        ]
        members.append(make_lifted_copy(f.codomain, section, tag=tag))
    return members


# ---------------------------------------------------------------------------
# Thread sets of target elements, one scan per element


def _naive_thread_set(space, a):
    """Indices of the triples whose every b_s is the first-sort element that
    pi_s^-1 sends a to."""
    return [
        idx
        for idx, x in enumerate(space.triples)
        if all(
            x.b[s] == (0, space.iso[s][pi].inverse().maps[0][a])
            for s, pi in enumerate(x.pi_idx)
        )
    ]


def naive_thread_classes(space):
    """Per target element, (thread set, its class or None, problem), the
    problem empty exactly when the thread set is one whole class."""
    class_of, members = space.classes()
    out = []
    for a in range(space.A.sort_sizes[0]):
        idxs = _naive_thread_set(space, a)
        cids = {class_of[i] for i in idxs}
        if not idxs:
            out.append(((), None, "empty thread set"))
        elif len(cids) != 1:
            out.append((tuple(idxs), None, f"spans {len(cids)} classes"))
        else:
            cid = cids.pop()
            strict = set(members[cid]) != set(idxs)
            problem = "thread set is a strict part of its class" if strict else ""
            out.append((tuple(idxs), cid, problem))
    return out


def naive_k_classes_claim(space):
    """(ok, detail) of the cla5_k_classes claim, element by element."""
    class_of, members = space.classes()
    ok, detail, seen = True, [], set()
    for a in range(space.A.sort_sizes[0]):
        idxs = set(_naive_thread_set(space, a))
        if not idxs:
            ok = False
            detail.append(f"element {a}: empty thread set")
            continue
        cids = {class_of[i] for i in idxs}
        if len(cids) != 1:
            ok = False
            detail.append(f"element {a}: spans {len(cids)} classes")
            continue
        cid = cids.pop()
        if set(members[cid]) != idxs:
            ok = False
            detail.append(f"element {a}: thread set is a strict part of its class")
        if cid in seen:
            ok = False
            detail.append(f"element {a}: class collides with another element")
        seen.add(cid)
    return ok, "; ".join(detail)
