"""Independent brute-force oracles.

These deliberately avoid the library's search code paths: isomorphisms by
filtering all permutation families, skew multiplication by string rewriting,
cyclic skew tables and direct products cell by cell, the homomorphism law
over every pair, homomorphisms by extending every tuple of generator images
along words, skew projection defects by sampling pairs, random skew
elements through ``Random.randrange`` and ``Random.sample``, sections by raw
fiber products, the section search and its labeller on whole Cayley tables
made through ``mul``, matched triples by enumerating full commutative matrices,
twist-equivalence classes by pairwise comparison, thread sets by scanning
every triple once per element, the uniform construction's output by
relabelling the base member along one isomorphism, restriction maps by
looking each cut-down automorphism up as a map.  The family oracle
searches each relabelled copy's automorphism groups again and carries the
weak splitting across map by map.  The catalog
oracle keeps the library's isomorphism search but re-tries every ordered
product pair in every round.  A construction map F is modelled as an
explicit lookup table (:class:`Solver`) from the reducts of a catalog of
copies back to the copies, composed and reduced table by table.
Expected values in the tests are frozen from these.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from uniconstruct import config
from uniconstruct.errors import SignatureMismatchError
from uniconstruct.groups import (
    SECTION_ONLY,
    SPLITTING,
    WEAK_SPLITTING,
    FiniteGroup,
    GroupHom,
    _NodeBudget,
    alternating,
    center,
    cyclic,
    dicyclic,
    dihedral,
    find_isomorphism,
    symmetric,
)
from uniconstruct.groups import aut_group
from uniconstruct.jsondoc import is_int_list
from uniconstruct.skew import (
    _RANDOM_MAX_SHIFT,
    _RANDOM_MAX_SUPPORT,
    _RANDOM_POSITIONS,
    SkewElement,
    phi23,
    random_skew_element,
    skew_mul,
)
from uniconstruct.structures import (
    SortedMap,
    SortedSignature,
    SortedStructure,
    identity_map,
    isomorphisms,
    reduct,
    relabel,
    relabel_map,
    restrict_signature,
    structure_from_json,
    structure_to_json,
)
from uniconstruct.uniform import MatchedTriple, TripleSpace, make_lifted_copy


def canonical_copies(s: SortedStructure, cap: int | None = None) -> list[SortedStructure]:
    """Distinct relabelings of ``s`` on its own universe, canonically ordered.

    The full set has size prod(sort_size!) / |Aut(s)|; enumeration cost is
    prod(sort_size!).
    """
    s.check_valid()
    seen = {}
    for perms in itertools.product(*(itertools.permutations(range(n)) for n in s.sort_sizes)):
        copy = relabel(s, perms)
        key = copy.canonical_key()
        if key not in seen:
            seen[key] = copy
    copies = sorted(seen.values(), key=lambda c: c.canonical_key())
    if cap is not None:
        copies = copies[:cap]
    return copies


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


def naive_restriction(H, G):
    """The index in G of each element of H cut down to G's structure, the
    reduct of H's to its leading sorts, looked up map by map."""
    A = G.structure
    k = len(A.sort_sizes)
    return tuple(G.index_of(SortedMap(A, A, H.map(i).maps[:k])) for i in range(H.order))


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


def phi23_hom_defect(x: SkewElement, y: SkewElement) -> bool:
    """True when phi23(x*y) != phi23(x)*phi23(y): the pair breaks the
    homomorphism law of :func:`phi23`."""
    return phi23(skew_mul(x, y)) != x.base.mul(phi23(x), phi23(y))


def hom_violations(
    base: FiniteGroup, n_samples: int, seed: int = 0
) -> list[tuple[SkewElement, SkewElement]]:
    """Sample element pairs and collect those where the base projection
    breaks the homomorphism law.  Abelian bases should yield none.

    Pair i is elements 2i and 2i+1 of the stream that
    :func:`random_skew_element` draws, with identities allowed, from
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    bad = []
    for _ in range(n_samples):
        x = random_skew_element(base, rng, allow_identity=True)
        y = random_skew_element(base, rng, allow_identity=True)
        if phi23_hom_defect(x, y):
            bad.append((x, y))
    return bad


def randrange_skew_element(
    base: FiniteGroup,
    rng: random.Random,
    *,
    allow_identity: bool = False,
) -> SkewElement:
    """:func:`random_skew_element` as it drew through ``Random.randrange``
    and ``Random.sample``: the stream its ``getrandbits`` draws must give."""
    order = base.order
    randrange = rng.randrange  # randrange(a, b + 1) is what randint(a, b) calls
    while True:
        shift = randrange(-_RANDOM_MAX_SHIFT, _RANDOM_MAX_SHIFT + 1)
        size = randrange(_RANDOM_MAX_SUPPORT + 1)
        positions = rng.sample(_RANDOM_POSITIONS, size) if size else ()  # k=0 draws nothing
        support = tuple(sorted([(p, randrange(1, order)) for p in positions])) if order > 1 else ()
        if allow_identity or shift or support:
            return SkewElement(base, shift, support)


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


def naive_homs(domain, codomain):
    """Every homomorphism domain -> codomain as its tuple of images: each
    tuple of images for the domain's generators is extended along words,
    breadth first from the identity by ``mul``, and kept only when
    :func:`naive_is_hom` accepts the map it gives."""
    homs = []
    for images in itertools.product(codomain.elements(), repeat=len(domain.gens)):
        m = {0: 0}
        frontier = [0]
        while frontier:
            fresh = []
            for x in frontier:
                for q, v in zip(domain.gens, images):
                    y = domain.mul(x, q)
                    if y not in m:
                        m[y] = codomain.mul(m[x], v)
                        fresh.append(y)
            frontier = fresh
        mapping = tuple(m[x] for x in domain.elements())
        if naive_is_hom(mapping, domain, codomain):
            homs.append(mapping)
    return homs


# ---------------------------------------------------------------------------
# Sections by raw fiber products, with first-principles checks

def naive_center_set(h):
    return {x for x in h.elements() if all(h.mul(x, y) == h.mul(y, x) for y in h.elements())}


def naive_section_label(phi, combo, zset):
    """"splitting", "weak" or None for the section ``combo`` of ``phi``, from
    every pair of elements; ``zset`` is the centre of phi's domain."""
    h, g = phi.domain, phi.codomain
    hom = all(
        combo[g.mul(x, y)] == h.mul(combo[x], combo[y])
        for x in g.elements()
        for y in g.elements()
    )
    if hom:
        return "splitting"
    central = (
        combo[0] == 0
        and all(combo[g.inv(x)] == h.inv(combo[x]) for x in g.elements())
        and all(
            h.mul(h.mul(combo[x], combo[y]), h.inv(combo[g.mul(x, y)])) in zset
            for x in g.elements()
            for y in g.elements()
        )
    )
    return "weak" if central else None


def _naive_labelled_sections(phi):
    """Every section in fiber-product order, with "splitting", "weak" or None."""
    h, g = phi.domain, phi.codomain
    fibers = [[x for x in h.elements() if phi.map[x] == v] for v in g.elements()]
    zset = naive_center_set(h)
    return [(combo, naive_section_label(phi, combo, zset)) for combo in itertools.product(*fibers)]


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
# The section search and its labeller on whole Cayley tables: the library's
# ``_labeller`` and ``_weak_splittings`` as they were when they read whole
# tables, verbatim but for ``.table`` where they called ``rows()``.  Both
# groups of ``phi`` must be FiniteGroups (see :func:`on_tables`).

def cayley_table(g) -> FiniteGroup:
    """The Cayley table of a FiniteGroup or an AutomorphismGroup, every pair
    through ``g.mul``, as a FiniteGroup with the same element numbers; over
    the ``table_cells`` bound it is refused before any product is formed."""
    config.check_table_cells(g.order)
    n = g.order
    return FiniteGroup([list(map(g.mul, itertools.repeat(a, n), range(n))) for a in range(n)])


def on_tables(phi: GroupHom) -> GroupHom:
    """``phi`` between the :func:`cayley_table` copies of its groups."""
    return GroupHom(cayley_table(phi.domain), cayley_table(phi.codomain), phi.map)


def table_labeller(phi: GroupHom) -> Callable[[Sequence[int]], str]:
    """The classifier of sections psi of ``phi``: H -> G, on the defects
    psi(x) psi(q) psi(xq)^-1 for every x and every generator q of G.

    Both labels need psi(1) = 1.  psi is a splitting iff every defect is 1,
    by the induction of :func:`_hom_law_holds`; otherwise a weak splitting
    iff psi(x^-1) = psi(x)^-1 for every x and every defect is central.  That
    is the definition with y restricted to generators, so it is necessary.
    It suffices: central defects make pi.psi, for pi: H -> H/Z(H), obey the
    law on generators, so pi.psi is a homomorphism by the same induction, and
    then every defect psi(x) psi(y) psi(xy)^-1 lies in the kernel Z(H).
    H's table (whose size bound is checked first), G's generator columns,
    the inverses and Z(H) are read once per ``phi``.
    """
    h, g = phi.domain, phi.codomain
    h_mul = h.table
    columns = [(q, g.right(q)) for q in g.gens]
    g_inv, h_inv = g.inverses(), h.inverses()
    central = frozenset(center(h))

    def label(psi: Sequence[int]) -> str:
        if psi[0] != 0:
            return SECTION_ONLY
        defects = {
            h_mul[h_mul[v][psi[q]]][h_inv[psi[xq]]] for q, col in columns for v, xq in zip(psi, col)
        }
        if defects <= {0}:
            return SPLITTING
        if defects <= central and all(psi[y] == h_inv[v] for y, v in zip(g_inv, psi)):
            return WEAK_SPLITTING
        return SECTION_ONLY

    return label


def table_weak_splittings(
    phi: GroupHom, fibers: list[list[int]], budget: _NodeBudget
) -> Iterator[list[int]]:
    """Every weak splitting of ``phi``, each as a fresh list, in
    lexicographic order; ``fibers`` is :func:`_fibers` of ``phi``.

    Both kinds of splitting fix 1 and commute with inverses, so the search
    assigns psi(x) and psi(x^-1) = psi(x)^-1 together: one level per inverse
    pair, led by its smaller element x, whose fiber is tried in increasing
    order.  Position x^-1 comes after x and is fixed by it, so depth-first
    order is lexicographic order of the whole section.  A node checks the
    center-defect condition only on the triples (a, b, ab) that contain a
    newly assigned element, so every complete assignment (a leaf) is a weak
    splitting.  Each node visited is taken from ``budget``; the generator
    runs only as far as its consumer reads.
    """
    g, h = phi.codomain, phi.domain
    h_mul, h_inv = h.table, h.inverses()
    g_mul, g_inv = g.table, g.inverses()
    central = [False] * h.order
    for z in center(h):
        central[z] = True
    leaders = [x for x in range(g.order) if 0 < x <= g_inv[x]]
    assign = [-1] * g.order
    assign[0] = 0
    assigned = [0]

    def defect_ok(c: int) -> bool:
        # the triples (a, c), (c, a) and (a, a^-1 c) over every assigned a
        pc = assign[c]
        for a in assigned:
            pa = assign[a]
            p = assign[g_mul[a][c]]
            if p >= 0 and not central[h_mul[h_mul[pa][pc]][h_inv[p]]]:
                return False
            p = assign[g_mul[c][a]]
            if p >= 0 and not central[h_mul[h_mul[pc][pa]][h_inv[p]]]:
                return False
            p = assign[g_mul[g_inv[a]][c]]
            if p >= 0 and not central[h_mul[h_mul[pa][p]][h_inv[pc]]]:
                return False
        return True

    def extend(i: int) -> Iterator[list[int]]:
        if i == len(leaders):
            yield assign[:]
            return
        x = leaders[i]
        xi = g_inv[x]
        new = [x] if x == xi else [x, xi]
        for v in fibers[x]:
            vi = h_inv[v]
            if x == xi and v != vi:
                continue
            budget.take()
            assign[x] = v
            assign[xi] = vi
            assigned.extend(new)
            if all(defect_ok(c) for c in new):
                yield from extend(i + 1)
            del assigned[-len(new):]
            assign[x] = -1
            assign[xi] = -1

    return extend(0)


# ---------------------------------------------------------------------------
# Matched triples by enumerating full commutative matrices

def naive_matched_triples(A, fam, *, max_elements=None):
    """Every (pi, full g matrix, b) satisfying the written conditions, the
    g matrix extending pi on the kept sorts, those of the members' reducts.

    Returned as a set of hashable summaries:
    (pi image keys, g matrix image keys, b) for comparison against the
    base-row enumeration in the package.
    """
    members = fam.members
    n = len(members)
    k = len(A.sort_sizes)
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
                    [m for m in biso[s][t] if m.maps[:k] == h[(s, t)].maps]
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
                            tuple(p.maps for p in pis),
                            tuple(g[p].maps for p in pairs),
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


def g_map(space: TripleSpace, x: MatchedTriple, t: int) -> SortedMap:
    """The base-row isomorphism B_0 -> B_t chosen by the triple."""
    if t == 0 or x.g_idx[t] == -1:
        return identity_map(space.fam.members[0].B)
    return space.biso[t][x.g_idx[t]]


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
            for g in map(aut_a.map, range(aut_a.order))
        ]
        members.append(make_lifted_copy(f.codomain, section, tag=tag))
    return members


# ---------------------------------------------------------------------------
# Thread sets of target elements, one scan per element


def _naive_thread_set(space, a):
    """Indices of the triples whose every b_s is the element that pi_s^-1
    sends a to, a being an index into the target's ``elements()``."""
    sort, e = space.A.elements()[a]
    return [
        idx
        for idx, x in enumerate(space.triples)
        if all(
            x.b[s] == (sort, space.iso[s][pi].inverse().maps[sort][e])
            for s, pi in enumerate(x.pi_idx)
        )
    ]


def naive_thread_classes(space):
    """Per target element, (thread set, its class or None, problem), the
    problem empty exactly when the thread set is one whole class."""
    class_of, members = space.classes()
    out = []
    for a in range(space.A.total_elements):
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
    for a in range(space.A.total_elements):
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


# ---------------------------------------------------------------------------
# Construction maps as explicit catalogs


class CatalogMismatchError(Exception):
    """Solver catalogs do not line up for composition or reduction."""


@dataclass
class Solver:
    """An explicit map from first-sort reducts back to full structures.

    ``keep`` names the sorts of a catalog2 member that constitute its
    "first sort" side; the defining property is
    ``map(reduct(B, keep)) == B`` for every catalog2 member B.  Both catalogs
    must be closed into single isomorphism classes.
    """

    catalog1: tuple[SortedStructure, ...]
    catalog2: tuple[SortedStructure, ...]
    outputs: tuple[SortedStructure, ...]  # parallel to catalog1
    keep: tuple[int, ...] = (0,)

    def __post_init__(self):
        if len(self.outputs) != len(self.catalog1):
            raise CatalogMismatchError("solver map must be total on catalog1")

    def apply(self, a: SortedStructure) -> SortedStructure:
        for inp, out in zip(self.catalog1, self.outputs):
            if inp == a:
                return out
        raise CatalogMismatchError("structure is not in the solver's input catalog")

    def verify(self, *, max_elements: int | None = None) -> None:
        """Re-check the defining property and the catalog iso-class closure."""
        cat1 = list(self.catalog1)
        if len(set(c.canonical_key() for c in cat1)) != len(cat1):
            raise CatalogMismatchError("input catalog contains duplicates")
        for out in self.outputs:
            if out not in self.catalog2:
                raise CatalogMismatchError("solver output leaves catalog2")
        for b in self.catalog2:
            r = reduct(b, self.keep)
            if self.apply(r) != b:
                raise CatalogMismatchError(
                    "solver does not invert the reduct on catalog2"
                )
        for cat in (self.catalog1, self.catalog2):
            for other in cat[1:]:
                if not isomorphisms(cat[0], other, max_elements=max_elements, limit=1):
                    raise CatalogMismatchError("catalog members are not pairwise isomorphic")


def solver_from_catalog(
    catalog2: Iterable[SortedStructure], keep: Sequence[int] = (0,)
) -> Solver:
    """Build the canonical solver for a catalog of full structures.

    Requires the keep-reduct to be injective on the catalog, which is exactly
    what makes the defining property satisfiable.
    """
    cat2 = tuple(catalog2)
    keep_t = tuple(int(k) for k in keep)
    cat1: list[SortedStructure] = []
    outs: list[SortedStructure] = []
    seen: dict = {}
    for b in cat2:
        r = reduct(b, keep_t)
        key = r.canonical_key()
        if key in seen and seen[key] != b:
            raise CatalogMismatchError(
                "two catalog members share a first-sort reduct; no solver exists"
            )
        if key not in seen:
            seen[key] = b
            cat1.append(r)
            outs.append(b)
    solver = Solver(tuple(cat1), cat2, tuple(outs), keep_t)
    solver.verify()
    return solver


def compose_solvers(f12: Solver, f23: Solver) -> Solver:
    """Chain two solvers; the middle catalogs must coincide."""
    mid_left = set(c.canonical_key() for c in f12.catalog2)
    mid_right = set(c.canonical_key() for c in f23.catalog1)
    if mid_left != mid_right:
        raise CatalogMismatchError("middle catalogs do not match")
    outputs = tuple(f23.apply(out) for out in f12.outputs)
    keep = tuple(f23.keep[i] for i in f12.keep)
    composed = Solver(f12.catalog1, f23.catalog2, outputs, keep)
    composed.verify()
    return composed


def solver_to_json(s: Solver) -> dict:
    """Serialize as a list of (input, output) structure pairs."""
    return {
        "keep": list(s.keep),
        "pairs": [
            [structure_to_json(a), structure_to_json(b)]
            for a, b in zip(s.catalog1, s.outputs)
        ],
    }


def solver_from_json(doc) -> Solver:
    """The solver of a ``{"keep": [...], "pairs": [...]}`` document; ``keep``
    must be a list of JSON integers, and anything else raises
    CatalogMismatchError("malformed solver document: …")."""
    try:
        if not is_int_list(doc["keep"]):
            raise ValueError(f"keep must be a list of integers, not {doc['keep']!r}")
        keep = tuple(doc["keep"])
        pairs = [
            (structure_from_json(a), structure_from_json(b)) for a, b in doc["pairs"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogMismatchError(f"malformed solver document: {exc}") from exc
    catalog1 = tuple(a for a, _ in pairs)
    outputs = tuple(b for _, b in pairs)
    catalog2 = []
    seen = set()
    for b in outputs:
        key = b.canonical_key()
        if key not in seen:
            seen.add(key)
            catalog2.append(b)
    solver = Solver(catalog1, tuple(catalog2), outputs, keep)
    solver.verify()
    return solver


def reduct_solver(fd: Solver, target: SortedSignature) -> Solver:
    """Forget the expansion symbols of every solver output.

    The target signature must be a symbol-subset of the catalog2 signature
    whose removal does not touch the kept sorts (so the input catalog is
    unchanged).
    """
    if not fd.catalog2:
        raise CatalogMismatchError("empty solver")
    for b in fd.catalog2:
        restricted = restrict_signature(b, target)  # raises if not an expansion
        if reduct(restricted, fd.keep) != reduct(b, fd.keep):
            raise SignatureMismatchError(
                "restriction changes the kept sorts; input catalogs would differ"
            )
    new_cat2 = tuple(restrict_signature(b, target) for b in fd.catalog2)
    if len(set(c.canonical_key() for c in new_cat2)) != len(new_cat2):
        raise CatalogMismatchError("restricted catalog members collide")
    new_outputs = tuple(restrict_signature(b, target) for b in fd.outputs)
    solver = Solver(fd.catalog1, new_cat2, new_outputs, fd.keep)
    solver.verify()
    return solver
